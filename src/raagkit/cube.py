"""Half-space calculus on the universal cover of the Salvetti complex.

Vertices of the cover are group elements (the basepoint is the identity);
oriented edges are right multiplications by a generator or its inverse.  A
hyperplane dual to an edge ``(x, x*a)`` is determined by the coset
``x*<lk(a)>`` together with the label ``a``, because parallel edges differ by
right multiplication by generators adjacent to ``a``.  A half-space adds a
sign: ``+`` is the side containing ``base*a``, ``-`` the side containing
``base``.

Canonical form: the base is the unique minimal-length representative of the
coset, reached from the normal form by greedily deleting suffix-movable
letters whose generators are adjacent to the label.  Equality of
half-spaces is then plain equality of ``(base, label, sign)``.

Relations come in two flavors.  ``crosses``/``nested``/``tightly_nested``
are evaluated inside a finite context interval ``[x, y]`` and read off the
heap of ``w = nf(x^-1 y)``: positions ``i < j`` of ``w`` are ordered when their
letters do not commute, closed transitively (Cartier–Foata; Viennot's heaps of
pieces).  The interval's vertices are ``x`` times the order ideals of that
poset, so two walls cross iff their positions are incomparable, nest iff they
are comparable with both half-spaces oriented alike, and the walls between
two nested ones are the positions between them.  The global variants used
by the axiom checkers take no context but read the same heap, that of an
interval both walls separate.  They take each wall as ``(base, label,
sign)`` at any base of its coset, raw or canonical, so the axiom and
no-overlap searches translate walls without canonicalising them.  One
reduction ``u = reduce(b_h^-1 b_k)`` fixes the interval: it starts at the
end of h's edge on the far side of h from ``b_k`` and ends at the end of
k's edge on the far side of k from that start.  h's wall is then the first
letter of its generator and k's the last of its own, and the stretch
between them is all that is read: it has one position exactly when the two
are one wall, and the walls nest when they are oriented alike and the last
position lies above the first.  Labels and orientation flags settle most
pairs before any pass.  Two positions whose letters do not commute, as any
two of one generator, are comparable at once, so walls of one label nest
or not by their flags alone; only commuting labels need the one bitmask
pass over the up-set of the first position.  Tight walls sit at a covering
pair of positions, whose letters do not commute, so walls with adjacent
labels are never tight and are answered with no reduction; otherwise the
walls nest tightly when no position lies in that up-set and in the
down-set of the last, one more pass.  No heap is built.  ``in_a_g_plus``
reads the same nesting: g's axis enters H exactly when ``H ⊋ g·H`` (g
skewers H), one reduction of ``b^-1 g b`` for the base ``b`` and no pass.
The median of ``x, y, z`` is ``x`` times the meet of
``reduce(x^-1 y)`` and ``reduce(x^-1 z)`` in the prefix order of traces, the
same meet that cyclic reduction takes of ``w`` and ``w^-1``.

The sampled audits build only what they read.  ``ball`` grows by prefix
extension: a prefix of a lex-least normal form is itself one, so each
length is the one before extended by the letters that keep it a normal
form, already in (length, codes) order.  Each length is counted before it
is built, and a ball past :data:`BALL_LIMIT` elements is refused.  The
audits draw from the ball's codes and build a ``Word`` only for a
violation message.  ``check_max_chains`` takes the
heap positions of ``nf(x^-1 y)`` as the interval's walls: a nested pair is
two comparable positions, its longest chains are walks of comparable
positions (one walker, :func:`_longest_walks`, serves the audit and
:func:`all_longest_chains`), and two midpoints cross when their positions
are incomparable.  It builds no interval and no half-space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    BadParameter,
    ChainTooShort,
    EmptyWord,
    NotCyclicallyReduced,
    NotInContext,
    NotNested,
    UnknownGenerator,
    _check_at_least,
    _check_seed,
)
from .graphs import DefiningGraph
from .words import (
    Letter,
    Word,
    _can_lead,
    _inv_codes,
    _meet,
    _nf_of,
    _reduce_codes,
    _require_same_graph,
    _strip_suffix_in,
    is_cyclically_reduced,
    normal_form,
)

# ---------------------------------------------------------------------------
# canonical half-spaces
# ---------------------------------------------------------------------------


def _canon_base(graph: DefiningGraph, codes: bytes, gen: int) -> bytes:
    """Minimal representative of ``codes * <letters adjacent to gen>``, in normal form.

    Each letter the strip deletes is maximal in the heap of what is left, so
    stripping a normal form leaves a normal form.
    """
    return _strip_suffix_in(graph, _nf_of(graph, codes), graph._lk_mask[gen])


class HalfSpace:
    """An oriented half-space in canonical coset form.

    ``sign == +1`` selects the side containing ``base * label``; ``-1`` the
    side containing ``base``.  Instances are immutable value objects.
    """

    __slots__ = ("graph", "base_codes", "label_index", "sign", "_hash")

    def __init__(self, graph: DefiningGraph, base_codes: bytes, label_index: int, sign: int):
        self.graph = graph
        self.base_codes = base_codes
        self.label_index = label_index
        self.sign = sign
        self._hash = hash((graph, base_codes, label_index, sign))

    @property
    def base(self) -> Word:
        return Word(self.graph, self.base_codes)

    @property
    def label(self) -> str:
        return self.graph.vertices[self.label_index]

    def complement(self) -> "HalfSpace":
        return HalfSpace(self.graph, self.base_codes, self.label_index, -self.sign)

    def defining_edge(self) -> tuple[Word, Letter]:
        """The canonical dual edge, as (initial vertex, positively signed letter)."""
        return self.base, Letter(self.label, 1)

    def wall_key(self) -> tuple[bytes, int]:
        """Orientation-free identity of the underlying hyperplane."""
        return (self.base_codes, self.label_index)

    def sort_key(self) -> tuple[bytes, int, int]:
        return (self.base_codes, self.label_index, self.sign)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HalfSpace)
            and self.graph == other.graph
            and self.base_codes == other.base_codes
            and self.label_index == other.label_index
            and self.sign == other.sign
        )

    def __hash__(self) -> int:
        return self._hash

    def display(self) -> str:
        sign = "+" if self.sign > 0 else "-"
        return f"({self.base.display()}, {self.label}, {sign})"

    def __repr__(self) -> str:
        return f"HalfSpace{self.display()}"


def _wall_at(point: bytes, code: int) -> tuple[bytes, int, int]:
    """The half-space entered by crossing the edge from ``point`` along ``code``.

    It is given as ``(base codes, label, sign)`` at a raw base of its coset,
    neither reduced nor canonical.
    """
    if code & 1:
        # the positively-oriented form of the same edge starts at point*a^-1
        return point + bytes([code]), code >> 1, -1
    return point, code >> 1, 1


def _halfspace_at(graph: DefiningGraph, point: bytes, code: int) -> HalfSpace:
    """The canonical half-space entered by crossing the edge from ``point`` along ``code``."""
    base, gen, sign = _wall_at(point, code)
    return HalfSpace(graph, _canon_base(graph, base, gen), gen, sign)


def halfspace_of_edge(x: Word, letter: Letter | tuple[str, int] | str) -> HalfSpace:
    """The canonical half-space entered by crossing the edge ``(x, x*letter)``.

    The returned half-space contains ``x*letter`` and not ``x``.  The letter
    is checked as :meth:`Word.parse` or :meth:`Word.from_letters` checks it.
    """
    if isinstance(letter, str):
        word = Word.parse(x.graph, letter)
    else:
        word = Word.from_letters(x.graph, [letter])
    if len(word.codes) != 1:
        raise UnknownGenerator(f"expected a single letter, got {letter!r}")
    return _halfspace_at(x.graph, x.codes, word.codes[0])


def _member_codes(graph: DefiningGraph, x: bytes, hs: HalfSpace) -> bool:
    to_base = _reduce_codes(graph, _inv_codes(x) + hs.base_codes)
    return _can_lead(graph, reversed(to_base), 2 * hs.label_index + 1) == (hs.sign > 0)


def member(x: Word, hs: HalfSpace) -> bool:
    """True iff the vertex ``x`` lies in the half-space.

    The two endpoints of the defining edge straddle the hyperplane, so the
    distances from ``x`` to them always differ by exactly one.  The vertex
    is nearer the head ``base*a`` exactly when the reduced word from ``x``
    to the base can be shuffled to end in ``a^-1``: one reduction decides.
    """
    return _member_codes(_require_same_graph(x, hs), x.codes, hs)


def act(f: Word, hs: HalfSpace) -> HalfSpace:
    """Translate a half-space by a group element (label and sign preserved)."""
    graph = _require_same_graph(f, hs)
    base = _canon_base(graph, f.codes + hs.base_codes, hs.label_index)
    return HalfSpace(graph, base, hs.label_index, hs.sign)


# ---------------------------------------------------------------------------
# intervals and context relations
# ---------------------------------------------------------------------------


def _heap_down(graph: DefiningGraph, word: bytes) -> list[int]:
    """``down[j]``: bitmask of the positions strictly below ``j`` in the heap of ``word``.

    Positions ``i < j`` are ordered when their letters do not commute, and
    the order is closed transitively.
    """
    nc = graph._nc_mask
    down: list[int] = []
    for j, c in enumerate(word):
        below = 0
        for i in range(j):
            if (nc[word[i]] >> c) & 1:
                below |= (1 << i) | down[i]
        down.append(below)
    return down


class Interval:
    """The half-spaces separating two vertices, oriented toward the second.

    ``halfspaces`` lists each half-space H with ``start ∉ H`` and ``end ∈ H``,
    collected by walking the normal form of ``start^-1 * end``; its length is
    the distance between the endpoints.  ``_down[j]`` is the bitmask of the
    positions strictly below position ``j`` in the heap of that normal form.
    """

    def __init__(self, start: Word, end: Word):
        self.graph = graph = _require_same_graph(start, end)
        self.start = normal_form(start)
        self.end = normal_form(end)

        self._word = _nf_of(graph, _inv_codes(self.start.codes) + self.end.codes)
        self._down = _heap_down(graph, self._word)
        halfspaces = []
        here = self.start.codes
        for c in self._word:
            halfspaces.append(_halfspace_at(graph, here, c))
            here += bytes([c])
        self.halfspaces: tuple[HalfSpace, ...] = tuple(halfspaces)
        self._index = {hs: i for i, hs in enumerate(self.halfspaces)}

    def __len__(self) -> int:
        return len(self.halfspaces)

    def __contains__(self, hs: HalfSpace) -> bool:
        return hs in self._index

    def __iter__(self):
        return iter(self.halfspaces)

    def locate(self, hs: HalfSpace) -> tuple[int, bool]:
        """Index of the half-space; the flag marks complement orientation."""
        i = self._index.get(hs)
        if i is not None:
            return i, False
        i = self._index.get(hs.complement())
        if i is not None:
            return i, True
        raise NotInContext(f"{hs!r} does not separate the interval endpoints")


def interval(x: Word, y: Word) -> Interval:
    """The interval from ``x`` to ``y``: half-spaces oriented toward ``y``."""
    return Interval(x, y)


def _comparable(down: list[int], i: int, j: int) -> bool:
    lo, hi = (i, j) if i < j else (j, i)
    return bool((down[hi] >> lo) & 1)


def _direction(down: list[int], i: int, neg_i: bool, j: int, neg_j: bool) -> Optional[int]:
    """Nesting direction of the walls at heap positions ``i``, ``j``: +1 if i's contains j's.

    ``neg`` marks a half-space oriented away from the interval's end.
    Oriented toward the end, the half-space of a lower heap position contains
    that of a higher one; complementing both reverses the containment, and
    complementing one leaves the pair disjoint or covering.
    """
    if i == j or neg_i != neg_j or not _comparable(down, i, j):
        return None
    return 1 if (i < j) != neg_i else -1


def _between(down: list[int], i: int, j: int) -> list[int]:
    """The heap positions strictly between two comparable positions.

    The walls strictly between two nested ones sit there.
    """
    lo, hi = (i, j) if i < j else (j, i)
    return [r for r in range(lo + 1, hi) if (down[hi] >> r) & 1 and (down[r] >> lo) & 1]


def crosses(h: HalfSpace, k: HalfSpace, context: Interval) -> bool:
    """True iff the two hyperplanes cross (all four quadrants inhabited).

    Each vertex of the context interval crosses an order ideal of the heap, so
    all four quadrants occur exactly when neither position lies below the
    other.  Intervals are convex, so that is enough.
    """
    i, _ = context.locate(h)
    j, _ = context.locate(k)
    return i != j and not _comparable(context._down, i, j)


def nested(h: HalfSpace, k: HalfSpace, context: Interval) -> Optional[int]:
    """Nesting direction: +1 if h ⊃ k, -1 if k ⊃ h, None otherwise."""
    return _direction(context._down, *context.locate(h), *context.locate(k))


def tightly_nested(h: HalfSpace, k: HalfSpace, context: Interval) -> bool:
    """Nested with no half-space of the context strictly between.

    By convexity, a half-space between two nested half-spaces of an interval
    also separates the interval's endpoints, so checking context half-spaces
    is exhaustive.
    """
    (i, neg_i), (j, neg_j) = context.locate(h), context.locate(k)
    down = context._down
    return _direction(down, i, neg_i, j, neg_j) is not None and not _between(down, i, j)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """A strictly nested run of half-spaces, outermost first.

    Its length is the number of interior half-spaces: a chain listing
    ``H ⊃ H_1 ⊃ ... ⊃ H_n ⊃ K`` has length ``n``.
    """

    halfspaces: tuple[HalfSpace, ...]
    taut: bool = False

    @property
    def length(self) -> int:
        return len(self.halfspaces) - 2

    def __len__(self) -> int:
        return len(self.halfspaces)


def midpoint(chain: Chain) -> HalfSpace:
    """The interior half-space halfway along the chain.

    For length ``n`` the midpoint is the ``m``-th interior entry where
    ``m = n/2`` for even ``n`` and ``(n+1)/2`` for odd ``n``.
    """
    n = chain.length
    if n < 1:
        raise ChainTooShort(f"chain of length {n} has no midpoint")
    m = (n + 1) // 2
    return chain.halfspaces[m]


def _longest_walks(
    down: list[int], i: int, j: int, key=None, first: bool = False
) -> list[tuple[int, ...]]:
    """The longest walks of comparable heap positions from ``i`` to ``j``, as position tuples.

    ``i`` and ``j`` are comparable, in either order.  The positions a walk
    may pass sit between theirs, and two of them are consecutive on a walk
    only when comparable.  One scan from ``j``'s end gives each position its
    height: the most positions a walk from it down to ``j`` passes, itself
    included.  The walk steps from ``i`` to comparable positions one height
    lower, trying them in position order or in ``key`` order; ``first``
    stops at the first walk.
    """
    mids = _between(down, i, j)
    if not mids:  # the pair is a cover: its one walk has no interior
        return [(i, j)]
    height: dict[int, int] = {}
    for r in reversed(mids) if i < j else mids:
        height[r] = 1 + max((height[s] for s in height if _comparable(down, r, s)), default=0)
    order = sorted(mids, key=key) if key else mids
    walks: list[tuple[int, ...]] = []

    def walk(path: tuple[int, ...], need: int) -> None:
        if not need:
            walks.append(path + (j,))
            return
        for s in order:
            if height[s] == need and _comparable(down, path[-1], s):
                walk(path + (s,), need - 1)
                if walks and first:
                    return

    walk((i,), max(height.values()))
    return walks


def _longest_paths(
    context: Interval, outer: HalfSpace, inner: HalfSpace, all_chains: bool
) -> list[Chain]:
    """Maximum-length strictly nested chains from outer to inner, in ``sort_key`` order.

    The walls strictly between the pair sit at the heap positions between
    theirs, oriented like the pair, and two of them nest exactly when their
    positions are comparable, so the chains are the :func:`_longest_walks`
    from outer's position to inner's.  The walls of one interval are
    distinct, so their ``wall_key`` order is the ``sort_key`` order of the
    oriented half-spaces.  A chain is taut when no position lies strictly
    between two consecutive ones of its walk.
    """
    i, neg = context.locate(outer)
    j, _ = context.locate(inner)
    down, walls = context._down, context.halfspaces
    chains = []
    for path in _longest_walks(
        down, i, j, key=lambda r: walls[r].wall_key(), first=not all_chains
    ):
        taut = all(not _between(down, p, q) for p, q in zip(path, path[1:]))
        inside = (walls[r].complement() if neg else walls[r] for r in path[1:-1])
        chains.append(Chain((outer, *inside, inner), taut=taut))
    return chains


def longest_chain(h: HalfSpace, k: HalfSpace, context: Interval) -> Chain:
    """A maximum-length chain of context half-spaces from ``h`` down to ``k``.

    Requires ``h ⊃ k`` in the context.  Deterministic: at every step the
    least available half-space is preferred.  The result is taut, and the
    taut flag is verified rather than assumed.
    """
    if nested(h, k, context) != 1:
        raise NotNested("longest_chain requires the first argument to contain the second")
    return _longest_paths(context, h, k, all_chains=False)[0]


def all_longest_chains(h: HalfSpace, k: HalfSpace, context: Interval) -> list[Chain]:
    """Every maximum-length chain from ``h`` down to ``k`` in the context.

    Chains come in the order of their half-spaces' ``sort_key`` lists.
    """
    if nested(h, k, context) != 1:
        raise NotNested("all_longest_chains requires the first argument to contain the second")
    return _longest_paths(context, h, k, all_chains=True)


# ---------------------------------------------------------------------------
# medians
# ---------------------------------------------------------------------------


def median(x: Word, y: Word, z: Word) -> Word:
    """The unique vertex through which all three pairwise geodesics pass.

    It is ``x`` times the meet of ``x^-1 y`` and ``x^-1 z`` in the prefix order
    of reduced words (their greatest common trace prefix), returned in
    normal form.
    """
    graph = _require_same_graph(x, y, z)
    x_inv = _inv_codes(x.codes)
    u = _reduce_codes(graph, x_inv + y.codes)
    v = _reduce_codes(graph, x_inv + z.codes)
    return Word(graph, _nf_of(graph, x.codes + _meet(graph, u, v)))


# ---------------------------------------------------------------------------
# global relations (no context interval required)
# ---------------------------------------------------------------------------


def _stretch(graph: DefiningGraph, h: tuple, k: tuple) -> tuple[bytes, bool, bool]:
    """The heap positions from h's wall to k's in an interval both walls separate.

    Each wall is ``(base codes, label, sign)``, as :meth:`HalfSpace.sort_key`
    gives it, at any base of its coset: ``(b*z, b*z*a)`` is parallel to
    ``(b, b*a)`` when ``z`` commutes with ``a``.  Its start ``x`` is the end
    of h's edge on the far side of h from ``b_k``, its end ``y`` the end of
    k's edge on the far side of k from ``x``; an edge crosses no wall but its
    own, so both walls separate them.  h's wall touches ``x``, so it is the
    first letter of its generator in ``reduce(x^-1 y)``, and k's is the last
    of its own; no position outside that stretch lies between them.  The
    stretch is empty when k's wall comes first, as neither then lies below
    the other.  The flags say whether h and k are oriented away from ``y``.
    """
    (b_h, a, s_h), (b_k, c, s_k) = h, k
    w = _reduce_codes(graph, _inv_codes(b_h) + b_k)  # u
    x_head = not _can_lead(graph, w, 2 * a)
    if x_head:
        w = bytes([2 * a + 1]) + w  # x^-1 b_k: reduced, since u cannot start with a
    y_head = not _can_lead(graph, reversed(w), 2 * c + 1)
    if y_head:
        w += bytes([2 * c])  # x^-1 y: reduced, since x^-1 b_k cannot end in c^-1
    lo, hi = w.index(2 * a + x_head), w.rindex(2 * c + (not y_head))
    return w[lo : hi + 1], x_head == (s_h > 0), y_head != (s_k > 0)


def _reach(graph: DefiningGraph, word: bytes, positions: range) -> int:
    """Bitmask of the positions above the first of ``positions`` in the heap of ``word``.

    ``positions`` runs through the word from that position; run backwards,
    it gives the positions below it.  One pass: a position is above when its
    letter fails to commute with that of the first or of one already found.
    """
    nc = graph._nc_mask
    blocked, reached = nc[word[positions[0]]], 0
    for r in positions[1:]:
        if (blocked >> word[r]) & 1:
            blocked |= nc[word[r]]
            reached |= 1 << r
    return reached


def _above(graph: DefiningGraph, stretch: bytes) -> bool:
    """Whether the last position of a nonempty ``stretch`` lies above its first."""
    last = len(stretch) - 1
    return bool((_reach(graph, stretch, range(last + 1)) >> last) & 1)


def _walls_cross(graph: DefiningGraph, h: tuple, k: tuple) -> bool:
    """:func:`hyperplanes_cross` for two walls as :func:`_stretch` takes them."""
    if not (graph._lk_mask[h[1]] >> k[1]) & 1:
        return False
    stretch, _, _ = _stretch(graph, h, k)
    return not stretch or not _above(graph, stretch)


def hyperplanes_cross(h: HalfSpace, k: HalfSpace) -> bool:
    """Whether the underlying hyperplanes cross, tested globally.

    Crossing happens inside a square, so the labels must be adjacent (hence
    distinct).  Then, as in :func:`crosses`, the walls cross iff neither
    position lies below the other in the heap of an interval both separate.
    """
    return _walls_cross(_require_same_graph(h, k), h.sort_key(), k.sort_key())


def _direction_in(
    graph: DefiningGraph, stretch: bytes, neg_h: bool, neg_k: bool
) -> Optional[int]:
    """The nesting direction of the walls at the ends of a :func:`_stretch`.

    The walls nest when they are oriented alike and the last position lies
    above the first (a one-position stretch is one wall).  Two positions
    whose letters do not commute, as any two of one generator, are
    comparable at once; only commuting letters need the pass of
    :func:`_reach`.  Oriented toward the end, the half-space of the lower
    position contains the other's.
    """
    if neg_h != neg_k or len(stretch) < 2:
        return None
    if not (graph._nc_mask[stretch[0]] >> stretch[-1]) & 1 and not _above(graph, stretch):
        return None
    return -1 if neg_h else 1


def _tight_in(graph: DefiningGraph, stretch: bytes, neg_h: bool, neg_k: bool) -> bool:
    """Whether the walls at the ends of a :func:`_stretch` nest tightly.

    They nest as :func:`_direction_in` reads it, and no position lies above
    the first and below the last: the up-set of the first and the down-set
    of the last are one pass each, with no heap built.
    """
    if neg_h != neg_k or len(stretch) < 2:
        return False
    last = len(stretch) - 1
    up = _reach(graph, stretch, range(last + 1))
    return bool((up >> last) & 1) and not up & _reach(graph, stretch, range(last, -1, -1))


def _walls_tight(graph: DefiningGraph, h: tuple, k: tuple) -> bool:
    """:func:`tightly_nested_globally` for two walls as :func:`_stretch` takes them.

    Tight walls sit at a covering pair of heap positions, whose letters do
    not commute, so walls with adjacent labels are never tight: they are
    answered from the labels, with no stretch.
    """
    if (graph._lk_mask[h[1]] >> k[1]) & 1:
        return False
    return _tight_in(graph, *_stretch(graph, h, k))


def nested_globally(h: HalfSpace, k: HalfSpace) -> Optional[int]:
    """Global nesting direction: +1 if h ⊃ k, -1 if k ⊃ h, None otherwise.

    Read as :func:`nested` reads it, from the two walls' positions in the
    heap of an interval that both separate and from their orientations.
    """
    graph = _require_same_graph(h, k)
    return _direction_in(graph, *_stretch(graph, h.sort_key(), k.sort_key()))


def tightly_nested_globally(h: HalfSpace, k: HalfSpace) -> bool:
    """Global tight nesting: nested with no half-space at all strictly between.

    A half-space between the pair separates the interval's endpoints, so,
    as in :func:`tightly_nested`, tight means that no heap position lies
    above one wall's and below the other's.
    """
    return _walls_tight(_require_same_graph(h, k), h.sort_key(), k.sort_key())


# ---------------------------------------------------------------------------
# attracting-end membership
# ---------------------------------------------------------------------------


def _require_cyclically_reduced(g: Word) -> None:
    if g.is_identity:
        raise EmptyWord("the element must be nontrivial")
    if not is_cyclically_reduced(g):
        raise NotCyclicallyReduced(f"{g.display()!r} is not cyclically reduced")


def _attracts(graph: DefiningGraph, g_codes: bytes, wall: tuple) -> bool:
    """:func:`in_a_g_plus` for cyclically reduced ``g`` and a wall as :func:`_stretch` takes it.

    H and g·H have one label, so their positions are comparable whenever
    they are two: ``H ⊋ g·H`` when the stretch has two or more positions
    and both are oriented toward its end.
    """
    base, a, sign = wall
    stretch, neg_h, neg_g = _stretch(graph, wall, (g_codes + base, a, sign))
    return len(stretch) > 1 and not neg_h and not neg_g


def in_a_g_plus(g: Word, hs: HalfSpace) -> bool:
    """Whether the half-space contains the attracting end of the axis of ``g``.

    Convention: ``g`` is cyclically reduced and its axis is the orbit path of
    the identity, a geodesic line.  The half-space H qualifies iff the axis
    crosses H's wall into H: ``g^N ∈ H`` and ``g^-N ∉ H`` for large ``N``.
    That holds exactly when ``H ⊋ g·H`` (g skewers H, in the sense of
    Caprace–Sageev):

    (⇒) the axis crosses the wall of ``g·H`` one period later, in the same
    direction, so the two walls are distinct; walls with the same label
    never cross, so ``g·H ⊊ H``.

    (⇐) the walls of the chain ``g^n·H`` (n ∈ ℤ) are pairwise distinct, and
    only finitely many walls separate two vertices, so for large ``N`` the
    growing ``g^-N·H`` contains the identity and the shrinking ``g^N·H``
    does not: ``g^N ∈ H`` and ``g^-N ∉ H``.

    The nesting is read as :func:`nested_globally` reads it, with ``g·H``
    given at the raw base ``g·b``: one reduction, of ``b^-1·g·b``.  H may
    itself be given at any base of its coset, so the no-overlap search
    tests raw translates through the same reading and checks ``g`` once.
    """
    _require_cyclically_reduced(g)
    return _attracts(_require_same_graph(g, hs), g.codes, hs.sort_key())


# ---------------------------------------------------------------------------
# randomized checks of the action axioms
# ---------------------------------------------------------------------------


def _extensions(graph: DefiningGraph, v: bytes) -> int:
    """Bitmask of the letters ``c`` for which ``v·c`` is a normal form, for a normal form ``v``.

    This is :func:`~raagkit.words._nf_scan`'s step for one appended letter,
    taken for every letter at once: ``c`` stays last exactly when no letter
    it walks back past, the ones that commute with it, is greater, and the
    first one that does not commute is not ``c^-1``.  ``scanning`` holds the
    letters still walking back.
    """
    nc = graph._nc_mask
    letters = scanning = (1 << graph.letter_count) - 1
    bad = 0
    for s in reversed(v):
        bad |= scanning & (1 << (s ^ 1))  # s blocks its inverse, which cancels it
        scanning &= ~nc[s]
        bad |= scanning & ((1 << s) - 1)  # the letters below s would move before it
        if not scanning:
            break
    return letters & ~bad


# The most elements a ball may have.  On a 2-vCPU host, c5 at radius 6
# (131,441 elements) takes 0.09 s and 24 MB as codes, 0.33 s and 37 MB as
# Words.  The largest ball the tests and the benchmark read, the free group
# of rank 5 at radius 4, has 8,201; c5 at radius 7 has 819,971.
BALL_LIMIT = 200_000


def _ball_codes(graph: DefiningGraph, radius: int) -> list[bytes]:
    """The codes of :func:`ball`, in its order.

    Each length is counted, from the popcounts of its extensions, before it
    is built: a radius whose ball would pass :data:`BALL_LIMIT` elements
    raises :class:`~raagkit.errors.BadParameter` instead.
    """
    _check_at_least("radius", radius, 0)
    letters = range(graph.letter_count)
    level, out = [b""], [b""]
    for _ in range(radius):
        if not level:
            break
        exts = [_extensions(graph, v) for v in level]
        if len(out) + sum(ext.bit_count() for ext in exts) > BALL_LIMIT:
            raise BadParameter(
                f"the ball of radius {radius} has more than {BALL_LIMIT} elements"
            )
        level = [v + bytes((c,)) for v, ext in zip(level, exts) for c in letters if (ext >> c) & 1]
        out += level
    return out


def ball(graph: DefiningGraph, radius: int) -> list[Word]:
    """All group elements of length at most ``radius``, in normal form.

    Deterministic order: by length, then by packed letter codes.  A prefix
    of a lex-least normal form is itself one, so the elements of length
    ``r + 1`` are those of length ``r`` each extended by one letter that
    keeps it a normal form (:func:`_extensions`), and each arises once.
    Extending each length in order, letters ascending, gives that order
    directly: nothing is normalised, deduplicated or sorted.  A ball of
    more than :data:`BALL_LIMIT` elements is refused before it is built.
    """
    return [Word(graph, b) for b in _ball_codes(graph, radius)]


@dataclass
class SpecialAxiomsReport:
    """Outcome of a randomized search for forbidden action configurations."""

    radius: int
    samples: int
    seed: int
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            **vars(self),
            "checked": dict(sorted(self.checked.items())),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def check_special_axioms(
    graph: DefiningGraph, samples: int = 1000, radius: int = 3, seed: int = 0x5C1
) -> SpecialAxiomsReport:
    """Hunt for the four forbidden configurations of the group action.

    Per sample: draw half-spaces H, K dual to edges in the given ball and an
    element f of the ball, then check that
    (s1) f(H̄) never equals H,
    (s2) H never crosses f(H),
    (s3) H and f(H̄) are never tightly nested, and
    (s4) when H, K are tightly nested, H never crosses f(K).
    Any hit is recorded as a violation (it would witness an implementation
    bug, not new mathematics).  The pool holds the ball's codes, and a
    ``Word`` is built only for a violation message.  Walls stay at the raw
    bases they are drawn at, and translates are raw too: f(H̄) is
    ``(f·b, a, -s)`` for H at ``(b, a, s)``; only a violation message
    canonicalises H and K.  s1 and s3 read one :func:`_stretch` of H and
    f(H̄): they are one wall exactly when it has one position, and f(H̄) = H
    when the two are also oriented alike.  Walls of one label nest or not by
    their orientation flags alone, as two positions of one generator are
    comparable; only tightness needs the bitmask passes.  s1, s2 and s4 hold by
    construction: f(H̄) has the sign opposite to H; crossing needs adjacent
    labels, so H never crosses a wall of its own label; and tight nesting
    needs labels that do not commute, so H and K are never eligible for s4
    when their labels are adjacent, and then H does not cross f(K), whose
    label is K's.  These three are kept as checks of the representation;
    only s3 is sampled evidence.
    """
    _check_at_least("samples", samples, 0)
    _check_seed(seed)
    rng = random.Random(seed)
    pool = _ball_codes(graph, radius)
    n_letters = graph.letter_count
    report = SpecialAxiomsReport(radius=radius, samples=samples, seed=seed)
    counts = {"s1": 0, "s2": 0, "s3": 0, "s4": 0, "s4_eligible": 0}
    if not n_letters:
        report.checked = counts
        return report

    def violation(axiom: str, f: bytes, *edges: tuple[bytes, int]) -> None:
        walls = "".join(f" {n}={_halfspace_at(graph, *e).display()}" for n, e in zip("HK", edges))
        report.violations.append(f"{axiom}: f={Word(graph, f).display()}{walls}")

    for _ in range(samples):
        h_edge = rng.choice(pool), rng.randrange(n_letters)
        k_edge = rng.choice(pool), rng.randrange(n_letters)
        f = rng.choice(pool)
        h = b, a, s = _wall_at(*h_edge)
        k = b_k, c, s_k = _wall_at(*k_edge)

        stretch, neg_h, neg_f = _stretch(graph, h, (f + b, a, -s))
        counts["s1"] += 1
        if len(stretch) == 1 and neg_h == neg_f:
            violation("s1", f, h_edge)

        counts["s2"] += 1
        if _walls_cross(graph, h, (f + b, a, s)):
            violation("s2", f, h_edge)

        counts["s3"] += 1
        if _tight_in(graph, stretch, neg_h, neg_f):
            violation("s3", f, h_edge)

        counts["s4"] += 1
        if _walls_tight(graph, h, k):
            counts["s4_eligible"] += 1
            if _walls_cross(graph, h, (f + b_k, c, s_k)):
                violation("s4", f, h_edge, k_edge)
    report.checked = counts
    return report


@dataclass
class MaxChainsReport:
    """Outcome of checking that longest-chain midpoints cross or coincide."""

    radius: int
    samples: int
    seed: int
    intervals_checked: int = 0
    nested_pairs: int = 0
    chains_enumerated: int = 0
    midpoint_pairs: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {**vars(self), "violations": list(self.violations), "ok": self.ok}


def _chain_midpoints(down: list[int], i: int, j: int) -> tuple[int, list[int]]:
    """The number of longest chains from position ``i`` down to ``j``, and their midpoints.

    The midpoints are heap positions, one per chain with an interior, in the
    order :func:`_longest_walks` finds the chains.  A walk of ``L`` interior
    positions has its midpoint at index ``(L + 1) // 2``, as :func:`midpoint`
    takes it.
    """
    walks = _longest_walks(down, i, j)
    return len(walks), [path[(len(path) - 1) // 2] for path in walks if len(path) > 2]


def check_max_chains(
    graph: DefiningGraph, samples: int = 200, radius: int = 3, seed: int = 0x5C1
) -> MaxChainsReport:
    """Sample intervals and verify the longest-chain midpoint property.

    For every nested pair H ⊃ K inside a sampled interval, all longest chains
    from H to K are enumerated; every two of their midpoints must either
    coincide or cross.  Everything is read off the heap of ``nf(x^-1 y)``,
    whose positions are the interval's walls: oriented toward the end, H ⊃ K
    exactly when H's position lies below K's, the chains are the walks of
    comparable positions between them (:func:`_longest_walks`), and two
    midpoints cross exactly when their positions are incomparable.  No
    interval or half-space is built; only a violation message canonicalises
    its two midpoints.  Within one nested pair, chains come in position
    order.
    """
    _check_at_least("samples", samples, 0)
    _check_seed(seed)
    rng = random.Random(seed)
    pool = _ball_codes(graph, radius)
    report = MaxChainsReport(radius=radius, samples=samples, seed=seed)
    for _ in range(samples):
        x = rng.choice(pool)
        y = rng.choice(pool)
        if x == y:
            continue
        word = _nf_of(graph, _inv_codes(x) + y)
        down = _heap_down(graph, word)
        report.intervals_checked += 1
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                if not (down[j] >> i) & 1:
                    continue
                report.nested_pairs += 1
                count, mids = _chain_midpoints(down, i, j)
                report.chains_enumerated += count
                for a, p in enumerate(mids):
                    for q in mids[a + 1 :]:
                        report.midpoint_pairs += 1
                        if p == q or not _comparable(down, p, q):
                            continue
                        h, k = (_halfspace_at(graph, x + word[:r], word[r]) for r in (p, q))
                        report.violations.append(
                            f"midpoints neither equal nor crossing: "
                            f"{h.display()} vs {k.display()} "
                            f"in [{Word(graph, x).display()}, {Word(graph, y).display()}]"
                        )
    return report


# ---------------------------------------------------------------------------
# translated-interval search
# ---------------------------------------------------------------------------


@dataclass
class NoOverlapSearchReport:
    """Result of searching for a translate reversing a long axis segment."""

    g: Word
    radius: int
    samples: int
    seed: int
    pairs_checked: int = 0
    elements_checked: int = 0
    triples_checked: int = 0
    premise_failures: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.premise_failures

    def to_json_dict(self) -> dict:
        return {
            **vars(self),
            "g": self.g.display(),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _axis_point(graph: DefiningGraph, g_codes: bytes, offset: int) -> bytes:
    """Normal form of the axis vertex ``offset`` letters from the basepoint."""
    step = g_codes if offset >= 0 else _inv_codes(g_codes)
    n = abs(offset)
    return _nf_of(graph, (step * (n // len(step) + 1))[:n])


def search_prop_noov_violation(
    g: Word, radius: int = 3, samples: int = 200, seed: int = 0x5C1
) -> NoOverlapSearchReport:
    """Look for an element carrying a long attracting-axis segment backwards.

    Vertex pairs x, y are taken on the axis of ``g`` (two periods either
    side of the basepoint) with the segment [x, y] inside the attracting
    half-space family and strictly longer than half a period.  For every
    element f of length at most ``radius`` the reversed translate is tested:
    a violation means every half-space of [f*y, f*x] still lies in the
    attracting family.  Those half-spaces, oriented toward f*x, are the
    translates f(H̄) of the walls H of [x, y].  Those walls are read raw,
    with :func:`_wall_at`, along the geodesic that ``nf(x^-1 y)`` spells
    from x, in the order :class:`Interval` lists them: each edge crosses one
    of them toward y.  Each f(H̄) is tested at its raw base: ``(f·b, a, -s)``
    for H at ``(b, a, s)``.  ``g`` is checked to be cyclically reduced once,
    here, and no wall or translate is canonicalised.  None is expected; the
    identity element is the canonical near-miss (it reverses the segment
    exactly).
    The premise holds by construction, since the axis crosses every wall of
    a forward segment forward; the ``premise_failures`` count stays as a
    check of :func:`in_a_g_plus`.
    """
    _require_cyclically_reduced(g)
    _check_at_least("samples", samples, 0)
    _check_seed(seed)
    graph = g.graph
    rng = random.Random(seed)
    period = len(g.codes)
    offsets = range(-2 * period, 2 * period + 1)
    pairs = [
        (i, j)
        for i in offsets
        for j in offsets
        if j > i and 2 * (j - i) > period
    ]
    if len(pairs) > samples:
        pairs = sorted(rng.sample(pairs, samples))
    pool = _ball_codes(graph, radius)
    report = NoOverlapSearchReport(g=g, radius=radius, samples=samples, seed=seed)
    report.elements_checked = len(pool)
    for i, j in pairs:
        x = Word(graph, _axis_point(graph, g.codes, i))
        y = Word(graph, _axis_point(graph, g.codes, j))
        path = _nf_of(graph, _inv_codes(x.codes) + y.codes)
        walls = [_wall_at(x.codes + path[:t], c) for t, c in enumerate(path)]
        if not all(_attracts(graph, g.codes, wall) for wall in walls):
            report.premise_failures += 1
            continue
        report.pairs_checked += 1
        for f in pool:
            report.triples_checked += 1
            if all(_attracts(graph, g.codes, (f + b, a, -s)) for b, a, s in walls):
                report.violations.append(
                    f"f={Word(graph, f).display()} carries [{x.display()}, {y.display()}] "
                    "backwards inside the attracting family"
                )
    return report
