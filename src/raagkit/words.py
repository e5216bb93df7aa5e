"""Words in a right-angled Artin group.

A word is a sequence of letters ``v`` or ``v^-1`` over the vertices of a
defining graph.  Internally letters are packed into a ``bytes`` object: the
generator with vertex index ``i`` becomes byte ``2*i`` and its inverse byte
``2*i + 1``.  Byte-wise comparison of packed words is then exactly the letter
order every deterministic choice in this package uses (vertex order, with each
generator just before its inverse).

Two different notions of equality matter and are kept strictly apart:

* ``Word.__eq__`` is structural — same graph, same letter sequence.  This is
  what sets and dict keys use.
* :func:`equal` is equality in the group, decided by the exponent sums of
  ``w1 * w2^-1`` when they differ from zero, else by reducing it.

The engine's scans read a word left to right and walk back past each letter
the incoming one commutes with: :func:`_reduce_codes` keeps the survivors in
input order, :func:`_nf_scan` keeps the normal form of what it has read.  A
run of commuting letters makes that walk long.  When the complement of the
defining graph is disconnected, the graph is a join, and ``A(graph)`` is the
direct product of its factors' groups, one per component of the complement
(``DefiningGraph._factor_drops``); the heap of a word is the disjoint union
of its projections' heaps (trace theory: Diekert–Rozenberg, *The Book of
Traces*, 1995).  So on a join graph, for words of at least
:data:`_SPLIT_LETTERS` letters, three operations work factor by factor, and
no scan walks back past a letter of another factor:

* :func:`_nf_of` normalises each projection and merges the results by
  heads (:func:`_merge`): the least minimal letter of the whole heap is the
  least of the factors' least minimal letters.
* :func:`equal` reduces each projection of ``w1 * w2^-1`` (when its
  exponent sums vanish): each projection is a retraction, and an element of
  a direct product is trivial exactly when every coordinate is.
* :func:`cyclically_reduce` cyclically reduces each projection and merges
  the cores and the conjugators, both normal forms.

Below :data:`_SPLIT_LETTERS` one scan of the whole word is faster than the
projections and the merge.  :func:`_reduce_codes`, and so :func:`reduce`,
:func:`is_reduced`, :func:`_meet` and everything built on them, still scans
the whole word in input order, as callers rely on the survivors' order.
Graphs whose complement is connected have one factor and are scanned whole.

:meth:`Word.parse` reads text through two tables the graph builds once: the
code of each token ``name`` and ``name^-1``, and the code of each
one-character name and, when it is not a vertex itself, of its upper case.
Token text the tables do not cover (``name^k``, unknown names, malformed
tokens) takes the token-by-token parser, which raises every parse error; an
exponent that would take the word past :data:`MAX_WORD_LETTERS` letters is
a :class:`WordSyntaxError`, raised before anything is expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    EmptyWord,
    GraphMismatch,
    NotCyclicallyReduced,
    NotReduced,
    UnknownGenerator,
    WordSyntaxError,
)
from .graphs import DefiningGraph

_TOKEN_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")

#: Most letters a parsed word may reach by expanding ``name^k`` tokens.
MAX_WORD_LETTERS = 1 << 20

#: Fewest letters for which normal forms, equality and cyclic reduction
#: work factor by factor on a join graph; shorter words are scanned whole.
#: Near this length, on random words over p3 and k3_pendant, the split and
#: the whole scan take about the same time for normal forms and cyclic
#: reduction; equality gains from about 20 letters.
_SPLIT_LETTERS = 32


class Letter(NamedTuple):
    name: str
    sign: int  # +1 or -1


# ---------------------------------------------------------------------------
# code-level engine (operates on bytes of letter codes)
# ---------------------------------------------------------------------------


# byte ``c`` maps to ``c ^ 1``: a letter to its inverse
_INV_TABLE = bytes(c ^ 1 for c in range(256))


def _inv_codes(codes: bytes) -> bytes:
    return codes[::-1].translate(_INV_TABLE)


def _rotations_at(codes: bytes, letter: int) -> list[bytes]:
    """The rotations of a coded cyclic word that start with ``letter``, by position."""
    n = len(codes)
    doubled = codes * 2
    rotations = []
    i = codes.find(letter)
    while i >= 0:
        rotations.append(doubled[i : i + n])
        i = codes.find(letter, i + 1)
    return rotations


def _least_rotation(codes: bytes) -> bytes:
    """The least rotation of a nonempty coded cyclic word, in byte order.

    It starts with the least letter, so only the rotations at that letter's
    occurrences are compared.  A slice ``min`` beats a pure-Python Booth's
    algorithm for the word lengths met here.
    """
    return min(_rotations_at(codes, min(codes)))


def _reduce_codes(graph: DefiningGraph, codes: bytes) -> bytes:
    """Fully reduce a coded word.

    Single left-to-right pass with a stack.  An incoming letter cancels the
    nearest earlier copy of its inverse that it can reach by commuting past
    every letter in between; otherwise it is pushed.  A letter that fails to
    commute blocks the scan, because no shuffle can move the pair together
    past it.
    """
    nc = graph._nc_mask
    stack: list[int] = []
    for c in codes:
        inv = c ^ 1
        pos = len(stack) - 1
        cancelled = False
        while pos >= 0:
            s = stack[pos]
            if s == inv:
                del stack[pos]
                cancelled = True
                break
            if (nc[s] >> c) & 1:
                break
            pos -= 1
        if not cancelled:
            stack.append(c)
    return bytes(stack)


def _nf_scan(graph: DefiningGraph, codes: bytes) -> bytes:
    """Normal form of a coded word, in one insertion pass over the whole word.

    One left-to-right pass keeps ``out`` the normal form of the reduced
    prefix read so far.  Each letter ``c`` scans ``out`` from the right past
    the letters that commute with it, noting the leftmost one greater than
    ``c``.  If the first letter that does not commute is ``c``'s inverse, it
    is maximal in the prefix's heap and is deleted; deleting a maximal element
    from a lex-least linearisation leaves the lex-least one of the rest.
    Otherwise ``c`` goes before the noted letter, or at the end: greedy
    "least minimal letter first" can take ``c`` only after the last letter
    that does not commute with it, and then takes it just before the first
    greater letter, leaving every other choice as it was.
    """
    nc = graph._nc_mask
    out: list[int] = []
    for c in codes:
        blocks = nc[c]
        pos = len(out) - 1
        at = pos + 1
        while pos >= 0:
            s = out[pos]
            if (blocks >> s) & 1:
                break
            if s > c:
                at = pos
            pos -= 1
        if pos >= 0 and out[pos] == c ^ 1:
            del out[pos]
        else:
            out.insert(at, c)
    return bytes(out)


def _factor_parts(graph: DefiningGraph, codes: bytes) -> list[bytes]:
    """The nonempty projections of a coded word onto the graph's join factors.

    Callers first check that the graph has factors and that the word has at
    least :data:`_SPLIT_LETTERS` letters; that check is written out in each,
    so that the common short word costs no extra call.
    """
    return [part for part in (codes.translate(None, d) for d in graph._factor_drops) if part]


def _merge(parts: list[bytes]) -> bytes:
    """Interleave normal forms of distinct join factors, taking the least head each time.

    Cut each part into blocks, each starting at a new running maximum of the
    part.  The letters after a block's first are below it, so once the merge
    takes that first letter, it is the least head and the rest of the block
    is below every other head: blocks come out whole, in the order of their
    first letters.  A part's last block starts at the first occurrence of its
    greatest letter, so the cut reads the part from the right, one C-level
    ``max`` and ``index`` per block; a part has at most as many blocks as
    letters of its factor.
    """
    if len(parts) == 1:
        return parts[0]
    blocks = []
    for part in parts:
        end = len(part)
        while end:
            start = part.index(max(part[:end]))
            blocks.append(part[start:end])
            end = start
    blocks.sort()
    return b"".join(blocks)


def _nf_of(graph: DefiningGraph, codes: bytes) -> bytes:
    """Normal form of a coded word: reduced, then lexicographically least.

    On a join graph a long word is split: each factor's projection is
    normalised by :func:`_nf_scan`, and the results are merged by heads.
    The heap of the word is the disjoint union of its factors' heaps, so its
    minimal letters are theirs, and greedy "least minimal letter first"
    takes the least of the factors' greedy heads each time.
    """
    if len(codes) < _SPLIT_LETTERS or not graph._factor_drops:
        return _nf_scan(graph, codes)
    return _merge([_nf_scan(graph, part) for part in _factor_parts(graph, codes)])


def _first_letters(graph: DefiningGraph, codes: bytes) -> int:
    """Bitmask of the letter codes the word can be shuffled to start with.

    A letter can move to the front when it commutes with every letter before
    it.  Commuting is symmetric, so the letters a word can end with are the
    first letters of ``codes[::-1]``.
    """
    nc = graph._nc_mask
    blocked = 0
    first = 0
    for c in codes:
        if not (blocked >> c) & 1:
            first |= 1 << c
        blocked |= nc[c]
    return first


def _meet(graph: DefiningGraph, u: bytes, v: bytes) -> bytes:
    """The greatest common prefix of two reduced words, in the prefix order of traces.

    Reducing ``u^-1 v`` keeps the survivors of ``u^-1`` before those of ``v``,
    and the ``k`` letters of ``v`` it cancels are exactly the meet: each
    commutes past every survivor of ``v`` before it, so they spell a common
    prefix of ``u`` and ``v``, and ``|u^-1 v| = |u| + |v| - 2k`` leaves no
    longer one.  The meet is ``v`` with its survivors cancelled from the right.
    """
    if not _first_letters(graph, u) & _first_letters(graph, v):
        return b""
    rest = _reduce_codes(graph, _inv_codes(u) + v)
    k = (len(u) + len(v) - len(rest)) // 2
    return _reduce_codes(graph, v + _inv_codes(rest[len(u) - k :]))


def _strip_suffix_in(graph: DefiningGraph, codes: bytes, gen_mask: int) -> bytes:
    """Shortest coset representative for a subgroup of commuting-closed kind.

    One pass from the right deletes each letter whose generator lies in
    ``gen_mask`` (a bitmask over vertex indices) and which commutes with every
    kept letter after it.  A deletion leaves the letters after it as they
    were, so this is the greedy rightmost deletion repeated until none
    remains.  For a reduced input it computes the minimal representative of
    ``w * <gen_mask>``.
    """
    nc = graph._nc_mask
    blocked = 0
    kept = bytearray()
    for c in reversed(codes):
        if not (blocked >> c) & 1 and (gen_mask >> (c >> 1)) & 1:
            continue
        kept.append(c)
        blocked |= nc[c]
    kept.reverse()
    return bytes(kept)


# ---------------------------------------------------------------------------
# public word type
# ---------------------------------------------------------------------------


class Word:
    """An unreduced word over the generators of a defining graph.

    Immutable.  Equality and hashing are structural (graph plus exact letter
    sequence); use :func:`equal` for equality in the group.  The ``*``, ``~``
    and ``**`` operators are literal concatenation, inversion and repetition —
    they never reduce.
    """

    __slots__ = ("graph", "codes", "_hash")

    def __init__(self, graph: DefiningGraph, codes: bytes):
        if codes and max(codes) >= graph.letter_count:
            raise UnknownGenerator("letter code out of range for this graph")
        self.graph = graph
        self.codes = codes
        self._hash = hash((graph, codes))

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, graph: DefiningGraph) -> "Word":
        return cls(graph, b"")

    @classmethod
    def from_letters(cls, graph: DefiningGraph, letters: Iterable[Letter | tuple[str, int]]) -> "Word":
        """A word from ``(name, sign)`` pairs, sign +1 or -1; anything else is a WordSyntaxError."""
        codes = bytearray()
        try:
            for name, sign in letters:
                if sign not in (1, -1):
                    raise WordSyntaxError(f"letter sign must be +1 or -1, got {sign!r}")
                i = graph.index.get(name)
                if i is None:
                    raise UnknownGenerator(f"unknown generator {name!r}")
                codes.append(2 * i + (sign < 0))
        except (TypeError, ValueError):  # not iterable, not a pair, or an unhashable name
            raise WordSyntaxError("letters must be (name, sign) pairs") from None
        return cls(graph, bytes(codes))

    @classmethod
    def parse(cls, graph: DefiningGraph, text: str) -> "Word":
        """Parse a word string.

        Accepted forms:

        * ``"1"`` or the empty string: the identity.
        * whitespace-separated tokens ``name`` or ``name^k`` for integer k,
          e.g. ``"a b^-1 a^2"``;
        * a single run of letters with upper case meaning inverse, e.g.
          ``"abAB"`` — available when the relevant vertices are single
          characters.

        Two read-only tables of the graph do the common cases.  A run
        whose characters all name letters is one ``str.translate`` through
        ``graph._char_code``, and any other run names its first unknown
        character; tokens that are all ``name`` or ``name^-1`` are one
        ``graph._token_code`` lookup each.  Other tokens are parsed one by
        one, which raises their errors; an exponent that would take the word
        past :data:`MAX_WORD_LETTERS` letters is a :class:`WordSyntaxError`.
        """
        if not isinstance(text, str):
            raise WordSyntaxError(f"a word is parsed from a string, not {type(text).__name__}")
        text = text.strip()
        if text in ("", "1"):
            return cls.identity(graph)
        tokens = text.split()
        if len(tokens) == 1 and tokens[0].isalpha() and tokens[0] not in graph.index:
            run = tokens[0]
            if graph._chars.issuperset(run):
                return cls(graph, run.translate(graph._char_code).encode("latin-1"))
            ch = next(ch for ch in run if ch not in graph._chars)
            raise UnknownGenerator(f"unknown generator {ch!r} in {run!r}")
        try:
            codes = bytes(map(graph._token_code.__getitem__, tokens))
        except KeyError:  # a name^k token, an unknown name or a malformed token
            pass
        else:
            return cls(graph, codes)
        codes = bytearray()
        for tok in tokens:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise WordSyntaxError(f"malformed token {tok!r}")
            name, exp_s = m.group(1), m.group(2)
            i = graph.index.get(name)
            if i is None:
                raise UnknownGenerator(f"unknown generator {name!r} in token {tok!r}")
            if exp_s is None:
                codes.append(2 * i)
                continue
            try:
                exp = int(exp_s)
            except ValueError:  # more digits than int() converts
                exp = None
            if exp is None or len(codes) + abs(exp) > MAX_WORD_LETTERS:
                raise WordSyntaxError(f"exponent too large to expand in token {tok!r}")
            codes += bytes((2 * i + (exp < 0),)) * abs(exp)
        return cls(graph, bytes(codes))

    # -- structural value semantics ----------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.graph == other.graph
            and self.codes == other.codes
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.codes)

    def __bool__(self) -> bool:  # identity word is falsy on purpose
        return bool(self.codes)

    @property
    def is_identity(self) -> bool:
        return not self.codes

    def letters(self) -> tuple[Letter, ...]:
        return tuple(Letter(*self.graph.decode(c)) for c in self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters())

    # -- literal operators --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return inverse(self)

    def __pow__(self, n: int) -> "Word":
        return power(self, n)

    # -- rendering ----------------------------------------------------------

    def display(self) -> str:
        """Human-oriented rendering; the identity renders as ``"1"``."""
        if not self.codes:
            return "1"
        if all(len(v) == 1 and v.islower() for v in self.graph.vertices):
            return "".join(
                name if sign > 0 else name.upper() for name, sign in self.letters()
            )
        return " ".join(
            name if sign > 0 else f"{name}^-1" for name, sign in self.letters()
        )

    def __str__(self) -> str:
        return self.display()

    def __repr__(self) -> str:
        return f"Word({self.display()!r})"


def _require_same_graph(*operands) -> DefiningGraph:
    """The common graph of words or half-spaces; :class:`GraphMismatch` if they differ."""
    graph = operands[0].graph
    for x in operands[1:]:
        if x.graph != graph:
            raise GraphMismatch("operands live over different defining graphs")
    return graph


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def concat(w1: Word, w2: Word) -> Word:
    """Literal concatenation; no reduction is performed."""
    graph = _require_same_graph(w1, w2)
    return Word(graph, w1.codes + w2.codes)


def inverse(word: Word) -> Word:
    """Formal inverse: reversed letters with flipped signs."""
    return Word(word.graph, _inv_codes(word.codes))


def power(word: Word, n: int) -> Word:
    """Literal ``n``-fold repetition; negative ``n`` repeats the inverse."""
    if n < 0:
        return Word(word.graph, _inv_codes(word.codes) * (-n))
    return Word(word.graph, word.codes * n)


def reduce(word: Word) -> Word:
    """A fully reduced word representing the same group element.

    Letter order is preserved except for cancellations, so the result of
    reducing an already-reduced word is that word itself.
    """
    return Word(word.graph, _reduce_codes(word.graph, word.codes))


def is_reduced(word: Word) -> bool:
    return _reduce_codes(word.graph, word.codes) == word.codes


def normal_form(word: Word) -> Word:
    """The canonical representative: reduce, then shuffle lexicographically least."""
    return Word(word.graph, _nf_of(word.graph, word.codes))


def _exponent_sums(graph: DefiningGraph, codes: bytes) -> list[int]:
    """Net exponent of each generator in a coded word, by vertex index.

    Commuting two letters or cancelling a letter against its inverse leaves
    them unchanged, so they are the same for every word spelling the
    element: its image in the abelianisation ``Z^n``.  Two C-level
    ``bytes.count`` calls per generator.
    """
    count = codes.count
    return [count(c) - count(c + 1) for c in range(0, graph.letter_count, 2)]


def _is_trivial(graph: DefiningGraph, codes: bytes) -> bool:
    """True when a coded word reduces to the identity.

    On a join graph a long word is reduced factor by factor: each projection
    is a retraction, and an element of a direct product is trivial exactly
    when every coordinate is.
    """
    if len(codes) < _SPLIT_LETTERS or not graph._factor_drops:
        return not _reduce_codes(graph, codes)
    return not any(_reduce_codes(graph, part) for part in _factor_parts(graph, codes))


def equal(w1: Word, w2: Word) -> bool:
    """Equality as group elements: ``w1 * w2^-1`` is the identity.

    Exponent sums come first: when those of ``w1 * w2^-1`` do not all
    vanish, its image in the abelianisation is nonzero and no reduction is
    made.  Otherwise the word is reduced, factor by factor when it is long
    and the graph is a join.
    """
    graph = _require_same_graph(w1, w2)
    codes = w1.codes + _inv_codes(w2.codes)
    if any(_exponent_sums(graph, codes)):
        return False
    return _is_trivial(graph, codes)


def exponent_vector(word: Word) -> dict[str, int]:
    """Net exponent of every generator (zero entries included)."""
    return dict(zip(word.graph.vertices, _exponent_sums(word.graph, word.codes)))


def _core_and_conjugator(graph: DefiningGraph, codes: bytes) -> tuple[bytes, bytes]:
    """Normal forms of the cyclically reduced core of a coded word and of its conjugator.

    It starts from the normal form ``w``: that is reduced, and the meet is a
    trace, so any reduced spelling serves.  When the meet is empty, ``w`` is
    already the core in normal form.
    """
    w = _nf_scan(graph, codes)
    p = _meet(graph, w, _inv_codes(w))
    if not p:
        return w, b""
    return _nf_scan(graph, _inv_codes(p) + w + p), _nf_scan(graph, p)


@dataclass(frozen=True)
class CyclicReduction:
    """Result of cyclic reduction: ``original = conjugator * core * conjugator^-1``."""

    core: Word
    conjugator: Word


def cyclically_reduce(word: Word) -> CyclicReduction:
    """Cyclically reduce a word.

    Returns a cyclically reduced core together with a conjugating word ``u``
    such that the input equals ``u core u^-1`` in the group; both are in
    normal form.  For the normal form ``w``, ``u`` is the meet of ``w`` and
    ``w^-1``: if ``w = p c p^-1`` with ``c`` cyclically reduced, a letter both
    ``c p^-1`` and ``c^-1 p^-1`` could start with would make ``w`` unreduced
    or ``c`` not cyclically reduced.  When the meet is empty, ``w`` is the
    core, and one normalising pass is all the work.  On a join graph a long
    word is split into its factors' projections: conjugation and the prefix
    order of traces act coordinatewise on a direct product, so the core and
    the conjugator are the merges of the factors' own.
    """
    graph, codes = word.graph, word.codes
    if len(codes) < _SPLIT_LETTERS or not graph._factor_drops:
        core, conjugator = _core_and_conjugator(graph, codes)
    else:
        pairs = [_core_and_conjugator(graph, part) for part in _factor_parts(graph, codes)]
        core, conjugator = _merge([c for c, _ in pairs]), _merge([p for _, p in pairs])
    return CyclicReduction(core=Word(graph, core), conjugator=Word(graph, conjugator))


def is_cyclically_reduced(word: Word) -> bool:
    """True when the word is reduced and no conjugation can shorten it.

    Equivalently: no letter the word can be shuffled to start with has an
    inverse it can be shuffled to end with, i.e. the first letters of ``w``
    and of ``w^-1`` are disjoint.  Unreduced words simply return False.
    """
    graph, codes = word.graph, word.codes
    return is_reduced(word) and not (
        _first_letters(graph, codes) & _first_letters(graph, _inv_codes(codes))
    )


class CyclicWord:
    """A cyclic word: a cyclically reduced word considered up to rotation.

    Construction validates the representative: it must be nonempty, reduced
    (else :class:`NotReduced`), and cyclically reduced, with no first letter
    whose inverse is a last letter (else :class:`NotCyclicallyReduced`).
    Equality and hashing use the least rotation of the packed letters, so two
    representatives of the same rotation class compare equal.
    """

    __slots__ = ("word", "_canon", "_hash")

    def __init__(self, word: Word):
        if word.is_identity:
            raise EmptyWord("a cyclic word must be nonempty")
        if not is_reduced(word):
            raise NotReduced(f"{word.display()!r} is not reduced")
        graph, codes = word.graph, word.codes
        if _first_letters(graph, codes) & _first_letters(graph, _inv_codes(codes)):
            raise NotCyclicallyReduced(f"{word.display()!r} is not cyclically reduced")
        self.word = word
        self._canon = _least_rotation(word.codes)
        self._hash = hash((word.graph, self._canon))

    @property
    def graph(self) -> DefiningGraph:
        return self.word.graph

    def __len__(self) -> int:
        return len(self.word)

    def rotations(self) -> tuple[Word, ...]:
        codes = self.word.codes
        return tuple(
            Word(self.graph, codes[i:] + codes[:i]) for i in range(len(codes))
        )

    def canonical(self) -> Word:
        """The least rotation of the representative."""
        return Word(self.graph, self._canon)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclicWord)
            and self.graph == other.graph
            and self._canon == other._canon
        )

    def __hash__(self) -> int:
        return self._hash

    def display(self) -> str:
        return self.word.display()

    def __str__(self) -> str:
        return self.display()

    def __repr__(self) -> str:
        return f"CyclicWord({self.display()!r})"
