"""Independent oracles and builders for the test suite.

Everything here is deliberately naive and written against its own data
representations (letters as (name, sign) tuples, graphs as (names, edge
set) pairs) so that agreement with the package is meaningful evidence, not
a tautology.  The only package facilities reused are parsing and normal
forms where an oracle explicitly concerns a *different* layer (noted at the
function in question).
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

from hypothesis import strategies as st

Letter = tuple[str, int]
WordT = tuple[Letter, ...]


def adj_set(names, edges):
    out = {n: set() for n in names}
    for a, b in edges:
        out[a].add(b)
        out[b].add(a)
    return out


@st.composite
def random_graph_data(draw):
    """Vertex names (2 to 5 of them) and any edge list over them, as plain data."""
    names = "abcde"[: draw(st.integers(2, 5))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return list(names), [e for e in pairs if draw(st.booleans())]


def random_graphs():
    """A defining graph on 2 to 5 vertices with any edge set."""
    from raagkit import DefiningGraph

    return random_graph_data().map(lambda data: DefiningGraph(*data))


def nc_masks_by_pairs(names, edges) -> list[int]:
    """``DefiningGraph._nc_mask`` as built before the link masks, kept as an oracle.

    Letter ``c2`` is in the mask of letter ``c`` when their generators are
    equal or not adjacent, one set lookup per pair of letters.
    """
    adj = adj_set(names, edges)
    letters = range(2 * len(names))
    masks = []
    for c in letters:
        gen = names[c >> 1]
        mask = 0
        for c2 in letters:
            gen2 = names[c2 >> 1]
            if gen2 == gen or gen2 not in adj[gen]:
                mask |= 1 << c2
        masks.append(mask)
    return masks


def join_factors_by_non_edges(names, edges) -> list[list[str]]:
    """The vertex sets of the join factors: components of the complement graph.

    Union-find over every pair of distinct vertices that share no edge; the
    factors are listed by their first vertex, each in vertex order.
    """
    adj = adj_set(names, edges)
    uf = UnionFind()
    for i, a in enumerate(names):
        uf.find(a)
        for b in names[i + 1 :]:
            if b not in adj[a]:
                uf.union(a, b)
    factors: dict[str, list[str]] = {}
    for v in names:
        factors.setdefault(uf.find(v), []).append(v)
    return list(factors.values())


def first_triangle_by_triples(names, edges):
    """The first pairwise adjacent triple in vertex order, by brute force, or None."""
    adj = adj_set(names, edges)
    for u, v, w in combinations(names, 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            return (u, v, w)
    return None


# ---------------------------------------------------------------------------
# word oracle: rewriting by elementary moves only
# ---------------------------------------------------------------------------


def moves_closure(names, edges, word: WordT, cap: int = 500_000) -> set[WordT]:
    """All words reachable by commuting swaps and inverse-pair deletions.

    These are the defining relations applied literally; no normal-form
    theory is assumed.  The closure is finite since moves never lengthen.
    """
    adj = adj_set(names, edges)
    seen = {tuple(word)}
    queue = [tuple(word)]
    while queue:
        w = queue.pop()
        for i in range(len(w) - 1):
            (a, sa), (b, sb) = w[i], w[i + 1]
            if a == b and sa == -sb:
                nw = w[:i] + w[i + 2 :]
                if nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
            if a != b and b in adj[a]:
                nw = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
        if len(seen) > cap:
            raise RuntimeError("moves closure exploded past the cap")
    return seen


def oracle_canonical(names, edges, word: WordT) -> WordT:
    """Least (length, lexicographic) member of the moves closure.

    A complete invariant of the group element: two words are equal in the
    group iff their canonicals coincide.
    """
    return min(moves_closure(names, edges, word), key=lambda w: (len(w), w))


def geodesic_descend(names, edges, word: WordT, cap: int = 500_000):
    """Shrink a word to geodesic length by elementary moves alone.

    Explores the swap-closure of the current word breadth-first; on the
    first available inverse-pair deletion it restarts from the shorter
    word.  When a closure is exhausted with no deletion anywhere, the word
    is geodesic and the closure is the element's full set of geodesic
    spellings.  Returns (geodesic word, closure).
    """
    adj = adj_set(names, edges)
    current = tuple(word)
    while True:
        seen = {current}
        queue = [current]
        shorter = None
        while queue and shorter is None:
            u = queue.pop()
            for i in range(len(u) - 1):
                (a, sa), (b, sb) = u[i], u[i + 1]
                if a == b and sa == -sb:
                    shorter = u[:i] + u[i + 2 :]
                    break
                if a != b and b in adj[a]:
                    nu = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                    if nu not in seen:
                        seen.add(nu)
                        queue.append(nu)
            if len(seen) > cap:
                raise RuntimeError("swap closure exploded past the cap")
        if shorter is None:
            return current, seen
        current = shorter


def cayley_ball(names, edges, radius: int):
    """Breadth-first distances from the identity, keyed by oracle canonicals."""
    letters = [(n, s) for n in names for s in (1, -1)]
    dist = {(): 0}
    frontier = [()]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for letter in letters:
                key = oracle_canonical(names, edges, w + (letter,))
                if key not in dist:
                    dist[key] = d
                    nxt.append(key)
        frontier = nxt
    return dist


def random_word(rng: random.Random, names, max_len: int) -> WordT:
    length = rng.randint(0, max_len)
    return tuple(
        (rng.choice(list(names)), rng.choice((1, -1))) for _ in range(length)
    )


def parse_by_regex_tokens(graph, text: str) -> bytes:
    """``Word.parse`` before it read the graph's tables, kept as an oracle.

    Returns the letter codes, or raises what that parser raised: one regex
    match per token, one ``graph.index`` lookup per compact character.
    Exponents too large to expand fall outside it (it let ``OverflowError``
    and ``int``'s ``ValueError`` escape there).  One compact character
    differs: U+212A KELVIN SIGN lower-cases to ``k``, so on a graph with a
    vertex ``k`` this oracle reads it as ``k^-1``, while ``Word.parse``
    raises ``UnknownGenerator`` for it.
    """
    from raagkit import UnknownGenerator, WordSyntaxError

    text = text.strip()
    if text in ("", "1"):
        return b""
    tokens = text.split()
    index = graph.index
    codes = bytearray()
    if len(tokens) == 1 and tokens[0].isalpha() and tokens[0] not in index:
        run = tokens[0]
        for ch in run:
            i = index.get(ch)
            if i is not None:
                codes.append(2 * i)
            elif ch.isupper() and (i := index.get(ch.lower())) is not None:
                codes.append(2 * i + 1)
            else:
                raise UnknownGenerator(f"unknown generator {ch!r} in {run!r}")
        return bytes(codes)
    for tok in tokens:
        m = re.match(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$", tok)
        if not m:
            raise WordSyntaxError(f"malformed token {tok!r}")
        name, exp_s = m.group(1), m.group(2)
        i = index.get(name)
        if i is None:
            raise UnknownGenerator(f"unknown generator {name!r} in token {tok!r}")
        exp = 1 if exp_s is None else int(exp_s)
        codes.extend([2 * i + (exp < 0)] * abs(exp))
    return bytes(codes)


# ---------------------------------------------------------------------------
# overlap oracle: cubic-time cyclic scan on tuples
# ---------------------------------------------------------------------------


def naive_max_cyclic_overlap(word: WordT, mode: str = "disjoint") -> int:
    n = len(word)
    if n == 0:
        return 0
    doubled = word + word
    inv = lambda w: tuple((a, -s) for a, s in reversed(w))
    best = 0
    top = n if mode == "any" else n // 2
    for length in range(1, top + 1):
        found = False
        for i in range(n):
            u_inv = inv(doubled[i : i + length])
            for j in range(n):
                if i == j:
                    continue
                if mode == "disjoint" and (
                    (j - i) % n < length or (i - j) % n < length
                ):
                    continue
                if doubled[j : j + length] == u_inv:
                    found = True
                    break
            if found:
                break
        if found:
            best = length
    return best


def cyclic_closure(names, edges, word: WordT, cap: int = 200_000) -> set[WordT]:
    """Every word reachable by rotations and commuting swaps, brute force."""
    adj = adj_set(names, edges)
    seen = {tuple(word)}
    queue = [tuple(word)]
    while queue:
        u = queue.pop()
        moves = [u[1:] + u[:1]]
        for i in range(len(u) - 1):
            if u[i][0] != u[i + 1][0] and u[i + 1][0] in adj[u[i][0]]:
                moves.append(u[:i] + (u[i + 1], u[i]) + u[i + 2 :])
        for nu in moves:
            if nu not in seen:
                seen.add(nu)
                queue.append(nu)
        if len(seen) > cap:
            raise RuntimeError("cyclic closure exploded past the cap")
    return seen


def cyclic_closure_classes(names, edges, word: WordT, cap: int = 200_000) -> set[WordT]:
    """The rotation classes of the closure, each as its least rotation of tuples."""
    return {
        min(u[i:] + u[:i] for i in range(len(u)))
        for u in cyclic_closure(names, edges, word, cap)
    }


def cyclic_closure_max(names, edges, word: WordT, mode: str = "disjoint", cap: int = 200_000) -> int:
    """Max inverse overlap over the whole rotation/swap closure, brute force.

    The naive scan already ranges over every cyclic position, so one word
    per rotation class is enough.
    """
    return max(
        naive_max_cyclic_overlap(u, mode)
        for u in cyclic_closure_classes(names, edges, word, cap)
    )


def pair_at_by_window_dict(codes: bytes, length: int, mode: str):
    """``overlap._pair_at`` before it searched windows with ``bytes.find``.

    Kept as an oracle: every window of the doubled word goes into a dict of
    start positions, and the first (i, j) in scan order (i ascending, then
    j) is returned.
    """
    n = len(codes)
    if length < 1 or length > n or (mode == "disjoint" and 2 * length > n):
        return None
    doubled = codes * 2
    inv = inv_letter_codes(doubled)
    occ: dict[bytes, list[int]] = {}
    for j in range(n):
        occ.setdefault(doubled[j : j + length], []).append(j)
    for i in range(n):
        for j in occ.get(inv[2 * n - i - length : 2 * n - i], ()):
            if mode == "disjoint" and ((j - i) % n < length or (i - j) % n < length):
                continue
            if i != j:
                return i, j
    return None


def closure_scan_by_least_rotation(graph, start: bytes, mode: str, cap: int):
    """``overlap._closure_scan`` before it keyed classes at one letter.

    Kept as an oracle with the same signature and result: every neighbour
    is brought to its least rotation and looked up in a set of least
    rotations, and every class is probed.  Reuses the package's
    non-commutation masks and its ``Witness`` builder, which only slices.
    """
    from raagkit.overlap import _witness_from

    seen = {start}
    queue = [start]
    best = 0
    witness = None
    capped = False
    head = 0
    nc = graph._nc_mask
    while head < len(queue):
        rep = queue[head]
        head += 1
        while (hit := pair_at_by_window_dict(rep, best + 1, mode)) is not None:
            best += 1
            witness = _witness_from(graph, rep, (best, *hit))
        n = len(rep)
        for i in range(n):
            j = (i + 1) % n
            if (nc[rep[i]] >> rep[j]) & 1:
                continue
            swapped = bytearray(rep)
            swapped[i], swapped[j] = rep[j], rep[i]
            nb = min_rotation(bytes(swapped))
            if nb in seen:
                continue
            if len(seen) >= cap:
                capped = True
                continue
            seen.add(nb)
            queue.append(nb)
    return best, witness, len(queue), capped


def projection_candidates_by_names(graph, support: tuple[str, ...]):
    """``overlap``'s candidate partitions before they were walked on bitmasks.

    Kept as an oracle: singletons, then the classes of a chromatic coloring
    of the induced subgraph (a throwaway ``DefiningGraph``), then for
    supports of 2 to 5 every partition into independent sets, deduplicated
    by name.  Each partition is a tuple of name tuples.
    """
    from raagkit import DefiningGraph, chromatic_number

    singletons = tuple((v,) for v in support)
    candidates = [singletons]
    induced_edges = {
        frozenset((a, b)) for a, b in combinations(support, 2) if graph.adjacent(a, b)
    }
    if len(support) >= 2:
        sub = DefiningGraph(support, [tuple(sorted(e)) for e in induced_edges])
        mode = "exact" if len(support) <= 8 else "heuristic"
        _, coloring, _ = chromatic_number(sub, mode=mode)
        by_color: dict[int, list[str]] = {}
        for v in support:
            by_color.setdefault(coloring.assignment[v], []).append(v)
        chromatic = tuple(tuple(part) for part in by_color.values())
        if chromatic != singletons:
            candidates.append(chromatic)
    if 2 <= len(support) <= 5:
        results: list[tuple[tuple[str, ...], ...]] = []

        def extend(rest: list[str], parts: list[list[str]]) -> None:
            if not rest:
                results.append(tuple(tuple(p) for p in parts))
                return
            v, tail = rest[0], rest[1:]
            for p in parts:
                if all(frozenset((v, u)) not in induced_edges for u in p):
                    p.append(v)
                    extend(tail, parts)
                    p.pop()
            parts.append([v])
            extend(tail, parts)
            parts.pop()

        extend(list(support), [])
        candidates.extend(results)
    out = []
    seen = set()
    for cand in candidates:
        key = tuple(sorted(cand))
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out


def projection_bound_by_names(w, mode: str = "disjoint"):
    """``overlap.projection_overlap_bound`` over the candidates above.

    Same signature and result shape: the least sum of per-class scanner
    maxima (``overlap._raw_max_overlap``, reused) and the first candidate
    that reaches it; every class of every candidate is scanned afresh.
    """
    from raagkit.overlap import _raw_max_overlap

    graph = w.graph
    codes = w.canonical().codes
    gens = {c >> 1 for c in codes}
    support = tuple(v for i, v in enumerate(graph.vertices) if i in gens)
    best = None
    best_partition = ()
    for partition in projection_candidates_by_names(graph, support):
        total = 0
        for part in partition:
            members = {graph.index[v] for v in part}
            projected = bytes(c for c in codes if c >> 1 in members)
            total += _raw_max_overlap(projected, mode)[0]
        if best is None or total < best:
            best, best_partition = total, partition
    return (0 if best is None else best), best_partition


# ---------------------------------------------------------------------------
# coloring oracle
# ---------------------------------------------------------------------------


def proper_coloring_exists(names, edges, k: int) -> bool:
    """Plain backtracking over vertex order; no heuristics, no bounds."""
    names = list(names)
    adj = adj_set(names, edges)
    colors: dict[str, int] = {}

    def place(i: int) -> bool:
        if i == len(names):
            return True
        v = names[i]
        for c in range(k):
            if all(colors.get(u) != c for u in adj[v]):
                colors[v] = c
                if place(i + 1):
                    return True
                del colors[v]
        return False

    return place(0)


def try_color_static(graph, k: int, clique: list[int]):
    """The exact coloring search before forward checking, kept as an oracle.

    It checks each color against the colored neighbours and cuts nothing
    else.  Reuses the package's graph and vertex order on purpose: it must
    walk the same search tree as ``raagkit.graphs._try_color``.
    """
    from raagkit.graphs import _order_by_degree

    if len(clique) > k:
        return None
    n = len(graph.vertices)
    color: dict[int, int] = {}
    for idx, v in enumerate(clique):
        color[v] = idx
    rest = [v for v in _order_by_degree(graph) if v not in color]

    def feasible(v: int, c: int) -> bool:
        return all(color.get(u) != c for u in range(n) if graph._lk_mask[v] >> u & 1)

    def assign(pos: int, used: int) -> bool:
        if pos == len(rest):
            return True
        v = rest[pos]
        limit = min(k, used + 1)
        for c in range(limit):
            if feasible(v, c):
                color[v] = c
                if assign(pos + 1, max(used, c + 1)):
                    return True
                del color[v]
        return False

    if assign(0, len(clique)):
        return dict(color)
    return None


def chromatic_by_static_search(graph):
    """``chromatic_number``'s DSATUR/clique frame driven by ``try_color_static``.

    Returns ``(k, assignment, exact, by_search)``; ``by_search`` is True when
    the search, not DSATUR, supplied the coloring.
    """
    from raagkit.graphs import _dsatur, _greedy_clique

    ub = _dsatur(graph)
    if not graph.vertices:
        return 0, ub.assignment, True, False
    clique = _greedy_clique(graph)
    for k in range(len(clique), ub.num_colors):
        found = try_color_static(graph, k, clique)
        if found is not None:
            return k, {graph.vertices[i]: c for i, c in found.items()}, True, True
    return ub.num_colors, ub.assignment, True, False


# ---------------------------------------------------------------------------
# hyperplane oracle: square crawling with union-find
# ---------------------------------------------------------------------------


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def square_crawl_walls(graph, compare_radius: int, crawl_radius: int):
    """Partition edges into hyperplane classes by crawling across squares.

    Two edges are elementary-parallel when they are opposite sides of a
    square, i.e. the positively-oriented edge (x, x*a) matches (x*u, x*u*a)
    for a single letter u adjacent to a.  The partition is the transitive
    closure inside the crawl ball.  Vertex identity uses the package's
    normal form (this oracle targets the half-space layer, whose
    correctness is separate from word canonicalization).

    Returns (edges_to_compare, root mapping) where edges are (nf codes, gen)
    pairs with both endpoints inside the compare ball.
    """
    from raagkit.words import _nf_of

    # breadth-first vertex enumeration, nf codes as identity
    seen = {b""}
    frontier = [b""]
    layers = [[b""]]
    for _ in range(crawl_radius):
        nxt = []
        for v in frontier:
            for c in range(graph.letter_count):
                w = _nf_of(graph, v + bytes([c]))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        layers.append(nxt)
    in_crawl = seen
    by_radius = {v: r for r, layer in enumerate(layers) for v in layer}

    def edge_nodes(radius):
        out = []
        for v in in_crawl:
            if by_radius[v] > radius:
                continue
            for gen in range(len(graph.vertices)):
                head = _nf_of(graph, v + bytes([2 * gen]))
                if head in in_crawl and by_radius[head] <= radius:
                    out.append((v, gen))
        return out

    uf = UnionFind()
    for v, gen in edge_nodes(crawl_radius):
        lk = graph._lk_mask[gen]
        for other in range(len(graph.vertices)):
            if not (lk >> other) & 1:
                continue
            for u_code in (2 * other, 2 * other + 1):
                shifted = _nf_of(graph, v + bytes([u_code]))
                if shifted in in_crawl:
                    head = _nf_of(graph, shifted + bytes([2 * gen]))
                    if head in in_crawl:
                        uf.union((v, gen), (shifted, gen))
    compare = edge_nodes(compare_radius)
    return compare, {e: uf.find(e) for e in compare}


# ---------------------------------------------------------------------------
# global half-space relations through distances and intervals
# ---------------------------------------------------------------------------
#
# The formulation the package used before it read these relations off one
# reduction: membership by comparing two distances, nesting by membership
# probes of the bases, tightness by the context relation on an interval
# (itself checked against a hull oracle in test_cube.py).  Distances reuse
# the package's reduction; these oracles concern the cube layer.


def _edge_ends(hs):
    """The two ends ``(base, base*a)`` of the defining edge, as words."""
    from raagkit import Word

    base, letter = hs.defining_edge()
    return base, base * Word.from_letters(base.graph, [letter])


def member_by_distances(x, hs) -> bool:
    """``x ∈ hs``: the nearer end of the defining edge says which side ``x`` is on."""
    from raagkit import inverse, reduce

    base, head = _edge_ends(hs)
    nearer_head = len(reduce(inverse(x) * head)) < len(reduce(inverse(x) * base))
    return nearer_head == (hs.sign > 0)


def _end_on_side(hs, inside: bool):
    return next(p for p in _edge_ends(hs) if member_by_distances(p, hs) == inside)


def cross_by_interval(h, k) -> bool:
    """Crossing read in an interval whose ends both walls separate.

    ``p`` is the end of h's edge on the other side of h from ``b_k``, ``q``
    the end of k's edge on the other side of k from ``p``; the two ends of
    k's edge lie on one side of h unless the walls coincide.
    """
    from raagkit import crosses, interval

    if h.wall_key() == k.wall_key():
        return False
    p = _end_on_side(h, not member_by_distances(k.base, h))
    q = _end_on_side(k, not member_by_distances(p, k))
    return crosses(h, k, interval(p, q))


def nested_by_probes(h, k):
    """+1 if h ⊃ k, -1 if k ⊃ h, else None: which side of the other wall each base is on."""
    if h.wall_key() == k.wall_key() or cross_by_interval(h, k):
        return None
    h_side = member_by_distances(h.base, k)
    k_side = member_by_distances(k.base, h)
    if k_side and not h_side:
        return 1
    if h_side and not k_side:
        return -1
    return None


def tight_by_interval(h, k) -> bool:
    """Tight nesting in the interval from outside the outer edge to inside the inner one."""
    from raagkit import interval, tightly_nested

    direction = nested_by_probes(h, k)
    if direction is None:
        return False
    outer, inner = (h, k) if direction == 1 else (k, h)
    p_out, p_in = _end_on_side(outer, False), _end_on_side(inner, True)
    return tightly_nested(outer, inner, interval(p_out, p_in))


# ---------------------------------------------------------------------------
# attracting-end membership by probing two long powers
# ---------------------------------------------------------------------------
#
# ``cube.in_a_g_plus`` before it became the nesting ``H ⊋ g·H``, kept
# verbatim as an oracle: a retraction bounds a power N, and membership of
# ``g^N`` and ``g^-N`` decides.  It reuses the package's reduction, trace
# meet and membership; it concerns how the axis is probed.


def _axis_window(g, hs) -> int:
    """A power bound past which the axis cannot cross the given hyperplane.

    Deleting the letters adjacent to the label is a retraction fixing the
    base's coset, so the base is at least as long as the image of the axis
    point under that retraction; the image of ``g`` has a nonempty cyclically
    reduced core whose length grows linearly in the exponent.  Inverting that
    growth bound (plus slack) gives the window.
    """
    from math import ceil

    from raagkit.words import _inv_codes, _meet, _reduce_codes

    graph = g.graph
    lk = graph._lk_mask[hs.label_index]
    image = _reduce_codes(graph, bytes(c for c in g.codes if not (lk >> (c >> 1)) & 1))
    conj = len(_meet(graph, image, _inv_codes(image)))
    core = len(image) - 2 * conj
    if not core:
        raise AssertionError(
            "axis label survives the retraction but its image is conjugacy-trivial"
        )
    numer = len(hs.base_codes) + 2 * conj + len(g.codes)
    return ceil(numer / core) + 2


def in_a_g_plus_by_window(g, hs) -> bool:
    """Whether the half-space contains the attracting end of the axis of ``g``.

    Convention: ``g`` is cyclically reduced and its axis is the orbit path of
    the identity.  The half-space qualifies iff it lies in some segment
    ``[g^n, g^(n+1)]`` of that path, i.e. iff membership of ``g^n`` switches
    from false to true as ``n`` runs from a sufficiently negative to a
    sufficiently positive power.  Membership along a geodesic line switches
    at most once, so probing the two window endpoints decides it.
    """
    from raagkit.cube import _member_codes, _require_cyclically_reduced
    from raagkit.words import _inv_codes, _require_same_graph

    _require_cyclically_reduced(g)
    graph = _require_same_graph(g, hs)
    if not any(c >> 1 == hs.label_index for c in g.codes):
        return False  # the axis only crosses hyperplanes labeled by letters of g
    pos = g.codes * _axis_window(g, hs)
    return _member_codes(graph, pos, hs) and not _member_codes(graph, _inv_codes(pos), hs)


# ---------------------------------------------------------------------------
# chains and the no-overlap search without the heap
# ---------------------------------------------------------------------------
#
# Longest chains by enumerating every strictly nested run of an interval's
# walls, nesting decided by ``nested_by_probes``; the no-overlap search by
# building the interval [f*y, f*x] for every element f, as the package once
# did.  The ball of elements and the attracting-end test are the package's.


def longest_runs_by_probes(context) -> dict:
    """``{(h, k): runs}`` for every nested pair ``h ⊃ k`` of context walls.

    Walls enter in both orientations.  ``runs`` lists the longest strictly
    nested sequences ``h ⊃ ... ⊃ k`` of context walls, in ``sort_key`` order.
    """
    pool = [s for wall in context.halfspaces for s in (wall, wall.complement())]
    inside = {a: {b for b in pool if nested_by_probes(a, b) == 1} for a in pool}
    out = {}
    for h in pool:
        for k in inside[h]:
            runs, stack = [], [(h,)]
            while stack:
                run = stack.pop()
                runs.append(run + (k,))
                stack += [run + (s,) for s in inside[run[-1]] if k in inside[s]]
            longest = max(map(len, runs))
            out[h, k] = sorted(
                (r for r in runs if len(r) == longest), key=lambda r: [s.sort_key() for s in r]
            )
    return out


def noov_search_by_intervals(g, radius: int):
    """``search_prop_noov_violation`` over every axis pair, one interval per element.

    Returns ``(pairs_checked, premise_failures, triples_checked, violations)``.
    """
    from raagkit import Word, ball, in_a_g_plus, interval, normal_form, power

    period = len(g.codes)

    def axis(offset):
        q, r = divmod(offset, period)
        return normal_form(power(g, q) * Word(g.graph, g.codes[:r]))

    pool = ball(g.graph, radius)
    pairs = premise = triples = 0
    violations = []
    offsets = range(-2 * period, 2 * period + 1)
    for i in offsets:
        for j in offsets:
            if j <= i or 2 * (j - i) <= period:
                continue
            x, y = axis(i), axis(j)
            if not all(in_a_g_plus(g, hs) for hs in interval(x, y)):
                premise += 1
                continue
            pairs += 1
            for f in pool:
                triples += 1
                if all(in_a_g_plus(g, hs) for hs in interval(f * y, f * x)):
                    violations.append(
                        f"f={f.display()} carries [{x.display()}, {y.display()}] "
                        "backwards inside the attracting family"
                    )
    return pairs, premise, triples, violations


def axis_point_by_blocks(graph, g_codes: bytes, offset: int) -> bytes:
    """``cube._axis_point`` before it became one prefix, kept as an oracle.

    It spells the path in blocks of two periods and, backwards, inverts a
    suffix of the doubled period.  Reuses the package's inversion and normal
    form on purpose: it checks how the path is spelled, not normal forms.
    """
    from raagkit.words import _inv_codes, _nf_of

    span = len(g_codes) * 2
    doubled = g_codes * 2
    if offset >= 0:
        q, r = divmod(offset, span)
        path = doubled * q + doubled[:r]
    else:
        q, r = divmod(-offset, span)
        path = _inv_codes(doubled) * q + (_inv_codes(doubled[span - r :]) if r else b"")
    return _nf_of(graph, path)


def strip_suffix_by_restarts(graph, codes: bytes, gen_mask: int) -> bytes:
    """``words._strip_suffix_in`` before it became one pass, kept as an oracle.

    It deletes the rightmost letter in ``gen_mask`` that commutes with every
    letter after it, then scans again from the right, until none is left.
    Reuses the package's non-commutation masks, which the word tests pin.
    """
    work = bytearray(codes)
    nc = graph._nc_mask
    while True:
        blocked = 0
        hit = -1
        for pos in range(len(work) - 1, -1, -1):
            c = work[pos]
            if not (blocked >> c) & 1 and (gen_mask >> (c >> 1)) & 1:
                hit = pos
                break
            blocked |= nc[c]
        if hit < 0:
            return bytes(work)
        del work[hit]


def normal_form_by_greedy_scan(graph, reduced: bytes) -> bytes:
    """``words._nf_of``'s normalising step before it became one insertion pass.

    Kept as an oracle: it emits, again and again, the least letter of what
    remains that no earlier non-commuting letter blocks, rescanning the rest
    of the word each time.  Expects a reduced word, such as the output of
    ``words._reduce_codes``; reuses the package's non-commutation masks,
    which the word tests pin.
    """
    nc = graph._nc_mask
    remaining = list(reduced)
    out = bytearray()
    while remaining:
        blocked = 0
        best_pos = -1
        for pos, c in enumerate(remaining):
            if (best_pos < 0 or c < remaining[best_pos]) and not (blocked >> c) & 1:
                best_pos = pos
            blocked |= nc[c]
        out.append(remaining.pop(best_pos))
    return bytes(out)


@contextmanager
def count_kernel_work():
    """Count the work of the word engine's scan kernels inside a ``with`` block.

    ``words._nf_scan`` and ``words._reduce_codes`` are wrapped with
    ``mock``, and ``sys.settrace`` counts the lines they execute.  Yields a
    ``Counter`` and a list.  The counter holds each kernel's calls under its
    name, the letters handed to either under ``"letters in"`` and the lines
    they ran under ``"line"``; the list holds, per call, the set of vertex
    names its letters use.  Work is counted, not timed, so a bound on it
    does not move with the host.
    """
    from raagkit import words

    kernels = {words._nf_scan.__code__, words._reduce_codes.__code__}
    work = Counter()
    supports = []

    def tracer(frame, event, arg):
        if frame.f_code not in kernels:
            return None

        def count(frame, event, arg):
            work[event] += 1
            return count

        return count

    def wrapped(fn):
        def wrapper(graph, codes):
            work[fn.__name__] += 1
            work["letters in"] += len(codes)
            supports.append(frozenset(graph.vertices[c >> 1] for c in codes))
            return fn(graph, codes)

        return wrapper

    previous = sys.gettrace()
    with mock.patch.multiple(
        words, _nf_scan=wrapped(words._nf_scan), _reduce_codes=wrapped(words._reduce_codes)
    ):
        sys.settrace(tracer)
        try:
            yield work, supports
        finally:
            sys.settrace(previous)


def _movable_codes(graph, codes) -> list[tuple[int, int]]:
    """``(position, letter)`` of each letter that commutes with everything before it."""
    nc = graph._nc_mask
    blocked = 0
    out = []
    for pos, c in enumerate(codes):
        if not (blocked >> c) & 1:
            out.append((pos, c))
        blocked |= nc[c]
    return out


def cyclic_reduction_by_stripping(graph, codes: bytes) -> tuple[bytes, bytes]:
    """``words.cyclically_reduce`` before it became one meet, kept as an oracle.

    Returns ``(core, conjugator)`` with the core not yet in normal form.
    While some letter can be shuffled to the front whose inverse can be
    shuffled to the back, the least such letter is stripped from both ends,
    recorded, and the rest reduced again.  Reuses the package's reduction
    and non-commutation masks, which the word tests pin.
    """
    from raagkit.words import _reduce_codes

    work = _reduce_codes(graph, codes)
    conj = bytearray()
    while True:
        back = {c: len(work) - 1 - p for p, c in _movable_codes(graph, work[::-1])}
        hits = [(c, p) for p, c in _movable_codes(graph, work) if c ^ 1 in back]
        if not hits:
            return work, bytes(conj)
        c, p = min(hits)
        conj.append(c)
        rest = bytearray(work)
        del rest[back[c ^ 1]]
        del rest[p]
        work = _reduce_codes(graph, bytes(rest))


def median_by_front_letters(graph, x: bytes, y: bytes, z: bytes) -> bytes:
    """``cube.median`` before it became one meet, kept as an oracle.

    While some letter can be shuffled to the front of both ``x^-1 y`` and
    ``x^-1 z``, the least such letter joins the meet and is cancelled from
    both.  Reuses the package's reduction and normal form, which the word
    tests pin.
    """
    from raagkit.words import _inv_codes, _nf_of, _reduce_codes

    u = _reduce_codes(graph, _inv_codes(x) + y)
    v = _reduce_codes(graph, _inv_codes(x) + z)
    meet = bytearray()
    while True:
        common = {c for _, c in _movable_codes(graph, u)}
        common &= {c for _, c in _movable_codes(graph, v)}
        if not common:
            return _nf_of(graph, x + bytes(meet))
        c = min(common)
        meet.append(c)
        u = _reduce_codes(graph, bytes([c ^ 1]) + u)
        v = _reduce_codes(graph, bytes([c ^ 1]) + v)


# ---------------------------------------------------------------------------
# exhaustive conjugacy-class enumeration for the overlap suite
# ---------------------------------------------------------------------------


def rotation_classes(graph, max_len: int) -> list[bytes]:
    """Every cyclically reduced word of length <= max_len, one per rotation class.

    Cyclic reduction is the stripping oracle, not the package's.  A prefix
    that is not a prenecklace (a prefix of some least rotation) has no least
    rotation among its extensions, so its subtree is skipped: the test is the
    Fredricksen–Kessler–Maiorana one, which keeps the period ``p`` of the
    prefix's longest Lyndon prefix and compares each new letter with the
    letter ``p`` places back (Ruskey–Savage–Wang, J. Algorithms 13, 1992).
    The walk and its order are otherwise unchanged.
    """
    n2 = graph.letter_count
    nc = graph._nc_mask
    out: list[bytes] = []
    prefix = bytearray()

    def ok_append(c: int) -> bool:
        # appending must not create a cancellable pair with an earlier letter
        for p in range(len(prefix) - 1, -1, -1):
            cp = prefix[p]
            if cp == c ^ 1:
                return False
            if (nc[cp] >> c) & 1:
                return True
        return True

    def visit(period: int) -> None:
        if prefix:
            b = bytes(prefix)
            if b == min_rotation(b):
                core, conj = cyclic_reduction_by_stripping(graph, b)
                if not conj and len(core) == len(b):
                    out.append(b)
        if len(prefix) < max_len:
            for c in range(n2):
                back = prefix[len(prefix) - period] if prefix else c
                if c < back or not ok_append(c):
                    continue
                prefix.append(c)
                visit(period if c == back else len(prefix))
                prefix.pop()

    visit(1)
    return out


def min_rotation(b: bytes) -> bytes:
    bb = b + b
    return min(bb[i : i + len(b)] for i in range(len(b)))


def inv_letter_codes(b: bytes) -> bytes:
    return bytes(c ^ 1 for c in reversed(b))


def graph_automorphisms(graph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving adjacency (brute force, n <= 7)."""
    n = len(graph.vertices)
    idx = graph.index
    edges = set()
    for a, b in graph.edges:
        edges.add((idx[a], idx[b]))
        edges.add((idx[b], idx[a]))
    return [
        p
        for p in permutations(range(n))
        if all(
            ((p[i], p[j]) in edges) == ((i, j) in edges)
            for i in range(n)
            for j in range(i + 1, n)
        )
    ]


def letter_symmetry_tables(graph) -> list[bytes]:
    """Byte-translate tables for every graph automorphism and sign flip.

    Each is an automorphism of the group sending letters to letters, hence
    preserves cyclic reducedness, lengths, rotation/swap closures, and
    formal-inverse occurrences; overlap maxima are invariant under them.
    """
    n = len(graph.vertices)
    ident = bytes(range(256))
    tables = []
    for perm in graph_automorphisms(graph):
        for flips in range(1 << n):
            t = bytearray(ident)
            for i in range(n):
                s = (flips >> i) & 1
                t[2 * i] = 2 * perm[i] + s
                t[2 * i + 1] = 2 * perm[i] + (s ^ 1)
            tables.append(bytes(t))
    return tables


def orbit_representatives(classes: list[bytes], tables: list[bytes]) -> list[bytes]:
    """One representative per symmetry orbit (tables + inversion + rotation)."""
    seen: set[bytes] = set()
    reps: list[bytes] = []
    for w in classes:
        if w in seen:
            continue
        reps.append(w)
        for t in tables:
            tw = w.translate(t)
            seen.add(min_rotation(tw))
            seen.add(min_rotation(inv_letter_codes(tw)))
    return reps


# ---------------------------------------------------------------------------
# angled-complex builders
# ---------------------------------------------------------------------------


def _half(count):
    return [Fraction(1, 2)] * count


def torus_grid(m: int, n: int):
    """m x n square grid on the torus; all angles pi/2."""
    from raagkit.complexes import AngledComplex

    def v(i, j):
        return f"v{i % m}_{j % n}"

    vertices = [v(i, j) for i in range(m) for j in range(n)]
    east = {}
    south = {}
    edges = []
    next_id = 1
    for i in range(m):
        for j in range(n):
            east[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i, j + 1))))
            next_id += 1
            south[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i + 1, j))))
            next_id += 1
    faces = []
    for i in range(m):
        for j in range(n):
            boundary = [
                east[i, j],
                south[i % m, (j + 1) % n],
                -east[(i + 1) % m, j],
                -south[i, j],
            ]
            faces.append((f"f{i}_{j}", boundary, _half(4)))
    return AngledComplex(vertices, edges, faces)


def disk_grid(m: int, n: int):
    """m x n square grid as a disk (no wrapping); all angles pi/2."""
    from raagkit.complexes import AngledComplex

    def v(i, j):
        return f"v{i}_{j}"

    vertices = [v(i, j) for i in range(m + 1) for j in range(n + 1)]
    east = {}
    south = {}
    edges = []
    next_id = 1
    for i in range(m + 1):
        for j in range(n):
            east[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i, j + 1))))
            next_id += 1
    for i in range(m):
        for j in range(n + 1):
            south[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i + 1, j))))
            next_id += 1
    faces = []
    for i in range(m):
        for j in range(n):
            boundary = [east[i, j], south[i, j + 1], -east[i + 1, j], -south[i, j]]
            faces.append((f"f{i}_{j}", boundary, _half(4)))
    return AngledComplex(vertices, edges, faces)


def annulus_grid(m: int, n: int):
    """m rows of faces wrapping around in the second coordinate."""
    from raagkit.complexes import AngledComplex

    def v(i, j):
        return f"v{i}_{j % n}"

    vertices = [v(i, j) for i in range(m + 1) for j in range(n)]
    east = {}
    south = {}
    edges = []
    next_id = 1
    for i in range(m + 1):
        for j in range(n):
            east[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i, j + 1))))
            next_id += 1
    for i in range(m):
        for j in range(n):
            south[i, j] = next_id
            edges.append((next_id, (v(i, j), v(i + 1, j))))
            next_id += 1
    faces = []
    for i in range(m):
        for j in range(n):
            boundary = [
                east[i, j],
                south[i, (j + 1) % n],
                -east[i + 1, j],
                -south[i, j],
            ]
            faces.append((f"f{i}_{j}", boundary, _half(4)))
    return AngledComplex(vertices, edges, faces)


def genus2_octagon():
    """One vertex, four loops, a single octagon with angles pi/4."""
    from raagkit.complexes import AngledComplex

    edges = [(i, ("v", "v")) for i in (1, 2, 3, 4)]
    boundary = [1, 2, -1, -2, 3, 4, -3, -4]
    return AngledComplex(["v"], edges, [("f", boundary, [Fraction(1, 4)] * 8)])


def link_characteristics_by_node_sets(cx) -> dict:
    """Each vertex's link as ``AngledComplex`` built it before link counts, kept as an oracle.

    A node per edge-end ``(edge id, 0 or 1)`` at the vertex, two for a loop,
    and an arc per corner, joining the terminal end of one boundary edge to
    the initial end of the next; both ends must be nodes of that vertex.
    Returns ``nodes - arcs`` per vertex.
    """
    nodes = {v: set() for v in cx.vertices}
    for eid, (v, w) in cx.edges.items():
        nodes[v].add((eid, 0))
        nodes[w].add((eid, 1))
    arcs = dict.fromkeys(cx.vertices, 0)
    for boundary, _ in cx.faces.values():
        for i, signed in enumerate(boundary):
            nxt = boundary[(i + 1) % len(boundary)]
            terminal = (abs(signed), 1 if signed > 0 else 0)
            initial = (abs(nxt), 0 if nxt > 0 else 1)
            v = cx.edges[abs(signed)][terminal[1]]
            assert terminal in nodes[v] and initial in nodes[v]
            arcs[v] += 1
    return {v: len(nodes[v]) - arcs[v] for v in cx.vertices}


def random_valid_complex(rng: random.Random):
    """A structurally valid complex with arbitrary rational angles.

    The curvature identity holds for *any* angle assignment, so angles are
    drawn freely; only the cell structure must be consistent.
    """
    kind = rng.randrange(4)
    if kind == 0:
        cx = torus_grid(rng.randint(1, 3), rng.randint(1, 3))
    elif kind == 1:
        cx = disk_grid(rng.randint(1, 3), rng.randint(1, 3))
    elif kind == 2:
        cx = annulus_grid(rng.randint(1, 2), rng.randint(1, 3))
    else:
        cx = genus2_octagon()
    from raagkit.complexes import AngledComplex

    faces = []
    for fid, (boundary, angles) in cx.faces.items():
        new_angles = [
            Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3, 4, 6)))
            for _ in angles
        ]
        faces.append((fid, list(boundary), new_angles))
    return AngledComplex(list(cx.vertices), list(cx.edges.items()), faces)


# ---------------------------------------------------------------------------
# the axiom and no-overlap searches on canonical half-spaces
# ---------------------------------------------------------------------------
#
# ``cube.check_special_axioms`` and ``cube.search_prop_noov_violation``
# before they read raw coset bases, kept verbatim as oracles: every
# translate is canonicalised through ``act``, every relation goes through
# the public global relations, and ``in_a_g_plus`` checks ``g`` per call.
# They reuse the package's ball, half-spaces and relations; they concern
# how the searches form their walls.


def check_special_axioms_by_act(graph, samples: int = 1000, radius: int = 3, seed: int = 0x5C1):
    """``check_special_axioms`` with each translate formed by ``act``."""
    from raagkit.cube import (
        SpecialAxiomsReport,
        _halfspace_at,
        act,
        ball,
        hyperplanes_cross,
        tightly_nested_globally,
    )

    rng = random.Random(seed)
    pool = ball(graph, radius)
    n_letters = graph.letter_count
    report = SpecialAxiomsReport(radius=radius, samples=samples, seed=seed)
    counts = {"s1": 0, "s2": 0, "s3": 0, "s4": 0, "s4_eligible": 0}
    if not n_letters:
        report.checked = counts
        return report
    for _ in range(samples):
        h = _halfspace_at(graph, rng.choice(pool).codes, rng.randrange(n_letters))
        k = _halfspace_at(graph, rng.choice(pool).codes, rng.randrange(n_letters))
        f = rng.choice(pool)

        f_h_bar = act(f, h.complement())
        counts["s1"] += 1
        if f_h_bar == h:
            report.violations.append(f"s1: f={f.display()} H={h.display()}")

        counts["s2"] += 1
        if hyperplanes_cross(h, f_h_bar.complement()):
            report.violations.append(f"s2: f={f.display()} H={h.display()}")

        counts["s3"] += 1
        if tightly_nested_globally(h, f_h_bar):
            report.violations.append(f"s3: f={f.display()} H={h.display()}")

        counts["s4"] += 1
        if tightly_nested_globally(h, k):
            counts["s4_eligible"] += 1
            if hyperplanes_cross(h, act(f, k)):
                report.violations.append(
                    f"s4: f={f.display()} H={h.display()} K={k.display()}"
                )
    report.checked = counts
    return report


def noov_search_by_act(g, radius: int = 3, samples: int = 200, seed: int = 0x5C1):
    """``search_prop_noov_violation`` with each translate f(H̄) formed by ``act``."""
    from raagkit import Word
    from raagkit.cube import (
        NoOverlapSearchReport,
        _axis_point,
        _require_cyclically_reduced,
        act,
        ball,
        in_a_g_plus,
        interval,
    )

    _require_cyclically_reduced(g)
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
    pool = ball(graph, radius)
    report = NoOverlapSearchReport(g=g, radius=radius, samples=samples, seed=seed)
    report.elements_checked = len(pool)
    for i, j in pairs:
        x = Word(graph, _axis_point(graph, g.codes, i))
        y = Word(graph, _axis_point(graph, g.codes, j))
        walls = interval(x, y).halfspaces
        if not all(in_a_g_plus(g, hs) for hs in walls):
            report.premise_failures += 1
            continue
        report.pairs_checked += 1
        for f in pool:
            report.triples_checked += 1
            if all(in_a_g_plus(g, act(f, hs.complement())) for hs in walls):
                report.violations.append(
                    f"f={f.display()} carries [{x.display()}, {y.display()}] "
                    "backwards inside the attracting family"
                )
    return report


def check_max_chains_by_intervals(graph, samples: int = 200, radius: int = 3, seed: int = 0x5C1):
    """``check_max_chains`` before it read heap positions, kept verbatim as an oracle.

    It builds one interval per sample, with a canonical half-space per
    position, enumerates each nested pair's chains through the public
    ``all_longest_chains`` and compares their ``midpoint`` half-spaces with
    ``crosses``.  It reuses the package's ball and interval.
    """
    from raagkit.cube import (
        MaxChainsReport,
        _comparable,
        all_longest_chains,
        ball,
        crosses,
        interval,
        midpoint,
    )

    rng = random.Random(seed)
    pool = ball(graph, radius)
    report = MaxChainsReport(radius=radius, samples=samples, seed=seed)
    for _ in range(samples):
        x = rng.choice(pool)
        y = rng.choice(pool)
        if x.codes == y.codes:
            continue
        ctx = interval(x, y)
        report.intervals_checked += 1
        walls, down = ctx.halfspaces, ctx._down
        for i in range(len(walls)):
            for j in range(i + 1, len(walls)):
                if not _comparable(down, i, j):
                    continue
                report.nested_pairs += 1
                chains = all_longest_chains(walls[i], walls[j], ctx)
                report.chains_enumerated += len(chains)
                mids = [midpoint(c) for c in chains if c.length >= 1]
                for a in range(len(mids)):
                    for b in range(a + 1, len(mids)):
                        report.midpoint_pairs += 1
                        if mids[a] == mids[b] or crosses(mids[a], mids[b], ctx):
                            continue
                        report.violations.append(
                            f"midpoints neither equal nor crossing: "
                            f"{mids[a].display()} vs {mids[b].display()} "
                            f"in [{x.display()}, {y.display()}]"
                        )
    return report
