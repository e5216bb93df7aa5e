"""Defining graphs for right-angled Artin groups.

A defining graph is a finite simplicial graph.  Vertices are generator names;
an edge between two vertices means the corresponding generators commute.  The
vertex order given at construction time is significant: it fixes the letter
order used by normal forms and every deterministic tie-break downstream.
The adjacency is kept once, as a bitmask of neighbours per vertex (its link):
every query and search here, and the letter commutation masks, read it.

The module also computes chromatic numbers (exact up to 24 vertices, DSATUR
heuristic beyond) and finds triangles, both of which feed the lower-bound
certificates in :mod:`raagkit.bounds`.  The exact search is a backtracking
search in a fixed vertex and color order with forward checking: a branch is
cut only when some uncolored vertex has no color left, so it has no
solution.  Cutting it changes neither the first coloring found nor an empty
search, which is the proof that no coloring with fewer colors exists.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateVertex,
    GraphSyntaxError,
    LoopEdge,
    TooLargeForExact,
    TooManyVertices,
    UnknownMode,
    UnknownVertex,
    UnknownVertexInEdge,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

#: Largest vertex count for which ``chromatic_number(..., mode="exact")`` runs.
EXACT_CHROMATIC_CAP = 24

#: Most vertices a graph may have: each letter and its inverse take one byte code.
MAX_VERTICES = 128


class DefiningGraph:
    """A finite simplicial graph with an ordered vertex list.

    Instances are value objects: equality and hashing look only at the vertex
    order and the edge set.  Construction makes every check of a graph's
    content (names, duplicate vertices, edge shape and endpoints, loops and
    the vertex limit), for parsed and built graphs alike.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]]):
        if isinstance(vertices, (str, bytes)) or isinstance(edges, (str, bytes)):
            # a string would be split into one-character names
            raise GraphSyntaxError("vertices and edges must be iterables, not strings")
        try:
            names, edges = list(vertices), list(edges)
        except TypeError:
            raise GraphSyntaxError("vertices and edges must be iterables") from None
        if len(names) > MAX_VERTICES:
            raise TooManyVertices(
                f"{len(names)} vertices exceeds the limit of {MAX_VERTICES}"
            )
        seen = set()
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise GraphSyntaxError(f"invalid vertex name {name!r}")
            if name in seen:
                raise DuplicateVertex(f"duplicate vertex {name!r}")
            seen.add(name)
        self.vertices: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}

        # bit j of _lk_mask[i] is set when vertices i and j share an edge;
        # bits 2j and 2j + 1 of pair[i] when they do, one bit per letter of j
        n = len(self.vertices)
        lk = [0] * n
        pair = [0] * n
        # each edge once, as its endpoints in vertex order
        ordered: set[tuple[str, str]] = set()
        for edge in edges:
            try:
                if isinstance(edge, (str, bytes)):
                    raise TypeError  # 'ab' would be read as the edge a-b
                a, b = edge
                i, j = self.index.get(a), self.index.get(b)
            except (TypeError, ValueError):
                raise GraphSyntaxError(f"malformed edge {edge!r}") from None
            if i is None:
                raise UnknownVertexInEdge(f"edge endpoint {a!r} is not a vertex")
            if j is None:
                raise UnknownVertexInEdge(f"edge endpoint {b!r} is not a vertex")
            if i == j:
                raise LoopEdge(f"edge {a}-{b} is a loop")
            lk[i] |= 1 << j
            lk[j] |= 1 << i
            pair[i] |= 3 << 2 * j
            pair[j] |= 3 << 2 * i
            ordered.add((names[i], names[j]) if i < j else (names[j], names[i]))
        self._lk_mask: tuple[int, ...] = tuple(lk)
        self.edges: frozenset[tuple[str, str]] = frozenset(ordered)

        # Letter codes: generator i contributes code 2*i (positive) and
        # 2*i + 1 (inverse).  Byte comparison of coded words is then exactly
        # the lexicographic letter order used by normal forms.  Both letters
        # of generator i commute with the letters of its neighbours only, so
        # they share one mask.
        letters = (1 << 2 * n) - 1
        self._nc_mask: tuple[int, ...] = tuple(
            letters ^ pair[c >> 1] for c in range(2 * n)
        )
        # Join factors: the components of the complement graph, found by a
        # bitmask search over the non-neighbours.  A(graph) is the direct
        # product of the factors' groups.  Per factor, the letter codes
        # outside it, which ``bytes.translate`` deletes to project a word
        # onto it; empty when there are fewer than two factors.
        rest, kept = (1 << n) - 1, []
        while rest:
            factor = frontier = rest & -rest
            codes = bytearray()
            while frontier:
                v = frontier.bit_length() - 1
                frontier ^= 1 << v
                codes += bytes((2 * v, 2 * v + 1))
                new = rest & ~lk[v] & ~factor
                factor |= new
                frontier |= new
            rest &= ~factor
            kept.append(codes)
        all_codes = bytes(range(2 * n))
        self._factor_drops: tuple[bytes, ...] = (
            tuple(all_codes.translate(None, codes) for codes in kept) if len(kept) > 1 else ()
        )

        # Word-parsing tables: a token ``name`` or ``name^-1`` to its code,
        # and, by ordinal for ``str.translate``, a one-character name to its
        # code as a character and its upper case, unless that is a vertex
        # too, to the inverse's.
        self._token_code: dict[str, int] = {}
        self._char_code: dict[int, str] = {}
        for i, v in enumerate(self.vertices):
            self._token_code[v] = 2 * i
            self._token_code[f"{v}^-1"] = 2 * i + 1
            if len(v) == 1:
                self._char_code[ord(v)] = chr(2 * i)
                if v.upper() not in self.index:
                    self._char_code[ord(v.upper())] = chr(2 * i + 1)
        self._chars: frozenset[str] = frozenset(map(chr, self._char_code))

        self._hash = hash((self.vertices, self._lk_mask))

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningGraph)
            and self.vertices == other.vertices
            and self._lk_mask == other._lk_mask
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DefiningGraph(vertices={list(self.vertices)!r}, edges={sorted(self.edges)!r})"

    def to_json_dict(self) -> dict:
        """The graph block of every JSON report: vertices in order, sorted edges."""
        return {
            "vertices": list(self.vertices),
            "edges": sorted(sorted(e) for e in self.edges),
        }

    # -- queries -------------------------------------------------------------

    def require_vertex(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {name!r}") from None

    def adjacent(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` are distinct and joined by an edge."""
        i = self.require_vertex(a)
        j = self.require_vertex(b)
        return bool(self._lk_mask[i] >> j & 1)

    def neighbors(self, a: str) -> tuple[str, ...]:
        i = self.require_vertex(a)
        return tuple(self.vertices[j] for j in _indices(self._lk_mask[i]))

    def degree(self, a: str) -> int:
        return self._lk_mask[self.require_vertex(a)].bit_count()

    # -- letter codes --------------------------------------------------------

    @property
    def letter_count(self) -> int:
        return 2 * len(self.vertices)

    def decode(self, code: int) -> tuple[str, int]:
        return self.vertices[code >> 1], (1 if code % 2 == 0 else -1)


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def adjacent(graph: DefiningGraph, a: str, b: str) -> bool:
    """True when distinct vertices ``a`` and ``b`` share an edge of ``graph``."""
    return graph.adjacent(a, b)


def parse_graph(text: str) -> DefiningGraph:
    """Parse the two-line graph format.

    The format is::

        # optional comments
        vertices: a b c
        edges: a-b b-c

    The vertex order in the file is the canonical order.  The edge list may
    be empty.  The parser reads the file's structure: the ``vertices:`` and
    ``edges:`` lines in that order, comments and blank lines, the ``a-b``
    shape of each edge token, and no edge listed twice; these errors name
    their line.  Names, duplicate vertices, edge endpoints, loops and the
    vertex limit are checked by :class:`DefiningGraph`, as for every graph.
    """
    if not isinstance(text, str):
        raise GraphSyntaxError(f"a graph is parsed from a string, not {type(text).__name__}")
    vertices: Optional[list[str]] = None
    edges: Optional[list[tuple[str, ...]]] = None
    seen_pairs: set[frozenset[str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise GraphSyntaxError(f"line {lineno}: expected 'vertices:' line")
            vertices = line[len("vertices:"):].split()
            continue
        if edges is None:
            if not line.startswith("edges:"):
                raise GraphSyntaxError(f"line {lineno}: expected 'edges:' line")
            edges = []
            for tok in line[len("edges:"):].split():
                parts = tok.split("-")
                if len(parts) != 2:
                    raise GraphSyntaxError(f"line {lineno}: malformed edge token {tok!r}")
                pair = frozenset(parts)
                if pair in seen_pairs:
                    raise GraphSyntaxError(f"line {lineno}: duplicate edge {tok!r}")
                seen_pairs.add(pair)
                edges.append(tuple(parts))
            continue
        raise GraphSyntaxError(f"line {lineno}: unexpected content after edge list")

    if vertices is None:
        raise GraphSyntaxError("missing 'vertices:' line")
    if edges is None:
        raise GraphSyntaxError("missing 'edges:' line")
    return DefiningGraph(vertices, edges)


def find_triangle(graph: DefiningGraph) -> Optional[tuple[str, str, str]]:
    """Return the lexicographically first triangle, or None.

    Triples are scanned in vertex order, so the result is the first pairwise
    adjacent triple ``(u, v, w)`` with ``index(u) < index(v) < index(w)``.
    """
    lk = graph._lk_mask
    for i, mask in enumerate(lk):
        for j in _indices(mask):
            above = (mask & lk[j]) >> (j + 1)
            if j > i and above:
                k = j + (above & -above).bit_length()
                return (graph.vertices[i], graph.vertices[j], graph.vertices[k])
    return None


class Coloring(NamedTuple):
    """A proper vertex coloring with colors ``0 .. num_colors - 1``."""

    assignment: dict[str, int]
    num_colors: int

    def is_proper(self, graph: DefiningGraph) -> bool:
        if set(self.assignment) != set(graph.vertices):
            return False
        for color in self.assignment.values():
            if not 0 <= color < self.num_colors:
                return False
        for a, b in graph.edges:
            if self.assignment[a] == self.assignment[b]:
                return False
        return True


def _order_by_degree(graph: DefiningGraph) -> list[int]:
    lk = graph._lk_mask
    return sorted(range(len(lk)), key=lambda i: (-lk[i].bit_count(), i))


def _greedy_clique(graph: DefiningGraph) -> list[int]:
    """Greedy max clique used as a chromatic lower bound (deterministic)."""
    lk = graph._lk_mask
    order = _order_by_degree(graph)
    best: list[int] = []
    for start in order:
        clique = [start]
        common = lk[start]  # the vertices adjacent to every clique member
        for v in order:
            if common >> v & 1:
                clique.append(v)
                common &= lk[v]
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur(graph: DefiningGraph) -> Coloring:
    """DSATUR coloring; ties break toward higher degree, then vertex order."""
    lk = graph._lk_mask
    n = len(lk)
    if n == 0:
        return Coloring({}, 0)
    color: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    while len(color) < n:
        pick = min(
            (i for i in range(n) if i not in color),
            key=lambda i: (-len(neighbor_colors[i]), -lk[i].bit_count(), i),
        )
        c = 0
        while c in neighbor_colors[pick]:
            c += 1
        color[pick] = c
        for j in _indices(lk[pick]):
            neighbor_colors[j].add(c)
    k = 1 + max(color.values())
    return Coloring({graph.vertices[i]: color[i] for i in range(n)}, k)


def _try_color(graph: DefiningGraph, k: int, clique: list[int]) -> Optional[dict[int, int]]:
    """Backtracking search for a proper k-coloring, or None if impossible.

    The clique is pre-colored with distinct colors, and a fresh color may be
    opened only one past the largest color used so far; both are standard
    symmetry breaks that do not lose solutions.  The other vertices are
    colored in ``_order_by_degree`` order, lowest color first.

    Each vertex keeps a bitmask of the colors its colored neighbours forbid.
    Coloring a vertex forbids its color on the uncolored neighbours that did
    not forbid it yet, and backtracking clears it on exactly those.  A branch
    is cut as soon as one of them has all k colors forbidden (forward
    checking): no completion of it exists, so the search still reaches the
    surviving nodes in the same order, finds the same first coloring, and
    comes back empty exactly when no proper k-coloring exists.
    """
    if len(clique) > k:
        return None
    lk = graph._lk_mask
    full = (1 << k) - 1
    forbid = [0] * len(lk)
    color: dict[int, int] = {}
    for idx, v in enumerate(clique):
        color[v] = idx
        for u in _indices(lk[v]):
            forbid[u] |= 1 << idx
    rest = [v for v in _order_by_degree(graph) if v not in color]
    if any(forbid[v] == full for v in rest):
        return None
    # the uncolored neighbours of rest[pos] when it is colored are those later in rest
    later = [_indices(lk[v] & sum(1 << u for u in rest[pos + 1 :])) for pos, v in enumerate(rest)]

    def assign(pos: int, used: int) -> bool:
        if pos == len(rest):
            return True
        v = rest[pos]
        free = ~forbid[v] & ((1 << min(k, used + 1)) - 1)
        while free:
            bit = free & -free
            free ^= bit
            newly = [u for u in later[pos] if not forbid[u] & bit]
            wiped = False
            for u in newly:
                forbid[u] |= bit
                wiped = wiped or forbid[u] == full
            if not wiped:
                c = bit.bit_length() - 1
                color[v] = c
                if assign(pos + 1, max(used, c + 1)):
                    return True
                del color[v]
            for u in newly:
                forbid[u] ^= bit
        return False

    if assign(0, len(clique)):
        return dict(color)
    return None


def chromatic_number(
    graph: DefiningGraph, mode: str = "exact"
) -> tuple[int, Coloring, bool]:
    """Chromatic number of the graph.

    Returns ``(k, coloring, exact)``.  In exact mode the result carries an
    implicit proof: the search for a proper (k - 1)-coloring came back empty
    (or a clique of size k makes one impossible), and the returned coloring is
    a proper k-coloring.  Exact mode is capped at 24 vertices; heuristic mode
    runs DSATUR and may overshoot, flagged by ``exact=False``.
    """
    if mode not in ("exact", "heuristic"):
        raise UnknownMode(f"unknown mode {mode!r}")
    ub = _dsatur(graph)
    if mode == "heuristic":
        return ub.num_colors, ub, False
    n = len(graph.vertices)
    if n > EXACT_CHROMATIC_CAP:
        raise TooLargeForExact(
            f"{n} vertices exceeds the exact-mode cap of {EXACT_CHROMATIC_CAP}; "
            "use mode='heuristic' (--heuristic on the command line)"
        )
    if n == 0:
        return 0, ub, True
    clique = _greedy_clique(graph)
    lb = len(clique)
    for k in range(lb, ub.num_colors):
        found = _try_color(graph, k, clique)
        if found is not None:
            coloring = Coloring({graph.vertices[i]: found[i] for i in range(n)}, k)
            return k, coloring, True
    return ub.num_colors, ub, True
