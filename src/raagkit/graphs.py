"""Defining graphs for right-angled Artin groups.

A defining graph is a finite simplicial graph.  Vertices are generator names;
an edge between two vertices means the corresponding generators commute.  The
vertex order given at construction time is significant: it fixes the letter
order used by normal forms and every deterministic tie-break downstream.

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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateVertex,
    GraphSyntaxError,
    LoopEdge,
    TooLargeForExact,
    TooManyVertices,
    UnknownVertex,
    UnknownVertexInEdge,
)

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

#: Largest vertex count for which ``chromatic_number(..., mode="exact")`` runs.
EXACT_CHROMATIC_CAP = 24

#: Most vertices a graph may have: each letter and its inverse take one byte code.
MAX_VERTICES = 128


class DefiningGraph:
    """A finite simplicial graph with an ordered vertex list.

    Instances are value objects: equality and hashing look only at the vertex
    order and the edge set.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]]):
        names = list(vertices)
        if len(names) > MAX_VERTICES:
            raise TooManyVertices(
                f"{len(names)} vertices exceeds the limit of {MAX_VERTICES}"
            )
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise GraphSyntaxError(f"invalid vertex name {name!r}")
            if name in seen:
                raise DuplicateVertex(f"duplicate vertex {name!r}")
            seen.add(name)
        self.vertices: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}

        edge_idx = set()
        for a, b in edges:
            if a not in self.index:
                raise UnknownVertexInEdge(f"edge endpoint {a!r} is not a vertex")
            if b not in self.index:
                raise UnknownVertexInEdge(f"edge endpoint {b!r} is not a vertex")
            if a == b:
                raise LoopEdge(f"edge {a}-{b} is a loop")
            i, j = sorted((self.index[a], self.index[b]))
            edge_idx.add((i, j))
        self._edge_idx: frozenset[tuple[int, int]] = frozenset(edge_idx)
        self.edges: frozenset[tuple[str, str]] = frozenset(
            (self.vertices[i], self.vertices[j]) for i, j in edge_idx
        )

        n = len(self.vertices)
        self._adj: list[set[int]] = [set() for _ in range(n)]
        for i, j in edge_idx:
            self._adj[i].add(j)
            self._adj[j].add(i)

        # Letter codes: generator i contributes code 2*i (positive) and
        # 2*i + 1 (inverse).  Byte comparison of coded words is then exactly
        # the lexicographic letter order used by normal forms.
        self._nc_mask: list[int] = []
        for c in range(2 * n):
            gen = c >> 1
            mask = 0
            for c2 in range(2 * n):
                gen2 = c2 >> 1
                if gen2 == gen or gen2 not in self._adj[gen]:
                    mask |= 1 << c2
            self._nc_mask.append(mask)
        # Bitmask over generator indices adjacent to each generator.
        self._lk_mask: list[int] = [
            sum(1 << j for j in self._adj[i]) for i in range(n)
        ]
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

        self._hash = hash((self.vertices, self._edge_idx))

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningGraph)
            and self.vertices == other.vertices
            and self._edge_idx == other._edge_idx
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

    def has_vertex(self, name: str) -> bool:
        return name in self.index

    def require_vertex(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {name!r}") from None

    def adjacent(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` are distinct and joined by an edge."""
        i = self.require_vertex(a)
        j = self.require_vertex(b)
        return j in self._adj[i]

    def neighbors(self, a: str) -> tuple[str, ...]:
        i = self.require_vertex(a)
        return tuple(self.vertices[j] for j in sorted(self._adj[i]))

    def degree(self, a: str) -> int:
        return len(self._adj[self.require_vertex(a)])

    # -- letter codes --------------------------------------------------------

    @property
    def letter_count(self) -> int:
        return 2 * len(self.vertices)

    def code(self, name: str, sign: int) -> int:
        i = self.require_vertex(name)
        return 2 * i + (0 if sign > 0 else 1)

    def decode(self, code: int) -> tuple[str, int]:
        return self.vertices[code >> 1], (1 if code % 2 == 0 else -1)

    def codes_commute(self, c1: int, c2: int) -> bool:
        return not (self._nc_mask[c1] >> c2) & 1


def adjacent(graph: DefiningGraph, a: str, b: str) -> bool:
    """True when distinct vertices ``a`` and ``b`` share an edge of ``graph``."""
    return graph.adjacent(a, b)


def parse_graph(text: str) -> DefiningGraph:
    """Parse the two-line graph format.

    The format is::

        # optional comments
        vertices: a b c
        edges: a-b b-c

    Vertex names match ``[A-Za-z][A-Za-z0-9_]*``; the vertex order in the file
    is the canonical order.  The edge list may be empty.  Parsing is strict:
    every malformed or duplicate item raises with the offending line number.
    """
    vertices: Optional[list[str]] = None
    edges: list[tuple[str, str]] = []
    edges_seen = False
    seen_pairs: set[frozenset[str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise GraphSyntaxError(f"line {lineno}: expected 'vertices:' line")
            names = line[len("vertices:"):].split()
            for name in names:
                if not _NAME_RE.match(name):
                    raise GraphSyntaxError(f"line {lineno}: invalid vertex name {name!r}")
                if names.count(name) > 1:
                    raise DuplicateVertex(f"line {lineno}: duplicate vertex {name!r}")
            vertices = names
            continue
        if not edges_seen:
            if not line.startswith("edges:"):
                raise GraphSyntaxError(f"line {lineno}: expected 'edges:' line")
            tokens = line[len("edges:"):].split()
            for tok in tokens:
                parts = tok.split("-")
                if len(parts) != 2:
                    raise GraphSyntaxError(f"line {lineno}: malformed edge token {tok!r}")
                a, b = parts
                if a not in vertices:
                    raise UnknownVertexInEdge(f"line {lineno}: unknown vertex {a!r} in edge {tok!r}")
                if b not in vertices:
                    raise UnknownVertexInEdge(f"line {lineno}: unknown vertex {b!r} in edge {tok!r}")
                if a == b:
                    raise LoopEdge(f"line {lineno}: loop edge {tok!r}")
                pair = frozenset((a, b))
                if pair in seen_pairs:
                    raise GraphSyntaxError(f"line {lineno}: duplicate edge {tok!r}")
                seen_pairs.add(pair)
                edges.append((a, b))
            edges_seen = True
            continue
        raise GraphSyntaxError(f"line {lineno}: unexpected content after edge list")

    if vertices is None:
        raise GraphSyntaxError("missing 'vertices:' line")
    if not edges_seen:
        raise GraphSyntaxError("missing 'edges:' line")
    return DefiningGraph(vertices, edges)


def find_triangle(graph: DefiningGraph) -> Optional[tuple[str, str, str]]:
    """Return the lexicographically first triangle, or None.

    Triples are scanned in vertex order, so the result is the first pairwise
    adjacent triple ``(u, v, w)`` with ``index(u) < index(v) < index(w)``.
    """
    n = len(graph.vertices)
    adj = graph._adj
    for i in range(n):
        for j in range(i + 1, n):
            if j not in adj[i]:
                continue
            for k in range(j + 1, n):
                if k in adj[i] and k in adj[j]:
                    return (graph.vertices[i], graph.vertices[j], graph.vertices[k])
    return None


@dataclass(frozen=True)
class Coloring:
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
    n = len(graph.vertices)
    return sorted(range(n), key=lambda i: (-len(graph._adj[i]), i))


def _greedy_clique(graph: DefiningGraph) -> list[int]:
    """Greedy max clique used as a chromatic lower bound (deterministic)."""
    order = _order_by_degree(graph)
    best: list[int] = []
    for start in order:
        clique = [start]
        for v in order:
            if v == start:
                continue
            if all(v in graph._adj[u] for u in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur(graph: DefiningGraph) -> Coloring:
    """DSATUR coloring; ties break toward higher degree, then vertex order."""
    n = len(graph.vertices)
    if n == 0:
        return Coloring({}, 0)
    color: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    while len(color) < n:
        pick = min(
            (i for i in range(n) if i not in color),
            key=lambda i: (-len(neighbor_colors[i]), -len(graph._adj[i]), i),
        )
        c = 0
        while c in neighbor_colors[pick]:
            c += 1
        color[pick] = c
        for j in graph._adj[pick]:
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
    adj = graph._adj
    full = (1 << k) - 1
    forbid = [0] * len(graph.vertices)
    color: dict[int, int] = {}
    for idx, v in enumerate(clique):
        color[v] = idx
        for u in adj[v]:
            forbid[u] |= 1 << idx
    rest = [v for v in _order_by_degree(graph) if v not in color]
    if any(forbid[v] == full for v in rest):
        return None
    # the uncolored neighbours of rest[pos] when it is colored are those later in rest
    pos_of = {v: pos for pos, v in enumerate(rest)}
    later = [[u for u in adj[v] if pos_of.get(u, -1) > pos] for pos, v in enumerate(rest)]

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
        raise ValueError(f"unknown mode {mode!r}")
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
            coloring = Coloring(
                {graph.vertices[i]: found[i] for i in range(n)}, k
            )
            return k, coloring, True
    return ub.num_colors, ub, True
