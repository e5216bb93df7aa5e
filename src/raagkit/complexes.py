"""Angled 2-complexes with exact rational angles and curvature bookkeeping.

A complex is given combinatorially: vertices, edges with endpoint pairs,
and faces as closed cycles of oriented edges.  Every face position ``i``
contributes a corner at the head of its ``i``-th boundary edge, carrying an
angle recorded as an exact rational ``q`` meaning ``q*pi``.  All curvature
values returned by this module are likewise rationals in units of pi.

The link of a vertex has a node per incident edge-end (a loop contributes
two) and an arc per corner at the vertex, joining the terminal end of one
boundary edge to the initial end of the next.  Its Euler characteristic
``nodes - arcs`` distinguishes interior vertices (circle links, 0) from
boundary vertices (arc links, 1) without special cases, and branching or
isolated vertices are simply allowed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .errors import InconsistentComplex, SideCountBelowFour, UnknownFace, UnknownVertex

VertexId = Union[str, int]


def _parse_angle(raw: object) -> Fraction:
    if isinstance(raw, bool):
        raise InconsistentComplex(f"angle {raw!r} is not a rational")
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InconsistentComplex(f"angle {raw!r} is not a rational: {exc}") from None
    raise InconsistentComplex(f"angle {raw!r} is not a rational")


def _require_id(kind: str, raw: object) -> None:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InconsistentComplex(f"{kind} id {raw!r} must be a string or an integer")


def _angle_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Corner:
    """A (face, position) incidence: the corner at the head of boundary edge i."""

    face: VertexId
    position: int
    vertex: VertexId
    angle: Fraction
    #: link arc endpoints: (edge id, end index) pairs at the corner's vertex
    arc: tuple[tuple[int, int], tuple[int, int]]


class AngledComplex:
    """A finite angled 2-complex, validated eagerly at construction."""

    def __init__(
        self,
        vertices: list[VertexId],
        edges: list[tuple[int, tuple[VertexId, VertexId]]],
        faces: list[tuple[VertexId, list[int], list[Fraction]]],
    ):
        for v in vertices:
            _require_id("vertex", v)
        if len(set(vertices)) != len(vertices):
            raise InconsistentComplex("duplicate vertex id")
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        vertex_set = set(vertices)

        self.edge_order: tuple[int, ...] = tuple(e for e, _ in edges)
        self.edges: dict[int, tuple[VertexId, VertexId]] = {}
        for eid, ends in edges:
            if not isinstance(eid, int) or isinstance(eid, bool) or eid == 0:
                raise InconsistentComplex(
                    f"edge id {eid!r} must be a nonzero integer (sign carries orientation)"
                )
            if eid in self.edges:
                raise InconsistentComplex(f"duplicate edge id {eid}")
            for v in ends:
                _require_id(f"edge {eid} endpoint", v)
            if len(ends) != 2 or ends[0] not in vertex_set or ends[1] not in vertex_set:
                raise InconsistentComplex(f"edge {eid} has unknown endpoint in {ends!r}")
            self.edges[eid] = (ends[0], ends[1])

        self.face_order: tuple[VertexId, ...] = tuple(f for f, _, _ in faces)
        self.faces: dict[VertexId, tuple[tuple[int, ...], tuple[Fraction, ...]]] = {}
        # each distinct angle string is parsed once; only str keys, since a
        # float equal to a cached int would hit and skip its rejection
        parsed: dict[str, Fraction] = {}
        for fid, boundary, angles in faces:
            _require_id("face", fid)
            if fid in self.faces:
                raise InconsistentComplex(f"duplicate face id {fid!r}")
            if not boundary:
                raise InconsistentComplex(f"face {fid!r} has an empty boundary")
            for signed in boundary:
                if not isinstance(signed, int) or isinstance(signed, bool) or signed == 0:
                    raise InconsistentComplex(
                        f"face {fid!r} boundary entry {signed!r} is not a signed edge id"
                    )
                if abs(signed) not in self.edges:
                    raise InconsistentComplex(
                        f"face {fid!r} references unknown edge {abs(signed)}"
                    )
            if len(angles) != len(boundary):
                raise InconsistentComplex(
                    f"face {fid!r} has {len(boundary)} sides but {len(angles)} angles"
                )
            angles = [
                (parsed[a] if a in parsed else parsed.setdefault(a, _parse_angle(a)))
                if type(a) is str
                else _parse_angle(a)
                for a in angles
            ]
            for i, signed in enumerate(boundary):
                nxt = boundary[(i + 1) % len(boundary)]
                if self._head(signed) != self._tail(nxt):
                    raise InconsistentComplex(
                        f"face {fid!r} boundary is not a closed edge cycle at position {i}"
                    )
            self.faces[fid] = (tuple(boundary), tuple(angles))

        self.corners: tuple[Corner, ...] = tuple(self._build_corners())
        self._corners_at: dict[VertexId, list[Corner]] = {v: [] for v in self.vertices}
        for corner in self.corners:
            self._corners_at[corner.vertex].append(corner)
        self._links = self._build_links()
        occurrences: dict[int, int] = {e: 0 for e in self.edges}
        for boundary, _ in self.faces.values():
            for signed in boundary:
                occurrences[abs(signed)] += 1
        self.boundary_edges = frozenset(e for e, n in occurrences.items() if n < 2)
        self.boundary_vertices = frozenset(
            v for e in self.boundary_edges for v in self.edges[e]
        )

    # -- orientation helpers ------------------------------------------------

    def _tail(self, signed: int) -> VertexId:
        v, w = self.edges[abs(signed)]
        return v if signed > 0 else w

    def _head(self, signed: int) -> VertexId:
        v, w = self.edges[abs(signed)]
        return w if signed > 0 else v

    @staticmethod
    def _terminal_end(signed: int) -> tuple[int, int]:
        return (abs(signed), 1 if signed > 0 else 0)

    @staticmethod
    def _initial_end(signed: int) -> tuple[int, int]:
        return (abs(signed), 0 if signed > 0 else 1)

    # -- derived incidence data --------------------------------------------

    def _build_corners(self):
        for fid, (boundary, angles) in self.faces.items():
            for i, signed in enumerate(boundary):
                nxt = boundary[(i + 1) % len(boundary)]
                yield Corner(
                    face=fid,
                    position=i,
                    vertex=self._head(signed),
                    angle=angles[i],
                    arc=(self._terminal_end(signed), self._initial_end(nxt)),
                )

    def _build_links(self) -> dict[VertexId, tuple[int, int]]:
        nodes: dict[VertexId, set[tuple[int, int]]] = {v: set() for v in self.vertices}
        for eid, (v, w) in self.edges.items():
            nodes[v].add((eid, 0))
            nodes[w].add((eid, 1))
        for corner in self.corners:
            for end in corner.arc:
                if end not in nodes[corner.vertex]:
                    raise InconsistentComplex(
                        f"corner of face {corner.face!r} at {corner.vertex!r} "
                        f"touches edge-end {end!r} not incident to the vertex"
                    )
        return {v: (len(nodes[v]), len(self._corners_at[v])) for v in self.vertices}

    # -- queries ------------------------------------------------------------

    def link_euler_characteristic(self, v: VertexId) -> int:
        """nodes minus arcs of the link graph (0 for circles, 1 for arcs)."""
        if v not in self._links:
            raise UnknownVertex(f"unknown vertex {v!r}")
        n, a = self._links[v]
        return n - a

    def corners_at_vertex(self, v: VertexId) -> list[Corner]:
        if v not in self._corners_at:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return list(self._corners_at[v])

    def face_side_count(self, f: VertexId) -> int:
        if f not in self.faces:
            raise UnknownFace(f"unknown face {f!r}")
        return len(self.faces[f][0])

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "AngledComplex":
        if not isinstance(data, dict):
            raise InconsistentComplex("complex JSON must be an object")
        for key in ("vertices", "edges", "faces"):
            if key not in data or not isinstance(data[key], list):
                raise InconsistentComplex(f"complex JSON needs a {key!r} list")
        try:
            edges = [(e["id"], (e["ends"][0], e["ends"][1])) for e in data["edges"]]
            faces = [
                (f["id"], list(f["boundary"]), list(f["angles"]))
                for f in data["faces"]
            ]
        except (KeyError, TypeError, IndexError) as exc:
            raise InconsistentComplex(f"malformed complex JSON: {exc}") from None
        return cls(list(data["vertices"]), edges, faces)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "ends": list(self.edges[e])} for e in self.edge_order],
            "faces": [
                {
                    "id": f,
                    "boundary": list(self.faces[f][0]),
                    "angles": [_angle_str(a) for a in self.faces[f][1]],
                }
                for f in self.face_order
            ],
        }


def parse_complex(text: str) -> AngledComplex:
    """Parse the JSON complex format (see the file-format docstring)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InconsistentComplex(f"invalid JSON: {exc}") from None
    return AngledComplex.from_json_dict(data)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_vertex(x: AngledComplex, v: VertexId) -> Fraction:
    """Vertex curvature in units of pi: 2 - chi(link) - sum of corner angles."""
    chi = x.link_euler_characteristic(v)
    total = sum((c.angle for c in x.corners_at_vertex(v)), Fraction(0))
    return Fraction(2) - chi - total


def curvature_face(x: AngledComplex, f: VertexId) -> Fraction:
    """Face curvature in units of pi: sum of angles - (sides - 2)."""
    if f not in x.faces:
        raise UnknownFace(f"unknown face {f!r}")
    boundary, angles = x.faces[f]
    return sum(angles, Fraction(0)) - (len(boundary) - 2)


def euler_characteristic(x: AngledComplex) -> int:
    return len(x.vertices) - len(x.edges) + len(x.faces)


def gauss_bonnet_residual(x: AngledComplex) -> Fraction:
    """(sum of all curvatures) - 2*chi, in units of pi; zero for any valid complex.

    The identity holds for arbitrary angle assignments: the angle terms
    cancel between vertex and face curvatures, and the link characteristics
    telescope against the edge and face counts.  Each curvature is summed
    as an integer numerator over the lcm of the angle denominators, so the
    result stays exact and only it is a ``Fraction``.
    """
    den = lcm(*{c.angle.denominator for c in x.corners})

    def angles_over_den(angles) -> int:
        return sum(a.numerator * (den // a.denominator) for a in angles)

    total = -2 * euler_characteristic(x) * den
    for v in x.vertices:
        chi = x.link_euler_characteristic(v)
        total += (2 - chi) * den - angles_over_den(c.angle for c in x._corners_at[v])
    for boundary, angles in x.faces.values():
        total += angles_over_den(angles) - (len(boundary) - 2) * den
    return Fraction(total, den)


def genus_defect_from_faces(face_side_counts: list[int]) -> Fraction:
    """1 + sum (sides - 4)/4 over faces: the genus-style defect of a polygon list.

    In the all-right-angled zero-vertex-curvature setting this equals
    1 - chi of the resulting surface; it is 1 exactly when every face is a
    square.  Side counts below four are rejected.
    """
    for s in face_side_counts:
        if s < 4:
            raise SideCountBelowFour(f"face with {s} sides (minimum is 4)")
    return Fraction(1) + sum(Fraction(s - 4, 4) for s in face_side_counts)
