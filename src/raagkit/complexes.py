"""Angled 2-complexes with exact rational angles and curvature bookkeeping.

A complex is given combinatorially: vertices, edges with endpoint pairs,
and faces as closed cycles of oriented edges.  Every face position ``i``
contributes a corner at the head of its ``i``-th boundary edge, carrying an
angle recorded as an exact rational ``q`` meaning ``q*pi``.  All curvature
values returned by this module are likewise rationals in units of pi.

The link of a vertex has a node per incident edge-end (a loop contributes
two) and an arc per corner at the vertex, joining the terminal end of one
boundary edge to the initial end of the next.  Both ends are at the vertex,
since every face boundary is checked to be a closed edge cycle, so a link is
kept as two counts: edge-ends and corners.  Its Euler characteristic
``nodes - arcs`` distinguishes interior vertices (circle links, 0) from
boundary vertices (arc links, 1) without special cases, and branching or
isolated vertices are simply allowed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .errors import InconsistentComplex, SideCountBelowFour, UnknownFace, UnknownVertex

VertexId = Union[str, int]


def _parse_angle(raw: object) -> Fraction:
    if isinstance(raw, bool):
        raise InconsistentComplex(f"angle {raw!r} is not a rational")
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, str):
        # Fraction("1e10000000") would compute the power of ten in full
        if "e" in raw or "E" in raw:
            raise InconsistentComplex(f"angle {raw!r} is not a rational: no exponent notation")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InconsistentComplex(f"angle {raw!r} is not a rational: {exc}") from None
    raise InconsistentComplex(f"angle {raw!r} is not a rational")


def _require_id(kind: str, raw: object) -> None:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InconsistentComplex(f"{kind} id {raw!r} must be a string or an integer")


def _items(kind: str, raw: object, size: Optional[int] = None) -> list:
    """``raw`` as a list, checking that it is a sequence (of ``size`` entries)."""
    if isinstance(raw, (str, bytes)):  # 'vw' would be split into v and w
        raise InconsistentComplex(f"{kind} {raw!r} is a string, not a list")
    try:
        items = list(raw)
    except TypeError:
        raise InconsistentComplex(f"{kind} {raw!r} is not a sequence") from None
    if size is not None and len(items) != size:
        raise InconsistentComplex(f"{kind} {raw!r} does not have {size} entries")
    return items


def _angle_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Corner:
    """A (face, position) incidence: the corner at the head of boundary edge i."""

    face: VertexId
    position: int
    vertex: VertexId
    angle: Fraction


class AngledComplex:
    """A finite angled 2-complex, validated eagerly at construction."""

    def __init__(
        self,
        vertices: list[VertexId],
        edges: list[tuple[int, tuple[VertexId, VertexId]]],
        faces: list[tuple[VertexId, list[int], list[Fraction]]],
    ):
        vertices = _items("vertex list", vertices)
        for v in vertices:
            _require_id("vertex", v)
        if len(set(vertices)) != len(vertices):
            raise InconsistentComplex("duplicate vertex id")
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        vertex_set = set(vertices)

        self.edges: dict[int, tuple[VertexId, VertexId]] = {}
        for edge in _items("edge list", edges):
            eid, ends = _items("edge", edge, 2)
            if not isinstance(eid, int) or isinstance(eid, bool) or eid == 0:
                raise InconsistentComplex(
                    f"edge id {eid!r} must be a nonzero integer (sign carries orientation)"
                )
            if eid in self.edges:
                raise InconsistentComplex(f"duplicate edge id {eid}")
            ends = _items(f"edge {eid} ends", ends, 2)
            for v in ends:
                _require_id(f"edge {eid} endpoint", v)
            if ends[0] not in vertex_set or ends[1] not in vertex_set:
                raise InconsistentComplex(f"edge {eid} has unknown endpoint in {ends!r}")
            self.edges[eid] = (ends[0], ends[1])

        self.faces: dict[VertexId, tuple[tuple[int, ...], tuple[Fraction, ...]]] = {}
        corners: list[Corner] = []
        # each distinct angle string is parsed once; only str keys, since a
        # float equal to a cached int would hit and skip its rejection
        parsed: dict[str, Fraction] = {}
        for face in _items("face list", faces):
            fid, boundary, angles = _items("face", face, 3)
            _require_id("face", fid)
            if fid in self.faces:
                raise InconsistentComplex(f"duplicate face id {fid!r}")
            boundary = _items(f"face {fid!r} boundary", boundary)
            angles = _items(f"face {fid!r} angles", angles)
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
                head = self._head(signed)
                if head != self._tail(boundary[(i + 1) % len(boundary)]):
                    raise InconsistentComplex(
                        f"face {fid!r} boundary is not a closed edge cycle at position {i}"
                    )
                corners.append(Corner(fid, i, head, angles[i]))
            self.faces[fid] = (tuple(boundary), tuple(angles))

        self.corners: tuple[Corner, ...] = tuple(corners)
        self._corners_at: dict[VertexId, list[Corner]] = {v: [] for v in self.vertices}
        for corner in self.corners:
            self._corners_at[corner.vertex].append(corner)
        # the nodes of each link: edge-ends at the vertex, two for a loop
        self._ends_at = Counter(v for ends in self.edges.values() for v in ends)
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

    # -- queries ------------------------------------------------------------

    def link_euler_characteristic(self, v: VertexId) -> int:
        """nodes minus arcs of the link graph (0 for circles, 1 for arcs)."""
        if v not in self._corners_at:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self._ends_at[v] - len(self._corners_at[v])

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
            edges = [(e["id"], e["ends"]) for e in data["edges"]]
            faces = [(f["id"], f["boundary"], f["angles"]) for f in data["faces"]]
        except (KeyError, TypeError) as exc:
            raise InconsistentComplex(f"malformed complex JSON: {exc}") from None
        return cls(list(data["vertices"]), edges, faces)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "ends": list(ends)} for e, ends in self.edges.items()],
            "faces": [
                {
                    "id": f,
                    "boundary": list(boundary),
                    "angles": [_angle_str(a) for a in angles],
                }
                for f, (boundary, angles) in self.faces.items()
            ],
        }


def parse_complex(text: str) -> AngledComplex:
    """Parse the JSON complex format (see the file-format docstring)."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:  # not text, int()'s digit limit, nesting
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
