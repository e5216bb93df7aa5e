"""Angled 2-complexes and the combinatorial curvature bookkeeping.

The key invariant is that total curvature minus 2*chi vanishes for every
structurally valid complex regardless of the angles, so the randomized
check draws angles freely.
"""

import json
import random
from fractions import Fraction

import pytest

import helpers as H
from raagkit import (
    AngledComplex,
    InconsistentComplex,
    SideCountBelowFour,
    UnknownFace,
    UnknownVertex,
    curvature_face,
    curvature_vertex,
    euler_characteristic,
    gauss_bonnet_residual,
    genus_defect_from_faces,
    parse_complex,
)


def one_square_torus():
    return H.torus_grid(1, 1)


# -- construction and validation -------------------------------------------


def test_torus_shape():
    t = one_square_torus()
    assert len(t.vertices) == 1
    assert len(t.edges) == 2
    assert len(t.faces) == 1
    assert euler_characteristic(t) == 0
    assert t.boundary_edges == frozenset()
    assert t.link_euler_characteristic("v0_0") == 0  # link is a circle


def test_disk_has_boundary():
    d = H.disk_grid(1, 1)
    assert euler_characteristic(d) == 1
    assert len(d.boundary_edges) == 4
    assert len(d.boundary_vertices) == 4
    corner = d.corners_at_vertex("v0_0")
    # a disk corner vertex carries one corner; its link is an arc
    assert d.link_euler_characteristic("v0_0") == 1


@pytest.mark.parametrize(
    "vertices,edges,faces",
    [
        (["v", "v"], [], []),  # duplicate vertex
        (["v"], [(1, ("v", "v")), (1, ("v", "v"))], []),  # duplicate edge id
        (["v"], [(0, ("v", "v"))], []),  # zero edge id
        (["v"], [(1, ("v", "w"))], []),  # unknown endpoint
        (["v"], [(1, ("v", "v"))], [("f", [], [])]),  # empty boundary
        (["v"], [(1, ("v", "v"))], [("f", [2], [Fraction(1)])]),  # unknown edge
        (["v"], [(1, ("v", "v"))], [("f", [1], [Fraction(1)] * 2)]),  # angle count
        (["v"], [(1, ("v", "v"))], [("f", 1, [1])]),  # boundary not a sequence
        (["v"], [(1, ("v", "v"))], [("f", [1], None)]),  # angles not a sequence
        (None, [], []),  # vertex list not a sequence
        (["v"], [(1, 5)], []),  # edge ends not a sequence
        (["v"], [1], []),  # edge not an (id, ends) pair
        (["v"], [(1, ("v", "v"))], [("f", [1])]),  # face not an (id, boundary, angles) triple
        (["v"], [(1, ("v", "v"))], 3),  # face list not a sequence
        ("vw", [], []),  # vertex list a string, not split into v and w
        (["v", "w"], [(1, "vw")], []),  # edge ends a string
        (["v", "w"], ["1v"], []),  # edge a string
        (["v"], [(1, ("v", "v"))], [("f", [1], "1")]),  # angles a string
        (["v"], [(1, ("v", "v"))], [("f", b"\x01", [1])]),  # boundary as bytes
    ],
)
def test_validation_rejects(vertices, edges, faces):
    with pytest.raises(InconsistentComplex):
        AngledComplex(vertices, edges, faces)


@pytest.mark.parametrize(
    "edges,faces,message",
    [
        ([(1, "vw")], [], "edge 1 ends 'vw' is a string, not a list"),
        ([(2, 5)], [], "edge 2 ends 5 is not a sequence"),
        ([(3, ("v",))], [], "edge 3 ends ('v',) does not have 2 entries"),
        ([(4, ("v", 1.5))], [], "edge 4 endpoint id 1.5 must be a string or an integer"),
        ([(1, ("v", "v"))], [("f", b"\x01", [1])],
         "face 'f' boundary b'\\x01' is a string, not a list"),
        ([(1, ("v", "v"))], [(7, 1, [1])], "face 7 boundary 1 is not a sequence"),
        ([(1, ("v", "v"))], [("f", [1], "1")], "face 'f' angles '1' is a string, not a list"),
        ([(1, ("v", "v"))], [("f", [1], None)], "face 'f' angles None is not a sequence"),
    ],
    ids=["ends-string", "ends-int", "ends-one", "endpoint", "boundary-bytes", "boundary-int",
         "angles-string", "angles-none"],
)
def test_validation_names_the_edge_or_face(edges, faces, message):
    """An entry of an edge or a face that fails its check names that edge or face."""
    with pytest.raises(InconsistentComplex) as info:
        AngledComplex(["v", "w"], edges, faces)
    assert str(info.value) == message


def test_boundary_must_close():
    # two edges sharing only one endpoint cannot close up into a 2-gon
    with pytest.raises(InconsistentComplex):
        AngledComplex(
            ["u", "v", "w"],
            [(1, ("u", "v")), (2, ("v", "w"))],
            [("f", [1, 2], [Fraction(1, 2)] * 2)],
        )


def test_angles_accept_ints_and_strings():
    cx = AngledComplex(
        ["v"],
        [(1, ("v", "v")), (2, ("v", "v"))],
        [("f", [1, 2, -1, -2], [1, "1/2", "3/2", 0])],
    )
    _, angles = cx.faces["f"]
    assert angles == (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(0))


def test_unknown_lookups_raise():
    t = one_square_torus()
    with pytest.raises(UnknownVertex):
        t.link_euler_characteristic("nope")
    with pytest.raises(UnknownFace):
        t.face_side_count("nope")
    with pytest.raises(UnknownFace):
        curvature_face(t, "nope")


def test_corners_at_vertex_matches_linear_filter():
    """The vertex index gives each vertex's corners in corner order, like a scan."""
    rng = random.Random(0xC0)
    complexes = [H.torus_grid(3, 4), H.disk_grid(2, 3), H.annulus_grid(2, 3), H.genus2_octagon()]
    complexes += [H.random_valid_complex(rng) for _ in range(20)]
    for cx in complexes:
        for v in cx.vertices:
            expected = [c for c in cx.corners if c.vertex == v]
            assert cx.corners_at_vertex(v) == expected
            cx.corners_at_vertex(v).clear()  # callers get their own list
            assert cx.corners_at_vertex(v) == expected
        with pytest.raises(UnknownVertex):
            cx.corners_at_vertex("nope")


def test_corners_sit_at_edge_heads():
    """Corners come face by face, position by position, each at the head of its edge."""
    rng = random.Random(0x4EAD)
    complexes = [H.torus_grid(3, 4), H.disk_grid(2, 3), H.annulus_grid(2, 3), H.genus2_octagon()]
    complexes += [H.random_valid_complex(rng) for _ in range(20)]
    for cx in complexes:
        expected = [
            (fid, i, cx.edges[abs(signed)][signed > 0], angles[i])
            for fid, (boundary, angles) in cx.faces.items()
            for i, signed in enumerate(boundary)
        ]
        assert [(c.face, c.position, c.vertex, c.angle) for c in cx.corners] == expected


def test_link_counts_match_node_sets():
    """Edge-ends minus corners is the node-minus-arc count of each link graph."""
    rng = random.Random(0x11C)
    complexes = [H.genus2_octagon()]
    for m in range(1, 4):
        for n in range(1, 4):
            complexes += [H.torus_grid(m, n), H.disk_grid(m, n), H.annulus_grid(m, n)]
    complexes += [H.random_valid_complex(rng) for _ in range(40)]
    # three triangles on one edge cycle, a loop on no face, an isolated vertex
    complexes.append(
        AngledComplex(
            ["u", "v", "w", "z"],
            [(1, ("u", "v")), (2, ("v", "w")), (3, ("w", "u")), (4, ("u", "u"))],
            [(f, [1, 2, 3], [Fraction(1, 3)] * 3) for f in ("f", "g", "h")],
        )
    )
    for cx in complexes:
        chi = {v: cx.link_euler_characteristic(v) for v in cx.vertices}
        assert chi == H.link_characteristics_by_node_sets(cx)
    assert chi == {"u": 1, "v": -1, "w": -1, "z": 0}


# -- curvature --------------------------------------------------------------


def test_flat_torus_curvatures():
    t = one_square_torus()
    assert curvature_vertex(t, "v0_0") == 0
    assert curvature_face(t, "f0_0") == 0


def test_disk_corner_vertex():
    d = H.disk_grid(1, 1)
    # corner of the unit disk: chi(link) = 1, one angle of pi/2
    assert curvature_vertex(d, "v0_0") == Fraction(1, 2)


def test_monogon_face():
    m = AngledComplex(
        ["v"], [(1, ("v", "v"))], [("f", [1], [Fraction(1, 2)])]
    )
    # one side: angle sum - (1 - 2) = 1/2 + 1
    assert curvature_face(m, "f") == Fraction(3, 2)
    mm = AngledComplex(["v"], [(1, ("v", "v"))], [("f", [1], [Fraction(1)])])
    assert curvature_face(mm, "f") == 2


def test_right_angled_pentagon():
    star = [f"v{i}" for i in range(5)]
    edges = [(i + 1, (star[i], star[(i + 1) % 5])) for i in range(5)]
    p = AngledComplex(star, edges, [("f", [1, 2, 3, 4, 5], [Fraction(1, 2)] * 5)])
    assert curvature_face(p, "f") == Fraction(5, 2) - 3


def test_genus_two_at_a_glance():
    g2 = H.genus2_octagon()
    assert euler_characteristic(g2) == -2
    assert curvature_face(g2, "f") == Fraction(8, 4) - 6
    assert curvature_vertex(g2, "v") == Fraction(2) - 0 - Fraction(8, 4)
    assert gauss_bonnet_residual(g2) == 0


def test_residual_zero_on_library():
    for m in range(1, 4):
        for n in range(1, 4):
            assert gauss_bonnet_residual(H.torus_grid(m, n)) == 0
            assert gauss_bonnet_residual(H.disk_grid(m, n)) == 0
            assert gauss_bonnet_residual(H.annulus_grid(m, n)) == 0


def test_residual_zero_random_angles():
    rng = random.Random(0x6B)
    for _ in range(60):
        assert gauss_bonnet_residual(H.random_valid_complex(rng)) == 0


# -- genus defect -----------------------------------------------------------


def test_genus_defect_values():
    assert genus_defect_from_faces([4, 4, 4]) == 1
    assert genus_defect_from_faces([5]) == Fraction(5, 4)
    assert genus_defect_from_faces([8]) == 2
    assert genus_defect_from_faces([4, 6]) == Fraction(3, 2)


def test_genus_defect_rejects_small_faces():
    with pytest.raises(SideCountBelowFour):
        genus_defect_from_faces([4, 3])


# -- serialization ----------------------------------------------------------


def test_json_round_trip():
    for cx in (one_square_torus(), H.disk_grid(2, 2), H.genus2_octagon()):
        text = json.dumps(cx.to_json_dict())
        back = parse_complex(text)
        assert back.to_json_dict() == cx.to_json_dict()
        assert gauss_bonnet_residual(back) == 0


def test_parse_complex_rejects_garbage():
    with pytest.raises(InconsistentComplex):
        parse_complex("[]")
    with pytest.raises(InconsistentComplex):
        parse_complex('{"vertices": ["v"], "edges": []}')
    with pytest.raises(InconsistentComplex):
        parse_complex(5)


@pytest.mark.parametrize(
    "edge",
    [{"id": 1, "ends": ["v", "w", "v"]}, {"id": 1, "ends": ["v"]}, {"id": 1, "ends": "vw"}],
    ids=["three-ends", "one-end", "string-ends"],
)
def test_json_edge_ends_are_checked_as_given(edge):
    """JSON edge ends reach the constructor whole: three are not cut to two."""
    data = {"vertices": ["v", "w"], "edges": [edge], "faces": []}
    with pytest.raises(InconsistentComplex):
        AngledComplex.from_json_dict(data)
    with pytest.raises(InconsistentComplex):
        AngledComplex(data["vertices"], [(edge["id"], edge["ends"])], [])


@pytest.mark.parametrize(
    "text",
    ['{"vertices": [' + "1" * 5000 + '], "edges": [], "faces": []}', "[" * 100_000],
    ids=["overlong-integer", "deep-nesting"],
)
def test_parse_complex_rejects_what_json_cannot_decode(text):
    # json.loads raises a bare ValueError for an integer over int()'s digit
    # limit and RecursionError for nesting deeper than the interpreter allows
    with pytest.raises(InconsistentComplex, match="invalid JSON"):
        parse_complex(text)


def test_parse_complex_rejects_bad_angle():
    data = one_square_torus().to_json_dict()
    data["faces"][0]["angles"][2] = "1/x"
    with pytest.raises(InconsistentComplex, match="angle '1/x' is not a rational"):
        parse_complex(json.dumps(data))


@pytest.mark.parametrize("angle", ["1e400", "1E-2"])
def test_parse_complex_rejects_exponent_notation(angle):
    # Fraction("1e10000000") would compute ten to that power before returning
    data = one_square_torus().to_json_dict()
    data["faces"][0]["angles"][2] = angle
    with pytest.raises(InconsistentComplex, match=f"angle '{angle}' is not a rational"):
        parse_complex(json.dumps(data))
