import dataclasses
from fractions import Fraction

import pytest

from raagkit import (
    GraphMismatch,
    Word,
    is_scl_finite,
    reference_bounds,
    scl_lower_bound,
    verify_certificate,
)
from raagkit.bounds import (
    ROUTE_BEST_OF_BOTH,
    ROUTE_COLORING,
    ROUTE_INFINITE,
    ROUTE_ZERO,
    TRIANGLE_FREE_BOUND,
)


def w(graph, text):
    return Word.parse(graph, text)


def test_is_scl_finite(p3):
    assert is_scl_finite(w(p3, "abAB"))
    assert is_scl_finite(w(p3, "acAC"))
    assert not is_scl_finite(w(p3, "a"))
    assert not is_scl_finite(w(p3, "aab"))
    assert is_scl_finite(w(p3, "1"))


def test_free_group_commutator(edgeless2):
    cert = scl_lower_bound(edgeless2, w(edgeless2, "abAB"))
    assert cert.finite
    assert cert.bound == Fraction(1, 6)
    assert cert.route == ROUTE_BEST_OF_BOTH  # edgeless graphs are triangle-free
    assert cert.triangle_free_witness
    assert cert.exactness
    assert verify_certificate(cert)


def test_p3_commutator(p3):
    cert = scl_lower_bound(p3, w(p3, "acAC"))
    assert cert.bound == Fraction(1, 12)
    assert cert.coloring.num_colors == 2
    assert verify_certificate(cert)


def test_triangle_graph_uses_coloring_route(k3_pendant):
    cert = scl_lower_bound(k3_pendant, w(k3_pendant, "bdBD"))
    assert cert.route == ROUTE_COLORING
    assert not cert.triangle_free_witness
    assert cert.bound == Fraction(1, 18)
    assert verify_certificate(cert)


def test_triangle_free_floor(grotzsch):
    # chromatic number 4 makes the coloring bound 1/24; the triangle-free
    # route wins with its flat 1/20
    g = w(grotzsch, "v0 v2 v0^-1 v2^-1")
    cert = scl_lower_bound(grotzsch, g)
    assert cert.route == ROUTE_BEST_OF_BOTH
    assert cert.coloring.num_colors == 4
    assert cert.bound == TRIANGLE_FREE_BOUND == Fraction(1, 20)
    assert verify_certificate(cert)


def test_m5_certificate(m5):
    # triangle-free with chromatic number 5 (Mycielski): the coloring bound
    # 1/30 loses to the triangle-free 1/20
    cert = scl_lower_bound(m5, w(m5, "v0 sv2 v0^-1 sv2^-1"))
    assert cert.route == ROUTE_BEST_OF_BOTH
    assert (cert.coloring.num_colors, cert.exactness) == (5, True)
    assert cert.bound == TRIANGLE_FREE_BOUND == Fraction(1, 20)
    assert verify_certificate(cert)


def test_infinite_case(edgeless2):
    cert = scl_lower_bound(edgeless2, w(edgeless2, "aab"))
    assert not cert.finite
    assert cert.bound is None
    assert cert.route == ROUTE_INFINITE
    assert verify_certificate(cert)
    assert cert.to_json_dict()["bound"] == "inf"


def test_zero_case(p3):
    cert = scl_lower_bound(p3, w(p3, "abAB"))  # a, b commute: trivial element
    assert cert.route == ROUTE_ZERO
    assert cert.bound == 0
    assert verify_certificate(cert)


def test_heuristic_mode_flagged(c5):
    cert = scl_lower_bound(c5, w(c5, "acAC"), mode="heuristic")
    assert not cert.exactness
    assert cert.bound <= Fraction(1, 18)  # DSATUR may overshoot to 3 colors
    assert verify_certificate(cert)


def test_bad_mode(p3):
    with pytest.raises(ValueError):
        scl_lower_bound(p3, w(p3, "acAC"), mode="fast")


def test_verify_rejects_tampering(edgeless2, k3_pendant):
    cert = scl_lower_bound(edgeless2, w(edgeless2, "abAB"))
    assert not verify_certificate(dataclasses.replace(cert, bound=Fraction(1, 2)))
    assert not verify_certificate(dataclasses.replace(cert, triangle_free_witness=False))
    assert not verify_certificate(dataclasses.replace(cert, route=ROUTE_ZERO))
    assert not verify_certificate(dataclasses.replace(cert, finite=False, bound=None))
    other = scl_lower_bound(k3_pendant, w(k3_pendant, "bdBD"))
    # swapping in a coloring that is not proper for this graph must fail
    assert not verify_certificate(dataclasses.replace(cert, coloring=None))


def test_element_over_another_graph(edgeless2, p3):
    # abAB over F2 is not an element of A(p3), whatever p3's letters are named
    with pytest.raises(GraphMismatch):
        scl_lower_bound(p3, w(edgeless2, "abAB"))
    cert = scl_lower_bound(p3, w(p3, "acAC"))
    assert verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, element=w(edgeless2, "abAB")))


def test_certificate_json(p3):
    d = scl_lower_bound(p3, w(p3, "acAC")).to_json_dict()
    assert d["graph"] == {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    assert d["bound"] == "1/12"
    assert d["route"] == "best-of-both"
    assert d["finite"] is True
    assert d["element"] == "acAC"
    assert set(d["coloring"]["assignment"]) == {"a", "b", "c"}
    assert d["references"] == sorted(d["references"])


def test_reference_table():
    refs = reference_bounds()
    assert refs["culler_free"] == Fraction(1, 6)
    assert refs["duncan_howie_free"] == Fraction(1, 2)
    assert refs["heuer_raag"] == Fraction(1, 2)
    assert refs["fft_raag"] == Fraction(1, 24)
    assert refs["commutator_exact_free"] == Fraction(1, 2)
    refs["culler_free"] = 0  # caller's copy, not the shared table
    assert reference_bounds()["culler_free"] == Fraction(1, 6)
