import dataclasses
from fractions import Fraction

import pytest

import helpers as H
from raagkit import (
    DefiningGraph,
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


def test_bounds_work_is_linear_on_commuting_runs():
    """On Z^2, certificates for ``a^N b^N a^-N b^-N`` and ``a^N b^N a^-N`` cost linear work.

    The bounds need only the element's exponent sums, read off its own
    letters, and its triviality, which ``words._is_trivial`` decides factor
    by factor on a join graph.  The scan kernels are wrapped
    (``helpers.count_kernel_work``): for N from 16 to 4,000 the trivial
    element (route zero) costs scans of one factor at a time, with the
    letters handed to them and the lines they run under fixed multiples of
    the word length n, and the element of nonzero exponent sum (route
    infinite) costs no scan.  Reduced whole, each ``a^-1`` would walk back
    past all N letters ``b``: about N^2 lines.
    """
    z2 = DefiningGraph(["a", "b"], [("a", "b")])
    for n_power in (16, 250, 1000, 4000):
        trivial = w(z2, f"a^{n_power} b^{n_power} a^-{n_power} b^-{n_power}")
        infinite = w(z2, f"a^{n_power} b^{n_power} a^-{n_power}")
        n = len(trivial)
        with H.count_kernel_work() as (work, supports):
            zero = scl_lower_bound(z2, trivial)
            assert zero.route == ROUTE_ZERO and verify_certificate(zero)
        assert all(len(support) <= 1 for support in supports), supports
        # 2 n letters and 22 n lines at every N today
        assert work["letters in"] <= 2 * n and work["line"] <= 30 * n, (n, work)
        with H.count_kernel_work() as (work, _):
            cert = scl_lower_bound(z2, infinite)
            assert cert.route == ROUTE_INFINITE and verify_certificate(cert)
            assert not is_scl_finite(infinite)
        assert not work, work


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
    # no producer emits a bare triangle-free route, so no certificate may claim one
    assert not verify_certificate(
        dataclasses.replace(cert, route="triangle-free", bound=Fraction(1, 20))
    )


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
