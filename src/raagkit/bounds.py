"""Certified lower bounds for stable commutator length.

Two uniform bounds are computed from the defining graph alone: ``1/(6k)``
for any proper ``k``-coloring of the graph, and ``1/20`` when the graph has
no triangle.  Both apply to every nontrivial element whose exponent vector
vanishes (equivalently, some power lies in the commutator subgroup); for
other elements the quantity is infinite, and for the trivial element it is
zero.  Certificates carry enough data to be re-validated from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GraphMismatch, UnknownMode
from .graphs import Coloring, DefiningGraph, chromatic_number, find_triangle
from .words import Word, _exponent_sums, _is_trivial

#: Named constants from the surrounding literature, for display next to
#: certificates.  Values are exact and informational only.
_REFERENCE_TABLE = {
    "culler_free": Fraction(1, 6),
    "duncan_howie_free": Fraction(1, 2),
    "heuer_raag": Fraction(1, 2),
    "fft_raag": Fraction(1, 24),
    "commutator_exact_free": Fraction(1, 2),
}

ROUTE_COLORING = "coloring"
ROUTE_BEST_OF_BOTH = "best-of-both"
ROUTE_INFINITE = "infinite"
ROUTE_ZERO = "zero"

TRIANGLE_FREE_BOUND = Fraction(1, 20)


def reference_bounds() -> dict[str, Fraction]:
    """The static table of literature constants (copied per call)."""
    return dict(_REFERENCE_TABLE)


def is_scl_finite(g: Word) -> bool:
    """True iff some nonzero power of ``g`` lies in the commutator subgroup.

    The abelianization is free abelian, so this happens exactly when the
    exponent vector vanishes.  Reduction does not change exponent sums, so
    they are read off the word's own letters; nothing is reduced.
    """
    return not any(_exponent_sums(g.graph, g.codes))


@dataclass(frozen=True)
class BoundCertificate:
    """A machine-checkable record of one lower-bound computation.

    ``bound`` is ``None`` exactly on the infinite route.  ``exactness``
    records whether the chromatic number used was exact; routes that never
    color the graph set it to True (nothing approximate happened).
    """

    graph: DefiningGraph
    element: Word
    finite: bool
    bound: Optional[Fraction]
    route: str
    coloring: Optional[Coloring]
    triangle_free_witness: bool
    exactness: bool
    references: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "element": self.element.display(),
            "finite": self.finite,
            "bound": _rational_str(self.bound),
            "route": self.route,
            "coloring": None
            if self.coloring is None
            else {
                "assignment": {v: self.coloring.assignment[v] for v in self.graph.vertices},
                "num_colors": self.coloring.num_colors,
            },
            "triangle_free_witness": self.triangle_free_witness,
            "exactness": self.exactness,
            "references": list(self.references),
        }


def _rational_str(q: Optional[Fraction]) -> str:
    if q is None:
        return "inf"
    return f"{q.numerator}/{q.denominator}"


def scl_lower_bound(graph: DefiningGraph, g: Word, mode: str = "exact") -> BoundCertificate:
    """Best available lower bound for the stable commutator length of ``g``.

    The element only matters through triviality and finiteness; the bound
    itself is uniform over the graph.  When the graph is triangle-free both
    bounds apply and the certificate records both (route ``best-of-both``);
    otherwise only the coloring route is available.  Heuristic mode accepts
    a possibly non-optimal proper coloring, yielding a valid but possibly
    weaker bound flagged via ``exactness``.
    """
    if mode not in ("exact", "heuristic"):
        raise UnknownMode(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if g.graph != graph:
        raise GraphMismatch("the element lives over a different graph")
    triangle_free = find_triangle(graph) is None
    coloring, exact = None, True
    if any(_exponent_sums(graph, g.codes)):
        finite, bound, route = False, None, ROUTE_INFINITE
    elif _is_trivial(graph, g.codes):
        finite, bound, route = True, Fraction(0), ROUTE_ZERO
    else:
        k, coloring, exact = chromatic_number(graph, mode=mode)
        finite, bound, route = True, Fraction(1, 6 * k), ROUTE_COLORING
        if triangle_free:
            bound, route = max(bound, TRIANGLE_FREE_BOUND), ROUTE_BEST_OF_BOTH
    return BoundCertificate(
        graph=graph,
        element=g,
        finite=finite,
        bound=bound,
        route=route,
        coloring=coloring,
        triangle_free_witness=triangle_free,
        exactness=exact,
        references=tuple(sorted(_REFERENCE_TABLE)),
    )


def verify_certificate(cert: BoundCertificate) -> bool:
    """Re-validate a certificate without trusting its producer.

    Checks the finiteness claim against the exponent vector, the coloring's
    properness and color count, the triangle-freeness witness, and the bound
    arithmetic for the claimed route, all over the certificate's graph.
    ``exactness`` and ``references`` are not checked.
    """
    graph = cert.graph
    if cert.element.graph != graph:
        return False
    codes = cert.element.codes
    finite = not any(_exponent_sums(graph, codes))
    trivial = finite and _is_trivial(graph, codes)
    triangle_free = find_triangle(graph) is None
    if cert.triangle_free_witness != triangle_free:
        return False
    if cert.route == ROUTE_ZERO:
        return trivial and cert.finite and cert.bound == 0
    if cert.route == ROUTE_INFINITE:
        return (not finite) and (not cert.finite) and cert.bound is None
    if trivial or not finite or not cert.finite:
        return False
    if cert.coloring is None or not cert.coloring.is_proper(graph):
        return False
    coloring_bound = Fraction(1, 6 * cert.coloring.num_colors)
    if cert.route == ROUTE_COLORING:
        return (not triangle_free) and cert.bound == coloring_bound
    if cert.route == ROUTE_BEST_OF_BOTH:
        return triangle_free and cert.bound == max(coloring_bound, TRIANGLE_FREE_BOUND)
    return False
