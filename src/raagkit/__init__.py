"""raagkit: exact computations in right-angled Artin groups.

Defining graphs, normal forms and cyclic reduction, the half-space calculus
of the universal cover (intervals, medians, nesting, chains), cyclic
inverse-overlap verification, certified lower bounds for stable commutator
length, and angled 2-complex curvature checks.  All arithmetic is exact.

``import raagkit`` loads none of its modules.  Each public name is written
once, under its home module, in ``_EXPORTS``.  Its first access imports that
module and keeps the value in this namespace, so later lookups are plain
dict hits (module ``__getattr__``, PEP 562); a submodule such as
``raagkit.cube`` loads the same way.  So ``raagkit.parse_graph`` loads only
``graphs`` and ``errors``.  The command-line front end, ``raagkit.cli``,
calls the library through this namespace, so each subcommand loads only the
modules it calls.  Graphs, words and complexes load without ``dataclasses``:
``Coloring``, ``CyclicReduction`` and ``Corner`` are named tuples, which
unpack, equal plain tuples and raise ``AttributeError`` on assignment.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BadParameter", "ChainTooShort", "DuplicateVertex", "EmptyWord", "GraphMismatch",
        "GraphSyntaxError", "InconsistentComplex", "LoopEdge", "NotCyclicallyReduced",
        "NotInContext", "NotNested", "NotReduced", "RaagError", "SideCountBelowFour",
        "TooLargeForExact", "TooManyVertices", "TrivialElement", "UnknownFace",
        "UnknownGenerator", "UnknownMode", "UnknownVertex", "UnknownVertexInEdge",
        "WordSyntaxError",
    ),
    "graphs": (
        "Coloring", "DefiningGraph", "adjacent", "chromatic_number", "find_triangle", "parse_graph",
    ),
    "words": (
        "CyclicReduction", "CyclicWord", "Letter", "Word", "concat", "cyclically_reduce", "equal",
        "exponent_vector", "inverse", "is_cyclically_reduced", "is_reduced", "normal_form",
        "power", "reduce",
    ),
    "cube": (
        "Chain", "HalfSpace", "Interval", "MaxChainsReport", "NoOverlapSearchReport",
        "SpecialAxiomsReport", "act", "all_longest_chains", "ball", "check_max_chains",
        "check_special_axioms", "crosses", "halfspace_of_edge", "hyperplanes_cross",
        "in_a_g_plus", "interval", "longest_chain", "median", "member", "midpoint", "nested",
        "nested_globally", "search_prop_noov_violation", "tightly_nested",
        "tightly_nested_globally",
    ),
    "overlap": (
        "OverlapReport", "Witness", "core_of_power", "max_inverse_overlap",
        "projection_overlap_bound", "verify_key_lemma",
    ),
    "bounds": (
        "BoundCertificate", "is_scl_finite", "reference_bounds", "scl_lower_bound",
        "verify_certificate",
    ),
    "complexes": (
        "AngledComplex", "Corner", "curvature_face", "curvature_vertex", "euler_characteristic",
        "gauss_bonnet_residual", "genus_defect_from_faces", "parse_complex",
    ),
    "cli": (),  # a submodule only: its names stay in raagkit.cli
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an exported name's module, or a submodule, at its first access."""
    if name in _HOME:
        value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
        return value
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """The loaded names, every export and every submodule, loaded or not."""
    return sorted({*globals(), *__all__, *_EXPORTS})
