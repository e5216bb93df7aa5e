"""The package namespace: its exports, where each one lives, and what loads when.

``import raagkit`` loads no submodule; each exported name imports its home
module on first access (PEP 562 module ``__getattr__``).
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import raagkit

ROOT = Path(__file__).resolve().parents[1]

# The public names, in sorted order, as the package exported them when each
# was still imported eagerly.
EXPORTS = [
    "AngledComplex", "BadParameter", "BoundCertificate", "Chain", "ChainTooShort",
    "Coloring", "Corner", "CyclicReduction", "CyclicWord", "DefiningGraph",
    "DuplicateVertex", "EmptyWord", "GraphMismatch", "GraphSyntaxError", "HalfSpace",
    "InconsistentComplex", "Interval", "Letter", "LoopEdge", "MaxChainsReport",
    "NoOverlapSearchReport", "NotCyclicallyReduced", "NotInContext", "NotNested",
    "NotReduced", "OverlapReport", "RaagError", "SideCountBelowFour", "SpecialAxiomsReport",
    "TooLargeForExact", "TooManyVertices", "TrivialElement", "UnknownFace",
    "UnknownGenerator", "UnknownMode", "UnknownVertex", "UnknownVertexInEdge", "Witness",
    "Word", "WordSyntaxError", "act", "adjacent", "all_longest_chains", "ball",
    "check_max_chains", "check_special_axioms", "chromatic_number", "concat",
    "core_of_power", "crosses", "curvature_face", "curvature_vertex", "cyclically_reduce",
    "equal", "euler_characteristic", "exponent_vector", "find_triangle",
    "gauss_bonnet_residual", "genus_defect_from_faces", "halfspace_of_edge",
    "hyperplanes_cross", "in_a_g_plus", "interval", "inverse", "is_cyclically_reduced",
    "is_reduced", "is_scl_finite", "longest_chain", "max_inverse_overlap", "median",
    "member", "midpoint", "nested", "nested_globally", "normal_form", "parse_complex",
    "parse_graph", "power", "projection_overlap_bound", "reduce", "reference_bounds",
    "scl_lower_bound", "search_prop_noov_violation", "tightly_nested",
    "tightly_nested_globally", "verify_certificate", "verify_key_lemma",
]

SUBMODULES = ["bounds", "cli", "complexes", "cube", "errors", "graphs", "overlap", "words"]

# Run in a fresh interpreter: the raagkit.* modules each step adds to
# sys.modules, and dataclasses and inspect when a step loads them.
LOADS = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return {name for name in sys.modules
            if name.startswith("raagkit.") or name in ("dataclasses", "inspect")}
steps, before = [], set()
for step in (
    "import raagkit",
    "g = raagkit.parse_graph('vertices: a b\\nedges: a-b')",
    "raagkit.Word",
    "raagkit.cyclically_reduce(raagkit.Word.parse(g, 'abA'))",
    "raagkit.parse_complex(json.dumps({'vertices': ['v'], 'edges': [{'id': 1, 'ends': ['v', 'v']}],"
    " 'faces': [{'id': 'f', 'boundary': [1, -1], 'angles': ['1/2', '1/2']}]}))",
    "raagkit.cube",
):
    exec(step)
    steps.append(sorted(loaded() - before))
    before = loaded()
print(json.dumps([steps, raagkit.cube is sys.modules["raagkit.cube"]]))
"""


def test_all_is_the_pinned_sorted_list():
    assert raagkit.__all__ == EXPORTS


def test_each_name_is_its_home_modules_object():
    for name in EXPORTS:
        home = "raagkit." + raagkit._HOME[name]
        value = getattr(raagkit, name)
        assert value is getattr(importlib.import_module(home), name), name
        assert value.__module__ == home, name
        assert raagkit.__dict__[name] is value, name  # kept: the next lookup is a dict hit


def test_star_import_binds_every_export():
    namespace = {}
    exec("from raagkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_dir_lists_every_export():
    listed = dir(raagkit)
    assert "__all__" in listed and set(EXPORTS) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert getattr(raagkit, name) is importlib.import_module("raagkit." + name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'raagkit' has no attribute 'nope'"):
        raagkit.nope


def test_each_module_loads_at_first_use():
    """A count, not a timing: the modules each first access puts in ``sys.modules``.

    Graphs, words and complexes load without ``dataclasses`` (and the
    ``inspect`` it imports); ``cube`` still loads both.
    """
    package_root = str(Path(raagkit.__file__).resolve().parents[1])
    argv = [sys.executable, "-I", "-c", LOADS, package_root]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    steps, cube_resolved = json.loads(proc.stdout)
    assert steps == [
        [],
        ["raagkit.errors", "raagkit.graphs"],
        ["raagkit.words"],
        [],
        ["raagkit.complexes"],
        ["dataclasses", "inspect", "raagkit.cube"],
    ]
    assert cube_resolved


@pytest.mark.parametrize(
    "name, fields, text",
    [
        ("Coloring", ("assignment", "num_colors"),
         "Coloring(assignment={'a': 1, 'b': 0, 'c': 1}, num_colors=2)"),
        ("CyclicReduction", ("core", "conjugator"),
         "CyclicReduction(core=Word('c'), conjugator=Word('ca'))"),
        ("Corner", ("face", "position", "vertex", "angle"),
         "Corner(face='f', position=0, vertex='v', angle=Fraction(1, 2))"),
    ],
    ids=["Coloring", "CyclicReduction", "Corner"],
)
def test_value_types_keep_their_fields(name, fields, text):
    """Each value type keeps its fields, constructors, repr, immutability and
    hashing; as a named tuple it also unpacks and equals the plain tuple of
    its fields."""
    graph = raagkit.parse_graph("vertices: a b c\nedges: a-b b-c")
    if name == "Coloring":
        value = raagkit.chromatic_number(graph)[1]
    elif name == "CyclicReduction":
        value = raagkit.cyclically_reduce(raagkit.Word.parse(graph, "cacAC"))
    else:
        loop = {"vertices": ["v"], "edges": [{"id": 1, "ends": ["v", "v"]}],
                "faces": [{"id": "f", "boundary": [1, -1], "angles": ["1/2", "1/2"]}]}
        value = raagkit.parse_complex(json.dumps(loop)).corners[0]
    cls = getattr(raagkit, name)
    args = tuple(getattr(value, field) for field in fields)
    assert type(value) is cls and repr(value) == text
    assert cls(*args) == value == cls(**dict(zip(fields, args)))
    assert repr(cls(**dict(zip(fields, args)))) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], args[0])
    if name == "Coloring":  # it holds a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(cls(*args))
    assert tuple(value) == args and value == args


def test_version_matches_pyproject():
    # tomllib needs Python 3.11; the project supports 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert raagkit.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
