"""Malformed input to a library entry point fails as a RaagError, never as a stray exception."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagkit import (
    AngledComplex,
    BadParameter,
    CyclicWord,
    DefiningGraph,
    RaagError,
    UnknownMode,
    Word,
    ball,
    check_max_chains,
    check_special_axioms,
    chromatic_number,
    max_inverse_overlap,
    parse_complex,
    parse_graph,
    projection_overlap_bound,
    scl_lower_bound,
    search_prop_noov_violation,
    verify_key_lemma,
)

P3 = DefiningGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
C5 = DefiningGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])

# JSON-like values: what a caller might pass by mistake, nested a few levels
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def some(strategy, size=4):
    """A short list drawn from ``strategy``, or any JSON-like value instead."""
    return st.lists(strategy, max_size=size) | JSON


NAMES = st.sampled_from(["a", "b", "c", "x", "1b", "a b", ""]) | JSON
VERTEX_LINES = st.sampled_from(["vertices: a b c", "vertices: a a", "vertices: 1b", "vertices:"])
EDGE_LINES = st.sampled_from(
    ["edges: a-b b-c", "edges: a-x", "edges: a-a", "edges: a-b b-a", "edges: a=b", "edges:"]
)
LINES = VERTEX_LINES | EDGE_LINES | st.sampled_from(["# note", ""]) | st.text(max_size=12)
GRAPH_TEXT = (
    st.tuples(VERTEX_LINES, EDGE_LINES).map("\n".join)
    | st.lists(LINES, max_size=4).map("\n".join)
)
TOKENS = (
    st.sampled_from(["a", "B", "abC", "a^-1", "b^3", "c^-2", "x", "a^", "^", "1", "a-b"])
    | st.text(max_size=4)
)
WORD_TEXT = st.lists(TOKENS, max_size=4).map(" ".join) | JSON
IDS = st.sampled_from(["v", "w", "f", 1, -1, 2]) | JSON
ANGLES = st.sampled_from(["1/2", "1", "x", 0]) | JSON
EDGE = st.fixed_dictionaries({"id": IDS, "ends": some(IDS, 3)})
FACE = st.fixed_dictionaries({"id": IDS, "boundary": some(IDS, 3), "angles": some(ANGLES, 3)})
COMPLEX = (
    st.fixed_dictionaries(
        {
            "vertices": some(IDS, 3),
            "edges": st.lists(EDGE | JSON, max_size=3),
            "faces": st.lists(FACE | JSON, max_size=3),
        }
    )
    | JSON
)
COMPLEX_ARGS = st.tuples(
    some(IDS, 3),
    some(st.tuples(IDS, some(IDS, 3)) | JSON, 3),
    some(st.tuples(IDS, some(IDS, 3), some(ANGLES, 3)) | JSON, 3),
)
LETTERS = some(st.tuples(NAMES, st.sampled_from([1, -1, 0, 2]) | JSON) | JSON)

ENTRY_POINTS = {
    "graph": (DefiningGraph, st.tuples(some(NAMES), some(some(NAMES, 3), 3))),
    "parse_graph": (parse_graph, st.tuples(GRAPH_TEXT | JSON)),
    "parse": (lambda text: Word.parse(P3, text), st.tuples(WORD_TEXT)),
    "from_letters": (lambda letters: Word.from_letters(P3, letters), st.tuples(LETTERS)),
    "complex": (AngledComplex.from_json_dict, st.tuples(COMPLEX)),
    "AngledComplex": (AngledComplex, COMPLEX_ARGS),
    "parse_complex": (parse_complex, st.tuples(COMPLEX.map(json.dumps) | st.text(max_size=12) | JSON)),
}


def test_only_raag_errors_escape():
    """Every entry point either returns or raises a RaagError, whatever it is given.

    Each draw holds one argument tuple per entry point, mixing near-valid
    input with arbitrary JSON-like values; the counts show both outcomes
    are reached at every entry point.
    """
    seen = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries({name: strategy for name, (_, strategy) in ENTRY_POINTS.items()}))
    def check(args):
        for name, (call, _) in ENTRY_POINTS.items():
            try:
                call(*args[name])
            except RaagError:
                seen[name, "error"] += 1
            else:
                seen[name, "ok"] += 1

    check()
    assert all(seen[name, "ok"] >= 15 and seen[name, "error"] >= 100 for name in ENTRY_POINTS), seen


@pytest.mark.parametrize(
    "call",
    [
        lambda: DefiningGraph("ab", []),
        lambda: DefiningGraph(["a", "b"], "ab"),
        lambda: DefiningGraph(["a", "b"], ["ab"]),
        lambda: AngledComplex("vw", [], []),
        lambda: AngledComplex(["v", "w"], [(1, "vw")], []),
        lambda: AngledComplex(["v"], [(1, ("v", "v"))], [("f", [1], "1")]),
        lambda: parse_complex('{"vertices": ["v", "w"], "edges": [{"id": 1, "ends": "vw"}], "faces": []}'),
        lambda: parse_complex(
            '{"vertices": ["v"], "edges": [{"id": 1, "ends": ["v", "v"]}],'
            ' "faces": [{"id": "f", "boundary": [1], "angles": "1"}]}'
        ),
    ],
    ids=["vertices", "edges", "edge", "complex-vertices", "ends", "angles", "json-ends", "json-angles"],
)
def test_a_string_is_not_a_list(call):
    """A string where a list belongs is an error, not split into one-character entries."""
    with pytest.raises(RaagError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: max_inverse_overlap(CyclicWord(Word.parse(P3, "ac")), mode="fast"),
        lambda: projection_overlap_bound(CyclicWord(Word.parse(P3, "ac")), mode="fast"),
        lambda: verify_key_lemma(Word.parse(P3, "ac"), mode="fast"),
        lambda: chromatic_number(P3, mode="fast"),
        # the identity never reaches chromatic_number, so the mode is checked first
        lambda: scl_lower_bound(P3, Word.parse(P3, ""), mode="fast"),
    ],
    ids=["overlap", "projection", "key_lemma", "chromatic", "scl_bound"],
)
def test_unknown_mode_is_a_raag_error(call):
    """An unknown mode is a RaagError, and still the ValueError it used to be."""
    with pytest.raises(UnknownMode) as info:
        call()
    assert isinstance(info.value, RaagError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_key_lemma(Word.parse(P3, "ac"), n_max=0),
        lambda: verify_key_lemma(Word.parse(P3, "ac"), reps_cap=0),
        lambda: verify_key_lemma(Word.parse(P3, "ac"), n_max=2.0),
        lambda: ball(P3, -1),
        lambda: ball(P3, 1.5),
        lambda: check_special_axioms(P3, samples=-1),
        lambda: check_special_axioms(P3, radius=-1),
        lambda: check_max_chains(P3, samples=True),
        lambda: check_max_chains(P3, radius="3"),
        lambda: search_prop_noov_violation(Word.parse(P3, "ac"), samples=-1),
        lambda: search_prop_noov_violation(Word.parse(P3, "ac"), radius=-1),
        # a seed has no least value, but the report echoes it: it must repeat the run
        lambda: check_special_axioms(P3, seed=[1]),
        lambda: check_special_axioms(P3, seed=True),
        lambda: check_max_chains(P3, seed={}),
        lambda: check_max_chains(P3, seed=None),
        lambda: search_prop_noov_violation(Word.parse(P3, "ac"), seed=1.5),
        # a ball counted past its limit is refused before it is built
        lambda: ball(C5, 40),
        lambda: check_special_axioms(C5, samples=0, radius=40),
        lambda: check_max_chains(P3, samples=0, radius=10**6),
        lambda: search_prop_noov_violation(Word.parse(C5, "ac"), samples=0, radius=40),
    ],
    ids=[
        "n_max", "reps_cap", "n_max-float", "ball", "ball-float", "axioms-samples",
        "axioms-radius", "chains-bool", "chains-str", "noov-samples", "noov-radius",
        "axioms-seed-list", "axioms-seed-bool", "chains-seed-dict", "chains-seed-none",
        "noov-seed-float", "ball-limit", "axioms-ball-limit", "chains-ball-limit",
        "noov-ball-limit",
    ],
)
def test_bad_parameter_is_a_raag_error(call):
    """A count, cap or radius below its least value, a count, cap, radius or
    seed that is not an int, or a radius whose ball would pass
    ``cube.BALL_LIMIT`` elements, is a RaagError and a ValueError, so no
    check passes without running."""
    with pytest.raises(BadParameter) as info:
        call()
    assert isinstance(info.value, RaagError) and isinstance(info.value, ValueError)


def test_least_parameters_are_accepted():
    ac = Word.parse(P3, "ac")
    assert [r.representatives_checked for r in verify_key_lemma(ac, n_max=1, reps_cap=1)] == [1]
    assert [v.display() for v in ball(P3, 0)] == ["1"]
    assert check_special_axioms(P3, samples=0, radius=0).ok
    assert check_max_chains(P3, samples=0, radius=0).ok
    assert check_max_chains(P3, samples=3, radius=1, seed=-1).seed == -1  # any int seeds
    assert search_prop_noov_violation(ac, radius=0, samples=0).ok
