"""Inverse-overlap scanning, closure enumeration, projection certificates.

The single-word scanner is pinned to a cubic-time oracle on letter tuples;
closure maxima are pinned to a brute-force closure walk that shares no code
with the package, and whole closure reports to the walk that keyed every
class by its least rotation (``helpers.closure_scan_by_least_rotation``).
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers as H
from raagkit import overlap
from raagkit import (
    CyclicWord,
    DefiningGraph,
    TrivialElement,
    Word,
    core_of_power,
    cyclically_reduce,
    equal,
    inverse,
    max_inverse_overlap,
    normal_form,
    power,
    projection_overlap_bound,
    search_prop_noov_violation,
    verify_key_lemma,
)


def w(graph, text):
    return Word.parse(graph, text)


def cyc(graph, text):
    return CyclicWord(w(graph, text))


def to_tuples(word):
    return tuple((name, sign) for name, sign in word.letters())


def random_cyclic(rng, graph, max_len):
    """A random cyclically reduced word, by rejection."""
    while True:
        t = H.random_word(rng, graph.vertices, max_len)
        if not t:
            continue
        word = Word.from_letters(graph, t)
        red = cyclically_reduce(word)
        if len(red.core) > 0 and red.conjugator.is_identity and len(red.core) == len(
            normal_form(word)
        ):
            return CyclicWord(normal_form(word))


# -- single-word scanner ----------------------------------------------------


def test_max_overlap_known_values(edgeless2):
    assert max_inverse_overlap(cyc(edgeless2, "abAB"))[0] == 1
    assert max_inverse_overlap(cyc(edgeless2, "ab"))[0] == 0
    best, witness = max_inverse_overlap(cyc(edgeless2, "aabAAB"))
    assert best == 2
    assert witness is not None
    assert len(witness.u) == 2


def test_max_overlap_matches_naive(suite_graphs):
    rng = random.Random(0x0E)
    for graph in suite_graphs.values():
        for _ in range(40):
            cw = random_cyclic(rng, graph, 8)
            word_t = to_tuples(cw.canonical())
            for mode in ("disjoint", "any"):
                got, witness = max_inverse_overlap(cw, mode=mode)
                assert got == H.naive_max_cyclic_overlap(word_t, mode)
                if witness is not None:
                    check_witness(cw, witness, got, mode)


def check_witness(cw, witness, length, mode):
    rep = witness.representative.codes
    doubled = rep * 2
    n = len(rep)
    i, j = witness.pos_u, witness.pos_u_inv
    assert witness.u.codes == doubled[i : i + length]
    assert doubled[j : j + length] == bytes(c ^ 1 for c in reversed(witness.u.codes))
    if mode == "disjoint":
        assert (j - i) % n >= length and (i - j) % n >= length


def test_modes_are_ordered(p3):
    rng = random.Random(3)
    for _ in range(25):
        cw = random_cyclic(rng, p3, 8)
        assert (
            max_inverse_overlap(cw, mode="any")[0]
            >= max_inverse_overlap(cw, mode="disjoint")[0]
        )


def test_bad_mode_rejected(edgeless2):
    with pytest.raises(ValueError):
        max_inverse_overlap(cyc(edgeless2, "ab"), mode="overlapping")


# -- powers -----------------------------------------------------------------


def test_core_of_power_lengths(p3):
    g = w(p3, "Bab")  # conjugate; core is a
    for n in range(1, 5):
        assert len(core_of_power(g, n)) == n


def test_core_of_power_is_the_power(edgeless2):
    g = w(edgeless2, "ab")
    assert equal(core_of_power(g, 3).word, power(g, 3))


# -- verify_key_lemma -------------------------------------------------------


def test_verify_commutator_free_group(edgeless2):
    reports = verify_key_lemma(w(edgeless2, "abAB"), n_max=4)
    assert [r.n for r in reports] == [1, 2, 3, 4]
    for r in reports:
        assert r.ok
        assert not r.violated
        assert not r.cap_exceeded
        assert r.bound == Fraction(4 * r.n, 2 * r.n)  # always 2 here
        assert r.max_overlap_length <= 2
        assert r.representatives_checked >= 1


def test_verify_rejects_identity(p3):
    with pytest.raises(TrivialElement):
        verify_key_lemma(w(p3, "aA"))
    with pytest.raises(TrivialElement):
        verify_key_lemma(w(p3, "abAB"))  # a, b commute in P3: this IS trivial


def test_reps_cap_reported(p3):
    # the cap counts rotation classes: aabbcc has 10 at n = 1, so a cap of
    # five is hit at every power and must be reported
    reports = verify_key_lemma(w(p3, "aabbcc"), n_max=2, reps_cap=5)
    assert all(r.cap_exceeded for r in reports)
    assert all(r.representatives_checked == 5 for r in reports)
    assert all(not r.ok for r in reports)


def test_report_json_shape(edgeless2):
    r = verify_key_lemma(w(edgeless2, "abAB"), n_max=1)[0]
    d = r.to_json_dict()
    assert d["g"] == "abAB"
    assert d["n"] == 1
    assert d["bound"] == "2/1"
    assert d["mode"] == "disjoint"
    assert d["violated"] is False
    assert d["graph"]["vertices"] == ["a", "b"]


def test_closure_max_matches_brute_force(suite_graphs):
    """End-to-end: reported overlap equals the brute-force closure maximum."""
    rng = random.Random(0xC10)
    for name, graph in suite_graphs.items():
        names = graph.vertices
        edges = {tuple(e) for e in graph.edges}
        for _ in range(6):
            cw = random_cyclic(rng, graph, 5)
            reports = verify_key_lemma(cw.word, n_max=1)
            brute = H.cyclic_closure_max(names, edges, to_tuples(cw.canonical()))
            assert reports[0].max_overlap_length == brute


# vertex names of the ``suite_graphs`` fixture, so that words can be drawn
# before the fixture is available
_SUITE_LETTERS = {
    "edgeless2": "ab",
    "edgeless3": "abc",
    "p3": "abc",
    "c5": "abcde",
    "k3_pendant": "abcd",
}

_suite_words = st.sampled_from(sorted(_SUITE_LETTERS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.text(_SUITE_LETTERS[name] + _SUITE_LETTERS[name].upper(), min_size=1, max_size=6),
    )
)

# shorter words: a random graph may be complete, and then the closure of a
# power is every shuffle of it
_random_graph_words = H.random_graphs().flatmap(
    lambda graph: st.tuples(
        st.just(graph),
        st.text("".join(graph.vertices) + "".join(graph.vertices).upper(), min_size=1, max_size=4),
    )
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    case=st.one_of(_suite_words, _random_graph_words),
    n=st.sampled_from((1, 2)),
    mode=st.sampled_from(("disjoint", "any")),
)
# in c5 the only commuting pair of aceb is the wrap-around one (b, a)
@example(case=("c5", "aceb"), n=1, mode="disjoint")
def test_closure_classes_match_brute_force(suite_graphs, case, n, mode):
    """Maxima, class counts and witnesses against the brute-force closure.

    Words come from the suite graphs (``case`` names one) and from random
    graphs.  The package walks rotation classes with swaps of cyclically
    adjacent letters; the oracle walks every word with rotations and inner
    swaps.
    """
    source, text = case
    if isinstance(source, str):
        graph = suite_graphs[source]
        assert graph.vertices == tuple(_SUITE_LETTERS[source])
    else:
        graph = source
    core = cyclically_reduce(w(graph, text)).core
    assume(not core.is_identity)
    r = verify_key_lemma(core, n_max=n, mode=mode)[-1]
    # the core of a power of a cyclically reduced word is a shuffle of the
    # literal power, so both have the same closure
    power_t = to_tuples(core) * n
    names = graph.vertices
    edges = {tuple(e) for e in graph.edges}
    classes = H.cyclic_closure_classes(names, edges, power_t)
    assert r.representatives_checked == len(classes)
    assert r.max_overlap_length == H.cyclic_closure_max(names, edges, power_t, mode)
    assert not r.cap_exceeded
    if r.witness is not None:
        rep_t = to_tuples(r.witness.representative)
        assert min(rep_t[i:] + rep_t[:i] for i in range(len(rep_t))) in classes
        check_witness(None, r.witness, r.max_overlap_length, mode)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    source=st.one_of(st.sampled_from(sorted(_SUITE_LETTERS)), H.random_graphs()),
    seed=st.integers(0, 2**32 - 1),
    n_max=st.sampled_from((1, 2, 3)),
    mode=st.sampled_from(("disjoint", "any")),
    reps_cap=st.sampled_from((1, 2, 5, 200_000)),
)
# one walk per case of the integer-keyed lookup; counts are (put, on, wrap),
# lookups where the key letter r stays put, moves on (j = 0) or moves back
# across the wrap (j = n - 1), over n = 1, 2, 3 in turn.
# c5 aceb: r occurs n times; at n = 1 the start's one commuting pair is the
# wrap pair (b, a); (4, 4, 4), (53, 13, 14), (322, 50, 48)
@example(source="c5", seed=3813, n_max=3, mode="disjoint", reps_cap=200_000)
# c5 cdac: r = a commutes with no letter of the word; (4, 0, 0), (16, 0, 0), (44, 0, 0)
@example(source="c5", seed=7, n_max=3, mode="any", reps_cap=200_000)
# c5 AABe: r = B is not the least letter, so classes are queued by
# _least_rotation; (4, 2, 2), (65, 9, 14), (825, 78, 121)
@example(source="c5", seed=20, n_max=3, mode="any", reps_cap=200_000)
# p3 BBCAAC: r = A occurs twice at n = 1; (24, 4, 4)
@example(source="p3", seed=12, n_max=1, mode="any", reps_cap=200_000)
# k3_pendant BCDbcd: r = b is the least letter and occurs twice at n = 2, where
# the witness lies past the start class: its class is queued as the least key
@example(source="k3_pendant", seed=773, n_max=2, mode="disjoint", reps_cap=200_000)
# k3_pendant AAbb: r occurs 2, 4 and 6 times, and the cap stops each walk at 5 classes
@example(source="k3_pendant", seed=31, n_max=3, mode="disjoint", reps_cap=5)
def test_closure_walk_matches_least_rotation_walk(suite_graphs, source, seed, n_max, mode, reps_cap):
    """Whole reports against the walk that keys every class by its least rotation.

    The oracle canonicalises every neighbour and probes every class, so the
    maxima, witness bytes, class counts and ``cap_exceeded`` of capped and
    uncapped walks must all agree with it.  Word lengths keep the closures
    small: at most 12 letters in the largest power on the suite graphs,
    and 9 on random graphs, which may be complete.
    """
    if isinstance(source, str):
        graph, budget = suite_graphs[source], 12
    else:
        graph, budget = source, 9
    rng = random.Random(seed)
    length = min(6, budget // n_max)
    g = Word.from_letters(
        graph, [(rng.choice(graph.vertices), rng.choice((1, -1))) for _ in range(length)]
    )
    assume(not cyclically_reduce(g).core.is_identity)
    got = [r.to_json_dict() for r in verify_key_lemma(g, n_max, reps_cap, mode)]
    with mock.patch.object(overlap, "_closure_scan", H.closure_scan_by_least_rotation):
        expected = [r.to_json_dict() for r in verify_key_lemma(g, n_max, reps_cap, mode)]
    assert got == expected


@pytest.mark.parametrize(
    "text, witness",
    [
        # the witness class is found by swapping E, d at offsets 3, 4 of its
        # key rotation aCAEdCe; u = AE ends at offset 3, its inverse ea avoids both
        ("ECedaCA", "aCAEdCe"),
        # E, D swapped at offsets 1, 2 of aEDBdbd; u = DB begins at offset 2
        ("EaDBdbd", "aEDBdbd"),
        # the swap moved the key letter on (j = 0), so B, A sit at offsets 6, 0
        # of AdbDBdB; the pair's window dB ends at offset 6
        ("BdABdbD", "AdbDBdB"),
    ],
)
@pytest.mark.parametrize("mode", ["disjoint", "any"])
def test_near_windows_cover_both_swapped_letters(c5, text, witness, mode):
    """Whole reports against the least-rotation walk where one window alone finds u.

    A class is scanned in full only when a pair one longer than the best
    has its ``u`` window on a letter its swap moved.  Here the only such
    window covers one swapped letter alone, at an end of the window range.
    A class like that needs at least seven letters: u, the other swapped
    letter, ``u^-1``, and two letters between them that keep the word
    cyclically reduced.  The words of
    ``test_closure_walk_matches_least_rotation_walk`` have at most six
    letters at n = 1, and their powers hold no such class.
    """
    g = w(c5, text)
    got = [r.to_json_dict() for r in verify_key_lemma(g, 1, mode=mode)]
    with mock.patch.object(overlap, "_closure_scan", H.closure_scan_by_least_rotation):
        expected = [r.to_json_dict() for r in verify_key_lemma(g, 1, mode=mode)]
    assert got == expected
    assert got[0]["max_overlap_length"] == 2
    assert got[0]["witness"]["representative"] == witness


def test_closure_walk_builds_no_table_per_offset(edgeless2):
    """A 4,000-letter word is walked in memory linear in its length.

    A table of the n swap deltas, each up to n bytes, would take about 8 MB.
    """
    start = cyc(edgeless2, "a b^3999").canonical().codes
    tracemalloc.start()
    try:
        result = overlap._closure_scan(edgeless2, start, "disjoint", overlap.DEFAULT_REPS_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, None, 1, False)
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "graph_name, text, mode, classes, maximum, probed",
    [
        # no generator occurs with both signs: the walk only counts classes
        ("c5", "abcde", "disjoint", [11, 67, 462], 0, False),
        ("c5", "acBDea", "disjoint", [19, 193, 2356], 0, False),
        ("k3_pendant", "abdcBD", "disjoint", [10, 115, 1820], 1, True),
        ("k3_pendant", "abdcBD", "any", [10, 115, 1820], 1, True),
    ],
)
def test_fixed_closures(suite_graphs, graph_name, text, mode, classes, maximum, probed):
    """The benchmark's closures: class counts, maxima and which scans run."""
    probes = Counter()
    near = mock.Mock(wraps=overlap._pair_near)

    def counting(codes, *args):
        probes[codes] += 1
        return H.pair_at_by_window_dict(codes, *args)

    with mock.patch.object(overlap, "_pair_at", counting), mock.patch.object(
        overlap, "_pair_near", near
    ):
        reports = verify_key_lemma(w(suite_graphs[graph_name], text), n_max=3, mode=mode)
    assert [r.representatives_checked for r in reports] == classes
    assert [r.max_overlap_length for r in reports] == [maximum] * 3
    assert not any(r.cap_exceeded or r.violated for r in reports)
    assert all((r.witness is not None) == (maximum > 0) for r in reports)
    # the full scanner reads each power's start alone: no swap here can
    # lengthen an overlap, and a counting walk scans nothing else; a probing
    # walk tries the swapped windows of every other class once (1,942 times)
    assert len(probes) == 3
    assert near.call_count == (sum(classes) - 3 if probed else 0)


@pytest.mark.parametrize(
    "text, caps",
    [("acBDea", (overlap.DEFAULT_REPS_CAP,)), ("AABe", (1, 2, 5, overlap.DEFAULT_REPS_CAP))],
)
def test_counting_walks_canonicalise_nothing(c5, text, caps):
    """A walk with no generator of both signs keeps no least rotations.

    Its report does not depend on the queue order, so it queues each class
    at the key rotation it already holds.  In both words the key letter B
    is not the least letter, so a probing walk would call
    ``_least_rotation``.
    Class counts and ``cap_exceeded`` still match the least-rotation walk.
    """
    g = w(c5, text)
    starts = Counter(core_of_power(g, n).canonical().codes for n in (1, 2, 3))
    for cap in caps:
        for mode in ("disjoint", "any"):
            pair_at = mock.Mock(wraps=overlap._pair_at)
            least = mock.Mock(wraps=overlap._least_rotation)
            with mock.patch.object(overlap, "_pair_at", pair_at), mock.patch.object(
                overlap, "_least_rotation", least
            ):
                got = verify_key_lemma(g, 3, cap, mode)
            with mock.patch.object(overlap, "_closure_scan", H.closure_scan_by_least_rotation):
                expected = verify_key_lemma(g, 3, cap, mode)
            assert least.call_count == 0
            assert Counter(call.args[0] for call in pair_at.call_args_list) == starts
            assert [(r.representatives_checked, r.cap_exceeded) for r in got] == [
                (r.representatives_checked, r.cap_exceeded) for r in expected
            ]
            assert all(r.max_overlap_length == 0 and r.witness is None for r in got)


# -- projection certificates ------------------------------------------------


def test_projection_bound_free_commutator(edgeless2):
    bound, partition = projection_overlap_bound(cyc(edgeless2, "abAB"))
    assert bound >= 1
    flat = [v for cls in partition for v in cls]
    assert sorted(flat) == ["a", "b"]
    for cls in partition:
        for x in cls:
            for y in cls:
                if x != y:
                    assert not edgeless2.adjacent(x, y)


def test_projection_bound_dominates_closure(suite_graphs):
    rng = random.Random(0xB0)
    for graph in suite_graphs.values():
        names = graph.vertices
        edges = {tuple(e) for e in graph.edges}
        for _ in range(5):
            cw = random_cyclic(rng, graph, 5)
            for mode in ("disjoint", "any"):
                bound, _ = projection_overlap_bound(cw, mode=mode)
                brute = H.cyclic_closure_max(names, edges, to_tuples(cw.canonical()), mode=mode)
                assert bound >= brute


def test_projection_bound_colors_large_supports(grotzsch):
    """Supports of 6 to 8 generators: classes from a coloring, or singletons."""
    rng = random.Random(0x6207)
    sizes = Counter()
    while min(sizes[n] for n in (6, 7, 8)) < 4:
        cw = random_cyclic(rng, grotzsch, 14)
        support = {name for name, _ in to_tuples(cw.canonical())}
        if not 6 <= len(support) <= 8:
            continue
        sizes[len(support)] += 1
        for mode in ("disjoint", "any"):
            bound, partition = projection_overlap_bound(cw, mode=mode)
            flat = [v for cls in partition for v in cls]
            assert sorted(flat) == sorted(support)
            for cls in partition:
                for x in cls:
                    for y in cls:
                        assert x == y or not grotzsch.adjacent(x, y)
            assert bound >= max_inverse_overlap(cw, mode=mode)[0]
    # in any mode the six singletons give 2 here, the coloring's classes 3
    cw = cyc(grotzsch, "v3 v4 u3^-1 u1^-1 u4 u1 u3 z")
    bound, partition = projection_overlap_bound(cw, mode="any")
    assert (bound, len(partition)) == (2, 6)


def _projection_sample(graph, seed, size, n):
    """The core of ``g**n`` for a random ``g`` over ``size`` generators, or None.

    Every chosen generator occurs in ``g``, so the support has ``size``
    generators unless cancellation removes some.
    """
    rng = random.Random(seed)
    gens = rng.sample(graph.vertices, min(size, len(graph.vertices)))
    letters = [(v, rng.choice((1, -1))) for v in gens]
    letters += [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))]
    rng.shuffle(letters)
    g = Word.from_letters(graph, letters)
    return None if cyclically_reduce(g).core.is_identity else core_of_power(g, n)


def test_projection_bound_matches_name_candidates(suite_graphs, grotzsch):
    """Bounds and certificates against the candidate lists built on names.

    The oracle tries singletons, then a chromatic coloring's classes, then
    (up to 5 generators) every partition into independent sets; the package
    walks singletons and then either every partition or the coloring.  The
    bounds must agree.  The partitions agree too, except where the oracle's
    coloring ties with a partition that the walk reaches first.
    """
    graphs = dict(suite_graphs, grotzsch=grotzsch, edgeless8=DefiningGraph(list("abcdefgh"), []))
    seen = Counter()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(("p3", "c5", "k3_pendant", "edgeless8", "grotzsch")),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 8),
        n=st.sampled_from((1, 2, 3)),
        mode=st.sampled_from(("disjoint", "any")),
    )
    # three of the rare ties: the coloring {v2, z}, {u2, u4} against the walk's
    # {v2, u2, u4}, {z}; {v3, z}, {u3, u4} against {v3, u3}, {u4}, {z}; and
    # {v2, z}, {u0, u2, u4} against {v2, u0, u2, u4}, {z}
    @example(name="grotzsch", seed=100, size=4, n=1, mode="disjoint")
    @example(name="grotzsch", seed=228, size=4, n=1, mode="any")
    @example(name="grotzsch", seed=271, size=5, n=1, mode="disjoint")
    def check(name, seed, size, n, mode):
        graph = graphs[name]
        cw = _projection_sample(graph, seed, size, n)
        assume(cw is not None)
        codes = cw.canonical().codes
        gens = {c >> 1 for c in codes}
        support = tuple(v for i, v in enumerate(graph.vertices) if i in gens)
        bound, partition = projection_overlap_bound(cw, mode)
        expected_bound, expected = H.projection_bound_by_names(cw, mode)
        assert bound == expected_bound
        assert sorted(v for cls in partition for v in cls) == sorted(support)
        firsts = [graph.index[cls[0]] for cls in partition]
        assert firsts == sorted(firsts)
        total = 0
        for cls in partition:
            assert list(cls) == sorted(cls, key=graph.index.get)
            assert not any(graph.adjacent(a, b) for a in cls for b in cls if a != b)
            members = {graph.index[v] for v in cls}
            total += overlap._raw_max_overlap(bytes(c for c in codes if c >> 1 in members), mode)[0]
        assert total == bound
        if partition != expected:
            # a tie: the oracle's second candidate, its coloring, reached the
            # bound before the walk's first partition that does
            candidates = H.projection_candidates_by_names(graph, support)
            assert len(support) <= 5 and expected == candidates[1] and partition in candidates
            seen.update(ties=1)
        seen.update([len(support)])

    check()
    assert seen["ties"] >= 2 and all(seen[k] >= 3 for k in range(1, 9)), seen


def test_projection_colors_only_large_supports(suite_graphs, grotzsch):
    """Up to 5 generators no subgraph is built and no coloring is searched."""
    rng = random.Random(0x5AB)
    large = 0
    for graph in (*suite_graphs.values(), grotzsch):
        for _ in range(20):
            cw = random_cyclic(rng, graph, 12)
            support = {c >> 1 for c in cw.canonical().codes}
            with mock.patch.object(
                overlap, "chromatic_number", wraps=overlap.chromatic_number
            ) as coloring, mock.patch.object(
                overlap, "DefiningGraph", wraps=overlap.DefiningGraph
            ) as subgraph:
                got = projection_overlap_bound(cw, "any")
            assert got[0] == H.projection_bound_by_names(cw, "any")[0]
            called = len(support) > 5
            assert (coloring.call_count, subgraph.call_count) == (called, called)
            large += called
    assert large >= 3


def test_projection_scans_each_class_once(c5, grotzsch):
    """A class shared by several candidate partitions is scanned once per call."""
    rng = random.Random(0xC1A55)
    raw = overlap._raw_max_overlap
    for graph in (c5, grotzsch):
        for _ in range(20):
            cw = random_cyclic(rng, graph, 12)
            scans = Counter()

            def counting(codes, *args):
                scans[codes] += 1
                return raw(codes, *args)

            with mock.patch.object(overlap, "_raw_max_overlap", counting):
                projection_overlap_bound(cw)
            assert scans and max(scans.values()) == 1


# -- axis-reversal search ---------------------------------------------------


def test_noov_search_free_group(edgeless2):
    report = search_prop_noov_violation(w(edgeless2, "ab"), radius=2, samples=40)
    assert report.ok
    assert report.pairs_checked > 0
    assert report.premise_failures == 0
    assert report.violations == []
    d = report.to_json_dict()
    assert d["ok"] is True and d["g"] == "ab"


def test_noov_search_with_commutation(p3):
    report = search_prop_noov_violation(w(p3, "ac"), radius=2, samples=30)
    assert report.ok
    assert report.pairs_checked > 0


def test_noov_search_requires_cyclically_reduced(p3):
    from raagkit import NotCyclicallyReduced

    with pytest.raises(NotCyclicallyReduced):
        search_prop_noov_violation(w(p3, "Aca"))
