"""Word arithmetic: reduction, normal forms, equality, cyclic words.

The load-bearing checks compare against the elementary-moves oracle in
helpers.py, which knows nothing about normal-form theory — it just applies
the defining relations until the closure stabilizes.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers as H
from raagkit import (
    CyclicWord,
    DefiningGraph,
    EmptyWord,
    GraphMismatch,
    NotCyclicallyReduced,
    NotReduced,
    RaagError,
    UnknownGenerator,
    Word,
    WordSyntaxError,
    cyclically_reduce,
    equal,
    exponent_vector,
    inverse,
    is_cyclically_reduced,
    is_reduced,
    median,
    normal_form,
    power,
    reduce,
)
from raagkit.words import _inv_codes, _nf_of, _reduce_codes, _strip_suffix_in


def w(graph, text):
    return Word.parse(graph, text)


def to_tuples(word):
    return tuple((name, sign) for name, sign in word.letters())


# -- parsing ----------------------------------------------------------------


def test_parse_compact_and_tokens(p3):
    assert to_tuples(w(p3, "abA")) == (("a", 1), ("b", 1), ("a", -1))
    assert to_tuples(w(p3, "a b^-1 a^2")) == (
        ("a", 1),
        ("b", -1),
        ("a", 1),
        ("a", 1),
    )
    assert w(p3, "1").is_identity
    assert w(p3, "").is_identity
    assert w(p3, "a^0").is_identity


def test_parse_rejects(p3):
    with pytest.raises(UnknownGenerator):
        w(p3, "axb")
    with pytest.raises(UnknownGenerator):
        w(p3, "q^2")
    with pytest.raises(WordSyntaxError):
        w(p3, "a^^2")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("axb", UnknownGenerator, "unknown generator 'x' in 'axb'"),
        ("aXb", UnknownGenerator, "unknown generator 'X' in 'aXb'"),
        ("AQ", UnknownGenerator, "unknown generator 'Q' in 'AQ'"),
        ("q^2", UnknownGenerator, "unknown generator 'q' in token 'q^2'"),
        ("a q", UnknownGenerator, "unknown generator 'q' in token 'q'"),
        ("ab1", UnknownGenerator, "unknown generator 'ab1' in token 'ab1'"),
        ("a^^2", WordSyntaxError, "malformed token 'a^^2'"),
        ("a 2b", WordSyntaxError, "malformed token '2b'"),
        ("a b^-x", WordSyntaxError, "malformed token 'b^-x'"),
    ],
)
def test_parse_error_messages(p3, text, error, message):
    with pytest.raises(error) as info:
        w(p3, text)
    assert str(info.value) == message


#: ``a`` and ``A`` are both vertices, so ``A`` is not the inverse of ``a``
MIXED_CASE = DefiningGraph(["a", "A", "b", "C"], [("a", "A"), ("b", "C")])
#: multi-character names beside one-character ones, ``ab`` among them
MULTI_CHAR = DefiningGraph(["a", "b", "ab", "v0", "u3", "x_1"], [("a", "v0"), ("ab", "u3")])


_SPACE = st.text(st.sampled_from(" \t\n\u00a0"), max_size=2)


@st.composite
def graphs_and_word_texts(draw):
    """A graph and a compact run or a token list over it, padded by mixed whitespace."""
    graph = draw(st.one_of(H.random_graphs(), st.sampled_from([MIXED_CASE, MULTI_CHAR])))
    names = list(graph.vertices)
    if draw(st.booleans()):
        chars = [v for v in names if len(v) == 1]
        chars += [v.swapcase() for v in chars] + ["q", "Z", "\u00e9", "\u212a", "1"]
        body = "".join(draw(st.lists(st.sampled_from(chars), max_size=8)))
    else:
        name = st.sampled_from(names)
        token = st.one_of(
            name,
            name.map(lambda v: v + "^-1"),
            st.tuples(name, st.integers(-3, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        )
        if draw(st.booleans()):  # else every token names a vertex
            bad = ["q", "zz", "a1", "a^^2", "2b", "b^-x", "a^", "^1", "a^+1", "a-1"]
            token = st.one_of(token, st.sampled_from(bad))
        tokens = draw(st.lists(st.tuples(token, _SPACE), max_size=6))
        body = "".join(tok + (sep or " ") for tok, sep in tokens)
    return graph, draw(_SPACE) + body + draw(_SPACE)


def test_parse_matches_regex_tokens():
    """Table lookups give the old parser's codes, or its error class and message.

    The oracle is ``helpers.parse_by_regex_tokens``.  Texts are compact runs
    over the graph's one-character names, their other cases and unknown
    characters, or token lists of ``name``, ``name^-1``, ``name^k`` for
    ``-3 <= k <= 3``, unknown names and malformed tokens.  The examples pin
    the two cases a table gets wrong most easily: an upper case that is a
    vertex itself, and ``name^1``.
    """

    def outcome(parse, graph, text):
        try:
            return parse(graph, text)
        except RaagError as exc:
            return type(exc), str(exc)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(case=graphs_and_word_texts())
    @example(case=(MIXED_CASE, "aAbBC"))
    @example(case=(MULTI_CHAR, "ab^1 a^-1 u3^1"))
    def check(case):
        graph, text = case
        expected = outcome(H.parse_by_regex_tokens, graph, text)
        assert outcome(lambda g, t: Word.parse(g, t).codes, graph, text) == expected

    check()


def test_parse_rejects_oversized_exponents(p3):
    """An exponent too large to expand is a syntax error naming its token."""
    for tok in ("a^100000000000000000000", "b^-9223372036854775808", "c^" + "7" * 5000):
        with pytest.raises(WordSyntaxError) as info:
            w(p3, f"a {tok} b")
        assert str(info.value) == f"exponent too large to expand in token {tok!r}"


def test_word_rejects_out_of_range_codes(p3):
    # p3 has letter codes 0..5
    with pytest.raises(UnknownGenerator):
        Word(p3, bytes([6]))
    assert Word(DefiningGraph([], []), b"").is_identity


def test_display_round_trip(p3):
    for text in ("1", "abA", "aBc"):
        word = w(p3, text)
        assert w(p3, word.display()) == word


def test_operators_are_literal(p3):
    word = w(p3, "aA")
    assert len(word) == 2  # no silent reduction
    assert len(word * word) == 4
    assert (~w(p3, "ab")).display() == "BA"
    assert (w(p3, "ab") ** 3).display() == "ababab"
    assert (w(p3, "ab") ** -2).display() == "BABA"


def test_graph_mismatch(p3, c4):
    with pytest.raises(GraphMismatch):
        w(p3, "a") * w(c4, "a")


# -- reduction and normal form ---------------------------------------------


def test_reduce_needs_commutation(p3):
    # In P3 the letters a,c do not commute, so aCcA must cancel through.
    assert reduce(w(p3, "aCcA")).is_identity
    # b commutes with both ends: bAaB reduces via the relation.
    assert reduce(w(p3, "bAaB")).is_identity
    # Free pair a,c in P3: acA does not reduce.
    assert len(reduce(w(p3, "acA"))) == 3


def test_normal_form_examples(p3):
    # b < a in graph order? No: order is a, b, c — the least movable letter
    # moves first.  ba has b movable past a; normal form sorts to ab.
    assert normal_form(w(p3, "ba")).display() == "ab"
    assert normal_form(w(p3, "cb")).display() == "bc"
    assert normal_form(w(p3, "ca")).display() == "ca"  # a, c do not commute


def test_is_reduced_flags(p3):
    assert is_reduced(w(p3, "ab"))
    assert not is_reduced(w(p3, "aA"))
    assert not is_reduced(w(p3, "bAaB"))  # hidden cancellation


@pytest.mark.parametrize("gname", ["edgeless2", "p3", "c4", "k3_pendant"])
def test_normal_form_against_moves_oracle(gname, four_gen_graphs):
    """Oracle agreement: same group element, geodesic, least in letter-code order."""
    graph = four_gen_graphs[gname]
    names = graph.vertices
    edges = {tuple(e) for e in graph.edges}
    rng = random.Random(hash(gname) & 0xFFFF)
    for _ in range(150):
        t = H.random_word(rng, names, 8)
        word = Word.from_letters(graph, t)
        nf = normal_form(word)
        canon = H.oracle_canonical(names, edges, t)
        # same length and same group element
        assert len(nf) == len(canon)
        assert H.oracle_canonical(names, edges, to_tuples(nf)) == canon
        # least of the element's geodesic spellings by letter code, which
        # orders letters as (vertex, sign) with the generator first
        geodesics = [
            Word.from_letters(graph, u).codes
            for u in H.moves_closure(names, edges, t)
            if len(u) == len(canon)
        ]
        assert nf.codes == min(geodesics)


def test_equal_matches_oracle(p3):
    names, edges = p3.vertices, {tuple(e) for e in p3.edges}
    rng = random.Random(11)
    words = [H.random_word(rng, names, 6) for _ in range(40)]
    for x in words[:20]:
        for y in words[20:]:
            lhs = equal(Word.from_letters(p3, x), Word.from_letters(p3, y))
            rhs = H.oracle_canonical(names, edges, x) == H.oracle_canonical(
                names, edges, y
            )
            assert lhs == rhs


def test_power_and_inverse_consistency(c4):
    word = w(c4, "abC")
    assert reduce(word * inverse(word)).is_identity
    assert equal(power(word, 3), word * word * word)
    assert equal(inverse(power(word, 2)), power(inverse(word), 2))


def test_exponent_vector(p3):
    assert exponent_vector(w(p3, "abAc")) == {"a": 0, "b": 1, "c": 1}
    assert exponent_vector(w(p3, "1")) == {"a": 0, "b": 0, "c": 0}


# -- cyclic reduction -------------------------------------------------------


def test_cyclic_reduction_basic(p3):
    red = cyclically_reduce(w(p3, "aba" + "A"))  # abaA reduces then strips
    # abaA -> ab (plain reduction); ab is already cyclically reduced
    assert red.core.display() == "ab"
    assert red.conjugator.is_identity


def test_cyclic_reduction_strips_conjugation(p3):
    red = cyclically_reduce(w(p3, "Bab"))
    assert red.core.display() == "a"
    # core is conjugator^-1 * word * conjugator
    got = reduce(red.conjugator * red.core * inverse(red.conjugator))
    assert equal(got, w(p3, "Bab"))


def test_cyclic_reduction_through_commutation(p3):
    # In cabC the trailing C must commute past b before it can cancel c.
    word = w(p3, "cabC")
    red = cyclically_reduce(word)
    assert red.core.display() == "ab"
    got = reduce(red.conjugator * red.core * inverse(red.conjugator))
    assert equal(got, word)


def test_is_cyclically_reduced(p3):
    assert is_cyclically_reduced(w(p3, "ab"))
    assert not is_cyclically_reduced(w(p3, "Bab"))
    assert is_cyclically_reduced(w(p3, "1"))


def test_cyclic_reduction_minimality_random(four_gen_graphs):
    """The core must be the shortest element of its conjugacy class.

    Brute-checked by conjugating the core by every ball-2 element and
    reducing; nothing shorter may appear.
    """
    rng = random.Random(23)
    for graph in four_gen_graphs.values():
        names = graph.vertices
        ball2 = []
        letters = [Word.from_letters(graph, [(n, s)]) for n in names for s in (1, -1)]
        ball2.extend(letters)
        for x in letters:
            for y in letters:
                ball2.append(x * y)
        for _ in range(25):
            word = Word.from_letters(graph, H.random_word(rng, names, 7))
            core = cyclically_reduce(word).core
            for u in ball2:
                conj = reduce(u * core * inverse(u))
                cc = cyclically_reduce(conj).core
                assert len(cc) >= len(core)


def test_strip_suffix_matches_restarting_strip():
    """One pass from the right deletes what the restarting greedy strip deletes.

    Checked on reduced and unreduced words against ``helpers.py``.
    """

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), data=st.data())
    def check(graph, data):
        codes = bytes(
            data.draw(st.lists(st.integers(0, graph.letter_count - 1), max_size=10))
        )
        mask = data.draw(st.integers(0, (1 << len(graph.vertices)) - 1))
        for word in (codes, normal_form(Word(graph, codes)).codes):
            assert _strip_suffix_in(graph, word, mask) == H.strip_suffix_by_restarts(
                graph, word, mask
            )

    check()


def test_normal_form_matches_greedy_scan():
    """The insertion pass gives the greedy scan's normal form; ``equal`` agrees.

    The oracle is ``helpers.normal_form_by_greedy_scan`` of the reduced word.
    Half the words end in a shuffled inverse of one of their prefixes, so
    that cancellations reach deep into the word.  The second word of each
    ``equal`` check is either drawn the same way or the first word's oracle
    normal form with a cancelling pair inserted, an equal word.
    """

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), data=st.data())
    def check(graph, data):
        letters = st.integers(0, graph.letter_count - 1)

        def draw_word():
            codes = data.draw(st.lists(letters, max_size=40))
            if data.draw(st.booleans()):
                prefix = bytes(codes[: data.draw(st.integers(0, len(codes)))])
                codes += data.draw(st.permutations(list(_inv_codes(prefix))))
            return bytes(codes)

        def oracle(codes):
            return H.normal_form_by_greedy_scan(graph, _reduce_codes(graph, codes))

        x = draw_word()
        nf = oracle(x)
        assert _nf_of(graph, x) == nf
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(nf)))
            c = data.draw(letters)
            y = nf[:at] + bytes([c, c ^ 1]) + nf[at:]
        else:
            y = draw_word()
        assert equal(Word(graph, x), Word(graph, y)) == (nf == oracle(y))

    check()


def test_meet_matches_stripping_oracles():
    """Cyclic reduction and medians through ``words._meet``, against ``helpers.py``.

    The oracles are the strip loop ``helpers.cyclic_reduction_by_stripping``
    and the median loop ``helpers.median_by_front_letters``.  Half the words
    are ``p c p^-1`` with a long ``p``, since only about a quarter of random
    words have a nonempty conjugator; ``y`` and ``z`` extend ``x`` by a common
    stretch in two spellings, so that the meets are not all empty.
    """
    seen = Counter()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), data=st.data())
    def check(graph, data):
        letters = st.integers(0, graph.letter_count - 1)

        def draw_codes(max_size):
            return bytes(data.draw(st.lists(letters, max_size=max_size)))

        codes = draw_codes(12)
        if data.draw(st.booleans()):
            p = bytes(data.draw(st.lists(letters, min_size=4, max_size=20)))
            codes = p + codes + _inv_codes(p)
        core, conj = H.cyclic_reduction_by_stripping(graph, codes)
        red = cyclically_reduce(Word(graph, codes))
        assert (red.core.codes, red.conjugator.codes) == (_nf_of(graph, core), conj)
        for word in (Word(graph, codes), Word(graph, _reduce_codes(graph, codes))):
            stripped = not H.cyclic_reduction_by_stripping(graph, word.codes)[1]
            assert is_cyclically_reduced(word) == (is_reduced(word) and stripped)
            if word.is_identity:
                continue
            if not is_reduced(word) or not stripped:
                error = NotCyclicallyReduced if is_reduced(word) else NotReduced
                with pytest.raises(error):
                    CyclicWord(word)
            else:
                CyclicWord(word)
        seen.update(conjugated=len(conj) > 0)

        x, common = draw_codes(8), draw_codes(9)
        y = x + common + draw_codes(8)
        z = x + bytes(data.draw(st.permutations(list(common)))) + draw_codes(8)
        got = median(Word(graph, x), Word(graph, y), Word(graph, z)).codes
        assert got == H.median_by_front_letters(graph, x, y, z)
        seen.update(met=got != _nf_of(graph, x))

    check()
    assert seen["conjugated"] >= 60 and seen["met"] >= 150, seen


# -- CyclicWord -------------------------------------------------------------


def test_cyclic_word_rotation_identity(p3):
    u = CyclicWord(w(p3, "abc"))
    v = CyclicWord(w(p3, "cab"))
    assert u == v
    assert hash(u) == hash(v)
    assert u.canonical().display() == "abc"


def test_cyclic_word_validation(p3):
    with pytest.raises(EmptyWord):
        CyclicWord(w(p3, "1"))
    with pytest.raises(NotCyclicallyReduced):
        CyclicWord(w(p3, "Aca"))
    with pytest.raises(Exception):
        CyclicWord(w(p3, "aA"))


def test_cyclic_word_rotations(p3):
    u = CyclicWord(w(p3, "abc"))
    shown = {r.display() for r in u.rotations()}
    assert shown == {"abc", "bca", "cab"}
