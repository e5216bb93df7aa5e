"""Half-spaces, intervals, chains, medians, and the global relations.

Oracle strategy: context relations (read off the heap poset of the
interval's normal form) and global relations (read off one reduction between
the bases) are two independent code paths that must agree whenever both
half-spaces separate a common pair of vertices.  Over random graphs, the
context relations are also checked, in both orientations, against a hull
oracle that uses no poset: the interval's vertices are the ball vertices on
a geodesic, found by distance sums, and relations come from counting
quadrants of ``member`` over them.  The global relations and ``member``
are checked, again over random graphs, against the distance and interval
formulation in ``helpers.py``, longest chains against an enumeration of
nested runs, and the no-overlap search against one interval per element.
The axiom and no-overlap searches, which keep walls at raw coset bases, are
checked against their canonical forms, which translate through ``act``.
The longest-chain audit, which reads heap positions, is checked against
its form that built an interval per sample, and ``ball`` against
breadth-first distances keyed by elementary-moves canonicals.
``in_a_g_plus`` is checked against its definition with a large explicit
power and against the power-window probes it replaced.  Distances fall out
of normal forms, which test_words.py pins to the elementary-moves oracle.
"""

import gc
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers as H
from raagkit import (
    BadParameter,
    ChainTooShort,
    DefiningGraph,
    GraphMismatch,
    NotInContext,
    NotNested,
    UnknownGenerator,
    Word,
    WordSyntaxError,
    act,
    all_longest_chains,
    ball,
    check_max_chains,
    check_special_axioms,
    crosses,
    cube,
    cyclically_reduce,
    halfspace_of_edge,
    hyperplanes_cross,
    in_a_g_plus,
    interval,
    longest_chain,
    median,
    member,
    midpoint,
    nested,
    nested_globally,
    normal_form,
    power,
    reduce,
    search_prop_noov_violation,
    tightly_nested,
    tightly_nested_globally,
)


F2 = DefiningGraph(["a", "b"], [])


def w(graph, text):
    return Word.parse(graph, text)


def distance(x, y):
    from raagkit import inverse, reduce

    return len(reduce(inverse(x) * y))


# -- half-spaces ------------------------------------------------------------


def test_halfspace_canonical_base(edgeless2, p3):
    h = halfspace_of_edge(w(edgeless2, "a"), ("b", 1))
    assert h.base.display() == "a"
    assert h.label == "b"
    assert h.sign == 1
    # In P3 the base is reduced modulo the label's link: b commutes with a.
    h2 = halfspace_of_edge(w(p3, "b"), ("a", 1))
    assert h2.base.is_identity
    # Negative letters flip the orientation and shift the base.
    h3 = halfspace_of_edge(w(edgeless2, "a"), ("a", -1))
    assert h3.sign == -1
    assert h3.base.is_identity


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph=H.random_graphs(), data=st.data())
def test_canon_base_matches_strip_then_normal_form(graph, data):
    """Stripping the normal form gives the normal form of the stripped reduced word.

    The oracle reduces, strips and then normalises, with the restarting strip
    and the greedy normal-form scan of ``helpers.py``.
    """
    codes = bytes(data.draw(st.lists(st.integers(0, graph.letter_count - 1), max_size=16)))
    gen = data.draw(st.integers(0, len(graph.vertices) - 1))
    reduced = reduce(Word(graph, codes)).codes
    stripped = H.strip_suffix_by_restarts(graph, reduced, graph._lk_mask[gen])
    assert cube._canon_base(graph, codes, gen) == H.normal_form_by_greedy_scan(graph, stripped)


def test_halfspace_of_edge_letter_errors(p3):
    """A bad letter fails as when building a word from it."""
    x = w(p3, "b")
    with pytest.raises(WordSyntaxError, match=r"^letter sign must be \+1 or -1, got 2$"):
        halfspace_of_edge(x, ("a", 2))
    with pytest.raises(UnknownGenerator, match=r"^unknown generator 'z'$"):
        halfspace_of_edge(x, ("z", 1))
    with pytest.raises(UnknownGenerator, match=r"^expected a single letter, got 'ab'$"):
        halfspace_of_edge(x, "ab")
    for letter in (7, (["a"], 1), ("a",)):
        with pytest.raises(WordSyntaxError, match=r"^letters must be \(name, sign\) pairs$"):
            halfspace_of_edge(x, letter)
    assert halfspace_of_edge(x, ("a", -1)) == halfspace_of_edge(x, "A")


@pytest.mark.parametrize(
    "entry",
    [
        "member",
        "act",
        "interval",
        "median",
        "hyperplanes_cross",
        "nested_globally",
        "tightly_nested_globally",
        "in_a_g_plus",
    ],
)
def test_cube_entry_points_reject_mixed_graphs(entry, p3, c4):
    """Each entry point takes its operands over one graph; both graphs here have a vertex 'a'."""
    x, y = w(p3, "a"), w(c4, "a")
    h, k = halfspace_of_edge(x, "a"), halfspace_of_edge(y, "a")
    calls = {
        "member": lambda: member(y, h),
        "act": lambda: act(y, h),
        "interval": lambda: interval(x, y),
        "median": lambda: median(x, x, y),
        "hyperplanes_cross": lambda: hyperplanes_cross(h, k),
        "nested_globally": lambda: nested_globally(h, k),
        "tightly_nested_globally": lambda: tightly_nested_globally(h, k),
        "in_a_g_plus": lambda: in_a_g_plus(y, h),
    }
    with pytest.raises(GraphMismatch, match=r"^operands live over different defining graphs$"):
        calls[entry]()


def test_same_wall_both_orientations(edgeless2):
    h = halfspace_of_edge(w(edgeless2, "1"), ("a", 1))
    k = h.complement()
    assert h != k
    assert h.wall_key() == k.wall_key()
    assert k.complement() == h
    assert h.display() == "(1, a, +)"
    assert k.display() == "(1, a, -)"


def test_edges_on_same_hyperplane_share_halfspace(p3):
    # a-b commute in P3: the edges (1, a) and (b, ba) are dual to one wall.
    h1 = halfspace_of_edge(w(p3, "1"), ("a", 1))
    h2 = halfspace_of_edge(w(p3, "b"), ("a", 1))
    assert h1 == h2
    # whereas c does not commute with a
    h3 = halfspace_of_edge(w(p3, "c"), ("a", 1))
    assert h1 != h3


def test_member_basic(edgeless2):
    h = halfspace_of_edge(w(edgeless2, "1"), ("a", 1))
    assert member(w(edgeless2, "a"), h)
    assert member(w(edgeless2, "ab"), h)
    assert not member(w(edgeless2, "1"), h)
    assert not member(w(edgeless2, "b"), h)
    assert not member(w(edgeless2, "A"), h)
    # complement is the exact set complement
    hc = h.complement()
    for text in ("1", "a", "b", "A", "ab", "ba"):
        x = w(edgeless2, text)
        assert member(x, h) != member(x, hc)


def test_defining_edge_straddles(four_gen_graphs):
    rng = random.Random(5)
    for graph in four_gen_graphs.values():
        verts = ball(graph, 2)
        for _ in range(30):
            x = rng.choice(verts)
            name = rng.choice(graph.vertices)
            sign = rng.choice((1, -1))
            h = halfspace_of_edge(x, (name, sign))
            y = normal_form(x * Word.from_letters(graph, [(name, sign)]))
            assert not member(x, h)
            assert member(y, h)
            assert distance(x, y) == 1


def test_act_equivariance(four_gen_graphs):
    rng = random.Random(6)
    for graph in four_gen_graphs.values():
        verts = ball(graph, 2)
        for _ in range(40):
            x, f = rng.choice(verts), rng.choice(verts)
            h = halfspace_of_edge(
                rng.choice(verts), (rng.choice(graph.vertices), rng.choice((1, -1)))
            )
            assert member(normal_form(f * x), act(f, h)) == member(x, h)
        # action is a homomorphism on a spot check
        f, g_ = verts[1], verts[-1]
        h = halfspace_of_edge(verts[2], (graph.vertices[0], 1))
        assert act(f, act(g_, h)) == act(normal_form(f * g_), h)


# -- intervals --------------------------------------------------------------


def test_interval_lists_separators_in_order(edgeless2):
    ctx = interval(w(edgeless2, "1"), w(edgeless2, "abA"))
    assert len(ctx) == 3
    shown = [h.display() for h in ctx]
    assert shown == ["(1, a, +)", "(a, b, +)", "(a, b, -)"][:2] + [shown[2]]
    # start is outside every half-space, end inside every one
    for h in ctx:
        assert not member(ctx.start, h)
        assert member(ctx.end, h)


def _hull_oracle(x, y, pool):
    """The vertices of ``[x, y]``: members of ``pool`` on an x-y geodesic."""
    d = distance(x, y)
    return [v for v in pool if distance(x, v) + distance(v, y) == d]


def _oracle_relations(oriented, hull):
    """Crossing, nesting and tight nesting from ``member`` over the hull."""
    bits = [sum(1 << n for n, v in enumerate(hull) if member(v, h)) for h in oriented]
    full = (1 << len(hull)) - 1

    def quadrants(a, b):
        """Hull vertices in each quadrant, keyed by (in a, in b)."""
        ma, mb = bits[a], bits[b]
        return {
            (True, True): ma & mb, (True, False): ma & ~mb,
            (False, True): ~ma & mb, (False, False): full & ~(ma | mb),
        }

    def crosses_oracle(a, b):
        same_wall = oriented[a].wall_key() == oriented[b].wall_key()
        return not same_wall and all(quadrants(a, b).values())

    def nested_oracle(a, b):
        if oriented[a].wall_key() == oriented[b].wall_key():
            return None
        quads = quadrants(a, b)
        if all(quads.values()):
            return None
        if not quads[(False, True)] and quads[(True, False)]:
            return 1
        if not quads[(True, False)] and quads[(False, True)]:
            return -1
        return None

    def tight_oracle(a, b):
        direction = nested_oracle(a, b)
        if direction is None:
            return False
        outer, inner = (a, b) if direction == 1 else (b, a)
        return not any(
            nested_oracle(outer, c) == 1 and nested_oracle(c, inner) == 1
            for c in range(len(oriented))
            if c not in (outer, inner)
        )

    return crosses_oracle, nested_oracle, tight_oracle


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    graph=H.random_graphs().filter(lambda g: len(g.vertices) <= 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_context_relations_vs_hull_oracle(graph, seed):
    """Heap-read relations against quadrant counting over a hull.

    Endpoints lie in the ball of radius 2, so every vertex between them lies
    in ``x`` times the ball of radius ``d(x, y) <= 4``.  Every ordered pair
    of half-spaces is checked in both orientations, complement pairs
    included.
    """
    x, y = random.Random(seed).sample(ball(graph, 2), 2)
    ctx = interval(x, y)
    pool = [normal_form(x * v) for v in ball(graph, distance(x, y))]
    hull = _hull_oracle(x, y, pool)
    oriented = [o for h in ctx.halfspaces for o in (h, h.complement())]
    crosses_o, nested_o, tight_o = _oracle_relations(oriented, hull)
    for a, h in enumerate(oriented):
        for b, k in enumerate(oriented):
            if a == b:
                continue
            assert crosses(h, k, ctx) == crosses_o(a, b)
            assert nested(h, k, ctx) == nested_o(a, b)
            assert tightly_nested(h, k, ctx) == tight_o(a, b)


def test_relations_and_chains_enumerate_no_vertices(edgeless2, p3):
    """Relations and chains read the heap alone: an interval keeps no vertex list."""
    for graph, text in ((edgeless2, "abAAb"), (p3, "acbAc")):
        ctx = interval(w(graph, "1"), w(graph, text))
        hs = ctx.halfspaces
        nests = 0
        for h in hs:
            for k in hs:
                if h is k:
                    continue
                crosses(h, k, ctx)
                tightly_nested(h, k, ctx)
                if nested(h, k, ctx) == 1:
                    nests += 1
                    assert all_longest_chains(h, k, ctx)
        assert nests > 0


def test_locate_and_not_in_context(edgeless2):
    ctx = interval(w(edgeless2, "1"), w(edgeless2, "ab"))
    h0 = ctx.halfspaces[0]
    assert ctx.locate(h0) == (0, False)
    assert ctx.locate(h0.complement()) == (0, True)
    stray = halfspace_of_edge(w(edgeless2, "bb"), ("a", 1))
    with pytest.raises(NotInContext):
        ctx.locate(stray)
    with pytest.raises(NotInContext):
        crosses(stray, h0, ctx)


def test_crosses_square_vs_segment(p3, edgeless2):
    sq = interval(w(p3, "1"), w(p3, "ab"))
    ha, hb = sq.halfspaces
    assert crosses(ha, hb, sq)
    assert nested(ha, hb, sq) is None
    seg = interval(w(edgeless2, "1"), w(edgeless2, "ab"))
    h1, h2 = seg.halfspaces
    assert not crosses(h1, h2, seg)
    assert nested(h1, h2, seg) == 1  # first contains second, as oriented
    assert nested(h2, h1, seg) == -1
    assert nested(h1, h1.complement(), seg) is None  # same wall


def test_tightly_nested(edgeless2):
    ctx = interval(w(edgeless2, "1"), w(edgeless2, "aaa"))
    h0, h1, h2 = ctx.halfspaces
    assert tightly_nested(h0, h1, ctx)
    assert tightly_nested(h1, h2, ctx)
    assert not tightly_nested(h0, h2, ctx)  # h1 sits strictly between
    assert tightly_nested(h1, h0, ctx)  # argument order does not matter


def test_context_vs_global_relations(four_gen_graphs):
    """The two implementations must agree on shared separators.

    Any pair of half-spaces separating the same two vertices is visible to
    both code paths, and containment between interval walls forces every
    intermediate wall into the same interval, so even tightness transfers.
    """
    rng = random.Random(0x5C1)
    for graph in four_gen_graphs.values():
        verts = ball(graph, 3)
        pairs = 0
        for _ in range(25):
            x, y = rng.sample(verts, 2)
            ctx = interval(x, y)
            hs = ctx.halfspaces
            for i in range(len(hs)):
                for j in range(len(hs)):
                    if i == j:
                        continue
                    h, k = hs[i], hs[j]
                    if h.wall_key() == k.wall_key():
                        continue
                    pairs += 1
                    assert crosses(h, k, ctx) == hyperplanes_cross(h, k)
                    assert nested(h, k, ctx) == nested_globally(h, k)
                    assert tightly_nested(h, k, ctx) == tightly_nested_globally(h, k)
        assert pairs > 50


def _interval_ends(h, k):
    """The ends of the defining edges that bound the interval the global relations read.

    ``x`` is the end of h's edge on the far side of h from ``b_k``, and ``y``
    the end of k's edge on the far side of k from ``x``; each is a base or a
    head.
    """
    h_base, h_letter = h.defining_edge()
    x_head = not member(k.base, h if h.sign > 0 else h.complement())
    x = h_base * Word.from_letters(h.graph, [h_letter]) if x_head else h_base
    y_head = not member(x, k if k.sign > 0 else k.complement())
    return "x=b_h·a" if x_head else "x=b_h", "y=b_k·c" if y_head else "y=b_k"


def test_global_relations_match_interval_oracle():
    """Global relations and membership against the distance/interval oracles.

    Pairs come in three kinds over random graphs: ``(H, f(H̄))`` as in
    axiom s3, the walls at adjacent positions of an interval (tight when
    their letters do not commute), and half-spaces of random edges.  Every
    pair is checked in both orders and in random orientations, and each of
    the four choices of interval ends is reached.
    """
    seen = Counter()

    @settings(max_examples=175, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), seed=st.integers(0, 2**32 - 1))
    def check(graph, seed):
        rng = random.Random(seed)
        letters = [(v, s) for v in graph.vertices for s in (1, -1)]

        def vertex():
            return Word.from_letters(graph, [rng.choice(letters) for _ in range(rng.randint(0, 5))])

        def edge():
            return halfspace_of_edge(vertex(), rng.choice(letters))

        def orient(hs):
            return hs.complement() if rng.random() < 0.5 else hs

        pairs = []
        for _ in range(4):
            h = edge()
            pairs += [(h, act(vertex(), h.complement())), (orient(h), edge())]
            walls = interval(vertex(), vertex()).halfspaces
            pairs += [(orient(a), orient(b)) for a, b in zip(walls, walls[1:])]
        for h, k in pairs:
            x = vertex()
            assert member(x, h) == H.member_by_distances(x, h)
            for a, b in ((h, k), (k, h)):
                assert hyperplanes_cross(a, b) == H.cross_by_interval(a, b)
                direction = nested_globally(a, b)
                assert direction == H.nested_by_probes(a, b)
                tight = tightly_nested_globally(a, b)
                assert tight == H.tight_by_interval(a, b)
                seen.update(pairs=1, nested=direction is not None, tight=tight)
                seen[_interval_ends(a, b)] += 1

    check()
    assert seen["tight"] >= 500 and seen["nested"] >= 2000, seen
    floors = {
        ("x=b_h", "y=b_k"): 1150,
        ("x=b_h", "y=b_k·c"): 1150,
        ("x=b_h·a", "y=b_k"): 1700,
        ("x=b_h·a", "y=b_k·c"): 1150,
    }
    assert all(seen[ends] >= n for ends, n in floors.items()), seen


def test_stretch_reads_raw_walls(suite_graphs):
    """The stretch of two raw walls has one position exactly when they are one wall.

    Walls are ``(base, label, sign)`` at raw bases: the ends of a random
    path, which need not be reduced and whose odd codes shift the base by a
    letter.  The second wall is the first at another base of its coset
    (``b·z``, ``z`` in ``<lk(a)>``) in either orientation, a translate
    ``(f·b, a, -s)`` as axiom s1 forms it, a wall crossed later on the same
    path (the same wall when the path backtracks), or a random wall.
    "One position" is judged against ``_canon_base`` equality, and the s1
    reading (one position, same orientation) against equality of the
    canonical half-spaces.  The direction read off the stretch and
    ``_walls_tight`` must agree with the public relations at the canonical
    bases and with the probe and interval oracles of ``helpers.py``.
    """
    seen = Counter()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(graph, seed):
        rng = random.Random(seed)
        n = graph.letter_count

        def codes(hi, letters=range(n)):
            return bytes(rng.choice(letters) for _ in range(rng.randint(0, hi)))

        def canonical(wall):
            base, a, sign = wall
            return cube.HalfSpace(graph, cube._canon_base(graph, base, a), a, sign)

        for _ in range(3):
            start, path = codes(4), codes(6) + bytes([rng.randrange(n)])
            walls = [cube._wall_at(start + path[:i], c) for i, c in enumerate(path)]
            h = b, a, s = walls[0]
            link = [c for c in range(n) if (graph._lk_mask[a] >> (c >> 1)) & 1]
            z = codes(3, link) if link else b""
            pairs = [(h, (b + z, a, s)), (h, (b + z, a, -s)), (h, (codes(3) + b, a, -s))]
            pairs += [(h, k) for k in walls[1:]]
            pairs += [(h, cube._wall_at(codes(5), rng.randrange(n)))]
            for p, q in pairs:
                for u, v in ((p, q), (q, p)):
                    hc, kc = canonical(u), canonical(v)
                    stretch, neg_u, neg_v = cube._stretch(graph, u, v)
                    same = hc.wall_key() == kc.wall_key()
                    assert (len(stretch) == 1) == same
                    assert (len(stretch) == 1 and neg_u == neg_v) == (hc == kc)
                    direction = cube._direction_in(graph, stretch, neg_u, neg_v)
                    tight = cube._walls_tight(graph, u, v)
                    assert (direction, tight) == (
                        nested_globally(hc, kc),
                        tightly_nested_globally(hc, kc),
                    )
                    assert direction == H.nested_by_probes(hc, kc)
                    assert tight == H.tight_by_interval(hc, kc)
                    seen.update(
                        same=same, equal=hc == kc, nested=direction is not None, tight=tight
                    )

    check()
    assert seen["same"] >= 2000 and seen["equal"] >= 800, seen
    assert seen["nested"] >= 1500 and seen["tight"] >= 600, seen


def test_order_matches_closed_heap(suite_graphs):
    """``_order`` against the heap order closed transitively, on reduced words of 2 to 8 letters.

    The oracle orders two positions when the earlier letter does not
    commute with the later one (equal generators, or generators that are
    not adjacent) and closes that relation transitively.  The last position
    is above the first or not, and when it is above, some position lies
    between them or the two are a covering pair.
    """
    seen = Counter()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(graph, seed):
        rng = random.Random(seed)
        names = graph.vertices
        for _ in range(8):
            word, n = b"", rng.randint(2, 8)
            while len(word) < n:
                c = bytes([rng.randrange(graph.letter_count)])
                if len(reduce(Word(graph, word + c))) > len(word):
                    word += c
            below = [set() for _ in word]
            for j, c in enumerate(word):
                for i in range(j):
                    u, v = names[word[i] >> 1], names[c >> 1]
                    if u == v or not graph.adjacent(u, v):
                        below[j] |= {i} | below[i]
            last = len(word) - 1
            if 0 not in below[last]:
                want = 0
            elif any(0 in below[r] for r in below[last]):
                want = 1
            else:
                want = 2
            assert cube._order(graph, word) == want
            seen[want] += 1

    check()
    assert seen[0] >= 200 and seen[1] >= 500 and seen[2] >= 110, seen


def test_tightness_needs_labels_that_do_not_commute(suite_graphs):
    """Walls with adjacent labels are never tightly nested, and tightness equals the interval oracle.

    Tight walls sit at a covering pair of heap positions, whose letters do
    not commute.  Pairs are the walls at adjacent positions of an interval
    (tight when their letters do not commute), ``(H, f(H̄))`` as in axiom
    s3, and half-spaces of random edges, in random orientations and both
    orders.
    """
    seen = Counter()

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(graph, seed):
        rng = random.Random(seed)
        letters = [(v, s) for v in graph.vertices for s in (1, -1)]

        def vertex():
            return Word.from_letters(graph, [rng.choice(letters) for _ in range(rng.randint(0, 5))])

        def edge():
            return halfspace_of_edge(vertex(), rng.choice(letters))

        def orient(hs):
            return hs.complement() if rng.random() < 0.5 else hs

        pairs = []
        for _ in range(3):
            walls = interval(vertex(), vertex()).halfspaces
            pairs += [(orient(a), orient(b)) for a, b in zip(walls, walls[1:])]
            h = edge()
            pairs += [(h, act(vertex(), h.complement())), (orient(h), orient(edge()))]
        for p, q in pairs:
            for h, k in ((p, q), (q, p)):
                tight = tightly_nested_globally(h, k)
                adjacent = graph.adjacent(h.label, k.label)
                assert not (adjacent and tight)
                assert tight == H.tight_by_interval(h, k)
                seen.update(adjacent=adjacent, tight=tight)

    check()
    assert seen["adjacent"] >= 500 and seen["tight"] >= 550, seen


def test_labels_and_flags_skip_the_passes(suite_graphs):
    """Pairs whose answer the labels or orientation flags fix make no reduction or pass.

    Walls with adjacent labels are never tight, so ``tightly_nested_globally``
    reads no ``_stretch`` for them.  H and g·H have one label, so
    ``in_a_g_plus`` and the no-overlap search read their nesting from the
    stretch's length and flags, with no ``_order`` pass.  A sample of
    ``check_special_axioms`` reads one stretch for s1 and s3 and one for s4's
    eligibility when H's and K's labels are not adjacent: s2 and s4's
    crossing test pair labels that are not adjacent, and read none.
    """
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    def labels(graph, h, k):
        calls["apart" if not (graph._lk_mask[h[1]] >> k[1]) & 1 else "adjacent"] += 1
        return walls_tight(graph, h, k)

    walls_tight = cube._walls_tight
    rng = random.Random(11)
    with mock.patch.multiple(cube, _stretch=counting(cube._stretch), _order=counting(cube._order)):
        for graph in suite_graphs.values():
            pool = ball(graph, 2)
            hs = [
                halfspace_of_edge(rng.choice(pool), (v, rng.choice((1, -1))))
                for v in graph.vertices
                for _ in range(4)
            ]
            for h in hs:
                for k in hs:
                    if graph.adjacent(h.label, k.label):
                        calls["adjacent pairs"] += 1
                        assert not tightly_nested_globally(h, k)
        assert calls["adjacent pairs"] > 100 and not calls["_stretch"], calls

        for graph, text in ((suite_graphs["c5"], "acBD"), (suite_graphs["k3_pendant"], "abdc")):
            g = w(graph, text)
            calls.clear()
            for v in ball(graph, 2):
                for letter in graph.vertices:
                    in_a_g_plus(g, halfspace_of_edge(v, letter))
            assert calls["_stretch"] > 0 and not calls["_order"], calls
            calls.clear()
            assert search_prop_noov_violation(g, radius=2, samples=12).triples_checked > 0
            assert calls["_stretch"] > 0 and not calls["_order"], calls

        with mock.patch.object(cube, "_walls_tight", labels):
            for graph in suite_graphs.values():
                calls.clear()
                assert check_special_axioms(graph, samples=300, radius=3, seed=7).ok
                assert calls["_stretch"] == 300 + calls["apart"], calls
                assert calls["apart"] + calls["adjacent"] == 300, calls


# -- chains -----------------------------------------------------------------


def test_longest_chain_line(edgeless2):
    ctx = interval(w(edgeless2, "1"), w(edgeless2, "a" * 6))
    chain = longest_chain(ctx.halfspaces[0], ctx.halfspaces[5], ctx)
    assert chain.length == 4
    assert chain.taut
    assert chain.halfspaces == ctx.halfspaces
    assert midpoint(chain) == ctx.halfspaces[2]  # (n+1)//2 with n = 4 -> index 2


def test_longest_chain_requires_nesting(p3):
    sq = interval(w(p3, "1"), w(p3, "ab"))
    ha, hb = sq.halfspaces
    with pytest.raises(NotNested):
        longest_chain(ha, hb, sq)
    with pytest.raises(NotNested):
        longest_chain(hb, ha, sq)


def test_midpoint_too_short(edgeless2):
    ctx = interval(w(edgeless2, "1"), w(edgeless2, "aa"))
    chain = longest_chain(ctx.halfspaces[0], ctx.halfspaces[1], ctx)
    assert chain.length == 0
    with pytest.raises(ChainTooShort):
        midpoint(chain)


def test_all_longest_chains_enumerates():
    # path a - b - c - d; in [1, acda] the end walls (first and last a) nest,
    # and c, d commute, so two longest chains pass between them, one
    # through each of the crossing walls c and d
    p4 = DefiningGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    ctx = interval(w(p4, "1"), w(p4, "acda"))
    h_first = ctx.halfspaces[0]
    h_last = ctx.halfspaces[-1]
    assert (h_first.label, h_last.label) == ("a", "a")
    assert nested(h_first, h_last, ctx) == 1
    chains = all_longest_chains(h_first, h_last, ctx)
    assert [c.length for c in chains] == [1, 1]
    assert sorted(c.halfspaces[1].label for c in chains) == ["c", "d"]
    for c in chains:
        assert (c.halfspaces[0], c.halfspaces[-1]) == (h_first, h_last)
        for a, b in zip(c.halfspaces, c.halfspaces[1:]):
            assert nested(a, b, ctx) == 1
    assert crosses(chains[0].halfspaces[1], chains[1].halfspaces[1], ctx)


def test_longest_chains_match_run_enumeration():
    """Longest chains against every strictly nested run of the interval's walls.

    For each nested pair of a random interval, in both orientations, the
    oracle enumerates runs with ``nested_by_probes`` and keeps the longest.
    """
    seen = Counter()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), seed=st.integers(0, 2**32 - 1))
    def check(graph, seed):
        rng = random.Random(seed)
        letters = [(v, s) for v in graph.vertices for s in (1, -1)]

        def vertex():
            return Word.from_letters(graph, [rng.choice(letters) for _ in range(rng.randint(0, 6))])

        ctx = interval(vertex(), vertex())
        for (h, k), runs in H.longest_runs_by_probes(ctx).items():
            chains = all_longest_chains(h, k, ctx)
            assert [c.halfspaces for c in chains] == runs
            assert all(c.taut for c in chains)
            assert longest_chain(h, k, ctx) == chains[0]
            seen.update(pairs=1, several=len(chains) > 1, interior=chains[0].length > 0)

    check()
    assert seen["several"] >= 40 and seen["interior"] >= 1000, seen


def test_chain_walks_leave_no_cycles(p3):
    """Chain enumeration and the chain audit leave nothing for the cyclic collector.

    The walks are grown on an explicit stack, with no nested function whose
    cell refers back to it, so every object they make is freed by
    reference counting alone.
    """
    ctx = interval(w(p3, "1"), w(p3, "acbAcaBca"))
    pairs = [(h, k) for h in ctx for k in ctx if nested(h, k, ctx) == 1]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        chains = [all_longest_chains(h, k, ctx) for h, k in pairs]
        assert check_max_chains(p3, samples=20).ok
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert sum(c.length > 0 for found in chains for c in found) > 10


def test_chain_dataclass_length():
    from raagkit.cube import Chain

    assert Chain(halfspaces=(None, None), taut=True).length == 0


# -- medians ----------------------------------------------------------------


def test_median_examples(p3, edgeless2):
    assert median(w(p3, "a"), w(p3, "b"), w(p3, "ab")).display() == "ab"
    m = median(w(p3, "1"), w(p3, "a"), w(p3, "b"))
    assert m.display() == "1"
    assert median(
        w(edgeless2, "a"), w(edgeless2, "ab"), w(edgeless2, "abb")
    ).display() == "ab"


def test_median_betweenness_small(p3, c4, c5, k3_pendant):
    rng = random.Random(77)
    for graph in (p3, c4, c5, k3_pendant):
        verts = ball(graph, 2)
        # ball vertices, then unreduced words of up to 12 letters
        letters = range(graph.letter_count)
        long_words = [
            Word(graph, bytes(rng.choice(letters) for _ in range(rng.randint(0, 12))))
            for _ in range(90)
        ]
        for pool in (verts, long_words):
            for _ in range(30):
                x, y, z = (rng.choice(pool) for _ in range(3))
                m = median(x, y, z)
                for u, v in ((x, y), (y, z), (x, z)):
                    assert distance(u, m) + distance(m, v) == distance(u, v)
                # symmetric in its arguments
                assert median(z, x, y) == m


# -- global in_a_g_plus -----------------------------------------------------


def big_power_verdict(g, h, m=40):
    return member(power(g, m), h) and not member(power(g, -m), h)


def test_in_a_g_plus_unsupported_label(p3):
    g = w(p3, "ab")
    h = halfspace_of_edge(w(p3, "1"), ("c", 1))
    assert not in_a_g_plus(g, h)


def test_in_a_g_plus_axis_walls(edgeless2, p3):
    g = w(edgeless2, "ab")
    h = halfspace_of_edge(w(edgeless2, "1"), ("a", 1))
    assert in_a_g_plus(g, h)
    assert not in_a_g_plus(g, h.complement())
    # wall far off the axis
    far = halfspace_of_edge(w(edgeless2, "bbb"), ("a", 1))
    assert in_a_g_plus(g, far) == big_power_verdict(g, far)


def test_in_a_g_plus_deep_base(p3):
    # bases a^k lie arbitrarily deep, yet remain axis walls of ab
    g = w(p3, "ab")
    for k in range(1, 12):
        h = halfspace_of_edge(w(p3, f"a^{k}"), ("a", 1))
        assert in_a_g_plus(g, h)
        assert big_power_verdict(g, h)


def test_in_a_g_plus_matches_window_probes(suite_graphs):
    """``in_a_g_plus`` against the power-window formulation in ``helpers.py``.

    Half-spaces are the walls of forward axis segments in both orientations,
    their translates f(H̄) as the no-overlap search builds them, and those of
    random edges, some with a label absent from ``g``.  Every wall of a
    forward segment is crossed forward, so it qualifies and its complement
    does not.
    """
    seen = Counter()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(graph, seed):
        rng = random.Random(seed)
        letters = [(v, s) for v in graph.vertices for s in (1, -1)]

        def word(lo, hi):
            return Word.from_letters(graph, [rng.choice(letters) for _ in range(rng.randint(lo, hi))])

        g = cyclically_reduce(word(1, 5)).core
        if g.is_identity:
            return
        reach = 2 * len(g)
        i = rng.randint(-reach, reach - 1)
        j = rng.randint(i + 1, reach)
        x, y = (Word(graph, cube._axis_point(graph, g.codes, n)) for n in (i, j))
        walls = interval(x, y).halfspaces
        for hs in walls:
            assert in_a_g_plus(g, hs) and not in_a_g_plus(g, hs.complement())
        pool = [*walls, *(hs.complement() for hs in walls)]
        pool += [act(word(0, 3), hs.complement()) for hs in walls for _ in range(2)]
        pool += [halfspace_of_edge(word(0, 6), rng.choice(letters)) for _ in range(8)]
        labels = {c >> 1 for c in g.codes}
        for hs in pool:
            verdict = in_a_g_plus(g, hs)
            assert verdict == H.in_a_g_plus_by_window(g, hs)
            seen.update(positive=verdict, negative=not verdict, absent=hs.label_index not in labels)

    check()
    assert seen["positive"] >= 450 and seen["negative"] >= 1800 and seen["absent"] >= 400, seen


def test_in_a_g_plus_matches_definition(four_gen_graphs):
    rng = random.Random(0xA5)
    for graph in four_gen_graphs.values():
        verts = ball(graph, 2)
        gs = [v for v in verts if len(v) in (1, 2, 3)]
        for _ in range(40):
            g = rng.choice(gs)
            from raagkit import cyclically_reduce

            if cyclically_reduce(g).conjugator:
                continue
            h = halfspace_of_edge(
                rng.choice(verts), (rng.choice(graph.vertices), rng.choice((1, -1)))
            )
            assert in_a_g_plus(g, h) == big_power_verdict(g, h)


# -- ball and the sampling reports ------------------------------------------


def test_ball_sizes(edgeless2, p3):
    assert [v.display() for v in ball(edgeless2, 0)] == ["1"]
    assert len(ball(edgeless2, 1)) == 5
    assert len(ball(edgeless2, 2)) == 17  # 1 + 4 + 12 in the free group
    b1 = ball(p3, 1)
    assert len(b1) == 7
    # sorted by (length, codes): identity first
    assert b1[0].is_identity


def test_ball_contains_no_duplicates(c4):
    verts = ball(c4, 3)
    assert len({normal_form(v).codes for v in verts}) == len(verts)


def test_ball_matches_cayley_ball():
    """``ball`` against breadth-first distances keyed by oracle canonicals.

    ``helpers.cayley_ball`` spells every element of the ball by elementary
    moves alone.  The same elements come out, each once, at the same
    distances, and in (length, codes) order.
    """
    seen = Counter()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=H.random_graph_data(), radius=st.integers(0, 3))
    def check(data, radius):
        names, edges = data
        got = ball(DefiningGraph(names, edges), radius)
        keys = [(len(v.codes), v.codes) for v in got]
        assert keys == sorted(set(keys))
        canon = {H.oracle_canonical(names, edges, v.letters()): len(v.codes) for v in got}
        assert len(canon) == len(got)
        dist = H.cayley_ball(names, edges, radius)
        assert canon == dist
        assert Counter(map(len, got)) == Counter(dist.values())
        seen.update(elements=len(got))

    check()
    assert seen["elements"] >= 1000, seen


def test_ball_limit_is_counted_before_building(c5):
    """A radius whose ball passes ``BALL_LIMIT`` is refused from the count of its next length.

    c5's ball has 131,441 elements at radius 6 and 819,971 at radius 7, so
    a radius of 7 or more is refused after the extensions of radius 6 are
    counted: no element of length 7 is built.  A graph with no letters
    stops growing at once.
    """
    extensions, calls = cube._extensions, Counter()

    def counting(graph, v):
        calls[len(v)] += 1
        return extensions(graph, v)

    for radius in (7, 40):
        calls.clear()
        with mock.patch.object(cube, "_extensions", counting), pytest.raises(
            BadParameter, match=f"radius {radius} has more than {cube.BALL_LIMIT} elements"
        ):
            ball(c5, radius)
        assert sum(calls.values()) == 131_441 and max(calls) == 6, calls
    assert [v.display() for v in ball(DefiningGraph([], []), 10**9)] == ["1"]


def test_check_special_axioms_small(p3):
    report = check_special_axioms(p3, samples=60, radius=2, seed=1)
    assert report.ok
    assert report.samples == 60
    d = report.to_json_dict()
    assert d["ok"] is True
    assert d["violations"] == []
    assert d["checked"]["s2"] == 60
    # pins the sampled half-spaces: drawing letters another way moves this count
    assert check_special_axioms(p3, samples=600, radius=2, seed=1).checked["s4_eligible"] == 42


def _walls_logged(log: Counter):
    """Patches that count the walls each global relation is handed, canonicalised.

    ``_walls_cross`` and ``_attracts`` count their verdicts too.  The public
    relations and ``in_a_g_plus`` call the same three functions, so the
    searches and their oracles in ``helpers.py`` count alike when they test
    the same half-spaces as often.  The walls of the intervals built are
    counted under ``"interval walls"``.
    """

    def building(x, y):
        ctx = interval(x, y)
        log["interval walls"] += len(ctx)
        return ctx

    def logging(name, verdict):
        fn = getattr(cube, name)

        def wrapper(graph, *args):
            result = fn(graph, *args)
            raw = [arg for arg in args if isinstance(arg, tuple)]  # not g's codes
            walls = tuple((cube._canon_base(graph, b, a), a, s) for b, a, s in raw)
            log[name, walls, result if verdict else None] += 1
            return result

        return wrapper

    return mock.patch.multiple(
        cube,
        _stretch=logging("_stretch", False),
        _walls_cross=logging("_walls_cross", True),
        _attracts=logging("_attracts", True),
        interval=building,
    )


def test_searches_match_canonical_oracles(suite_graphs):
    """Both searches on raw coset bases against their canonical forms in ``helpers.py``.

    The oracles form every translate with ``act`` and read it through the
    public global relations and ``in_a_g_plus``.  The JSON reports must be
    equal, counts and violations included, and so must the logs of every
    wall handed to the relations: a report shows no verdict that holds.
    A translate f(H̄) attracts only when ``g`` crosses walls of one label
    both ways, as ``abAB`` does; the examples pin two such elements.
    """
    seen = Counter()

    def logged(search, *args, **kwargs):
        log = Counter()
        with _walls_logged(log):
            return search(*args, **kwargs).to_json_dict(), log

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        radius=st.integers(0, 3),
        samples=st.integers(0, 300),
        pairs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        word=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    )
    @example(graph=F2, radius=3, samples=0, pairs=12, seed=1, word=[0, 2, 1, 3])  # abAB
    @example(graph=F2, radius=2, samples=0, pairs=12, seed=2, word=[0, 3, 1, 2])  # aBAb
    def check(graph, radius, samples, pairs, seed, word):
        got = logged(check_special_axioms, graph, samples=samples, radius=radius, seed=seed)
        assert got == logged(H.check_special_axioms_by_act, graph, samples, radius, seed)
        seen.update(s4_eligible=got[0]["checked"]["s4_eligible"], relations=sum(got[1].values()))
        g = cyclically_reduce(Word(graph, bytes(c % graph.letter_count for c in word))).core
        if g.is_identity:
            return
        got = logged(search_prop_noov_violation, g, radius=radius, samples=pairs, seed=seed)
        want = logged(H.noov_search_by_act, g, radius=radius, samples=pairs, seed=seed)
        walls = want[1].pop("interval walls")  # the search reads the same walls raw
        assert got == want
        assert got[0]["premise_failures"] == 0  # every interval wall attracts
        attracting = sum(n for key, n in got[1].items() if key[0] == "_attracts" and key[2])
        seen.update(searches=1, reversed=attracting - walls)

    check()
    assert seen["s4_eligible"] >= 450 and seen["searches"] >= 120, seen
    assert seen["reversed"] >= 9, seen  # the two examples give 9


def test_check_special_axioms_reports_planted_faults(p3):
    """Each axiom is reported on every sample once its relation is made to hold.

    At radius 0 the only element is the identity, so f(H̄) is H's wall; a
    ``_stretch`` that reports both walls oriented alike makes it H itself
    (s1).  Walls that always cross give s2 on every sample and s4 on every
    eligible one.  Walls that always nest tightly give s3 on every sample
    and make every sample eligible for s4: s3 reads the stretch it shares
    with s1, and s4 asks ``_walls_tight``, which answers adjacent labels
    before any stretch, so the fault is planted in both.
    """
    real = cube._stretch

    def same_side(graph, h, k):
        stretch, neg_h, _ = real(graph, h, k)
        return stretch, neg_h, neg_h

    def run(radius, **fakes):
        with mock.patch.multiple(cube, **fakes):
            report = check_special_axioms(p3, samples=25, radius=radius, seed=3)
        assert all(" H=(" in v for v in report.violations)
        return report.checked, Counter(v.split(": f=")[0] for v in report.violations)

    checked, found = run(0, _stretch=same_side)
    assert found["s1"] == 25, found
    checked, found = run(2, _walls_cross=lambda graph, h, k: True)
    assert found == {"s2": 25, "s4": checked["s4_eligible"]} and found["s4"] > 0, found
    checked, found = run(
        2, _tight_in=lambda graph, *stretch: True, _walls_tight=lambda graph, h, k: True
    )
    assert found["s3"] == checked["s4_eligible"] == 25 and set(found) <= {"s3", "s4"}, found


def test_searches_canonicalise_no_translate(suite_graphs):
    """No search canonicalises a wall or a translate, and the no-overlap search checks ``g`` once.

    ``check_special_axioms`` makes no ``_canon_base`` call when nothing is
    violated (the ball is built from normal forms).  The no-overlap search
    builds no interval: it reads each segment's walls raw off ``nf(x^-1 y)``,
    so it makes no ``_canon_base`` call at any radius either.
    """
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    def building(x, y):
        ctx = interval(x, y)
        calls["interval walls"] += len(ctx)
        return ctx

    with mock.patch.multiple(
        cube,
        _canon_base=counting(cube._canon_base),
        _require_cyclically_reduced=counting(cube._require_cyclically_reduced),
        interval=building,
    ):
        for graph in suite_graphs.values():
            assert check_special_axioms(graph, samples=200, radius=3, seed=7).ok
        assert not calls
        for graph, text in ((suite_graphs["c5"], "acBD"), (suite_graphs["k3_pendant"], "abdc")):
            for radius in (0, 1, 3):
                calls.clear()
                report = search_prop_noov_violation(w(graph, text), radius=radius, samples=12)
                assert report.ok and report.triples_checked > 0
                assert calls["_require_cyclically_reduced"] == 1
                assert calls["_canon_base"] == calls["interval walls"] == 0


def test_check_max_chains_small(p3):
    report = check_max_chains(p3, samples=25, radius=2, seed=2)
    assert report.ok
    d = report.to_json_dict()
    assert d["violations"] == []
    assert d["samples"] == 25
    assert 0 < d["intervals_checked"] <= 25  # coincident endpoints are skipped


def test_check_max_chains_matches_interval_oracle(suite_graphs):
    """The audit on heap positions against the form that built an interval per sample.

    ``helpers.check_max_chains_by_intervals`` enumerates each nested pair's
    chains through ``all_longest_chains`` and compares their ``midpoint``
    half-spaces with ``crosses``; the JSON reports must be equal.
    """
    seen = Counter()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        graph=H.random_graphs() | st.sampled_from(list(suite_graphs.values())),
        radius=st.integers(0, 3),
        samples=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(graph=suite_graphs["c5"], radius=3, samples=60, seed=2)  # 10 midpoint pairs
    @example(graph=suite_graphs["k3_pendant"], radius=3, samples=60, seed=2)  # 17
    def check(graph, radius, samples, seed):
        got = check_max_chains(graph, samples=samples, radius=radius, seed=seed).to_json_dict()
        assert got == H.check_max_chains_by_intervals(graph, samples, radius, seed).to_json_dict()
        seen.update(pairs=got["nested_pairs"], midpoint_pairs=got["midpoint_pairs"])

    check()
    assert seen["pairs"] >= 2000 and seen["midpoint_pairs"] >= 27, seen


def test_chain_midpoints_are_midpoint(suite_graphs):
    """The audit's midpoint positions are those ``midpoint`` takes of ``all_longest_chains``.

    Every nested pair a run of :func:`check_max_chains` reads is rebuilt as
    an interval from the identity to ``nf(x^-1 y)``, which has the same heap.
    An odd number of interior walls tells index ``(L + 1) // 2`` from
    ``L // 2``.  A planted pair of nested midpoints is reported with the
    interval's canonical walls, as the interval oracle reports it.
    """
    from raagkit.cube import Chain

    heap_down, chain_midpoints = cube._heap_down, cube._chain_midpoints
    read = []

    def recording(graph, word):
        read.append((graph, word))
        return heap_down(graph, word)

    def midpoints(down, i, j):
        result = chain_midpoints(down, i, j)
        read.append((i, j, result))
        return result

    with mock.patch.multiple(cube, _heap_down=recording, _chain_midpoints=midpoints):
        for graph in suite_graphs.values():
            assert check_max_chains(graph, samples=150, radius=3, seed=5).ok
    seen = Counter()
    for entry in read:
        if len(entry) == 2:
            graph, word = entry
            ctx = interval(Word(graph, b""), Word(graph, word))
            continue
        i, j, (count, mids) = entry
        chains = all_longest_chains(ctx.halfspaces[i], ctx.halfspaces[j], ctx)
        assert count == len(chains)
        want = [ctx.locate(midpoint(c))[0] for c in chains if c.length >= 1]
        assert sorted(mids) == sorted(want)
        seen.update(odd=sum(c.length % 2 for c in chains), several=len(set(mids)) > 1)
    assert seen["odd"] >= 2000 and seen["several"] >= 37, seen  # 2,479 and 42

    def planted(h, k, ctx):
        return [Chain((h, h, k)), Chain((h, k, k))]

    with mock.patch.object(cube, "_chain_midpoints", lambda down, i, j: (2, [i, j])):
        got = check_max_chains(suite_graphs["p3"], samples=20, radius=2, seed=2).to_json_dict()
    with mock.patch.object(cube, "all_longest_chains", planted):
        want = H.check_max_chains_by_intervals(suite_graphs["p3"], 20, 2, 2).to_json_dict()
    assert got == want
    assert len(got["violations"]) == got["nested_pairs"] > 0


def test_audits_build_only_what_they_read(suite_graphs, grotzsch):
    """``ball`` normalises nothing, and a clean ``check_max_chains`` builds no interval.

    ``ball`` extends normal forms by letters that keep them normal forms, so
    it makes no ``_nf_of`` or ``_nf_scan`` call.  ``check_max_chains`` reads
    one heap per sample and builds no ``Interval``; with no violation it
    canonicalises no half-space.
    """
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    with H.count_kernel_work() as (work, _), mock.patch.object(cube, "_nf_of", counting(cube._nf_of)):
        for graph in (*suite_graphs.values(), grotzsch):
            assert len(ball(graph, 3)) > 1
    assert not calls and not work, (calls, work)
    with mock.patch.multiple(
        cube, _canon_base=counting(cube._canon_base), Interval=counting(cube.Interval)
    ):
        for graph in suite_graphs.values():
            report = check_max_chains(graph, samples=60, radius=3, seed=7)
            assert report.ok and report.nested_pairs > 0
    assert not calls, calls


# -- translated segments ----------------------------------------------------


def test_translated_segment_walls():
    """The walls of [f·y, f·x] are the translates f(H̄) of the walls of [x, y].

    The no-overlap search builds one interval per axis segment on this
    identity; the search itself is checked against the formulation in
    ``helpers.py`` that builds [f·y, f·x] for every element f.
    """
    seen = Counter()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), seed=st.integers(0, 2**32 - 1))
    def check(graph, seed):
        rng = random.Random(seed)
        letters = [(v, s) for v in graph.vertices for s in (1, -1)]

        def word(lo, hi):
            letters_drawn = [rng.choice(letters) for _ in range(rng.randint(lo, hi))]
            return Word.from_letters(graph, letters_drawn)

        x, y, f = word(0, 5), word(0, 5), word(0, 4)
        walls = {act(f, hs.complement()) for hs in interval(x, y)}
        assert walls == set(interval(f * y, f * x).halfspaces)
        g = cyclically_reduce(word(1, 3)).core
        if g.is_identity:
            return
        report = search_prop_noov_violation(g, radius=1, samples=10**6)
        assert (
            report.pairs_checked,
            report.premise_failures,
            report.triples_checked,
            report.violations,
        ) == H.noov_search_by_intervals(g, radius=1)
        seen.update(searches=1, triples=report.triples_checked)

    check()
    assert seen["searches"] >= 30, seen


def test_axis_point_matches_block_formula():
    """Axis vertices as one prefix of ``g`` or ``g^-1`` repeated, against ``helpers.py``."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(graph=H.random_graphs(), data=st.data())
    def check(graph, data):
        codes = bytes(
            data.draw(st.lists(st.integers(0, graph.letter_count - 1), min_size=1, max_size=6))
        )
        reach = 3 * len(codes) + 1
        for offset in range(-reach, reach + 1):
            assert cube._axis_point(graph, codes, offset) == H.axis_point_by_blocks(
                graph, codes, offset
            )

    check()
