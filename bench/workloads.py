"""The four benchmark workloads: seeded inputs, tasks, answers and checks.

A workload's inputs are plain data made from the seed alone: graph and
complex file texts plus a task list of ``[kind, spec]`` pairs holding word
texts and parameters.  Each task kind has three functions:

* ``run(L, ctx, spec)`` does the timed work through a :class:`layers.Layers`;
* ``answer(result)`` gives the canonical answer that must repeat across
  passes and match ``expected.json`` (no work counters, no text layout);
* ``check(ctx, spec, result)`` returns the violated invariants, untimed.

``ctx`` is rebuilt before every pass: graphs are parsed again, so the
per-graph caches start cold in each pass and warm up within it.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import raagkit
from raagkit import Word

import oracles as O

# ---------------------------------------------------------------------------
# fixed graphs and complexes
# ---------------------------------------------------------------------------


def _mycielski(vertices, edges, shadow, apex):
    """Mycielskian: one shadow per vertex joined to its neighbours, plus an apex."""
    shadows = {v: shadow(v) for v in vertices}
    out = list(edges)
    for a, b in edges:
        out += [(shadows[a], b), (shadows[b], a)]
    out += [(s, apex) for s in shadows.values()]
    return list(vertices) + list(shadows.values()) + [apex], out


_C5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
_GROTZSCH = _mycielski([f"v{i}" for i in range(5)],
                       [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)],
                       lambda v: "u" + v[1:], "z")

GRAPHS = {
    "f2": (["a", "b"], []),
    "p3": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "c5": _C5,
    "k3_pendant": (list("abcd"), [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")]),
    "grotzsch": _GROTZSCH,
    # Mycielskian of the Grötzsch graph: 23 vertices, triangle-free, chi = 5
    "m5": _mycielski(*_GROTZSCH, lambda v: "s" + v, "w"),
}

#: Answers recorded at the commit that introduced the benchmark.
CHROMATIC = {"f2": 1, "p3": 2, "c5": 3, "k3_pendant": 3, "grotzsch": 4, "m5": 5}
BALL3_SIZE = {"p3": 99, "c5": 531, "k3_pendant": 225}  # p3: F2 x Z, so 7 + 20 + 36 + 36
CLOSURE_MAXIMA = {("c5", "abcde"): [0, 0, 0], ("k3_pendant", "abdcBD"): [1, 1, 1],
                  ("c5", "acBDea"): [0, 0, 0]}


def graph_text(name: str) -> str:
    vertices, edges = GRAPHS[name]
    return (f"vertices: {' '.join(vertices)}\n"
            f"edges: {' '.join(f'{a}-{b}' for a, b in edges)}\n")


def torus_text(k: int) -> str:
    """k x k square grid on the torus, all angles pi/2 (Euler characteristic 0)."""
    def v(i, j):
        return f"v{i % k}_{j % k}"

    def east(i, j):
        return 2 * ((i % k) * k + j % k) + 1

    def south(i, j):
        return east(i, j) + 1

    edges, faces = [], []
    for i in range(k):
        for j in range(k):
            edges.append({"id": east(i, j), "ends": [v(i, j), v(i, j + 1)]})
            edges.append({"id": south(i, j), "ends": [v(i, j), v(i + 1, j)]})
            faces.append({"id": f"f{i}_{j}",
                          "boundary": [east(i, j), south(i, j + 1), -east(i + 1, j), -south(i, j)],
                          "angles": ["1/2"] * 4})
    return json.dumps({"vertices": [v(i, j) for i in range(k) for j in range(k)],
                       "edges": edges, "faces": faces})


def octagon_text() -> str:
    """Genus-2 surface: one vertex, four loops, one octagon with angles pi/4."""
    return json.dumps({
        "vertices": ["p"],
        "edges": [{"id": e, "ends": ["p", "p"]} for e in (1, 2, 3, 4)],
        "faces": [{"id": "f", "boundary": [1, 2, -1, -2, 3, 4, -3, -4], "angles": ["1/4"] * 8}],
    })


COMPLEXES = {**{f"torus{k}": (lambda k=k: torus_text(k)) for k in (5, 10, 15, 20)},
             "octagon": octagon_text}
EULER = {"torus5": 0, "torus10": 0, "torus15": 0, "torus20": 0, "octagon": -2}

ORACLE_GRAPHS = {name: O.Graph(*GRAPHS[name]) for name in GRAPHS}

# ---------------------------------------------------------------------------
# seeded word generation (independent of raagkit)
# ---------------------------------------------------------------------------


def random_letters(rng: random.Random, graph: str, length: int) -> list[tuple[int, int]]:
    n = len(GRAPHS[graph][0])
    return [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]


def cyclically_reduced_letters(rng, graph, length):
    g = ORACLE_GRAPHS[graph]
    while True:
        w = random_letters(rng, graph, length)
        if O.is_cyclically_reduced(g, w):
            return w


def text(graph: str, letters) -> str:
    """Compact form (``abA``) for one-letter names, token form otherwise."""
    names = GRAPHS[graph][0]
    if all(len(v) == 1 for v in names):
        return "".join(names[i] if s > 0 else names[i].upper() for i, s in letters) or "1"
    return " ".join(names[i] if s > 0 else f"{names[i]}^-1" for i, s in letters) or "1"


def rewrite(rng, graph: str, letters) -> list[tuple[int, int]]:
    """An equal word: a run of commuting swaps plus an inserted cancelling pair."""
    g = ORACLE_GRAPHS[graph]
    w = list(letters)
    for _ in range(len(w)):
        i = rng.randrange(max(1, len(w) - 1))
        if i + 1 < len(w) and g.commute(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    x = (rng.randrange(len(g.vertices)), rng.choice((1, -1)))
    at = rng.randint(0, len(w))
    return w[:at] + [x, (x[0], -x[1])] + w[at:]


def flip_one(rng, letters) -> list[tuple[int, int]]:
    """An unequal word: flipping one letter's sign moves that generator's exponent sum by 2."""
    i = rng.randrange(len(letters))
    return letters[:i] + [(letters[i][0], -letters[i][1])] + letters[i + 1:]


# ---------------------------------------------------------------------------
# task kinds
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    run: Callable
    answer: Callable
    check: Callable


class Context:
    """Per-pass state: freshly parsed graphs, file paths, built intervals."""

    def __init__(self, inputs: dict, paths: dict[str, str]):
        self.graphs = {name: raagkit.parse_graph(body) for name, body in inputs["graphs"].items()}
        self.paths = paths
        self.intervals: dict[int, object] = {}


def _parse(L, ctx, graph, word_text):
    w = L.parse(ctx.graphs[graph], word_text)
    L.count("words.letters_in", len(w))
    return w


def _dist(g, x, y) -> int:
    return len(O.reduce(g, O.inverse(g.letters(x)) + g.letters(y)))


def _rebuild_problems(g, w, core, conjugator) -> list[str]:
    """conjugator * core * conjugator^-1 must be w, with core and conjugator reduced lengths."""
    c, letters = g.letters(conjugator), g.letters(w)
    if not O.equal(g, c + g.letters(core) + O.inverse(c), letters):
        return ["conjugator * core * conjugator^-1 != w"]
    if len(core) + 2 * len(conjugator) != len(O.reduce(g, letters)):
        return ["cyclic reduction lengths do not add up"]
    return []


# -- word problem -------------------------------------------------------------

def run_word(L, ctx, spec):
    w = _parse(L, ctx, spec["graph"], spec["word"])
    v = _parse(L, ctx, spec["graph"], spec["rewritten"])
    u = _parse(L, ctx, spec["graph"], spec["unequal"])
    return w, L.normal_form(w), L.equal(w, v), L.equal(w, u), L.cyclically_reduce(w)


def answer_word(result):
    _, nf, same, other, red = result
    return [nf.display(), same, other, len(red.core)]


def check_word(ctx, spec, result):
    w, nf, same, other, red = result
    g = ORACLE_GRAPHS[spec["graph"]]
    problems = []
    if same is not True:
        problems.append("equal(w, rewritten) is not True")
    if other is not False:
        problems.append("equal(w, w with one sign flipped) is not False")
    if raagkit.normal_form(nf).codes != nf.codes:
        problems.append("normal form is not idempotent")
    problems += _rebuild_problems(g, w, red.core, red.conjugator)
    if spec.get("oracle"):
        letters, nf_letters = g.letters(w), g.letters(nf)
        if not O.is_reduced(g, nf_letters):
            problems.append("normal form is not reduced")
        if not O.is_lex_least(g, nf_letters):
            problems.append("normal form is not the least shuffle")
        if not O.equal(g, letters, nf_letters):
            problems.append("normal form is not equal to the word")
        if not O.is_cyclically_reduced(g, g.letters(red.core)) and len(red.core):
            problems.append("core is not cyclically reduced")
    return problems


# -- cube geometry ------------------------------------------------------------

def run_ball(L, ctx, spec):
    return L.ball(ctx.graphs[spec["graph"]], spec["radius"])


def answer_ball(result):
    return [len(result), sorted(w.display() for w in result)[:: max(1, len(result) // 16)]]


def check_ball(ctx, spec, result):
    problems = []
    g = ORACLE_GRAPHS[spec["graph"]]
    if len({w.codes for w in result}) != len(result):
        problems.append("ball lists an element twice")
    for w in result:
        letters = g.letters(w)
        if len(letters) > spec["radius"] or not O.is_reduced(g, letters) \
                or not O.is_lex_least(g, letters):
            problems.append(f"ball element {w.display()} is not a normal form within the radius")
            break
    expected = BALL3_SIZE[spec["graph"]]
    if len(result) != expected:
        problems.append(f"ball has {len(result)} elements, recorded {expected}")
    return problems


def run_median(L, ctx, spec):
    x, y, z = (_parse(L, ctx, spec["graph"], spec[k]) for k in "xyz")
    return x, y, z, L.median(x, y, z)


def answer_median(result):
    return result[3].display()


def check_median(ctx, spec, result):
    return _median_problems(ORACLE_GRAPHS[spec["graph"]], *result)


def _median_problems(g, x, y, z, m) -> list[str]:
    for a, b in ((x, y), (x, z), (y, z)):
        if _dist(g, a, m) + _dist(g, m, b) != _dist(g, a, b):
            return [f"median {m.display()} is off a geodesic"]
    return []


def run_interval(L, ctx, spec):
    x = _parse(L, ctx, spec["graph"], spec["x"])
    y = _parse(L, ctx, spec["graph"], spec["y"])
    box = L.interval(x, y)
    L.count("cube.interval.halfspaces", len(box))
    ctx.intervals[spec["id"]] = box
    return x, y, box


def answer_interval(result):
    return [hs.display() for hs in result[2].halfspaces]


def check_interval(ctx, spec, result):
    x, y, box = result
    if len(box) != _dist(ORACLE_GRAPHS[spec["graph"]], x, y):
        return ["interval length differs from the distance"]
    if len(set(box.halfspaces)) != len(box):
        return ["interval repeats a half-space"]
    return []


def _pair(ctx, spec):
    """Two distinct half-spaces of a built interval, or None if it has fewer."""
    box = ctx.intervals[spec["id"]]
    n = len(box)
    if n < 2:
        return box, None, None
    i = spec["h"] % n
    j = spec["k"] % n
    if i == j:
        j = (i + 1) % n
    return box, box.halfspaces[i], box.halfspaces[j]


def run_relation(L, ctx, spec):
    box, h, k = _pair(ctx, spec)
    if h is None:
        return None
    return h, k, L.crosses(h, k, box), L.nested(h, k, box), L.tightly_nested(h, k, box)


def answer_relation(result):
    return None if result is None else list(result[2:])


def check_relation(ctx, spec, result):
    if result is None:
        return []
    h, k, cross, nest, tight = result
    problems = []
    if cross != (nest is None):
        problems.append("two separating half-spaces neither cross nor nest exactly once")
    if tight and nest is None:
        problems.append("tightly nested but not nested")
    if cross != raagkit.hyperplanes_cross(h, k):
        problems.append("crossing in the interval disagrees with global crossing")
    return problems


def run_chains(L, ctx, spec):
    box, h, k = _pair(ctx, spec)
    if h is None:
        return None
    direction = L.nested(h, k, box)
    if direction is None:
        return None
    outer, inner = (h, k) if direction == 1 else (k, h)
    chains = L.all_longest_chains(outer, inner, box)
    L.count("cube.chains.enumerated", len(chains))
    return box, chains


def answer_chains(result):
    if result is None:
        return None
    _, chains = result
    return [len(chains), chains[0].length if chains else -1,
            sorted({raagkit.midpoint(c).display() for c in chains if c.length >= 1})]


def check_chains(ctx, spec, result):
    if result is None:
        return []
    box, chains = result
    if not chains or len({c.length for c in chains}) != 1:
        return ["longest chains are missing or differ in length"]
    mids = [raagkit.midpoint(c) for c in chains if c.length >= 1]
    for i, a in enumerate(mids):
        for b in mids[i + 1:]:
            if a != b and not raagkit.crosses(a, b, box):
                return ["two longest-chain midpoints neither coincide nor cross"]
    return []


def run_axis(L, ctx, spec):
    g = _parse(L, ctx, spec["graph"], spec["g"])
    one = _parse(L, ctx, spec["graph"], "1")
    box = L.interval(one, g)
    L.count("cube.interval.halfspaces", len(box))
    return [(L.in_a_g_plus(g, hs), L.in_a_g_plus(g, hs.complement())) for hs in box.halfspaces]


def answer_axis(result):
    return result


def check_axis(ctx, spec, result):
    if not result or any(inside is not True or outside is not False for inside, outside in result):
        return ["a half-space of [1, g] is not in the attracting family (or its complement is)"]
    return []


def run_axioms(L, ctx, spec):
    report = L.check_special_axioms(ctx.graphs[spec["graph"]], samples=spec["samples"],
                                    radius=spec["radius"], seed=spec["seed"])
    L.count("cube.axioms.s4_eligible", report.checked.get("s4_eligible", 0))
    return report


def run_max_chains(L, ctx, spec):
    report = L.check_max_chains(ctx.graphs[spec["graph"]], samples=spec["samples"],
                                radius=spec["radius"], seed=spec["seed"])
    L.count("cube.max_chains.nested_pairs", report.nested_pairs)
    L.count("cube.max_chains.midpoint_pairs", report.midpoint_pairs)
    return report


def run_noov(L, ctx, spec):
    g = _parse(L, ctx, spec["graph"], spec["g"])
    report = L.search_prop_noov_violation(g, radius=spec["radius"], samples=spec["samples"],
                                          seed=spec["seed"])
    L.count("overlap.noov_search.triples", report.triples_checked)
    return report


def answer_report(report):
    return report.ok


def check_report(ctx, spec, report):
    return [] if report.ok else [f"search reports a violation: {report.violations[:1]}"]


# -- overlap closure ----------------------------------------------------------

def _closure_answer(reports):
    return [[r.n, r.max_overlap_length, str(r.bound), r.violated] for r in reports]


def _closure_problems(reports):
    problems = []
    for r in reports:
        if r.cap_exceeded:
            problems.append(f"n={r.n}: closure cap exceeded")
        if r.violated or r.max_overlap_length > r.bound:
            problems.append(f"n={r.n}: overlap {r.max_overlap_length} exceeds {r.bound}")
        if r.witness is not None:
            w = r.witness
            g = O.Graph(r.graph.vertices, r.graph.edges)
            rep, u = g.letters(w.representative), g.letters(w.u)
            if len(u) != r.max_overlap_length or not O.occurs_cyclically(rep, u, w.pos_u) \
                    or not O.occurs_cyclically(rep, O.inverse(u), w.pos_u_inv):
                problems.append(f"n={r.n}: witness does not occur as stated")
    return problems


def run_closure(L, ctx, spec):
    g = _parse(L, ctx, spec["graph"], spec["g"])
    reports = L.verify_key_lemma(g, n_max=spec["n_max"])
    L.count("overlap.closure.reps", sum(r.representatives_checked for r in reports))
    L.count("overlap.closure.cap_hits", sum(r.cap_exceeded for r in reports))
    return g, reports


def answer_closure(result):
    return _closure_answer(result[1])


def check_closure(ctx, spec, result):
    g, reports = result
    problems = _closure_problems(reports)
    recorded = CLOSURE_MAXIMA.get((spec["graph"], spec["g"]))
    if recorded is not None and [r.max_overlap_length for r in reports] != recorded:
        problems.append(f"closure maxima differ from the recorded {recorded}")
    oracle = O.Graph(g.graph.vertices, g.graph.edges)
    for r in reports:
        core = raagkit.core_of_power(g, r.n)
        proj, _ = raagkit.projection_overlap_bound(core)
        if proj < r.max_overlap_length:
            problems.append(f"n={r.n}: projection bound {proj} below closure maximum")
        if r.max_overlap_length < O.max_inverse_overlap(oracle.letters(core.word)):
            problems.append(f"n={r.n}: closure maximum below the overlap of its start")
    return problems


def run_sweep(L, ctx, spec):
    g = _parse(L, ctx, spec["graph"], spec["g"])
    n = spec["n"]
    core = L.core_of_power(g, n)
    proj, _ = L.projection_overlap_bound(core)
    scan, _ = L.max_inverse_overlap(core)
    bound = Fraction(len(core), 2 * n)
    certified = proj <= bound
    L.count("overlap.projection.certified", certified)
    closure = None
    if not certified:
        closure = L.verify_key_lemma(g, n_max=n)[-1]
        L.count("overlap.closure.reps", closure.representatives_checked)
        L.count("overlap.closure.cap_hits", closure.cap_exceeded)
    return core, proj, scan, closure


def answer_sweep(result):
    core, proj, _, closure = result
    return [len(core), proj, None if closure is None else _closure_answer([closure])]


def check_sweep(ctx, spec, result):
    core, proj, scan, closure = result
    problems = []
    if scan != O.max_inverse_overlap(ORACLE_GRAPHS[spec["graph"]].letters(core.word)):
        problems.append(f"single-word overlap {scan} differs from the oracle's")
    if scan > proj:
        problems.append(f"single-word overlap {scan} exceeds the projection bound {proj}")
    if spec["g"] in PROJECTION_HOLDOUTS.get(spec["graph"], ()) \
            and (closure and closure.max_overlap_length) != HOLDOUT_CLOSURE_MAXIMA.get(spec["n"]):
        problems.append("holdout closure maximum differs from the recorded value")
    if closure is not None:
        problems += _closure_problems([closure])
        if proj < closure.max_overlap_length:
            problems.append("projection bound below the closure maximum")
        if closure.max_overlap_length < scan:
            problems.append("closure maximum below the overlap of a member")
    return problems


# -- cli and certificates -------------------------------------------------------

def run_cli(L, ctx, spec):
    argv = [ctx.paths.get(a, a) for a in spec["argv"]]
    out, err = io.StringIO(), io.StringIO()
    code = L.cli_run(argv, out, err)
    return spec["command"], code, out.getvalue(), err.getvalue()


def _cli_value(command: str, out: str):
    """The value a subcommand printed, without its layout."""
    lines = out.splitlines()
    if command in ("nf", "cube-median"):
        return out.strip()
    if command == "cyc":
        return None  # the core word depends on the algorithm; check_cli tests it
    if command == "eq":
        return out.strip() == "equal"
    if command == "chromatic":
        return int(lines[0].split(":")[1].split()[0])
    if command == "scl-bound":
        return json.loads(out)["bound"]
    if command == "verify-overlap":
        return [[r["n"], r["max_overlap_length"], r["bound"], r["violated"]]
                for r in json.loads(out)]
    if command == "cube-interval":
        return lines[1:]
    if command in ("cube-axioms", "cube-chains"):
        return lines[-1] == "ok"
    if command == "gauss-bonnet":
        return next(line.split(":")[1].strip() for line in lines if line.startswith("residual:"))
    raise ValueError(f"no parser for {command}")


def answer_cli(result):
    command, code, out, _ = result
    return [code, _cli_value(command, out) if code == 0 else None]


def check_cli(ctx, spec, result):
    command, code, out, err = result
    name, words = spec["file"], spec["words"]
    if code != 0:
        return [f"exit code {code}: {err.strip()[:200]}"]
    value = _cli_value(command, out)
    lines = out.splitlines()
    graph = ctx.graphs.get(name)
    parsed = [Word.parse(graph, w) for w in words]
    if command == "nf":
        expected = raagkit.normal_form(parsed[0]).display()
        return [] if value == expected else [f"nf printed {value}, expected {expected}"]
    if command == "cyc":
        core = Word.parse(graph, lines[0].split(":", 1)[1])
        conj = Word.parse(graph, lines[1].split(":", 1)[1])
        g = ORACLE_GRAPHS[name]
        problems = _rebuild_problems(g, parsed[0], core, conj)
        if core and not O.is_cyclically_reduced(g, g.letters(core)):
            problems.append("cyc core is not cyclically reduced")
        return problems
    if command == "eq":
        return [] if value is spec["equal"] else [f"eq reports {value}, expected {spec['equal']}"]
    if command == "chromatic":
        assignment = {a: int(c) for a, c in
                      (p.split("=") for p in lines[1].split(":", 1)[1].split())}
        problems = [] if value == CHROMATIC[name] else [
            f"chromatic number {value}, recorded {CHROMATIC[name]}"]
        if not O.proper_coloring(ORACLE_GRAPHS[name], assignment, value):
            problems.append("printed coloring is not proper")
        return problems
    if command == "scl-bound":
        cert = raagkit.scl_lower_bound(graph, parsed[0])
        expected = "inf" if cert.bound is None else f"{cert.bound.numerator}/{cert.bound.denominator}"
        coloring = json.loads(out)["coloring"]
        problems = [] if value == expected else [f"bound {value} != library {expected}"]
        if coloring is not None and coloring["num_colors"] != CHROMATIC[name]:
            problems.append("certificate colors differ from the recorded chromatic number")
        return problems
    if command == "verify-overlap":
        data = json.loads(out)
        return [f"report n={r['n']}: cap exceeded or violated" for r in data
                if r["cap_exceeded"] or r["violated"]]
    if command == "cube-interval":
        d = _dist(ORACLE_GRAPHS[name], *parsed)
        ok = lines[0] == f"distance: {d}" and len(value) == d
        return [] if ok else ["cube interval distance or half-space count is wrong"]
    if command == "cube-median":
        return _median_problems(ORACLE_GRAPHS[name], *parsed, Word.parse(graph, value))
    if command in ("cube-axioms", "cube-chains"):
        return [] if value else [f"{command} reports {lines[-1]}"]
    if command == "gauss-bonnet":
        chi = lines[0].rsplit(":", 1)[1].strip()
        ok = value == "0" and chi == str(EULER[name])
        return [] if ok else [f"gauss-bonnet output wrong: {lines}"]
    return [f"no check for {command}"]


def run_certify(L, ctx, spec):
    with open(ctx.paths[spec["graph"]], encoding="utf-8") as fh:
        graph = L.parse_graph(fh.read())
    k, coloring, exact = L.chromatic_number(graph)
    triangle = L.find_triangle(graph)
    word = L.parse(graph, spec["word"])
    L.count("words.letters_in", len(word))
    cert = L.scl_lower_bound(graph, word)
    return k, coloring, exact, triangle, cert, L.verify_certificate(cert)


def answer_certify(result):
    k, _, exact, triangle, cert, verified = result
    bound = "inf" if cert.bound is None else str(cert.bound)
    return [k, exact, triangle is None, bound, cert.route, verified]


def check_certify(ctx, spec, result):
    k, coloring, exact, triangle, cert, verified = result
    g = ORACLE_GRAPHS[spec["graph"]]
    problems = []
    if not verified:
        problems.append("certificate does not verify")
    if k != CHROMATIC[spec["graph"]] or not exact:
        problems.append(f"chromatic number {k}, recorded {CHROMATIC[spec['graph']]}")
    if not O.proper_coloring(g, coloring.assignment, k):
        problems.append("coloring is not proper")
    if triangle is not None and not all(
            g.index[b] in g.adj[g.index[a]] for a, b in ((triangle[0], triangle[1]),
                                                          (triangle[1], triangle[2]),
                                                          (triangle[0], triangle[2]))):
        problems.append("reported triangle is not a triangle")
    return problems


def run_complex(L, ctx, spec):
    with open(ctx.paths[spec["complex"]], encoding="utf-8") as fh:
        cx = L.parse_complex(fh.read())
    L.count("complexes.corners", len(cx.corners))
    return cx, L.gauss_bonnet_residual(cx)


def answer_complex(result):
    cx, residual = result
    return [str(residual), raagkit.euler_characteristic(cx)]


def check_complex(ctx, spec, result):
    cx, residual = result
    problems = [] if residual == 0 else [f"Gauss-Bonnet residual {residual}"]
    if raagkit.euler_characteristic(cx) != EULER[spec["complex"]]:
        problems.append("Euler characteristic differs from the recorded value")
    return problems


KINDS = {
    "word": Kind(run_word, answer_word, check_word),
    "ball": Kind(run_ball, answer_ball, check_ball),
    "median": Kind(run_median, answer_median, check_median),
    "interval": Kind(run_interval, answer_interval, check_interval),
    "relation": Kind(run_relation, answer_relation, check_relation),
    "chains": Kind(run_chains, answer_chains, check_chains),
    "axis": Kind(run_axis, answer_axis, check_axis),
    "axioms": Kind(run_axioms, answer_report, check_report),
    "max_chains": Kind(run_max_chains, answer_report, check_report),
    "noov": Kind(run_noov, answer_report, check_report),
    "closure": Kind(run_closure, answer_closure, check_closure),
    "sweep": Kind(run_sweep, answer_sweep, check_sweep),
    "cli": Kind(run_cli, answer_cli, check_cli),
    "certify": Kind(run_certify, answer_certify, check_certify),
    "complex": Kind(run_complex, answer_complex, check_complex),
}


# ---------------------------------------------------------------------------
# seeded task lists
# ---------------------------------------------------------------------------


def gen_word_problem(rng):
    """Random words at lengths 16, 64 and 256; a quarter of each group are repeats.

    The length mix puts the median inside the 64-letter group and the 90th
    percentile inside the 256-letter group, and every pass has the same
    number of words and repeats of each graph and length, so neither
    percentile moves with the seed's share of long or repeated words.
    """
    tasks = []
    for graph in ("p3", "c5", "k3_pendant", "grotzsch"):
        for length, count in ((16, 36), (64, 60), (256, 24)):
            group = []
            for _ in range(count - count // 4):
                w = random_letters(rng, graph, length)
                v = rewrite(rng, graph, w)
                group.append({"graph": graph, "word": text(graph, w), "rewritten": text(graph, v),
                              "unequal": text(graph, flip_one(rng, v))})
            group += [dict(rng.choice(group)) for _ in range(count // 4)]
            tasks += [["word", spec] for spec in group]
    rng.shuffle(tasks)
    seen = set()
    for i, (_, spec) in enumerate(tasks):
        key = (spec["graph"], spec["word"])
        spec["repeat"] = key in seen
        seen.add(key)
        spec["oracle"] = i % 4 == 0
    return tasks


SEARCH_SEED = 0x5C1


def gen_cube_geometry(rng):
    """Axiom and chain searches, medians, intervals, relations and axis probes."""
    tasks = []
    box_id = 0

    def short(graph):
        return text(graph, random_letters(rng, graph, rng.randint(1, 3)))

    for graph in ("p3", "c5", "k3_pendant"):
        tasks.append(["ball", {"graph": graph, "radius": 3}])
        # the sampled searches keep one seed: their cost has a heavy tail in
        # the samples drawn, which would otherwise swamp a change's effect
        tasks.append(["axioms", {"graph": graph, "samples": 1500, "radius": 3,
                                 "seed": SEARCH_SEED}])
        tasks.append(["max_chains", {"graph": graph, "samples": 60, "radius": 3,
                                     "seed": SEARCH_SEED}])
        for _ in range(120):
            tasks.append(["median", {"graph": graph, "x": short(graph), "y": short(graph),
                                     "z": short(graph)}])
        for _ in range(60):
            box = ["interval", {"graph": graph, "x": short(graph), "y": short(graph),
                                "id": box_id}]
            pairs = [{"id": box_id, "h": rng.randrange(6), "k": rng.randrange(6)}
                     for _ in range(4)]
            # the interval is built before the queries that use it
            tasks.append([box] + [["relation", p] for p in pairs[:3]] + [["chains", pairs[3]]])
            box_id += 1
        for _ in range(5):
            g = cyclically_reduced_letters(rng, graph, rng.randint(2, 4))
            tasks.append(["axis", {"graph": graph, "g": text(graph, g)}])
    for graph, g in (("f2", "ab"), ("p3", "ac")):
        tasks.append(["noov", {"graph": graph, "g": g, "radius": 3, "samples": 16,
                               "seed": SEARCH_SEED}])
    rng.shuffle(tasks)
    return [t for item in tasks for t in (item if isinstance(item[0], list) else [item])]


#: Words whose projection bound fails for some n <= 4, so the sweep falls back
#: to the closure (found by a seeded search; random words of length <= 6
#: almost never need it).
PROJECTION_HOLDOUTS = {"c5": ("eCEAca", "badBAd"), "k3_pendant": ("dbcDCB", "DcBDbC")}
#: Recorded closure maximum of every holdout, by the powers that need the closure.
HOLDOUT_CLOSURE_MAXIMA = {3: 2, 4: 2}


def gen_overlap_closure(rng):
    """Three large fixed closures plus a projection sweep over cyclically reduced cores."""
    tasks = [["closure", {"graph": graph, "g": g, "n_max": n}]
             for (graph, g), n in ((("c5", "abcde"), 3), (("k3_pendant", "abdcBD"), 3),
                                   (("c5", "acBDea"), 3))]
    for graph in ("p3", "c5", "k3_pendant"):
        words = [text(graph, cyclically_reduced_letters(rng, graph, rng.randint(3, 6)))
                 for _ in range(40)]
        for g in words + list(PROJECTION_HOLDOUTS.get(graph, ())):
            tasks += [["sweep", {"graph": graph, "g": g, "n": n}] for n in range(1, 5)]
    rng.shuffle(tasks)
    return tasks


def gen_cli_certify(rng):
    """Every CLI subcommand on fixed files, plus direct certificate audits."""
    tasks = []

    def cli(command, name, words=(), flags=(), **extra):
        argv = command.split("-", 1) if command.startswith("cube-") else [command]
        tasks.append(["cli", {"command": command, "file": name, "words": list(words),
                              "argv": argv + [name, *words, *flags], **extra}])

    def commutator(graph, length):
        """A nontrivial commutator: a trivial one skips the colouring and costs almost nothing."""
        while True:
            u = random_letters(rng, graph, length)
            v = random_letters(rng, graph, length)
            w = u + v + O.inverse(u) + O.inverse(v)
            if O.reduce(ORACLE_GRAPHS[graph], w):
                return text(graph, w)

    for graph in ("m5", "grotzsch"):
        cli("chromatic", graph)
        for _ in range(2):
            cli("scl-bound", graph, [commutator(graph, 2)], ["--json"])
        tasks.append(["certify", {"graph": graph, "word": commutator(graph, 2)}])
    for graph in ("p3", "c5", "k3_pendant"):
        cli("scl-bound", graph, [commutator(graph, 3)], ["--json"])
        tasks.append(["certify", {"graph": graph, "word": commutator(graph, 3)}])
        for _ in range(2):
            g = text(graph, cyclically_reduced_letters(rng, graph, 3))
            cli("verify-overlap", graph, [g], ["--n-max", "3", "--json"])
        cli("cube-axioms", graph, flags=["--radius", "2", "--samples", "150",
                                         "--seed", str(SEARCH_SEED)])
        cli("cube-chains", graph, flags=["--radius", "2", "--samples", "20",
                                         "--seed", str(SEARCH_SEED)])
        for _ in range(4):
            x, y, z = (text(graph, random_letters(rng, graph, rng.randint(1, 4)))
                       for _ in range(3))
            cli("cube-interval", graph, [x, y])
            cli("cube-median", graph, [x, y, z])
    for name in COMPLEXES:
        cli("gauss-bonnet", name)
        tasks.append(["complex", {"complex": name}])
    # enough small word calls that the 22 heavy calls above (6 ms to 0.5 s)
    # stay beyond the 90th percentile, which then lies in a dense region;
    # fixed counts per length keep it from moving with the seed's mix
    for graph in ("p3", "c5", "k3_pendant", "grotzsch"):
        for length in [8] * 7 + [16] * 7 + [32] * 6:
            w = random_letters(rng, graph, length)
            cli("nf", graph, [text(graph, w)])
            cli("cyc", graph, [text(graph, w)])
            v = rewrite(rng, graph, w)
            cli("eq", graph, [text(graph, w), text(graph, v)], equal=True)
            cli("eq", graph, [text(graph, w), text(graph, flip_one(rng, v))], equal=False)
    rng.shuffle(tasks)
    return tasks


class Workload(NamedTuple):
    generate: Callable
    graphs: tuple[str, ...]
    complexes: tuple[str, ...] = ()


WORKLOADS = {
    "word-problem": Workload(gen_word_problem, ("p3", "c5", "k3_pendant", "grotzsch")),
    "cube-geometry": Workload(gen_cube_geometry, ("f2", "p3", "c5", "k3_pendant")),
    "overlap-closure": Workload(gen_overlap_closure, ("p3", "c5", "k3_pendant")),
    "cli-certify": Workload(gen_cli_certify, tuple(GRAPHS), tuple(COMPLEXES)),
}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives byte-identical inputs."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return {
        "workload": workload,
        "seed": seed,
        "graphs": {name: graph_text(name) for name in wl.graphs},
        "complexes": {name: COMPLEXES[name]() for name in wl.complexes},
        "tasks": wl.generate(rng),
    }
