import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from raagkit import DefiningGraph

# One verdict line per acceptance criterion at the end of the run. A criterion
# backed by several tests passes only if all of them do.
_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[int, bool] = {}
    for outcome, ok in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            verdicts[num] = verdicts.get(num, True) and ok
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        word = "PASS" if verdicts[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {word}")


@pytest.fixture(scope="session")
def edgeless2():
    return DefiningGraph(["a", "b"], [])


@pytest.fixture(scope="session")
def edgeless3():
    return DefiningGraph(["a", "b", "c"], [])


@pytest.fixture(scope="session")
def p3():
    """Path a - b - c: the only commutations are ab and bc."""
    return DefiningGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture(scope="session")
def c4():
    return DefiningGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )


@pytest.fixture(scope="session")
def c5():
    return DefiningGraph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )


@pytest.fixture(scope="session")
def k3_pendant():
    """Triangle abc with an extra vertex d attached only to a."""
    return DefiningGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")]
    )


def _mycielskian(names, edges, shadow, apex):
    """One shadow per vertex, joined to that vertex's neighbours, plus an apex
    joined to every shadow.

    Mycielski (1955): the result has no triangle when the graph has none, and
    its chromatic number is one more.  n vertices and m edges become 2n + 1
    vertices and 3m + n edges.
    """
    out = list(edges)
    for a, b in edges:
        out += [(shadow(a), b), (shadow(b), a)]
    out += [(shadow(v), apex) for v in names]
    return names + [shadow(v) for v in names] + [apex], out


def _grotzsch_edges():
    # Mycielskian of C5: cycle v0..v4, shadow u0..u4, apex z.
    cycle = [f"v{i}" for i in range(5)]
    ring = [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)]
    return _mycielskian(cycle, ring, lambda v: "u" + v[1:], "z")


@pytest.fixture(scope="session")
def grotzsch():
    """Smallest triangle-free graph with chromatic number 4."""
    names, edges = _grotzsch_edges()
    return DefiningGraph(names, edges)


@pytest.fixture(scope="session")
def m5():
    """Mycielskian of the Grötzsch graph: triangle-free, chromatic number 5,
    23 vertices and 71 edges (shadows s<v>, apex w)."""
    names, edges = _mycielskian(*_grotzsch_edges(), lambda v: "s" + v, "w")
    return DefiningGraph(names, edges)


@pytest.fixture(scope="session")
def suite_graphs(edgeless2, edgeless3, p3, c5, k3_pendant):
    """The exhaustive-overlap suite: small graphs of genuinely different shapes."""
    return {
        "edgeless2": edgeless2,
        "edgeless3": edgeless3,
        "p3": p3,
        "c5": c5,
        "k3_pendant": k3_pendant,
    }


@pytest.fixture(scope="session")
def four_gen_graphs(edgeless2, edgeless3, p3, c4, k3_pendant):
    """Graphs used for randomized word/geometry sweeps (<= 4 generators)."""
    return {
        "edgeless2": edgeless2,
        "edgeless3": edgeless3,
        "p3": p3,
        "c4": c4,
        "k3_pendant": k3_pendant,
    }
