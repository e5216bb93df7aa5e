"""Run one raagkit benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload word-problem [--seed 0x5C1] [--seconds N] [--trace 0|1]

The run is a closed loop: one process, no threads, each task starts when the
previous one returns.  Passes over the workload's fixed task list repeat
while another fits in ``--seconds`` (at least three passes).  It defaults to
``run_seconds`` of ``BENCHMARK.json``; compare runs only at the same value.
Every pass starts from freshly parsed graphs, so per-graph caches are cold
at its start.  Task latencies are scaled to a fixed host speed (see
``speed.py``), and timings use each task's median over the passes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics together with
``trace_overhead``.  Every line but the last is for people; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 0x5C1
#: Held out for confirming a claimed gain; not used while tuning a change.
HELD_OUT_SEED = 0xA11CE
MIN_PASSES = 3
SETUP_REPEATS = 8  # before and again after the passes

#: Names, units and bounds of the workloads and metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# Times the import and the loads, then the host speed right after them (the
# reference kernel's mean speed over 10 runs), so that no module raagkit uses
# is loaded before the timed part.
SETUP_SCRIPT = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import raagkit
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    (raagkit.parse_complex if path.endswith(".json") else raagkit.parse_graph)(text)
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(took, speed.REFERENCE_S * sum(1 / speed.kernel_seconds() for _ in range(10)) / 10)
"""


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC / "raagkit").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": digest({p.name: p.read_text(encoding="utf-8") for p in sources}),
        "seed": seed,
        "machine": "no pinning, governor, cache-drop or cgroup changes; user-level timers "
                   "only; latencies scaled by a reference kernel timed alongside",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(inputs: dict, workdir: Path) -> dict[str, str]:
    """Write the workload's graph and complex files; map names to paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, body in inputs["graphs"].items():
        paths[name] = str(workdir / f"{name}.graph")
        Path(paths[name]).write_text(body, encoding="utf-8")
    for name, body in inputs["complexes"].items():
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(body, encoding="utf-8")
    return paths


def measure_setup(paths: dict[str, str]) -> list[float]:
    """Time, in fresh interpreters, to import raagkit and load the files.

    Each time is scaled by the reference kernel timed in the same
    interpreter right after the loads (see ``speed.py``).
    """
    env = {k: v for k, v in os.environ.items() if k != "RAAG_KIT_CAPS"}
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), str(BENCH), *paths.values()],
            capture_output=True, text=True, timeout=60, check=True, env=env, cwd=ROOT)
        took, speed = map(float, done.stdout.split())
        times.append(took * speed)
    return times


class Runner:
    """Runs passes over one task list and keeps answers, failures and timings."""

    def __init__(self, inputs: dict, paths: dict[str, str], expected: list[str] | None):
        self.inputs = inputs
        self.tasks = inputs["tasks"]
        self.paths = paths
        self.expected = expected
        self.reference: list | None = None  # answers of the first pass
        self.bad: set[int] = set()           # tasks whose first-pass check failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, L, tracer=None, meter=None) -> tuple[float, list[float]]:
        """One pass; returns its wall time and every task's latency.

        With a :class:`speed.Speedometer` the latencies are scaled to its
        reference speed; without one they are plain seconds.
        """
        from workloads import KINDS, Context

        ctx = Context(self.inputs, self.paths)
        if tracer is not None:
            tracer.begin_pass()
        if meter is not None:
            meter.start()
        results, spans = [], []
        start = perf_counter()
        try:
            for task_id, (kind, spec) in enumerate(self.tasks):
                run = KINDS[kind].run
                if tracer is not None:
                    tracer.begin_task(task_id, kind)
                t0 = perf_counter()
                try:
                    result = run(L, ctx, spec)
                except Exception as exc:  # a raising task is a failed operation; the run goes on
                    result = TaskError(exc)
                spans.append((t0, perf_counter()))
                if tracer is not None:
                    tracer.end_task()
                results.append(result)
            wall = perf_counter() - start
        finally:
            if meter is not None:
                meter.stop()
        self.judge(ctx, results)
        if meter is not None:
            return wall, meter.scale(spans)
        return wall, [t1 - t0 for t0, t1 in spans]

    def judge(self, ctx, results: list) -> None:
        """Count failures: full checks on the first pass, answer identity after."""
        from workloads import KINDS

        first = self.reference is None
        answers = []
        for task_id, ((kind, spec), result) in enumerate(zip(self.tasks, results)):
            self.attempted += 1
            problems = []
            answer = None
            if isinstance(result, TaskError):
                problems.append(result.describe())
            else:
                try:
                    answer = KINDS[kind].answer(result)
                    if first:
                        problems += KINDS[kind].check(ctx, spec, result)
                except Exception:  # a check that raises marks the answer malformed
                    problems.append("check raised: " + traceback.format_exc(limit=3))
            answers.append(answer)
            if first:
                if self.expected is not None and answer_hash(answer) != self.expected[task_id]:
                    problems.append("answer differs from the one recorded for this seed")
                if problems:
                    self.bad.add(task_id)
            else:
                if answer != self.reference[task_id]:
                    problems.append("answer differs from the first pass")
                elif task_id in self.bad:
                    problems.append("same wrong answer as the first pass")
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"task {task_id} {kind} {json.dumps(spec)[:160]}: "
                                         f"{'; '.join(problems)[:400]}")
        if first:
            self.reference = answers


class TaskError:
    """Stands in for the result of a task that raised."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def describe(self) -> str:
        return f"raised {type(self.exc).__name__}: {self.exc}"


def answer_hash(answer) -> str:
    return digest(answer)[:12]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_expected(workload: str, seed: int) -> list[str] | None:
    path = BENCH / "expected.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8"))
    return recorded.get(str(seed), {}).get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None, min_passes: int = MIN_PASSES) -> dict:
    """Measure one workload; returns the result record (see module docstring)."""
    from layers import Layers, Tracer, layer_metrics
    from speed import Speedometer
    from workloads import generate

    inputs = generate(workload, seed)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        paths = write_inputs(inputs, workdir)
        runner = Runner(inputs, paths, load_expected(workload, seed))
        record = {"env": environment(seed), "workload": workload,
                  "input_sha256": digest(inputs), "tasks": len(inputs["tasks"])}
        metrics: dict[str, float] = {}
        if not trace:
            setup = measure_setup(paths)
            plain, meter = Layers(overrides=overrides), Speedometer()
            passes = repeat_until(seconds, min_passes, lambda: runner.run_pass(plain, meter=meter))
            # the median over both blocks of interpreters, which are a run apart
            metrics["setup_s"] = statistics.median(setup + measure_setup(paths))
            typical = median_latencies(passes)
            metrics["wall_s"] = sum(typical)
            metrics["task_p50_ms"] = statistics.median(typical) * 1000.0
            metrics["task_p90_ms"] = percentile(typical, 90) * 1000.0
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["pass_walls"] = [wall for wall, _ in passes]
        else:
            tracer = Tracer()
            plain, traced = Layers(overrides=overrides), Layers(tracer, overrides=overrides)

            def step():
                return runner.run_pass(plain), runner.run_pass(traced, tracer)

            pairs = repeat_until(seconds, max(2, min_passes - 1), step)
            overhead = (sum(best_latencies([t for _, t in pairs]))
                        / sum(best_latencies([p for p, _ in pairs])) - 1.0)
            repeats = sum(1 for _, spec in inputs["tasks"] if spec.get("repeat"))
            word_tasks = sum(1 for kind, _ in inputs["tasks"] if kind == "word")
            metrics = layer_metrics(tracer, units("per_layer"),
                                    repeats / word_tasks if word_tasks else 0.0, overhead)
            record["pass_walls"] = [wall for pair in pairs for wall, _ in pair]
            write_trace(workload, seed, record, tracer)
        record.update(attempted=runner.attempted, failed=runner.failed,
                      problems=runner.problems, metrics=metrics)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def median_latencies(passes: list[tuple[float, list[float]]]) -> list[float]:
    """Each task's median latency over the passes."""
    return [statistics.median(lat) for lat in zip(*(lat for _, lat in passes))]


def best_latencies(passes: list[tuple[float, list[float]]]) -> list[float]:
    """Each task's least latency over the passes.

    Host contention only ever adds time and comes in bursts, so a task's
    fastest run is the steadiest estimate of what the task itself costs.
    """
    return [min(lat) for lat in zip(*(lat for _, lat in passes))]


def repeat_until(seconds: float, at_least: int, step) -> list:
    """Call ``step`` at least ``at_least`` times, then while another call fits in ``seconds``."""
    out = []
    start = last = perf_counter()
    longest = 0.0
    while len(out) < at_least or (perf_counter() - start) + longest <= seconds:
        out.append(step())
        now = perf_counter()
        longest, last = max(longest, now - last), now
    return out


def write_trace(workload: str, seed: int, record: dict, tracer) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({**record, "fields": tracer.FIELDS, "passes": tracer.passes}, fh)


def prepare() -> str | None:
    """Import raagkit from this checkout's ``src/`` with caps cleared; an error or None."""
    if not (SRC / "raagkit" / "__init__.py").is_file():
        return f"no raagkit sources at {SRC}; run from a full checkout"
    # RAAG_KIT_CAPS would make cli.run rewrite cube.DEFAULT_HULL_CAP for the whole process
    os.environ.pop("RAAG_KIT_CAPS", None)
    sys.path.insert(0, str(SRC))
    import raagkit

    if Path(raagkit.__file__).resolve().parent != SRC / "raagkit":
        return f"imported raagkit from {raagkit.__file__}, not {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} input_sha256 {record['input_sha256']} "
          f"tasks/pass {record['tasks']}")
    print(f"# pass walls (s): {' '.join(f'{w:.4g}' for w in record['pass_walls'])}")
    unit = units("per_layer" if args.trace else "end_to_end")
    for name, value in record["metrics"].items():
        print(f"{name} {value:.6g} {unit[name]}")
    print(f"fail_ratio {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
