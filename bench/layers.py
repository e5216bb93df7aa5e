"""The benchmark's view of raagkit's layers, with optional tracing.

Workload tasks call the package only through a :class:`Layers` object.  An
untraced ``Layers`` binds each public function directly, so the timed path
pays one attribute lookup and nothing more.  A traced ``Layers`` wraps each
function in a span named after its layer (``words.normal_form``,
``cube.interval``, ``cli.nf`` ...).  Spans are recorded only around the
benchmark's own calls: work one layer does inside another stays attributed
to the caller, and nothing in ``src/`` is patched.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import raagkit
from raagkit import cli

#: span name -> public function, for every layer call a task may make.
API = {
    "words.parse": raagkit.Word.parse,
    "words.normal_form": raagkit.normal_form,
    "words.equal": raagkit.equal,
    "words.cyclically_reduce": raagkit.cyclically_reduce,
    "cube.ball": raagkit.ball,
    "cube.interval": raagkit.interval,
    "cube.median": raagkit.median,
    "cube.relations.crosses": raagkit.crosses,
    "cube.relations.nested": raagkit.nested,
    "cube.relations.tightly_nested": raagkit.tightly_nested,
    "cube.chains": raagkit.all_longest_chains,
    "cube.in_a_g_plus": raagkit.in_a_g_plus,
    "cube.axioms": raagkit.check_special_axioms,
    "cube.max_chains": raagkit.check_max_chains,
    "overlap.noov_search": raagkit.search_prop_noov_violation,
    "overlap.closure": raagkit.verify_key_lemma,
    "overlap.projection": raagkit.projection_overlap_bound,
    "overlap.scan": raagkit.max_inverse_overlap,
    "overlap.core_of_power": raagkit.core_of_power,
    "graphs.parse_graph": raagkit.parse_graph,
    "graphs.chromatic": raagkit.chromatic_number,
    "graphs.find_triangle": raagkit.find_triangle,
    "bounds.scl_lower_bound": raagkit.scl_lower_bound,
    "bounds.verify_certificate": raagkit.verify_certificate,
    "complexes.parse": raagkit.parse_complex,
    "complexes.residual": raagkit.gauss_bonnet_residual,
}

#: The eleven CLI subcommands, as ``cli.<name>`` span suffixes.
CLI_COMMANDS = (
    "nf", "cyc", "eq", "chromatic", "scl-bound", "verify-overlap",
    "cube-interval", "cube-median", "cube-axioms", "cube-chains", "gauss-bonnet",
)


def cli_command(argv: list[str]) -> str:
    """The subcommand name of a CLI argument list (``cube interval`` -> ``cube-interval``)."""
    return f"cube-{argv[1]}" if argv[0] == "cube" else argv[0]


class Layers:
    """Entry points into raagkit, plain or wrapped in spans.

    Attributes carry the wrapped function's own name (``L.normal_form``,
    ``L.parse_complex``, ...), plus ``L.cli_run(argv, out, err)`` and
    ``L.count(name, amount)`` for work counters.  ``overrides`` replaces
    functions by span name, which the self-tests use to plant wrong answers.
    """

    def __init__(self, tracer: "Tracer | None" = None, overrides: dict | None = None):
        table = dict(API, **(overrides or {}))
        for name, fn in table.items():
            setattr(self, API[name].__name__, fn if tracer is None else tracer.wrap(name, fn))
        if tracer is None:
            self.cli_run = cli.run
            self.count = _no_count
        else:
            self.cli_run = tracer.wrap_cli(cli.run)
            self.count = tracer.count


def _no_count(name: str, amount: float = 1) -> None:
    return None


class Tracer:
    """In-memory spans of traced passes, written out when the run ends.

    A span is ``[id, name, start, end, parent id, task id]``.  Task spans
    have no parent; layer spans are children of the task span open when the
    call was made.  Counters recorded with :meth:`count` are kept per pass.
    """

    FIELDS = ("id", "name", "start", "end", "parent", "task")

    def __init__(self):
        self.passes: list[dict] = []  # {"spans": [...], "counters": {...}} per traced pass
        self._next_id = 0
        self._task_span: list | None = None

    def begin_pass(self) -> None:
        self._spans: list[list] = []
        self._counters: dict[str, float] = {}
        self.passes.append({"spans": self._spans, "counters": self._counters})

    def begin_task(self, task_id: int, kind: str) -> None:
        self._task_span = [self._next_id, f"task.{kind}", perf_counter(), None, None, task_id]
        self._next_id += 1
        self._spans.append(self._task_span)

    def end_task(self) -> None:
        self._task_span[3] = perf_counter()

    def _record(self, name: str, start: float, end: float) -> None:
        task = self._task_span
        self._spans.append([self._next_id, name, start, end, task[0], task[5]])
        self._next_id += 1

    def wrap(self, name: str, fn):
        record = self._record

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, start, perf_counter())

        return traced

    def wrap_cli(self, run):
        record = self._record

        def traced(argv, out=None, err=None):
            start = perf_counter()
            try:
                return run(argv, out=out, err=err)
            finally:
                record(f"cli.{cli_command(argv)}", start, perf_counter())

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

#: Per-layer metric -> (end-to-end metrics it should move, workload).  Names,
#: units and directions are declared in BENCHMARK.json.
SHOULD_MOVE: dict[str, tuple[str, str]] = {}


def _declare(names, moves, workload):
    for name in names:
        SHOULD_MOVE[name] = (moves, workload)


_declare([f"words.{f}.busy_s" for f in ("parse", "normal_form", "equal", "cyclically_reduce")]
         + ["words.parse.calls", "words.normal_form.calls", "words.letters_in",
            "words.letters_per_s", "words.repeat_share"],
         "wall_s,task_p50_ms", "word-problem")
_declare([f"cube.{f}.busy_s" for f in ("ball", "interval", "median", "relations", "chains",
                                       "in_a_g_plus", "axioms", "max_chains")]
         + ["overlap.noov_search.busy_s",
            "cube.interval.calls", "cube.median.calls", "cube.relations.calls",
            "cube.interval.halfspaces", "cube.chains.enumerated", "cube.axioms.s4_eligible",
            "cube.max_chains.nested_pairs", "cube.max_chains.midpoint_pairs",
            "overlap.noov_search.triples"],
         "wall_s,task_p90_ms", "cube-geometry")
_declare(["overlap.closure.busy_s", "overlap.closure.reps", "overlap.closure.cap_hits",
          "overlap.closure.reps_per_s"],
         "wall_s,peak_rss_mb", "overlap-closure")
_declare(["overlap.projection.busy_s", "overlap.scan.busy_s", "overlap.core_of_power.busy_s",
          "overlap.projection.calls", "overlap.projection.certified_share"],
         "task_p50_ms", "overlap-closure")
_declare(["graphs.parse_graph.busy_s", "graphs.chromatic.busy_s", "graphs.find_triangle.busy_s",
          "bounds.scl_lower_bound.busy_s", "bounds.verify_certificate.busy_s",
          "complexes.parse.busy_s", "complexes.residual.busy_s", "complexes.corners"],
         "wall_s", "cli-certify")
_declare([f"cli.{c}.{m}" for m in ("p50_ms", "calls") for c in CLI_COMMANDS],
         "task_p50_ms,task_p90_ms", "cli-certify")
_declare(["trace_overhead"], "(none: cost of tracing itself)", "all")

#: span name -> the per-layer group it is summed into.
_SPAN_GROUP = {name: name for name in API}
_SPAN_GROUP.update({f"cube.relations.{r}": "cube.relations"
                    for r in ("crosses", "nested", "tightly_nested")})


def layer_metrics(tracer: Tracer, names, repeat_share: float, overhead: float) -> dict[str, float]:
    """Reduce a traced run to the per-layer metrics ``names``.

    Busy times are the least over traced passes, and a CLI call's latency
    is its least over passes, which resists host noise.  They are plain
    seconds: traced passes run no speed probes, which would land inside
    the spans.  Calls and counters are the same in every pass.
    """
    busy: dict[str, float] = {}
    cli_best: dict[int, tuple[str, float]] = {}
    for traced_pass in tracer.passes:
        pass_busy: dict[str, float] = {}
        for _, name, start, end, _, task in traced_pass["spans"]:
            if name.startswith("task."):
                continue
            if name.startswith("cli."):
                best = cli_best.get(task, (name, end - start))[1]
                cli_best[task] = (name, min(best, end - start))
            group = _SPAN_GROUP.get(name, name)
            pass_busy[group] = pass_busy.get(group, 0.0) + (end - start)
        for group, value in pass_busy.items():
            busy[group] = min(busy.get(group, value), value)
    first = tracer.passes[0]
    counters = first["counters"]
    calls: dict[str, int] = {}
    for span in first["spans"]:
        group = _SPAN_GROUP.get(span[1], span[1])
        calls[group] = calls.get(group, 0) + 1

    out: dict[str, float] = {}
    for metric in names:
        stem, _, leaf = metric.rpartition(".")
        if leaf == "busy_s":
            out[metric] = busy.get(stem, 0.0)
        elif leaf == "calls":
            out[metric] = calls.get(stem, 0)
        elif leaf == "p50_ms":
            samples = [ms for name, ms in cli_best.values() if name == stem]
            out[metric] = statistics.median(samples) * 1000.0 if samples else 0.0
        else:
            out[metric] = counters.get(metric, 0)
    words_busy = sum(busy.get(f"words.{f}", 0.0)
                     for f in ("parse", "normal_form", "equal", "cyclically_reduce"))
    out["words.letters_per_s"] = out["words.letters_in"] / words_busy if words_busy else 0.0
    closure = busy.get("overlap.closure", 0.0)
    out["overlap.closure.reps_per_s"] = out["overlap.closure.reps"] / closure if closure else 0.0
    projections = calls.get("overlap.projection", 0)
    out["overlap.projection.certified_share"] = (
        counters.get("overlap.projection.certified", 0) / projections if projections else 0.0)
    out["words.repeat_share"] = repeat_share
    out["trace_overhead"] = overhead
    return out
