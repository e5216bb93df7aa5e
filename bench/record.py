"""Record the canonical answers of the default and held-out seeds.

Usage (from the repository root)::

    python3 bench/record.py

Runs one checked pass of every workload for both seeds and writes the
answer hashes to ``bench/expected.json``.  Later runs with either seed
compare every task's answer against them.  Re-record only when an answer
is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from layers import Layers
    from workloads import WORKLOADS, generate

    recorded: dict[str, dict[str, list[str]]] = {}
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        for workload in WORKLOADS:
            inputs = generate(workload, seed)
            workdir = run.OUT / "record"
            paths = run.write_inputs(inputs, workdir)
            runner = run.Runner(inputs, paths, expected=None)
            runner.run_pass(Layers())
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            recorded.setdefault(str(seed), {})[workload] = [
                run.answer_hash(a) for a in runner.reference]
            print(f"seed {seed} {workload}: {len(runner.reference)} answers")
            shutil.rmtree(workdir)
    (run.BENCH / "expected.json").write_text(json.dumps(recorded) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
