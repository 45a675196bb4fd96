#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 bench/selftest.py

For every workload, built at a tiny size with the same command shape, it
makes one untraced and two traced runs and checks that

1. every run passes its own output checks;
2. each run emits exactly the metrics BENCHMARK.json names, each with the
   unit BENCHMARK.json gives it;
3. the traced run's stdout and output files are byte-identical to the
   untraced run's;
4. every count (calls, iterations, failures, grid points) repeats exactly
   across the two traced runs;
5. no timing reads zero, in either kind of run;
6. the grid failures the untraced run counts through ``grid_probe.py``
   agree with the traced run's.

It prints one line per problem and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def _emitted(outcome) -> dict:
    doc = json.loads(run.result_line(outcome))
    return {name: entry["unit"] for name, entry in doc["metrics"].items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [name for name, unit in per_layer.items() if unit == "count"]
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    work = run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in run.WORKLOADS:
            workload = run.build_workload(name, seed=0, tiny=True)
            # a few seconds of measuring time take the tiny sequence round more than once
            untraced = run.run_untraced(workload, work, seconds=3.0)
            traced = [run.run_traced(workload, work, work / "results") for _ in range(2)]
            for label, outcome in [("untraced", untraced), ("traced", traced[0]),
                                   ("traced again", traced[1])]:
                for problem in outcome.record["problems"]:
                    problems.append(f"{name} {label}: {problem}")
            if problems:
                continue
            if _emitted(untraced) != end_to_end:
                problems.append(f"{name}: untraced metrics/units differ from BENCHMARK.json")
            for outcome in traced:
                if _emitted(outcome) != per_layer:
                    problems.append(f"{name}: traced metrics/units differ from BENCHMARK.json")
            if traced[0].record["digests"] != untraced.record["digests"]:
                problems.append(f"{name}: traced outputs differ from untraced outputs")
            for metric in counts:
                first, second = traced[0].metrics[metric], traced[1].metrics[metric]
                if first != second:
                    problems.append(f"{name}: {metric} is {first} then {second}")
            for outcome in (untraced, *traced):
                for metric, value in outcome.metrics.items():
                    if outcome.units[metric] == "s" and not value > 0:
                        problems.append(f"{name}: timing {metric} is {value}")
            if traced[0].metrics["select.grid_points"]:
                converged = 1.0 - traced[0].metrics["select.grid_failed_share"]
                if untraced.metrics["grid_converged_share"] != converged:
                    problems.append(f"{name}: grid_converged_share differs from the traced count")
            if problems:
                continue
            print(f"{name}: ok ({len(untraced.metrics)} end-to-end and "
                  f"{len(traced[0].metrics)} per-layer metrics; "
                  f"{len(untraced.record['passes'])} untraced passes)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
