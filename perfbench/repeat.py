"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py

For every workload in BENCHMARK.json it runs run.py with --trace 0 for the
seeds 1..RUNS, then once with --trace 1, from the repository root, each
measuring run_seconds.  For every end-to-end metric it prints the median,
the quartiles as statistics.quantiles(n=4) gives them, and their distance
as a share of the median against the bound in BENCHMARK.json; for the
per-layer metrics it prints the median.  The full table, with provenance,
goes to perfbench/out/repeat.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402

RUNS = 10
OUT = os.path.join(HERE, "out", "repeat.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", f"{tag}.json"), encoding="utf-8") as fh:
        result["record"] = json.load(fh)
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    table = {"run_seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        table["provenance"] = runs[0]["record"]["provenance"]
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs + [traced]),
                 "failed": sum(r["failed"] for r in runs + [traced]),
                 "attempted": sum(r["attempted"] for r in runs + [traced]),
                 "inputs": runs[0]["record"]["inputs"], "end_to_end": {}, "per_layer": {}}
        digests = {r["record"]["info"].get("stdout_sha256") for r in runs + [traced]} - {None}
        if digests:
            entry["stdout_sha256"] = sorted(digests)
        all_ok &= entry["correct"]
        print(f"== {workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = quartile_spread(values)
            steady = name == "setup_s" or spread < bound / 3
            entry["end_to_end"][name] = {"values": values, "median": statistics.median(values),
                                         "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:24s} median {statistics.median(values):12.6g} {unit:4s} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:6.3f} bound {bound:5.2f}"
                  f"{'' if steady else '  <-- above a third of the bound'}")
        timed = traced["record"]["info"]["traced_timed_s"]
        for name, metric in traced["metrics"].items():
            value, unit = metric["value"], metric["unit"]
            entry["per_layer"][name] = value
            share = f"  {value / timed:7.1%} of the traced phase" if unit == "s" else ""
            print(f"  {name:36s} {value:14.6g} {unit}{share}")
        table["workloads"][workload] = entry
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
