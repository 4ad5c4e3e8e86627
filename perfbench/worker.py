"""One measured process: set-up, a timed phase, then the correctness checks.

    python3 perfbench/worker.py --workload W --seed S --mode setup|run|trace
                                [--seconds T | --passes P]

It prints READY once metlie is imported and the inputs are in memory, then
(modes run and trace) one JSON line with the measurements.  Mode run samples
the host's speed while it works (speed.py) and reports every time both
unscaled and at the reference speed; mode trace wraps metlie's functions
instead.  run.py starts it with src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time

import certcheck
import inputs
from speed import SpeedProbe
from stats import percentile
from tracing import OBSERVERS, Tracer, layer_metrics

CONSISTENCY_ARGS = ["--n", "2", "--json", "consistency", inputs.CATALOG]

# Grid entries evaluated per system at the commit that defined the
# benchmark: abelian Z_2, Z_3, Z_4 and the (1,1,2) matrix model.  A run that
# evaluates fewer has skipped work, not made it faster.
MIN_EVALUATED_PER_SYSTEM = 4

# (module, attribute the caller looks up, span name) per workload.
DECIDE_PATCHES = [
    ("metlie.primitivity", "jacobi_matrix", "calculus.jacobi_matrix"),
    ("metlie.primitivity", "minors", "calculus.minors"),
    ("metlie.primitivity", "reduce_pqm", "poly.reduce_pqm"),
    ("metlie.primitivity", "ideal_contains_one", "primitivity.ideal_contains_one"),
    ("metlie.poly", "ideal_contains_finite", "poly.ideal_contains_finite"),
    ("metlie.calculus", "det", "calculus.det"),
]
CONSISTENCY_PATCHES = DECIDE_PATCHES + [
    ("metlie.cli", "parse", "expr.parse"),
    ("metlie.cli", "from_expr", "ring.from_expr"),
    ("metlie.cli", "is_primitive", "primitivity.is_primitive"),
    ("metlie.cli", "uniformity_check", "model.uniformity_check"),
    ("metlie.cli", "uniformity_check_abelian", "model.uniformity_check_abelian"),
    ("metlie.cli", "run_consistency", "cli.run_consistency"),
]


def run_consistency(tracer):
    from metlie import cli

    main = tracer.traced(cli.main, "cli.main") if tracer else cli.main
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(CONSISTENCY_ARGS))
    except Exception as exc:  # a crash is a failed run, reported below
        code = f"{type(exc).__name__}: {exc}"
    span = (start, time.perf_counter())
    out = buf.getvalue().encode("utf-8")
    rss = peak_rss_mb()
    _, systems = inputs.read_catalog()
    failures, evaluated, skipped = check_consistency(code, out, systems)
    return {
        "pass_spans": [span],
        "verdict_spans": [span],
        "attempted": len(systems),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": rss,
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
        "grid_evaluated_frac": evaluated / (evaluated + skipped) if evaluated + skipped else 0.0,
    }


def check_consistency(code, out: bytes, systems):
    """Failed systems (all of them when the run itself failed), and the
    number of grid entries evaluated and skipped."""
    everything = [f"system {i}" for i in range(len(systems))]
    if code != 0:
        return [f"exit code {code}"] + everything, 0, 0
    try:
        summary = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"] + everything, 0, 0
    if summary.get("ok") is not True or summary.get("contradictions"):
        return [f"contradictions: {summary.get('contradictions')}"] + everything, 0, 0
    records = summary.get("systems", [])
    if len(records) != len(systems):
        return [f"{len(records)} systems reported, {len(systems)} in the catalog"] + everything, 0, 0
    failures = []
    evaluated = skipped = 0
    for i, (record, (texts, label)) in enumerate(zip(records, systems)):
        got = record["verdict"]["primitive"]
        got = "primitive" if got is True else "non-primitive" if got is False else str(got)
        n_eval, n_skip = len(record["uniformity"]), len(record["skipped"])
        evaluated += n_eval
        skipped += n_skip
        if record["input"] != texts or record["expected"] != label or got != label:
            failures.append(f"system {i}: expected {label}, got {got}")
        elif n_eval < MIN_EVALUATED_PER_SYSTEM:
            failures.append(f"system {i}: {n_eval} grid entries evaluated")
        elif label == "primitive" and not all(r["uniform"] for r in record["uniformity"]):
            failures.append(f"system {i}: primitive but not uniform")
    return failures, evaluated, skipped


def run_decide(spec, images, seed, seconds, passes, tracer):
    from metlie import expr, primitivity, ring

    n = spec.n
    parse, from_expr, is_primitive = expr.parse, ring.from_expr, primitivity.is_primitive
    if tracer:
        parse = tracer.traced(parse, "expr.parse", OBSERVERS["expr.parse"])
        from_expr = tracer.traced(from_expr, "ring.from_expr", OBSERVERS["ring.from_expr"])
        is_primitive = tracer.traced(is_primitive, "primitivity.is_primitive",
                                     OBSERVERS["primitivity.is_primitive"])
    clock = time.perf_counter
    verdict_spans, pass_spans, failures = [], [], []
    attempted = 0
    start = clock()
    while True:
        outcomes = []
        batch = inputs.batch(images, seed, len(pass_spans))
        pass_start = clock()
        for texts, label in batch:
            t0 = clock()
            try:
                verdict = is_primitive([from_expr(parse(t, n), n) for t in texts])
            except Exception as exc:  # a crash is a failed verdict, checked below
                verdict = exc
            verdict_spans.append((t0, clock()))
            outcomes.append((texts, label, verdict))
        pass_spans.append((pass_start, clock()))
        # Checked pass by pass, so that no more than one batch of verdicts is
        # alive at a time and the peak RSS does not grow with the pass count.
        attempted += len(outcomes)
        for texts, label, verdict in outcomes:
            problem = check_verdict(texts, label, verdict, n)
            if problem:
                failures.append(f"{'; '.join(texts)}: {problem}")
        elapsed = clock() - start
        if passes:
            if len(pass_spans) >= passes:
                break
        elif elapsed + elapsed / len(pass_spans) > seconds:
            break
    rss = peak_rss_mb()
    return {
        "pass_spans": pass_spans,
        "verdict_spans": verdict_spans,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": rss,
    }


def check_verdict(texts, label, verdict, n):
    """None when the verdict matches the label and its certificate checks out."""
    if isinstance(verdict, Exception):
        return f"crashed: {type(verdict).__name__}: {verdict}"
    if verdict.primitive is None:
        return "inconclusive"
    got = "primitive" if verdict.primitive else "non-primitive"
    if got != label:
        return f"expected {label}, got {got} ({verdict.method})"
    if verdict.primitive and not certcheck.verify_certificate(verdict.certificate, texts, n):
        return "certificate does not check out"
    return None


def timings(pass_spans, verdict_spans, probe) -> dict:
    """Pass and verdict times from their (start, end) stamps.  With a probe
    they leave its slices out, and come also at the reference speed (the
    keys with _ref)."""
    if probe is None:
        scales = {"": lambda a, b: b - a}
    else:
        scales = {"": lambda a, b: probe.measure(a, b)[0],
                  "_ref": lambda a, b: probe.measure(a, b)[1]}
    out = {"samples": len(verdict_spans)}
    for key, measure in scales.items():
        passes = [measure(a, b) for a, b in pass_spans]
        ms = [measure(a, b) * 1000.0 for a, b in verdict_spans]
        out[f"pass{key}_s"] = passes
        out[f"wall{key}_s"] = sum(passes) / len(passes)
        out[f"verdict{key}_ms_p50"] = percentile(ms, 50)
        out[f"verdict{key}_ms_p90"] = percentile(ms, 90)
    out["timed_s"] = sum(out["pass_s"])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["consistency", *inputs.SPECS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--spans", default=None, help="write the spans here (mode trace)")
    args = ap.parse_args(argv)

    # Set-up: import metlie and put the inputs in memory.
    if args.workload == "consistency":
        importlib.import_module("metlie.cli")
        inputs.read_catalog()
    else:
        for mod in ("metlie.expr", "metlie.ring", "metlie.primitivity"):
            importlib.import_module(mod)
        spec = inputs.SPECS[args.workload]
        _, systems = inputs.read_catalog()
        images = inputs.corpus(spec, systems)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        patches = CONSISTENCY_PATCHES if args.workload == "consistency" else DECIDE_PATCHES
        for module, attr, name in patches:
            tracer.patch(importlib.import_module(module), attr, name, OBSERVERS.get(name))

    probe = SpeedProbe() if args.mode == "run" else None
    with probe or contextlib.nullcontext():
        if args.workload == "consistency":
            result = run_consistency(tracer)
        else:
            result = run_decide(spec, images, args.seed, args.seconds,
                                args.passes, tracer)
    result.update(timings(result.pop("pass_spans"), result.pop("verdict_spans"), probe))
    if probe:
        result["slice_ms_p50"] = percentile(probe.slice_s(), 50) * 1000.0
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, result["timed_s"])
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
