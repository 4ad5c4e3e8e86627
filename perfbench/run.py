"""metlie benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run it from the repository root; it needs only the standard library and the
sources under src/.  Workloads, all closed loop with one client (the next
system is sent only after the previous verdict):

  consistency  `metlie --n 2 --json consistency perfbench/catalog.txt` with the
               default grid and budget: one whole catalog pass.  The seed is
               ignored and the pass runs to the end even when it takes longer
               than T.  The only workload that reaches `model` and `cli`.
  decide_n2    parse -> from_expr -> is_primitive on seeded images of the
               catalog systems under linear automorphisms of x1, x2
               (see inputs.py).  Mostly finite-quotient checks.
  decide_n3    the catalog read over x1..x3, images under linear and derived
               automorphisms.  Quotient checks, Groebner completion, parsing.

The decide_* workloads decide a fixed corpus of images, in a fresh seeded
order every pass, and start passes while the next one fits in T.

--trace 0 prints the end-to-end metrics, measured with nothing traced.  The
host's speed drifts by up to 2x within tens of seconds, so the measuring
process samples it all along (speed.py), and every time but set-up is
reported at a fixed reference speed; the unscaled times are printed too.
  wall_ref_s     time of one pass (decide_*: mean over the passes)
  setup_s        process start until metlie is imported and the inputs are in
                 memory; median over SETUP_PROBES fresh processes, unscaled
  verdict_ref_ms_p50, verdict_ref_ms_p90
                 time from text to verdict per system (consistency: per catalog
                 pass, so one sample); the sample count is printed
  peak_rss_mb    peak resident set of the measuring process
--trace 1 prints the per-layer metrics: a traced process wraps metlie's
functions from outside (worker.py lists them) and runs TRACE_PASSES passes
(consistency: one).  Layer times are span sums over the traced passes
(tracing.py), unscaled.  For decide_* an untraced process runs the same
passes, and the record notes the tracing overhead; one consistency pass
against another is too noisy to show it.  BENCHMARK.json declares the layer
metrics every workload has; the model and cli times, which only consistency
has, enter it as shares of the traced phase (model.census_frac,
cli.self_frac) and are printed in seconds.  repeat.py runs every workload
over several seeds and prints all the metrics.

Every verdict is checked (worker.py): decide_* verdicts against the catalog
label, with certificates tied to the input and summed by certcheck.py;
consistency's exit code, contradictions, expectations and grid coverage,
and its stdout must be byte-identical to the digest baseline.json records
for the same sources, or, for sources it has none for, to the first run in
this checkout.  `failed` counts systems with a wrong, inconclusive or
crashed verdict.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a full record with provenance goes
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from stats import percentile  # noqa: E402

WORKLOADS = ("consistency", *inputs.SPECS)
SETUP_PROBES = 11
TRACE_PASSES = 3
DEADLINE_S = 170.0

UNITS = {"peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_chars"):
        return "chars"
    return "count"


def declared_metrics(root: str) -> tuple[list[str], list[str]]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


class Runner:
    """Starts worker processes and waits for each; kills them at the deadline."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"

    def _cmd(self, mode: str, extra) -> list[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, *extra]

    def _start(self, mode: str, extra=()):
        return subprocess.Popen(self._cmd(mode, extra), cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)

    def _finish(self, proc, what: str) -> str:
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{what} passed the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")
        return out

    def setup_seconds(self) -> float:
        """Start to READY of one process that only sets up."""
        start = time.perf_counter()
        proc = self._start("setup")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        self._finish(proc, "set-up probe")
        if line.strip() != "READY":
            raise BenchError(f"set-up probe printed {line!r}")
        return elapsed

    def measure(self, mode: str, extra=()) -> dict:
        proc = self._start(mode, extra)
        out = self._finish(proc, f"{mode} worker")
        lines = out.splitlines()
        if len(lines) < 2 or lines[0] != "READY":
            raise BenchError(f"{mode} worker printed no result")
        return json.loads(lines[-1])


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "metlie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str):
    """HEAD read from .git without running git; None outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance(root: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def check_stdout_digest(out_dir: str, src_digest: str, digests) -> list[str]:
    """consistency stdout must not change between runs of the same sources."""
    digests = sorted(set(digests))
    if len(digests) > 1:
        return [f"stdout differs between processes of one run: {digests}"]
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["consistency_stdout_sha256"].get(src_digest)
    if expected is not None:
        if expected != digests[0]:
            return [f"stdout sha256 {digests[0]} differs from the baseline's {expected}"]
        return []
    path = os.path.join(out_dir, f"consistency-stdout-{src_digest[:16]}.sha256")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            first = fh.read().strip()
        if first != digests[0]:
            return [f"stdout sha256 {digests[0]} differs from the first run's {first}"]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(digests[0] + "\n")
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metlie", "__init__.py")):
        raise BenchError(f"no metlie sources under {os.path.join(root, 'src')}")
    e2e_names, layer_names = declared_metrics(root)
    prov = provenance(root)
    runner = Runner(root, args.workload, args.seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        # Half the set-up probes run before the timed worker and half after,
        # so that they sample the machine at two times.
        setups = [runner.setup_seconds() for _ in range(SETUP_PROBES // 2)]
        res = runner.measure("run", ["--seconds", str(args.seconds)])
        setups += [runner.setup_seconds() for _ in range(SETUP_PROBES - len(setups))]
        workers = [res]
        measured = {
            "wall_ref_s": res["wall_ref_s"],
            "setup_s": percentile(setups, 50),
            "verdict_ref_ms_p50": res["verdict_ref_ms_p50"],
            "verdict_ref_ms_p90": res["verdict_ref_ms_p90"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        # Printed and recorded, not reported: the unscaled times.
        for key in ("wall_s", "verdict_ms_p50", "verdict_ms_p90", "slice_ms_p50"):
            measured[key] = res[key]
        info = {"setup_probes_s": setups, "verdict_samples": res["samples"],
                "passes": len(res["pass_s"]), "pass_s": res["pass_s"],
                "pass_ref_s": res["pass_ref_s"]}
        reported = e2e_names
    else:
        fixed = ["--passes", str(TRACE_PASSES)]
        traced = runner.measure("trace", fixed + ["--spans", os.path.join(out_dir, f"{tag}.spans.jsonl")])
        workers = [traced]
        measured = dict(traced["layers"])
        measured["cli.stdout_bytes"] = traced.get("stdout_bytes", 0)
        info = {"traced_timed_s": traced["timed_s"], "spans": traced["spans"],
                "passes": len(traced["pass_s"])}
        if args.workload != "consistency":
            base = runner.measure("run", fixed)
            workers.append(base)
            info["untraced_timed_s"] = base["timed_s"]
            info["trace_overhead_frac"] = traced["timed_s"] / base["timed_s"] - 1.0
        reported = layer_names

    failures = [f for w in workers for f in w["failures"]]
    if args.workload == "consistency":
        failures += check_stdout_digest(out_dir, prov["src_sha256"], [w["stdout_sha256"] for w in workers])
        info["stdout_sha256"] = workers[0]["stdout_sha256"]
        info["grid_evaluated_frac"] = workers[0]["grid_evaluated_frac"]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and not failures
    missing = [name for name in reported if name not in measured]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")

    inputs_desc = {"seed": args.seed, "seconds": args.seconds}
    if args.workload in inputs.SPECS:
        spec = inputs.SPECS[args.workload]
        inputs_desc.update(n=spec.n, linear_moves=spec.linear_moves,
                           derived_moves=spec.derived_moves,
                           images_per_system=inputs.IMAGES_PER_SYSTEM,
                           corpus_seed=inputs.CORPUS_SEED)
    record = {
        "workload": args.workload, "trace": args.trace, "inputs": inputs_desc,
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in measured.items()},
        "info": info,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={prov['python']} nproc={prov['nproc']} cpu={prov['cpu_model']!r} "
          f"commit={prov['git_commit']} src={prov['src_sha256'][:12]}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"# {key} = {value}")
    for name in sorted(measured):
        print(f"{name:36s} {measured[name]:>16.6g} {unit_of(name)}")
    print(f"{'failed_frac':36s} {failed / attempted:>16.6g} frac  ({failed}/{attempted})")
    for f in failures[:20]:
        print(f"FAILED: {f}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": measured[k], "unit": unit_of(k)} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
