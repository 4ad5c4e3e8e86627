"""Command-line interface.

Subcommands: normalize, derive, jacobian, primitive, uniform, witness, auto,
consistency.  Every command can emit machine-readable JSON (--json); exit
codes are a pure function of the reported verdicts:

    0  success / positive verdict (primitive, uniform, automorphism, consistent)
    1  negative verdict
    2  input or parse error
    3  inconclusive (resource caps hit in the exact ideal computation)
    4  enumeration budget exceeded
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from metlie.calculus import jacobi_matrix, matrix_to_json
from metlie.expr import MAX_GENERATORS, parse
from metlie.model import (
    BudgetError,
    DEFAULT_ABELIAN_MODULI,
    DEFAULT_BUDGET,
    FiniteModel,
    describe_abelian,
    uniformity_check,
    uniformity_check_abelian,
)
from metlie.poly import QuotientParams, ResourceLimitError
from metlie.primitivity import (
    DEFAULT_MAX_BASIS,
    DEFAULT_MAX_DEGREE,
    DEFAULT_QUOTIENT_GRID,
    GroebnerLimitError,
    _automorphism_det,
    is_primitive,
)
from metlie.ring import from_expr

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_BUDGET = 4


class CatalogError(ValueError):
    pass


@dataclass
class Config:
    n: int = 2
    budget: int = DEFAULT_BUDGET
    groebner_max_basis: int = DEFAULT_MAX_BASIS
    groebner_max_degree: int = DEFAULT_MAX_DEGREE
    grid: tuple = DEFAULT_QUOTIENT_GRID
    abelian: tuple = DEFAULT_ABELIAN_MODULI
    json_output: bool = False
    variant: str = "linear"


def _parse_grid(text: str) -> tuple:
    """The entries (p, q, m) of --grid 'p,q,m;p,q,m;...', integers with
    p, q >= 1 and m >= 2; empty chunks are skipped."""
    out = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            p, q, m = map(int, chunk.split(","))
        except ValueError:  # not three integers
            p = q = m = 0
        if min(p, q) < 1 or m < 2:
            raise CatalogError(f"--grid entry {chunk!r} is not of the form p,q,m "
                               "with integers p, q >= 1 and m >= 2")
        out.append((p, q, m))
    if not out:
        raise CatalogError("--grid lists no entry p,q,m")
    return tuple(out)


def _parse_abelian(text: str) -> tuple:
    """The moduli of --abelian 'm1,m2,...', integers >= 2; empty items are
    skipped."""
    out = []
    for item in filter(None, map(str.strip, text.split(","))):
        try:
            modulus = int(item)
        except ValueError:
            modulus = 0
        if modulus < 2:
            raise CatalogError(f"--abelian modulus {item!r} is not an integer >= 2")
        out.append(modulus)
    if not out:
        raise CatalogError("--abelian lists no modulus")
    return tuple(out)


def _config_from_args(args) -> Config:
    budget, source = args.budget, "--budget"
    if budget is None:
        budget, source = os.environ.get("METLIE_BUDGET") or DEFAULT_BUDGET, "METLIE_BUDGET"
    try:
        budget = int(budget)
    except ValueError:
        budget = 0
    if budget < 1:
        raise CatalogError(f"{source} must be a positive integer")
    if args.groebner_max_basis < 1:
        raise CatalogError("--groebner-max-basis must be a positive integer")
    if args.groebner_max_degree < 0:
        raise CatalogError("--groebner-max-degree must be a non-negative integer")
    if not 1 <= args.n <= MAX_GENERATORS:
        raise CatalogError(f"--n must be an integer from 1 to {MAX_GENERATORS}")
    if args.command == "uniform":
        for flag, value, least in (("--p", args.p, 1), ("--q", args.q, 1), ("--m", args.m, 2)):
            if value < least:
                raise CatalogError(f"{flag} must be an integer >= {least}")
    cfg = Config(
        n=args.n,
        budget=budget,
        json_output=args.json,
        groebner_max_basis=args.groebner_max_basis,
        groebner_max_degree=args.groebner_max_degree,
    )
    if args.grid is not None:
        cfg.grid = _parse_grid(args.grid)
    if args.abelian is not None:
        cfg.abelian = _parse_abelian(args.abelian)
    if getattr(args, "full_ring", False):
        cfg.variant = "full"
    return cfg


def _parse_system(texts, n: int):
    """The elements that `texts` denote, the one front-end call of every
    command.  `from_expr` only passes each element through; the benchmark's
    traced runs wrap both names here."""
    return [from_expr(parse(t, n), n) for t in texts]


def _write_json(value, out: list, indent: str = "\n") -> None:
    """Append the text of `json.dumps(value, sort_keys=True, indent=2)` to
    `out`, for dicts with str keys.  With `indent`, json.dumps runs its
    pure-Python encoder; here strings go through json's C string encoder,
    ints through int.__repr__, and only other values (floats) through
    json.dumps."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    else:
        out.append(json.dumps(value))


def dumps(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)`, the text of --json."""
    out: list[str] = []
    _write_json(payload, out)
    return "".join(out)


def _emit(payload: dict, cfg: Config, text_lines) -> None:
    if cfg.json_output:
        print(dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_normalize(args, cfg: Config) -> int:
    results = [{"input": text, "normal": str(g)}
               for text, g in zip(args.exprs, _parse_system(args.exprs, cfg.n))]
    _emit({"results": results}, cfg, [r["normal"] for r in results])
    return EXIT_OK


def cmd_derive(args, cfg: Config) -> int:
    results = []
    lines = []
    for text, g in zip(args.exprs, _parse_system(args.exprs, cfg.n)):
        entry = {
            "input": text,
            "normal": str(g),
            "linear": list(g.linear),
            "derivatives": [str(d) for d in g.deriv],
        }
        results.append(entry)
        lines.append(entry["normal"])
        for i, d in enumerate(entry["derivatives"], start=1):
            lines.append(f"  d{i}: {d}")
    _emit({"results": results}, cfg, lines)
    return EXIT_OK


def cmd_jacobian(args, cfg: Config) -> int:
    gs = _parse_system(args.exprs, cfg.n)
    payload = matrix_to_json(jacobi_matrix(gs))
    lines = ["[" + ", ".join(row) + "]" for row in payload["entries"]]
    _emit(payload, cfg, lines)
    return EXIT_OK


def _decide(gs, cfg: Config):
    # Looked up per call: a wrapper patched onto metlie.cli.is_primitive sees it.
    return is_primitive(gs, quotient_grid=cfg.grid, max_basis=cfg.groebner_max_basis,
                        max_degree=cfg.groebner_max_degree)


def cmd_primitive(args, cfg: Config) -> int:
    gs = _parse_system(args.exprs, cfg.n)
    verdict = _decide(gs, cfg)
    payload = verdict.to_json()
    lines = [f"primitive: {payload['primitive']} (method: {verdict.method})"]
    if verdict.refutation:
        lines.append(f"refutation: {verdict.refutation}")
    _emit(payload, cfg, lines)
    if verdict.primitive is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if verdict.primitive else EXIT_NEGATIVE


def cmd_uniform(args, cfg: Config) -> int:
    gs = _parse_system(args.exprs, cfg.n)
    model = FiniteModel(QuotientParams(args.p, args.q, args.m, cfg.n), cfg.variant)
    start = time.perf_counter()
    report = uniformity_check(gs, model, budget=cfg.budget)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    payload = {**report.to_json(), "elapsed_ms": round(elapsed_ms, 3)}
    lines = [
        f"model size {report.size}, expected fiber {report.expected_fiber}",
        f"fiber min {report.fiber_min}, fiber max {report.fiber_max}",
        f"uniform: {report.uniform}",
    ]
    _emit(payload, cfg, lines)
    return EXIT_OK if report.uniform else EXIT_NEGATIVE


def grid_entries(n: int, cfg: Config) -> list:
    """The grid, cheapest first: abelian moduli, then matrix models by size.
    Built once per run, so that every system's census of a matrix model
    shares the model's top-left carrier."""
    models = [FiniteModel(QuotientParams(p, q, m, n), cfg.variant) for (p, q, m) in cfg.grid]
    models.sort(key=lambda mod: (mod.size_order(), mod.quotient.p, mod.quotient.q, mod.quotient.m))
    return sorted(cfg.abelian) + models


def grid_walk(gs, n: int, entries: list, cfg: Config):
    """Census of every entry of `grid_entries`, in order.  Yields (report,
    None), or (None, skip record) for a budget-skipped entry; `report.model`
    describes an evaluated entry."""
    for entry in entries:
        abelian = isinstance(entry, int)
        try:
            report = (uniformity_check_abelian(gs, entry, n, budget=cfg.budget) if abelian
                      else uniformity_check(gs, entry, budget=cfg.budget))
        except BudgetError as exc:
            desc = describe_abelian(entry, n) if abelian else entry.describe()
            yield None, {"model": desc, "reason": str(exc)}
        else:
            yield report, None


def _witness_record(report) -> dict:
    return {"model": report.model, "report": report.to_json()}


def cmd_witness(args, cfg: Config) -> int:
    gs = _parse_system(args.exprs, cfg.n)
    payload = {"witness": None, "checked": [], "skipped": []}
    for report, skip in grid_walk(gs, cfg.n, grid_entries(cfg.n, cfg), cfg):
        if report is None:
            payload["skipped"].append(skip)
            continue
        payload["checked"].append(report.model)
        if not report.uniform:
            payload["witness"] = _witness_record(report)
            break
    if payload["witness"]:
        lines = [f"witness found: {payload['witness']['model']}"]
    else:
        lines = ["no witness found on the configured grid"]
    for entry in payload["skipped"]:
        lines.append(f"skipped: {entry['model']} ({entry['reason']})")
    _emit(payload, cfg, lines)
    return EXIT_OK if payload["witness"] else EXIT_NEGATIVE


def cmd_auto(args, cfg: Config) -> int:
    gs = _parse_system(args.exprs, cfg.n)
    ok, d = _automorphism_det(gs)
    payload = {"automorphism": ok, "determinant": str(d)}
    _emit(payload, cfg, [f"automorphism: {ok} (det = {d})"])
    return EXIT_OK if ok else EXIT_NEGATIVE


def parse_catalog(text: str):
    """Catalog format: header n=<count>; one system per line, elements split
    by ';', comments after '#', optional trailing '@ primitive|non-primitive'."""
    n = None
    systems = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise CatalogError("catalog must start with a header line n=<count>")
            try:
                n = int(line[2:].strip())
            except ValueError:
                raise CatalogError(f"bad generator count in header {line!r}") from None
            if n < 1:
                raise CatalogError("generator count must be at least 1")
            continue
        expected = None
        if "@" in line:
            line, tag = line.split("@", 1)
            tag = tag.strip().lower()
            if tag not in ("primitive", "non-primitive"):
                raise CatalogError(f"unknown expectation {tag!r}")
            expected = tag
        exprs = [part.strip() for part in line.split(";") if part.strip()]
        if not exprs:
            raise CatalogError("empty system line")
        systems.append((exprs, expected))
    if n is None:
        raise CatalogError("catalog has no header line")
    if not systems:
        raise CatalogError("catalog has no systems")
    return n, systems


WITNESS_NOT_FOUND = (
    "witness not found on the configured grid; a non-uniform model exists "
    "on some larger ring"
)


def run_consistency(n: int, systems, cfg: Config) -> dict:
    """Primitivity verdicts against exhaustive uniformity over the whole grid.

    A contradiction is a primitive system that fails uniformity on an
    evaluated model, a non-primitive one with no witness even though every
    grid entry was evaluated, or a verdict that contradicts the catalog's
    expectation.  Budget-skipped entries downgrade a missing witness to a
    warning.
    """
    contradictions = []
    warnings = []
    out_systems = []
    entries = None  # built once the first system parses, which bounds n
    for idx, (texts, expected) in enumerate(systems):
        gs = _parse_system(texts, n)
        if entries is None:
            entries = grid_entries(n, cfg)
        verdict = _decide(gs, cfg)
        label = "; ".join(texts)
        reports = []
        skipped = []
        for report, skip in grid_walk(gs, n, entries, cfg):
            if report is None:
                skipped.append(skip)
            else:
                reports.append(report)
        witness = next((_witness_record(r) for r in reports if not r.uniform), None)
        sys_warnings = []
        if verdict.primitive is True:
            for report in reports:
                if not report.uniform:
                    contradictions.append(
                        f"system {idx} ({label}): primitive but not uniform on {report.model}"
                    )
        elif verdict.primitive is False:
            if witness is None:
                if skipped:
                    sys_warnings.append(WITNESS_NOT_FOUND)
                else:
                    contradictions.append(
                        f"system {idx} ({label}): non-primitive but uniform on the whole grid"
                    )
        else:
            sys_warnings.append("primitivity decision inconclusive under resource caps")
        verdict_label = (
            "inconclusive" if verdict.primitive is None
            else ("primitive" if verdict.primitive else "non-primitive")
        )
        if expected is not None and verdict_label != expected:
            contradictions.append(
                f"system {idx} ({label}): expected {expected}, got {verdict_label}"
            )
        warnings.extend(f"system {idx} ({label}): {w}" for w in sys_warnings)
        out_systems.append({
            "input": texts,
            "expected": expected,
            "verdict": verdict.to_json(),
            "uniformity": [r.to_json() for r in reports],
            "skipped": skipped,
            "witness": witness,
            "warnings": sys_warnings,
        })
    return {
        "n": n,
        "grid": {
            "abelian": sorted(cfg.abelian),
            "matrix": [{"p": p, "q": q, "m": m} for (p, q, m) in cfg.grid],
            "budget": cfg.budget,
        },
        "systems": out_systems,
        "contradictions": contradictions,
        "warnings": warnings,
        "ok": not contradictions,
    }


def cmd_consistency(args, cfg: Config) -> int:
    try:
        with open(args.catalog, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog: {exc}") from None
    n, systems = parse_catalog(text)
    summary = run_consistency(n, systems, cfg)
    lines = []
    for idx, record in enumerate(summary["systems"]):
        verdict = record["verdict"]["primitive"]
        witness = "witness found" if record["witness"] else "no witness"
        uniform = all(r["uniform"] for r in record["uniformity"])
        lines.append(
            f"[{idx}] {'; '.join(record['input'])}: primitive={verdict}, "
            f"uniform-on-evaluated={uniform}, {witness}"
        )
    lines.extend(f"WARNING: {w}" for w in summary["warnings"])
    lines.extend(f"CONTRADICTION: {c}" for c in summary["contradictions"])
    lines.append("consistent" if summary["ok"] else "INCONSISTENT")
    _emit(summary, cfg, lines)
    return EXIT_OK if summary["ok"] else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="metlie",
        description=(
            "Exact computer algebra for the free metabelian Lie ring over Z: "
            "primitivity decisions and uniform-distribution checks on finite models."
        ),
    )
    parser.add_argument("--n", type=int, default=2, help="generator count (default 2)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget (default env METLIE_BUDGET or 2^28)")
    parser.add_argument("--grid", type=str, default=None,
                        help="matrix-model grid as 'p,q,m;p,q,m;...'")
    parser.add_argument("--abelian", type=str, default=None,
                        help="abelian moduli as 'm1,m2,...' (default 2,3,4)")
    parser.add_argument("--groebner-max-basis", type=int, default=DEFAULT_MAX_BASIS)
    parser.add_argument("--groebner-max-degree", type=int, default=DEFAULT_MAX_DEGREE)

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="canonical basis form of expressions")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("derive", help="partial derivatives of expressions")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("jacobian", help="Jacobi matrix of a system")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_jacobian)

    sp = sub.add_parser("primitive", help="decide primitivity of a system")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_primitive)

    sp = sub.add_parser("uniform", help="exhaustive uniformity check on one model")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--full-ring", action="store_true",
                    help="use the full quotient ring as the top-left carrier")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_uniform)

    sp = sub.add_parser("witness", help="search the grid for a non-uniformity witness")
    sp.add_argument("--full-ring", action="store_true")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("auto", help="n-element automorphism test")
    sp.add_argument("exprs", nargs="+")
    sp.set_defaults(func=cmd_auto)

    sp = sub.add_parser("consistency", help="primitivity vs uniformity over a catalog")
    sp.add_argument("catalog")
    sp.set_defaults(func=cmd_consistency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    try:
        cfg = _config_from_args(args)
        with contextlib.redirect_stdout(out):
            code = args.func(args, cfg)
    except (ValueError, TypeError) as exc:
        # LieParseError and CatalogError are ValueErrors too.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GroebnerLimitError, ResourceLimitError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say `| head`).  Point stdout at devnull,
        # as the signal module's note on SIGPIPE advises, so that the flush
        # at exit is silent; the command's exit code stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
