"""Spans timed from outside the program.

The tracer replaces a function by a wrapper on the module attribute the
caller looks up, so metlie itself runs unchanged.  Spans stay in memory as
[id, parent id, name, start, end, error, observation]; the layer metrics
are summed from them, and they are written out, after the timed phase.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from stats import percentile

ID, PARENT, NAME, START, END, ERROR, OBS = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] = []

    def traced(self, fn, name: str, observe=None):
        """`fn` wrapped so that every call records a span named `name`.

        `observe(args, result)` reduces a call to the few numbers the layer
        metrics need; it runs after the span has closed.  Neither arguments
        nor results are kept, so the traced run holds no more live objects
        than the untraced one.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else None, name, clock(), None, None, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[OBS] = observe(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        setattr(owner, attr, self.traced(getattr(owner, attr), name, observe))

    def write(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for rec, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "name": rec[NAME],
                    "start": rec[START], "end": rec[END], "self": own,
                    "error": rec[ERROR], "obs": rec[OBS],
                }) + "\n")


# What each traced function's call contributes to the layer metrics.
OBSERVERS = {
    "expr.parse": lambda args, res: len(args[0]),
    "ring.from_expr": lambda args, res: sum(len(d.terms) for d in res.deriv),
    "primitivity.is_primitive": lambda args, res: res.method,
    "primitivity.ideal_contains_one": lambda args, res: (
        sum(len(h.terms) for h in res[1]) if res[0] else 0),
    "calculus.minors": lambda args, res: (
        max((p.degree() for p in res), default=0), sum(len(p.terms) for p in res)),
    "poly.ideal_contains_finite": lambda args, res: res,
    "model.uniformity_check": lambda args, res: res.total,
}


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(rec[ID], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


METHODS = ("abelian-refuted", "quotient-refuted", "groebner")


def layer_metrics(spans, timed_s: float) -> dict[str, float]:
    """Per-layer work and time from the spans of one traced timed phase."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for rec, own in zip(spans, selfs):
        by_name[rec[NAME]].append((rec, own))

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(rec[END] - rec[START] for rec, _ in calls(name))

    def ok(name):
        return [rec for rec, _ in calls(name) if rec[ERROR] is None]

    m: dict[str, float] = {}

    census = ok("model.uniformity_check")
    abelian = ok("model.uniformity_check_abelian")
    evaluated = len(census) + len(abelian)
    skipped = len(calls("model.uniformity_check")) + len(calls("model.uniformity_check_abelian")) - evaluated
    m["model.census_s"] = total("model.uniformity_check")
    m["model.census_calls"] = len(census)
    m["model.census_tuples"] = sum(rec[OBS] for rec in census)
    m["model.census_ms_p50"] = (
        percentile([(rec[END] - rec[START]) * 1000 for rec in census], 50) if census else 0.0
    )
    m["model.abelian_census_s"] = total("model.uniformity_check_abelian")
    m["model.entries_evaluated"] = evaluated
    m["model.entries_skipped"] = skipped
    m["model.grid_evaluated_frac"] = evaluated / (evaluated + skipped) if evaluated + skipped else 0.0

    checks = ok("poly.ideal_contains_finite")
    m["poly.quotient_check_s"] = total("poly.ideal_contains_finite")
    m["poly.quotient_checks"] = len(checks)
    m["poly.quotient_skipped"] = len(calls("poly.ideal_contains_finite")) - len(checks)
    m["poly.quotient_refute_ratio"] = (
        sum(1 for rec in checks if rec[OBS] is False) / len(checks) if checks else 0.0
    )
    m["poly.reduce_pqm_s"] = total("poly.reduce_pqm")

    decided = ok("primitivity.is_primitive")
    m["primitivity.decide_s"] = total("primitivity.is_primitive")
    m["primitivity.decide_self_s"] = sum(own for _, own in calls("primitivity.is_primitive"))
    m["primitivity.groebner_s"] = total("primitivity.ideal_contains_one")
    m["primitivity.groebner_calls"] = len(calls("primitivity.ideal_contains_one"))
    m["primitivity.certificate_terms"] = sum(rec[OBS] for rec in ok("primitivity.ideal_contains_one"))
    for method in METHODS:
        m[f"primitivity.method.{method}"] = sum(1 for rec in decided if rec[OBS] == method)

    minors = [rec[OBS] for rec in ok("calculus.minors")]
    m["calculus.jacobi_s"] = total("calculus.jacobi_matrix")
    m["calculus.minors_s"] = total("calculus.minors")
    m["calculus.det_calls"] = len(calls("calculus.det"))
    m["calculus.minor_degree_max"] = max((deg for deg, _ in minors), default=0)
    m["calculus.minor_terms"] = sum(terms for _, terms in minors)

    m["expr.parse_s"] = total("expr.parse")
    m["expr.parse_calls"] = len(calls("expr.parse"))
    m["expr.input_chars"] = sum(rec[OBS] for rec in ok("expr.parse"))
    m["ring.from_expr_s"] = total("ring.from_expr")
    m["ring.deriv_terms"] = sum(rec[OBS] for rec in ok("ring.from_expr"))

    m["cli.consistency_s"] = total("cli.run_consistency")
    m["cli.self_s"] = sum(own for name in ("cli.main", "cli.run_consistency") for _, own in calls(name))

    # Shares of the traced timed phase, for the layers only `consistency` runs.
    m["model.census_frac"] = m["model.census_s"] / timed_s
    m["cli.self_frac"] = m["cli.self_s"] / timed_s
    return m
