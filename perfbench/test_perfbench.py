"""Self-tests of the benchmark's own code (stdlib unittest).

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import certcheck  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from stats import percentile, quartile_spread  # noqa: E402
from tracing import END, START, Tracer, layer_metrics, self_times  # noqa: E402

MOVE_TEXT = re.compile(r"^\(x(\d+) ([+-]) (?:(?:2\*)?x(\d+)|\[x(\d+),x(\d+)\])\)$")


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        _, self.systems = inputs.read_catalog()

    def test_catalog_matches_the_frozen_copy(self):
        self.assertEqual(len(self.systems), 12)
        self.assertEqual({label for _, label in self.systems}, set(inputs.LABELS))

    def test_same_seed_same_batch(self):
        for spec in inputs.SPECS.values():
            images = inputs.corpus(spec, self.systems)
            self.assertEqual(images, inputs.corpus(spec, self.systems))
            a = inputs.batch(images, 7, 3)
            self.assertEqual(a, inputs.batch(images, 7, 3))
            self.assertNotEqual(a, inputs.batch(images, 8, 3))
            self.assertNotEqual(a, inputs.batch(images, 7, 4))
            self.assertEqual(sorted(a), sorted(images))

    def test_corpus_carries_every_label(self):
        for spec in inputs.SPECS.values():
            got = inputs.corpus(spec, self.systems)
            self.assertEqual(len(got), inputs.IMAGES_PER_SYSTEM * len(self.systems))
            for i, (texts, label) in enumerate(self.systems):
                block = got[i * inputs.IMAGES_PER_SYSTEM:(i + 1) * inputs.IMAGES_PER_SYSTEM]
                self.assertEqual({lab for _, lab in block}, {label})
                self.assertTrue(all(len(t) == len(texts) for t, _ in block))

    def test_moves_are_elementary(self):
        rng = random.Random(5)
        for spec in inputs.SPECS.values():
            for _ in range(200):
                moves = inputs.draw_moves(rng, spec)
                kinds = [m[0] for m in moves]
                self.assertEqual(kinds.count("linear"), spec.linear_moves)
                self.assertEqual(kinds.count("derived"), spec.derived_moves)
                for move in moves:
                    mt = MOVE_TEXT.match(inputs.replacement(move))
                    self.assertIsNotNone(mt, move)
                    i = int(mt.group(1))
                    self.assertTrue(1 <= i <= spec.n)
                    self.assertEqual(i, move[1])
                    if move[0] == "linear":
                        j = int(mt.group(3))
                        self.assertTrue(1 <= j <= spec.n and j != i)
                    else:
                        a, b = int(mt.group(4)), int(mt.group(5))
                        self.assertEqual(len({i, a, b}), 3)
                        self.assertTrue(max(a, b) <= spec.n)

    def test_substitution_is_simultaneous(self):
        move = ("linear", 1, 2, -1)
        self.assertEqual(inputs.apply_move("x1 + [x2,x1]; x12", move),
                         "(x1 - x2) + [x2,(x1 - x2)]; x12")
        move = ("linear", 2, 1, 2)
        self.assertEqual(inputs.apply_move("2*x2", move), "2*(x2 + 2*x1)")
        move = ("derived", 3, 1, 2, 1)
        self.assertEqual(inputs.apply_move("[x3,x1]", move), "[(x3 + [x1,x2]),x1]")


class MetlieLabelTest(unittest.TestCase):
    """Generated images keep their labels (needs metlie on the path)."""

    def test_labels_survive_moves(self):
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
        try:
            from metlie.expr import parse
            from metlie.primitivity import is_primitive
            from metlie.ring import from_expr
        except ImportError:
            self.skipTest("metlie sources not found")
        _, systems = inputs.read_catalog()
        for spec in inputs.SPECS.values():
            # The first image of every catalog system.
            for texts, label in inputs.corpus(spec, systems)[::inputs.IMAGES_PER_SYSTEM]:
                verdict = is_primitive([from_expr(parse(t, spec.n), spec.n) for t in texts])
                self.assertEqual("primitive" if verdict.primitive else "non-primitive", label)
                if verdict.primitive:
                    self.assertTrue(certcheck.verify_certificate(
                        verdict.certificate, texts, spec.n))


class StatsTest(unittest.TestCase):
    def test_percentile(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(percentile(xs, 50), 3)
        self.assertEqual(percentile(xs, 0), 1)
        self.assertEqual(percentile(xs, 100), 5)
        self.assertAlmostEqual(percentile(xs, 90), 4.6)
        self.assertEqual(percentile([1, 2, 3, 4], 50), statistics.median([1, 2, 3, 4]))
        self.assertEqual(percentile([7.5], 90), 7.5)
        ys = list(range(1, 101))
        self.assertAlmostEqual(percentile(ys, 90), 90.1)
        self.assertEqual(sum(1 for y in ys if y > percentile(ys, 90)), 10)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_quartile_spread(self):
        xs = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(quartile_spread(xs), (q3 - q1) / q2)


class SelfTimeTest(unittest.TestCase):
    def spans(self, rows):
        # rows: (id, parent, name, start, end)
        return [[i, p, n, s, e, None, None] for i, p, n, s, e in rows]

    def test_nested_and_sequential_children(self):
        spans = self.spans([
            (0, None, "a", 0.0, 10.0),
            (1, 0, "b", 1.0, 3.0),
            (2, 1, "c", 1.5, 2.5),
            (3, 0, "d", 4.0, 8.0),
        ])
        self.assertEqual(self_times(spans), [4.0, 1.0, 1.0, 4.0])

    def test_overlapping_and_clipped_children(self):
        spans = self.spans([
            (0, None, "a", 0.0, 10.0),
            (1, 0, "b", 2.0, 6.0),
            (2, 0, "c", 5.0, 7.0),
            (3, 0, "d", 9.0, 12.0),
        ])
        self.assertEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_wrapper_records_parents_errors_and_time(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf(x):
            if x < 0:
                raise ValueError("negative")
            return x

        traced_leaf = tracer.traced(leaf, "poly.ideal_contains_finite", lambda a, r: r)

        def outer(x):
            traced_leaf(x)
            try:
                traced_leaf(-1)
            except ValueError:
                pass
            return x

        traced_outer = tracer.traced(outer, "primitivity.is_primitive")
        self.assertEqual(traced_outer(3), 3)
        # clock reads: outer start 0, leaf 1..2, leaf 3..4 (raises), outer end 5
        parents = [rec[1] for rec in tracer.spans]
        self.assertEqual(parents, [None, 0, 0])
        self.assertEqual([rec[END] - rec[START] for rec in tracer.spans], [5.0, 1.0, 1.0])
        self.assertEqual(self_times(tracer.spans), [3.0, 1.0, 1.0])
        self.assertEqual(tracer.spans[2][5], "ValueError")
        m = layer_metrics(tracer.spans, timed_s=5.0)
        self.assertEqual(m["poly.quotient_checks"], 1)
        self.assertEqual(m["poly.quotient_skipped"], 1)
        self.assertEqual(m["primitivity.decide_self_s"], 3.0)
        self.assertEqual(m["poly.quotient_check_s"], 2.0)


class SpeedProbeTest(unittest.TestCase):
    def probe(self, marks):
        probe = speed.SpeedProbe()
        probe.starts = [start for start, _ in marks]
        probe.ends = [end for _, end in marks]
        return probe

    def test_measure_leaves_slices_out_and_scales_each_gap(self):
        ref = speed.REF_SLICE_S
        # Slices of ref, 3*ref and ref: the gap before the slow slice runs at
        # half the reference speed on average, the gap after it too.
        probe = self.probe([(0.0, ref), (1.0, 1.0 + 3 * ref), (2.0, 2.0 + ref)])
        raw, scaled = probe.measure(0.0, 2.0 + ref)
        self.assertAlmostEqual(raw, 2.0 - 4 * ref)
        self.assertAlmostEqual(scaled, raw / 2)
        # Part of one gap only.
        raw, scaled = probe.measure(0.5, 0.75)
        self.assertAlmostEqual(raw, 0.25)
        self.assertAlmostEqual(scaled, 0.125)
        # From inside a slice into the next gap.
        raw, scaled = probe.measure(1.0 + ref, 1.5)
        self.assertAlmostEqual(raw, 0.5 - 3 * ref)

    def test_probe_samples_while_work_runs(self):
        with speed.SpeedProbe() as probe:
            start = probe.clock()
            while probe.clock() - start < 3 * speed.PERIOD_S:
                sum(range(1000))
            end = probe.clock()
        self.assertGreaterEqual(len(probe.starts), 3)
        raw, scaled = probe.measure(start, end)
        self.assertLess(raw, end - start)
        self.assertGreater(scaled, 0.0)


class CertificateTest(unittest.TestCase):
    def test_read_poly(self):
        self.assertEqual(certcheck.read_poly("-3*x1^2*x2 + x2 - 1", 2),
                         {(2, 1): -3, (0, 1): 1, (0, 0): -1})
        self.assertEqual(certcheck.read_poly("0", 2), {})
        self.assertEqual(certcheck.read_poly("2*x3^10", 3), {(0, 0, 10): 2})
        with self.assertRaises(ValueError):
            certcheck.read_poly("x4", 3)

    def test_linear_part(self):
        self.assertEqual(certcheck.linear_part("x1 + [[x2,x1],x1]", 2), [1, 0])
        self.assertEqual(certcheck.linear_part("-2*(x1 - 2*x2) + [x1,(x2 + x1)]", 2), [-2, 4])
        self.assertEqual(certcheck.linear_part("(x3 - [x1,x2]) - x2", 3), [0, -1, 1])
        self.assertEqual(certcheck.linear_part("0", 2), [0, 0])
        for bad in ("x3", "3", "x1 *", "[x1,x2", "x1 x2"):
            with self.assertRaises(ValueError, msg=bad):
                certcheck.linear_part(bad, 2)

    def test_certificate_sum(self):
        # (1 + x1) * 1 + x1 * (-1) = 1: the 1x1 minors of x1 + [x1,x2] (n=2, k=1)
        # would have constant parts 1 and 0.
        system = ["x1 + [x1,x2]"]
        good = {"minors": ["x1 + 1", "x1"], "cofactors": ["1", "-1"]}
        self.assertTrue(certcheck.verify_certificate(good, system, 2))
        bad = {"minors": ["x1 + 1", "x1"], "cofactors": ["1", "1"]}
        self.assertFalse(certcheck.verify_certificate(bad, system, 2))
        short = {"minors": ["1"], "cofactors": ["1"]}
        self.assertFalse(certcheck.verify_certificate(short, system, 2))
        self.assertFalse(certcheck.verify_certificate(None, system, 2))

    def test_certificate_minors_match_the_input(self):
        # The same sum, but x2 + [x1,x2] has minors with constant parts 0 and 1.
        good = {"minors": ["x1 + 1", "x1"], "cofactors": ["1", "-1"]}
        self.assertFalse(certcheck.verify_certificate(good, ["x2 + [x1,x2]"], 2))
        # Two elements over x1..x3: constant parts are the 2x2 minors of
        # [[1, 0, 0], [0, 1, 0]] over columns (1,2), (1,3), (2,3).
        cert = {"minors": ["1", "x2", "0"], "cofactors": ["1", "0", "x1"]}
        self.assertTrue(certcheck.verify_certificate(cert, ["x1", "x2 + [x1,x3]"], 3))
        self.assertFalse(certcheck.verify_certificate(cert, ["x2", "x1"], 3))


class StdoutDigestTest(unittest.TestCase):
    def test_baseline_digest_is_checked_for_its_sources(self):
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            (src, digest), = json.load(fh)["consistency_stdout_sha256"].items()
        with tempfile.TemporaryDirectory() as out_dir:
            self.assertEqual(run.check_stdout_digest(out_dir, src, [digest, digest]), [])
            self.assertEqual(len(run.check_stdout_digest(out_dir, src, ["0" * 64])), 1)
            self.assertEqual(len(run.check_stdout_digest(out_dir, src, [digest, "0" * 64])), 1)
            self.assertEqual(os.listdir(out_dir), [])

    def test_other_sources_compare_with_the_first_run(self):
        with tempfile.TemporaryDirectory() as out_dir:
            self.assertEqual(run.check_stdout_digest(out_dir, "f" * 64, ["1" * 64]), [])
            self.assertEqual(run.check_stdout_digest(out_dir, "f" * 64, ["1" * 64]), [])
            self.assertEqual(len(run.check_stdout_digest(out_dir, "f" * 64, ["2" * 64])), 1)


class DeclarationTest(unittest.TestCase):
    def test_declared_units_match(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(metric["unit"], run.unit_of(metric["name"]), metric["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
