"""Tests for the command-line interface: output formats and exit codes."""

import ast
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metlie import calculus, cli
from metlie.calculus import MAX_MINORS
from metlie.cli import main, parse_catalog, CatalogError
from metlie.expr import MAX_GENERATORS, LieParseError, parse
from metlie.model import FiniteModel, uniformity_check
from metlie.poly import QuotientParams
from metlie.primitivity import PrimitivityVerdict


DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def json_oracle(monkeypatch):
    """Every --json payload a test here prints is checked against the
    text json.dumps gives it."""
    writer = cli.dumps

    def checked(payload):
        text = writer(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(cli, "dumps", checked)


def metlie_env() -> dict:
    """The environment for a fresh `python -m metlie` on this checkout's sources."""
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_anticommutativity(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "normalize", "[x1,x2]")
        assert code == 0
        assert out.strip() == "-[x2,x1]"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "normalize", "[x1,x1]")
        assert code == 0
        assert out.strip() == "0"

    def test_three_generator_rewrite(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "normalize", "[[x2,x3],x1]")
        assert code == 0
        assert out.strip() == "[[x2,x1],x3] - [[x3,x1],x2]"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "--n", "2", "normalize", "[x1,x5]")
        assert code == 2
        assert "out of range" in err


class TestDeriveAndJacobian:
    def test_derive_json(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "derive", "x1 + [x2,x1]")
        assert code == 0
        payload = json.loads(out)
        entry = payload["results"][0]
        assert entry["linear"] == [1, 0]
        assert entry["derivatives"] == ["-x2 + 1", "x1"]

    def test_jacobian_schema(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "jacobian",
                           "x1 + [x2,x1]", "x2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rows": 2, "cols": 2,
                           "entries": [["-x2 + 1", "0"], ["x1", "1"]]}


class TestPrimitive:
    def test_generator_exit_0(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive", "x1")
        assert code == 0
        assert json.loads(out)["primitive"] is True

    def test_refuted_exit_1_with_refutation(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive", "x1 + [x2,x1]")
        assert code == 1
        payload = json.loads(out)
        assert payload["primitive"] is False
        assert payload["refutation"]["kind"] == "quotient"

    def test_certificate_exit_0(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive",
                           "x1 + [[x2,x1],x1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"] is not None

    def test_composite_gcd_reports_smallest_prime(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive", "6*x1")
        assert code == 1
        assert json.loads(out)["refutation"] == {"kind": "abelian", "params": {"m": 2}}

    def test_large_prime_gcd_is_its_own_modulus(self, capsys):
        # A 62-bit prime: trial division stops at its bound instead of
        # running ~2^31 steps, and the gcd itself refutes.
        p = 4611686018427387847
        start = time.perf_counter()
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive", f"{p}*x1")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out)["refutation"] == {"kind": "abelian", "params": {"m": p}}

    def test_bad_system_size(self, capsys):
        code, _, err = run(capsys, "--n", "2", "primitive", "x1", "x2", "x1 + x2")
        assert code == 2

    def test_inconclusive_exit_3(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "--groebner-max-basis", "1",
                           "primitive", "x1 + [[x2,x1],x1]")
        assert code == 3
        assert json.loads(out)["primitive"] == "inconclusive"


class TestUniform:
    def test_projection_uniform(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "uniform",
                           "--p", "1", "--q", "1", "--m", "2", "x1")
        assert code == 0
        payload = json.loads(out)
        assert payload["uniform"] is True
        assert payload["expected_fiber"] == 1024

    def test_derived_not_uniform(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "uniform",
                           "--p", "1", "--q", "1", "--m", "2", "[x1,x2]")
        assert code == 1
        assert json.loads(out)["uniform"] is False

    def test_identity_pair_every_fiber_one(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "uniform",
                           "--p", "1", "--q", "1", "--m", "2", "x1", "x2")
        assert code == 0
        payload = json.loads(out)
        assert payload["expected_fiber"] == 1
        assert payload["fiber_min"] == payload["fiber_max"] == 1

    @pytest.mark.parametrize("texts", [["x1"], ["[x1,x2]"]])
    def test_json_adds_the_elapsed_time(self, capsys, texts):
        # The command times its census; every other key is the report's own.
        code, out, _ = run(capsys, "--n", "2", "--json", "uniform",
                           "--p", "1", "--q", "1", "--m", "2", *texts)
        payload = json.loads(out)
        elapsed = payload.pop("elapsed_ms")
        assert isinstance(elapsed, float) and elapsed >= 0
        report = uniformity_check([parse(t, 2) for t in texts],
                                  FiniteModel(QuotientParams(1, 1, 2, 2)))
        assert payload == report.to_json()
        assert code == (0 if report.uniform else 1)

    def test_budget_breach_exit_4(self, capsys):
        code, _, err = run(capsys, "--n", "2", "--budget", "100", "uniform",
                           "--p", "1", "--q", "1", "--m", "2", "x1")
        assert code == 4

    def test_full_ring_of_2187_elements(self, capsys):
        # The full-ring top-left carrier tabulates only its own 3^7 elements.
        code, out, _ = run(capsys, "--n", "1", "uniform",
                           "--p", "1", "--q", "6", "--m", "3", "--full-ring", "x1")
        assert code == 0
        assert "uniform: True" in out

    def test_model_of_2_to_25_elements(self, capsys):
        # 2^25 elements at n = 1: within the budget, and the census lists no
        # fiber, so no key-space cap applies.
        code, out, _ = run(capsys, "--n", "1", "uniform", "--p", "1", "--q", "23", "--m", "2", "x1")
        assert code == 0
        assert "uniform: True" in out

    def test_uniform_off_the_boolean_model(self, capsys):
        # On (1,1,3) a top-left value s need not satisfy s(s - 1) = 0, so the
        # census must evaluate the integer derivatives, not their images in
        # the quotient ring.  The system is primitive, and a histogram of
        # direct bracket evaluations is flat at 59049.
        code, out, _ = run(capsys, "--n", "2", "--budget", "4000000000", "--json", "uniform",
                           "--p", "1", "--q", "1", "--m", "3", "x2 + [[x2,x1],x1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_min"] == payload["fiber_max"] == payload["expected_fiber"] == 59049

    def test_witness_off_the_boolean_model(self, capsys):
        # Non-primitive (quotient-refuted); on (2,1,3) it is not uniform.
        code, out, _ = run(capsys, "--n", "2", "--budget", str(10 ** 24), "--json", "uniform",
                           "--p", "2", "--q", "1", "--m", "3", "x2 + [[[x2,x1],x1],x1]")
        assert code == 1
        payload = json.loads(out)
        assert payload["uniform"] is False
        assert (payload["fiber_min"], payload["fiber_max"]) == (1162261467, 3174136066377)

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("METLIE_BUDGET", "100")
        code, _, _ = run(capsys, "--n", "2", "uniform",
                         "--p", "1", "--q", "1", "--m", "2", "x1")
        assert code == 4
        # An explicit flag wins over the environment.
        code, _, _ = run(capsys, "--n", "2", "--budget", "2000000", "uniform",
                         "--p", "1", "--q", "1", "--m", "2", "x1")
        assert code == 0


class TestWitnessAndAuto:
    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "witness", "2*x1")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["model"]["variant"] == "abelian"

    def test_no_witness(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "witness", "x1")
        assert code == 1
        assert json.loads(out)["witness"] is None

    def test_skipped_and_evaluated_entries_print_the_same_model(self, capsys):
        # Every entry is skipped under the budget 1; under the default the
        # abelian moduli and (1,1,2) are checked.  Each model, abelian or
        # matrix, is described alike either way.
        code, out, _ = run(capsys, "--n", "2", "--json", "--budget", "1", "witness", "x1")
        assert code == 1
        skipped = [entry["model"] for entry in json.loads(out)["skipped"]]
        code, out, _ = run(capsys, "--n", "2", "--json", "witness", "x1")
        assert code == 1
        checked = json.loads(out)["checked"]
        assert [model["variant"] for model in checked] == ["abelian"] * 3 + ["linear"]
        assert checked == skipped[:4]
        assert checked[0] == {"variant": "abelian", "m": 2, "n": 2, "size": 2}

    def test_grid_gap_system(self, capsys):
        # Non-primitive, yet uniform on every model of the default grid: its
        # derivatives 1 - 6*x2 and 6*x1 first vanish together over F_5.
        code, out, _ = run(capsys, "--n", "2", "--json", "primitive", "x1 + 6*[x2,x1]")
        assert code == 1
        assert json.loads(out)["method"] == "groebner"
        code, out, _ = run(capsys, "--n", "2", "--json", "--budget", "100000000000000",
                           "--grid", "1,1,5", "witness", "x1 + 6*[x2,x1]")
        assert code == 0
        model = json.loads(out)["witness"]["model"]
        assert (model["p"], model["q"], model["m"]) == (1, 1, 5)

    def test_auto_true(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "auto", "x1 + x2", "x2")
        assert code == 0
        assert json.loads(out)["automorphism"] is True

    def test_auto_false(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "--json", "auto",
                           "x1 + [x2,x1]", "x2")
        assert code == 1
        payload = json.loads(out)
        assert payload["determinant"] == "-x2 + 1"

    def test_auto_computes_the_determinant_once(self, capsys, monkeypatch):
        sizes = []
        bareiss = calculus._det_bareiss

        def counted(rows):
            sizes.append(len(rows))
            return bareiss(rows)

        monkeypatch.setattr(calculus, "_det_bareiss", counted)
        code, out, _ = run(capsys, "--n", "3", "auto", "x1 + [x2,x3]", "x2", "x3")
        assert code == 0
        assert out == "automorphism: True (det = 1)\n"
        assert sizes == [3]


class TestHugeModels:
    # Grid entries whose sizes have far more than 4300 digits: compared with
    # the budget as powers and reported in power form.
    @pytest.mark.parametrize("argv, size, tuples", [
        (("--n", "8"), "3^524296", "3^4194368"),
        (("--n", "4", "--grid", "3,3,4"), "4^5188", "4^20752"),
    ])
    def test_witness_skips_in_power_form(self, capsys, argv, size, tuples):
        code, out, _ = run(capsys, *argv, "--json", "witness", "x1")
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"] is None
        reasons = {s["model"]["size"]: s["reason"] for s in payload["skipped"]}
        assert reasons[size] == f"enumeration of {tuples} tuples exceeds the budget {1 << 28}"

    # From n = 508 the size exponent of a default grid entry times log2(m)
    # is past the float range; ordering the grid must not compute it.
    @pytest.mark.parametrize("argv", [
        ("--n", "508", "witness", "x1"),
        ("--n", "1024", "--grid", "1,1,2", "witness", "2*x1"),
        ("--n", "508", "witness", "--full-ring", "x1"),
    ])
    def test_witness_orders_grids_past_the_float_range(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.startswith("no witness found on the configured grid\n")

    def test_consistency_orders_grids_past_the_float_range(self, capsys, tmp_path):
        catalog = tmp_path / "n600.txt"
        catalog.write_text("n=600\nx1 @ primitive\n")
        code, out, _ = run(capsys, "--json", "consistency", str(catalog))
        assert code == 0
        skipped = [entry["model"] for entry in json.loads(out)["systems"][0]["skipped"]]
        assert [model.get("variant") for model in skipped] == ["abelian"] * 3 + ["linear"] * 8

    def test_uniform_budget_exit_4(self, capsys):
        code, _, err = run(capsys, "--n", "4", "uniform", "--p", "3", "--q", "3", "--m", "4", "x1")
        assert code == 4
        assert "enumeration of 4^20752 tuples exceeds the budget" in err

    def test_uniform_budget_before_any_element(self, capsys):
        # A quotient element here would hold 6^12 coefficients: the budget
        # test must come before any element is built.
        start = time.perf_counter()
        code, _, err = run(capsys, "--n", "12", "uniform", "--p", "3", "--q", "3", "--m", "2", "x1")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert "exceeds the budget" in err


def cyclic_system(n: int) -> list[str]:
    """x_i + [x_(i+1),x_i], indices mod n: its Bareiss dividends triple in
    size with each elimination step."""
    return [f"x{i} + [x{i % n + 1},x{i}]" for i in range(1, n + 1)]


class TestDeterminantCap:
    @pytest.mark.parametrize("argv", [
        ("--n", "12", "auto", *cyclic_system(12)),
        ("--n", "12", "primitive", *cyclic_system(12)),
        ("--n", "300", "auto", *(f"x{i}" for i in range(1, 301))),
    ])
    def test_past_the_cap_exit_3(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 10.0
        assert code == 3
        assert out == ""
        assert err == f"inconclusive: determinant work exceeds the cap {calculus.MAX_DET_WORK}\n"

    def test_under_the_cap_decides(self, capsys):
        code, out, _ = run(capsys, "--n", "8", "auto", *cyclic_system(8))
        assert code == 1
        assert out.startswith("automorphism: False (det = -x2*x3*x4*x5*x6*x7*x8 - ")


class TestCatalog:
    def test_parse_catalog(self):
        n, systems = parse_catalog(
            "# comment\nn=2\nx1 @ primitive\nx1 + [x2,x1]; x2 @ non-primitive\n"
        )
        assert n == 2
        assert systems == [(["x1"], "primitive"),
                           (["x1 + [x2,x1]", "x2"], "non-primitive")]

    def test_missing_header(self):
        with pytest.raises(CatalogError):
            parse_catalog("x1\n")

    def test_unknown_expectation(self):
        with pytest.raises(CatalogError):
            parse_catalog("n=2\nx1 @ maybe\n")

    def test_byte_order_mark(self, tmp_path, capsys):
        """A UTF-8 catalog may start with a byte-order mark, as editors on
        some systems write it."""
        plain = DATA / "acceptance_catalog.txt"
        marked = tmp_path / "catalog.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "--json", "consistency", str(plain))
        assert run(capsys, "--json", "consistency", str(marked)) == expected
        assert expected[0] == 0


class TestInputErrors:
    """Malformed catalogs and moduli exit 2 with the message on stderr."""

    @pytest.mark.parametrize("text, message", [
        ("n=abc\nx1\n", "bad generator count in header 'n=abc'"),
        ("n=0\nx1\n", f"generator count in header 'n=0' must be from 1 to {MAX_GENERATORS}"),
        ("n=2000\nx1\n",
         f"generator count in header 'n=2000' must be from 1 to {MAX_GENERATORS}"),
        ("n=2\n@ primitive\n", "empty system line"),
        ("# a comment\n\n# another\n", "catalog has no header line"),
        ("n=2\n# no systems\n", "catalog has no systems"),
    ])
    def test_bad_catalog_exit_2(self, tmp_path, capsys, text, message):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "consistency", str(catalog))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_abelian_modulus_one_exit_2(self, capsys):
        code, out, err = run(capsys, "--n", "2", "--abelian", "1", "witness", "x1")
        assert (code, out, err) == (2, "", "error: --abelian modulus '1' is not an integer >= 2\n")


class TestConsistency:
    def test_small_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(
            "n=2\n"
            "x1 @ primitive\n"
            "2*x1 @ non-primitive\n"
            "[x1,x2] @ non-primitive\n"
        )
        code, out, _ = run(capsys, "--n", "2", "--json",
                           "--grid", "1,1,2", "consistency", str(catalog))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["contradictions"] == []
        records = payload["systems"]
        assert records[0]["verdict"]["primitive"] is True
        assert all(r["uniform"] for r in records[0]["uniformity"])
        assert records[1]["witness"]["model"]["variant"] == "abelian"
        assert records[2]["witness"] is not None

    def test_decisions_go_through_the_module_global(self, tmp_path, capsys, monkeypatch):
        # Tracing wraps `metlie.cli.is_primitive` by name, so `primitive` and
        # `consistency` look it up when they decide, with the configured caps.
        decide = cli.is_primitive
        calls = []

        def counted(gs, **caps):
            calls.append(caps)
            return decide(gs, **caps)

        monkeypatch.setattr(cli, "is_primitive", counted)
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("n=2\nx1 @ primitive\n2*x1 @ non-primitive\n")
        assert run(capsys, "--groebner-max-basis", "50", "primitive", "x1")[0] == 0
        assert run(capsys, "--grid", "1,1,2", "consistency", str(catalog))[0] == 0
        assert [c["max_basis"] for c in calls] == [50, cli.DEFAULT_MAX_BASIS, cli.DEFAULT_MAX_BASIS]
        assert [c["quotient_grid"] for c in calls[1:]] == [((1, 1, 2),)] * 2
        assert all(set(c) == {"quotient_grid", "max_basis", "max_degree"} for c in calls)

    def test_expectation_mismatch_fails(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("n=2\n2*x1 @ primitive\n")
        code, out, _ = run(capsys, "--n", "2", "--json",
                           "--grid", "1,1,2", "consistency", str(catalog))
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["contradictions"]

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "--n", "2", "consistency", "/nonexistent/file")
        assert code == 2

    def test_acceptance_catalog_golden(self, capsys):
        # Stdout of the acceptance catalog, byte for byte as the fiber
        # histogram census produced it.
        catalog = str(DATA / "acceptance_catalog.txt")
        code, out, _ = run(capsys, "--n", "2", "--json", "consistency", catalog)
        assert code == 0
        assert out == (DATA / "consistency_golden.json").read_text()

    def test_whole_grid_golden(self, capsys):
        # A budget of 10^37 admits all 132 entries of the default grid, not
        # only the 48 the default budget does, so every model's census is pinned.
        catalog = str(DATA / "acceptance_catalog.txt")
        code, out, _ = run(capsys, "--n", "2", "--budget", str(10 ** 37), "--json",
                           "consistency", catalog)
        assert code == 0
        assert out == (DATA / "consistency_whole_grid_golden.json").read_text()

    # The rules of `run_consistency`, one case each.  x1 + 6*[x2,x1] has
    # derivatives (1 - 6*x2, 6*x1): non-primitive, with points only over
    # fields of characteristic prime to 6, which the grid below lacks.
    GAP = "x1 + 6*[x2,x1] @ non-primitive"

    def test_uniform_on_whole_grid_contradicts_non_primitive(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"n=2\n{self.GAP}\n")
        code, out, _ = run(capsys, "--grid", "1,1,2;1,1,3", "--abelian", "2,3",
                           "--budget", str(10 ** 42), "consistency", str(catalog))
        assert code == 1
        assert out.splitlines()[1:] == [
            "CONTRADICTION: system 0 (x1 + 6*[x2,x1]): non-primitive but uniform on the whole grid",
            "INCONSISTENT",
        ]

    def test_skipped_entries_downgrade_a_missing_witness(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"n=2\n{self.GAP}\n")
        code, out, _ = run(capsys, "consistency", str(catalog))
        assert code == 0
        assert out.splitlines()[1:] == [
            f"WARNING: system 0 (x1 + 6*[x2,x1]): {cli.WITNESS_NOT_FOUND}",
            "consistent",
        ]

    @pytest.mark.parametrize("label, code", [("", 0), (" @ primitive", 1)])
    def test_inconclusive_verdict_warns(self, tmp_path, capsys, label, code):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"n=2\nx1 + [[x2,x1],x1]{label}\n")
        got, out, _ = run(capsys, "--groebner-max-basis", "1", "consistency", str(catalog))
        assert got == code
        lines = out.splitlines()
        assert ("WARNING: system 0 (x1 + [[x2,x1],x1]): "
                "primitivity decision inconclusive under resource caps") in lines
        mismatch = "CONTRADICTION: system 0 (x1 + [[x2,x1],x1]): expected primitive, got inconclusive"
        assert (mismatch in lines) == bool(code)
        assert lines[-1] == ("INCONSISTENT" if code else "consistent")

    def test_primitive_but_not_uniform(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_primitive",
                            lambda gs, **caps: PrimitivityVerdict(True, "groebner"))
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("n=2\nx1 + [x2,x1]\n")
        code, out, _ = run(capsys, "--budget", str(10 ** 37), "--json",
                           "consistency", str(catalog))
        assert code == 1
        payload = json.loads(out)
        models = [r["model"] for r in payload["systems"][0]["uniformity"] if not r["uniform"]]
        assert len(models) == 8
        prefix = "system 0 (x1 + [x2,x1]): primitive but not uniform on "
        assert all(c.startswith(prefix) for c in payload["contradictions"])
        assert [ast.literal_eval(c[len(prefix):]) for c in payload["contradictions"]] == models


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-(10 ** 80), 10 ** 80) | st.floats() | st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda sub: (st.lists(sub, max_size=4) | st.lists(sub, max_size=4).map(tuple)
                 | st.dictionaries(st.text(max_size=6), sub, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """`cli.dumps` against its oracle, json.dumps(sort_keys=True, indent=2)."""

    @staticmethod
    def same(value):
        assert cli.dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
        "caf\u00e9 \U0001d53d \x00\x1f\x7f\"\\/\n\t", {"\u00e9": 1, "e": 2, "\x01": 3},
        10 ** 100, -(2 ** 64), 0, True, False, None, [True, 1, False, 0, None],
        1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
        {"z": (1, (2, [3])), "a": {"y": None, "x": [1.25, "s"]}},
    ])
    def test_cases(self, value):
        self.same(value)

    @given(value=JSON_VALUES)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_payloads(self, value):
        self.same(value)


class TestHostileInput:
    UNIFORM = ("uniform", "--p", "1", "--q", "1", "--m", "2", "x1")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_exit_2(self, capsys, budget):
        code, out, err = run(capsys, "--n", "2", "--budget", budget, *self.UNIFORM)
        assert code == 2 and not out
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("env", ["abc", "0", "-7"])
    def test_bad_env_budget_exit_2(self, capsys, monkeypatch, env):
        monkeypatch.setenv("METLIE_BUDGET", env)
        code, out, err = run(capsys, "--n", "2", *self.UNIFORM)
        assert code == 2 and not out
        assert err.startswith("error:") and "METLIE_BUDGET" in err

    @pytest.mark.parametrize("flag, value", [
        ("--groebner-max-basis", "-3"), ("--groebner-max-basis", "0"),
        ("--groebner-max-degree", "-1"), ("--abelian", ","), ("--abelian", ""),
        ("--grid", ""),
    ])
    def test_bad_cap_or_empty_list_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "--n", "2", flag, value, "primitive", "x1 + [[x2,x1],x1]")
        assert code == 2 and not out
        assert err.startswith("error:") and (flag in err or "empty" in err)
        assert "Traceback" not in err

    def test_smallest_caps_are_input(self, capsys):
        # One basis row and degree 0 are valid caps: the completion is
        # inconclusive, not an input error.
        code, out, err = run(capsys, "--n", "2", "--groebner-max-basis", "1",
                             "--groebner-max-degree", "0", "primitive", "x1 + [[x2,x1],x1]")
        assert code == 3 and out.startswith("primitive: inconclusive")

    def test_deep_nesting_exit_2(self, capsys):
        text = "[x1," * 1200 + "x2" + "]" * 1200
        with pytest.raises(LieParseError, match="nested deeper"):
            parse(text, 2)
        code, out, err = run(capsys, "--n", "2", "normalize", text)
        assert code == 2 and not out
        assert err.startswith("error:") and "nested deeper" in err

    @pytest.mark.parametrize("text", ["9" * 5000 + "*x1", "x" + "1" * 5000])
    def test_overlong_number_exit_2(self, capsys, text):
        code, out, err = run(capsys, "--n", "2", "normalize", text)
        assert code == 2 and not out
        assert err.startswith("error:") and "too long (line 1, column 1)" in err

    @pytest.mark.parametrize("scale", ["", "2*"])
    def test_minor_count_over_cap_exit_3(self, capsys, scale):
        # C(24, 12) = 2,704,156 minors: refused before the abelian gcd or the
        # Jacobi minors enumerate any of them.
        system = [f"{scale}x{i}" for i in range(1, 13)]
        code, out, err = run(capsys, "--n", "24", "primitive", *system)
        assert code == 3 and not out
        assert err.startswith("inconclusive:") and str(MAX_MINORS) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["normalize", "x1"], ["primitive", "x1"], ["consistency"]])
    def test_generator_count_over_bound_exit_2(self, tmp_path, command):
        # A 1 GiB address-space limit turns an allocation sized by n (one
        # 10^9-long monomial per generator) into a MemoryError and exit 1.
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        if command == ["consistency"]:
            catalog = tmp_path / "huge.txt"
            catalog.write_text("n=1000000000\nx1\n", encoding="utf-8")
            argv = ["consistency", str(catalog)]
        else:
            argv = ["--n", "1000000000", *command]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "metlie", *argv], capture_output=True,
                              text=True, env=metlie_env(), timeout=60,
                              preexec_fn=limit_address_space)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2 and not proc.stdout
        if command == ["consistency"]:
            assert proc.stderr == ("error: generator count in header 'n=1000000000' "
                                   f"must be from 1 to {MAX_GENERATORS}\n")
        else:
            assert proc.stderr == f"error: --n must be an integer from 1 to {MAX_GENERATORS}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "normalize", "x1"], f"--n must be an integer from 1 to {MAX_GENERATORS}"),
        (["--n", "-1", "consistency", str(DATA / "acceptance_catalog.txt")],
         f"--n must be an integer from 1 to {MAX_GENERATORS}"),
        (["--n", "3", "consistency", str(DATA / "acceptance_catalog.txt")],
         "--n 3 differs from the catalog header n=2"),
        (["--n", str(MAX_GENERATORS + 1), "primitive", "x1"],
         f"--n must be an integer from 1 to {MAX_GENERATORS}"),
        (["--n", "0", "uniform", "--p", "1", "--q", "1", "--m", "2", "x1"],
         f"--n must be an integer from 1 to {MAX_GENERATORS}"),
        (["uniform", "--p", "0", "--q", "1", "--m", "2", "x1"], "--p must be an integer >= 1"),
        (["uniform", "--p", "1", "--q", "-2", "--m", "2", "x1"], "--q must be an integer >= 1"),
        (["uniform", "--p", "1", "--q", "1", "--m", "1", "x1"], "--m must be an integer >= 2"),
    ], ids=["n-zero", "n-negative-consistency", "n-other-than-header", "n-over-limit",
            "n-zero-uniform", "p-zero", "q-negative", "m-one"])
    def test_bad_generator_count_or_ring_exit_2(self, capsys, argv, message):
        # Checked once where the flags are read, for every command; the
        # catalog of `consistency` fixes its own n, and a --n given with it
        # must name that n.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_twelve_generators_within_cap(self, capsys):
        # C(12, 6) = 924 minors fit; the quotient rings of 4^12 monomials are
        # refused by their exponent, without computing m^(4^12).
        system = [f"x{i}" for i in range(1, 7)]
        code, out, _ = run(capsys, "--n", "12", "primitive", *system)
        assert code == 0
        assert out.startswith("primitive: True")


SUBCOMMANDS = ["normalize", "derive", "jacobian", "primitive", "uniform", "witness", "auto"]
# Flag values: mostly well-formed, some out of range, some not numbers at all.
BUDGETS = st.sampled_from(["100", "100000", "1000000", "268435456", "268435456",
                           "0", "-1", "abc"])
NUMBERS = st.sampled_from(["1", "1", "2", "2", "3", "0", "-1", "x"])
GRIDS = st.one_of(
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(1, 4)),
             min_size=1, max_size=3).map(lambda es: ";".join(f"{p},{q},{m}" for p, q, m in es)),
    st.sampled_from(["", ";", "1,1", "a,b,c", "1,1,2,3"]),
)
ABELIAN = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=3).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from(["", ",", "two", "2,,3"]),
)
GARBAGE = st.one_of(
    st.lists(st.sampled_from(["x1", "x5", "x0", "x", "y", "0", "2", "-", "+", "*", "[", "]",
                              ",", "(", ")", " "]), min_size=1, max_size=8).map("".join),
    st.text(max_size=12),
)


def well_formed(n):
    """Expressions in x1..xn: sums, integer multiples and brackets."""
    leaves = st.sampled_from([f"x{i}" for i in range(1, n + 1)] + ["0"])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: f"[{ab[0]},{ab[1]}]"),
        st.tuples(sub, sub).map(lambda ab: f"{ab[0]} + {ab[1]}"),
        st.tuples(st.integers(-3, 3), sub).map(lambda cs: f"{cs[0]}*({cs[1]})"),
    ), max_leaves=5)


class TestFuzzMain:
    """Whatever the arguments, main returns an exit code of the contract and
    raises nothing else; argparse's own rejection counts as exit 2."""

    @given(data=st.data(), command=st.sampled_from(SUBCOMMANDS), n=st.integers(1, 4),
           budget=st.none() | st.none() | BUDGETS, grid=st.none() | st.none() | GRIDS,
           abelian=st.none() | st.none() | ABELIAN,
           model=st.tuples(NUMBERS, NUMBERS, NUMBERS), full_ring=st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_contract(self, capsys, data, command, n, budget, grid, abelian,
                                model, full_ring):
        expr = st.one_of(well_formed(n), well_formed(n), well_formed(n), GARBAGE)
        exprs = data.draw(st.lists(expr, min_size=1, max_size=n))
        argv = ["--n", str(n), "--groebner-max-basis", "50"]
        for flag, value in (("--budget", budget), ("--grid", grid), ("--abelian", abelian)):
            if value is not None:
                argv += [flag, value]
        argv.append(command)
        if command == "uniform":
            argv += ["--p", model[0], "--q", model[1], "--m", model[2]]
        if full_ring and command in ("uniform", "witness"):
            argv.append("--full-ring")
        argv += ["--", *exprs]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4)


# Malformed --abelian and --grid values: at least one modulus or entry that
# is not an integer or is out of range among good ones, or none at all.
BAD_MODULI = ["1", "0", "-3", "abc", "2.5", "3x"]
BAD_ABELIAN = st.one_of(
    st.lists(st.sampled_from(["2", "3", "4", *BAD_MODULI]), min_size=1, max_size=3)
    .filter(lambda ms: any(m in BAD_MODULI for m in ms)).map(",".join),
    st.sampled_from(["", ",", " , "]),
)
BAD_ENTRIES = ["0,1,2", "1,0,2", "1,1,1", "1,1,0", "-1,1,2", "1,x,2", "1,1", "1,1,2,3", "1.0,1,2"]
BAD_GRID = st.one_of(
    st.lists(st.sampled_from(["1,1,2", "1,2,3", "2,1,2", *BAD_ENTRIES]), min_size=1, max_size=3)
    .filter(lambda es: any(e in BAD_ENTRIES for e in es)).map(";".join),
    st.sampled_from(["", ";", " ; "]),
)


class TestBadGridAndModuli:
    """A malformed --abelian or --grid value is refused before any command
    runs: exit 2, no output, and one message that names the flag, whichever
    command reads the value (`primitive` reads the grid, `witness` and
    `consistency` both lists) or none does (`uniform`)."""

    @given(data=st.data(), n=st.integers(1, 3), flag=st.sampled_from(["--abelian", "--grid"]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_refusal_for_every_command(self, capsys, tmp_path, data, n, flag):
        value = data.draw(BAD_ABELIAN if flag == "--abelian" else BAD_GRID)
        exprs = data.draw(st.lists(well_formed(n), min_size=1, max_size=n))
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"n={n}\n{'; '.join(exprs)}\n", encoding="utf-8")
        commands = [["primitive", "--", *exprs],
                    ["uniform", "--p", "1", "--q", "1", "--m", "2", "--", *exprs],
                    ["witness", "--", *exprs],
                    ["consistency", str(catalog)]]
        errors = set()
        for command in commands:
            code, out, err = run(capsys, "--n", str(n), f"{flag}={value}", *command)
            assert (code, out) == (2, ""), command
            errors.add(err)
        assert len(errors) == 1
        assert errors.pop().startswith(f"error: {flag} ")


class TestRepeatedMain:
    """`main` reuses one parser per process; a run of calls in one process,
    an argparse error first, prints and exits as fresh processes do."""

    CALLS = [
        ["--n", "2", "nosuch", "x1"],
        ["--n", "3", "--json", "primitive", "x1 + [x2,x3]"],
        ["primitive", "x1 + [x2,x1]"],
        ["uniform", "--p", "1", "--q", "1", "--m", "2", "--full-ring", "x1"],
        ["uniform", "--p", "1", "--q", "1", "--m", "2", "x1"],
        ["--budget", "0", "normalize", "x1"],
        ["normalize", "[[x2,x3],x1]"],
    ]

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_same_as_fresh_processes(self, capsys):
        env = metlie_env()
        fresh = [subprocess.run([sys.executable, "-m", "metlie", *argv], capture_output=True,
                                text=True, env=env, timeout=120)
                 for argv in self.CALLS]
        for argv, proc in zip(self.CALLS, fresh):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout), argv
        assert [proc.returncode for proc in fresh] == [2, 0, 1, 0, 0, 2, 2]


class TestClosedStdout:
    """A reader that closes the pipe early (`metlie ... | head -c 10`) gets
    no traceback on stderr, and the command keeps its own exit code."""

    @pytest.mark.parametrize("argv, expected", [
        (["--n", "2", "--json", "derive", "x1 + [x2,x1]", "x2", "[[x2,x1],x1]"], 0),
        (["--n", "2", "primitive", "x1 + [x2,x1]"], 1),
    ])
    def test_no_traceback_and_contract_exit_code(self, argv, expected):
        env = metlie_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "metlie", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == expected
