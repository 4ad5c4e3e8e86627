"""Tests for the command-line interface: output formats and exit codes."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metlie.calculus import MAX_MINORS
from metlie.cli import main, parse_catalog, CatalogError
from metlie.expr import LieParseError, parse


DATA = Path(__file__).parent / "data"


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

    def test_uniform_budget_exit_4(self, capsys):
        code, _, err = run(capsys, "--n", "4", "uniform", "--p", "3", "--q", "3", "--m", "4", "x1")
        assert code == 4
        assert "enumeration of 4^20752 tuples exceeds the budget" in err


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

    def test_deep_nesting_exit_2(self, capsys):
        text = "[x1," * 1200 + "x2" + "]" * 1200
        with pytest.raises(LieParseError, match="nested deeper"):
            parse(text, 2)
        code, out, err = run(capsys, "--n", "2", "normalize", text)
        assert code == 2 and not out
        assert err.startswith("error:") and "nested deeper" in err

    @pytest.mark.parametrize("scale", ["", "2*"])
    def test_minor_count_over_cap_exit_3(self, capsys, scale):
        # C(24, 12) = 2,704,156 minors: refused before the abelian gcd or the
        # Jacobi minors enumerate any of them.
        system = [f"{scale}x{i}" for i in range(1, 13)]
        code, out, err = run(capsys, "--n", "24", "primitive", *system)
        assert code == 3 and not out
        assert err.startswith("inconclusive:") and str(MAX_MINORS) in err
        assert "Traceback" not in err

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
