"""Tests for the command-line interface: output formats and exit codes."""

import json

import pytest

from metlie.cli import main, parse_catalog, CatalogError
from metlie.expr import LieParseError, parse


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
