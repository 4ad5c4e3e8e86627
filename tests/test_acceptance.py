"""Acceptance suite: one test per criterion, exact tolerances, stated limits.

Each test prints a single PASS line with its measured runtime; the checks
themselves are exact (integer arithmetic throughout, no tolerances to tune).
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from helpers import (
    constant_term, identity_matrix, random_element, random_expr, random_melement,
    random_tame_automorphism, reference_eval, reference_format,
)
from metlie.calculus import jacobi_matrix, jacobi_substituted, matmul, minors, sigma
from metlie.cli import main
from metlie.expr import parse
from metlie.model import FiniteModel, ModelParams, eval_closed_form, uniformity_check_abelian
from metlie.poly import Poly, QuotientParams
from metlie.primitivity import abelian_primitive, ideal_contains, ideal_contains_one, is_primitive
from metlie.ring import from_basis, to_basis
from test_primitivity import PolyMatrix, bounded_combination_exists, _elementary

CATALOG = Path(__file__).parent / "data" / "acceptance_catalog.txt"

GRID = [(p, q, m) for p in (1, 2) for q in (1, 2) for m in (2, 3)]


def _report(name, start):
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def consistency_runs():
    """Two full CLI consistency runs over the flagship catalog."""
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["--n", "2", "--json", "consistency", str(CATALOG)])
        outputs.append((code, buf.getvalue()))
    return outputs


def test_criterion_01_primitive_iff_uniform(consistency_runs):
    start = time.perf_counter()
    code, out = consistency_runs[0]
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["contradictions"] == []
    systems = payload["systems"]
    assert len(systems) >= 12
    for record in systems:
        verdict = record["verdict"]["primitive"]
        expected = record["expected"]
        assert verdict in (True, False)
        assert expected == ("primitive" if verdict else "non-primitive")
        if verdict:
            # Primitive: uniform on every evaluated grid model with the exact
            # fiber count, and no witness anywhere.
            assert record["uniformity"], "no models were evaluated"
            for rep in record["uniformity"]:
                assert rep["uniform"] is True
                assert rep["fiber_min"] == rep["fiber_max"] == rep["expected_fiber"]
            assert record["witness"] is None
        else:
            assert record["witness"] is not None
    _report("1 primitive iff uniform: catalog of 12, zero contradictions", start)
    assert time.perf_counter() - start < 600


def test_criterion_02_closed_form_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    models = [FiniteModel(ModelParams(QuotientParams(p, q, m, 2), variant))
              for (p, q, m) in GRID for variant in ("linear", "full")]
    for i in range(1000):
        model = models[i % len(models)]
        e = random_expr(rng, 2, depth=4)
        subs = [random_element(model, rng) for _ in range(2)]
        direct = reference_eval(e, subs)
        g = parse(reference_format(e), 2)
        closed = eval_closed_form(model, g, [s.l for s in subs], [s.tau for s in subs])
        assert direct == closed
    _report("2 closed-form vs bracket evaluation (1000 pairs over the grid, both carriers, exact)",
            start)
    assert time.perf_counter() - start < 10


def test_criterion_03_fundamental_identity():
    start = time.perf_counter()
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.choice([1, 2, 3])
        g = random_melement(rng, n, max_words=3, max_len=6, coeff_bound=5)
        assert g.fundamental_identity_holds()
    _report("3 fundamental derivative identity (1000 elements, exact)", start)
    assert time.perf_counter() - start < 5


def test_criterion_04_chain_rule():
    start = time.perf_counter()
    rng = random.Random(4)
    from metlie.ring import endo_apply

    for _ in range(100):
        n = rng.choice([2, 3])
        y1 = [random_melement(rng, n, max_len=4) for _ in range(n)]
        y2 = [random_melement(rng, n, max_len=4) for _ in range(n)]
        z = [endo_apply(g, y2) for g in y1]
        lhs = jacobi_matrix(z)
        rhs = matmul(jacobi_matrix(y2), jacobi_substituted(y1, y2))
        assert lhs.entries == rhs.entries
    _report("4 chain rule (100 endomorphism pairs, exact matrix identity)", start)
    assert time.perf_counter() - start < 30


def test_criterion_05_lie_axioms():
    start = time.perf_counter()
    rng = random.Random(5)

    def check(a, b, c, d):
        ab = a.bracket(b)
        assert not (ab + b.bracket(a))
        jac = ab.bracket(c) + b.bracket(c).bracket(a) + c.bracket(a).bracket(b)
        assert not jac
        assert not ab.bracket(c.bracket(d))

    for _ in range(10_000):
        n = rng.choice([2, 3])
        check(*(random_melement(rng, n, max_words=2, max_len=4, coeff_bound=3)
                for _ in range(4)))
    samples_per_model = 10_000 // len(GRID) + 1
    for (p, q, m) in GRID:
        model = FiniteModel(ModelParams(QuotientParams(p, q, m, 2)))
        for _ in range(samples_per_model):
            check(*(random_element(model, rng, max_terms=3) for _ in range(4)))
    _report("5 Lie axioms in the free ring and every grid model (exact)", start)
    assert time.perf_counter() - start < 60


def test_criterion_06_basis_round_trip():
    start = time.perf_counter()
    rng = random.Random(6)
    from helpers import random_basis_terms

    for _ in range(500):
        n = rng.choice([2, 3, 4])
        terms = random_basis_terms(rng, n, max_words=4, max_len=5)
        linear = [rng.randint(-5, 5) for _ in range(n)]
        g = from_basis(terms, linear)
        got_terms, got_linear = to_basis(g)
        assert sorted(got_terms, key=lambda t: t.word) == sorted(terms, key=lambda t: t.word)
        assert got_linear == tuple(linear)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        g = random_melement(rng, n, max_words=4, max_len=5)
        terms, linear = to_basis(g)
        assert from_basis(terms, linear) == g
    _report("6 basis round trip (500 each direction, exact)", start)
    assert time.perf_counter() - start < 5


def test_criterion_07_groebner_vs_lattice_oracle():
    start = time.perf_counter()
    rng = random.Random(7)
    from helpers import random_poly

    checked = 0
    while checked < 50:
        gens = [random_poly(rng, 2, max_degree=2, max_terms=3, coeff_bound=3)
                for _ in range(rng.choice([2, 3]))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        found, cert = ideal_contains_one(gens)
        lattice = bounded_combination_exists(gens, 3)
        # The oracle is conclusive when it finds a combination, and when the
        # certificate degree fits inside its search window.
        if lattice:
            assert found, f"lattice found a combination but the basis says no: {gens}"
        if found and max(h.degree() for h in cert) <= 3:
            assert lattice, f"certificate within degree 3 but lattice missed it: {gens}"
        checked += 1
    _report("7 unit-ideal test vs integer-lattice oracle (50 instances)", start)
    assert time.perf_counter() - start < 300


def test_criterion_08_sigma_ideal_generation():
    start = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    while checked < 20:
        n = rng.choice([2, 3])
        A = identity_matrix(n)
        for _ in range(3):
            A = matmul(A, _elementary(rng, n))
        sigmas = [sigma(A, i) for i in range(1, n + 1)]
        assert all(constant_term(s) == 0 for s in sigmas)
        for j in range(1, n + 1):
            assert ideal_contains(sigmas, Poly.variable(j, n))
        checked += 1
    _report("8 sigma polynomials generate the augmentation ideal (20 matrices)", start)
    assert time.perf_counter() - start < 120


def test_criterion_09_abelian_necessary_condition(consistency_runs):
    start = time.perf_counter()
    _, out = consistency_runs[0]
    payload = json.loads(out)
    violations = 0
    for record in payload["systems"]:
        gs = [parse(t, 2) for t in record["input"]]
        lin = [list(g.linear) for g in gs]
        if not abelian_primitive(lin):
            # Failing the abelianization must force non-primitivity and a
            # small abelian witness.
            if record["verdict"]["primitive"] is not False:
                violations += 1
            witnessed = any(
                not uniformity_check_abelian(gs, m, 2).uniform for m in (2, 3, 4)
            )
            if not witnessed:
                violations += 1
    assert violations == 0
    _report("9 abelianization necessary condition (zero violations)", start)


def test_criterion_10_determinism(consistency_runs):
    start = time.perf_counter()
    (code1, out1), (code2, out2) = consistency_runs
    assert code1 == code2 == 0
    assert out1 == out2, "consecutive consistency runs differ"
    _report("10 byte-identical consistency output across two runs", start)
