"""Tests for the finite matrix Lie rings and exhaustive uniformity checks."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    abelian_census, bracket_value, histogram_census, random_basis_terms, random_expr,
    random_melement, random_tame_automorphism,
)
from metlie.cli import main, parse_catalog
from metlie.expr import parse, eval_in_ring
from metlie.model import (
    BudgetError,
    FiniteModel,
    ModelElement,
    ModelParams,
    eval_closed_form,
    uniformity_check,
    uniformity_check_abelian,
)
from metlie.poly import QPoly, QuotientParams
from metlie.primitivity import DEFAULT_QUOTIENT_GRID
from metlie.ring import MElement, endo_apply, from_basis, from_expr, to_basis


def mel(text, n=2):
    return from_expr(parse(text, n), n)


def flagship():
    return FiniteModel(ModelParams(QuotientParams(1, 1, 2, 2)))


class TestModelBuild:
    def test_flagship_cardinalities(self):
        model = flagship()
        assert model.ring_size == 16
        assert model.l_size == 4
        assert model.size == 1024

    def test_one_generator_model(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1)))
        assert model.ring_size == 4
        assert model.size == 8

    def test_full_ring_variant(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 2), "full"))
        assert model.l_size == 16
        assert model.size == 4096

    def test_generator_image(self):
        model = flagship()
        g1 = model.generator_image(1)
        assert g1.l == QPoly.variable(1, model.quotient)
        assert g1.tau == (QPoly.one(model.quotient), QPoly.zero(model.quotient))

    def test_huge_model_in_power_form(self):
        # 12 generators: |R|^n has about 3e8 bits, so the size stays a power.
        params = ModelParams(QuotientParams(2, 2, 3, 12), "full")
        model = FiniteModel(params)
        assert model.size_exponent == 13 * 4 ** 12
        assert model.describe()["size"] == f"3^{13 * 4 ** 12}"
        with pytest.raises(BudgetError, match=r"enumeration of 3\^2617245696 tuples exceeds"):
            uniformity_check([mel("x1", 12)], model, budget=1 << 28)

    def test_element_code_round_trip(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1)))
        seen = set()
        for code in range(model.size):
            elem = model.element_from_code(code)
            assert model.element_code(elem) == code
            seen.add(elem)
        assert len(seen) == model.size


def _matrix_commutator_oracle(a: ModelElement, b: ModelElement) -> ModelElement:
    """Generic 2x2 matrix commutator, coordinate by coordinate.

    For each module coordinate c the pair (l, tau[c]) is a genuine 2x2
    matrix over the quotient ring; [A,B] = AB - BA via literal matrix
    products gives the expected bracket coordinatewise.
    """
    quotient = a.params.quotient
    la, lb = a.l, b.l
    zero = QPoly.zero(quotient)
    taus = []
    for c in range(quotient.n):
        A = [[la, zero], [a.tau[c], zero]]
        B = [[lb, zero], [b.tau[c], zero]]

        def mul(P, Q):
            return [
                [P[0][0] * Q[0][0] + P[0][1] * Q[1][0], P[0][0] * Q[0][1] + P[0][1] * Q[1][1]],
                [P[1][0] * Q[0][0] + P[1][1] * Q[1][0], P[1][0] * Q[0][1] + P[1][1] * Q[1][1]],
            ]

        AB, BA = mul(A, B), mul(B, A)
        comm = [[AB[i][j] - BA[i][j] for j in range(2)] for i in range(2)]
        assert not comm[0][0] and not comm[0][1] and not comm[1][1]
        taus.append(comm[1][0])
    return ModelElement(a.params, zero, tuple(taus))


class TestModelBracket:
    def test_generator_bracket(self):
        model = flagship()
        g1, g2 = model.generator_images()
        b = g1.bracket(g2)
        assert not b.l
        assert b.tau == (QPoly.variable(2, model.quotient), QPoly.variable(1, model.quotient))

    def test_alternating(self):
        rng = random.Random(137)
        model = flagship()
        for _ in range(50):
            a = model.random_element(rng)
            assert not a.bracket(a)

    def test_metabelian_on_brackets(self):
        rng = random.Random(139)
        model = flagship()
        for _ in range(50):
            a, b, c, d = (model.random_element(rng) for _ in range(4))
            assert not a.bracket(b).bracket(c.bracket(d))

    def test_matches_matrix_commutator_oracle(self):
        rng = random.Random(149)
        for params in [ModelParams(QuotientParams(1, 1, 2, 2)),
                       ModelParams(QuotientParams(2, 1, 3, 2)),
                       ModelParams(QuotientParams(1, 1, 2, 2), "full")]:
            model = FiniteModel(params)
            for _ in range(40):
                a = model.random_element(rng, max_terms=4)
                b = model.random_element(rng, max_terms=4)
                assert a.bracket(b) == _matrix_commutator_oracle(a, b)

    def test_lie_axioms_all_grid_models(self):
        rng = random.Random(151)
        for p in (1, 2):
            for q in (1, 2):
                for m in (2, 3):
                    model = FiniteModel(ModelParams(QuotientParams(p, q, m, 2)))
                    for _ in range(25):
                        a, b, c = (model.random_element(rng, max_terms=3) for _ in range(3))
                        assert not (a.bracket(b) + b.bracket(a))
                        jac = (a.bracket(b).bracket(c) + b.bracket(c).bracket(a)
                               + c.bracket(a).bracket(b))
                        assert not jac


class TestClosedForm:
    def test_generator_projection(self):
        model = flagship()
        rng = random.Random(157)
        subs = [model.random_element(rng) for _ in range(2)]
        got = eval_closed_form(model, mel("x2"), [s.l for s in subs], [s.tau for s in subs])
        assert got == subs[1]

    def test_bracket_word_at_generator_images(self):
        model = flagship()
        gens = model.generator_images()
        got = eval_closed_form(model, mel("[x2,x1]"),
                               [g.l for g in gens], [g.tau for g in gens])
        assert got == gens[1].bracket(gens[0])

    def test_three_letter_word_at_generator_images(self):
        # tau coordinates mod 2: x1*x2 on t1 (exponent already reduced from
        # x1^2*x2 by the quotient relation) and x1 on t2.
        model = flagship()
        gens = model.generator_images()
        got = eval_closed_form(model, mel("[[x2,x1],x1]"),
                               [g.l for g in gens], [g.tau for g in gens])
        q = model.quotient
        assert not got.l
        assert got.tau == (QPoly(q, {(1, 1): 1}), QPoly(q, {(1, 0): 1}))
        direct = eval_in_ring(parse("[[x2,x1],x1]", 2), gens)
        assert got == direct

    def test_zero_module_vectors_kill_derived_elements(self):
        model = flagship()
        rng = random.Random(163)
        zero_tau = tuple(QPoly.zero(model.quotient) for _ in range(2))
        s = [model.random_element(rng).l for _ in range(2)]
        got = eval_closed_form(model, mel("[x1,x2]"), s, [zero_tau, zero_tau])
        assert not got

    @pytest.mark.parametrize("variant", ["linear", "full"])
    def test_equals_direct_bracket_evaluation(self, variant):
        # Every default grid model: only on (1,1,2) does each top-left value
        # s satisfy s^p(s^q - 1) = 0.
        rng = random.Random(167)
        for p, q, m in DEFAULT_QUOTIENT_GRID:
            model = FiniteModel(ModelParams(QuotientParams(p, q, m, 2), variant))
            for _ in range(20):
                e = random_expr(rng, 2, depth=5)
                subs = [model.random_element(rng) for _ in range(2)]
                direct = eval_in_ring(e, subs)
                g = from_expr(e, 2)
                closed = eval_closed_form(model, g, [s.l for s in subs], [s.tau for s in subs])
                assert direct == closed, (p, q, m, e)


class TestUniformity:
    def test_projection_is_uniform(self):
        model = flagship()
        rep = uniformity_check([mel("x1")], model)
        assert rep.uniform
        assert rep.fiber_min == rep.fiber_max == rep.expected_fiber == 1024

    def test_derived_element_is_not_uniform(self):
        model = flagship()
        rep = uniformity_check([mel("[x1,x2]")], model)
        assert not rep.uniform
        assert rep.witness is not None

    def test_histogram_conservation_small_model(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1)))
        rep = uniformity_check([mel("3*x1", 1)], model)
        assert rep.total == model.size ** 1

    def test_generator_system_is_a_bijection(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1)))
        rep = uniformity_check([mel("x1", 1)], model)
        assert rep.uniform and rep.expected_fiber == 1

    def test_naive_enumeration_cross_check(self):
        # Independent oracle on the 8-element model: evaluate every element
        # through the element-level closed form and build the histogram by
        # hand.
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1)))
        g = mel("x1 + 2*[x1,x1]", 1)  # collapses to x1
        for target_expr in ["x1", "3*x1"]:
            g = mel(target_expr, 1)
            counts = {}
            for elem in model.elements():
                val = eval_closed_form(model, g, [elem.l], [elem.tau])
                counts[model.element_code(val)] = counts.get(model.element_code(val), 0) + 1
            rep = uniformity_check([g], model)
            assert sum(counts.values()) == rep.total
            fibers = set(counts.values())
            if rep.uniform:
                assert fibers == {rep.expected_fiber} and len(counts) == model.size
            else:
                assert len(counts) < model.size or max(fibers) != rep.expected_fiber

    def test_budget_guard(self):
        model = flagship()
        with pytest.raises(BudgetError):
            uniformity_check([mel("x1")], model, budget=1000)

    def test_uniform_under_permutation(self):
        model = flagship()
        rep1 = uniformity_check([mel("x1"), mel("x2")], model)
        rep2 = uniformity_check([mel("x2"), mel("x1")], model)
        assert rep1.uniform and rep2.uniform

    def test_report_json_shape(self):
        model = flagship()
        rep = uniformity_check([mel("x1")], model)
        payload = rep.to_json()
        assert payload["model"] == {"p": 1, "q": 1, "m": 2, "n": 2,
                                    "variant": "linear", "size": 1024}
        assert payload["uniform"] is True
        assert "elapsed_ms" in payload
        assert "elapsed_ms" not in rep.to_json(include_elapsed=False)


class TestVariantAndModulusPaths:
    def test_full_ring_variant_uniformity(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 1), "full"))
        assert model.size == 16
        assert uniformity_check([mel("x1", 1)], model).uniform
        assert not uniformity_check([mel("2*x1", 1)], model).uniform

    def test_mod_three_model_uniformity(self):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 3, 1)))
        assert model.size == 27
        rep = uniformity_check([mel("x1", 1)], model)
        assert rep.uniform and rep.expected_fiber == 1
        rep = uniformity_check([mel("3*x1", 1)], model)
        assert not rep.uniform
        assert rep.witness["count"] == 27


class TestAbelianUniformity:
    def test_generator_uniform(self):
        rep = uniformity_check_abelian([mel("x1")], 3, 2)
        assert rep.uniform and rep.expected_fiber == 3

    def test_doubled_generator_mod_2(self):
        rep = uniformity_check_abelian([mel("2*x1")], 2, 2)
        assert not rep.uniform
        assert rep.witness["count"] in (0, 4)

    def test_matches_generic_evaluation(self):
        # The linear-part shortcut agrees with full expression evaluation in
        # a wrapped abelian ring.
        class Zm:
            def __init__(self, v, m):
                self.v = v % m
                self.m = m

            def __add__(self, o):
                return Zm(self.v + o.v, self.m)

            def __rmul__(self, c):
                return Zm(c * self.v, self.m)

            def bracket(self, o):
                return Zm(0, self.m)

            def __eq__(self, o):
                return self.v == o.v

        rng = random.Random(173)
        import itertools

        for _ in range(20):
            e = random_expr(rng, 2, depth=3)
            g = from_expr(e, 2)
            m = rng.choice([2, 3, 4])
            for r in itertools.product(range(m), repeat=2):
                direct = eval_in_ring(e, [Zm(r[0], m), Zm(r[1], m)])
                linear = sum(c * t for c, t in zip(g.linear, r)) % m
                assert direct == Zm(linear, m)


class TestWitnessSearch:
    """The `witness` command's walk over the default grid, stopping at the
    first non-uniform report."""

    @staticmethod
    def search(capsys, text):
        assert main(["--n", "2", "--json", "witness", text]) in (0, 1)
        return json.loads(capsys.readouterr().out)

    def test_abelian_witness_for_doubled_generator(self, capsys):
        result = self.search(capsys, "2*x1")
        assert result["witness"]
        assert result["witness"]["model"]["variant"] == "abelian"
        assert result["witness"]["model"]["m"] == 2

    def test_matrix_witness_for_near_generator(self, capsys):
        result = self.search(capsys, "x1 + [x2,x1]")
        assert result["witness"]
        assert result["witness"]["model"] == {"p": 1, "q": 1, "m": 2, "n": 2,
                                              "variant": "linear", "size": 1024}

    def test_primitive_element_has_no_witness(self, capsys):
        result = self.search(capsys, "x1")
        assert not result["witness"]
        # Large grid entries are budget-skipped, so the sweep is grid-limited.
        assert result["skipped"]

    def test_cheapest_first_order(self, capsys):
        result = self.search(capsys, "x1")
        sizes = [d["size"] for d in result["checked"]]
        abelian = [d for d in result["checked"] if d.get("variant") == "abelian"]
        assert sizes == sorted(sizes) or len(abelian) == 3


class TestUniformityInvariance:
    def test_basis_change_preserves_uniformity(self):
        rng = random.Random(179)
        model = flagship()
        base = mel("x1 + [[x2,x1],x1]")
        assert uniformity_check([base], model).uniform
        for _ in range(5):
            images = random_tame_automorphism(rng, 2)
            moved = endo_apply(base, images)
            assert uniformity_check([moved], model).uniform


DATA = Path(__file__).parent / "data"

ORACLE_MODELS = [
    ModelParams(QuotientParams(1, 1, 2, 1)),
    ModelParams(QuotientParams(1, 1, 3, 1)),
    ModelParams(QuotientParams(1, 1, 4, 1)),
    ModelParams(QuotientParams(1, 1, 2, 1), "full"),
    ModelParams(QuotientParams(1, 1, 4, 1), "full"),
]


def _census_oracle(gs, model):
    """Report JSON of a plain census: every argument tuple of model elements
    goes through bracket arithmetic, and the fibers are counted by target."""
    n, k = model.n, len(gs)
    expansions = [to_basis(g) for g in gs]
    counts = {}
    for args in itertools.product(list(model.elements()), repeat=n):
        target = tuple(model.element_code(bracket_value(x, args)) for x in expansions)
        counts[target] = counts.get(target, 0) + 1
    expected = model.size ** (n - k)
    all_targets = list(itertools.product(range(model.size), repeat=k))
    fiber_min = min(counts.get(t, 0) for t in all_targets)
    fiber_max = max(counts.values())
    uniform = fiber_min == fiber_max == expected
    witness = None
    if not uniform:
        # The smallest reached target with a wrong fiber, else the smallest missing one.
        bad = [t for t, c in counts.items() if c != expected]
        target = min(bad) if bad else min(t for t in all_targets if t not in counts)
        witness = {"target": [model.element_from_code(c).to_json() for c in target],
                   "count": counts.get(target, 0)}
    return {"model": model.describe(), "k": k, "expected_fiber": expected,
            "fiber_min": fiber_min, "fiber_max": fiber_max, "uniform": uniform,
            "witness_target": witness}


class TestCensusOracle:
    """The linear-image census against a plain enumeration on small models.

    Every oracle model has one generator, so systems have k = 1 there; the
    k = 2 systems are covered on the flagship model by the golden reports.
    """

    @pytest.mark.parametrize("params", ORACLE_MODELS)
    @pytest.mark.parametrize("text", ["x1", "2*x1", "3*x1", "-x1", "0"])
    def test_fixed_systems(self, params, text):
        model = FiniteModel(params)
        gs = [mel(text, 1)]
        rep = uniformity_check(gs, model)
        assert rep.to_json(include_elapsed=False) == _census_oracle(gs, model)
        assert rep.total == model.size

    @pytest.mark.parametrize("params", ORACLE_MODELS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_element(self, params, seed):
        model = FiniteModel(params)
        gs = [from_expr(random_expr(random.Random(seed), 1, depth=3), 1)]
        rep = uniformity_check(gs, model)
        assert rep.to_json(include_elapsed=False) == _census_oracle(gs, model)


class TestCensusGolden:
    """Reports on the flagship models, byte for byte as the exhaustive tuple
    enumeration (1024^2 and 4096^2 tuples per system) produced them: for every
    acceptance-catalog system on (1,1,2,2), and for its one-element systems on
    the full-ring (1,1,2,2) model.  Each file is a JSON list of
    {"system", "report"} entries dumped with sort_keys=True, indent=2."""

    @pytest.mark.parametrize("variant, name", [
        ("linear", "flagship_census_golden.json"),
        ("full", "flagship_full_census_golden.json"),
    ])
    def test_reports_match_golden(self, variant, name):
        n, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, n), variant))
        out = []
        for texts, _ in systems:
            if variant == "full" and len(texts) != 1:
                continue
            rep = uniformity_check([mel(t, n) for t in texts], model)
            out.append({"system": texts, "report": rep.to_json(include_elapsed=False)})
        assert json.dumps(out, sort_keys=True, indent=2) + "\n" == (DATA / name).read_text()


def _drawn_system(seed, n, k):
    """k elements over n generators.  For n >= 2 a third of the draws take
    k images of a tame automorphism (a uniform system) and a third add a
    derived element to such images, which keeps the top-left map onto; the
    rest are random elements."""
    rng = random.Random(seed)
    kind = rng.randrange(3) if n >= 2 else 0
    if kind == 0:
        return [random_melement(rng, n, coeff_bound=3) for _ in range(k)]
    gs = rng.sample(random_tame_automorphism(rng, n), k)
    if kind == 2:
        gs = [g + from_basis(random_basis_terms(rng, n), [0] * n) for g in gs]
    return gs


class TestHistogramOracle:
    """The closed-form fibers and witness against the image histogram
    (matrix models) and a plain enumeration (abelian rings) of
    tests/helpers.py, report for report."""

    @pytest.mark.parametrize("variant, k", [("linear", 1), ("linear", 2), ("full", 1)])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_flagship_models(self, variant, k, seed):
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 2, 2), variant))
        gs = _drawn_system(seed, 2, k)
        rep = uniformity_check(gs, model).to_json(include_elapsed=False)
        assert rep == histogram_census(gs, model)
        if not rep["uniform"]:
            assert all(t["tau"] == ["0", "0"] for t in rep["witness_target"]["target"])

    @pytest.mark.parametrize("pqm, text", [
        ((1, 1, 3), "x2 + [[x2,x1],x1]"),
        ((1, 1, 3), "x1 + [[x2,x1],x2]"),
        ((1, 1, 3), "x1 + [[x2,x1],x1] + [[x2,x1],x2]"),
        ((2, 1, 2), "x2 + [[[x2,x1],x1],x1]"),
        ((2, 1, 2), "x1 + [[[x2,x1],x2],x2]"),
    ])
    def test_models_off_the_boolean_ring(self, pqm, text):
        # Top-left values with s^p(s^q - 1) != 0 exist on these models, so
        # the derivatives must be evaluated over Z, not reduced first; a
        # census that reduced them reports other fibers for these systems.
        model = FiniteModel(ModelParams(QuotientParams(*pqm, 2)))
        gs = [mel(text)]
        rep = uniformity_check(gs, model, budget=1 << 40)
        assert rep.to_json(include_elapsed=False) == histogram_census(gs, model)

    @given(seed=st.integers(0, 10_000), m=st.integers(2, 6), n=st.integers(1, 3),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_abelian(self, seed, m, n, data):
        k = data.draw(st.integers(1, n))
        gs = _drawn_system(seed, n, k)
        rep = uniformity_check_abelian(gs, m, n).to_json(include_elapsed=False)
        assert rep == abelian_census(gs, m, n)
        if not rep["uniform"]:
            assert rep["witness_target"]["target"] == [0] * k
