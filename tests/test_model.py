"""Tests for the finite matrix Lie rings and exhaustive uniformity checks."""

import gc
import itertools
import json
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    abelian_census, bracket_value, element_code, generator_images, histogram_census,
    random_basis_terms, random_element, random_expr, random_melement, random_tame_automorphism,
    reference_eval, reference_format, reference_module_rows, reference_parse,
)
import metlie.cli
from metlie.cli import Config, main, parse_catalog, run_consistency
from metlie.expr import parse
import metlie.model
from metlie.model import (
    DEFAULT_BUDGET,
    BudgetError,
    FiniteModel,
    ModelElement,
    ModelParams,
    _PointSpans,
    _image_size,
    _onto_at_points,
    _parts,
    _walk,
    eval_closed_form,
    uniformity_check,
    uniformity_check_abelian,
)
from metlie.poly import QPoly, QuotientParams, Span
from metlie.primitivity import DEFAULT_QUOTIENT_GRID
from metlie.ring import MElement, endo_apply, from_basis, to_basis


def mel(text, n=2):
    return parse(text, n)


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
            assert element_code(model, elem) == code
            seen.add(elem)
        assert len(seen) == model.size

    def test_top_left_code(self):
        # The census orders its witness keys by their top-left digit vectors
        # read from the last digit: that is element-code order on the
        # elements (l, 0), and those codes decode to the same elements.
        for params in (ModelParams(QuotientParams(1, 1, 2, 2)),
                       ModelParams(QuotientParams(1, 2, 3, 2), "full")):
            model = FiniteModel(params)
            zero = tuple(QPoly.zero(model.quotient) for _ in range(model.n))
            monos = params.l_monomials
            vectors = list(itertools.product(range(model.quotient.m), repeat=len(monos)))
            codes = {}
            for digits in vectors:
                elem = ModelElement(params, QPoly(model.quotient, dict(zip(monos, digits))), zero)
                codes[digits] = element_code(model, elem)
                assert model.element_from_code(codes[digits]) == elem
            assert sorted(vectors, key=lambda v: v[::-1]) == sorted(vectors, key=codes.__getitem__)


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
        g1, g2 = generator_images(model)
        b = g1.bracket(g2)
        assert not b.l
        assert b.tau == (QPoly.variable(2, model.quotient), QPoly.variable(1, model.quotient))

    def test_alternating(self):
        rng = random.Random(137)
        model = flagship()
        for _ in range(50):
            a = random_element(model, rng)
            assert not a.bracket(a)

    def test_metabelian_on_brackets(self):
        rng = random.Random(139)
        model = flagship()
        for _ in range(50):
            a, b, c, d = (random_element(model, rng) for _ in range(4))
            assert not a.bracket(b).bracket(c.bracket(d))

    def test_matches_matrix_commutator_oracle(self):
        rng = random.Random(149)
        for params in [ModelParams(QuotientParams(1, 1, 2, 2)),
                       ModelParams(QuotientParams(2, 1, 3, 2)),
                       ModelParams(QuotientParams(1, 1, 2, 2), "full")]:
            model = FiniteModel(params)
            for _ in range(40):
                a = random_element(model, rng, max_terms=4)
                b = random_element(model, rng, max_terms=4)
                assert a.bracket(b) == _matrix_commutator_oracle(a, b)

    def test_lie_axioms_all_grid_models(self):
        rng = random.Random(151)
        for p in (1, 2):
            for q in (1, 2):
                for m in (2, 3):
                    model = FiniteModel(ModelParams(QuotientParams(p, q, m, 2)))
                    for _ in range(25):
                        a, b, c = (random_element(model, rng, max_terms=3) for _ in range(3))
                        assert not (a.bracket(b) + b.bracket(a))
                        jac = (a.bracket(b).bracket(c) + b.bracket(c).bracket(a)
                               + c.bracket(a).bracket(b))
                        assert not jac


class TestClosedForm:
    def test_generator_projection(self):
        model = flagship()
        rng = random.Random(157)
        subs = [random_element(model, rng) for _ in range(2)]
        got = eval_closed_form(model, mel("x2"), [s.l for s in subs], [s.tau for s in subs])
        assert got == subs[1]

    def test_bracket_word_at_generator_images(self):
        model = flagship()
        gens = generator_images(model)
        got = eval_closed_form(model, mel("[x2,x1]"),
                               [g.l for g in gens], [g.tau for g in gens])
        assert got == gens[1].bracket(gens[0])

    def test_three_letter_word_at_generator_images(self):
        # tau coordinates mod 2: x1*x2 on t1 (exponent already reduced from
        # x1^2*x2 by the quotient relation) and x1 on t2.
        model = flagship()
        gens = generator_images(model)
        got = eval_closed_form(model, mel("[[x2,x1],x1]"),
                               [g.l for g in gens], [g.tau for g in gens])
        q = model.quotient
        assert not got.l
        assert got.tau == (QPoly(q, {(1, 1): 1}), QPoly(q, {(1, 0): 1}))
        direct = reference_eval(reference_parse("[[x2,x1],x1]", 2), gens)
        assert got == direct

    def test_zero_module_vectors_kill_derived_elements(self):
        model = flagship()
        rng = random.Random(163)
        zero_tau = tuple(QPoly.zero(model.quotient) for _ in range(2))
        s = [random_element(model, rng).l for _ in range(2)]
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
                subs = [random_element(model, rng) for _ in range(2)]
                direct = reference_eval(e, subs)
                g = parse(reference_format(e), 2)
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
                counts[element_code(model, val)] = counts.get(element_code(model, val), 0) + 1
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
            g = parse(reference_format(e), 2)
            m = rng.choice([2, 3, 4])
            for r in itertools.product(range(m), repeat=2):
                direct = reference_eval(e, [Zm(r[0], m), Zm(r[1], m)])
                linear = sum(c * t for c, t in zip(g.linear, r)) % m
                assert direct == Zm(linear, m)


def _census(kind, gs):
    if kind == "matrix":
        return uniformity_check(gs, flagship())
    return uniformity_check_abelian(gs, 2, 2)


class TestSystemInput:
    """Both censuses take 1..n Lie ring elements and nothing else."""

    @pytest.mark.parametrize("kind", ["matrix", "abelian"])
    def test_lie_expression_is_rejected(self, kind):
        # An expression tree, not the element that `parse` returns.
        with pytest.raises(TypeError, match="not a Lie ring element: "):
            _census(kind, [reference_parse("x1", 2)])
        with pytest.raises(TypeError, match="not a Lie ring element: "):
            _census(kind, [mel("x1"), reference_parse("x2", 2)])

    @pytest.mark.parametrize("kind", ["matrix", "abelian"])
    @pytest.mark.parametrize("texts", [[], ["x1", "x2", "x1 + [x1,x2]"]])
    def test_system_size_out_of_range(self, kind, texts):
        with pytest.raises(ValueError) as err:
            _census(kind, [mel(t) for t in texts])
        assert str(err.value) == f"system size {len(texts)} out of range 1..2"


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
        target = tuple(element_code(model, bracket_value(x, args)) for x in expansions)
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
        gs = [parse(reference_format(random_expr(random.Random(seed), 1, depth=3)), 1)]
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


def census_n3_reports() -> list:
    """Reports at n = 3 on the linear carrier of four default models, for a
    non-primitive and a primitive system, as {"system", "report"} entries."""
    out = []
    for text in ("x1 + [x2,x1]", "x1 + [[x2,x1],x1]"):
        for pqm in ((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2, 2)):
            model = FiniteModel(ModelParams(QuotientParams(*pqm, 3)))
            rep = uniformity_check([mel(text, 3)], model, budget=1 << 1000)
            out.append({"system": [text], "report": rep.to_json(include_elapsed=False)})
    return out


class TestCensusN3Golden:
    """`census_n3_reports` byte for byte as the census that took a Howell
    form over the whole ring for every map that is not onto wrote it, dumped
    with sort_keys=True, indent=2."""

    def test_reports_match_golden(self):
        text = json.dumps(census_n3_reports(), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / "census_n3_golden.json").read_text()


def census_prime_power_reports() -> list:
    """Reports on the linear carrier of rings whose m is a prime power: the
    acceptance catalog at n = 2 on five of them, and a non-primitive and a
    primitive system at n = 3 on (1,1,4), as {"system", "report"} entries."""
    n, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
    runs = [(pqm, n, texts) for pqm in ((1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 4), (1, 1, 9))
            for texts, _ in systems]
    runs += [((1, 1, 4), 3, [text]) for text in ("x1 + [x2,x1]", "x1 + [[x2,x1],x1]")]
    out = []
    for pqm, n, texts in runs:
        model = FiniteModel(ModelParams(QuotientParams(*pqm, n)))
        rep = uniformity_check([mel(t, n) for t in texts], model, budget=1 << 1000)
        out.append({"system": texts, "report": rep.to_json(include_elapsed=False)})
    return out


class TestCensusPrimePowerGolden:
    """`census_prime_power_reports` byte for byte as the census that took a
    Howell form over the whole ring for every map that was not onto on these
    rings wrote it, dumped with sort_keys=True, indent=2."""

    def test_reports_match_golden(self):
        text = json.dumps(census_prime_power_reports(), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / "census_prime_power_golden.json").read_text()


def census_nonsplit_reports() -> list:
    """Reports on the linear carrier of rings where x^q - 1 does not split:
    the acceptance catalog at n = 2 on four of them, and two non-primitive
    systems and a primitive one at n = 3 on (1,3,2), as {"system", "report"}
    entries."""
    n, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
    runs = [(pqm, n, texts) for pqm in ((1, 3, 2), (2, 3, 2), (1, 4, 3), (1, 3, 4))
            for texts, _ in systems]
    runs += [((1, 3, 2), 3, texts.split("; "))
             for texts in ("x1 + [x2,x1]", "x1 + [[x2,x1],x1]", "x1 + [x2,x1]; x3")]
    out = []
    for pqm, n, texts in runs:
        model = FiniteModel(ModelParams(QuotientParams(*pqm, n)))
        rep = uniformity_check([mel(t, n) for t in texts], model, budget=1 << 4000)
        out.append({"system": texts, "report": rep.to_json(include_elapsed=False)})
    return out


class TestCensusNonsplitGolden:
    """`census_nonsplit_reports` byte for byte as the census that took a
    Howell form over the whole ring for every tuple on these rings wrote it,
    dumped with sort_keys=True, indent=2."""

    def test_reports_match_golden(self):
        text = json.dumps(census_nonsplit_reports(), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / "census_nonsplit_golden.json").read_text()


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

    @pytest.mark.parametrize("pqmn, variant, text", [
        # (1,1,4): a local ring that is not a field; (1,1,6): two primes;
        # (1,3,2): x^3 - 1 does not split over F_2, so only the part at 0
        # has an onto test.
        ((1, 1, 4, 2), "linear", "[x2,x1]"),
        ((1, 1, 4, 2), "linear", "2*x1 + [x2,x1]"),
        ((1, 1, 4, 1), "full", "x1"),
        ((1, 1, 6, 2), "linear", "3*x1 + 3*[x2,x1]"),
        ((1, 1, 6, 1), "linear", "x1"),
        ((1, 1, 6, 1), "full", "2*x1"),
        ((1, 1, 6, 1), "full", "3*x1"),
        ((1, 3, 2, 1), "linear", "x1"),
        ((1, 3, 2, 1), "full", "x1"),
        ((1, 3, 2, 1), "full", "2*x1"),
    ])
    def test_residue_fields(self, pqmn, variant, text):
        model = FiniteModel(ModelParams(QuotientParams(*pqmn), variant))
        gs = [mel(text, pqmn[3])]
        rep = uniformity_check(gs, model, budget=1 << 4000)
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


# The default grid, rings whose m is a prime power with a square factor, and
# rings where x^q - 1 does not split (the filter keeps their linear carrier).
PRIME_POWER_GRID = ((1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 4), (1, 1, 8))
NONSPLIT_GRID = ((1, 3, 2), (2, 3, 2), (1, 4, 3), (1, 3, 4))

RESIDUE_MODELS = [
    params for params in (ModelParams(QuotientParams(*pqm, 2), variant)
                          for pqm in DEFAULT_QUOTIENT_GRID + PRIME_POWER_GRID + NONSPLIT_GRID
                          for variant in ("linear", "full"))
    if FiniteModel(params).l_size ** 2 <= 4096
]


def _whole_ring_size(gs, quotient, args, sizes: dict) -> int:
    """|Im_s| from the Howell form of the rows mu * d_j g_i(s) over the whole
    ring, the rows built from term-map products.  The evaluated columns
    d_j g_i(s) alone fix the size, so `sizes` memoizes it by them."""
    one = QPoly.one(quotient)
    columns = tuple(tuple(g.deriv[j].evaluate(args, one) for g in gs) for j in range(quotient.n))
    if columns not in sizes:
        image = Span(quotient.m, len(gs) * quotient.monomial_count)
        for row in reference_module_rows(columns, quotient):
            image.add(row)
        sizes[columns] = image.size()
    return sizes[columns]


def _sizes(gs, quotient, l_space):
    """`_image_size` of `gs` over `l_space`, with a table of its own."""
    return _image_size(_PointSpans(gs), quotient, l_space, _parts(quotient, l_space))


def _span_widths(monkeypatch) -> list:
    """The widths of the spans `metlie.model` builds from now on."""
    widths = []

    class CountingSpan(Span):
        def __init__(self, m, width):
            widths.append(width)
            super().__init__(m, width)

    monkeypatch.setattr(metlie.model, "Span", CountingSpan)
    return widths


class TestResidueOnto:
    """The image sizes of the census (`_image_size`: spans at the residue
    points, then the local factors of the CRT split) against the Howell form
    of the image rows mu * d_j g_i(s) over the whole ring, tuple by tuple;
    and which of those spans the census builds."""

    @pytest.mark.parametrize("params", RESIDUE_MODELS, ids=lambda params: "{}-{}{}{}".format(
        params.top_left, params.quotient.p, params.quotient.q, params.quotient.m))
    def test_matches_the_image_span(self, params):
        model = FiniteModel(params)
        quotient = model.quotient
        n, m = quotient.n, quotient.m
        l_monos = params.l_monomials
        l_space = [QPoly(quotient, dict(zip(l_monos, v)))
                   for v in itertools.product(range(m), repeat=len(l_monos))]
        _, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
        verdicts, sizes = set(), {}
        for texts, _ in systems:
            gs = [mel(t) for t in texts]
            onto_size = model.ring_size ** len(gs)
            image_size = _sizes(gs, quotient, l_space)
            for s in itertools.product(range(len(l_space)), repeat=n):
                size = _whole_ring_size(gs, quotient, [l_space[t] for t in s], sizes)
                assert image_size(s) == size, (texts, s)
                verdicts.add(size == onto_size)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("params", [
        ModelParams(QuotientParams(*pqm, 2), variant)
        for pqm in DEFAULT_QUOTIENT_GRID + ((1, 1, 9), (1, 2, 9)) for variant in ("linear", "full")
    ], ids=lambda params: "{}-{}{}{}".format(
        params.top_left, params.quotient.p, params.quotient.q, params.quotient.m))
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_drawn_systems_match_the_image_span(self, params, seed, k):
        # One drawn top-left pair per example, on every default model: on
        # the full carrier l_space would be too large to list.
        model = FiniteModel(params)
        rng = random.Random(seed)
        gs = _drawn_system(seed, 2, k)
        args = [random_element(model, rng, max_terms=0).l for _ in range(2)]
        size = _sizes(gs, model.quotient, args)((0, 1))
        assert size == _whole_ring_size(gs, model.quotient, args, {})

    def test_local_spans_over_z2(self, monkeypatch):
        # On (1,2,2), x^2 - 1 = (x - 1)^2 over F_2: the parts at xi with some
        # xi_i = 1 have dimension 2 or 4, and their spans over Z/2 (the XOR
        # path of `Span`) give every image size of x1 + [x2,x1] that the
        # Howell form over the whole ring gives.
        built = []

        class RecordingSpan(Span):
            def size(self):
                out = super().size()
                built.append((self.m, self.width, out))
                return out

        monkeypatch.setattr(metlie.model, "Span", RecordingSpan)
        quotient = QuotientParams(1, 2, 2, 2)
        model = FiniteModel(ModelParams(quotient))
        l_space = model.l_space
        gs = [mel("x1 + [x2,x1]")]
        image_size, sizes = _sizes(gs, quotient, l_space), {}
        for s in itertools.product(range(len(l_space)), repeat=2):
            assert image_size(s) == _whole_ring_size(gs, quotient, [l_space[t] for t in s], sizes)
        local = {(width, size) for m, width, size in built if width > 1}
        assert {m for m, _, _ in built} == {2}
        assert {width for width, _ in local} == {2, 4}
        assert any(1 < size < 2 ** width for width, size in local)

    def test_onto_maps_need_no_image_span(self, monkeypatch):
        # Every map of this primitive system is onto at n = 3 on (2,2,2):
        # the census builds rank spans of width k = 1 only, none of k * w.
        widths = _span_widths(monkeypatch)
        model = FiniteModel(ModelParams(QuotientParams(2, 2, 2, 3)))
        rep = uniformity_check([mel("x1 + [[x2,x1],x1]", 3)], model, budget=1 << 600)
        assert rep.uniform
        assert set(widths) == {1}

    def test_product_of_fields_needs_ranks_only(self, monkeypatch):
        # On (1,1,3) R is a product of fields F_3: every size is a rank.
        widths = _span_widths(monkeypatch)
        model = FiniteModel(ModelParams(QuotientParams(1, 1, 3, 3)))
        rep = uniformity_check([mel("x1 + [x2,x1]", 3)], model, budget=1 << 600)
        assert not rep.uniform
        assert set(widths) == {1}

    def test_local_rings_need_local_spans(self, monkeypatch):
        # On (2,2,2) each of the 8 factors is F_2[y]/(y_1^2, y_2^2, y_3^2),
        # of dimension 8: spans of width 8, none of the whole ring's 64.
        widths = _span_widths(monkeypatch)
        model = FiniteModel(ModelParams(QuotientParams(2, 2, 2, 3)))
        rep = uniformity_check([mel("x1 + [x2,x1]", 3)], model, budget=1 << 600)
        assert not rep.uniform
        assert set(widths) == {1, 8}

    @pytest.mark.parametrize("pqm, dims", [
        ((1, 1, 4), {1}),        # Z_4[X] = Z_4^(2^n): every part is Z/4
        ((1, 2, 4), {1, 2, 4}),  # x^2 - 1 is one local factor over Z/4
    ])
    @pytest.mark.parametrize("text", ["x1 + [x2,x1]", "x1 + [x2,x1]; x2"])
    def test_prime_powers_need_local_spans(self, monkeypatch, pqm, dims, text):
        # The census of a ring whose m has a square factor builds spans over
        # the local rings only: k wide at the points, k * dim A_xi for the
        # other parts; none of the whole ring's k * w.
        built = _span_widths(monkeypatch)
        model = FiniteModel(ModelParams(QuotientParams(*pqm, 2)))
        gs = [mel(t) for t in text.split("; ")]
        rep = uniformity_check(gs, model, budget=1 << 600)
        assert not rep.uniform
        assert {math.prod(e) for _, _, e in model.quotient.local_factors()} == dims
        assert set(built) == {len(gs) * dim for dim in dims}

    def test_whole_ring_fallback(self, monkeypatch):
        # x^3 - 1 does not split over F_2, yet x and x^3 - 1 are comaximal:
        # the census of (1,3,2) builds spans over the parts at xi in {0,1}^2
        # only, k wide at the point 0 and k * {3, 9} for the parts with some
        # xi_i = 1; none of the whole ring's k * 16.
        for text in ("x1 + [x2,x1]", "x1 + [x2,x1]; x2"):
            built = _span_widths(monkeypatch)
            model = FiniteModel(ModelParams(QuotientParams(1, 3, 2, 2)))
            gs = [mel(t) for t in text.split("; ")]
            rep = uniformity_check(gs, model, budget=1 << 600)
            assert not rep.uniform
            assert set(built) == {len(gs) * dim for dim in (1, 3, 9)}

    def test_not_split_has_no_test(self):
        quotient = QuotientParams(1, 3, 2, 2)
        assert quotient.local_factors() is None
        args = [QPoly.variable(1, quotient), QPoly.zero(quotient)]
        gs = [mel("x1 + [x2,x1]")]
        assert _sizes(gs, quotient, args)((0, 1)) == _whole_ring_size(gs, quotient, args, {})


# Split rings at n = 2 for the point verdict: the default grid, prime
# powers, and the residue fields F_5 and F_7; the full carrier where it
# fits the default budget.
POINT_MODELS = [
    params for params in (ModelParams(QuotientParams(*pqm, 2), variant)
                          for pqm in DEFAULT_QUOTIENT_GRID + ((1, 1, 4), (1, 2, 4), (1, 1, 5), (1, 3, 7))
                          for variant in ("linear", "full"))
    if params.top_left == "linear" or FiniteModel(params).size ** 2 <= DEFAULT_BUDGET
]
PERTURBATIONS = ("[x2,x1]", "[[x2,x1],x1]", "[[x2,x1],x2]")


@st.composite
def _point_systems(draw):
    """A catalog system, perhaps with c * (a bracket word) added to one of
    its elements (say x1 + 6*[x2,x1]), or a `_drawn_system`."""
    if draw(st.booleans()):
        return _drawn_system(draw(st.integers(0, 10_000)), 2, draw(st.integers(1, 2)))
    _, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
    texts, _ = draw(st.sampled_from(systems))
    gs = [mel(t) for t in texts]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(gs) - 1))
        gs[i] = gs[i] + draw(st.integers(-7, 7)) * mel(draw(st.sampled_from(PERTURBATIONS)))
    return gs


class TestPointVerdict:
    """`_onto_at_points`, which decides the uniform reports of a split ring,
    against the walk over every top-left tuple (`_walk`)."""

    @pytest.mark.parametrize("params", POINT_MODELS, ids=lambda params: "{}-{}{}{}".format(
        params.top_left, params.quotient.p, params.quotient.q, params.quotient.m))
    @given(gs=_point_systems())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_walk(self, params, gs):
        model = FiniteModel(params)
        fiber_min, fiber_max, witness = _walk(_PointSpans(gs), model)
        uniform = fiber_min == fiber_max == model.size ** (2 - len(gs))
        assert _onto_at_points(_PointSpans(gs), model.quotient) == uniform
        assert (witness is None) == uniform

    def test_grid_gap_is_uniform(self):
        # x1 + 6*[x2,x1] is not primitive, but its Jacobi matrix has rank 1
        # at every point over F_2 and F_3: uniform on m = 2, 3, not on m = 5.
        gs = [mel("x1 + 6*[x2,x1]")]
        for pqm, uniform in (((1, 1, 2), True), ((1, 2, 3), True), ((1, 1, 5), False)):
            model = FiniteModel(ModelParams(QuotientParams(*pqm, 2)))
            assert _onto_at_points(_PointSpans(gs), model.quotient) is uniform
            assert uniformity_check(gs, model, budget=1 << 100).uniform is uniform

    def test_split_rings_walk_only_reports_not_uniform(self, monkeypatch, capsys):
        # x^3 - 1 does not split over F_2: (1,3,2) has no point test, so the
        # walk decides even the uniform report of x1 there; on (1,1,2) the
        # points decide it and nothing walks.
        walked = []

        def walk(points, model):
            walked.append(model.quotient)
            return _walk(points, model)

        monkeypatch.setattr(metlie.model, "_walk", walk)
        for grid, walks in (("1,3,2", [QuotientParams(1, 3, 2, 2)]), ("1,1,2", [])):
            walked.clear()
            code = main(["--grid", grid, "--budget", str(1 << 100), "--json", "witness", "x1"])
            payload = json.loads(capsys.readouterr().out)
            assert code == 1 and payload["witness"] is None and not payload["skipped"]
            assert walked == walks


class TestOnePointTable:
    """A census builds one table of point spans (`_PointSpans`), which the
    point test and the walk share, and evaluates each (modulus, point) once."""

    @pytest.mark.parametrize("m", [2, 4])
    def test_each_point_is_evaluated_once(self, monkeypatch, m):
        tables, evaluated, read, phase = [], [], [], [None]

        class CountingSpans(_PointSpans):
            def __init__(self, gs):
                tables.append(self)
                super().__init__(gs)

            def __missing__(self, key):
                evaluated.append(key)
                return super().__missing__(key)

            def __getitem__(self, key):
                read.append((phase[0], key))
                return super().__getitem__(key)

        def in_phase(name, step):
            def run(points, arg):
                phase[0] = name
                return step(points, arg)
            return run

        monkeypatch.setattr(metlie.model, "_PointSpans", CountingSpans)
        monkeypatch.setattr(metlie.model, "_onto_at_points", in_phase("points", _onto_at_points))
        monkeypatch.setattr(metlie.model, "_walk", in_phase("walk", _walk))
        model = FiniteModel(ModelParams(QuotientParams(1, 1, m, 2)))
        assert not uniformity_check([mel("x1 + [x2,x1]")], model, budget=1 << 100).uniform
        assert len(tables) == 1
        assert len(evaluated) == len(set(evaluated)) > 0
        at_points = {key for name, key in read if name == "points"}
        walked = {key for name, key in read if name == "walk"}
        assert set(evaluated) == at_points | walked
        # The point test reads points of F_2^2 only, also over Z/4.
        assert at_points and all(r == 2 and set(a) <= {0, 1} for r, *a in at_points)
        if m == 2:
            assert at_points <= walked
        else:
            assert {r for r, *_ in walked} == {4}


class TestCarrierLifetime:
    """The top-left carrier is built once per model and run, and dies with
    the model: `consistency` builds its grid models once, and nothing in
    `metlie` keeps them."""

    def test_shared_by_systems_and_dropped_with_the_run(self, monkeypatch):
        calls = []  # (weakref to the model, its l_space after the census)

        def census(gs, model, **kwargs):
            ref = weakref.ref(model)
            try:
                return uniformity_check(gs, model, **kwargs)
            finally:
                calls.append((ref, vars(model).get("l_space")))

        monkeypatch.setattr(metlie.cli, "uniformity_check", census)
        n, systems = parse_catalog((DATA / "acceptance_catalog.txt").read_text())
        summary = run_consistency(n, systems, Config(n=n))
        walked = [(ref, space) for ref, space in calls if space is not None]
        # The non-uniform systems on (1,1,2) walk one model's one l_space.
        assert len(walked) >= 2
        assert len({id(space) for _, space in walked}) == 1
        assert all(ref() is walked[0][0]() for ref, _ in walked)
        assert len(calls) == len(systems) * len(DEFAULT_QUOTIENT_GRID)
        del summary, walked
        gc.collect()
        assert all(ref() is None for ref, _ in calls)
