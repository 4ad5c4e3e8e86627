"""Tests for exact polynomial arithmetic and the finite quotient rings."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_poly, random_qpoly, reference_poly_product, subgroup_closure
from metlie.poly import (
    Poly,
    QPoly,
    QuotientParams,
    ResourceLimitError,
    Span,
    divexact,
    format_terms,
    ideal_contains_finite,
    power_exceeds,
    reduce_pqm,
)


def x(i, n=2):
    return Poly.variable(i, n)


class TestPolyArithmetic:
    def test_additive_inverse(self):
        assert not (x(1) + (-x(1)))

    def test_difference_of_squares(self):
        one = Poly.one(2)
        assert (x(1) + one) * (x(1) - one) == x(1) * x(1) - one

    def test_product_brute_force_expansion(self):
        # Term-by-term oracle: (x1*x2) * x2 expands to the single term x1*x2^2.
        a = x(1) * x(2)
        b = x(2)
        assert (a * b).terms == reference_poly_product(a.terms, b.terms) == {(1, 2): 1}

    def test_mismatched_generator_counts(self):
        with pytest.raises(ValueError):
            x(1, 2) + x(1, 3)

    def test_no_zero_coefficients_stored(self):
        p = Poly(2, {(1, 0): 2, (0, 1): 0})
        assert (0, 1) not in p.terms
        assert not (p - p).terms

    def test_scalar_and_pow(self):
        p = 3 * x(1)
        assert p.terms == {(1, 0): 3}
        assert (x(1) + x(2)) ** 2 == x(1) ** 2 + 2 * x(1) * x(2) + x(2) ** 2


small_polys = st.builds(
    lambda d: Poly(2, d),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=5,
    ),
)


def _polys_in(n):
    return st.builds(lambda d: Poly(n, d), st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), st.integers(-9, 9), max_size=5))


class TestProductOracle:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        _polys_in(n), _polys_in(n), st.tuples(*[st.integers(0, 3)] * n), st.integers(-9, 9))))
    @settings(max_examples=100, deadline=None)
    def test_products_match_term_expansion(self, case):
        a, b, mono, c = case
        assert (a * b).terms == reference_poly_product(a.terms, b.terms)
        assert a.mul_term(c, mono).terms == reference_poly_product(a.terms, {mono: c} if c else {})


class TestRingAxioms:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_seeded_bulk_axioms(self):
        rng = random.Random(11)
        for _ in range(10_000):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            c = random_poly(rng, 2)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_qpoly_axioms(self):
        rng = random.Random(13)
        params = QuotientParams(1, 2, 3, 2)
        for _ in range(2000):
            a = random_qpoly(rng, params)
            b = random_qpoly(rng, params)
            c = random_qpoly(rng, params)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


class TestEvaluate:
    def test_free_term(self):
        p = x(1) ** 2 + 3 * x(2) + Poly.constant(5, 2)
        assert p.evaluate([0, 0], 1) == 5

    def test_zero_factor(self):
        assert (x(1) * x(2)).evaluate([0, 1], 1) == 0

    def test_mod_two_refutation_point(self):
        # The evaluation x1 -> 0, x2 -> 1 into Z_2 kills 1 - x2.
        params = QuotientParams(1, 1, 2, 2)
        p = Poly.one(2) - x(2)
        img = p.evaluate([QPoly.zero(params), QPoly.one(params)], QPoly.one(params))
        assert not img

    def test_identity_images(self):
        rng = random.Random(17)
        images = [x(1, 3), x(2, 3), x(3, 3)]
        one = Poly.one(3)
        for _ in range(200):
            p = random_poly(rng, 3)
            assert p.evaluate(images, one) == p

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(19)
        for _ in range(200):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            pt = [rng.randint(-4, 4), rng.randint(-4, 4)]
            assert (a * b).evaluate(pt, 1) == a.evaluate(pt, 1) * b.evaluate(pt, 1)
            assert (a + b).evaluate(pt, 1) == a.evaluate(pt, 1) + b.evaluate(pt, 1)


class TestReducePqm:
    def test_exponent_rule(self):
        params = QuotientParams(1, 2, 3, 1)
        got = reduce_pqm(Poly(1, {(5,): 1}), params)
        assert got.terms == {(1,): 1}

    def test_coefficient_rule(self):
        params = QuotientParams(1, 1, 3, 1)
        assert not reduce_pqm(Poly(1, {(1,): 3}), params)

    def test_square_expansion(self):
        # (x1+1)^2 = x1^2 + 2x1 + 1 -> x1 + 1 with x1^2 = x1 and mod 2.
        params = QuotientParams(1, 1, 2, 1)
        p = (x(1, 1) + Poly.one(1)) ** 2
        got = reduce_pqm(p, params)
        assert got == QPoly(params, {(1,): 1, (0,): 1})

    def test_homomorphism_property(self):
        rng = random.Random(23)
        params = QuotientParams(2, 1, 4, 2)
        for _ in range(1000):
            a = random_poly(rng, 2, max_degree=5)
            b = random_poly(rng, 2, max_degree=5)
            assert reduce_pqm(a * b, params) == reduce_pqm(a, params) * reduce_pqm(b, params)
            assert reduce_pqm(a + b, params) == reduce_pqm(a, params) + reduce_pqm(b, params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            QuotientParams(0, 1, 2, 1)
        with pytest.raises(ValueError):
            QuotientParams(1, 1, 1, 1)


def _ideal_closure_oracle(gens, params):
    """All ideal elements by closing under + and multiplication by variables."""
    current = {QPoly.zero(params)}
    frontier = set(gens)
    variables = [QPoly.variable(i, params) for i in range(1, params.n + 1)]
    while frontier:
        current |= frontier
        nxt = set()
        for a in frontier:
            for v in variables:
                b = a * v
                if b not in current:
                    nxt.add(b)
        # Close the additive group as well.
        items = list(current | nxt)
        for a in items:
            for b in gens:
                s = a + b
                if s not in current and s not in nxt:
                    nxt.add(s)
        frontier = nxt - current
    # One more additive closure sweep until stable.
    changed = True
    while changed:
        changed = False
        items = list(current)
        for a in items:
            for b in items:
                s = a + b
                if s not in current:
                    current.add(s)
                    changed = True
    return current


class TestIdealContainsFinite:
    def test_unit_ideal(self):
        params = QuotientParams(1, 1, 2, 2)
        one = QPoly.one(params)
        target = QPoly(params, {(1, 1): 1, (0, 0): 1})
        assert ideal_contains_finite([one], target)

    def test_x1_is_proper_in_four_element_ring(self):
        params = QuotientParams(1, 1, 2, 1)
        assert not ideal_contains_finite([QPoly.variable(1, params)], QPoly.one(params))

    def test_refuted_by_evaluation(self):
        # x1 -> 0, x2 -> 1 kills both generators but not 1, so 1 is outside.
        params = QuotientParams(1, 1, 2, 2)
        gens = [QPoly.one(params) - QPoly.variable(2, params), QPoly.variable(1, params)]
        assert not ideal_contains_finite(gens, QPoly.one(params))
        pt = [QPoly.zero(params), QPoly.one(params)]
        one = QPoly.one(params)
        assert all(not g.evaluate(pt, one) for g in [Poly.one(2) - x(2), x(1)])

    def test_resource_guard(self):
        params = QuotientParams(2, 2, 3, 2)  # ring size 3^16
        with pytest.raises(ResourceLimitError):
            ideal_contains_finite([QPoly.one(params)], QPoly.one(params),
                                  max_ring_size=1 << 20)

    @pytest.mark.parametrize("p,q,m,n", [
        (1, 1, 2, 1), (1, 1, 2, 2), (2, 1, 3, 1), (1, 1, 3, 1),
        (1, 1, 4, 1), (1, 1, 4, 2), (1, 1, 6, 1),
    ])
    def test_against_brute_force_closure(self, p, q, m, n):
        rng = random.Random(100 * p + 10 * q + m + n)
        params = QuotientParams(p, q, m, n)
        for _ in range(5):
            gens = [random_qpoly(rng, params) for _ in range(rng.randrange(1, 3))]
            if not any(gens):
                gens = [QPoly.variable(1, params)]
            ideal = _ideal_closure_oracle(gens, params)
            for _ in range(10):
                target = random_qpoly(rng, params)
                assert ideal_contains_finite(gens, target) == (target in ideal)


class TestPowerExceeds:
    def test_matches_the_built_power(self):
        for base in range(2, 7):
            for exponent in range(12):
                for bound in range(0, 300, 7):
                    assert power_exceeds(base, exponent, bound) == (base ** exponent > bound)

    def test_huge_exponent_is_not_built(self):
        assert power_exceeds(3, 10 ** 12, 1 << 28)


class TestSpan:
    """The Howell-form span against a plain closure, composite moduli included."""

    @pytest.mark.parametrize("m", [4, 6, 8, 12])
    def test_against_brute_force_closure(self, m):
        rng = random.Random(m)
        for _ in range(40):
            width = rng.randrange(1, 4)
            rows = [tuple(rng.choice([0, rng.randrange(m)]) for _ in range(width))
                    for _ in range(rng.randrange(4))]
            span = Span(m, width)
            for r in rows:
                span.add(r)
            oracle = subgroup_closure(rows, m, width)
            assert span.size() == len(oracle)
            for v in itertools.product(range(m), repeat=width):
                assert (v in span) == (v in oracle)


class TestDivexact:
    def test_exact_quotient(self):
        rng = random.Random(29)
        for _ in range(200):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            if not b:
                continue
            assert divexact(a * b, b) == a

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            divexact(x(1), Poly.constant(2, 2))


class TestPrinting:
    def test_graded_lex_order(self):
        p = x(1) ** 2 + x(1) * x(2) + x(2) - Poly.constant(7, 2)
        assert str(p) == "x1*x2 + x1^2 + x2 - 7"

    def test_zero(self):
        assert format_terms({}) == "0"
        assert str(Poly.zero(2)) == "0"
