"""Tests for exact polynomial arithmetic and the finite quotient rings."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RefQPoly, mul_term, random_poly, random_qpoly, reference_module_rows, reference_poly_product,
    reference_product_table, reference_qpoly_product, reference_qpoly_sum,
    reference_qpoly_terms, subgroup_closure,
)
from metlie.poly import (
    Poly,
    QPoly,
    QuotientParams,
    ResourceLimitError,
    Span,
    cube_values,
    divexact,
    format_terms,
    grevlex_key,
    ideal_contains_finite,
    module_rows,
    power_exceeds,
    prime_power_factors,
    reduce_pqm,
)
from metlie.primitivity import DEFAULT_QUOTIENT_GRID


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

    def test_coefficients_must_be_ints(self):
        # int() would truncate the float and parse the string; a bool is an int.
        for coeff in (2.9, "2", 1.0):
            with pytest.raises(TypeError, match=f"polynomial coefficients must be ints, got {coeff!r}"):
                Poly(2, {(1, 0): coeff})
        assert Poly(2, {(1, 0): True, (0, 1): False}) == x(1)

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
        assert mul_term(a, c, mono).terms == reference_poly_product(a.terms, {mono: c} if c else {})


class TestRingAxioms:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        diff = {mono: a.terms.get(mono, 0) - b.terms.get(mono, 0) for mono in a.terms.keys() | b.terms.keys()}
        assert (a - b).terms == {mono: x for mono, x in diff.items() if x}
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
        img = p.evaluate([RefQPoly.zero(params), RefQPoly.one(params)], RefQPoly.one(params))
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

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        _polys_in(n), st.lists(st.integers(-4, 4), min_size=n, max_size=n))),
        st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_term_order_does_not_change_the_value(self, case, rng):
        # evaluate sums the terms in dict order; in a commutative target
        # ring the value does not depend on the order they were inserted in.
        a, ints = case
        n = a.n
        shuffled = list(a.terms.items())
        rng.shuffle(shuffled)
        orders = [shuffled, sorted(a.terms.items(), key=lambda t: grevlex_key(t[0]))]
        params = QuotientParams(1, 2, 3, n)
        targets = [
            (ints, 1),
            ([random_poly(rng, n, max_degree=1, max_terms=3) for _ in range(n)], Poly.one(n)),
            ([random_qpoly(rng, params, max_terms=3) for _ in range(n)], RefQPoly.one(params)),
        ]
        for items in orders:
            b = Poly(n, dict(items))
            assert list(b.terms.items()) == items and b == a
            for images, one in targets:
                assert b.evaluate(images, one) == a.evaluate(images, one)

    def test_powers_built_once(self):
        # x1^2..x1^5 take 4 products, x2^2 one, and x1^3 * x2^2 one; no
        # power is built twice and no term starts from a product with one.
        products = []

        class Counted:
            def __init__(self, value):
                self.value = value

            def __add__(self, other):
                return Counted(self.value + other.value)

            def __mul__(self, other):
                if isinstance(other, int):
                    return Counted(self.value * other)
                products.append((self.value, other.value))
                return Counted(self.value * other.value)

            __rmul__ = __mul__

        p = x(1) ** 5 + x(1) ** 3 * x(2) ** 2
        assert p.evaluate([Counted(2), Counted(3)], Counted(1)).value == 2 ** 5 + 2 ** 3 * 3 ** 2
        assert len(products) == 6


class TestCubeValues:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_evaluate(self, n):
        rng = random.Random(n)
        points = list(itertools.product((0, 1), repeat=n))
        for _ in range(40):
            a = random_poly(rng, n, max_degree=3, max_terms=6)
            assert cube_values(a) == [a.evaluate(list(xi), 1) for xi in points]


def prime_powers(m) -> dict:
    """{l: l^a} for each prime power l^a exactly dividing m, by trial division."""
    out = {}
    for ell in range(2, m + 1):
        while m % ell == 0:
            m //= ell
            out[ell] = out.get(ell, 1) * ell
    return out


class TestPrimePowerFactors:
    """`prime_power_factors`, the one factorisation of m behind the census's
    local factors and its point test."""

    def test_matches_a_sieve(self):
        bound = 5000
        smallest = list(range(bound + 1))  # the smallest prime factor of each m
        for ell in range(2, math.isqrt(bound) + 1):
            if smallest[ell] == ell:
                for multiple in range(ell * ell, bound + 1, ell):
                    smallest[multiple] = min(smallest[multiple], ell)
        for m in range(2, bound + 1):
            factors, rest = {}, m
            while rest > 1:
                ell = smallest[rest]
                factors[ell] = factors.get(ell, 1) * ell
                rest //= ell
            assert list(prime_power_factors(m)) == sorted(factors.items()), m

    def test_large_prime(self):
        # About 10^6 trial divisions, not 10^12.
        assert list(prime_power_factors(999_999_999_989)) == [(999_999_999_989, 999_999_999_989)]

    @pytest.mark.parametrize("p, q, m", DEFAULT_QUOTIENT_GRID + (
        (1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 4), (1, 1, 8),  # prime powers
        (1, 3, 2), (2, 3, 2), (1, 4, 3), (1, 3, 4),  # x^q - 1 does not split
    ))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moduli_of_the_local_factors(self, p, q, m, n):
        got = QuotientParams(p, q, m, n).local_factors()
        factors = list(prime_power_factors(m))
        if not all(local for *_, local in got):
            # Some F_l lacks a q'-th root of unity, q' the part of q prime to l.
            assert any((ell - 1) % (q // math.gcd(q, ell ** q)) for ell, _ in factors)
        assert list(dict.fromkeys(r for r, *_ in got)) == [r for _, r in factors]


class TestResiduePoints:
    """The points of `QuotientParams.local_factors`."""

    @pytest.mark.parametrize("p, q, m, roots", [
        (1, 1, 2, {2: [0, 1]}),
        (1, 2, 3, {3: [0, 1, 2]}),
        (2, 2, 2, {2: [0, 1]}),
        (1, 1, 6, {2: [0, 1], 3: [0, 1]}),
        (1, 2, 12, {4: [0, 1], 3: [0, 1, 2]}),  # 3 is a root mod 4 too, above 1 mod 2
        (1, 3, 7, {7: [0, 1, 2, 4]}),  # 3 | 7 - 1
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_split(self, p, q, m, roots, n):
        got = QuotientParams(p, q, m, n).local_factors()
        assert list(dict.fromkeys(r for r, *_ in got)) == list(roots)
        assert all(local for *_, local in got)
        for r in roots:
            assert all(a ** p * (a ** q - 1) % r == 0 for a in roots[r])
            points = [xi for r2, xi, *_ in got if r2 == r]
            assert points == list(itertools.product(roots[r], repeat=n))

    @pytest.mark.parametrize("p, q, m", [(1, 3, 2), (1, 4, 3), (1, 3, 10)])
    def test_not_split(self, p, q, m):
        # x^3 - 1 has no root but 1 in F_2 and F_5, x^4 - 1 only 1, 2 in F_3.
        assert not all(local for *_, local in QuotientParams(p, q, m, 2).local_factors())

    def test_split_iff_roots(self):
        # p, q <= 4, m <= 16, n in {1, 2}: at each r = l^a the dimensions of
        # the parts sum to (p+q)^n, and exactly the parts at 0 and those over
        # an l where x^q' - 1 has q' roots in F_l are local.  Where it has
        # fewer, the parts are x^p and x^q - 1 per coordinate; otherwise the
        # lifted roots are roots of unity of order dividing q', fixed by
        # a -> a^(l^v), distinct mod l, and
        # x^p(x^q - 1) = x^p prod (x^(l^v) - a) over Z/r.
        y = Poly.variable(1, 1)
        outcomes = set()
        for p, q, m, n in itertools.product(range(1, 5), range(1, 5), range(2, 17), (1, 2)):
            got = QuotientParams(p, q, m, n).local_factors()
            outcomes.add(all(local for *_, local in got))
            assert list(dict.fromkeys(r for r, *_ in got)) == list(prime_powers(m).values())
            for ell, r in prime_powers(m).items():
                power = prime_powers(q).get(ell, 1)
                qq = q // power
                split = sum(pow(a, qq, ell) == 1 for a in range(1, ell)) == qq
                parts = [(xi, e, local) for r2, xi, e, local in got if r2 == r]
                assert sum(math.prod(e) for _, e, _ in parts) == (p + q) ** n
                assert all(local == (split or not any(xi)) for xi, _, local in parts), (p, q, m, n)
                if not split:
                    assert [xi for xi, _, _ in parts] == list(itertools.product((0, 1), repeat=n))
                    assert all(e == tuple(q if x else p for x in xi) for xi, e, _ in parts)
                    continue
                coords = {}
                for xi, e, _ in parts:
                    coords.update(zip(xi, e))
                roots = [a for a in coords if a]
                assert len(roots) == qq and coords[0] == p
                assert all(pow(a, qq, r) == 1 and pow(a, power, r) == a and coords[a] == power
                           for a in roots)
                assert len({a % ell for a in coords}) == len(coords)
                f = math.prod((y ** power - Poly.constant(a, 1) for a in roots), start=y ** p)
                g = y ** p * (y ** q - Poly.one(1))
                assert all(c % r == 0 for c in (f - g).terms.values()), (p, q, m)
        assert outcomes == {True, False}


def root_multiplicity(p, q, ell, a) -> int:
    """The multiplicity of a as a root of x^p(x^q - 1) over F_l: the lowest
    power of y with a coefficient prime to l in the expansion at x = a + y."""
    shifted = Poly.constant(a, 1) + x(1, 1)
    f = shifted ** p * (shifted ** q - Poly.one(1))
    return min(mono[0] for mono, c in f.terms.items() if c % ell)


class TestLocalFactors:
    """The multiplicities e(xi) of `QuotientParams.local_factors`."""

    @pytest.mark.parametrize("p, q, m", [
        (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3), (1, 2, 12), (3, 4, 2), (2, 6, 3),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_root_multiplicities(self, p, q, m, n):
        params = QuotientParams(p, q, m, n)
        got = params.local_factors()
        for ell, r in prime_powers(m).items():
            factors = [(xi, e) for r2, xi, e, _ in got if r2 == r]
            for i in range(n):
                mult = {}
                for xi, e in factors:
                    assert e[i] == root_multiplicity(p, q, ell, xi[i] % ell)
                    mult[xi[i]] = e[i]
                assert sum(mult.values()) == p + q
            # prod r^dim A_xi = r^w: the factors have as many Z/r-digits as R/rR.
            assert sum(math.prod(e) for _, e in factors) == params.monomial_count

    @pytest.mark.parametrize("p, q, m, mult", [
        (1, 2, 3, {0: 1, 1: 1, 2: 1}),  # x(x - 1)(x + 1): a product of fields
        (1, 2, 2, {0: 1, 1: 2}),        # x(x - 1)^2 over F_2
        (2, 2, 2, {0: 2, 1: 2}),        # x^2(x - 1)^2 over F_2
    ])
    def test_multiplicities(self, p, q, m, mult):
        got = QuotientParams(p, q, m, 2).local_factors()
        assert got == [(m, xi, tuple(mult[a] for a in xi), True)
                       for xi in itertools.product(sorted(mult), repeat=2)]

    def test_square_factor_keeps_its_points(self):
        # Over Z/4, x(x - 1) splits at 0 and 1 into two copies of Z/4;
        # x(x^2 - 1) has the local factor x^2 - 1 at 1 (3 is a root mod 4 too).
        # Over Z/9 the roots 1, 2 of x^2 - 1 mod 3 lift to 1 and 2^3 = 8.
        assert QuotientParams(1, 1, 4, 2).local_factors() == [
            (4, xi, (1, 1), True) for xi in itertools.product([0, 1], repeat=2)]
        assert QuotientParams(1, 2, 4, 1).local_factors() == [
            (4, (0,), (1,), True), (4, (1,), (2,), True)]
        assert QuotientParams(1, 2, 12, 1).local_factors() == [
            (4, (0,), (1,), True), (4, (1,), (2,), True),
            (3, (0,), (1,), True), (3, (1,), (1,), True), (3, (2,), (1,), True)]
        assert QuotientParams(2, 2, 9, 1).local_factors() == [
            (9, (0,), (2,), True), (9, (1,), (1,), True), (9, (8,), (1,), True)]


class TestReducePqm:
    def test_exponent_rule(self):
        params = QuotientParams(1, 2, 3, 1)
        got = reduce_pqm(Poly(1, {(5,): 1}), params)
        assert RefQPoly.of(got).terms == {(1,): 1}

    def test_coefficient_rule(self):
        params = QuotientParams(1, 1, 3, 1)
        assert not RefQPoly.of(reduce_pqm(Poly(1, {(1,): 3}), params))

    def test_square_expansion(self):
        # (x1+1)^2 = x1^2 + 2x1 + 1 -> x1 + 1 with x1^2 = x1 and mod 2.
        params = QuotientParams(1, 1, 2, 1)
        p = (x(1, 1) + Poly.one(1)) ** 2
        got = reduce_pqm(p, params)
        assert RefQPoly.of(got) == RefQPoly(params, {(1,): 1, (0,): 1})

    def test_homomorphism_property(self):
        rng = random.Random(23)
        params = QuotientParams(2, 1, 4, 2)

        def red(a):
            return RefQPoly.of(reduce_pqm(a, params))

        for _ in range(1000):
            a = random_poly(rng, 2, max_degree=5)
            b = random_poly(rng, 2, max_degree=5)
            assert red(a * b) == red(a) * red(b)
            assert red(a + b) == red(a) + red(b)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            QuotientParams(0, 1, 2, 1)
        with pytest.raises(ValueError):
            QuotientParams(1, 1, 1, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent in monomial"):
            QPoly(QuotientParams(1, 1, 2, 2), {(-1, 0): 1})

    def test_coefficients_must_be_ints(self):
        # As for Poly: `% m` would keep a float's fraction; a bool is an int.
        params = QuotientParams(1, 1, 2, 2)
        for coeff in (2.9, "2"):
            with pytest.raises(TypeError, match=f"polynomial coefficients must be ints, got {coeff!r}"):
                QPoly(params, {(1, 0): coeff})
        got = QPoly(params, {(1, 0): True, (0, 1): False})
        assert RefQPoly.of(got) == RefQPoly.variable(1, params)
        assert all(type(c) is int for c in got.vec)


@st.composite
def _term_maps(draw, params):
    # Exponents up to twice p+q, so the constructor's rewrite is exercised.
    monos = st.tuples(*[st.integers(0, 2 * params.exponent_span)] * params.n)
    coeffs = st.integers(-2 * params.m, 2 * params.m)
    return draw(st.dictionaries(monos, coeffs, max_size=6))


class TestQPolyOracle:
    """The dense encoding, the one product table (`QuotientParams.product_table`)
    and the rows of `module_rows`, with `helpers.RefQPoly`'s arithmetic on
    them, against term-map arithmetic that shares neither
    (`helpers.reference_qpoly_*`)."""

    @pytest.mark.parametrize("p, q, m", DEFAULT_QUOTIENT_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_against_term_maps(self, p, q, m, n, data):
        params = QuotientParams(p, q, m, n)
        ta, tb = data.draw(_term_maps(params)), data.draw(_term_maps(params))
        c = data.draw(st.integers(-2 * m, 2 * m))
        a, b = RefQPoly(params, ta), RefQPoly(params, tb)
        assert a.terms == reference_qpoly_terms(ta, params)
        assert (a + b).terms == reference_qpoly_sum(ta, tb, params)
        assert (a - b).terms == reference_qpoly_sum(ta, {mu: -x for mu, x in tb.items()}, params)
        assert (-a).terms == reference_qpoly_terms({mu: -x for mu, x in ta.items()}, params)
        assert (c * a).terms == reference_qpoly_terms({mu: c * x for mu, x in ta.items()}, params)
        assert (a * b).terms == reference_qpoly_product(ta, tb, params)
        assert list(module_rows([a, b])) == reference_module_rows([(a,), (b,)], params)


class TestProductTable:
    """The table built one generator at a time against one `position` call
    per pair of monomials (`helpers.reference_product_table`)."""

    @pytest.mark.parametrize("p, q", list(itertools.product(range(1, 4), repeat=2)))
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_positions(self, p, q, m, n):
        params = QuotientParams(p, q, m, n)
        assert params.product_table() == reference_product_table(params)


def _ideal_closure_oracle(gens, params):
    """All ideal elements by closing under + and multiplication by variables."""
    current = {RefQPoly.zero(params)}
    frontier = set(gens)
    variables = [RefQPoly.variable(i, params) for i in range(1, params.n + 1)]
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
        assert not ideal_contains_finite([RefQPoly.variable(1, params)], QPoly.one(params))

    def test_refuted_by_evaluation(self):
        # x1 -> 0, x2 -> 1 kills both generators but not 1, so 1 is outside.
        params = QuotientParams(1, 1, 2, 2)
        gens = [RefQPoly.one(params) - RefQPoly.variable(2, params), RefQPoly.variable(1, params)]
        assert not ideal_contains_finite(gens, QPoly.one(params))
        pt = [RefQPoly.zero(params), RefQPoly.one(params)]
        one = RefQPoly.one(params)
        assert all(not g.evaluate(pt, one) for g in [Poly.one(2) - x(2), x(1)])

    def test_resource_guard(self):
        params = QuotientParams(2, 2, 3, 2)  # ring size 3^16
        with pytest.raises(ResourceLimitError):
            ideal_contains_finite([QPoly.one(params)], QPoly.one(params))

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
                gens = [RefQPoly.variable(1, params)]
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
    """The span against a plain closure: the XOR path over Z/2, prime fields,
    and the Howell form over composite moduli."""

    @pytest.mark.parametrize("m", [2, 3, 5, 4, 6, 8, 12])
    def test_against_brute_force_closure(self, m):
        rng = random.Random(m)
        for i in range(40):
            width = rng.randrange(1, 4)
            rows = [tuple(rng.choice([0, rng.randrange(m)]) for _ in range(width))
                    for _ in range(rng.randrange(4))]
            span = Span(m, width)
            for j, r in enumerate(rows):
                span.add(r if (i + j) % 2 else list(r))
            oracle = subgroup_closure(rows, m, width)
            assert span.size() == len(oracle)
            for v in itertools.product(range(m), repeat=width):
                assert (v in span) == (v in oracle)
                assert (list(v) in span) == (v in oracle)

    def test_unit_into_an_empty_column_reduces_once(self, monkeypatch):
        # The second row of that step is m * tail = 0, so nothing is left to reduce.
        starts = []
        real = Span._reduce

        def counting(self, v, start):
            starts.append(start)
            return real(self, v, start)

        monkeypatch.setattr(Span, "_reduce", counting)
        span = Span(3, 4)
        span.add([0, 1, 2, 0])
        assert starts == [0]
        assert span.size() == 3 and [0, 2, 1, 0] in span


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

    def test_exact_quotient_by_several_terms(self):
        rng = random.Random(31)
        divisors = 0
        for _ in range(200):
            a = random_poly(rng, 3, max_degree=3, max_terms=6)
            b = random_poly(rng, 3, max_degree=3, max_terms=6)
            if len(b.terms) < 2:
                continue
            divisors += 1
            assert divexact(a * b, b) == a
        assert divisors > 100

    def test_non_divisible_term_partway(self):
        # x3^5 is not the leading term of the dividend, so the division takes
        # quotient terms before it meets x3^5, which no term of b divides.
        a = x(1, 3) ** 2 * x(2, 3) ** 2 + x(2, 3) * x(3, 3) - Poly.constant(3, 3)
        b = x(1, 3) ** 2 + x(1, 3) * x(3, 3) - 2 * x(2, 3) + Poly.one(3)
        dividend = a * b + x(3, 3) ** 5
        assert dividend.leading() == ((3, 2, 1), 1)
        with pytest.raises(ValueError, match="not an exact polynomial division"):
            divexact(dividend, b)

    def test_leading_coefficients_do_not_divide(self):
        b = 2 * x(1, 3) + x(2, 3)
        with pytest.raises(ValueError, match="not an exact polynomial division"):
            divexact(3 * x(1, 3) * x(3, 3) + x(2, 3), b)


class TestPrinting:
    def test_graded_lex_order(self):
        p = x(1) ** 2 + x(1) * x(2) + x(2) - Poly.constant(7, 2)
        assert str(p) == "x1*x2 + x1^2 + x2 - 7"

    def test_zero(self):
        assert format_terms({}) == "0"
        assert str(Poly.zero(2)) == "0"

    @pytest.mark.parametrize("terms, printed", [
        ({(1, 0): -1, (0, 0): 1}, "-x1 + 1"),
        ({(0, 0): -7}, "-7"),
        ({(0, 0): 1}, "1"),
        ({(0, 0): -1, (0, 1): 1}, "x2 - 1"),
        ({(2, 1): -1, (0, 1): 2, (1, 0): 1, (0, 0): -7}, "-x1^2*x2 + 2*x2 + x1 - 7"),
        ({(1, 1): 3, (0, 2): -4}, "-4*x2^2 + 3*x1*x2"),
    ])
    def test_sign_rule(self, terms, printed):
        assert format_terms(terms) == printed
        assert str(Poly(2, terms)) == printed
