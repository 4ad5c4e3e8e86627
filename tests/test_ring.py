"""Tests for free metabelian Lie ring arithmetic and basis conversion."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Bracket,
    Generator,
    ScalarMul,
    Sum,
    bracket_by_products,
    bracket_value,
    endo_apply,
    fundamental_identity_holds,
    random_basis_terms,
    random_expr,
    random_melement,
    reference_element,
    reference_eval,
    reference_format,
    reference_parse,
)
from metlie.expr import LieParseError, parse
from metlie.poly import Poly
from metlie.ring import (
    BasisTerm,
    MElement,
    from_basis,
    from_expr,
    to_basis,
)


def mel(text, n=2):
    return parse(text, n)


class TestGenerator:
    def test_kronecker_derivatives(self):
        g = MElement.generator(1, 2)
        assert g.linear == (1, 0)
        assert g.deriv == (Poly.one(2), Poly.zero(2))

    def test_fundamental_identity(self):
        assert fundamental_identity_holds(MElement.generator(1, 2))

    def test_range_check(self):
        with pytest.raises(ValueError):
            MElement.generator(3, 2)


class TestModuleOps:
    def test_additive_inverse(self):
        rng = random.Random(41)
        a = random_melement(rng, 3)
        assert not (a + (-1) * a)

    def test_sum_of_generators(self):
        s = MElement.generator(1, 2) + MElement.generator(2, 2)
        assert s.linear == (1, 1)
        assert s.deriv == (Poly.one(2), Poly.one(2))

    def test_doubled_bracket(self):
        g = 2 * mel("[x2,x1]")
        assert g.linear == (0, 0)
        assert g.deriv == (-2 * Poly.variable(2, 2), 2 * Poly.variable(1, 2))

    def test_mismatched_counts(self):
        with pytest.raises(ValueError):
            MElement.generator(1, 2) + MElement.generator(1, 3)


class TestBracket:
    def test_basic_bracket_derivatives(self):
        g = mel("[x2,x1]")
        assert g.linear == (0, 0)
        assert g.deriv == (-Poly.variable(2, 2), Poly.variable(1, 2))

    def test_alternating(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_melement(rng, 3)
            assert not g.bracket(g)

    def test_metabelian_on_derived_arguments(self):
        a = mel("[x1,x2]")
        b = mel("[x2,x1]")
        assert not a.bracket(b)


class TestFromExpr:
    def test_length_two_word(self):
        g = mel("[x1,x2]")
        assert g.deriv == (Poly.variable(2, 2), -Poly.variable(1, 2))

    def test_length_three_word(self):
        g = mel("[[x2,x1],x1]")
        x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
        assert g.deriv == (-(x1 * x2), x1 * x1)

    def test_jacobi_consequence_maps_to_zero(self):
        # The rearranged identity [a,[b,c]] = [[a,b],c] - [[a,c],b].
        z = mel("[x1,[x2,x3]] - [[x1,x2],x3] + [[x1,x3],x2]", 3)
        assert not z

    def test_equal_lie_polynomials_agree(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.choice([2, 3])
            a = random_expr(rng, n)
            b = random_expr(rng, n)
            # Syntactic consequences of anticommutativity and Jacobi.
            lhs = parse(f"[{_s(a)},{_s(b)}]", n)
            rhs = parse(f"-[{_s(b)},{_s(a)}]", n)
            assert lhs == rhs

    def test_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                parse("x1 + 3*[[x2,x1],x1] - [x1,x2]", 2)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _s(e):
    return reference_format(e)


class TestLieAxiomsBulk:
    def test_axioms_random(self):
        rng = random.Random(53)
        for _ in range(2000):
            n = rng.choice([1, 2, 3])
            a = random_melement(rng, n)
            b = random_melement(rng, n)
            c = random_melement(rng, n)
            d = random_melement(rng, n)
            assert not (a.bracket(b) + b.bracket(a))
            jac = (a.bracket(b).bracket(c) + b.bracket(c).bracket(a)
                   + c.bracket(a).bracket(b))
            assert not jac
            assert not a.bracket(b).bracket(c.bracket(d))

    def test_fundamental_identity_random(self):
        rng = random.Random(59)
        for _ in range(500):
            n = rng.choice([1, 2, 3, 4])
            a = random_melement(rng, n)
            b = random_melement(rng, n)
            assert fundamental_identity_holds(a)
            assert fundamental_identity_holds(a.bracket(b))
            assert fundamental_identity_holds(3 * a - b)


class TestBasisConversion:
    def test_anticommutativity_normalization(self):
        terms, linear = to_basis(mel("[x1,x2]"))
        assert linear == (0, 0)
        assert terms == [BasisTerm(-1, (2, 1))]

    def test_three_letter_rewrite(self):
        terms, _ = to_basis(mel("[[x2,x3],x1]", 3))
        assert terms == [BasisTerm(1, (2, 1, 3)), BasisTerm(-1, (3, 1, 2))]

    def test_generator_has_empty_expansion(self):
        terms, linear = to_basis(MElement.generator(1, 3))
        assert terms == [] and linear == (1, 0, 0)

    def test_from_basis_single_word(self):
        g = from_basis([BasisTerm(1, (2, 1))], [0, 0])
        assert g == mel("[x2,x1]")

    def test_round_trip_both_directions(self):
        rng = random.Random(61)
        for _ in range(500):
            n = rng.choice([2, 3, 4])
            terms = random_basis_terms(rng, n)
            linear = [rng.randint(-5, 5) for _ in range(n)]
            g = from_basis(terms, linear)
            got_terms, got_linear = to_basis(g)
            assert sorted(got_terms, key=lambda t: t.word) == sorted(terms, key=lambda t: t.word)
            assert got_linear == tuple(linear)
            assert from_basis(got_terms, got_linear) == g

    def test_malformed_derivative_vector_rejected(self):
        # d_1 = x1 alone cannot come from any element: the reconstruction
        # residual is nonzero.
        bad = MElement((0, 0), (Poly.variable(1, 2), Poly.zero(2)))
        with pytest.raises(ValueError):
            to_basis(bad)

    def test_linear_coefficients_must_be_ints(self):
        # int() would truncate the float and parse the string; a bool is an int.
        deriv = (Poly.one(2), Poly.zero(2))
        for linear in ((1.7, 0), (1, "2"), (1.0, 0)):
            with pytest.raises(TypeError, match="linear coefficients must be ints"):
                MElement(linear, deriv)
            with pytest.raises(TypeError, match="linear coefficients must be ints"):
                from_basis([], linear)
        with pytest.raises(TypeError, match="got 1.7"):
            MElement((1.7, "2"), deriv)
        assert MElement((True, False), deriv) == MElement.generator(1, 2)
        assert from_basis([], (True, False)) == MElement.generator(1, 2)

    def test_basis_coefficients_must_be_ints(self):
        # A float was truncated to 1 and a string failed inside the sum.
        for coeff in (1.7, "2", 1.0):
            with pytest.raises(TypeError, match=f"basis-term coefficients must be ints, got {coeff!r}"):
                from_basis([BasisTerm(coeff, (2, 1))], [0, 0])
        assert from_basis([BasisTerm(True, (2, 1))], [0, 0]) == from_basis([BasisTerm(1, (2, 1))], [0, 0])

    def test_basis_constraints_enforced(self):
        with pytest.raises(ValueError):
            from_basis([BasisTerm(1, (1, 2))], [0, 0])
        with pytest.raises(ValueError):
            from_basis([BasisTerm(1, (2, 1, 3, 2))], [0, 0, 0])


class TestPrinting:
    """The edges of the sign rule on elements: the body alone for +-1,
    |c|*body otherwise, '-' before a negative first term."""

    @pytest.mark.parametrize("text, printed", [
        ("-x1 + x2", "-x1 + x2"),
        ("2*x1 - 3*x2 - [x2,x1] + 5*[[x2,x1],x1] - 4*[[x2,x1],x2]",
         "2*x1 - 3*x2 - [x2,x1] + 5*[[x2,x1],x1] - 4*[[x2,x1],x2]"),
        ("-x2 + x1", "x1 - x2"),
        ("-[x2,x1]", "-[x2,x1]"),
        ("[x1,x2]", "-[x2,x1]"),
        ("-7*[x2,x1] + x1", "x1 - 7*[x2,x1]"),
        ("-3*x2 + [[x2,x1],x2]", "-3*x2 + [[x2,x1],x2]"),
        ("x1 - x1", "0"),
    ])
    def test_sign_rule(self, text, printed):
        assert str(mel(text)) == printed

    def test_zero_element(self):
        assert str(MElement.zero(3)) == "0"
        assert repr(MElement.zero(1)) == "MElement(0)"


class TestEndoApply:
    def test_identity_images(self):
        images = [MElement.generator(i, 2) for i in (1, 2)]
        g = mel("x1")
        assert endo_apply(g, images) == g

    def test_substitution_with_derived_image(self):
        images = [mel("x1 + [x2,x1]"), mel("x2")]
        got = endo_apply(mel("[x2,x1]"), images)
        assert got == mel("[x2,x1] - [[x2,x1],x2]")

    def test_linear_part_functorial(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.choice([2, 3])
            g = random_melement(rng, n)
            images = [random_melement(rng, n) for _ in range(n)]
            got = endo_apply(g, images)
            expected = [
                sum(g.linear[t] * images[t].linear[c] for t in range(n))
                for c in range(n)
            ]
            assert list(got.linear) == expected

    def test_expr_and_element_paths_agree(self):
        # The image of the parsed element is the expression evaluated at the images.
        rng = random.Random(71)
        for _ in range(200):
            n = rng.choice([2, 3])
            e = random_expr(rng, n)
            images = [random_melement(rng, n) for _ in range(n)]
            assert reference_eval(e, images) == endo_apply(parse(reference_format(e), n), images)

    def test_takes_only_elements(self):
        with pytest.raises(TypeError, match="cannot apply endomorphism"):
            endo_apply(Generator(1), [MElement.generator(1, 1)])


class TestEndoApplyClosedForm:
    """`endo_apply` evaluates the closed form (lin(g)(s), sum_j tau_j * d_j g(s))
    in the matrix embedding h -> (lin h, d h); bracket arithmetic on the
    images, word by word, is its independent oracle."""

    def test_matches_bracket_arithmetic(self):
        rng = random.Random(331)
        for _ in range(360):
            n = rng.choice([1, 2, 3])
            g = random_melement(rng, n)
            images = [random_melement(rng, n) for _ in range(n)]
            assert endo_apply(g, images) == bracket_value(to_basis(g), images)

    def test_rejects_bad_images(self):
        g = mel("x1 + [x2,x1]")
        with pytest.raises(ValueError, match="expected 2 images, got 1"):
            endo_apply(g, [mel("x1")])
        with pytest.raises(TypeError, match="not a Lie ring element: 3"):
            endo_apply(g, [mel("x1"), 3])
        with pytest.raises(ValueError, match="mismatched generator counts"):
            endo_apply(g, [mel("x1"), MElement.generator(2, 3)])


def _generators(n):
    return [MElement.generator(i, n) for i in range(1, n + 1)]


def _assert_canonical(g):
    for d in g.deriv:
        assert isinstance(d, Poly) and d.n == g.n
        assert all(d.terms.values())


def expressions(n):
    """Hypothesis expressions over x1..xn, zero multiples included."""
    leaves = st.builds(Generator, st.integers(1, n))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Bracket, sub, sub),
        st.lists(sub, min_size=1, max_size=4).map(lambda parts: Sum(tuple(parts))),
        st.builds(ScalarMul, st.integers(-4, 4), sub),
    ), max_leaves=12)


class TestFromExprOracle:
    """`parse` building the element as it reads, against the reference
    parser and `reference_eval` over the generators, which builds a
    validated element at every node."""

    CASES = [
        "0*x1", "0*[x2,x1]", "0*x1 + x2", "x1 - 0*[[x2,x1],x1] + 0",
        "[x1,x1]", "[x1 + [x2,x1], x1 + [x2,x1]]", "[x1,x1] + [x2,x2] - x1",
        "((x1 + [x2,x1]) + (x2 - (x1 + 3*[[x2,x1],x2])))",
        "-(x1 + (x2 + ([x2,x1] + (x1 - [x2,x1]))))",
        "[[x2,x1],[[x2,x1],x1]]", "[[[x2,x1],x1],2*x2 - [x2,x1]]",
        "[2*[x2,x1] - x1, -3*[[x2,x1],x1] + x2]", "[x1 - [x2,x1], [x1 - [x2,x1], x2]]",
        "x1 + [x2,x1] - [x2,x1]", "[x2, x1 + 6*[x2,x1]] + [x1 + 6*[x2,x1], x2]",
        "[x1, 0*[x2,x1]] - 0*[[x2,x1],x1]",
    ]

    def test_cases(self):
        for n in (2, 3, 4):
            for text in self.CASES:
                got = parse(text, n)
                _assert_canonical(got)
                assert got == reference_element(reference_parse(text, n), n), text
        for text in ("0*x1", "[x1,x1]", "x1 + 2*x1", "[x1, [x1,x1] + x1] - 0*x1"):
            assert parse(text, 1) == reference_element(reference_parse(text, 1), 1), text

    def test_seeded(self):
        rng = random.Random(61)
        for _ in range(400):
            n = rng.randint(1, 4)
            e = random_expr(rng, n, depth=rng.randint(1, 5))
            got = parse(reference_format(e), n)
            _assert_canonical(got)
            assert got == reference_element(e, n)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), expressions(n))))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis(self, case):
        n, e = case
        got = parse(reference_format(e), n)
        _assert_canonical(got)
        assert got == reference_element(e, n)

    def test_out_of_range_generator(self):
        # A zero scale still checks both sides of a bracket.
        for e in (Generator(3), Bracket(Generator(1), Generator(3)),
                  ScalarMul(0, Generator(3)), ScalarMul(0, Bracket(Generator(1), Generator(3))),
                  Sum((Generator(1), Generator(0)))):
            with pytest.raises(ValueError) as want:
                reference_element(e, 2)
            with pytest.raises(LieParseError) as got:
                parse(reference_format(e), 2)
            assert str(got.value).startswith(f"{want.value} (line 1, column ")
        assert str(got.value) == "generator index 0 out of range 1..2 (line 1, column 6)"

    def test_not_an_expression(self):
        # `from_expr` only passes an element through.
        for e in ("x1", Bracket(Generator(1), "x2"), ScalarMul(0, Bracket(Generator(1), "x2")),
                  Sum((Generator(1), None))):
            with pytest.raises(TypeError) as want:
                reference_element(e, 2)
            with pytest.raises(TypeError) as got:
                from_expr(e, 2)
            assert str(got.value) == f"not a Lie ring element: {e!r}"
        assert str(want.value) == "not a Lie expression: None"
        g = parse("x1 + [x2,x1]", 2)
        assert from_expr(g, 2) is g


class TestBracketOracle:
    def test_against_products(self):
        rng = random.Random(67)
        for _ in range(300):
            n = rng.randint(1, 4)
            a, b = random_melement(rng, n), random_melement(rng, n)
            for x, y in ((a, b), (a.bracket(b), a), (b, a.bracket(b) + b), (a, a)):
                got = x.bracket(y)
                _assert_canonical(got)
                assert got == bracket_by_products(x, y)
