"""Tests for the Lie expression grammar and parser, and for the reference
expression tree, evaluator and printer in helpers that the parser is
checked against."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Bracket,
    Generator,
    ScalarMul,
    Sum,
    random_expr,
    reference_element,
    reference_eval,
    reference_format,
)
from metlie.expr import LieParseError, parse
from metlie.ring import MElement


def gens(n):
    return [MElement.generator(i, n) for i in range(1, n + 1)]


class TestParse:
    def test_single_bracket(self):
        x1, x2 = gens(2)
        assert parse("[x1,x2]", 2) == x1.bracket(x2)

    def test_scalar_and_difference(self):
        x1, x2, x3 = gens(3)
        got = parse("2*[[x2,x1],x1] - x3", 3)
        assert got == 2 * x2.bracket(x1).bracket(x1) - x3

    def test_nested_right_argument(self):
        x1, x2, x3 = gens(3)
        got = parse("[x1,[x2,x3]]", 3)
        assert got == x1.bracket(x2.bracket(x3))

    def test_unary_minus_and_parens(self):
        x1, x2 = gens(2)
        assert parse("-x1", 2) == -x1
        assert parse("-2*(x1 + x2)", 2) == -2 * (x1 + x2)

    def test_zero_literal(self):
        z = parse("0", 2)
        assert isinstance(z, MElement) and not z

    def test_bare_nonzero_integer_rejected(self):
        with pytest.raises(LieParseError):
            parse("5", 2)

    def test_index_out_of_range_with_position(self):
        with pytest.raises(LieParseError) as err:
            parse("[x1,\n x7]", 2)
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    def test_syntax_error_reports_column(self):
        with pytest.raises(LieParseError) as err:
            parse("[x1 x2]", 2)
        assert err.value.col == 5

    def test_trailing_garbage(self):
        with pytest.raises(LieParseError):
            parse("x1 x2", 2)

    def test_whitespace_insignificant(self):
        assert parse(" [ x1 , x2 ] ", 2) == parse("[x1,x2]", 2)

    # int() refuses longer digit strings; where it has no limit there is no error.
    DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    needs_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit")

    @needs_limit
    def test_overlong_integer_literal(self):
        digits = "7" * (self.DIGIT_LIMIT + 1)
        with pytest.raises(LieParseError) as err:
            parse(f"x2 - {digits}*x1", 2)
        assert (err.value.line, err.value.col) == (1, 6)
        assert f"integer literal of {len(digits)} digits is too long" in str(err.value)

    @needs_limit
    def test_overlong_generator_index(self):
        digits = "1" * (self.DIGIT_LIMIT + 1)
        with pytest.raises(LieParseError) as err:
            parse(f"[x1,\n  x{digits}]", 2)
        assert (err.value.line, err.value.col) == (2, 3)
        assert f"generator index of {len(digits)} digits is too long" in str(err.value)

    @pytest.mark.parametrize("text, message, position", [
        ("x²", "expected digits after 'x'", (1, 1)),
        ("2²*x1", "unexpected character '²'", (1, 2)),
    ])
    def test_superscript_digits_are_not_digits(self, text, message, position):
        # str.isdigit accepts superscripts, which int() refuses.
        with pytest.raises(LieParseError) as err:
            parse(text, 2)
        assert message in str(err.value)
        assert (err.value.line, err.value.col) == position

    def test_decimal_digits_of_other_scripts(self):
        # int() reads every str.isdecimal digit, Arabic-Indic one included.
        x1, x2 = gens(2)
        assert parse("x١", 2) == x1
        assert parse("٢*x2", 2) == 2 * x2

    LONG_INDEX = "1" * 5000

    # Generator tokens other than the canonical x1..xn at n = 2: the element,
    # or the error text and its position, alone and at line 2, column 3.
    @pytest.mark.parametrize("token, element, message", [
        ("x01", MElement.generator(1, 2), None),
        ("x0", None, "generator index 0 out of range 1..2"),
        ("x3", None, "generator index 3 out of range 1..2"),
        ("x١", MElement.generator(1, 2), None),
        ("2x1", None, "bare integer 2 is not a Lie element (only 0 is allowed)"),
        ("x" + LONG_INDEX, None,
         "generator index of 5000 digits is too long" if 0 < DIGIT_LIMIT < 5000
         else f"generator index {LONG_INDEX} out of range 1..2"),
    ], ids=["x01", "x0", "x3", "arabic-indic-one", "2x1", "5000-digit"])
    def test_generator_token_boundaries(self, token, element, message):
        for text, position in ((token, (1, 1)), (f"[x2,\n  {token}]", (2, 3))):
            if element is not None:
                x2 = MElement.generator(2, 2)
                assert parse(text, 2) == (element if text == token else x2.bracket(element))
                continue
            with pytest.raises(LieParseError) as err:
                parse(text, 2)
            assert str(err.value) == f"{message} (line {position[0]}, column {position[1]})"
            assert (err.value.line, err.value.col) == position


def _nodes():
    """One fresh node of each type."""
    return [Generator(1), Bracket(Generator(2), Generator(1)),
            Sum((Generator(1), Generator(2))), ScalarMul(1, Generator(1))]


class TestNodes:
    """Reference nodes compare and hash by type and fields, and print as
    dataclasses."""

    NODES = _nodes()

    def test_equal_nodes_hash_alike(self):
        for e, twin in zip(self.NODES, _nodes()):
            assert twin == e and hash(twin) == hash(e) and twin is not e
        assert len({*self.NODES, *_nodes()}) == 4
        assert ScalarMul(2, Generator(1)) != ScalarMul(2, Generator(2))

    def test_types_never_compare_equal(self):
        assert Generator(1) != ScalarMul(1, Generator(1))
        for a in self.NODES:
            for b in self.NODES:
                assert (a == b) == (a is b)

    def test_repr(self):
        assert [repr(e) for e in self.NODES] == [
            "Generator(index=1)",
            "Bracket(left=Generator(index=2), right=Generator(index=1))",
            "Sum(parts=(Generator(index=1), Generator(index=2)))",
            "ScalarMul(coeff=1, arg=Generator(index=1))",
        ]

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError, match="at least one part"):
            Sum(())


class TestEvalInRing:
    """The reference evaluator, the oracle of the parser's element."""

    def test_alternating(self):
        assert not parse("[x1,x1]", 2)
        assert not reference_element(Bracket(Generator(1), Generator(1)), 2)

    def test_sum_and_scalar_commute_with_target_ops(self):
        rng = random.Random(5)
        from helpers import random_melement

        for _ in range(200):
            n = rng.choice([2, 3])
            e1 = random_expr(rng, n)
            e2 = random_expr(rng, n)
            images = [random_melement(rng, n) for _ in range(n)]
            c = rng.randint(-3, 3)
            lhs = reference_eval(Sum((e1, e2)), images)
            assert lhs == reference_eval(e1, images) + reference_eval(e2, images)
            assert reference_eval(ScalarMul(c, e1), images) == c * reference_eval(e1, images)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reference_eval(Generator(3), [MElement.generator(1, 2), MElement.generator(2, 2)])


class TestFormat:
    def test_bracket(self):
        assert reference_format(Bracket(Generator(2), Generator(1))) == "[x2,x1]"

    def test_melement_with_linear_and_derived_parts(self):
        assert str(parse("2*x1 - [[x2,x1],x3]", 3)) == "2*x1 - [[x2,x1],x3]"

    def test_round_trip_seeded(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            e = random_expr(rng, n, depth=5)
            text = reference_format(e)
            assert parse(text, n) == reference_element(e, n)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, n, seed):
        rng = random.Random(seed)
        e = random_expr(rng, n, depth=4)
        text = reference_format(e)
        assert parse(text, n) == reference_element(e, n)

    def test_melement_round_trips_through_parse(self):
        rng = random.Random(37)
        from helpers import random_melement

        for _ in range(300):
            n = rng.choice([2, 3])
            g = random_melement(rng, n)
            assert parse(str(g), n) == g
