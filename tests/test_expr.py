"""Tests for the Lie expression grammar, evaluation hooks and printer."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_expr
from metlie.expr import (
    Bracket,
    Generator,
    LieParseError,
    ScalarMul,
    Sum,
    eval_in_ring,
    format_expr,
    format_value,
    parse,
)
from metlie.ring import MElement, from_expr


class TestParse:
    def test_single_bracket(self):
        assert parse("[x1,x2]", 2) == Bracket(Generator(1), Generator(2))

    def test_scalar_and_difference(self):
        got = parse("2*[[x2,x1],x1] - x3", 3)
        assert got == Sum((
            ScalarMul(2, Bracket(Bracket(Generator(2), Generator(1)), Generator(1))),
            ScalarMul(-1, Generator(3)),
        ))

    def test_nested_right_argument(self):
        got = parse("[x1,[x2,x3]]", 3)
        assert got == Bracket(Generator(1), Bracket(Generator(2), Generator(3)))

    def test_unary_minus_and_parens(self):
        assert parse("-x1", 2) == ScalarMul(-1, Generator(1))
        assert parse("-2*(x1 + x2)", 2) == ScalarMul(
            -2, Sum((Generator(1), Generator(2)))
        )

    def test_zero_literal(self):
        z = parse("0", 2)
        assert not from_expr(z, 2)

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
        assert parse("x١", 2) == Generator(1)
        assert parse("٢*x2", 2) == ScalarMul(2, Generator(2))


def _nodes():
    """One fresh node of each type."""
    return [Generator(1), Bracket(Generator(2), Generator(1)),
            Sum((Generator(1), Generator(2))), ScalarMul(1, Generator(1))]


class TestNodes:
    """Nodes compare and hash by type and fields, and print as dataclasses."""

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
    def test_alternating(self):
        e = parse("[x1,x1]", 2)
        assert not from_expr(e, 2)

    def test_sum_and_scalar_commute_with_target_ops(self):
        rng = random.Random(5)
        from helpers import random_melement

        for _ in range(200):
            n = rng.choice([2, 3])
            e1 = random_expr(rng, n)
            e2 = random_expr(rng, n)
            images = [random_melement(rng, n) for _ in range(n)]
            c = rng.randint(-3, 3)
            lhs = eval_in_ring(Sum((e1, e2)), images)
            assert lhs == eval_in_ring(e1, images) + eval_in_ring(e2, images)
            assert eval_in_ring(ScalarMul(c, e1), images) == c * eval_in_ring(e1, images)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            eval_in_ring(Generator(3), [MElement.generator(1, 2), MElement.generator(2, 2)])


class TestFormat:
    def test_bracket(self):
        assert format_expr(Bracket(Generator(2), Generator(1))) == "[x2,x1]"

    def test_melement_with_linear_and_derived_parts(self):
        e = parse("2*x1 - [[x2,x1],x3]", 3)
        assert format_value(from_expr(e, 3)) == "2*x1 - [[x2,x1],x3]"

    def test_round_trip_seeded(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            e = random_expr(rng, n, depth=5)
            text = format_expr(e)
            assert from_expr(parse(text, n), n) == from_expr(e, n)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, n, seed):
        rng = random.Random(seed)
        e = random_expr(rng, n, depth=4)
        text = format_expr(e)
        assert from_expr(parse(text, n), n) == from_expr(e, n)

    def test_melement_round_trips_through_parse(self):
        rng = random.Random(37)
        from helpers import random_melement

        for _ in range(300):
            n = rng.choice([2, 3])
            g = random_melement(rng, n)
            assert from_expr(parse(str(g), n), n) == g
