"""The regex scanner and token-list parser against the reference parser in
helpers (a character loop and a peek/advance descent, whose expression tree
is then evaluated over the generators), the character classes the scanner
relies on, linear time, and the generator bound."""

import random
import re
import signal
import sys

import pytest

from helpers import random_expr, reference_element, reference_format, reference_parse
from metlie.expr import MAX_GENERATORS, MAX_NESTING, LieParseError, parse

# Symbols, digits, whitespace with a newline, a superscript (str.isdigit but
# not str.isdecimal), Arabic-Indic digits (str.isdecimal) and a stray letter,
# plus a few whole tokens so that more strings get past the first error.
PIECES = list("x0123456789[](),+-* \t\n") + ["²", "١", "٢", "a",
                                             "x1", "x2", "x3", "[x1,x2]", "2*", " + ", " - "]


def reference(text, n):
    """The element of `text` by the reference parser and evaluator."""
    return reference_element(reference_parse(text, n), n)


def outcome(parser, text, n):
    """The element `parser` returns, or its error's message, line and column."""
    try:
        return parser(text, n)
    except LieParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def mutated(rng, text):
    """`text` with one character replaced by a random piece."""
    i = rng.randrange(len(text))
    return text[:i] + rng.choice(PIECES) + text[i + 1:]


class TestAgainstReference:
    def test_random_strings(self):
        rng = random.Random(17)
        for _ in range(100_000):
            text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(12)))
            n = rng.randint(1, 3)
            assert outcome(parse, text, n) == outcome(reference, text, n), text

    def test_printed_expressions_and_their_mutations(self):
        rng = random.Random(19)
        for _ in range(3_000):
            n = rng.randint(1, 4)
            text = reference_format(random_expr(rng, n, depth=6))
            for candidate in (text, mutated(rng, text), mutated(rng, text).replace(" ", "\n")):
                assert outcome(parse, candidate, n) == outcome(reference, candidate, n), \
                    candidate

    EDGE_CASES = [
        "",
        " \n\t ",
        "[x1," * MAX_NESTING + "x2" + "]" * MAX_NESTING,
        "[x1,\n" * (MAX_NESTING + 1) + "x2" + "]" * (MAX_NESTING + 1),
        "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
        "x1 +\n  " + "9" * 5000 + "*x2",
        "x1 -\r\n x" + "1" * 5000,
        "x1 + x2　 - [x2,\x0bx1]",
        "0 + 0*x1 - 00*x2",
        "-(-x1)",
        "x1 -",
    ]

    def test_edge_cases(self):
        for text in self.EDGE_CASES:
            assert outcome(parse, text, 2) == outcome(reference, text, 2), text[:40]


def test_character_classes_match_str_methods():
    # The scanner's \d and \s must accept exactly what int() reads as digits
    # (str.isdecimal) and what the grammar calls whitespace (str.isspace).
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", every) == [ch for ch in every if ch.isdecimal()]
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


@pytest.mark.parametrize("text, expected", [
    ("x1" + " " * 10**6, "x1"),
    (" " * 10**6 + "x1", "x1"),
    (" + ".join(["x1", "x2"] * 50_000), "50000*x1 + 50000*x2"),
], ids=["trailing-spaces", "leading-spaces", "sum-of-100000-terms"])
def test_linear_time(text, expected):
    # An alarm, not a clock read afterwards: a quadratic scan of 10^6
    # characters would not return for hours, and the regex engine checks for
    # signals while it matches.
    def too_slow(signum, frame):
        raise AssertionError("parse took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        e = parse(text, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(e) == expected


def test_generator_bound():
    assert str(parse(f"x{MAX_GENERATORS}", MAX_GENERATORS)) == f"x{MAX_GENERATORS}"
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_GENERATORS}"):
        parse("x1", MAX_GENERATORS + 1)
    with pytest.raises(ValueError, match="at least 1"):
        parse("x1", 0)
