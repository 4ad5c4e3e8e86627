"""Parsing of Lie polynomial expressions into elements of the free
metabelian Lie ring.

Grammar (whitespace, any character str.isspace accepts, is insignificant;
unary minus is allowed before the leading term of an expression):

    expr      := ['-'] term (('+' | '-') term)*
    term      := integer ('*' factor)? | factor
    factor    := generator | '[' expr ',' expr ']' | '(' expr ')'
    generator := 'x' digits

A bare integer is only a valid term when it is 0 (the zero element); any
other constant does not denote an element of a Lie ring.  Digits are the
characters int() reads (str.isdecimal), so superscripts are not digits.
Brackets and parentheses nest at most MAX_NESTING deep, and `parse` takes
at most MAX_GENERATORS generators.  Error positions count characters; only
"\n" starts a new line.
"""

from __future__ import annotations

import functools
import re

from metlie.poly import Poly
from metlie.ring import MElement, _add_times_linear, _linear_factors


class LieParseError(ValueError):
    """Syntax or semantic error in a Lie expression, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_SYMBOLS = "[],()+-*"

# Deepest bracket/parenthesis nesting the recursive parser accepts.
MAX_NESTING = 100

# Largest generator count `parse` accepts.  Elements over n generators carry
# n-long monomials, and beyond this bound even a one-element system has more
# Jacobi minors than calculus.MAX_MINORS.
MAX_GENERATORS = 1024

# A token is a generator, an integer, a symbol, or "" at the end of the text;
# the \Z alternative ends the scan after trailing whitespace without
# backtracking into it.  A character that is none of these, or an 'x' without
# digits, is _INVALID.  In a str pattern \s and \d match exactly what
# str.isspace and str.isdecimal accept.
_TOKEN = re.compile(rf"\s*(x\d+|\d+|[{re.escape(_SYMBOLS)}]|\Z)")
_INVALID = re.compile(rf"x(?!\d)|[^\sx\d{re.escape(_SYMBOLS)}]")


@functools.lru_cache(maxsize=16)
def _generator_table(n: int) -> dict[str, int]:
    """Index into the linear part of each canonical token "x1".."xn", which
    `term` and `factor` look up first; other spellings take the checked path."""
    return {f"x{i}": i - 1 for i in range(1, n + 1)}


def _error(message: str, text: str, at: int) -> LieParseError:
    """The error for `message` at offset `at` of `text`; only "\n" starts a line."""
    return LieParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, the last one "".  Tokens keep no offsets: only
    an error needs one, and `_Parser.error` finds it again."""
    invalid = _INVALID.search(text)
    if invalid:
        ch = invalid[0]
        message = "expected digits after 'x'" if ch == "x" else f"unexpected character {ch!r}"
        raise _error(message, text, invalid.start())
    return _TOKEN.findall(text)


class _Parser:
    """Recursive descent over the token list that builds the element as it
    reads.  Each rule takes the index of its first token, a scale c and the
    accumulators of the element under construction: `lin`, its linear part,
    and `rest`, the non-constant terms of each derivative as plain dicts
    (d_i g(0) = lin_i(g)).  It adds c times what it reads into them and
    returns the index of the first token after it; no rule reads past the
    final "".  A scale is always known before its operand: a sign comes
    before its term and an integer before its '*' factor.  Methods, not
    nested functions: mutually recursive closures would leave a reference
    cycle per parse to the garbage collector."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.n = n
        self.generators = _generator_table(n)

    def error(self, message: str, i: int) -> LieParseError:
        """The error for `message` at token `i`."""
        return _error(message, self.text, [m.start(1) for m in _TOKEN.finditer(self.text)][i])

    def integer(self, digits: str, what: str, i: int) -> int:
        # int() refuses strings beyond the interpreter's digit limit (4300 by default).
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"{what} of {len(digits)} digits is too long", i) from None

    def expect(self, symbol: str, i: int) -> int:
        tok = self.tokens[i]
        if tok != symbol:
            raise self.error(f"expected {symbol!r}, found {tok or 'end of input'!r}", i)
        return i + 1

    def expr(self, i: int, depth: int, c: int, lin: list, rest: list) -> int:
        tokens = self.tokens
        scale = c
        if tokens[i] == "-":
            scale, i = -c, i + 1
        while True:
            i = self.term(i, depth, scale, lin, rest)
            op = tokens[i]
            if op != "+" and op != "-":
                return i
            scale, i = (-c if op == "-" else c), i + 1

    def term(self, i: int, depth: int, c: int, lin: list, rest: list) -> int:
        tok = self.tokens[i]
        index = self.generators.get(tok)
        if index is not None:
            lin[index] += c
            return i + 1
        if not tok.isdecimal():
            return self.factor(i, depth, c, lin, rest)
        value = self.integer(tok, "integer literal", i)
        if self.tokens[i + 1] == "*":
            return self.factor(i + 2, depth, c * value, lin, rest)
        if value == 0:
            return i + 1  # the zero element adds nothing
        raise self.error(f"bare integer {value} is not a Lie element (only 0 is allowed)", i)

    def factor(self, i: int, depth: int, c: int, lin: list, rest: list) -> int:
        tok = self.tokens[i]
        index = self.generators.get(tok)
        if index is not None:
            lin[index] += c
            return i + 1
        if tok[:1] == "x":
            index = self.integer(tok[1:], "generator index", i)
            if not 1 <= index <= self.n:
                raise self.error(f"generator index {index} out of range 1..{self.n}", i)
            lin[index - 1] += c
            return i + 1
        if tok != "[" and tok != "(":
            found = tok or "end of input"
            raise self.error(f"expected a generator, bracket or parenthesis, found {found!r}", i)
        if depth == MAX_NESTING:
            raise self.error(f"brackets and parentheses nested deeper than {MAX_NESTING}", i)
        if tok == "(":
            return self.expect(")", self.expr(i + 1, depth + 1, c, lin, rest))
        # A bracket reads each side into fresh accumulators, then adds
        # c * (d_i a * lin(b) - d_i b * lin(a)) into its caller's dicts through
        # the kernel of `MElement.bracket`.  Under c = 0 both sides are still
        # read, and so checked.
        n = self.n
        la, ra = [0] * n, [{} for _ in range(n)]
        i = self.expect(",", self.expr(i + 1, depth + 1, 1, la, ra))
        lb, rb = [0] * n, [{} for _ in range(n)]
        i = self.expect("]", self.expr(i, depth + 1, 1, lb, rb))
        if c:
            fa, fb = _linear_factors(lb, c), _linear_factors(la, -c)
            for out, ca, ta, cb, tb in zip(rest, la, ra, lb, rb):
                _add_times_linear(out, ca, ta, fa)
                _add_times_linear(out, cb, tb, fb)
        return i


def parse(text: str, n: int) -> MElement:
    """The element of the free metabelian Lie ring over x1..xn that `text`
    denotes.  Only brackets touch monomials, and the validating `MElement`
    constructor runs once, on the result."""
    if n < 1:
        raise ValueError("generator count must be at least 1")
    if n > MAX_GENERATORS:
        raise ValueError(f"generator count {n} exceeds the limit {MAX_GENERATORS}")
    parser = _Parser(text, n)
    lin, rest = [0] * n, [{} for _ in range(n)]
    i = parser.expr(0, 0, 1, lin, rest)
    if parser.tokens[i]:
        raise parser.error(f"unexpected trailing input {parser.tokens[i]!r}", i)
    zero = (0,) * n
    return MElement(lin, [Poly._raw(n, {zero: c, **terms} if c else terms)
                          for c, terms in zip(lin, rest)])
