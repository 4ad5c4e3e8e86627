"""Parsing, evaluation and printing of Lie polynomial expressions.

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

import re
from dataclasses import dataclass
from typing import Union


class LieParseError(ValueError):
    """Syntax or semantic error in a Lie expression, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# AST nodes compare and hash by type and fields.  They are slotted rather
# than frozen, which builds them about three times faster; nothing assigns
# to a field after construction.
@dataclass(slots=True, unsafe_hash=True)
class Generator:
    index: int


@dataclass(slots=True, unsafe_hash=True)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"


@dataclass(slots=True, unsafe_hash=True)
class Sum:
    parts: tuple["LieExpr", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("sum must have at least one part")


@dataclass(slots=True, unsafe_hash=True)
class ScalarMul:
    coeff: int
    arg: "LieExpr"


LieExpr = Union[Generator, Bracket, Sum, ScalarMul]

_SYMBOLS = "[],()+-*"

# Deepest bracket/parenthesis nesting the recursive parser and evaluator accept.
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


def _signed(e: LieExpr, sign: int) -> LieExpr:
    if sign == 1:
        return e
    if isinstance(e, ScalarMul):
        return ScalarMul(-e.coeff, e.arg)
    return ScalarMul(-1, e)


class _Parser:
    """Recursive descent over the token list.  Each rule takes the index of
    its first token and returns (expression, index of the first token after
    it); no rule reads past the final "".  Methods, not nested functions:
    mutually recursive closures would leave a reference cycle per parse to
    the garbage collector."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.n = n

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

    def expr(self, i: int, depth: int):
        tokens = self.tokens
        sign = 1
        if tokens[i] == "-":
            sign, i = -1, i + 1
        parts = []
        while True:
            e, i = self.term(i, depth)
            parts.append(_signed(e, sign))
            op = tokens[i]
            if op != "+" and op != "-":
                return (parts[0] if len(parts) == 1 else Sum(tuple(parts))), i
            sign, i = (-1 if op == "-" else 1), i + 1

    def term(self, i: int, depth: int):
        tok = self.tokens[i]
        if not tok.isdecimal():
            return self.factor(i, depth)
        value = self.integer(tok, "integer literal", i)
        if self.tokens[i + 1] == "*":
            e, i = self.factor(i + 2, depth)
            return ScalarMul(value, e), i
        if value == 0:
            # Zero element; any generator works as the annihilated carrier.
            return ScalarMul(0, Generator(1)), i + 1
        raise self.error(f"bare integer {value} is not a Lie element (only 0 is allowed)", i)

    def factor(self, i: int, depth: int):
        tok = self.tokens[i]
        if tok[:1] == "x":
            index = self.integer(tok[1:], "generator index", i)
            if not 1 <= index <= self.n:
                raise self.error(f"generator index {index} out of range 1..{self.n}", i)
            return Generator(index), i + 1
        if tok != "[" and tok != "(":
            found = tok or "end of input"
            raise self.error(f"expected a generator, bracket or parenthesis, found {found!r}", i)
        if depth == MAX_NESTING:
            raise self.error(f"brackets and parentheses nested deeper than {MAX_NESTING}", i)
        left, i = self.expr(i + 1, depth + 1)
        if tok == "(":
            return left, self.expect(")", i)
        right, i = self.expr(self.expect(",", i), depth + 1)
        return Bracket(left, right), self.expect("]", i)


def parse(text: str, n: int) -> LieExpr:
    """Parse `text` into a Lie expression over the generators x1..xn."""
    if n < 1:
        raise ValueError("generator count must be at least 1")
    if n > MAX_GENERATORS:
        raise ValueError(f"generator count {n} exceeds the limit {MAX_GENERATORS}")
    parser = _Parser(text, n)
    e, i = parser.expr(0, 0)
    if parser.tokens[i]:
        raise parser.error(f"unexpected trailing input {parser.tokens[i]!r}", i)
    return e


def eval_in_ring(e: LieExpr, images):
    """Evaluate `e` under the substitution x_i -> images[i-1].

    The target ring is duck-typed: its elements must support +, integer
    scalar multiples via * and the Lie product as `.bracket(other)`.
    """
    if isinstance(e, Generator):
        if not 1 <= e.index <= len(images):
            raise ValueError(f"generator index {e.index} out of range 1..{len(images)}")
        return images[e.index - 1]
    if isinstance(e, Bracket):
        return eval_in_ring(e.left, images).bracket(eval_in_ring(e.right, images))
    if isinstance(e, Sum):
        total = eval_in_ring(e.parts[0], images)
        for part in e.parts[1:]:
            total = total + eval_in_ring(part, images)
        return total
    if isinstance(e, ScalarMul):
        return e.coeff * eval_in_ring(e.arg, images)
    raise TypeError(f"not a Lie expression: {e!r}")


def _format_atom(e: LieExpr) -> str:
    """Format for use as a multiplicand: anything but a generator or a
    bracket needs parentheses to parse back as a factor."""
    if isinstance(e, (Generator, Bracket)):
        return format_expr(e)
    if isinstance(e, ScalarMul) and e.coeff == 1:
        return _format_atom(e.arg)
    return f"({format_expr(e)})"


def format_expr(e: LieExpr) -> str:
    if isinstance(e, Generator):
        return f"x{e.index}"
    if isinstance(e, Bracket):
        return f"[{format_expr(e.left)},{format_expr(e.right)}]"
    if isinstance(e, ScalarMul):
        if e.coeff == 1:
            return format_expr(e.arg)
        if e.coeff == -1:
            return f"-{_format_atom(e.arg)}"
        return f"{e.coeff}*{_format_atom(e.arg)}"
    if isinstance(e, Sum):
        out = format_expr(e.parts[0])
        for part in e.parts[1:]:
            text = format_expr(part)
            if text.startswith("-"):
                out += f" - {text[1:]}"
            else:
                out += f" + {text}"
        return out
    raise TypeError(f"not a Lie expression: {e!r}")


def format_value(v) -> str:
    """Canonical text for a Lie expression or any algebra value with __str__."""
    if isinstance(v, (Generator, Bracket, Sum, ScalarMul)):
        return format_expr(v)
    return str(v)
