"""Parsing, evaluation and printing of Lie polynomial expressions.

Grammar (whitespace insignificant, unary minus allowed before the leading
term of an expression):

    expr      := ['-'] term (('+' | '-') term)*
    term      := integer ('*' factor)? | factor
    factor    := generator | '[' expr ',' expr ']' | '(' expr ')'
    generator := 'x' digits

A bare integer is only a valid term when it is 0 (the zero element); any
other constant does not denote an element of a Lie ring.  Digits are the
characters int() reads (str.isdecimal), so superscripts are not digits.
Brackets and parentheses nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class LieParseError(ValueError):
    """Syntax or semantic error in a Lie expression, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"


@dataclass(frozen=True)
class Sum:
    parts: tuple["LieExpr", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("sum must have at least one part")


@dataclass(frozen=True)
class ScalarMul:
    coeff: int
    arg: "LieExpr"


LieExpr = Union[Generator, Bracket, Sum, ScalarMul]

_SYMBOLS = "[],()+-*"

# Deepest bracket/parenthesis nesting the recursive parser and evaluator accept.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise LieParseError("expected digits after 'x'", line, col)
            tokens.append(("GEN", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise LieParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def _int(digits: str, what: str, tok) -> int:
    # int() refuses strings beyond the interpreter's digit limit (4300 by default).
    try:
        return int(digits)
    except ValueError:
        raise LieParseError(f"{what} of {len(digits)} digits is too long", tok[2], tok[3]) from None


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise LieParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3]
            )
        return self.advance()

    def parse_expr(self) -> LieExpr:
        parts = []
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        parts.append(self._signed(self.parse_term(), sign))
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            term = self.parse_term()
            parts.append(self._signed(term, -1 if op == "-" else 1))
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    @staticmethod
    def _signed(e: LieExpr, sign: int) -> LieExpr:
        if sign == 1:
            return e
        if isinstance(e, ScalarMul):
            return ScalarMul(-e.coeff, e.arg)
        return ScalarMul(-1, e)

    def parse_term(self) -> LieExpr:
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            value = _int(tok[1], "integer literal", tok)
            if self.peek()[0] == "*":
                self.advance()
                return ScalarMul(value, self.parse_factor())
            if value == 0:
                # Zero element; any generator works as the annihilated carrier.
                return ScalarMul(0, Generator(1))
            raise LieParseError(
                f"bare integer {value} is not a Lie element (only 0 is allowed)",
                tok[2],
                tok[3],
            )
        return self.parse_factor()

    def parse_factor(self) -> LieExpr:
        tok = self.peek()
        if tok[0] == "GEN":
            self.advance()
            index = _int(tok[1][1:], "generator index", tok)
            if not 1 <= index <= self.n:
                raise LieParseError(
                    f"generator index {index} out of range 1..{self.n}", tok[2], tok[3]
                )
            return Generator(index)
        if tok[0] in ("[", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise LieParseError(
                    f"brackets and parentheses nested deeper than {MAX_NESTING}", tok[2], tok[3]
                )
            self.advance()
            if tok[0] == "[":
                left = self.parse_expr()
                self.expect(",")
                inner = Bracket(left, self.parse_expr())
                self.expect("]")
            else:
                inner = self.parse_expr()
                self.expect(")")
            self.depth -= 1
            return inner
        raise LieParseError(
            f"expected a generator, bracket or parenthesis, found {tok[1] or 'end of input'!r}",
            tok[2],
            tok[3],
        )


def parse(text: str, n: int) -> LieExpr:
    """Parse `text` into a Lie expression over the generators x1..xn."""
    if n < 1:
        raise ValueError("generator count must be at least 1")
    parser = _Parser(text, n)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise LieParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return expr


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
