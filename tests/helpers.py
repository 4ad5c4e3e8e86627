"""Shared random generators, reference censuses and the reference algebra
of the test suite (seeded, deterministic).

The reference algebra is what the engine under src/ does not run: the
product of a polynomial with one term (`mul_term`), ring arithmetic on
quotient-ring elements (`RefQPoly`), the finite-model elements it builds
(`ModelElement`), substitution by the closed form
(`eval_closed_form`, `endo_apply`), the matrix calculus of the chain rule
and the sigma polynomials, and the reduced Groebner basis with membership
by reduction (`groebner_z`, `ideal_contains`).  Each is an oracle: the
tests check engine objects against it, or check it against another oracle.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Union

from metlie.calculus import _shape, jacobi_matrix
from metlie.expr import MAX_NESTING, LieParseError
from metlie.model import FiniteModel
from metlie.poly import Poly, QPoly, QuotientParams, format_terms, grevlex_key
from metlie import primitivity
from metlie.primitivity import DEFAULT_MAX_BASIS, DEFAULT_MAX_DEGREE, GroebnerLimitError, _Row
from metlie.ring import BasisTerm, MElement, check_system, from_basis, to_basis


def random_poly(rng: random.Random, n: int, max_degree: int = 3,
                max_terms: int = 5, coeff_bound: int = 9) -> Poly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_degree + 1) for _ in range(n))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[mono] = c
    return Poly(n, terms)


def random_qpoly(rng: random.Random, params: QuotientParams,
                 max_terms: int | None = None) -> RefQPoly:
    monos = list(params.monomials())
    if max_terms is not None:
        monos = rng.sample(monos, min(max_terms, len(monos)))
    return RefQPoly(params, {mu: rng.randrange(params.m) for mu in monos})


def constant_term(poly: Poly) -> int:
    return poly.terms.get((0,) * poly.n, 0)


def mul_term(poly: Poly, coeff: int, mono: tuple) -> Poly:
    """The product of `poly` with the single term coeff * X^mono."""
    return Poly(poly.n, {tuple(a + b for a, b in zip(m, mono)): c * coeff
                         for m, c in poly.terms.items()})


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(Poly.one(n) if i == j else Poly.zero(n) for j in range(n))
                 for i in range(n))


def generator_images(model) -> list[ModelElement]:
    return [generator_image(model, i) for i in range(1, model.quotient.n + 1)]


def random_element(model, rng: random.Random, max_terms: int | None = None) -> ModelElement:
    """Uniform random element of `model`; max_terms caps the nonzero tau
    coefficients per coordinate."""
    quotient = model.quotient
    l = RefQPoly(quotient, {mu: rng.randrange(quotient.m) for mu in model.l_monomials})
    tau = tuple(random_qpoly(rng, quotient, max_terms) for _ in range(quotient.n))
    return ModelElement(model, l, tau)


def element_code(model, elem: ModelElement) -> int:
    """The code of `elem`: the base-m number whose digits, least significant
    first, are the coefficients of tau_1, .., tau_n in `monomials()` order
    and then those of l over `l_monomials` (`element_from_code` decodes it)."""
    quotient = model.quotient
    digits = [d for t in elem.tau for d in t.vec]
    digits += [elem.l.vec[quotient.position(mu)] for mu in model.l_monomials]
    code = 0
    for d in reversed(digits):
        code = code * quotient.m + d
    return code


def random_basis_terms(rng: random.Random, n: int, max_words: int = 3,
                       max_len: int = 5, coeff_bound: int = 5):
    terms = []
    if n < 2:
        return terms
    seen = set()
    for _ in range(rng.randrange(max_words + 1)):
        k = rng.randrange(2, max_len + 1)
        i2 = rng.randrange(1, n)
        i1 = rng.randrange(i2 + 1, n + 1)
        tail = tuple(sorted(rng.randrange(i2, n + 1) for _ in range(k - 2)))
        word = (i1, i2, *tail)
        if word in seen:
            continue
        seen.add(word)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms.append(BasisTerm(c, word))
    return terms


def random_melement(rng: random.Random, n: int, max_words: int = 3,
                    max_len: int = 5, coeff_bound: int = 5) -> MElement:
    linear = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
    return from_basis(random_basis_terms(rng, n, max_words, max_len, coeff_bound), linear)


# -- quotient rings and finite models ------------------------------------


class RefQPoly(QPoly):
    """An element of Z_{p,q,m}[X] with ring arithmetic, on the engine's
    `QPoly` coefficient vector: +, -, integer multiples, the product through
    `QuotientParams.product_table`, ==, hash and printing.  The engine
    multiplies only through `poly.module_rows`; `TestQPolyOracle` checks this
    arithmetic against term maps, and the reference model below runs on it."""

    __slots__ = ()

    @classmethod
    def _raw(cls, params: QuotientParams, vec: tuple[int, ...]) -> "RefQPoly":
        # vec must already be canonical.
        self = object.__new__(cls)
        self.params = params
        self.vec = vec
        return self

    @classmethod
    def of(cls, a: QPoly) -> "RefQPoly":
        """`a`, say a `reduce_pqm` result, with the arithmetic."""
        return cls._raw(a.params, a.vec)

    @classmethod
    def zero(cls, params: QuotientParams) -> "RefQPoly":
        return cls(params)

    @classmethod
    def variable(cls, i: int, params: QuotientParams) -> "RefQPoly":
        if not 1 <= i <= params.n:
            raise ValueError(f"generator index {i} out of range 1..{params.n}")
        return cls(params, {tuple(int(j == i - 1) for j in range(params.n)): 1})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The nonzero coefficients by monomial, in `monomials()` order."""
        return {mu: c for mu, c in zip(self.params.monomials(), self.vec) if c}

    def _require_same_ring(self, other: "RefQPoly") -> None:
        if self.params != other.params:
            raise ValueError("mismatched quotient parameters")

    def __bool__(self) -> bool:
        return any(self.vec)

    def __add__(self, other: "RefQPoly") -> "RefQPoly":
        if not isinstance(other, RefQPoly):
            return NotImplemented
        self._require_same_ring(other)
        m = self.params.m
        return RefQPoly._raw(self.params, tuple([(a + b) % m for a, b in zip(self.vec, other.vec)]))

    def __sub__(self, other: "RefQPoly") -> "RefQPoly":
        if not isinstance(other, RefQPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RefQPoly":
        m = self.params.m
        return RefQPoly._raw(self.params, tuple([-a % m for a in self.vec]))

    def __mul__(self, other):
        params = self.params
        m = params.m
        if isinstance(other, int):
            return RefQPoly._raw(params, tuple([a * other % m for a in self.vec]))
        if not isinstance(other, RefQPoly):
            return NotImplemented
        self._require_same_ring(other)
        right = [(b, y) for b, y in enumerate(other.vec) if y]
        out = [0] * len(self.vec)
        for slots, x in zip(params.product_table(), self.vec):
            if x:
                for b, y in right:
                    out[slots[b]] += x * y
        return RefQPoly._raw(params, tuple([c % m for c in out]))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefQPoly):
            return NotImplemented
        return self.params == other.params and self.vec == other.vec

    def __hash__(self) -> int:
        return hash((self.params, self.vec))

    def __str__(self) -> str:
        return format_terms(self.terms)

    def __repr__(self) -> str:
        p = self.params
        return f"RefQPoly(p={p.p},q={p.q},m={p.m}; {self!s})"


class ModelElement:
    """Element of the finite matrix Lie ring of a `FiniteModel`: top-left l
    plus module vector tau, with the matrix commutator as bracket.  The
    census works on top-left digit vectors and never builds one; this is
    the model of `eval_closed_form` and of the bracket-arithmetic oracles."""

    __slots__ = ("model", "l", "tau")

    def __init__(self, model: FiniteModel, l: RefQPoly, tau):
        quotient = model.quotient
        if (not isinstance(l, RefQPoly) or l.params != quotient
                or any(mu not in model.l_monomials for mu in l.terms)):
            raise ValueError("top-left entry must lie in the model's top-left carrier")
        tau = tuple(tau)
        if len(tau) != quotient.n or any(not isinstance(t, RefQPoly) or t.params != quotient
                                         for t in tau):
            raise ValueError("tau must be a vector of n quotient-ring coordinates")
        self.model = model
        self.l = l
        self.tau = tau

    def _require_same_model(self, other: "ModelElement") -> None:
        if self.model != other.model:
            raise ValueError("mismatched models")

    def __bool__(self) -> bool:
        return bool(self.l) or any(self.tau)

    def __add__(self, other: "ModelElement") -> "ModelElement":
        if not isinstance(other, ModelElement):
            return NotImplemented
        self._require_same_model(other)
        return ModelElement(self.model, self.l + other.l,
                            tuple(a + b for a, b in zip(self.tau, other.tau)))

    def __neg__(self) -> "ModelElement":
        return ModelElement(self.model, -self.l, tuple(-t for t in self.tau))

    def __sub__(self, other: "ModelElement") -> "ModelElement":
        if not isinstance(other, ModelElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return ModelElement(self.model, c * self.l, tuple(c * t for t in self.tau))

    __rmul__ = __mul__

    def bracket(self, other: "ModelElement") -> "ModelElement":
        """Matrix commutator: zero top-left, tau1 * l2 - tau2 * l1 below."""
        if not isinstance(other, ModelElement):
            raise TypeError("bracket requires another model element")
        self._require_same_model(other)
        tau = tuple(ta * other.l - tb * self.l for ta, tb in zip(self.tau, other.tau))
        return ModelElement(self.model, RefQPoly.zero(self.model.quotient), tau)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelElement):
            return NotImplemented
        return self.model == other.model and self.l == other.l and self.tau == other.tau

    def __hash__(self) -> int:
        return hash((self.l, self.tau))

    def to_json(self) -> dict:
        return {"l": str(self.l), "tau": [str(t) for t in self.tau]}

    def __str__(self) -> str:
        taus = ", ".join(str(t) for t in self.tau)
        return f"(l={self.l}; tau=[{taus}])"

    def __repr__(self) -> str:
        return f"ModelElement{self!s}"


def generator_image(model: FiniteModel, i: int) -> ModelElement:
    """x_i goes to the matrix with top-left x_i and tau the basis vector t_i."""
    quotient = model.quotient
    n = quotient.n
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    tau = tuple(RefQPoly.one(quotient) if j == i - 1 else RefQPoly.zero(quotient)
                for j in range(n))
    return ModelElement(model, RefQPoly.variable(i, quotient), tau)


def element_from_code(model: FiniteModel, code: int) -> ModelElement:
    """The element whose base-m code, least significant digit first, lists
    the n*w coefficients of tau_1, .., tau_n, then those of l over
    `l_monomials`: the order in which the census picks its witness."""
    if not 0 <= code < model.size:
        raise ValueError(f"element code {code} out of range")
    quotient = model.quotient
    n, w = quotient.n, quotient.monomial_count
    l_monos = model.l_monomials
    digits = []
    for _ in range(n * w + len(l_monos)):
        code, d = divmod(code, quotient.m)
        digits.append(d)
    # the tau digits are a canonical vector already
    tau = tuple(RefQPoly._raw(quotient, tuple(digits[c * w:(c + 1) * w])) for c in range(n))
    return ModelElement(model, RefQPoly(quotient, dict(zip(l_monos, digits[n * w:]))), tau)


def model_elements(model: FiniteModel):
    """All elements of `model` in element-code order."""
    for code in range(model.size):
        yield element_from_code(model, code)


# -- substitution by the closed form ---------------------------------------


def closed_form(g: MElement, s_vals, tau_vecs, one) -> tuple:
    """(lin(g)(s), (sum_j tau_j[c] * d_j g(s))_c): g at the matrices with
    top-left entries s_j and module vectors tau_j over the ring of `one`;
    the one substitution of `endo_apply` and `eval_closed_form`."""
    coeffs = [d.evaluate(s_vals, one) for d in g.deriv]
    l = sum((c * s for c, s in zip(g.linear, s_vals)), 0 * one)
    tau = tuple(sum((t[c] * d for t, d in zip(tau_vecs, coeffs)), 0 * one)
                for c in range(g.n))
    return l, tau


def eval_closed_form(model: FiniteModel, g: MElement, s_vals, tau_vecs) -> ModelElement:
    """Substituted value of g from its derivatives: (lin(g)(s), sum tau_j * d_j g(s)).

    `s_vals` holds the top-left entries of the substituted elements and
    `tau_vecs` their module vectors (tuples of quotient-ring coordinates).
    The integer derivatives are evaluated in the quotient ring: x_i -> s_i
    kills x_i^p(x_i^q - 1) only when s_i does, so reducing them first would
    give another map.  The census evaluates them the same way.
    """
    quotient = model.quotient
    n = quotient.n
    if g.n != n:
        raise ValueError("element and model use different generator counts")
    if len(s_vals) != n or len(tau_vecs) != n:
        raise ValueError(f"expected {n} substituted values")
    return ModelElement(model, *closed_form(g, s_vals, tau_vecs, RefQPoly.one(quotient)))


def linear_poly(g: MElement) -> Poly:
    """The linear part of g as a polynomial in Z[X]."""
    return Poly(g.n, {tuple(int(j == i) for j in range(g.n)): c
                      for i, c in enumerate(g.linear) if c})


def fundamental_identity_holds(g: MElement) -> bool:
    """Exact check of sum_i x_i * d_i g = lin(g)."""
    total = Poly.zero(g.n)
    for i, d in enumerate(g.deriv):
        total = total + mul_term(d, 1, tuple(int(j == i) for j in range(g.n)))
    return total == linear_poly(g)


def endo_apply(g: MElement, images) -> MElement:
    """Image of the element g under the endomorphism sending x_i to
    images[i-1], by the closed form in the matrix embedding h -> (lin h, d h)
    of the free ring over Z[X]; the linear part is read back from the
    derivatives' constant terms, d_j h(0) = lin_j h.
    """
    if not isinstance(g, MElement):
        raise TypeError(f"cannot apply endomorphism to {g!r}")
    if len(images) != g.n:
        raise ValueError(f"expected {g.n} images, got {len(images)}")
    images = check_system(images, g.n)
    _, deriv = closed_form(g, [linear_poly(f) for f in images], [f.deriv for f in images],
                           Poly.one(g.n))
    return MElement(tuple(d.terms.get((0,) * g.n, 0) for d in deriv), deriv)


# -- matrices over Z[X]: the chain rule and the sigma polynomials -----------


def jacobi_substituted(gs: list[MElement], fs) -> tuple:
    """Jacobi matrix of gs with the linear parts of fs substituted for x1..xn.

    Each f may be an element (its linear part is used) or a polynomial
    substituted as-is.
    """
    base = jacobi_matrix(gs)
    n = len(base)
    if len(fs) != n:
        raise ValueError(f"expected {n} substitutions, got {len(fs)}")
    images = []
    for f in fs:
        if isinstance(f, MElement):
            images.append(linear_poly(f))
        elif isinstance(f, Poly):
            images.append(f)
        else:
            raise TypeError(f"cannot substitute {f!r}")
    one = Poly.one(n)
    return tuple(tuple(e.evaluate(images, one) for e in row) for row in base)


def sigma(A, i: int) -> Poly:
    """The polynomial sum_j x_j * A[j][i] of a square matrix (1-based i)."""
    n, cols = _shape(A)
    if n != cols:
        raise ValueError("sigma requires a square matrix")
    if not 1 <= i <= n:
        raise ValueError(f"column index {i} out of range 1..{n}")
    total = Poly.zero(n)
    for j in range(n):
        total = total + mul_term(A[j][i - 1], 1, tuple(int(t == j) for t in range(n)))
    return total


def matmul(A, B) -> tuple:
    """The product of two polynomial matrices, each a tuple of rows."""
    (rows, inner), (inner_b, cols) = _shape(A), _shape(B)
    if inner != inner_b:
        raise ValueError("incompatible shapes for matrix product")
    zero = Poly.zero(A[0][0].n)
    return tuple(tuple(sum((A[i][t] * B[t][j] for t in range(inner)), zero)
                       for j in range(cols)) for i in range(rows))


# The reference expression tree: `reference_parse` builds it from text,
# `reference_eval` evaluates it in any ring and `reference_format` prints it
# as text that parses back.  `expr.parse` builds the element directly; these
# are its oracle.  Nodes compare and hash by type and fields.
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


def random_expr(rng: random.Random, n: int, depth: int = 4):
    r = rng.random()
    if depth == 0 or r < 0.35:
        return Generator(rng.randrange(1, n + 1))
    if r < 0.65:
        return Bracket(random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))
    if r < 0.85:
        count = rng.randrange(1, 4)
        return Sum(tuple(random_expr(rng, n, depth - 1) for _ in range(count)))
    return ScalarMul(rng.randint(-3, 3), random_expr(rng, n, depth - 1))


def reference_eval(e: LieExpr, images):
    """Evaluate `e` under the substitution x_i -> images[i-1], node by node.

    The target ring is duck-typed: its elements must support +, integer
    scalar multiples via * and the Lie product as `.bracket(other)`.
    """
    if isinstance(e, Generator):
        if not 1 <= e.index <= len(images):
            raise ValueError(f"generator index {e.index} out of range 1..{len(images)}")
        return images[e.index - 1]
    if isinstance(e, Bracket):
        return reference_eval(e.left, images).bracket(reference_eval(e.right, images))
    if isinstance(e, Sum):
        total = reference_eval(e.parts[0], images)
        for part in e.parts[1:]:
            total = total + reference_eval(part, images)
        return total
    if isinstance(e, ScalarMul):
        return e.coeff * reference_eval(e.arg, images)
    raise TypeError(f"not a Lie expression: {e!r}")


def reference_element(e: LieExpr, n: int) -> MElement:
    """`e` in the free metabelian Lie ring over n generators, evaluated over
    `MElement.generator`s: a validated element at every node."""
    return reference_eval(e, [MElement.generator(i, n) for i in range(1, n + 1)])


def _format_atom(e: LieExpr) -> str:
    """Format for use as a multiplicand: anything but a generator or a
    bracket needs parentheses to parse back as a factor."""
    if isinstance(e, (Generator, Bracket)):
        return reference_format(e)
    if isinstance(e, ScalarMul) and e.coeff == 1:
        return _format_atom(e.arg)
    return f"({reference_format(e)})"


def reference_format(e: LieExpr) -> str:
    """`e` as text in the grammar of `expr.parse`."""
    if isinstance(e, Generator):
        return f"x{e.index}"
    if isinstance(e, Bracket):
        return f"[{reference_format(e.left)},{reference_format(e.right)}]"
    if isinstance(e, ScalarMul):
        if e.coeff == 1:
            return reference_format(e.arg)
        if e.coeff == -1:
            return f"-{_format_atom(e.arg)}"
        return f"{e.coeff}*{_format_atom(e.arg)}"
    if isinstance(e, Sum):
        out = reference_format(e.parts[0])
        for part in e.parts[1:]:
            text = reference_format(part)
            if text.startswith("-"):
                out += f" - {text[1:]}"
            else:
                out += f" + {text}"
        return out
    raise TypeError(f"not a Lie expression: {e!r}")


def reference_tokenize(text: str):
    """Tokens of `text` as (kind, text, line, column), by a character loop."""
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
        if ch in "[],()+-*":
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


def _reference_int(digits: str, what: str, tok) -> int:
    # int() refuses strings beyond the interpreter's digit limit (4300 by default).
    try:
        return int(digits)
    except ValueError:
        raise LieParseError(f"{what} of {len(digits)} digits is too long", tok[2], tok[3]) from None


class ReferenceParser:
    def __init__(self, text: str, n: int):
        self.tokens = reference_tokenize(text)
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

    def parse_expr(self):
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
    def _signed(e, sign: int):
        if sign == 1:
            return e
        if isinstance(e, ScalarMul):
            return ScalarMul(-e.coeff, e.arg)
        return ScalarMul(-1, e)

    def parse_term(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            value = _reference_int(tok[1], "integer literal", tok)
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

    def parse_factor(self):
        tok = self.peek()
        if tok[0] == "GEN":
            self.advance()
            index = _reference_int(tok[1][1:], "generator index", tok)
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


def reference_parse(text: str, n: int) -> LieExpr:
    """The expression tree of `text`, by a character loop and a
    peek/advance descent; with `reference_element` it is the oracle that the
    scanner-based `expr.parse` is tested against."""
    if n < 1:
        raise ValueError("generator count must be at least 1")
    parser = ReferenceParser(text, n)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise LieParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return expr


def bracket_by_products(a: MElement, b: MElement) -> MElement:
    """[a, b] by the closed form d_i [a, b] = d_i a * lin(b) - d_i b * lin(a),
    with the linear parts as polynomials and general products: the oracle of
    `MElement.bracket`'s derivative-times-linear-form kernel."""
    la, lb = linear_poly(a), linear_poly(b)
    return MElement((0,) * a.n, tuple(da * lb - db * la for da, db in zip(a.deriv, b.deriv)))


def random_tame_automorphism(rng: random.Random, n: int, moves: int = 3):
    """Images of a product of elementary automorphisms.

    Linear moves x_i -> x_i + c*x_j always qualify; a move x_i -> x_i + d
    with d a bracket word keeps the Jacobi determinant at 1 only when d does
    not involve x_i, so those are drawn for n >= 3 from words avoiding i.
    """
    images = [MElement.generator(i, n) for i in range(1, n + 1)]
    for _ in range(moves):
        i = rng.randrange(1, n + 1)
        use_derived = n >= 3 and rng.random() < 0.4
        move = [MElement.generator(t, n) for t in range(1, n + 1)]
        if use_derived:
            others = [t for t in range(1, n + 1) if t != i]
            a, b = rng.sample(others, 2)
            if b > a:
                a, b = b, a
            word_elem = from_basis([BasisTerm(rng.choice([-1, 1]), (a, b))],
                                   [0] * n)
            move[i - 1] = move[i - 1] + word_elem
        else:
            j = rng.choice([t for t in range(1, n + 1) if t != i])
            c = rng.choice([-2, -1, 1, 2])
            move[i - 1] = move[i - 1] + c * MElement.generator(j, n)
        images = [endo_apply(g, move) for g in images]
    return images


def bracket_value(expansion, images):
    """g(S_1..S_n) by bracket arithmetic, from `expansion` = `to_basis(g)`:
    the linear part of g plus every right-normed word, each word a chain of
    `.bracket` calls on the images.  It never reads the derivatives of g."""
    terms, linear = expansion
    total = 0 * images[0]
    for c, s in zip(linear, images):
        if c:
            total = total + c * s
    for t in terms:
        acc = images[t.word[0] - 1].bracket(images[t.word[1] - 1])
        for i in t.word[2:]:
            acc = acc.bracket(images[i - 1])
        total = total + t.coeff * acc
    return total


def subgroup_closure(rows, m, width):
    """Subgroup of (Z/m)^width generated by rows, closed under adding a row."""
    span = {(0,) * width}
    frontier = list(span)
    while frontier:
        fresh = []
        for s in frontier:
            for r in rows:
                v = tuple((a + b) % m for a, b in zip(s, r))
                if v not in span:
                    span.add(v)
                    fresh.append(v)
        frontier = fresh
    return span


def _fibers(hist, key_space, expected, target):
    """fiber_min, fiber_max, uniformity and witness of a fiber histogram.

    The witness is the smallest key whose fiber is wrong, or the smallest
    key missing from the histogram; `target` gives its JSON form.
    """
    fiber_max = max(hist.values())
    fiber_min = 0 if len(hist) < key_space else min(hist.values())
    uniform = fiber_min == expected and fiber_max == expected
    witness = None
    if not uniform:
        bad = [key for key, cnt in hist.items() if cnt != expected]
        if bad:
            key = min(bad)
            count = hist[key]
        else:
            key = next(c for c in itertools.count() if c not in hist)
            count = 0
        witness = {"target": target(key), "count": count}
    return fiber_min, fiber_max, uniform, witness


def _split_key(key, base, k):
    digits = []
    for _ in range(k):
        key, d = divmod(key, base)
        digits.append(d)
    return digits[::-1]


def _report(model_json, k, total, expected, hist, key_space, target):
    assert sum(hist.values()) == total, "fiber histogram lost mass"
    fiber_min, fiber_max, uniform, witness = _fibers(hist, key_space, expected, target)
    return {"model": model_json, "k": k, "expected_fiber": expected,
            "fiber_min": fiber_min, "fiber_max": fiber_max, "uniform": uniform,
            "witness_target": witness}


def histogram_census(gs, model):
    """Report JSON of the image-histogram census, without elapsed time.

    Values come from `bracket_value`, not from the closed form.  For each
    top-left tuple s the tau map is linear, because brackets are bilinear
    and every bracket has a zero top-left entry, and it acts on each module
    coordinate alike.  Its image Im_s is the subgroup spanned by the values
    at tau_j = (mu, 0, .., 0), listed by closure, and every point of Im_s^n
    above the top-left key gets |R|^(n*n) / |Im_s|^n in the histogram.  Keys
    are slot-major element codes, as `element_code` orders each
    slot.
    """
    quotient = model.quotient
    n, k = quotient.n, len(gs)
    m, w, size, R = quotient.m, quotient.monomial_count, quotient.ring_size, model.size
    zero = RefQPoly.zero(quotient)
    l_space = [RefQPoly(quotient, dict(zip(model.l_monomials, v)))
               for v in itertools.product(range(m), repeat=len(model.l_monomials))]
    monos = [RefQPoly(quotient, {mu: 1}) for mu in quotient.monomials()]
    weights = [R ** (k - 1 - i) * m ** d for i in range(k) for d in range(w)]
    expansions = [to_basis(g) for g in gs]
    hist = {}
    for s in itertools.product(l_space, repeat=n):
        args = [ModelElement(model, l, (zero,) * n) for l in s]
        base = 0
        for x in expansions:
            base = base * R + element_code(model, bracket_value(x, args))
        rows = []
        for j in range(n):
            for mu in monos:
                args = [ModelElement(model, l, (mu if t == j else zero,) + (zero,) * (n - 1))
                        for t, l in enumerate(s)]
                rows.append(tuple(d for x in expansions
                                  for d in bracket_value(x, args).tau[0].vec))
        image = subgroup_closure(rows, m, k * w)
        kernel = size ** (n * n) // len(image) ** n
        codes = [sum(d * wt for d, wt in zip(v, weights)) for v in image]
        keys = [base]
        for c in range(n):
            keys = [key + size ** c * code for key in keys for code in codes]
        for key in keys:
            hist[key] = hist.get(key, 0) + kernel
    return _report(model.describe(), k, R ** n, R ** (n - k), hist, R ** k,
                   lambda key: [element_from_code(model, c).to_json()
                                for c in _split_key(key, R, k)])


def abelian_census(gs, modulus, n):
    """Report JSON of a plain census on Z_modulus: all modulus^n tuples."""
    k = len(gs)
    hist = {}
    for r in itertools.product(range(modulus), repeat=n):
        key = 0
        for g in gs:
            key = key * modulus + sum(c * t for c, t in zip(g.linear, r)) % modulus
        hist[key] = hist.get(key, 0) + 1
    return _report({"variant": "abelian", "m": modulus, "n": n, "size": modulus}, k,
                   modulus ** n, modulus ** (n - k), hist, modulus ** k,
                   lambda key: _split_key(key, modulus, k))


def reference_poly_product(a: dict, b: dict) -> dict:
    """Product of two term maps, expanding every pair of terms."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def reference_qpoly_terms(terms: dict, params: QuotientParams) -> dict:
    """Canonical term map of `terms` in Z_{p,q,m}[X]: every exponent e >= p+q
    rewritten to p + (e - p) mod q, coefficients summed and taken mod m."""
    p, q, m = params.p, params.q, params.m
    out = {}
    for mono, c in terms.items():
        key = tuple(e if e < p + q else p + (e - p) % q for e in mono)
        out[key] = (out.get(key, 0) + c) % m
    return {mono: c for mono, c in out.items() if c}


def reference_qpoly_sum(a: dict, b: dict, params: QuotientParams) -> dict:
    """Sum of two term maps in Z_{p,q,m}[X], merged term by term."""
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return reference_qpoly_terms(out, params)


def reference_qpoly_product(a: dict, b: dict, params: QuotientParams) -> dict:
    """Product of two term maps in Z_{p,q,m}[X], expanding every pair of terms."""
    return reference_qpoly_terms(reference_poly_product(a, b), params)


def reference_product_table(params: QuotientParams) -> tuple:
    """`QuotientParams.product_table` by one `position` call per pair of
    monomials: table[a][b] is the slot of mu_a + nu_b reduced."""
    monos = list(params.monomials())
    return tuple(tuple(params.position(tuple(x + y for x, y in zip(mu, nu))) for nu in monos)
                 for mu in monos)


def reference_module_rows(columns, params: QuotientParams) -> list:
    """The rows that span the submodule of R^k generated by columns
    c = (c_1, .., c_k), from term-map products: for each column and each
    monomial mu, the coefficients of mu * c_i over `monomials()`, c_i after
    c_(i-1).  On one-entry columns (c,) these are `poly.module_rows([c])`."""
    monos = list(params.monomials())
    rows = []
    for col in columns:
        for mu in monos:
            products = [reference_qpoly_product({mu: 1}, c.terms, params) for c in col]
            rows.append([prod.get(nu, 0) for prod in products for nu in monos])
    return rows


class RefRow:
    """A row of `reference_reduce_row`: a tuple-keyed Poly with its
    derivation, a list of (parent, multiplier Poly) pairs."""

    def __init__(self, poly: Poly, deriv: list):
        self.poly = poly
        self.deriv = deriv
        self.lm, self.lc = poly.leading() if poly else (None, 0)


def reference_reduce_row(row: RefRow, basis: list, max_degree: int) -> RefRow:
    """`primitivity._reduce_row` on exponent tuples, by a plain scan: every
    step takes the grevlex-largest pending term by `max` and looks for its
    reducer from the start of the basis."""
    work = dict(row.poly.terms)
    done = {}
    mult = {}
    for parent, m in row.deriv:
        acc = mult.setdefault(parent, {})
        for shift, c in m.terms.items():
            acc[shift] = acc.get(shift, 0) + c
    n = row.poly.n
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        if sum(mono) > max_degree:
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded during reduction")
        hit = None
        for b in basis:
            if b.lm is None:
                continue
            if coeff % b.lc:
                continue
            shift = tuple(a - c for a, c in zip(mono, b.lm))
            if any(e < 0 for e in shift):
                continue
            hit = (b, coeff // b.lc, shift)
            break
        if hit is None:
            done[mono] = coeff
            continue
        b, q, shift = hit
        sub = mul_term(b.poly, q, shift)
        for m, c in sub.terms.items():
            if m == mono:
                continue
            s = work.get(m, 0) - c
            if s:
                work[m] = s
            elif m in work:
                del work[m]
        acc = mult.setdefault(b, {})
        acc[shift] = acc.get(shift, 0) - q
    deriv = []
    for parent, acc in mult.items():
        terms = {shift: c for shift, c in acc.items() if c}
        if terms:
            deriv.append((parent, Poly._raw(n, terms)))
    return RefRow(Poly(n, done), deriv)


def reference_buchberger(gens: list[Poly], *, max_basis: int, max_degree: int,
                         stop_on_unit: bool):
    """`primitivity._buchberger` without pair criteria: every pair popped
    from the heap has its S-polynomial, and its G-polynomial unless one
    leading coefficient divides the other, reduced through
    `primitivity._reduce_row`.  Same packing, heap order, counter tie-break,
    caps and unit stop; returns (basis, unit row or None) as packed rows."""
    packing = primitivity._packing_for(gens, max_basis, max_degree)
    basis: list[_Row] = []
    pairs = []
    counter = itertools.count()

    def push(row: _Row):
        if not row.terms:
            return None
        row = primitivity._normalized(row)
        if len(basis) >= max_basis:
            raise GroebnerLimitError(f"basis size cap {max_basis} exceeded")
        row.pos = len(basis)
        basis.append(row)
        if stop_on_unit and row.lm == 0 and row.lc == 1:
            return row
        for j in range(row.pos):
            gamma = packing.lcm(row.lm, basis[j].lm)
            heapq.heappush(pairs, (gamma ^ packing.low, next(counter), j, row.pos))
        return None

    for i, g in enumerate(gens):
        if g.degree() > max_degree:
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded")
        hit = push(packing.row(g, [(i, {0: 1})]))
        if hit is not None:
            return basis, hit
    while pairs:
        key, _, i, j = heapq.heappop(pairs)
        f, g = basis[i], basis[j]
        gamma = key ^ packing.low
        candidates = [primitivity._spair(f, g, gamma)]
        if f.lc % g.lc and g.lc % f.lc:
            candidates.append(primitivity._gpair(f, g, gamma))
        for cand in candidates:
            nf = primitivity._reduce_row(cand, basis, max_degree, packing)
            hit = push(nf)
            if hit is not None:
                return basis, hit
    return basis, None


# -- the reduced strong Groebner basis and membership by reduction ----------


@dataclass
class GroebnerBasis:
    """Strong Groebner basis over Z; cofactors express each generator over the input."""

    generators: list[Poly]
    cofactors: list[list[Poly]]


def _check_target_degree(p: Poly, max_degree: int) -> None:
    # Over the cap a polynomial is refused before it is packed.
    if p and p.degree() > max_degree:
        raise GroebnerLimitError(f"degree cap {max_degree} exceeded during reduction")


def _interreduce(basis: list[_Row], max_degree: int, packing) -> list[_Row]:
    """The reduced basis of the strong basis `basis`: rows whose leading
    term another kept row's divides (monomial and coefficient) are dropped,
    and each kept row is tail-reduced by the others."""
    low, guard = packing.low, packing.guard

    def order(row: _Row) -> tuple[int, int]:
        return row.lm ^ low, abs(row.lc)

    kept: list[_Row] = []
    for row in sorted(basis, key=order):
        if not any(row.lc % other.lc == 0 and not (row.lm - other.lm) & guard
                   for other in kept):
            kept.append(row)
    out = [primitivity._normalized(
        primitivity._reduce_row(row, kept[:i] + kept[i + 1:], max_degree, packing))
        for i, row in enumerate(kept)]
    out.sort(key=order)
    return out


def groebner_z(gens: list[Poly], *, max_basis: int = DEFAULT_MAX_BASIS,
               max_degree: int = DEFAULT_MAX_DEGREE) -> GroebnerBasis:
    """Reduced strong Groebner basis over Z of the ideal generated by gens,
    completed by `primitivity._buchberger` (so up to a unit row), with the
    cofactors of each row over the inputs."""
    packing = primitivity._packing_for(gens, max_basis, max_degree)
    basis, _ = primitivity._buchberger(gens, packing, max_basis=max_basis,
                                       max_degree=max_degree)
    rows = _interreduce(basis, max_degree, packing)
    return GroebnerBasis(
        [packing.unpack(r.terms) for r in rows],
        [[packing.unpack(h) for h in primitivity._cofactors(r, basis, len(gens))] for r in rows])


def reduce_by_basis(p: Poly, basis: GroebnerBasis, *,
                    max_degree: int = DEFAULT_MAX_DEGREE) -> Poly:
    """Normal form of p modulo a strong Groebner basis, by `primitivity._reduce_row`."""
    _check_target_degree(p, max_degree)
    packing = primitivity._packing(p.n, primitivity._field_bits(0, max_degree))
    # A generator over the cap cannot divide a term that is not.
    rows = [packing.row(g, []) for g in basis.generators if g.degree() <= max_degree]
    return packing.unpack(primitivity._reduce_row(packing.row(p, []), rows, max_degree,
                                                  packing).terms)


def ideal_contains(gens: list[Poly], target: Poly, *,
                   max_basis: int = DEFAULT_MAX_BASIS,
                   max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """Exact ideal membership over Z[X]: the target reduces to zero modulo
    the strong basis of `primitivity._buchberger` exactly when it is a member."""
    packing = primitivity._packing_for(gens, max_basis, max_degree)
    basis, _ = primitivity._buchberger(gens, packing, max_basis=max_basis,
                                       max_degree=max_degree)
    _check_target_degree(target, max_degree)
    return not primitivity._reduce_row(packing.row(target, []), basis, max_degree,
                                       packing).terms
