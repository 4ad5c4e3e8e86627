"""Exact sparse polynomial arithmetic over Z and its finite quotient rings.

Z[X] in generators x1..xn is stored sparsely as a map from exponent vectors
to nonzero arbitrary-precision integer coefficients.  The finite quotients
Z_{p,q,m}[X] = Z[X] / (m, x_i^p(x_i^q - 1)) carry a canonical form of their
own: coefficients in 0..m-1 and every exponent below p+q, obtained through
the confluent rewrite x^(p+q) -> x^p.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

DEFAULT_MAX_RING_SIZE = 1 << 20


class ResourceLimitError(Exception):
    """A finite-ring computation would exceed its configured size bound."""


def grlex_key(mono: tuple[int, ...]) -> tuple:
    """Graded lexicographic sort key with x1 < x2 < ... < xn (printing order)."""
    return (sum(mono), tuple(reversed(mono)))


def grevlex_key(mono: tuple[int, ...]) -> tuple:
    """Graded reverse lexicographic sort key with x1 < x2 < ... < xn."""
    return (sum(mono), tuple(-e for e in mono))


def format_terms(terms: Mapping[tuple[int, ...], int]) -> str:
    """Render a term map as text: descending graded-lex, '*' products, '^' powers."""
    if not terms:
        return "0"
    chunks: list[str] = []
    for mono in sorted(terms, key=grlex_key, reverse=True):
        coeff = terms[mono]
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(mono)
            if e
        ]
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not chunks:
            chunks.append(text if coeff > 0 else f"-{text}")
        else:
            chunks.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(chunks)


class Poly:
    """Sparse multivariate polynomial over Z, immutable after construction.

    Supports exact ring arithmetic through the usual operators, plus the
    substitution homomorphism `evaluate` into any commutative ring whose
    elements provide +, * and integer scalar multiples.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 1:
            raise ValueError("generator count must be at least 1")
        clean: dict[tuple[int, ...], int] = {}
        for mono, coeff in (terms or {}).items():
            key = tuple(mono)
            if len(key) != n:
                raise ValueError(f"monomial {key} does not have {n} exponents")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in monomial {key}")
            coeff = int(coeff)
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
                if not clean[key]:
                    del clean[key]
        self.n = n
        self.terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict[tuple[int, ...], int]) -> "Poly":
        # Internal fast path: terms must already be canonical.
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, c: int, n: int) -> "Poly":
        return cls._raw(n, {(0,) * n: c} if c else {})

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls.constant(1, n)

    @classmethod
    def variable(cls, i: int, n: int) -> "Poly":
        """The generator x_i (1-based index)."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        mono = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls._raw(n, {mono: 1})

    def _require_same_ring(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched generator counts {self.n} and {other.n}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.n, 0)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (monomial, coefficient) in grevlex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grevlex_key)
        return mono, self.terms[mono]

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = merged.get(mono, 0) + coeff
            if s:
                merged[mono] = s
            else:
                del merged[mono]
        return Poly._raw(self.n, merged)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = merged.get(mono, 0) - coeff
            if s:
                merged[mono] = s
            else:
                del merged[mono]
        return Poly._raw(self.n, merged)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly.zero(self.n)
            return Poly._raw(self.n, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        out: dict[tuple[int, ...], int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(map(operator.add, ma, mb))
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._raw(self.n, out)

    __rmul__ = __mul__

    def mul_term(self, coeff: int, mono: tuple[int, ...]) -> "Poly":
        """Product with the single term coeff * X^mono."""
        if not coeff:
            return Poly.zero(self.n)
        return Poly._raw(
            self.n,
            {tuple(map(operator.add, m, mono)): c * coeff for m, c in self.terms.items()},
        )

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        out = Poly.one(self.n)
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, images, one):
        """Substitution homomorphism x_i -> images[i-1].

        `one` must be the multiplicative identity of the target ring; target
        elements need exact +, * (including ** for small powers) and integer
        scalar multiples via *.
        """
        if len(images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(images)}")
        total = 0 * one
        for mono in sorted(self.terms, key=grevlex_key):
            coeff = self.terms[mono]
            term = one
            for img, e in zip(images, mono):
                if e:
                    term = term * img ** e
            total = total + coeff * term
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return format_terms(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self!s})"


def divexact(a: Poly, b: Poly) -> Poly:
    """Exact division in Z[X]; raises ValueError when b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    a._require_same_ring(b)
    lm_b, lc_b = b.leading()
    quotient: dict[tuple[int, ...], int] = {}
    rest = a
    while rest:
        lm_r, lc_r = rest.leading()
        mono = tuple(r - s for r, s in zip(lm_r, lm_b))
        if any(e < 0 for e in mono) or lc_r % lc_b:
            raise ValueError("not an exact polynomial division")
        c = lc_r // lc_b
        quotient[mono] = c
        rest = rest - b.mul_term(c, mono)
    return Poly(a.n, quotient)


@dataclass(frozen=True)
class QuotientParams:
    """Parameters (p, q, m, n) of the finite quotient Z_{p,q,m}[X]."""

    p: int
    q: int
    m: int
    n: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.n < 1:
            raise ValueError("generator count must be at least 1")

    @property
    def exponent_span(self) -> int:
        """Canonical exponents live in 0 .. p+q-1."""
        return self.p + self.q

    @property
    def monomial_count(self) -> int:
        return self.exponent_span ** self.n

    @property
    def ring_size(self) -> int:
        return self.m ** self.monomial_count

    def monomials(self) -> Iterator[tuple[int, ...]]:
        """All canonical monomials in a fixed deterministic order."""
        return itertools.product(range(self.exponent_span), repeat=self.n)

    def reduce_exponent(self, e: int) -> int:
        if e < self.exponent_span:
            return e
        return self.p + (e - self.p) % self.q


class QPoly:
    """Canonical element of the finite quotient ring Z_{p,q,m}[X]."""

    __slots__ = ("params", "terms")

    def __init__(self, params: QuotientParams, terms: Mapping[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != params.n:
                raise ValueError(f"monomial {tuple(mono)} does not have {params.n} exponents")
            key = tuple(params.reduce_exponent(e) for e in mono)
            c = (clean.get(key, 0) + coeff) % params.m
            if c:
                clean[key] = c
            elif key in clean:
                del clean[key]
        self.params = params
        self.terms = clean

    @classmethod
    def _raw(cls, params: QuotientParams, terms: dict[tuple[int, ...], int]) -> "QPoly":
        self = object.__new__(cls)
        self.params = params
        self.terms = terms
        return self

    @classmethod
    def zero(cls, params: QuotientParams) -> "QPoly":
        return cls._raw(params, {})

    @classmethod
    def one(cls, params: QuotientParams) -> "QPoly":
        return cls.constant(1, params)

    @classmethod
    def constant(cls, c: int, params: QuotientParams) -> "QPoly":
        c %= params.m
        return cls._raw(params, {(0,) * params.n: c} if c else {})

    @classmethod
    def variable(cls, i: int, params: QuotientParams) -> "QPoly":
        if not 1 <= i <= params.n:
            raise ValueError(f"generator index {i} out of range 1..{params.n}")
        mono = tuple(1 if j == i - 1 else 0 for j in range(params.n))
        return cls._raw(params, {mono: 1})

    def _require_same_ring(self, other: "QPoly") -> None:
        if self.params != other.params:
            raise ValueError("mismatched quotient parameters")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        self._require_same_ring(other)
        m = self.params.m
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = (merged.get(mono, 0) + coeff) % m
            if s:
                merged[mono] = s
            elif mono in merged:
                del merged[mono]
        return QPoly._raw(self.params, merged)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QPoly":
        m = self.params.m
        return QPoly._raw(self.params, {k: (-c) % m for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other %= self.params.m
            if not other:
                return QPoly.zero(self.params)
            m = self.params.m
            out = {}
            for mono, c in self.terms.items():
                s = (c * other) % m
                if s:
                    out[mono] = s
            return QPoly._raw(self.params, out)
        if not isinstance(other, QPoly):
            return NotImplemented
        self._require_same_ring(other)
        params = self.params
        m = params.m
        out: dict[tuple[int, ...], int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(params.reduce_exponent(a + b) for a, b in zip(ma, mb))
                s = (out.get(mono, 0) + ca * cb) % m
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return QPoly._raw(params, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("negative exponent")
        out = QPoly.one(self.params)
        for _ in range(e):
            out = out * self
        return out

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.params.n, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.params, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return format_terms(self.terms)

    def __repr__(self) -> str:
        p = self.params
        return f"QPoly(p={p.p},q={p.q},m={p.m}; {self!s})"


def reduce_pqm(a: Poly, params: QuotientParams) -> QPoly:
    """Canonical image of a under the quotient map Z[X] -> Z_{p,q,m}[X]."""
    if a.n != params.n:
        raise ValueError(f"polynomial has {a.n} generators, parameters expect {params.n}")
    return QPoly(params, a.terms)


def to_vector(qp: QPoly) -> list[int]:
    """Coefficients of `qp` in the order of `QuotientParams.monomials()`."""
    params = qp.params
    base = params.exponent_span
    vec = [0] * params.monomial_count
    for mono, c in qp.terms.items():
        pos = 0
        for e in mono:
            pos = pos * base + e
        vec[pos] = c
    return vec


def from_vector(params: QuotientParams, vec) -> QPoly:
    """The element whose coefficients, in `monomials()` order, are `vec`."""
    return QPoly(params, dict(zip(params.monomials(), vec)))


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(d, u, v) with u*a + v*b = d = gcd(a, b) for a, b >= 0, by extended Euclid."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


class Span:
    """Subgroup of (Z/m)^width spanned by the rows added so far, in Howell form.

    Pivot column c holds a row that vanishes before c and whose entry g at c
    divides m, g < m (Howell, "Spans in the module (Z_m)^s", 1986;
    Storjohann & Mulders, ESA 1998).  A new row is reduced by the pivots
    until a column c where its entry a is not a multiple of g; an empty
    column counts as g = m.  With s*g + t*a = d = gcd(g, a), the unimodular
    step (p, v) -> (s*p + t*v, (g/d)*v - (a/d)*p) leaves the pivot entry d,
    and the second row, which vanishes at c, is added in turn.  That row
    carries the multiple (m/d) * pivot, which also vanishes at c, into the
    later pivots; for composite m this is what field elimination misses.
    With it every element is sum c_i * row_i with 0 <= c_i < m/g_i in
    exactly one way: membership is a reduction and the size is prod m/g_i.
    """

    __slots__ = ("m", "width", "pivots")

    def __init__(self, m: int, width: int):
        self.m = m
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    def _reduce(self, v: list[int]) -> tuple[int, list[int]]:
        # Clear leading columns by pivot multiples; stop at the first column
        # the pivots cannot clear, or at `width` when v reduces to zero.
        m = self.m
        for c in range(self.width):
            a = v[c]
            if a:
                p = self.pivots.get(c)
                if p is None or a % p[c]:
                    return c, v
                q = a // p[c]
                v = [(x - q * y) % m for x, y in zip(v, p)]
        return self.width, v

    def add(self, row) -> None:
        """Extend the span by `row`, a sequence of `width` entries in 0..m-1."""
        m = self.m
        c, v = self._reduce(list(row))
        while c < self.width:
            p = self.pivots.get(c) or [0] * self.width
            g = p[c] or m
            a = v[c]
            d, s, t = bezout(g, a)
            self.pivots[c] = [(s * x + t * y) % m for x, y in zip(p, v)]
            c, v = self._reduce([(g // d * y - a // d * x) % m for x, y in zip(p, v)])

    def __contains__(self, row) -> bool:
        return self._reduce(list(row))[0] == self.width

    def size(self) -> int:
        out = 1
        for c, p in self.pivots.items():
            out *= self.m // p[c]
        return out


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """base ** exponent > bound, for base >= 2, without building a power that
    has more bits than the bound (base^e > bound already when 2^e is)."""
    return exponent >= bound.bit_length() or base ** exponent > bound


def ideal_contains_finite(
    gens: list[QPoly],
    target: QPoly,
    *,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
) -> bool:
    """Membership of `target` in the ideal generated by `gens` in Z_{p,q,m}[X].

    The ideal is the additive span of {g * mu : g in gens, mu canonical
    monomial} in the coefficient vectors of `to_vector`.  The products are
    added to a Howell form generator by generator, and the answer is True as
    soon as the target lies in the span; otherwise False once all are in.
    """
    if not gens:
        raise ValueError("empty generator list")
    params = gens[0].params
    for g in gens:
        if g.params != params:
            raise ValueError("mismatched quotient parameters among generators")
    if target.params != params:
        raise ValueError("target has mismatched quotient parameters")
    if power_exceeds(params.m, params.monomial_count, max_ring_size):
        raise ResourceLimitError(
            f"quotient ring of size {params.m}^{params.monomial_count} exceeds the bound {max_ring_size}"
        )
    goal = to_vector(target)
    monos = [QPoly._raw(params, {mu: 1}) for mu in params.monomials()]
    span = Span(params.m, len(monos))
    for g in gens:
        for mu in monos:
            span.add(to_vector(g * mu))
            if goal in span:
                return True
    return False
