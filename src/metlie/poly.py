"""Exact sparse polynomial arithmetic over Z and its finite quotient rings.

Z[X] in generators x1..xn is stored sparsely as a map from exponent vectors
to nonzero arbitrary-precision integer coefficients.  The finite quotients
Z_{p,q,m}[X] = Z[X] / (m, x_i^p(x_i^q - 1)) carry a canonical form of their
own: coefficients in 0..m-1 and every exponent below p+q, obtained through
the confluent rewrite x^(p+q) -> x^p, stored densely as the coefficient
vector over the (p+q)^n canonical monomials.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DEFAULT_MAX_RING_SIZE = 1 << 20


class ResourceLimitError(Exception):
    """A finite-ring computation would exceed its configured size bound."""


def grlex_key(mono: tuple[int, ...]) -> tuple:
    """Graded lexicographic sort key with x1 < x2 < ... < xn (printing order)."""
    return (sum(mono), tuple(reversed(mono)))


def grevlex_key(mono: tuple[int, ...]) -> tuple:
    """Graded reverse lexicographic sort key with x1 < x2 < ... < xn."""
    return (sum(mono), tuple(-e for e in mono))


def format_sum(terms: Iterable[tuple[str, int]]) -> str:
    """Text of the signed sum of (body, nonzero coefficient) terms in order,
    for polynomials and Lie ring elements alike: the body alone for +-1, the
    magnitude alone for an empty body, |c|*body otherwise; '0' for no terms."""
    chunks: list[str] = []
    for body, coeff in terms:
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
    return "".join(chunks) or "0"


def format_terms(terms: Mapping[tuple[int, ...], int]) -> str:
    """Render a term map as text: descending graded-lex, '*' products, '^' powers."""
    ordered = []
    for mono in sorted(terms, key=grlex_key, reverse=True):
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(mono)
            if e
        ]
        ordered.append(("*".join(factors), terms[mono]))
    return format_sum(ordered)


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
            if not isinstance(coeff, int):  # a bool is one
                raise TypeError(f"polynomial coefficients must be ints, got {coeff!r}")
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

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (monomial, coefficient) in grevlex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grevlex_key)
        return mono, self.terms[mono]

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, -1)

    def _merge(self, other: "Poly", sign: int) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_ring(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = merged.get(mono, 0) + sign * coeff
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
        elements need exact + and *, integer scalar multiples included.
        """
        if len(images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(images)}")
        # powers[i][e] = images[i] ** e, each built once up to the largest
        # exponent of x_i in use.
        powers = []
        for i, img in enumerate(images):
            pw = [one, img]
            for _ in range(max((mono[i] for mono in self.terms), default=0) - 1):
                pw.append(pw[-1] * img)
            powers.append(pw)
        total = 0 * one
        for mono, coeff in self.terms.items():
            term = None
            for pw, e in zip(powers, mono):
                if e:
                    term = pw[e] if term is None else term * pw[e]
            total = total + coeff * (one if term is None else term)
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
    """Exact division in Z[X]; raises ValueError when b does not divide a.

    One remainder dict is updated in place, and its grevlex-leading monomial
    comes from a heap keyed (-degree, mono) whose stale entries are skipped
    when popped, as in `primitivity._reduce_row`; each quotient term costs
    b's term count.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    a._require_same_ring(b)
    lm_b, lc_b = b.leading()
    quotient: dict[tuple[int, ...], int] = {}
    rest = dict(a.terms)
    heap = [(-sum(m), m) for m in rest]
    heapq.heapify(heap)
    while heap:
        lm_r = heapq.heappop(heap)[1]
        lc_r = rest.pop(lm_r, 0)
        if not lc_r:
            continue
        mono = tuple(r - s for r, s in zip(lm_r, lm_b))
        if any(e < 0 for e in mono) or lc_r % lc_b:
            raise ValueError("not an exact polynomial division")
        c = lc_r // lc_b
        quotient[mono] = c
        for m, cb in b.terms.items():
            if m == lm_b:
                continue
            m = tuple(map(operator.add, m, mono))
            s = rest.get(m, 0) - c * cb
            if s:
                if m not in rest:
                    heapq.heappush(heap, (-sum(m), m))
                rest[m] = s
            elif m in rest:
                del rest[m]
    return Poly._raw(a.n, quotient)


def prime_power_factors(m: int) -> Iterator[tuple[int, int]]:
    """(l, l^a) for each prime l dividing m, l^a exactly dividing m, in
    increasing order of l.  Trial division takes about sqrt(m) steps."""
    rest, ell = m, 1
    while rest > 1:
        ell = ell + 1 if (ell + 1) ** 2 <= rest else rest
        if rest % ell == 0:
            r = math.gcd(rest, ell ** rest.bit_length())
            rest //= r
            yield ell, r


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

    def position(self, mono) -> int:
        """Slot of the canonical form of monomial `mono` in `monomials()` order."""
        if len(mono) != self.n:
            raise ValueError(f"monomial {tuple(mono)} does not have {self.n} exponents")
        base = self.exponent_span
        pos = 0
        for e in mono:
            if e < 0:
                raise ValueError(f"negative exponent in monomial {tuple(mono)}")
            pos = pos * base + self.reduce_exponent(e)
        return pos

    @functools.cache
    def product_table(self) -> tuple[tuple[int, ...], ...]:
        """table[a][b] is the slot of the product of the a-th and b-th
        monomials of `monomials()`; built once per parameter set and kept
        for the life of the process.  Slots are base-(p+q) numbers, one
        digit per generator, so the table over x1..xi comes from the one
        over x1..x(i-1) and the table of reduced exponent sums:
        slot * (p+q) + reduce_exponent(x + y)."""
        base = self.exponent_span
        sums = [[self.reduce_exponent(x + y) for y in range(base)] for x in range(base)]
        table = [[0]]
        for _ in range(self.n):
            table = [[slot * base + r for slot in row for r in digits]
                     for row in table for digits in sums]
        return tuple(map(tuple, table))

    def local_factors(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...], bool]]:
        """(r, xi, e, local) for each prime power r = l^a exactly dividing m, in
        `prime_power_factors` order, and each point xi of (Z/r)^n, in product
        order: R/rR is the product of the rings A_xi = (Z/r)[X]/(f_i) (CRT),
        f_i = x_i^e_i, e_i = p, where xi_i = 0, and f_i = x_i^e_i - xi_i
        elsewhere, and x -> xi is a ring map A_xi -> Z/r.  With q = l^v * q',
        l not dividing q', x^q - 1 splits over F_l iff q' | l - 1, and then
        x^q - 1 = prod_a (x^(l^v) - a~) over Z/r (Hensel), a~ = a^(r/l) mod r
        being the Teichmueller lift of a root a of x^q' - 1 in F_l, so
        a~^l = a~, and e_i = l^v where xi_i = a~.  With x^p these factors are
        pairwise comaximal, each a power of x - a mod l, so every A_xi is local.
        Elsewhere x^p and x^q - 1 = -1 mod x are still comaximal: xi_i runs
        over {0, 1} with e_i = q where xi_i = 1, and only A_0, where x is
        nilpotent, is local.  The multiplicities at each coordinate sum to p + q."""
        out = []
        for ell, r in prime_power_factors(self.m):
            power = math.gcd(self.q, ell ** self.q.bit_length())  # l^v
            q = self.q // power
            split = (ell - 1) % q == 0
            roots = [(0, self.p)] + ([(pow(a, r // ell, r), power)
                                      for a in range(1, ell) if pow(a, q, ell) == 1]
                                     if split else [(1, self.q)])
            for point in itertools.product(roots, repeat=self.n):
                xi, e = zip(*point)
                out.append((r, xi, e, split or not any(xi)))
        return out


class QPoly:
    """Canonical element of the finite quotient ring Z_{p,q,m}[X], stored as
    its coefficient vector `vec` in `QuotientParams.monomials()` order: what
    `reduce_pqm` builds and `ideal_contains_finite` reads.  It has no
    arithmetic of its own; products go through `module_rows`."""

    __slots__ = ("params", "vec")

    def __init__(self, params: QuotientParams, terms: Mapping[tuple[int, ...], int] | None = None):
        vec = [0] * params.monomial_count
        for mono, coeff in (terms or {}).items():
            if not isinstance(coeff, int):  # a bool is one
                raise TypeError(f"polynomial coefficients must be ints, got {coeff!r}")
            vec[params.position(mono)] += coeff
        self.params = params
        self.vec = tuple([c % params.m for c in vec])

    @classmethod
    def one(cls, params: QuotientParams) -> "QPoly":
        return cls(params, {(0,) * params.n: 1})


def reduce_pqm(a: Poly, params: QuotientParams) -> QPoly:
    """Canonical image of a under the quotient map Z[X] -> Z_{p,q,m}[X]."""
    if a.n != params.n:
        raise ValueError(f"polynomial has {a.n} generators, parameters expect {params.n}")
    return QPoly(params, a.terms)


def cube_values(a: Poly) -> list[int]:
    """The integer values of `a` at the 2^n points xi of the Boolean cube
    {0,1}^n, in product order (x1 the highest bit of a point's index).
    X^mu is 1 at xi when the support of mu lies in that of xi, else 0: the
    coefficients summed by support mask, then summed over submasks, one pass
    per generator.  In Z_{1,1,m}[X] = Z_m[X]/(x_i^2 - x_i) the factors x_i
    and x_i - 1 are comaximal, so for every m evaluation at these points is
    a ring isomorphism onto Z_m^(2^n) (CRT)."""
    n = a.n
    bits = [1 << (n - 1 - i) for i in range(n)]
    values = [0] * (1 << n)
    for mono, c in a.terms.items():
        values[sum(map(operator.mul, bits, map(bool, mono)))] += c
    for b in bits:
        for s in range(len(values)):
            if s & b:
                values[s] += values[s ^ b]
    return values


def module_rows(elements) -> Iterator[list[int]]:
    """The coefficient vectors of mu * c for each quotient-ring element c
    and each monomial mu, in `monomials()` order.  The rows of c span the
    ideal that c generates."""
    for c in elements:
        params = c.params
        m, w = params.m, params.monomial_count
        entries = [(b, x) for b, x in enumerate(c.vec) if x]
        for slots in params.product_table():
            row = [0] * w
            for b, x in entries:
                row[slots[b]] += x
            yield [x % m for x in row]


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
    The pivot of column c keeps its entries from c on, and a step at column
    c rewrites only those of the row: before c both are zero.

    Over Z/2 the Howell form is echelon form over a field: a row is one int,
    one byte per column (bit 8c is entry c), the pivot of column c is keyed
    by its lowest set bit, a step is an XOR, and the size is 2^(pivots).
    """

    __slots__ = ("m", "width", "pivots")

    def __init__(self, m: int, width: int):
        self.m = m
        self.width = width
        self.pivots: dict[int, list[int] | int] = {}

    def _reduce(self, v: list[int], start: int) -> int:
        # Clear v from column `start` on, in place, by pivot multiples; stop at
        # the first column the pivots cannot clear, or at `width` when v is zero.
        m, pivots = self.m, self.pivots
        for c in range(start, self.width):
            a = v[c]
            if a:
                p = pivots.get(c)
                if p is None or a % p[0]:
                    return c
                q = a // p[0]
                v[c:] = [(x - q * y) % m for x, y in zip(v[c:], p)]
        return self.width

    def _reduce_bits(self, v: int) -> int:
        # XOR out the pivot of v's lowest set bit while there is one.
        pivots = self.pivots
        while v:
            p = pivots.get(v & -v)
            if p is None:
                return v
            v ^= p
        return 0

    def add(self, row) -> None:
        """Extend the span by `row`, a sequence of `width` entries in 0..m-1."""
        m = self.m
        if m == 2:
            v = self._reduce_bits(int.from_bytes(bytes(row), "little"))
            if v:
                self.pivots[v & -v] = v
            return
        v = list(row)
        c = self._reduce(v, 0)
        while c < self.width:
            tail = v[c:]
            p = self.pivots.get(c) or [0] * len(tail)
            g = p[0] or m
            a = tail[0]
            d, s, t = bezout(g, a)
            self.pivots[c] = [(s * x + t * y) % m for x, y in zip(p, tail)]
            if d == 1 and g == m:
                return  # a unit entry took an empty column: the second row is m * tail = 0
            v[c:] = [(g // d * y - a // d * x) % m for x, y in zip(p, tail)]
            c = self._reduce(v, c + 1)

    def __contains__(self, row) -> bool:
        if self.m == 2:
            return not self._reduce_bits(int.from_bytes(bytes(row), "little"))
        return self._reduce(list(row), 0) == self.width

    def size(self) -> int:
        if self.m == 2:
            return 1 << len(self.pivots)
        out = 1
        for p in self.pivots.values():
            out *= self.m // p[0]
        return out


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """base ** exponent > bound, for base >= 2, without building a power that
    has more bits than the bound (base^e > bound already when 2^e is)."""
    return exponent >= bound.bit_length() or base ** exponent > bound


def check_ring_size(params: QuotientParams) -> None:
    """Raise ResourceLimitError when Z_{p,q,m}[X] has more than
    DEFAULT_MAX_RING_SIZE elements."""
    if power_exceeds(params.m, params.monomial_count, DEFAULT_MAX_RING_SIZE):
        raise ResourceLimitError(
            f"quotient ring of size {params.m}^{params.monomial_count} "
            f"exceeds the bound {DEFAULT_MAX_RING_SIZE}"
        )


def ideal_contains_finite(gens: list[QPoly], target: QPoly) -> bool:
    """Membership of `target` in the ideal generated by `gens` in Z_{p,q,m}[X].

    The ideal is the additive span of {g * mu : g in gens, mu canonical
    monomial}.  These rows (`module_rows`) are added to a Howell form
    generator by generator, and the answer is True as soon as the target
    lies in the span; otherwise False once all are in.
    """
    if not gens:
        raise ValueError("empty generator list")
    params = gens[0].params
    for g in gens:
        if g.params != params:
            raise ValueError("mismatched quotient parameters among generators")
    if target.params != params:
        raise ValueError("target has mismatched quotient parameters")
    check_ring_size(params)
    span = Span(params.m, params.monomial_count)
    for row in module_rows(gens):
        span.add(row)
        if target.vec in span:
            return True
    return False
