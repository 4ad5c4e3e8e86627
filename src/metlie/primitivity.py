"""Primitivity decisions via the minors-ideal criterion.

A system (g_1, .., g_k) with 1 <= k <= n is primitive exactly when the k x k
minors of its Jacobi matrix generate the unit ideal of Z[X].  Deciding that
over the integers needs a strong Groebner basis: Buchberger completion that
processes both S-polynomials (cancelling leading terms through the lcm of
monomials and coefficients) and G-polynomials (a Bezout combination reaching
the gcd of the leading coefficients), with top reduction: the leading term
is divided by the first row whose leading term divides it, or else replaced
by its Euclidean remainder modulo the first row whose leading monomial
divides it and whose leading coefficient does not exceed it, until neither
applies, and the tail is left unreduced (Kandri-Rody & Kapur, JSC 1988).
Pairs known to vanish are never built: Buchberger's product criterion
(coprime leading monomials and coprime leading coefficients) drops an
S-pair, and his chain criterion in the Z form drops an S- or G-pair of rows
i, j when a third row k has lm_k | lcm(lm_i, lm_j) and lc_k dividing
lcm(lc_i, lc_j) for the S-pair, gcd(lc_i, lc_j) for the G-pair, with the
pairs of k with i and with j settled (Gebauer & Moeller, JSC 1988;
Lichtblau, Illinois J. Math. 2012).

Cheap necessary conditions run first: the gcd of the integer k x k minors of
the linear parts must be 1, and the reduced minors must generate the unit
ideal in each finite quotient ring Z_{p,q,m}[X] of a configured grid that
fits under the ring-size cap.  For p = q = 1, x_i^2 = x_i and the ring is
Z_m^(2^n) by evaluation on the Boolean cube {0,1}^n, so the minors generate
1 exactly when m is coprime to the gcd of their integer values at every
point; the other rings take a Howell form of the ideal's additive span.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Optional

import metlie.poly
from metlie.calculus import _minor_dets, det, jacobi_matrix, minors
from metlie.poly import (
    Poly,
    QuotientParams,
    bezout,
    cube_values,
    exceeds_ring_cap,
    prime_power_factors,
    reduce_pqm,
)
from metlie.ring import MElement, check_system

DEFAULT_MAX_BASIS = 10_000
DEFAULT_MAX_DEGREE = 40

# Quotient grid of the fast path, and the matrix-model grid of `witness` and
# `consistency`: p, q in {1, 2}, m in {2, 3}.
DEFAULT_QUOTIENT_GRID = tuple(
    (p, q, m) for p in (1, 2) for q in (1, 2) for m in (2, 3)
)


class GroebnerLimitError(Exception):
    """The Groebner computation exceeded its configured resource caps."""


def _field_bits(max_basis: int, max_degree: int) -> int:
    """Value bits of a packed field, so that no exponent or degree the kernel
    meets under these caps reaches a guard bit.

    Every basis row has degree <= max_degree: an input is checked before it
    is packed, and a reduction pops the leading term of its result and stops
    above the cap, while grevlex orders by degree first, so no tail term has
    a larger degree than its lead.  So an S- or G-pair's lcm, the terms of
    its candidate and every multiplier have degree <= 2 * max_degree.  A
    cofactor weight gains one multiplier per derivation level, and a
    derivation path runs through each of at most max_basis basis rows once,
    from a final row down to an input: at most max_basis + 1 levels.  The
    check's products h_i * g_i add max_degree more, so every degree stays
    <= 2 * max_degree * (max_basis + 2).
    """
    return max(2 * max_degree * (max_basis + 2), 1).bit_length()


class _Packing:
    """Monomials over n generators packed into one int (Monagan & Pearce,
    CASC 2007).

    Each field is `bits` value bits under a guard bit.  The exponent of x_i
    sits in field n - i (x1 highest) and the total degree in field n, above
    them all.  While every exponent and degree is below 2^bits:
      - the product of two monomials is the sum of their ints;
      - a | b exactly when (b - a) & guard == 0, since a field with a_i > b_i
        borrows from the guard bit;
      - mono ^ low, which complements the exponent fields, orders like
        `grevlex_key`, and mono ^ flip, which complements the degree field,
        orders like (-degree, exponents): smallest first is grevlex-largest.
    """

    __slots__ = ("n", "bits", "shifts", "weights", "vmask", "guard", "low", "flip",
                 "deg_shift", "ones")

    def __init__(self, n: int, bits: int):
        width = bits + 1
        self.n, self.bits = n, bits
        self.shifts = tuple(width * (n - 1 - i) for i in range(n))
        self.deg_shift = width * n
        self.weights = tuple((1 << s) + (1 << self.deg_shift) for s in self.shifts)
        self.vmask = (1 << bits) - 1
        self.guard = sum(1 << (width * f + bits) for f in range(n + 1))
        self.low = (1 << self.deg_shift) - 1
        self.flip = self.vmask << self.deg_shift
        self.ones = sum(1 << (width * f) for f in range(n))

    def mono(self, exps: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exps, self.weights))

    def exps(self, mono: int) -> tuple[int, ...]:
        return tuple((mono >> s) & self.vmask for s in self.shifts)

    def pack(self, terms: dict) -> dict[int, int]:
        return {self.mono(m): c for m, c in terms.items()}

    def unpack(self, terms: dict[int, int]) -> Poly:
        return Poly._raw(self.n, {self.exps(m): c for m, c in terms.items()})

    def lead(self, terms: dict[int, int]) -> Optional[int]:
        """Grevlex-largest monomial of a packed term map; None when it is empty."""
        return min(terms, key=self.flip.__xor__) if terms else None

    def row(self, poly: Poly, deriv: list) -> "_Row":
        terms = self.pack(poly.terms)
        return _Row(terms, deriv, self.lead(terms))

    def lcm(self, a: int, b: int) -> int:
        # The guard bit of a field of (b | guard) - a survives where b_i >= a_i;
        # `take` spans the value bits of those fields.  The degree field of the
        # fieldwise maximum is the sum of its exponent fields, which one
        # product by `ones` gathers in field n - 1.
        t = ((b | self.guard) - a) & self.guard
        take = t - (t >> self.bits)
        m = (a ^ ((a ^ b) & take)) & self.low
        return m | (((m * self.ones) >> self.shifts[0]) & self.vmask) << self.deg_shift


@functools.cache
def _packing(n: int, bits: int) -> _Packing:
    return _Packing(n, bits)


def _packing_for(gens: list[Poly], max_basis: int, max_degree: int) -> _Packing:
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("mismatched generator counts")
    return _packing(n, _field_bits(max_basis, max_degree))


class _Row:
    """A packed polynomial together with its derivation.

    The derivation is a list of (parent, multiplier) pairs, the multiplier a
    packed term map, whose sum of multiplier * parent is the row; a parent is
    an earlier basis row or the index of an input generator.  `lm` is the
    leading monomial, None for the zero row and for an S- or G-candidate
    before its reduction; `pos` is the row's place in the basis.
    """

    __slots__ = ("terms", "deriv", "lm", "lc", "pos")

    def __init__(self, terms: dict[int, int], deriv: list, lm: Optional[int]):
        self.terms = terms
        self.deriv = deriv
        self.lm = lm
        self.lc = terms.get(lm, 0)
        self.pos = None


def _normalized(row: _Row) -> _Row:
    if row.lc >= 0:
        return row
    return _Row({m: -c for m, c in row.terms.items()},
                [(parent, {s: -c for s, c in m.items()}) for parent, m in row.deriv], row.lm)


def _addmul(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """acc += a * b over packed term maps; cancelled terms stay as zeros."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for x, cx in a.items():
        for y, cy in b.items():
            m = x + y
            acc[m] = get(m, 0) + cx * cy


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    return {m: c for m, c in terms.items() if c}


def _combine(rows_scales) -> _Row:
    """Sum of c * X^shift * row over (row, c, shift) triples."""
    terms: dict[int, int] = {}
    deriv = []
    for row, c, shift in rows_scales:
        _addmul(terms, row.terms, {shift: c})
        deriv.append((row, {shift: c}))
    return _Row(_nonzero(terms), deriv, None)


def _reduce_row(row: _Row, basis: list[_Row], max_degree: int, packing: _Packing) -> _Row:
    """Top reduction of `row` modulo `basis`, with its derivation.

    A term c * X^mu reduces by a basis row exactly when the row's leading
    monomial divides X^mu and its leading coefficient divides c; the first
    such row in basis order is taken.  When no row divides the term, the
    first row in basis order whose leading monomial divides X^mu and whose
    leading coefficient lc is at most |c| replaces c by the Euclidean
    remainder c - (c // lc) * lc, which is smaller than |c|, and the term
    is looked at again (Lichtblau, Illinois J. Math. 2012).  The first term
    that neither step changes is the leading term of the result, whose tail
    is left as it stands (Kandri-Rody & Kapur, JSC 1988).  The multipliers
    are summed per reducer and `row`'s own derivation is folded in, so the
    result names only the parents of `row` and rows of `basis`.

    Pending terms sit in a heap of monomials keyed by mono ^ flip, whose
    smallest entry is the grevlex-largest monomial (Monagan & Pearce, CASC
    2007).  A division step only adds smaller monomials and a Euclidean step
    pushes its own monomial back; an entry whose term has cancelled is
    skipped when popped.
    """
    flip, guard = packing.flip, packing.guard
    limit = max(max_degree + 1, 0) << packing.deg_shift
    work = dict(row.terms)
    heap = [m ^ flip for m in work]
    heapq.heapify(heap)
    lead = None
    mult: dict = {}
    for parent, m in row.deriv:
        acc = mult.setdefault(parent, {})
        for shift, c in m.items():
            acc[shift] = acc.get(shift, 0) + c
    reducers = [(b.lm, b.lc, b) for b in basis if b.lm is not None]
    while heap:
        mono = heapq.heappop(heap) ^ flip
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if mono >= limit:
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded during reduction")
        for lm, lc, b in reducers:
            if not coeff % lc and not (mono - lm) & guard:
                break
        else:
            size = abs(coeff)
            lm, lc, b = next((r for r in reducers
                              if r[1] <= size and not (mono - r[0]) & guard), (0, 0, None))
            if b is None:
                work[mono] = coeff
                lead = mono
                break  # out of the while loop: `mono` leads the result
            work[mono] = coeff % lc
            heapq.heappush(heap, mono ^ flip)
        q = coeff // lc
        shift = mono - lm
        for m, c in b.terms.items():
            if m == lm:
                continue
            m += shift
            s = work.get(m, 0) - q * c
            if s:
                if m not in work:
                    heapq.heappush(heap, m ^ flip)
                work[m] = s
            elif m in work:
                del work[m]
        acc = mult.setdefault(b, {})
        acc[shift] = acc.get(shift, 0) - q
    deriv = []
    for parent, acc in mult.items():
        terms = _nonzero(acc)
        if terms:
            deriv.append((parent, terms))
    return _Row(work, deriv, lead)


def _cofactors(row: _Row, basis: list[_Row], count: int) -> list[dict[int, int]]:
    """Packed cofactors h over the `count` inputs with sum h_i * g_i = row.

    Each ancestor's weight (its multiplier within `row`) is complete once
    every later row has passed its own weight down, so the ancestors are
    expanded newest first, in one loop over a heap of basis positions.
    """
    cof: list[dict[int, int]] = [{} for _ in range(count)]
    weight: dict[int, dict[int, int]] = {}
    todo: list[int] = []
    deriv, w = row.deriv, {0: 1}
    while True:
        for parent, m in deriv:
            if isinstance(parent, int):
                acc = cof[parent]
            else:
                acc = weight.get(parent.pos)
                if acc is None:
                    acc = weight[parent.pos] = {}
                    heapq.heappush(todo, -parent.pos)
            _addmul(acc, w, m)
        if not todo:
            return [_nonzero(h) for h in cof]
        pos = -heapq.heappop(todo)
        deriv, w = basis[pos].deriv, _nonzero(weight.pop(pos))


def _spair(f: _Row, g: _Row, gamma: int) -> _Row:
    l = math.lcm(f.lc, g.lc)
    return _combine([(f, l // f.lc, gamma - f.lm), (g, -(l // g.lc), gamma - g.lm)])


def _gpair(f: _Row, g: _Row, gamma: int) -> _Row:
    # Built only when neither leading coefficient divides the other: else the
    # Bezout combination reduces to zero by that row at once.  Then neither
    # Bezout coefficient is zero.
    d, u, v = bezout(f.lc, g.lc)
    assert d == math.gcd(f.lc, g.lc)
    return _combine([(f, u, gamma - f.lm), (g, v, gamma - g.lm)])


def _buchberger(gens: list[Poly], packing: _Packing, *, max_basis: int,
                max_degree: int) -> tuple[list[_Row], Optional[_Row]]:
    """The rows of a strong basis of the ideal of gens, and its unit row, None
    when 1 is not in the ideal.  The completion stops at the unit row: every
    later candidate reduces to 0 by it, so the rows up to it are a basis."""
    basis: list[_Row] = []
    pairs: list[tuple[int, int, int, int]] = []
    pending: set[tuple[int, int]] = set()
    counter = 0
    guard, low = packing.guard, packing.low

    def push(row: _Row) -> Optional[_Row]:
        # A reduced row has degree <= max_degree; an input is checked before
        # it is packed.
        nonlocal counter
        if not row.terms:
            return None
        row = _normalized(row)
        if len(basis) >= max_basis:
            raise GroebnerLimitError(f"basis size cap {max_basis} exceeded")
        idx = len(basis)
        row.pos = idx
        basis.append(row)
        if row.lm == 0 and row.lc == 1:
            return row
        for j in range(idx):
            gamma = packing.lcm(row.lm, basis[j].lm)
            counter += 1
            heapq.heappush(pairs, (gamma ^ low, counter, j, idx))
            pending.add((j, idx))
        return None

    def chained(i: int, j: int, gamma: int, c: int) -> bool:
        """Is there a row k outside {i, j} with lc_k | c and lm_k | gamma
        whose pairs with i and j are both settled?"""
        for k, b in enumerate(basis):
            if (c % b.lc == 0 and k != i and k != j and not (gamma - b.lm) & guard
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for i, g in enumerate(gens):
        if g and g.degree() > max_degree:  # refused before it is packed
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded")
        hit = push(packing.row(g, [(i, {0: 1})]))
        if hit is not None:
            return basis, hit

    while pairs:
        key, _, i, j = heapq.heappop(pairs)
        pending.remove((i, j))
        f, g = basis[i], basis[j]
        gamma = key ^ low
        candidates = []
        # Chain criterion: S(i, j) is a sum of term multiples of S(i, k) and
        # S(j, k) once lc_k | lcm(lc_i, lc_j), and G(i, j) is
        # (gcd / lc_k) * X^(gamma - lm_k) * row k plus such a sum once
        # lc_k | gcd(lc_i, lc_j).  Product criterion: coprime leading
        # monomials (their lcm is their product) and coprime leading
        # coefficients make S(i, j) reduce to 0.
        d = math.gcd(f.lc, g.lc)
        if not (d == 1 and gamma == f.lm + g.lm
                or chained(i, j, gamma, math.lcm(f.lc, g.lc))):
            candidates.append(_spair(f, g, gamma))
        if f.lc % g.lc and g.lc % f.lc and not chained(i, j, gamma, d):
            candidates.append(_gpair(f, g, gamma))
        for cand in candidates:
            nf = _reduce_row(cand, basis, max_degree, packing)
            if nf.terms:
                hit = push(nf)
                if hit is not None:
                    return basis, hit
    return basis, None


def ideal_contains_one(gens: list[Poly], *, max_basis: int = DEFAULT_MAX_BASIS,
                       max_degree: int = DEFAULT_MAX_DEGREE
                       ) -> tuple[bool, Optional[list[Poly]]]:
    """Does the ideal generated by gens contain 1?

    On a positive answer also returns cofactors h_i with sum h_i * g_i = 1,
    verified exactly before being handed back.
    """
    packing = _packing_for(gens, max_basis, max_degree)
    basis, unit = _buchberger(gens, packing, max_basis=max_basis, max_degree=max_degree)
    if unit is None:
        return False, None
    # A basis row has a positive leading coefficient, so the unit row is 1.
    # A generator with a nonzero cofactor entered the basis, so it packs.
    cofactors = _cofactors(unit, basis, len(gens))
    check: dict[int, int] = {}
    for h, g in zip(cofactors, gens):
        if h:
            _addmul(check, h, packing.pack(g.terms))
    if _nonzero(check) != {0: 1}:
        raise AssertionError("certificate verification failed")
    return True, [packing.unpack(h) for h in cofactors]


def _abelian_minor_gcd(rows: list) -> int:
    """gcd g of the k x k minors of a system's linear parts, k x n integer
    rows that `ring.check_shape` has passed: the system is primitive over
    the abelianization iff g = 1, and every minor is 0 modulo each d | g."""
    g = 0
    for d in _minor_dets(rows, len(rows)):
        g = math.gcd(g, d)
        if g == 1:
            return 1
    return g


@functools.cache
def _grid_params(grid: tuple, n: int) -> tuple[QuotientParams, ...]:
    """The rings Z_{p,q,m}[X] over n generators of a quotient grid, in grid
    order, without those over the ring-size cap."""
    rings = (QuotientParams(p, q, m, n) for p, q, m in grid)
    return tuple(r for r in rings if not exceeds_ring_cap(r))


def _quotient_refutation(minor_polys: list[Poly], rings) -> Optional[QuotientParams]:
    """The first ring Z_{p,q,m}[X] of `rings` in which the minors do not
    generate 1, or None.  For p = q = 1 the ring is Z_m^(2^n) by evaluation
    on {0,1}^n (`cube_values`), so they generate 1 exactly when m is coprime
    to their gcd at every point; those gcds are taken once per call.  Other
    rings take a Howell form; `reduce_pqm` and `ideal_contains_finite` are
    looked up per call, so a wrapper patched onto either sees every check."""
    cube = None
    for params in rings:
        if params.p == params.q == 1:
            if cube is None:
                cube = [math.gcd(*values) for values in zip(*map(cube_values, minor_polys))]
            if any(math.gcd(params.m, g) != 1 for g in cube):
                return params
        elif not metlie.poly.ideal_contains_finite(
                [reduce_pqm(p, params) for p in minor_polys], params):
            return params
    return None


@dataclass
class PrimitivityVerdict:
    """Outcome of the primitivity decision; primitive=None means inconclusive."""

    primitive: Optional[bool]
    method: str
    refutation: Optional[dict] = None
    minors: Optional[list[Poly]] = None
    cofactors: Optional[list[Poly]] = None  # sum h_i * minors_i = 1 when present

    @property
    def certificate(self) -> Optional[dict]:
        """The minors and cofactors as text, formatted only when read."""
        if self.cofactors is not None:
            return {"minors": list(map(str, self.minors)), "cofactors": list(map(str, self.cofactors))}

    def to_json(self) -> dict:
        return {
            "primitive": "inconclusive" if self.primitive is None else self.primitive,
            "method": self.method,
            "certificate": self.certificate,
            "refutation": self.refutation,
        }


def is_primitive(gs: list[MElement], *,
                 quotient_grid=DEFAULT_QUOTIENT_GRID,
                 max_basis: int = DEFAULT_MAX_BASIS,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> PrimitivityVerdict:
    """Decide primitivity of a system of 1 <= k <= n elements.

    Refutation fast paths run first (integer linear parts, then the finite
    quotient grid); the exact minors-ideal test over Z[X] settles the rest.
    """
    gs = check_system(gs)
    n, k = gs[0].n, len(gs)

    lin = [list(g.linear) for g in gs]
    gcd_minors = _abelian_minor_gcd(lin)
    if gcd_minors != 1:
        return PrimitivityVerdict(
            False, "abelian-refuted",
            refutation={"kind": "abelian",
                        "params": {"m": next(prime_power_factors(gcd_minors or 2))[0]}},
        )

    minor_polys = minors(jacobi_matrix(gs), k)
    params = _quotient_refutation(minor_polys, _grid_params(tuple(map(tuple, quotient_grid)), n))
    if params is not None:
        return PrimitivityVerdict(
            False, "quotient-refuted",
            refutation={"kind": "quotient",
                        "params": {"p": params.p, "q": params.q, "m": params.m}},
        )

    try:
        found, cofactors = ideal_contains_one(minor_polys, max_basis=max_basis,
                                              max_degree=max_degree)
    except GroebnerLimitError:
        return PrimitivityVerdict(None, "groebner")
    if found:
        return PrimitivityVerdict(True, "groebner", minors=minor_polys, cofactors=cofactors)
    return PrimitivityVerdict(False, "groebner")


def _automorphism_det(gs: list[MElement]) -> tuple[bool, Poly]:
    """(whether (g_1, .., g_n) generates freely, det of its Jacobi matrix):
    it does iff that determinant is +-1."""
    gs = check_system(gs)
    n = gs[0].n
    if len(gs) != n:
        raise ValueError(f"expected exactly {n} elements, got {len(gs)}")
    d = det(jacobi_matrix(gs))
    return d.terms in ({(0,) * n: 1}, {(0,) * n: -1}), d
