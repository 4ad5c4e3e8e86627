"""Primitivity decisions via the minors-ideal criterion.

A system (g_1, .., g_k) with 1 <= k <= n is primitive exactly when the k x k
minors of its Jacobi matrix generate the unit ideal of Z[X].  Deciding that
over the integers needs a strong Groebner basis: Buchberger completion that
processes both S-polynomials (cancelling leading terms through the lcm of
monomials and coefficients) and G-polynomials (a Bezout combination reaching
the gcd of the leading coefficients), with reduction allowed only when the
reducer's leading coefficient divides the target coefficient.  Pairs known
to vanish are never built: Buchberger's product criterion (coprime leading
monomials and coprime leading coefficients) drops an S-pair, and his chain
criterion in the Z form drops an S- or G-pair of rows i, j when a third row k
has lm_k | lcm(lm_i, lm_j) and lc_k dividing lcm(lc_i, lc_j) for the S-pair,
gcd(lc_i, lc_j) for the G-pair, with the pairs of k with i and with j settled
(Gebauer & Moeller, JSC 1988; Lichtblau, Illinois J. Math. 2012).

Cheap necessary conditions run first: the gcd of the integer k x k minors of
the linear parts must be 1, and the reduced minors must generate the unit
ideal in each small finite quotient ring of a configured grid.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Optional

from metlie.calculus import _det_bareiss, det, jacobi_matrix, minor_positions, minors
from metlie.poly import (
    Poly,
    QPoly,
    QuotientParams,
    ResourceLimitError,
    bezout,
    grevlex_key,
    power_exceeds,
    reduce_pqm,
    DEFAULT_MAX_RING_SIZE,
)
from metlie.ring import MElement

DEFAULT_MAX_BASIS = 10_000
DEFAULT_MAX_DEGREE = 40
MAX_TRIAL_DIVISORS = 1 << 20

# Quotient grid of the fast path, and the matrix-model grid of `witness` and
# `consistency`: p, q in {1, 2}, m in {2, 3}.
DEFAULT_QUOTIENT_GRID = tuple(
    (p, q, m) for p in (1, 2) for q in (1, 2) for m in (2, 3)
)


class GroebnerLimitError(Exception):
    """The Groebner computation exceeded its configured resource caps."""


@dataclass
class GroebnerBasis:
    """Strong Groebner basis over Z; cofactors express each generator over the input."""

    generators: list[Poly]
    cofactors: list[list[Poly]]


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


class _Row:
    """A polynomial together with its derivation.

    The derivation is a list of (parent, multiplier) pairs whose sum of
    multiplier * parent is the row; a parent is an earlier basis row or the
    index of an input generator.  `pos` is the row's place in the basis.
    """

    __slots__ = ("poly", "deriv", "lm", "lc", "pos")

    def __init__(self, poly: Poly, deriv: list):
        self.poly = poly
        self.deriv = deriv
        self.pos = None
        if poly:
            self.lm, self.lc = poly.leading()
        else:
            self.lm, self.lc = None, 0

    def negate(self) -> "_Row":
        return _Row(-self.poly, [(parent, -m) for parent, m in self.deriv])


def _normalized(row: _Row) -> _Row:
    return row.negate() if row.lc < 0 else row


def _combine(rows_scales) -> _Row:
    """Sum of c * X^shift * row over (row, c, shift) triples."""
    poly = None
    deriv = []
    for row, c, shift in rows_scales:
        p = row.poly.mul_term(c, shift)
        poly = p if poly is None else poly + p
        deriv.append((row, Poly._raw(p.n, {shift: c})))
    return _Row(poly, deriv)


def _reduce_row(row: _Row, basis: list[_Row], max_degree: int) -> _Row:
    """Full normal form of `row` modulo `basis`, with its derivation.

    A term c * X^mu reduces by a basis row exactly when the row's leading
    monomial divides X^mu and its leading coefficient divides c; the first
    such row in basis order is taken.  The multipliers are summed per reducer
    and `row`'s own derivation is folded in, so the result names only the
    parents of `row` and rows of `basis`.

    Pending terms sit in a heap of (-degree, monomial) entries, whose smallest
    entry is the grevlex-largest monomial (Monagan & Pearce, CASC 2007).  A
    reduction step only adds smaller monomials, so a popped monomial never
    returns; an entry whose term has cancelled is skipped when popped.
    """
    work = dict(row.poly.terms)
    heap = [(-sum(mono), mono) for mono in work]
    heapq.heapify(heap)
    done: dict[tuple[int, ...], int] = {}
    mult: dict = {}
    for parent, m in row.deriv:
        acc = mult.setdefault(parent, {})
        for shift, c in m.terms.items():
            acc[shift] = acc.get(shift, 0) + c
    reducers = [(b.lm, b.lc, b) for b in basis if b.lm is not None]
    while heap:
        neg_degree, mono = heapq.heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if -neg_degree > max_degree:
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded during reduction")
        for lm, lc, b in reducers:
            if coeff % lc == 0 and all(map(operator.ge, mono, lm)):
                break
        else:
            done[mono] = coeff
            continue
        q = coeff // lc
        shift = tuple(map(operator.sub, mono, lm))
        for m, c in b.poly.terms.items():
            if m == lm:
                continue
            m = tuple(map(operator.add, m, shift))
            s = work.get(m, 0) - q * c
            if s:
                if m not in work:
                    heapq.heappush(heap, (-sum(m), m))
                work[m] = s
            elif m in work:
                del work[m]
        acc = mult.setdefault(b, {})
        acc[shift] = acc.get(shift, 0) - q
    n = row.poly.n
    deriv = []
    for parent, acc in mult.items():
        terms = {shift: c for shift, c in acc.items() if c}
        if terms:
            deriv.append((parent, Poly._raw(n, terms)))
    return _Row(Poly._raw(n, done), deriv)


def _cofactors(row: _Row, basis: list[_Row], count: int) -> list[Poly]:
    """Cofactors h over the `count` inputs with sum h_i * g_i = row.

    Each ancestor's weight (its multiplier within `row`) is complete once
    every later row has passed its own weight down, so the ancestors are
    expanded newest first, in one loop over a heap of basis positions.
    """
    n = row.poly.n
    cof = [Poly.zero(n)] * count
    weight: dict[int, Poly] = {}
    todo: list[int] = []
    deriv, w = row.deriv, Poly.one(n)
    while True:
        for parent, m in deriv:
            term = w * m
            if isinstance(parent, int):
                cof[parent] = cof[parent] + term
            elif parent.pos in weight:
                weight[parent.pos] = weight[parent.pos] + term
            else:
                weight[parent.pos] = term
                heapq.heappush(todo, -parent.pos)
        if not todo:
            return cof
        pos = -heapq.heappop(todo)
        deriv, w = basis[pos].deriv, weight.pop(pos)


def _spair(f: _Row, g: _Row) -> _Row:
    gamma = tuple(map(max, f.lm, g.lm))
    l = _lcm(f.lc, g.lc)
    return _combine([
        (f, l // f.lc, tuple(map(operator.sub, gamma, f.lm))),
        (g, -(l // g.lc), tuple(map(operator.sub, gamma, g.lm))),
    ])


def _gpair(f: _Row, g: _Row) -> _Row:
    # Built only when neither leading coefficient divides the other: else the
    # Bezout combination reduces to zero by that row at once.  Then neither
    # Bezout coefficient is zero.
    gamma = tuple(map(max, f.lm, g.lm))
    d, u, v = bezout(f.lc, g.lc)
    assert d == math.gcd(f.lc, g.lc)
    return _combine([
        (f, u, tuple(map(operator.sub, gamma, f.lm))),
        (g, v, tuple(map(operator.sub, gamma, g.lm))),
    ])


def _buchberger(gens: list[Poly], *, max_basis: int, max_degree: int,
                stop_on_unit: bool) -> tuple[list[_Row], Optional[_Row]]:
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("mismatched generator counts")
    basis: list[_Row] = []
    pairs: list[tuple[tuple, int, int, int, tuple]] = []
    pending: set[tuple[int, int]] = set()
    counter = 0

    def is_unit(row: _Row) -> bool:
        return row.lm is not None and not any(row.lm) and abs(row.lc) == 1

    def push(row: _Row) -> Optional[_Row]:
        nonlocal counter
        if not row.poly:
            return None
        row = _normalized(row)
        if row.poly.degree() > max_degree:
            raise GroebnerLimitError(f"degree cap {max_degree} exceeded")
        if len(basis) >= max_basis:
            raise GroebnerLimitError(f"basis size cap {max_basis} exceeded")
        idx = len(basis)
        row.pos = idx
        basis.append(row)
        if stop_on_unit and is_unit(row):
            return row
        for j in range(idx):
            gamma = tuple(map(max, row.lm, basis[j].lm))
            counter += 1
            heapq.heappush(pairs, (grevlex_key(gamma), counter, j, idx, gamma))
            pending.add((j, idx))
        return None

    def chained(i: int, j: int, gamma: tuple, c: int) -> bool:
        """Is there a row k outside {i, j} with lc_k | c and lm_k | gamma
        whose pairs with i and j are both settled?"""
        return any(c % b.lc == 0 and k != i and k != j and all(map(operator.le, b.lm, gamma))
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, b in enumerate(basis))

    for i, g in enumerate(gens):
        hit = push(_Row(g, [(i, Poly.one(n))]))
        if hit is not None:
            return basis, hit

    while pairs:
        _, _, i, j, gamma = heapq.heappop(pairs)
        pending.remove((i, j))
        f, g = basis[i], basis[j]
        candidates = []
        # Chain criterion: S(i, j) is a sum of term multiples of S(i, k) and
        # S(j, k) once lc_k | lcm(lc_i, lc_j), and G(i, j) is
        # (gcd / lc_k) * X^(gamma - lm_k) * row k plus such a sum once
        # lc_k | gcd(lc_i, lc_j).  Product criterion: coprime leading
        # monomials and coprime leading coefficients make S(i, j) reduce to 0.
        d = math.gcd(f.lc, g.lc)
        if not (d == 1 and not any(map(min, f.lm, g.lm))
                or chained(i, j, gamma, _lcm(f.lc, g.lc))):
            candidates.append(_spair(f, g))
        if f.lc % g.lc and g.lc % f.lc and not chained(i, j, gamma, d):
            candidates.append(_gpair(f, g))
        for cand in candidates:
            nf = _reduce_row(cand, basis, max_degree)
            if nf.poly:
                hit = push(nf)
                if hit is not None:
                    return basis, hit
    return basis, None


def _interreduce(basis: list[_Row], max_degree: int) -> list[_Row]:
    # Minimize: drop rows whose leading term is divisible (monomial and
    # coefficient) by another kept row's leading term.
    order = sorted(range(len(basis)), key=lambda i: (grevlex_key(basis[i].lm), abs(basis[i].lc)))
    kept: list[_Row] = []
    for idx in order:
        row = basis[idx]
        divisible = False
        for other in kept:
            if row.lc % other.lc:
                continue
            if all(a >= b for a, b in zip(row.lm, other.lm)):
                divisible = True
                break
        if not divisible:
            kept.append(row)
    # Tail-reduce each kept row against the others.
    out: list[_Row] = []
    for i, row in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        out.append(_normalized(_reduce_row(row, others, max_degree)))
    out.sort(key=lambda r: (grevlex_key(r.lm), abs(r.lc)))
    return out


def groebner_z(gens: list[Poly], *, max_basis: int = DEFAULT_MAX_BASIS,
               max_degree: int = DEFAULT_MAX_DEGREE) -> GroebnerBasis:
    """Reduced strong Groebner basis over Z of the ideal generated by gens."""
    basis, _ = _buchberger(gens, max_basis=max_basis, max_degree=max_degree,
                           stop_on_unit=False)
    rows = _interreduce(basis, max_degree)
    return GroebnerBasis([r.poly for r in rows],
                         [_cofactors(r, basis, len(gens)) for r in rows])


def reduce_by_basis(p: Poly, basis: GroebnerBasis, *,
                    max_degree: int = DEFAULT_MAX_DEGREE) -> Poly:
    """Normal form of p modulo a strong Groebner basis."""
    rows = [_Row(g, []) for g in basis.generators]
    return _reduce_row(_Row(p, []), rows, max_degree).poly


def ideal_contains(gens: list[Poly], target: Poly, *,
                   max_basis: int = DEFAULT_MAX_BASIS,
                   max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """Exact ideal membership over Z[X]: the target reduces to zero modulo
    a strong Groebner basis exactly when it is a member."""
    basis, _ = _buchberger(gens, max_basis=max_basis, max_degree=max_degree,
                           stop_on_unit=False)
    return not _reduce_row(_Row(target, []), basis, max_degree).poly


def ideal_contains_one(gens: list[Poly], *, max_basis: int = DEFAULT_MAX_BASIS,
                       max_degree: int = DEFAULT_MAX_DEGREE
                       ) -> tuple[bool, Optional[list[Poly]]]:
    """Does the ideal generated by gens contain 1?

    On a positive answer also returns cofactors h_i with sum h_i * g_i = 1,
    verified exactly before being handed back.
    """
    basis, unit = _buchberger(gens, max_basis=max_basis, max_degree=max_degree,
                              stop_on_unit=True)
    if unit is None:
        return False, None
    # A basis row has a positive leading coefficient, so the unit row is 1.
    cofactors = _cofactors(unit, basis, len(gens))
    n = gens[0].n
    check = Poly.zero(n)
    for h, g in zip(cofactors, gens):
        check = check + h * g
    if check != Poly.one(n):
        raise AssertionError("certificate verification failed")
    return True, cofactors


def abelian_primitive(rows: list) -> bool:
    """Primitivity of integer linear parts: gcd of all k x k minors is 1."""
    k = len(rows)
    if k < 1:
        raise ValueError("empty system")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged linear-part matrix")
    if k > n:
        raise ValueError(f"system size {k} exceeds generator count {n}")
    return _abelian_minor_gcd(rows) == 1


def _abelian_minor_gcd(rows: list) -> int:
    k = len(rows)
    g = 0
    for _, cols in minor_positions(k, len(rows[0]), k):
        sub = [[rows[i][c] for c in cols] for i in range(k)]
        g = math.gcd(g, _det_bareiss(sub))
        if g == 1:
            return 1
    return g


def _smallest_prime_factor(v: int) -> int:
    """Smallest prime factor of |v| (2 when |v| < 2), found by trial division
    over at most MAX_TRIAL_DIVISORS candidates; past that |v| itself is the
    answer, which still refutes: every linear minor is 0 modulo it."""
    v = abs(v)
    if v < 2:
        return 2
    for d in range(2, min(math.isqrt(v), MAX_TRIAL_DIVISORS + 1) + 1):
        if v % d == 0:
            return d
    return v


def _reduced_minor_ideal_contains_one(minor_polys: list[Poly], params: QuotientParams) -> bool:
    from metlie.poly import ideal_contains_finite

    # Refuse an oversized ring before reducing the minors into it.
    if power_exceeds(params.m, params.monomial_count, DEFAULT_MAX_RING_SIZE):
        raise ResourceLimitError(f"quotient ring of size {params.m}^{params.monomial_count} "
                                 f"exceeds the bound {DEFAULT_MAX_RING_SIZE}")
    reduced = [reduce_pqm(p, params) for p in minor_polys]
    return ideal_contains_finite(reduced, QPoly.one(params))


def quotient_primitivity_check(gs: list[MElement], params: QuotientParams) -> bool:
    """Necessary condition in Z_{p,q,m}[X]: reduced minors must generate 1.

    A False answer for any parameters certifies non-primitivity; True is
    only a pass of the necessary condition.
    """
    k = len(gs)
    if not 1 <= k <= gs[0].n:
        raise ValueError(f"system size {k} out of range 1..{gs[0].n}")
    if params.n != gs[0].n:
        raise ValueError("quotient parameters use a different generator count")
    minor_polys = minors(jacobi_matrix(gs), k)
    return _reduced_minor_ideal_contains_one(minor_polys, params)


@dataclass
class PrimitivityVerdict:
    """Outcome of the primitivity decision; primitive=None means inconclusive."""

    primitive: Optional[bool]
    method: str
    certificate: Optional[dict] = None
    refutation: Optional[dict] = None

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
    if not gs:
        raise ValueError("empty system")
    n = gs[0].n
    k = len(gs)
    for g in gs:
        if g.n != n:
            raise ValueError("mismatched generator counts in the system")
    if k > n:
        raise ValueError(f"system size {k} exceeds generator count {n}")

    lin = [list(g.linear) for g in gs]
    gcd_minors = _abelian_minor_gcd(lin)
    if gcd_minors != 1:
        modulus = _smallest_prime_factor(gcd_minors)
        return PrimitivityVerdict(
            False, "abelian-refuted",
            refutation={"kind": "abelian", "params": {"m": modulus}},
        )

    minor_polys = minors(jacobi_matrix(gs), k)
    for (p, q, m) in quotient_grid:
        params = QuotientParams(p, q, m, n)
        try:
            ok = _reduced_minor_ideal_contains_one(minor_polys, params)
        except ResourceLimitError:
            continue
        if not ok:
            return PrimitivityVerdict(
                False, "quotient-refuted",
                refutation={"kind": "quotient", "params": {"p": p, "q": q, "m": m}},
            )

    try:
        found, cofactors = ideal_contains_one(minor_polys, max_basis=max_basis,
                                              max_degree=max_degree)
    except GroebnerLimitError:
        return PrimitivityVerdict(None, "groebner")
    if found:
        return PrimitivityVerdict(
            True, "groebner",
            certificate={
                "minors": [str(p) for p in minor_polys],
                "cofactors": [str(h) for h in cofactors],
            },
        )
    return PrimitivityVerdict(False, "groebner")


def is_automorphism_system(gs: list[MElement]) -> bool:
    """True when (g_1, .., g_n) generates freely: det of the Jacobi matrix is +-1."""
    if not gs:
        raise ValueError("empty system")
    n = gs[0].n
    if len(gs) != n:
        raise ValueError(f"expected exactly {n} elements, got {len(gs)}")
    d = det(jacobi_matrix(gs))
    return d.terms == {(0,) * n: 1} or d.terms == {(0,) * n: -1}
