"""Finite metabelian matrix Lie rings and exact uniformity checking.

A model element is a 2x2 matrix shape (l 0 / tau 0): a top-left entry l and
a bottom-left vector tau in the free rank-n module over Z_{p,q,m}[X] with
basis t_1..t_n.  The commutator [S1,S2] = S1*S2 - S2*S1 lands on
(0, tau1*l2 - tau2*l1), which makes the ring metabelian.  The default
top-left carrier is the linear polynomials without free term, coefficients
mod m; the full quotient ring is available as a variant.

A system (g_1..g_k) over n generators is uniformly distributed on a finite
ring R of size N exactly when every target k-tuple has N^(n-k) preimages
under substitution.  `uniformity_check` decides this exactly without
enumerating the N^n argument tuples or listing any fiber: the substituted
values come from the closed form (lin(g)(s), sum_j tau_j * d_j g(s)), which
for fixed top-left entries s is linear in the tau coordinates.  Each
top-left tuple therefore adds the image of a linear map with fibers of one
size, and the smallest and largest fibers, and the smallest wrong target,
follow from the image sizes per top-left key.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

from metlie.poly import (
    Poly, QuotientParams, Span, format_terms, power_exceeds, prime_power_factors,
)
from metlie.ring import MElement, check_system

DEFAULT_BUDGET = 1 << 28

# Default abelian moduli of `witness` and `consistency`.
DEFAULT_ABELIAN_MODULI = (2, 3, 4)

# Sizes of 2^SIZE_BITS and more are handled as powers and never built.
SIZE_BITS = 4096


def _size_value(base: int, exponent: int):
    """base ** exponent, or the text 'base^exponent' from 2^SIZE_BITS on."""
    if power_exceeds(base, exponent, (1 << SIZE_BITS) - 1):
        return f"{base}^{exponent}"
    return base ** exponent


class BudgetError(Exception):
    """An exhaustive enumeration would exceed the configured budget."""


def _charge(base: int, exponent: int, budget: int) -> None:
    """Raise BudgetError when base^exponent tuples exceed the budget."""
    if power_exceeds(base, exponent, budget):
        raise BudgetError(f"enumeration of {_size_value(base, exponent)} tuples "
                          f"exceeds the budget {budget}")


@dataclass(frozen=True)
class FiniteModel:
    """Finite matrix Lie ring over `quotient`, its top-left carrier chosen
    by `top_left`: "linear" (no free term, coefficients mod m) or "full"
    (the whole quotient ring).  Compares by those two fields; the carrier's
    data are cached on first use."""

    quotient: QuotientParams
    top_left: str = "linear"

    def __post_init__(self):
        if self.top_left not in ("linear", "full"):
            raise ValueError("top_left must be 'linear' or 'full'")

    @property
    def l_count(self) -> int:
        """len(l_monomials), without listing the monomials."""
        quotient = self.quotient
        return quotient.n if self.top_left == "linear" else quotient.monomial_count

    @cached_property
    def l_monomials(self) -> tuple:
        """Monomials the top-left entry may carry, in its digit order:
        x1..xn for "linear", every monomial in `monomials()` order for "full"."""
        quotient = self.quotient
        n = quotient.n
        if self.top_left == "linear":
            return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
        return tuple(quotient.monomials())

    @cached_property
    def size_exponent(self) -> int:
        """m^size_exponent elements: n tau coordinates of monomial_count
        digits each, then the top-left digits."""
        quotient = self.quotient
        return quotient.n * quotient.monomial_count + self.l_count

    @cached_property
    def l_size(self) -> int:
        return self.quotient.m ** self.l_count

    @cached_property
    def size(self) -> int:
        return self.quotient.m ** self.size_exponent

    def size_order(self) -> tuple:
        """Sort key of the size: exact below 2^SIZE_BITS, by log2(log2 size) above (finite at any n)."""
        size = _size_value(self.quotient.m, self.size_exponent)
        if isinstance(size, int):
            return (0, size)
        return (1, math.log2(self.size_exponent) + math.log2(math.log2(self.quotient.m)))

    def describe(self) -> dict:
        q = self.quotient
        return {
            "p": q.p, "q": q.q, "m": q.m, "n": q.n,
            "variant": self.top_left, "size": _size_value(q.m, self.size_exponent),
        }

    # -- the top-left carrier, built once per model ------------------------

    @cached_property
    def l_digits(self) -> list:
        """The digit vectors of the top-left entries over `l_monomials`."""
        return list(itertools.product(range(self.quotient.m), repeat=self.l_count))

    @cached_property
    def parts(self) -> list:
        """The values of `l_digits` at the parts of R (`_parts`)."""
        return _parts(self.quotient, self.l_monomials, self.l_digits)


@dataclass(frozen=True)
class UniformityReport:
    model: dict
    k: int
    size: int
    total: int
    expected_fiber: int
    fiber_min: int
    fiber_max: int
    uniform: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "expected_fiber": self.expected_fiber,
            "fiber_min": self.fiber_min,
            "fiber_max": self.fiber_max,
            "uniform": self.uniform,
            "witness_target": self.witness,
        }


class _PointSpans(dict):
    """|Z/r-span of the Jacobi matrix [d_j g_i] at a point a of (Z/r)^n|, by
    the flat key (r, a_1, .., a_n); one table serves a whole census."""

    def __init__(self, gs: list[MElement]):
        super().__init__()
        self.gs = gs

    def __missing__(self, key) -> int:
        r, *a = key
        cols = Span(r, len(self.gs))
        for j in range(len(a)):
            terms = [g.deriv[j].terms for g in self.gs]
            if any(a):
                col = [sum(c * math.prod(map(pow, a, mu)) for mu, c in t.items()) for t in terms]
            else:  # at 0 only the constant terms survive
                col = [t.get(key[1:], 0) for t in terms]
            cols.add([x % r for x in col])
        self[key] = size = cols.size()
        return size


def _parts(quotient: QuotientParams, l_monos: tuple, l_digits: list) -> list:
    """values[t][f] for `_image_size`: the top-left entry with digits
    l_digits[t] over `l_monos` at the point xi mod r of the f-th part
    (r, xi, e, local) of `QuotientParams.local_factors`."""
    factors = quotient.local_factors()
    # the carrier's monomials' values at xi mod r
    at = [[math.prod(map(pow, xi, mu)) % r for mu in l_monos] for r, xi, _, _ in factors]
    return [[sum(map(operator.mul, digits, v)) % r for (r, *_), v in zip(factors, at)]
            for digits in l_digits]


def _image_size(points: _PointSpans, quotient: QuotientParams, l_monos: tuple,
                l_digits: list, values: list):
    """s -> |Im_s| for top-left tuples s given as indices into `l_digits`,
    digit vectors over `l_monos` whose `_parts` are `values`, reading the
    point spans from `points`.

    R is the product of rings A_xi over Z/r (CRT, Atiyah-Macdonald ch. 8),
    and Im_s that of the A_xi-modules the columns d_j g(s) span.  A_xi has
    the basis t^nu, nu_i < e_i: x_i = t_i, t_i^e_i = 0 where xi_i = 0, else
    x_i = xi_i t_i, t_i^e_i = 1.  `QuotientParams.local_factors` lists the
    parts and marks the local ones, and only those are tested for onto: on a
    local part a map onto modulo the kernel of x -> xi is onto (Nakayama), so
    the part at xi has r^(k dim A_xi) elements iff the Z/r-span of the
    Jacobi matrix [d_j g_i] at a = s(xi), kept in `points`, has r^k.  A part
    of dimension 1 is that span; any other takes the Howell form over Z/r of
    the rows t^nu * d_j g(s) in A_xi^k, kept per images of s in A_xi.
    """
    gs = points.gs
    n, k = quotient.n, len(gs)
    factors = quotient.local_factors()
    onto_size = quotient.ring_size ** k
    moduli = [r for r, *_ in factors]
    full = [r ** k if local else 0 for r, _, _, local in factors]
    dims = [math.prod(e) for _, _, e, _ in factors]
    # A local image is numbered once per ring A_xi, so equal images of
    # different t, or at different xi with equal rings, share a number.
    numbers: dict[tuple, tuple] = {}  # (number, Poly) of each local image, by (ring, its terms)
    local: dict[tuple, int] = {}  # size of the A_xi-span, by the numbers of the images of s
    one_n = Poly.one(n)

    def project(f: int, a: Poly) -> dict:
        """The terms of a polynomial in t in A_xi."""
        r, xi, e, _ = factors[f]
        out = {}
        for mu, c in a.terms.items():
            if all(y < d or x for y, d, x in zip(mu, e, xi)):
                nu = tuple([y % d for y, d in zip(mu, e)])
                out[nu] = out.get(nu, 0) + c
        return {nu: c % r for nu, c in out.items() if c % r}

    @cache
    def image(f: int, t: int) -> tuple:
        """The (number, Poly) of the image of the entry l_digits[t] in A_xi."""
        r, xi, e, _ = factors[f]
        scaled = [Poly.variable(i + 1, n) * (x or 1) for i, x in enumerate(xi)]
        terms = project(f, Poly(n, dict(zip(l_monos, l_digits[t]))).evaluate(scaled, one_n))
        key = (r, e, tuple(map(bool, xi)), tuple(sorted(terms.items())))
        return numbers.setdefault(key, (len(numbers), Poly(n, terms)))

    @cache
    def shifts(f: int) -> list:
        """For each t^nu, the exponents in c whose coefficients are those of the
        basis t^mu in t^nu * c: mu - nu, taken mod e_i where t_i^e_i = 1."""
        _, xi, e, _ = factors[f]
        basis = list(itertools.product(*map(range, e)))
        return [[tuple([(y - z) % d if x else y - z for y, z, d, x in zip(mu, nu, e, xi)])
                 for mu in basis] for nu in basis]

    def local_size(f: int, s) -> int:
        images = [image(f, t) for t in s]
        key = tuple([number for number, _ in images])
        if key not in local:
            args = [a for _, a in images]
            span = Span(factors[f][0], k * dims[f])
            for j in range(n):
                col = [project(f, g.deriv[j].evaluate(args, one_n)) for g in gs]
                for sources in shifts(f):
                    span.add([c.get(mu, 0) for c in col for mu in sources])
            local[key] = span.size()
        return local[key]

    def image_size(s) -> int:
        sizes = [points[key] for key in zip(moduli, *[values[t] for t in s])]
        if sizes == full:
            return onto_size
        out = 1
        for f, (size, top, dim) in enumerate(zip(sizes, full, dims)):
            # onto; a part of dimension 1; any other part
            out *= top ** dim if size == top else size if dim == 1 else local_size(f, s)
        return out
    return image_size


def _onto_at_points(points: _PointSpans, quotient: QuotientParams) -> bool:
    """Whether the top-left map and every top-left tuple's map are onto, on
    a ring whose parts in `QuotientParams.local_factors` are all local:
    whether the Jacobi matrix J(a) has rank k over F_l at every a in F_l^n,
    for each prime l | m.

    By `_image_size`, the map of s is onto iff the Z/r-span of J(s(xi)) has
    r^k elements at every part (r, xi, e, local), that is iff J(s(xi)) has
    rank k mod l (Nakayama, Atiyah-Macdonald Cor. 2.7).  Every s(xi) mod l
    lies in F_l^n, and at xi = (1, .., 1), a point of every such ring, the
    values s(xi) = (sum of the digits of s_i)_i of either carrier run over
    all of (Z/m)^n.  So the points of F_l^n decide every map, and p and q do
    not enter.  The point 0 decides the top-left map too: J(0) is the linear
    part of the system, which is onto mod m iff it is onto mod every l.
    """
    k = len(points.gs)
    return all(points[key] == ell ** k for ell, _ in prime_power_factors(quotient.m)
               for key in itertools.product([ell], *[range(ell)] * quotient.n))


def _walk(points: _PointSpans, model: FiniteModel) -> tuple:
    """(fiber_min, fiber_max, witness) of the census, from the image size of
    every top-left tuple: see `uniformity_check`."""
    gs = points.gs
    quotient = model.quotient
    n, k, m = quotient.n, len(gs), quotient.m
    size = quotient.ring_size
    onto = size ** k
    l_monos, l_digits = model.l_monomials, model.l_digits
    image_size = _image_size(points, quotient, l_monos, l_digits, model.parts)
    # The top-left map acts on each digit alike: top_left[v] = (lin(g_i)(v) mod m)_i for v in Z_m^n.
    linear = [[c % m for c in g.linear] for g in gs]
    top_left = {v: tuple([sum(map(operator.mul, row, v)) % m for row in linear])
                for v in itertools.product(range(m), repeat=n)}

    expected = model.size ** (n - k)
    # The top-left key L of s is the digit vector of lin(g)(s), one k-tuple per digit.
    tally: dict[tuple, int] = {}  # number of tuples s by (L, |Im_s|)
    for s in itertools.product(range(len(l_digits)), repeat=n):
        key = (tuple(map(top_left.__getitem__, zip(*map(l_digits.__getitem__, s)))), image_size(s))
        tally[key] = tally.get(key, 0) + 1
    kernels = {im: size ** (n * n) // im ** n for _, im in tally}  # kernel_s by |Im_s|
    weight: dict[tuple, int] = {}  # W_L
    onto_weight: dict[tuple, int] = {}  # O_L
    mass = 0
    for (key, im), count in tally.items():
        share = kernels[im] * count
        mass += share * im ** n
        weight[key] = weight.get(key, 0) + share
        if im == onto:
            onto_weight[key] = onto_weight.get(key, 0) + share
    assert mass == model.size ** n, "linear images lost mass"

    fiber_max = max(weight.values())
    fiber_min = 0
    if len(weight) == model.l_size ** k:
        fiber_min = min(onto_weight.get(key, 0) for key in weight)
    witness = None
    if not fiber_min == fiber_max == expected:
        # The smallest wrong key in element-code order, an element's code
        # being the base-m number whose digits, least significant first, are
        # its n * monomial_count tau digits, then its top-left digits: with
        # tau = 0 that is the order of the top-left digit vectors read from
        # the last digit.
        key = min((key for key, wt in weight.items() if wt != expected),
                  key=lambda key: [digits[::-1] for digits in zip(*key)])
        targets = [{"l": format_terms({mu: d for mu, d in zip(l_monos, digits) if d}),
                    "tau": ["0"] * n} for digits in zip(*key)]
        witness = {"target": targets, "count": weight[key]}
    return fiber_min, fiber_max, witness


def uniformity_check(gs, model: FiniteModel, *, budget: int = DEFAULT_BUDGET) -> UniformityReport:
    """Exact fiber census of the substitution map over the model.

    With the top-left tuple s fixed, the module part
    T_i[c] = sum_j tau_j[c] * d_j g_i(s) is Z/m-linear in tau and acts on
    every module coordinate c alike.  Its image is therefore Im_s^n, where
    Im_s is the R-submodule of R^k spanned by (mu * d_j g_i(s))_i over j and
    the monomials mu, and each image point has
    kernel_s = |R|^(n*n) / |Im_s|^n preimages.  `_image_size` gives |Im_s|
    from spans at the residue points and, for a map that is not onto, from
    the factors of the CRT split of R.

    No image is listed.  Let L = lin(g)(s) be the top-left key of s, W_L
    the sum of kernel_s over the s above L, and O_L the same sum over the s
    whose map is onto.  The target (L, 0) lies in every image above L, so
    its fiber W_L is the largest over L; the target whose first k module
    coordinates are e_1..e_k lies only in the onto images, so its fiber O_L
    is the smallest.  The s above a hit L form a coset of the kernel of the
    top-left map, and kernel_s >= |R|^(n(n-k)), so W_L >= expected, with
    equality iff the top-left map and every map above L are onto.  Every
    wrong fiber therefore lies above an L with W_L != expected, and the
    smallest wrong target is (L, 0) for the smallest such L.

    On a ring whose parts are all local `_onto_at_points` decides whether
    all those maps are onto, and then every fiber is the expected one; only
    a census that is not uniform, or one on a ring with a part that is not
    local, walks the top-left tuples (`_walk`).
    """
    quotient = model.quotient
    n = quotient.n
    gs = check_system(gs, n)
    k = len(gs)
    _charge(quotient.m, model.size_exponent * n, budget)
    expected = model.size ** (n - k)
    points = _PointSpans(gs)
    if all(local for *_, local in quotient.local_factors()) and _onto_at_points(points, quotient):
        fiber_min = fiber_max = expected
        witness = None
    else:
        fiber_min, fiber_max, witness = _walk(points, model)
    return UniformityReport(
        model=model.describe(), k=k, size=model.size, total=model.size ** n,
        expected_fiber=expected, fiber_min=fiber_min, fiber_max=fiber_max,
        uniform=fiber_min == fiber_max == expected, witness=witness,
    )


def describe_abelian(modulus: int, n: int) -> dict:
    """The `model` record of the abelian Lie ring Z_modulus over n generators,
    evaluated or skipped."""
    return {"variant": "abelian", "m": modulus, "n": n, "size": modulus}


def uniformity_check_abelian(gs, modulus: int, n: int, *,
                             budget: int = DEFAULT_BUDGET) -> UniformityReport:
    """Exact fiber census on the abelian Lie ring Z_modulus.

    In an abelian ring every bracket vanishes, so substituted values are the
    linear parts evaluated mod `modulus`: the map r -> lin(g)(r) on
    (Z/modulus)^n.  Every point of its image Im has modulus^n / |Im|
    preimages and every other target none, so the system is uniform iff the
    map is onto; otherwise the smallest wrong target is 0.  Im is spanned by
    the Jacobi matrix at the point 0, since d_j g(0) = lin_j(g).
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    gs = check_system(gs, n)
    k = len(gs)
    _charge(modulus, n, budget)
    total = modulus ** n
    fiber_max = total // _PointSpans(gs)[(modulus,) + (0,) * n]
    expected = modulus ** (n - k)
    uniform = fiber_max == expected
    fiber_min = fiber_max if uniform else 0
    witness = None if uniform else {"target": [0] * k, "count": fiber_max}
    return UniformityReport(
        model=describe_abelian(modulus, n),
        k=k, size=modulus, total=total, expected_fiber=expected,
        fiber_min=fiber_min, fiber_max=fiber_max, uniform=uniform, witness=witness,
    )
