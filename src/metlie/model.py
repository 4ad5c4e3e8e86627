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
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from metlie.expr import Generator, Bracket, Sum, ScalarMul
from metlie.poly import (
    QPoly, QuotientParams, Span, from_vector, power_exceeds, to_vector,
)
from metlie.ring import MElement, from_expr

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


@dataclass(frozen=True)
class ModelParams:
    quotient: QuotientParams
    top_left: str = "linear"  # "linear": no free term, coefficients mod m; "full": whole ring

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


class ModelElement:
    """Element of the finite matrix Lie ring: top-left l plus module vector tau."""

    __slots__ = ("params", "l", "tau")

    def __init__(self, params: ModelParams, l: QPoly, tau):
        quotient = params.quotient
        if (not isinstance(l, QPoly) or l.params != quotient
                or any(mu not in params.l_monomials for mu in l.terms)):
            raise ValueError("top-left entry must lie in the model's top-left carrier")
        tau = tuple(tau)
        if len(tau) != quotient.n or any(not isinstance(t, QPoly) or t.params != quotient for t in tau):
            raise ValueError("tau must be a vector of n quotient-ring coordinates")
        self.params = params
        self.l = l
        self.tau = tau

    def _require_same_model(self, other: "ModelElement") -> None:
        if self.params != other.params:
            raise ValueError("mismatched model parameters")

    def __bool__(self) -> bool:
        return bool(self.l) or any(self.tau)

    def __add__(self, other: "ModelElement") -> "ModelElement":
        if not isinstance(other, ModelElement):
            return NotImplemented
        self._require_same_model(other)
        return ModelElement(self.params, self.l + other.l,
                            tuple(a + b for a, b in zip(self.tau, other.tau)))

    def __neg__(self) -> "ModelElement":
        return ModelElement(self.params, -self.l, tuple(-t for t in self.tau))

    def __sub__(self, other: "ModelElement") -> "ModelElement":
        if not isinstance(other, ModelElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return ModelElement(self.params, c * self.l, tuple(c * t for t in self.tau))

    __rmul__ = __mul__

    def bracket(self, other: "ModelElement") -> "ModelElement":
        """Matrix commutator: zero top-left, tau1 * l2 - tau2 * l1 below."""
        if not isinstance(other, ModelElement):
            raise TypeError("bracket requires another model element")
        self._require_same_model(other)
        tau = tuple(ta * other.l - tb * self.l for ta, tb in zip(self.tau, other.tau))
        return ModelElement(self.params, QPoly.zero(self.params.quotient), tau)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelElement):
            return NotImplemented
        return self.params == other.params and self.l == other.l and self.tau == other.tau

    def __hash__(self) -> int:
        return hash((self.l, self.tau))

    def to_json(self) -> dict:
        return {"l": str(self.l), "tau": [str(t) for t in self.tau]}

    def __str__(self) -> str:
        taus = ", ".join(str(t) for t in self.tau)
        return f"(l={self.l}; tau=[{taus}])"

    def __repr__(self) -> str:
        return f"ModelElement{self!s}"


class FiniteModel:
    """Enumerable carrier of a finite matrix Lie ring with fixed parameters."""

    def __init__(self, params: ModelParams):
        quotient = params.quotient
        self.params = params
        self.quotient = quotient
        # m^size_exponent elements: n tau coordinates of monomial_count
        # digits each, then the top-left digits.
        self.size_exponent = quotient.n * quotient.monomial_count + params.l_count

    @cached_property
    def ring_size(self) -> int:
        return self.quotient.ring_size

    @cached_property
    def l_size(self) -> int:
        return self.quotient.m ** self.params.l_count

    @cached_property
    def size(self) -> int:
        return self.quotient.m ** self.size_exponent

    def size_order(self) -> tuple:
        """Sort key of the size: exact below 2^SIZE_BITS, by logarithm above."""
        size = _size_value(self.quotient.m, self.size_exponent)
        if isinstance(size, int):
            return (0, size)
        return (1, self.size_exponent * math.log2(self.quotient.m))

    @property
    def n(self) -> int:
        return self.quotient.n

    def describe(self) -> dict:
        q = self.quotient
        return {
            "p": q.p, "q": q.q, "m": q.m, "n": q.n,
            "variant": self.params.top_left, "size": _size_value(q.m, self.size_exponent),
        }

    def generator_image(self, i: int) -> ModelElement:
        """x_i goes to the matrix with top-left x_i and tau the basis vector t_i."""
        quotient = self.quotient
        n = quotient.n
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        tau = tuple(QPoly.one(quotient) if j == i - 1 else QPoly.zero(quotient) for j in range(n))
        return ModelElement(self.params, QPoly.variable(i, quotient), tau)

    def generator_images(self) -> list[ModelElement]:
        return [self.generator_image(i) for i in range(1, self.n + 1)]

    def random_element(self, rng, max_terms: Optional[int] = None) -> ModelElement:
        """Uniform random element; max_terms caps nonzero tau coefficients per coordinate."""
        quotient = self.quotient
        monos = list(quotient.monomials())
        m = quotient.m

        def random_qpoly() -> QPoly:
            if max_terms is None:
                terms = {mu: rng.randrange(m) for mu in monos}
            else:
                terms = {}
                for mu in rng.sample(monos, min(max_terms, len(monos))):
                    terms[mu] = rng.randrange(m)
            return QPoly(quotient, terms)

        l = QPoly(quotient, {mu: rng.randrange(m) for mu in self.params.l_monomials})
        tau = tuple(random_qpoly() for _ in range(quotient.n))
        return ModelElement(self.params, l, tau)

    # -- canonical integer encodings -------------------------------------

    def element_code(self, elem: ModelElement) -> int:
        """Base-m number whose digits, least significant first, are the
        coefficients of tau_1, .., tau_n and then of l over `l_monomials`."""
        digits = [d for t in elem.tau for d in to_vector(t)]
        digits += [elem.l.terms.get(mu, 0) for mu in self.params.l_monomials]
        code = 0
        for d in reversed(digits):
            code = code * self.quotient.m + d
        return code

    def element_from_code(self, code: int) -> ModelElement:
        if not 0 <= code < self.size:
            raise ValueError(f"element code {code} out of range")
        quotient = self.quotient
        n, w = quotient.n, quotient.monomial_count
        l_monos = self.params.l_monomials
        digits = []
        for _ in range(n * w + len(l_monos)):
            code, d = divmod(code, quotient.m)
            digits.append(d)
        tau = tuple(from_vector(quotient, digits[c * w:(c + 1) * w]) for c in range(n))
        return ModelElement(self.params, QPoly(quotient, dict(zip(l_monos, digits[n * w:]))), tau)

    def elements(self):
        """All elements in canonical (l, tau) code order."""
        for code in range(self.size):
            yield self.element_from_code(code)


@dataclass
class UniformityReport:
    model: dict
    k: int
    n: int
    size: int
    total: int
    expected_fiber: int
    fiber_min: int
    fiber_max: int
    uniform: bool
    witness: Optional[dict] = None
    elapsed_ms: float = 0.0

    def to_json(self, include_elapsed: bool = True) -> dict:
        out = {
            "model": self.model,
            "k": self.k,
            "expected_fiber": self.expected_fiber,
            "fiber_min": self.fiber_min,
            "fiber_max": self.fiber_max,
            "uniform": self.uniform,
            "witness_target": self.witness,
        }
        if include_elapsed:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _as_elements(gs, n: int) -> list[MElement]:
    out = []
    for g in gs:
        if isinstance(g, (Generator, Bracket, Sum, ScalarMul)):
            g = from_expr(g, n)
        if not isinstance(g, MElement):
            raise TypeError(f"not a Lie ring element: {g!r}")
        if g.n != n:
            raise ValueError("mismatched generator counts")
        out.append(g)
    return out


def _closed_form(g: MElement, s_vals, one: QPoly) -> tuple[QPoly, list[QPoly]]:
    """lin(g)(s) and the derivative values d_j g(s), j = 1..n.

    The integer derivatives are evaluated in the quotient ring itself: the
    substitution x_i -> s_i kills x_i^p(x_i^q - 1) only when s_i does, so a
    derivative reduced into Z_{p,q,m}[X] first would give another map.
    """
    l = sum((c * s for c, s in zip(g.linear, s_vals)), 0 * one)
    return l, [d.evaluate(s_vals, one) for d in g.deriv]


def eval_closed_form(model: FiniteModel, g: MElement, s_vals, tau_vecs) -> ModelElement:
    """Substituted value of g from its derivatives: (lin(g)(s), sum tau_j * d_j g(s)).

    `s_vals` holds the top-left entries of the substituted elements and
    `tau_vecs` their module vectors (tuples of quotient-ring coordinates).
    """
    quotient = model.quotient
    n = quotient.n
    if g.n != n:
        raise ValueError("element and model use different generator counts")
    if len(s_vals) != n or len(tau_vecs) != n:
        raise ValueError(f"expected {n} substituted values")
    l, coeffs = _closed_form(g, s_vals, QPoly.one(quotient))
    tau = tuple(sum((tau_vecs[t][c] * coeffs[t] for t in range(n)), QPoly.zero(quotient))
                for c in range(n))
    return ModelElement(model.params, l, tau)


def uniformity_check(gs, model: FiniteModel, *, budget: int = DEFAULT_BUDGET) -> UniformityReport:
    """Exact fiber census of the substitution map over the model.

    With the top-left tuple s fixed, the module part
    T_i[c] = sum_j tau_j[c] * d_j g_i(s) is Z/m-linear in tau and acts on
    every module coordinate c alike.  Its image is therefore Im_s^n, where
    Im_s is the R-submodule of R^k spanned by (mu * d_j g_i(s))_i over j and
    the monomials mu, and each image point has
    kernel_s = |R|^(n*n) / |Im_s|^n preimages.  |Im_s| comes from the
    Howell form of those rows (`poly.Span`).

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
    """
    start = time.perf_counter()
    quotient = model.quotient
    n = quotient.n
    gs = _as_elements(gs, n)
    k = len(gs)
    if not 1 <= k <= n:
        raise ValueError(f"system size {k} out of range 1..{n}")
    if power_exceeds(quotient.m, model.size_exponent * n, budget):
        raise BudgetError(
            f"enumeration of {_size_value(quotient.m, model.size_exponent * n)} tuples "
            f"exceeds the budget {budget}"
        )
    total = model.size ** n
    size = model.ring_size
    m, w = quotient.m, quotient.monomial_count
    l_monos = model.params.l_monomials
    l_space = [QPoly(quotient, dict(zip(l_monos, v)))
               for v in itertools.product(range(m), repeat=len(l_monos))]
    one = QPoly.one(quotient)
    mono_elems = [QPoly(quotient, {mu: 1}) for mu in quotient.monomials()]
    zero_tau = (QPoly.zero(quotient),) * n

    expected = model.size ** (n - k)
    weight: dict[tuple, int] = {}  # W_L by top-left key, as element codes
    onto_weight: dict[tuple, int] = {}  # O_L
    mass = 0
    for images in itertools.product(l_space, repeat=n):
        forms = [_closed_form(g, images, one) for g in gs]
        key = tuple(model.element_code(ModelElement(model.params, l, zero_tau))
                    for l, _ in forms)
        image = Span(m, k * w)
        for j in range(n):
            for mu in mono_elems:
                image.add([d for _, coeffs in forms for d in to_vector(mu * coeffs[j])])
        im = image.size()
        kernel = size ** (n * n) // im ** n
        mass += kernel * im ** n
        weight[key] = weight.get(key, 0) + kernel
        if im == size ** k:
            onto_weight[key] = onto_weight.get(key, 0) + kernel
    assert mass == total, "linear images lost mass"

    fiber_max = max(weight.values())
    fiber_min = 0
    if len(weight) == model.l_size ** k:
        fiber_min = min(onto_weight.get(key, 0) for key in weight)
    uniform = fiber_min == fiber_max == expected
    witness = None
    if not uniform:
        key = min(key for key, wt in weight.items() if wt != expected)
        witness = {"target": [model.element_from_code(c).to_json() for c in key],
                   "count": weight[key]}
    elapsed = (time.perf_counter() - start) * 1000.0
    return UniformityReport(
        model=model.describe(), k=k, n=n, size=model.size, total=total,
        expected_fiber=expected, fiber_min=fiber_min, fiber_max=fiber_max,
        uniform=uniform, witness=witness, elapsed_ms=elapsed,
    )


def uniformity_check_abelian(gs, modulus: int, n: int, *,
                             budget: int = DEFAULT_BUDGET) -> UniformityReport:
    """Exact fiber census on the abelian Lie ring Z_modulus.

    In an abelian ring every bracket vanishes, so substituted values are the
    linear parts evaluated mod `modulus`: the map r -> lin(g)(r) on
    (Z/modulus)^n.  Every point of its image Im has modulus^n / |Im|
    preimages and every other target none, so the system is uniform iff the
    map is onto; otherwise the smallest wrong target is 0.
    """
    start = time.perf_counter()
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    gs = _as_elements(gs, n)
    k = len(gs)
    if not 1 <= k <= n:
        raise ValueError(f"system size {k} out of range 1..{n}")
    if power_exceeds(modulus, n, budget):
        raise BudgetError(f"enumeration of {_size_value(modulus, n)} tuples exceeds the budget {budget}")
    total = modulus ** n
    image = Span(modulus, k)
    for j in range(n):
        image.add([g.linear[j] % modulus for g in gs])
    fiber_max = total // image.size()
    expected = modulus ** (n - k)
    uniform = fiber_max == expected
    fiber_min = fiber_max if uniform else 0
    witness = None if uniform else {"target": [0] * k, "count": fiber_max}
    elapsed = (time.perf_counter() - start) * 1000.0
    return UniformityReport(
        model={"variant": "abelian", "m": modulus, "n": n, "size": modulus},
        k=k, n=n, size=modulus, total=total, expected_fiber=expected,
        fiber_min=fiber_min, fiber_max=fiber_max, uniform=uniform,
        witness=witness, elapsed_ms=elapsed,
    )
