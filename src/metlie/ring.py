"""Arithmetic in the free metabelian Lie ring over Z on n generators.

An element g is stored as the pair (linear, deriv): the coefficients of its
linear part on x1..xn together with the vector of its partial derivatives,
one polynomial in Z[X] per generator.  The pair determines g uniquely (the
representation comes from a faithful 2x2 matrix embedding), the bracket has
the closed form

    d_i [a, b] = (d_i a) * lin(b) - (d_i b) * lin(a)

and every derived element has zero linear part, which forces the metabelian
law.  The identity sum_i x_i * d_i g = lin(g) holds for every element.

Right-normed bracket monomials [..[[x_{i1},x_{i2}],x_{i3}]..x_{ik}] with
i2 < i1 and i2 <= i3 <= ... <= ik form a Z-basis of the derived subring;
`to_basis` / `from_basis` convert between the two views.
"""

from __future__ import annotations

from dataclasses import dataclass

from metlie.poly import Poly


@dataclass(frozen=True)
class BasisTerm:
    """coefficient * [..[[x_{i1},x_{i2}],x_{i3}]..x_{ik}], word = (i1, i2, ..., ik)."""

    coeff: int
    word: tuple[int, ...]

    def __str__(self) -> str:
        body = format_word(self.word)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


def format_word(word: tuple[int, ...]) -> str:
    """Fully bracketed right-normed rendering of a bracket word."""
    out = f"[x{word[0]},x{word[1]}]"
    for i in word[2:]:
        out = f"[{out},x{i}]"
    return out


def check_basis_word(word: tuple[int, ...], n: int) -> None:
    if len(word) < 2:
        raise ValueError(f"bracket word {word} must have length at least 2")
    for i in word:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
    if not word[1] < word[0]:
        raise ValueError(f"word {word} violates i2 < i1")
    tail = word[1:]
    if any(a > b for a, b in zip(tail, tail[1:])):
        raise ValueError(f"word {word} violates i2 <= i3 <= ... <= ik")


def _int_tuple(linear) -> tuple:
    """`linear` as a tuple, every entry an int (a bool is one)."""
    linear = tuple(linear)
    for c in linear:
        if not isinstance(c, int):
            raise TypeError(f"linear coefficients must be ints, got {c!r}")
    return linear


class MElement:
    """Element of the free metabelian Lie ring, in (linear, derivative) form."""

    __slots__ = ("n", "linear", "deriv")

    def __init__(self, linear, deriv):
        linear = _int_tuple(linear)
        deriv = tuple(deriv)
        n = len(linear)
        if n < 1:
            raise ValueError("generator count must be at least 1")
        if len(deriv) != n:
            raise ValueError("derivative vector length must match generator count")
        for d in deriv:
            if not isinstance(d, Poly) or d.n != n:
                raise ValueError("derivatives must be polynomials over the same generators")
        self.n = n
        self.linear = linear
        self.deriv = deriv

    @classmethod
    def zero(cls, n: int) -> "MElement":
        return cls((0,) * n, tuple(Poly.zero(n) for _ in range(n)))

    @classmethod
    def generator(cls, i: int, n: int) -> "MElement":
        """The free generator x_i; d_j x_i is the Kronecker delta."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        linear = tuple(1 if j == i - 1 else 0 for j in range(n))
        deriv = tuple(Poly.one(n) if j == i - 1 else Poly.zero(n) for j in range(n))
        return cls(linear, deriv)

    def _require_same_ring(self, other: "MElement") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched generator counts {self.n} and {other.n}")

    def linear_poly(self) -> Poly:
        """The linear part as a polynomial in Z[X]."""
        return Poly(self.n, {
            tuple(1 if j == i else 0 for j in range(self.n)): c
            for i, c in enumerate(self.linear) if c
        })

    def fundamental_identity_holds(self) -> bool:
        """Exact check of sum_i x_i * d_i g = lin(g)."""
        total = Poly.zero(self.n)
        for i, d in enumerate(self.deriv):
            mono = tuple(1 if j == i else 0 for j in range(self.n))
            total = total + d.mul_term(1, mono)
        return total == self.linear_poly()

    def __bool__(self) -> bool:
        return any(self.linear) or any(self.deriv)

    def __add__(self, other: "MElement") -> "MElement":
        if not isinstance(other, MElement):
            return NotImplemented
        self._require_same_ring(other)
        return MElement(
            tuple(a + b for a, b in zip(self.linear, other.linear)),
            tuple(a + b for a, b in zip(self.deriv, other.deriv)),
        )

    def __sub__(self, other: "MElement") -> "MElement":
        if not isinstance(other, MElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MElement":
        return MElement(tuple(-c for c in self.linear), tuple(-d for d in self.deriv))

    def __mul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return MElement(tuple(c * a for a in self.linear), tuple(c * d for d in self.deriv))

    __rmul__ = __mul__

    def bracket(self, other: "MElement") -> "MElement":
        """Lie bracket [self, other]; the result lies in the derived subring."""
        if not isinstance(other, MElement):
            raise TypeError("bracket requires another element")
        self._require_same_ring(other)
        n = self.n
        fa, fb = _linear_factors(other.linear), _linear_factors(self.linear, -1)
        deriv = []
        for da, db in zip(self.deriv, other.deriv):
            out: dict[tuple[int, ...], int] = {}
            _add_times_linear(out, 0, da.terms, fa)
            _add_times_linear(out, 0, db.terms, fb)
            deriv.append(Poly._raw(n, out))
        return MElement((0,) * n, tuple(deriv))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MElement):
            return NotImplemented
        return self.n == other.n and self.linear == other.linear and self.deriv == other.deriv

    def __hash__(self) -> int:
        return hash((self.linear, self.deriv))

    def __str__(self) -> str:
        terms, linear = to_basis(self)
        chunks: list[str] = []
        for i, c in enumerate(linear):
            if not c:
                continue
            body = f"x{i + 1}" if abs(c) == 1 else f"{abs(c)}*x{i + 1}"
            _append_signed(chunks, body, c > 0)
        for t in terms:
            body = format_word(t.word) if abs(t.coeff) == 1 else f"{abs(t.coeff)}*{format_word(t.word)}"
            _append_signed(chunks, body, t.coeff > 0)
        return "".join(chunks) if chunks else "0"

    def __repr__(self) -> str:
        return f"MElement({self!s})"


def _append_signed(chunks: list[str], body: str, positive: bool) -> None:
    if not chunks:
        chunks.append(body if positive else f"-{body}")
    else:
        chunks.append(f" + {body}" if positive else f" - {body}")


def _linear_factors(lin, scale: int = 1) -> list:
    """(x_j as a monomial, j, scale * lin_j) for the nonzero lin_j of a linear form."""
    n = len(lin)
    return [((0,) * j + (1,) + (0,) * (n - j - 1), j, scale * c) for j, c in enumerate(lin) if c]


def _add_times_linear(out: dict, const: int, terms, factors) -> None:
    """Add (const + terms) * (the linear form of `factors`) into `out`.

    The one bracket kernel: d_i [a, b] = (d_i a) * lin(b) - (d_i b) * lin(a),
    a derivative times a linear form.  `terms` maps monomials to
    coefficients; `out` keeps only nonzero ones.
    """
    if const:
        for unit, _, c in factors:
            s = out.get(unit, 0) + const * c
            if s:
                out[unit] = s
            else:
                del out[unit]
    for mono, coeff in terms.items():
        for _, j, c in factors:
            shifted = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
            s = out.get(shifted, 0) + coeff * c
            if s:
                out[shifted] = s
            else:
                del out[shifted]


def check_system(gs, n=None) -> list:
    """The system gs as a list of 1 <= k <= n Lie ring elements over n
    generators; n defaults to the generator count of the first element."""
    gs = list(gs)
    for g in gs:
        if not isinstance(g, MElement):
            raise TypeError(f"not a Lie ring element: {g!r}")
    check_shape([g.n for g in gs], n)
    return gs


def check_shape(counts: list, n=None) -> int:
    """The generator count n of a system whose members lie over counts[i]
    generators each, checked to be one count for all, with 1 <= k <= n
    members; n defaults to counts[0].  The one rule of what a system's shape
    is, for elements (`check_system`) and integer linear parts alike."""
    for c in counts:
        n = c if n is None else n
        if c != n:
            raise ValueError("mismatched generator counts")
    if n is None:
        raise ValueError("empty system")
    if not 1 <= len(counts) <= n:
        raise ValueError(f"system size {len(counts)} out of range 1..{n}")
    return n


def from_expr(g: MElement, n: int) -> MElement:
    """`g` itself, checked to be one element over n generators.  A
    pass-through: `expr.parse` returns the element.  The benchmark under
    perfbench/ still calls and traces this name."""
    return check_system([g], n)[0]


def from_basis(terms, linear) -> MElement:
    """Element with the given linear part plus sum of basis bracket monomials.

    The derivative vector is assembled from the closed form for right-normed
    monomials: d_{i1} gets +coeff * x_{i2} x_{i3}..x_{ik} and d_{i2} gets
    -coeff * x_{i1} x_{i3}..x_{ik}.
    """
    linear = _int_tuple(linear)
    n = len(linear)
    deriv = [dict() for _ in range(n)]

    def bump(slot: dict, mono: tuple[int, ...], c: int) -> None:
        s = slot.get(mono, 0) + c
        if s:
            slot[mono] = s
        elif mono in slot:
            del slot[mono]

    for t in terms:
        check_basis_word(t.word, n)
        if not isinstance(t.coeff, int):
            raise TypeError(f"basis-term coefficients must be ints, got {t.coeff!r}")
        i1, i2, *tail = t.word
        base = [0] * n
        for i in tail:
            base[i - 1] += 1
        mono_a = list(base)
        mono_a[i2 - 1] += 1
        mono_b = list(base)
        mono_b[i1 - 1] += 1
        bump(deriv[i1 - 1], tuple(mono_a), t.coeff)
        bump(deriv[i2 - 1], tuple(mono_b), -t.coeff)
    for i, c in enumerate(linear):
        if c:
            bump(deriv[i], (0,) * n, c)
    return MElement(linear, tuple(Poly(n, d) for d in deriv))


def to_basis(a: MElement) -> tuple[list[BasisTerm], tuple[int, ...]]:
    """Unique basis-monomial expansion of `a`, plus its linear part.

    Each derivative monomial whose least variable index sits strictly below
    the derivative index is a first-position occurrence of exactly one basis
    word, so the words can be read off directly; the reconstruction is then
    re-derived and compared against `a`, which catches inputs violating the
    fundamental identity.
    """
    n = a.n
    terms: list[BasisTerm] = []
    for i in range(1, n + 1):
        for mono, coeff in a.deriv[i - 1].terms.items():
            if not any(mono):
                continue
            j = next(idx + 1 for idx, e in enumerate(mono) if e)
            if j >= i:
                continue
            tail: list[int] = []
            for idx, e in enumerate(mono):
                count = e - 1 if idx == j - 1 else e
                tail.extend([idx + 1] * count)
            terms.append(BasisTerm(coeff, (i, j, *tail)))
    terms.sort(key=lambda t: (len(t.word), t.word))
    rebuilt = from_basis(terms, a.linear)
    if rebuilt != a:
        raise ValueError(
            "derivative vector is not the derivative of any element "
            "(fundamental identity violated)"
        )
    return terms, a.linear


def endo_apply(g: MElement, images) -> MElement:
    """Image of the element g under the endomorphism sending x_i to
    images[i-1]: g is expanded in the right-normed basis and re-evaluated
    with the ring operations.
    """
    if not isinstance(g, MElement):
        raise TypeError(f"cannot apply endomorphism to {g!r}")
    if len(images) != g.n:
        raise ValueError(f"expected {g.n} images, got {len(images)}")
    terms, linear = to_basis(g)
    total = MElement.zero(g.n)
    for i, c in enumerate(linear):
        if c:
            total = total + c * images[i]
    for t in terms:
        acc = images[t.word[0] - 1].bracket(images[t.word[1] - 1])
        for i in t.word[2:]:
            acc = acc.bracket(images[i - 1])
        total = total + t.coeff * acc
    return total
