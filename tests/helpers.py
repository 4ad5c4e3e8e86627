"""Shared random generators and reference censuses for the test suite
(seeded, deterministic)."""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Union

from metlie.calculus import PolyMatrix
from metlie.expr import MAX_NESTING, LieParseError
from metlie.model import ModelElement
from metlie.poly import Poly, QPoly, QuotientParams, grevlex_key
from metlie import primitivity
from metlie.primitivity import GroebnerLimitError, _Row
from metlie.ring import BasisTerm, MElement, from_basis, to_basis


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
                 max_terms: int | None = None) -> QPoly:
    monos = list(params.monomials())
    if max_terms is not None:
        monos = rng.sample(monos, min(max_terms, len(monos)))
    return QPoly(params, {mu: rng.randrange(params.m) for mu in monos})


def constant_term(poly: Poly) -> int:
    return poly.terms.get((0,) * poly.n, 0)


def identity_matrix(n: int) -> PolyMatrix:
    entries = tuple(tuple(Poly.one(n) if i == j else Poly.zero(n) for j in range(n))
                    for i in range(n))
    return PolyMatrix(n, n, entries)


def generator_images(model) -> list[ModelElement]:
    return [model.generator_image(i) for i in range(1, model.n + 1)]


def random_element(model, rng: random.Random, max_terms: int | None = None) -> ModelElement:
    """Uniform random element of `model`; max_terms caps the nonzero tau
    coefficients per coordinate."""
    quotient = model.quotient
    l = QPoly(quotient, {mu: rng.randrange(quotient.m) for mu in model.params.l_monomials})
    tau = tuple(random_qpoly(rng, quotient, max_terms) for _ in range(quotient.n))
    return ModelElement(model.params, l, tau)


def element_code(model, elem: ModelElement) -> int:
    """The code of `elem`: the base-m number whose digits, least significant
    first, are the coefficients of tau_1, .., tau_n in `monomials()` order
    and then those of l over `l_monomials` (`FiniteModel.element_from_code`
    decodes it)."""
    quotient = model.quotient
    digits = [d for t in elem.tau for d in t.vec]
    digits += [elem.l.vec[quotient.position(mu)] for mu in model.params.l_monomials]
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
    la, lb = a.linear_poly(), b.linear_poly()
    return MElement((0,) * a.n, tuple(da * lb - db * la for da, db in zip(a.deriv, b.deriv)))


def random_tame_automorphism(rng: random.Random, n: int, moves: int = 3):
    """Images of a product of elementary automorphisms.

    Linear moves x_i -> x_i + c*x_j always qualify; a move x_i -> x_i + d
    with d a bracket word keeps the Jacobi determinant at 1 only when d does
    not involve x_i, so those are drawn for n >= 3 from words avoiding i.
    """
    from metlie.ring import endo_apply

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
    m, w, size, R = quotient.m, quotient.monomial_count, model.ring_size, model.size
    zero = QPoly.zero(quotient)
    l_space = [QPoly(quotient, dict(zip(model.params.l_monomials, v)))
               for v in itertools.product(range(m), repeat=len(model.params.l_monomials))]
    monos = [QPoly(quotient, {mu: 1}) for mu in quotient.monomials()]
    weights = [R ** (k - 1 - i) * m ** d for i in range(k) for d in range(w)]
    expansions = [to_basis(g) for g in gs]
    hist = {}
    for s in itertools.product(l_space, repeat=n):
        args = [ModelElement(model.params, l, (zero,) * n) for l in s]
        base = 0
        for x in expansions:
            base = base * R + element_code(model, bracket_value(x, args))
        rows = []
        for j in range(n):
            for mu in monos:
                args = [ModelElement(model.params, l, (mu if t == j else zero,) + (zero,) * (n - 1))
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
                   lambda key: [model.element_from_code(c).to_json()
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
        sub = b.poly.mul_term(q, shift)
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
