"""Shared random generators and reference censuses for the test suite
(seeded, deterministic)."""

from __future__ import annotations

import itertools
import random

from metlie.expr import Bracket, Generator, ScalarMul, Sum
from metlie.model import ModelElement
from metlie.poly import Poly, QPoly, QuotientParams, grevlex_key, to_vector
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
    are slot-major element codes, as `FiniteModel.element_code` orders each
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
            base = base * R + model.element_code(bracket_value(x, args))
        rows = []
        for j in range(n):
            for mu in monos:
                args = [ModelElement(model.params, l, (mu if t == j else zero,) + (zero,) * (n - 1))
                        for t, l in enumerate(s)]
                rows.append(tuple(d for x in expansions
                                  for d in to_vector(bracket_value(x, args).tau[0])))
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


def reference_reduce_row(row: _Row, basis: list, max_degree: int) -> _Row:
    """`primitivity._reduce_row` by a plain scan: every step takes the
    grevlex-largest pending term by `max` and looks for its reducer from the
    start of the basis."""
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
    return _Row(Poly(n, done), deriv)
