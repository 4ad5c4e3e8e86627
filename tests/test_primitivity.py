"""Tests for the strong Groebner engine over Z and the primitivity decisions."""

import functools
import hashlib
import importlib.util
import itertools
import json
import math
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    Generator,
    RefRow,
    constant_term,
    endo_apply,
    groebner_z,
    ideal_contains,
    identity_matrix,
    matmul,
    mul_term,
    random_melement,
    random_poly,
    random_tame_automorphism,
    reduce_by_basis,
    reference_buchberger,
    reference_reduce_row,
    sigma,
)
from metlie.calculus import jacobi_matrix, minors
from metlie.expr import parse
from metlie.poly import (
    Poly,
    QuotientParams,
    ResourceLimitError,
    cube_values,
    exceeds_ring_cap,
    grevlex_key,
    ideal_contains_finite,
    reduce_pqm,
)
from metlie import primitivity
from metlie.model import FiniteModel, uniformity_check, uniformity_check_abelian
from metlie.primitivity import (
    DEFAULT_MAX_BASIS,
    DEFAULT_MAX_DEGREE,
    GroebnerLimitError,
    _abelian_minor_gcd,
    _automorphism_det,
    _buchberger,
    _cofactors,
    _field_bits,
    _grid_params,
    _packing,
    _packing_for,
    _quotient_refutation,
    _reduce_row,
    ideal_contains_one,
    is_primitive,
)
from metlie.ring import check_shape


DATA = Path(__file__).parent / "data"


def mel(text, n=2):
    return parse(text, n)


def x(i, n=2):
    return Poly.variable(i, n)


def one(n=2):
    return Poly.one(n)


# ---------------------------------------------------------------------------
# Integer-lattice machinery: an oracle independent of the Groebner engine.

def egcd(a, b):
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def integer_solution_exists(A, b):
    """Does A z = b have an integer solution?  Column-echelon reduction."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(r) for r in A]
    pivots = []  # (row, col)
    pc = 0
    for r in range(rows):
        if pc >= cols:
            break
        nz = next((c for c in range(pc, cols) if M[r][c]), None)
        if nz is None:
            continue
        if nz != pc:
            for rr in range(rows):
                M[rr][pc], M[rr][nz] = M[rr][nz], M[rr][pc]
        for c in range(pc + 1, cols):
            if not M[r][c]:
                continue
            g, u, v = egcd(M[r][pc], M[r][c])
            a1, b1 = M[r][pc] // g, M[r][c] // g
            for rr in range(rows):
                mp, mc = M[rr][pc], M[rr][c]
                M[rr][pc] = u * mp + v * mc
                M[rr][c] = -b1 * mp + a1 * mc
        pivots.append((r, pc))
        pc += 1
    y = [0] * cols
    pivot_of_row = dict(pivots)
    fixed = []
    for r in range(rows):
        s = b[r] - sum(M[r][c] * y[c] for c in fixed)
        if r in pivot_of_row:
            c = pivot_of_row[r]
            if s % M[r][c]:
                return False
            y[c] = s // M[r][c]
            fixed.append(c)
        elif s:
            return False
    return True


def monomials_up_to(deg, n):
    return [m for m in itertools.product(range(deg + 1), repeat=n) if sum(m) <= deg]


def bounded_combination_exists(gens, search_degree):
    """Is 1 = sum h_i g_i solvable with deg h_i <= search_degree, over Z?"""
    n = gens[0].n
    cof_monos = monomials_up_to(search_degree, n)
    max_deg = max(max((g.degree() for g in gens), default=0), 0)
    target_monos = monomials_up_to(search_degree + max_deg, n)
    row_index = {m: i for i, m in enumerate(target_monos)}
    A = [[0] * (len(gens) * len(cof_monos)) for _ in target_monos]
    col = 0
    for g in gens:
        for mu in cof_monos:
            shifted = mul_term(g, 1, mu)
            for mono, c in shifted.terms.items():
                A[row_index[mono]][col] = c
            col += 1
    b = [0] * len(target_monos)
    b[row_index[(0,) * n]] = 1
    return integer_solution_exists(A, b)


class TestIntegerLattice:
    def test_against_small_brute_force(self):
        rng = random.Random(97)
        for _ in range(200):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            A = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randint(-4, 4) for _ in range(rows)]
            brute = any(
                all(sum(A[r][c] * z[c] for c in range(cols)) == b[r] for r in range(rows))
                for z in itertools.product(range(-6, 7), repeat=cols)
            )
            got = integer_solution_exists(A, b)
            # The brute force window is finite: a found solution must be
            # confirmed, and when the solver says no there is none at all.
            if brute:
                assert got
            if not got:
                assert not brute

    def test_parity_obstruction(self):
        assert not integer_solution_exists([[2]], [1])
        assert integer_solution_exists([[2, 3]], [1])


class TestGroebner:
    def test_bezout_on_coefficients(self):
        gb = groebner_z([2 * x(1), 3 * x(1)])
        assert x(1) in gb.generators

    def test_sum_reaches_one(self):
        found, cert = ideal_contains_one([x(1), one() - x(1)])
        assert found
        assert sum((h * g for h, g in zip(cert, [x(1), one() - x(1)])), Poly.zero(2)) == one()

    def test_worked_unit_ideal(self):
        gens = [one() - x(1) * x(2), x(1) * x(1)]
        found, cert = ideal_contains_one(gens)
        assert found
        assert sum((h * g for h, g in zip(cert, gens)), Poly.zero(2)) == one()
        # The stated closed-form combination is itself an identity.
        stated = (one() - x(1) * x(2)) * (one() + x(1) * x(2)) + (x(2) ** 2) * (x(1) ** 2)
        assert stated == one()

    def test_proper_ideals(self):
        assert not ideal_contains_one([one() - x(2), x(1)])[0]
        assert not ideal_contains_one([Poly.constant(2, 2), x(1)])[0]

    def test_membership_by_reduction(self):
        gens = [2 * x(1), 3 * x(1)]
        assert ideal_contains(gens, x(1))
        assert not ideal_contains(gens, one())

    def test_unit_among_the_inputs(self):
        gb = groebner_z([x(1), one(), x(2)])
        assert gb.generators == [one()]
        assert gb.cofactors == [[Poly.zero(2), one(), Poly.zero(2)]]

    def test_unit_found_mid_completion(self):
        # 1 = (2*x1 + 1) - 2 * x1 is the S-polynomial of the two inputs.
        gens = [2 * x(1) + one(), x(1)]
        gb = groebner_z(gens)
        assert gb.generators == [one()]
        assert sum((h * g for h, g in zip(gb.cofactors[0], gens)), Poly.zero(2)) == one()
        for target in [one(), x(2), 7 * x(1) * x(2) ** 3 - 5 * one()]:
            assert ideal_contains(gens, target)

    def test_cofactor_rows_track_exactly(self):
        rng = random.Random(101)
        for _ in range(30):
            gens = [random_poly(rng, 2, max_degree=2, max_terms=3, coeff_bound=3)
                    for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = groebner_z(gens)
            for basis_poly, row in zip(gb.generators, gb.cofactors):
                acc = Poly.zero(2)
                for h, g in zip(row, gens):
                    acc = acc + h * g
                assert acc == basis_poly

    @given(st.lists(
        st.builds(lambda d: Poly(2, d), st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3)),
        min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_cofactors_reproduce_generators_hypothesis(self, gens):
        gb = groebner_z(gens)
        for basis_poly, row in zip(gb.generators, gb.cofactors):
            assert len(row) == len(gens)
            acc = Poly.zero(2)
            for h, g in zip(row, gens):
                acc = acc + h * g
            assert acc == basis_poly

    def test_derivations_name_earlier_basis_rows_or_inputs(self):
        # Reduced candidates fold their own derivation in, so no discarded
        # S- or G-polynomial row stays reachable from the basis.
        gens = [x(1) ** 2 - 3 * x(2), 2 * x(1) * x(2) + one(), 6 * x(2) ** 2 - x(1)]
        packing = _packing_for(gens, DEFAULT_MAX_BASIS, 40)
        basis, _ = _buchberger(gens, packing, max_basis=DEFAULT_MAX_BASIS, max_degree=40)
        assert len(basis) > len(gens)
        for row in basis:
            for parent, mult in row.deriv:
                assert mult
                if isinstance(parent, int):
                    assert 0 <= parent < len(gens)
                else:
                    assert parent.pos < row.pos and basis[parent.pos] is parent

    def test_strong_basis_reduces_random_members(self):
        rng = random.Random(103)
        for _ in range(30):
            gens = [random_poly(rng, 2, max_degree=2, max_terms=3, coeff_bound=3)
                    for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = groebner_z(gens)
            member = Poly.zero(2)
            for g in gens:
                member = member + random_poly(rng, 2, max_degree=2, max_terms=2, coeff_bound=2) * g
            assert not reduce_by_basis(member, gb)

    def test_oracle_agreement_small(self):
        rng = random.Random(107)
        agreements = 0
        for _ in range(20):
            gens = [random_poly(rng, 2, max_degree=2, max_terms=3, coeff_bound=3)
                    for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            found, cert = ideal_contains_one(gens)
            lattice = bounded_combination_exists(gens, 3)
            if lattice:
                assert found
            if found and max(h.degree() for h in cert) <= 3:
                assert lattice
            agreements += 1
        assert agreements >= 15

    def test_resource_cap_raises(self):
        gens = [x(1) ** 2 - x(2), x(2) ** 3 - x(1)]
        with pytest.raises(GroebnerLimitError):
            groebner_z(gens, max_basis=1)

    def test_degree_cap_refuses_before_packing(self):
        # x1^(2^30) would overflow every packed field; the cap refuses it
        # first, whether it is a generator or a target.
        huge = x(1) ** 2 - Poly(2, {(1 << 30, 0): 1})
        with pytest.raises(GroebnerLimitError, match="degree cap 40 exceeded"):
            ideal_contains_one([x(2), huge])
        with pytest.raises(GroebnerLimitError, match="during reduction"):
            ideal_contains([x(2)], huge)
        with pytest.raises(GroebnerLimitError, match="during reduction"):
            reduce_by_basis(huge, groebner_z([x(2)]))
        # A unit generator still answers before a later one is looked at.
        assert ideal_contains_one([one(), huge])[0]

    def test_corrupted_cofactor_raises(self, monkeypatch):
        import metlie.primitivity as primitivity

        real = primitivity._cofactors

        def corrupted(*args):
            cof = real(*args)
            h = cof[0]
            h[0] = h.get(0, 0) + 1
            return cof

        monkeypatch.setattr(primitivity, "_cofactors", corrupted)
        with pytest.raises(AssertionError, match="certificate verification failed"):
            ideal_contains_one([x(1), one() - x(1)])

    def test_strong_basis_closure_property(self):
        # Defining invariant: every S-polynomial and G-polynomial of basis
        # pairs reduces to zero modulo the basis.  Scaling the generators by
        # DIVISOR_CHAIN makes leading coefficients share factors, where the
        # chain criterion's coefficient conditions decide.
        from metlie.primitivity import _gpair, _spair

        rng = random.Random(211)
        for n in (2, 3):
            for _ in range(15):
                gens = [rng.choice(DIVISOR_CHAIN)
                        * random_poly(rng, n, max_degree=2, max_terms=3, coeff_bound=3)
                        for _ in range(n)]
                gens = [g for g in gens if g]
                if not gens:
                    continue
                gb = groebner_z(gens)
                packing = _packing_for(gens, DEFAULT_MAX_BASIS, 40)
                rows = [packing.row(g, []) for g in gb.generators]
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        gamma = packing.lcm(rows[i].lm, rows[j].lm)
                        for pair in (_spair, _gpair):
                            cand = pair(rows[i], rows[j], gamma)
                            assert not _reduce_row(cand, rows, 40, packing).terms


# Coefficients that divide one another, so that several rows can reduce the
# same term and the first one in basis order must be the one taken.
DIVISOR_CHAIN = [1, 2, 3, 4, 6, 12]


def _monos(n, top):
    return st.tuples(*[st.integers(0, top)] * n)


def _polys(n, top, coeffs):
    return st.builds(lambda d: Poly(n, d), st.dictionaries(_monos(n, top), coeffs, max_size=4))


@st.composite
def reduction_cases(draw):
    """(row, basis): basis rows whose leading monomials come from a pool of at
    most three and whose leading coefficients come from DIVISOR_CHAIN, and a
    row whose derivation names an input and a basis row."""
    n = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(_monos(n, 2), min_size=1, max_size=3))
    basis = []
    for i in range(draw(st.integers(1, 5))):
        lm = draw(st.sampled_from(pool))
        tail = draw(_polys(n, 2, st.integers(-5, 5)))
        terms = {m: c for m, c in tail.terms.items() if grevlex_key(m) < grevlex_key(lm)}
        terms[lm] = draw(st.sampled_from(DIVISOR_CHAIN))
        basis.append(RefRow(Poly(n, terms), [(i, Poly.one(n))]))
    poly = draw(_polys(n, 4, st.sampled_from([1, -2, 3, 6, -12, 24, 5])))
    deriv = [(0, draw(_polys(n, 1, st.integers(-3, 3)))),
             (draw(st.sampled_from(basis)), draw(_polys(n, 1, st.integers(-3, 3))))]
    return RefRow(poly, deriv), basis


def reduce_both(row, basis, max_degree):
    """The kernel's reduction of the packed case and the tuple-keyed
    reference's, each as ((leading monomial, sorted terms), derivation in
    its order), a parent named by its input index or ("row", basis
    position); or None when both hit the degree cap."""
    packing = _packing(row.poly.n, _field_bits(DEFAULT_MAX_BASIS, DEFAULT_MAX_DEGREE))
    packed = {}
    for b in basis:
        packed[b] = packing.row(b.poly, [(p, packing.pack(m.terms)) for p, m in b.deriv])
    packed_basis = [packed[b] for b in basis]
    packed_row = packing.row(row.poly, [(packed.get(p, p), packing.pack(m.terms))
                                        for p, m in row.deriv])
    try:
        expected = reference_reduce_row(row, basis, max_degree)
    except GroebnerLimitError:
        with pytest.raises(GroebnerLimitError):
            _reduce_row(packed_row, packed_basis, max_degree, packing)
        return None
    got = _reduce_row(packed_row, packed_basis, max_degree, packing)

    def name(parent, rows):
        return parent if isinstance(parent, int) else ("row", rows.index(parent))

    return (((got.lm if got.lm is None else packing.exps(got.lm),
              sorted(packing.unpack(got.terms).terms.items())),
             [(name(p, packed_basis), list(packing.unpack(m).terms.items()))
              for p, m in got.deriv]),
            ((expected.lm, sorted(expected.poly.terms.items())),
             [(name(p, basis), list(m.terms.items())) for p, m in expected.deriv]))


@st.composite
def completion_cases(draw):
    """(gens, target): up to three generators over n = 2 or 3 whose leading
    coefficients come from DIVISOR_CHAIN, and a target that is a member of
    their ideal plus a drawn remainder, often zero."""
    n = draw(st.sampled_from([2, 3]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        lm = draw(_monos(n, 2))
        tail = draw(_polys(n, 2, st.integers(-3, 3)))
        terms = {m: c for m, c in tail.terms.items() if grevlex_key(m) < grevlex_key(lm)}
        terms[lm] = draw(st.sampled_from(DIVISOR_CHAIN)) * draw(st.sampled_from([1, -1]))
        gens.append(Poly(n, terms))
    target = draw(_polys(n, 1, st.integers(-2, 2)))
    for g in gens:
        target = target + draw(_polys(n, 1, st.integers(-2, 2))) * g
    return gens, target


CAPS = {"max_basis": 200, "max_degree": 12}


class TestPairCriteria:
    """The completion with pair criteria against `reference_buchberger`,
    which reduces every pair."""

    @given(completion_cases())
    @settings(max_examples=80, deadline=None)
    def test_same_answers_as_all_pairs(self, case):
        # The pruned completions run first, so that a draw over CAPS is
        # dropped before the all-pairs reference runs.  The reference runs
        # once, without the unit stop: up to its first unit row it pushes the
        # same rows as a run that stops there.
        gens, target = case
        try:
            found, cert = ideal_contains_one(gens, **CAPS)
            member = ideal_contains(gens, target, **CAPS)
            ref_full, _ = reference_buchberger(gens, stop_on_unit=False, **CAPS)
        except GroebnerLimitError:
            assume(False)
        ref_unit = next((r for r in ref_full if r.lm == 0 and r.lc == 1), None)
        assert found == (ref_unit is not None)
        packing = _packing_for(gens, **CAPS)
        assert member == (not _reduce_row(packing.row(target, []), ref_full, 12, packing).terms)
        one_n = Poly.one(gens[0].n)
        certificates = [cert] if found else []
        if ref_unit is not None:
            certificates.append([packing.unpack(h)
                                 for h in _cofactors(ref_unit, ref_full, len(gens))])
        for cofactors in certificates:
            assert sum((h * g for h, g in zip(cofactors, gens)), Poly.zero(gens[0].n)) == one_n

    def test_golden_images_reduce_fewer_candidates(self, monkeypatch):
        # The four decide_n3 images of the certificate golden: the criteria
        # reduce strictly fewer candidates and reach the same basis rows.
        import metlie.primitivity as primitivity

        calls = []
        real = primitivity._reduce_row

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(primitivity, "_reduce_row", counting)
        doc = json.loads((DATA / "groebner_certificate_golden.json").read_text())
        images = [e["texts"] for e in doc["systems"] if len(e["texts"][0]) > 40]
        assert len(images) == 4
        caps = {"max_basis": DEFAULT_MAX_BASIS, "max_degree": 40}
        for texts in images:
            gs = [mel(t, doc["n"]) for t in texts]
            minor_polys = minors(jacobi_matrix(gs), len(gs))
            calls.clear()
            packing = _packing_for(minor_polys, **caps)
            basis, unit = _buchberger(minor_polys, packing, **caps)
            pruned = len(calls)
            calls.clear()
            ref_basis, ref_unit = reference_buchberger(minor_polys, stop_on_unit=True, **caps)
            assert pruned < len(calls)
            assert unit is not None and ref_unit is not None
            assert [r.terms for r in basis] == [r.terms for r in ref_basis]


@st.composite
def packed_vectors(draw):
    """(packing, a, b): exponent vectors over n = 1..4 with sum(a) + sum(b)
    below 2^bits, often at that bound, so that every field of a, b and a + b
    is in range and some exponent or degree is at its largest."""
    n = draw(st.integers(1, 4))
    bits = draw(st.integers(1, 10))
    top = (1 << bits) - 1

    def vector(total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))

    total = draw(st.sampled_from([0, top]) | st.integers(0, top))
    a = vector(draw(st.sampled_from([0, total]) | st.integers(0, total)))
    b = vector(draw(st.sampled_from([0, total - sum(a)]) | st.integers(0, total - sum(a))))
    return _packing(n, bits), a, b


def _sign(x):
    return (x > 0) - (x < 0)


def _cmp(a, b):
    return (a > b) - (a < b)


class TestPacking:
    """Packed monomials against exponent tuples: order keys, divisibility,
    products, lcm and the round trip."""

    @given(packed_vectors())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_product(self, case):
        packing, a, b = case
        ma, mb = packing.mono(a), packing.mono(b)
        assert packing.exps(ma) == a and packing.exps(mb) == b
        assert ma + mb == packing.mono(tuple(map(sum, zip(a, b))))
        assert ma >> packing.deg_shift == sum(a)

    @given(packed_vectors())
    @settings(max_examples=200, deadline=None)
    def test_order_keys(self, case):
        packing, a, b = case
        ma, mb = packing.mono(a), packing.mono(b)
        assert _cmp(ma ^ packing.low, mb ^ packing.low) == _cmp(grevlex_key(a), grevlex_key(b))
        assert _cmp(ma ^ packing.flip, mb ^ packing.flip) == _cmp((-sum(a), a), (-sum(b), b))
        terms = {ma: 1, mb: 2}
        lead = max(terms, key=lambda m: grevlex_key(packing.exps(m)))
        assert packing.lead(terms) == lead

    @given(packed_vectors())
    @settings(max_examples=200, deadline=None)
    def test_divisibility_and_lcm(self, case):
        packing, a, b = case
        ma, mb = packing.mono(a), packing.mono(b)
        for u, v, mu, mv in ((a, b, ma, mb), (b, a, mb, ma)):
            assert (not (mu - mv) & packing.guard) == all(map(operator.ge, u, v))
        assert packing.lcm(ma, mb) == packing.mono(tuple(map(max, a, b)))

    def test_width_covers_the_caps(self):
        # Cofactor degrees reach 2 * max_degree per level over max_basis + 1
        # levels, and the check adds max_degree.
        for max_basis, max_degree in [(1, 0), (1, 1), (3, 2), (10_000, 40)]:
            bits = _field_bits(max_basis, max_degree)
            assert 2 * max_degree * (max_basis + 1) + max_degree < 1 << bits


class TestReductionOracle:
    @given(reduction_cases())
    @settings(max_examples=120, deadline=None)
    def test_same_normal_form_and_derivation(self, case):
        got, expected = reduce_both(*case, 40)
        assert got == expected

    @given(reduction_cases(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_same_degree_cap(self, case, max_degree):
        pair = reduce_both(*case, max_degree)
        if pair is not None:
            assert pair[0][0] == pair[1][0]

    def test_euclidean_step_takes_the_first_row_not_above_the_coefficient(self):
        # Neither 6 nor 4 divides 5 * x1*x2.  6 * x2 comes first but exceeds
        # 5, so 4 * x2 + x1 leaves the remainder x1*x2 - x1^2, whose leading
        # coefficient 1 no row reduces.
        basis = [RefRow(Poly(2, {(0, 1): 6}), [(0, Poly.one(2))]),
                 RefRow(Poly(2, {(0, 1): 4, (1, 0): 1}), [(1, Poly.one(2))])]
        row = RefRow(Poly(2, {(1, 1): 5}), [(2, Poly.one(2))])
        got, expected = reduce_both(row, basis, 40)
        assert got == expected
        assert got == (((1, 1), [((1, 1), 1), ((2, 0), -1)]),
                       [(2, [((0, 0), 1)]), (("row", 1), [((1, 0), -1)])])


class TestSigmaIdealGeneration:
    def test_sigmas_generate_the_augmentation_ideal(self):
        rng = random.Random(109)
        for _ in range(6):
            n = rng.choice([2, 3])
            A = identity_matrix(n)
            for _ in range(3):
                A = matmul(A, _elementary(rng, n))
            sigmas = [sigma(A, i) for i in range(1, n + 1)]
            # Containment one way is structural: no constant terms.
            assert all(constant_term(s) == 0 for s in sigmas)
            for j in range(1, n + 1):
                assert ideal_contains(sigmas, Poly.variable(j, n))


def _elementary(rng, n):
    i = rng.randrange(n)
    j = rng.choice([t for t in range(n) if t != i])
    f = random_poly(rng, n, max_degree=2, max_terms=2, coeff_bound=2)
    entries = [
        [Poly.one(n) if r == c else Poly.zero(n) for c in range(n)]
        for r in range(n)
    ]
    entries[i][j] = f
    return tuple(tuple(r) for r in entries)


class TestMinorIdealInvariance:
    def test_row_operations_preserve_minor_ideal(self):
        rng = random.Random(113)
        gs = [mel("x1 + [x2,x1]"), mel("x2")]
        A = jacobi_matrix(gs)
        # Left-multiply by an invertible integer matrix.
        U = (
            (Poly.one(2), Poly.constant(2, 2)),
            (Poly.one(2), Poly.constant(3, 2)),
        )
        B = matmul(U, A)
        ideal_a = minors(A, 2)
        ideal_b = minors(B, 2)
        for f in ideal_a:
            assert ideal_contains(ideal_b, f)
        for f in ideal_b:
            assert ideal_contains(ideal_a, f)


class TestAbelianPrimitive:
    """`is_primitive`'s abelian step: the linear parts' shape passes
    `check_shape`, and the system is primitive over the abelianization iff
    the gcd of their k x k minors is 1."""

    def test_identity(self):
        assert _abelian_minor_gcd([[1, 0], [0, 1]]) == 1

    def test_doubled_row(self):
        assert _abelian_minor_gcd([[2, 0]]) != 1

    def test_bezout_row(self):
        assert _abelian_minor_gcd([[2, 3]]) == 1

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError) as err:
            check_shape([len(row) for row in [[1], [0]]])
        assert str(err.value) == "system size 2 out of range 1..1"

    def test_shape_messages_match_check_system(self):
        for rows, text in (([], "empty system"), ([[1, 0], [1]], "mismatched generator counts")):
            with pytest.raises(ValueError) as err:
                check_shape([len(row) for row in rows])
            assert str(err.value) == text

    @staticmethod
    def refuting_modulus(v):
        """The modulus of `is_primitive`'s abelian refutation of v*x1, whose
        one linear minor is v."""
        verdict = is_primitive([mel(f"{v}*x1", 1)])
        assert verdict.method == "abelian-refuted"
        return verdict.refutation["params"]["m"]

    def test_refuting_modulus_within_the_trial_bound(self):
        def smallest_factor(v):
            return next((d for d in range(2, math.isqrt(v) + 1) if v % d == 0), v or 2)

        # 1048573 is the largest prime among the trial divisors 2..2^20+1.
        for v in [0, *range(2, 5000), 1048573 ** 2, 1048573 * 1048589]:
            assert self.refuting_modulus(v) == smallest_factor(v), v

    def test_refuting_modulus_past_the_trial_bound(self):
        # Every prime factor lies beyond the bound: the value itself is the
        # modulus, composite or not, and every linear minor is still 0
        # modulo it.
        for v in [1048583 * 1048589, (2 ** 61 - 1) * (2 ** 31 - 1)]:
            assert self.refuting_modulus(v) == v


def quotient_passes(gs, params):
    """Do the Jacobi minors of gs generate 1 in the ring of `params`?  A
    False answer certifies non-primitivity."""
    return _quotient_refutation(minors(jacobi_matrix(gs), len(gs)), [params]) is None


class TestQuotientCheck:
    def test_generator_passes(self):
        for p, q, m in [(1, 1, 2), (1, 1, 3), (2, 1, 2)]:
            assert quotient_passes([mel("x1")], QuotientParams(p, q, m, 2))

    def test_refutes_near_generator(self):
        assert not quotient_passes([mel("x1 + [x2,x1]")], QuotientParams(1, 1, 2, 2))

    def test_refutes_doubled_generator(self):
        assert not quotient_passes([mel("2*x1")], QuotientParams(1, 1, 2, 2))


def howell_contains_one(gens, params):
    """Is 1 in the ideal the reduced gens generate, by the Howell form?"""
    return ideal_contains_finite([reduce_pqm(f, params) for f in gens], params)


CUBE_RINGS = [params for params in (QuotientParams(1, 1, m, n) for n in (1, 2, 3, 4)
                                    for m in (2, 3, 4, 6, 8, 9))
              if not exceeds_ring_cap(params)]

# Ideals over n >= 2 generators, with the moduli m for which they are the
# unit ideal of Z_{1,1,m}[X]: the values at each point of {0,1}^n and m
# must be coprime.
HAND_IDEALS = [
    (lambda n: [x(1, n)], lambda m: False),
    (lambda n: [Poly.constant(2, n)], lambda m: m % 2 == 1),
    (lambda n: [x(1, n) - one(n), Poly.constant(3, n)], lambda m: m % 3 != 0),
    (lambda n: [x(1, n) * x(2, n), x(2, n) * 2 - Poly.constant(2, n)], lambda m: False),
    (lambda n: [x(1, n), one(n) - x(1, n)], lambda m: True),
    (lambda n: [x(1, n) * 2 + Poly.constant(3, n)], lambda m: math.gcd(m, 15) == 1),
    (lambda n: [x(1, n) * x(2, n) - x(1, n) - x(2, n) + one(n),
                x(1, n) * x(2, n) * 6 + one(n)], lambda m: math.gcd(m, 7) == 1),
]


class TestCubeCheck:
    """For p = q = 1 the minors-ideal check evaluates on {0,1}^n; the Howell
    form of `ideal_contains_finite` is its oracle."""

    @pytest.mark.parametrize("params", CUBE_RINGS, ids=repr)
    def test_drawn_minors(self, params):
        n = params.n
        rng = random.Random(1000 * n + params.m)
        seen = set()
        for _ in range(30):
            k = rng.randint(1, n)
            gs = [random_melement(rng, n, max_len=4, coeff_bound=3) for _ in range(k)]
            minor_polys = minors(jacobi_matrix(gs), k)
            got = _quotient_refutation(minor_polys, [params]) is None
            assert got == howell_contains_one(minor_polys, params)
            seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("params", CUBE_RINGS, ids=repr)
    def test_drawn_ideals(self, params):
        rng = random.Random(2000 * params.n + params.m)
        for _ in range(30):
            gens = [random_poly(rng, params.n, max_degree=2, max_terms=3, coeff_bound=4)
                    for _ in range(rng.randint(1, 3))]
            assert ((_quotient_refutation(gens, [params]) is None)
                    == howell_contains_one(gens, params))

    @pytest.mark.parametrize("params", [r for r in CUBE_RINGS if r.n >= 2], ids=repr)
    @pytest.mark.parametrize("index", range(len(HAND_IDEALS)))
    def test_hand_picked_ideals(self, params, index):
        make, unit = HAND_IDEALS[index]
        gens = make(params.n)
        assert howell_contains_one(gens, params) == unit(params.m)
        assert (_quotient_refutation(gens, [params]) is None) == unit(params.m)

    def test_ring_size_cap_kept(self):
        # (1,1,3) over four generators has 3^16 elements, over the cap: the
        # Howell form refuses it and a decision's grid leaves it out.
        with pytest.raises(ResourceLimitError):
            howell_contains_one(minors(jacobi_matrix([mel("x1", 4)]), 1),
                                QuotientParams(1, 1, 3, 4))
        assert _grid_params(((1, 1, 3),), 4) == ()

    def test_capped_grid_entry_skipped(self):
        # (1,1,3) refutes x1 + 4*[x2,x1]; over four generators that ring
        # (3^16 elements) is over the cap, so the Groebner basis decides.
        text = "x1 + 4*[x2,x1]"
        assert is_primitive([mel(text)]).refutation == {
            "kind": "quotient", "params": {"p": 1, "q": 1, "m": 3}}
        v = is_primitive([mel(text, 4)], quotient_grid=[[1, 1, 3]])
        assert (v.primitive, v.method) == (False, "groebner")

    def test_list_grid(self):
        grid = [list(entry) for entry in primitivity.DEFAULT_QUOTIENT_GRID[::-1]]
        for text in ("x1 + 4*[x2,x1]", "x1 + 2*[x2,x1]", "x1 + [[x2,x1],x1]"):
            assert (is_primitive([mel(text)], quotient_grid=grid).to_json()
                    == is_primitive([mel(text)], quotient_grid=tuple(map(tuple, grid))).to_json())

    def test_cube_values_once_per_decision(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return cube_values(a)

        monkeypatch.setattr(primitivity, "cube_values", counted)
        gs = [mel("x1 + [[x2,x1],x1]")]
        assert is_primitive(gs).primitive is True
        assert calls == minors(jacobi_matrix(gs), 1)


class TestSameResiduePoints:
    """Quotient rings with the same maximal ideals give the same unit-ideal
    answer: (1,2,2), (2,1,2) and (2,2,2) have the points of (1,1,2), xi in
    {0,1}^n mod 2, and (2,1,3) those of (1,1,3).  So once (1,1,m) has passed,
    the others of its group cannot refute."""

    GROUPS = [[(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)], [(1, 1, 3), (2, 1, 3)]]

    def test_groups_agree_at_n2(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(1024):
            k = rng.randint(1, 2)
            gs = [random_melement(rng, 2, max_len=4, coeff_bound=3) for _ in range(k)]
            for group in self.GROUPS:
                answers = {quotient_passes(gs, QuotientParams(p, q, m, 2))
                           for p, q, m in group}
                assert len(answers) == 1, (gs, group)
                seen |= {(group[0], answer) for answer in answers}
        assert seen == {(group[0], answer) for group in self.GROUPS for answer in (True, False)}


class TestIsPrimitive:
    def test_single_generator(self):
        v = is_primitive([mel("x1")])
        assert v.primitive is True

    def test_near_generator_is_refuted(self):
        v = is_primitive([mel("x1 + [x2,x1]")])
        assert v.primitive is False
        assert v.method == "quotient-refuted"
        assert v.refutation["kind"] == "quotient"

    def test_deep_element_is_primitive_with_certificate(self):
        v = is_primitive([mel("x1 + [[x2,x1],x1]")])
        assert v.primitive is True
        assert v.certificate is not None
        # Re-verify the certificate with independent arithmetic.
        minor_polys = minors(jacobi_matrix([mel("x1 + [[x2,x1],x1]")]), 1)
        cofactors = [_parse_poly(s) for s in v.certificate["cofactors"]]
        acc = Poly.zero(2)
        for h, g in zip(cofactors, minor_polys):
            acc = acc + h * g
        assert acc == one()

    def test_abelian_fast_path(self):
        v = is_primitive([mel("2*x1")])
        assert v.primitive is False and v.method == "abelian-refuted"
        assert v.refutation["params"]["m"] == 2

    def test_derived_element_refuted(self):
        v = is_primitive([mel("[x1,x2]")])
        assert v.primitive is False and v.method == "abelian-refuted"

    def test_pair_with_unit_determinant_ideal(self):
        v = is_primitive([mel("x1"), mel("x2")])
        assert v.primitive is True

    def test_pair_with_proper_ideal(self):
        v = is_primitive([mel("x1 + [x2,x1]"), mel("x2")])
        assert v.primitive is False

    def test_verdict_invariant_under_automorphisms(self):
        rng = random.Random(127)
        cases = [
            [mel("x1")],
            [mel("x1 + [[x2,x1],x1]")],
            [mel("x1 + [x2,x1]")],
            [mel("2*x1")],
        ]
        for gs in cases:
            base = is_primitive(gs).primitive
            for _ in range(3):
                images = random_tame_automorphism(rng, 2)
                assert _automorphism_det(images)[0]
                moved = [endo_apply(g, images) for g in gs]
                assert is_primitive(moved).primitive == base

    def test_refutation_fast_paths_imply_groebner_answer(self):
        # Whenever a fast path refutes, the exact minors ideal is proper too.
        for text in ["2*x1", "[x1,x2]", "x1 + [x2,x1]"]:
            g = mel(text)
            v = is_primitive([g])
            assert v.primitive is False
            assert not ideal_contains_one(minors(jacobi_matrix([g]), 1))[0]

    def test_inconclusive_when_caps_too_tight(self):
        # No refutation exists and the exact computation cannot finish.
        v = is_primitive([mel("x1 + [[x2,x1],x1]")], max_basis=1)
        assert v.primitive is None
        assert v.method == "groebner"
        assert v.to_json()["primitive"] == "inconclusive"


def _parse_poly(text, n=2):
    """Tiny polynomial reader for certificate strings (products of x powers)."""
    text = text.replace(" - ", " + -")
    total = Poly.zero(n)
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        coeff = 1
        mono = [0] * n
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("-") and not factor[1:2].isdigit() and factor != "-":
                coeff = -coeff
                factor = factor[1:]
            if factor.startswith("x"):
                var, _, power = factor.partition("^")
                mono[int(var[1:]) - 1] += int(power) if power else 1
            elif factor:
                coeff *= int(factor)
        total = total + Poly(n, {tuple(mono): coeff})
    return total


class TestCertificateGolden:
    """Verdicts with certificates, byte for byte, against
    tests/data/groebner_certificate_golden.json, written by the completion
    with top reduction and Euclidean remainders.  It holds the acceptance
    catalog's primitive systems read over x1..x3 and the four decide_n3
    benchmark images with the longest completion."""

    def test_verdicts_match_golden(self):
        text = (DATA / "groebner_certificate_golden.json").read_text()
        doc = json.loads(text)
        for entry in doc["systems"]:
            gs = [mel(t, doc["n"]) for t in entry["texts"]]
            entry["verdict"] = is_primitive(gs).to_json()
        assert json.dumps(doc, indent=1, sort_keys=True) + "\n" == text

    def test_golden_certificates_sum_to_one(self):
        # Checked on the golden's text with Poly arithmetic, outside the
        # packed kernel and its own check; each text must print back as read.
        doc = json.loads((DATA / "groebner_certificate_golden.json").read_text())
        n = doc["n"]
        for entry in doc["systems"]:
            cert = entry["verdict"]["certificate"]
            minor_polys = [_parse_poly(t, n) for t in cert["minors"]]
            cofactors = [_parse_poly(t, n) for t in cert["cofactors"]]
            assert list(map(str, minor_polys)) == cert["minors"]
            assert list(map(str, cofactors)) == cert["cofactors"]
            total = sum((h * m for h, m in zip(cofactors, minor_polys)), Poly.zero(n))
            assert total == Poly.one(n), entry["texts"]


class TestSystemCheck:
    """Every decision and census takes 1..n Lie ring elements over one
    generator count, with the same message per fault.  The decisions read n
    from the first element; the censuses take their model's n = 2."""

    ENTRY_POINTS = {
        "is_primitive": is_primitive,
        "automorphism": lambda gs: _automorphism_det(gs)[0],
        "census": lambda gs: uniformity_check(gs, FiniteModel(QuotientParams(1, 1, 2, 2))),
        "abelian census": lambda gs: uniformity_check_abelian(gs, 2, 2),
    }
    CASES = {
        "empty": ([], ValueError, "empty system"),
        "mixed counts": ([mel("x1"), mel("x1", 3)], ValueError, "mismatched generator counts"),
        "k = n + 1": ([mel("x1"), mel("x2"), mel("x1 + [x1,x2]")], ValueError,
                      "system size 3 out of range 1..2"),
        "expression": ([mel("x1"), Generator(2)], TypeError,
                       "not a Lie ring element: Generator(index=2)"),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_message_per_fault(self, entry, case):
        gs, kind, text = self.CASES[case]
        if case == "empty" and "census" in entry:
            text = "system size 0 out of range 1..2"
        with pytest.raises(kind) as err:
            self.ENTRY_POINTS[entry](gs)
        assert str(err.value) == text


class TestAutomorphismSystem:
    """`_automorphism_det`, the test `auto` runs: (g_1, .., g_n) generates
    freely iff its Jacobi determinant is +-1."""

    def test_identity(self):
        assert _automorphism_det([mel("x1"), mel("x2")])[0]

    def test_unimodular_linear_change(self):
        assert _automorphism_det([mel("x1 + x2"), mel("x2")])[0]

    def test_near_generator_pair_is_not(self):
        # det is 1 - x2, not a unit.
        assert not _automorphism_det([mel("x1 + [x2,x1]"), mel("x2")])[0]

    def test_integer_determinant_two(self):
        assert not _automorphism_det([mel("x1 + x2"), mel("x1 - x2")])[0]

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            _automorphism_det([mel("x1")])

    def test_abelian_inverse_sanity(self):
        # For a full automorphism system the linear-part matrix is unimodular
        # over Z: composing with its adjugate-based integer inverse gives the
        # identity matrix.
        rng = random.Random(131)
        for _ in range(5):
            images = random_tame_automorphism(rng, 3)
            assert _automorphism_det(images)[0]
            lin = [[g.linear[c] for c in range(3)] for g in images]
            d = _det3(lin)
            assert d in (1, -1)
            inv = _adjugate3(lin)
            if d == -1:
                inv = [[-v for v in row] for row in inv]
            prod = [[sum(lin[i][t] * inv[t][j] for t in range(3)) for j in range(3)]
                    for i in range(3)]
            assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m):
    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        sub = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
               - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
        return sub if (i + j) % 2 == 0 else -sub

    return [[cof(j, i) for j in range(3)] for i in range(3)]


def _perfbench_inputs():
    """perfbench/inputs.py, loaded by path: the corpora it draws are read,
    never written."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def corpus_verdicts() -> tuple:
    """`is_primitive(...).to_json()` over the decide_n2 and decide_n3
    corpora, one per image in corpus order."""
    inputs = _perfbench_inputs()
    _, systems = inputs.read_catalog()
    verdicts = []
    for name in ("decide_n2", "decide_n3"):
        spec = inputs.SPECS[name]
        for texts, _ in inputs.corpus(spec, systems):
            verdicts.append(is_primitive([mel(t, spec.n) for t in texts]).to_json())
    return tuple(verdicts)


def corpus_verdicts_digest(keys=("certificate", "method", "primitive", "refutation")) -> str:
    """sha256 of the sorted-key JSON of the corpus verdicts restricted to
    `keys`, one line per image in corpus order."""
    digest = hashlib.sha256()
    for verdict in corpus_verdicts():
        record = {key: verdict[key] for key in keys}
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_corpus_verdicts_byte_identical():
    """All 1,200 corpus verdicts, certificates included, against the digest in
    tests/data/corpus_verdicts.sha256."""
    expected = (DATA / "corpus_verdicts.sha256").read_text().split()[0]
    assert corpus_verdicts_digest() == expected


def test_corpus_outcomes_unchanged():
    """The (primitive, method, refutation) part of the 1,200 corpus verdicts
    against tests/data/corpus_outcomes.sha256: a change of reduction rule
    may rewrite certificates, never a decision."""
    expected = (DATA / "corpus_outcomes.sha256").read_text().split()[0]
    assert corpus_verdicts_digest(("method", "primitive", "refutation")) == expected


def test_split_rings_answered_by_residue_points():
    """The criterion of ROADMAP item 6a, on every distinct system of both
    decide corpora: on each ring of the default grid under the size cap,
    all of them split, the minors generate 1 exactly when every part
    (r, xi, e, local) of the ring has a minor that is nonzero at xi modulo
    the prime l of r.  The minors are evaluated here, term by term, so the
    oracle shares no code with the cube pass, the Howell path or the
    census's points."""
    def value(poly, point):
        return sum(c * math.prod(map(pow, point, mono)) for mono, c in poly.terms.items())

    inputs = _perfbench_inputs()
    _, systems = inputs.read_catalog()
    pairs = refuted = 0
    for name in ("decide_n2", "decide_n3"):
        spec = inputs.SPECS[name]
        rings = _grid_params(primitivity.DEFAULT_QUOTIENT_GRID, spec.n)
        assert all(local for ring in rings for *_, local in ring.local_factors())
        # (l, xi) for each part (r, xi, e, local), l the prime of r = l^a.
        points = {ring: [(next(d for d in itertools.count(2) if r % d == 0), xi)
                         for r, xi, _, _ in ring.local_factors()] for ring in rings}
        distinct = {}  # one system per printed form of its elements
        for texts, _ in inputs.corpus(spec, systems):
            gs = [mel(t, spec.n) for t in texts]
            distinct.setdefault(tuple(map(str, gs)), gs)
        for gs in distinct.values():
            minor_polys = minors(jacobi_matrix(gs), len(gs))
            for ring in rings:
                passes = all(any(value(g, xi) % ell for g in minor_polys)
                             for ell, xi in points[ring])
                assert (_quotient_refutation(minor_polys, [ring]) is None) == passes, (gs, ring)
                pairs += 1
                refuted += not passes
    assert (pairs, refuted) == (3246, 1474)


def corpus_printed_digest() -> str:
    """sha256 of the printed forms over the decide_n2 and decide_n3 corpora:
    for every image, one JSON line listing str(g) and each str(d_j g) of its
    elements, then str() of each of its Jacobi minors, in corpus order."""
    inputs = _perfbench_inputs()
    _, systems = inputs.read_catalog()
    digest = hashlib.sha256()
    for name in ("decide_n2", "decide_n3"):
        spec = inputs.SPECS[name]
        for texts, _ in inputs.corpus(spec, systems):
            gs = [mel(t, spec.n) for t in texts]
            printed = [str(x) for g in gs for x in (g, *g.deriv)]
            printed += [str(m) for m in minors(jacobi_matrix(gs), len(gs))]
            digest.update(json.dumps(printed).encode() + b"\n")
    return digest.hexdigest()


def test_corpus_printed_byte_identical():
    """Every element, derivative and minor of the 1,200 corpus images prints
    as in tests/data/corpus_printed.sha256."""
    expected = (DATA / "corpus_printed.sha256").read_text().split()[0]
    assert corpus_printed_digest() == expected
