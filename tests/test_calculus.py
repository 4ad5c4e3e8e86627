"""Tests for Jacobi matrices, substitutions, minors and determinants."""

import itertools
import random

import pytest

from helpers import constant_term, identity_matrix, random_melement, random_poly
from metlie.calculus import (
    PolyMatrix,
    _det_bareiss,
    det,
    jacobi_matrix,
    jacobi_substituted,
    matmul,
    matrix_to_json,
    minors,
    sigma,
)
from metlie.expr import parse
from metlie.poly import Poly
from metlie.ring import MElement, endo_apply


def mel(text, n=2):
    return parse(text, n)


def x(i, n=2):
    return Poly.variable(i, n)


class TestJacobiMatrix:
    def test_generators_give_identity(self):
        J = jacobi_matrix([MElement.generator(1, 2), MElement.generator(2, 2)])
        assert J.entries == identity_matrix(2).entries

    def test_single_column(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]")])
        assert J.rows == 2 and J.cols == 1
        assert J.entry(0, 0) == Poly.one(2) - x(2)
        assert J.entry(1, 0) == x(1)

    def test_deeper_column(self):
        J = jacobi_matrix([mel("x1 + [[x2,x1],x1]")])
        assert J.entry(0, 0) == Poly.one(2) - x(1) * x(2)
        assert J.entry(1, 0) == x(1) * x(1)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            jacobi_matrix([])


class TestJacobiSubstituted:
    def test_identity_substitution(self):
        gs = [mel("x1 + [[x2,x1],x1]"), mel("x2")]
        subs = [MElement.generator(1, 2), MElement.generator(2, 2)]
        assert jacobi_substituted(gs, subs).entries == jacobi_matrix(gs).entries

    def test_zero_substitution_gives_constant_terms(self):
        gs = [mel("x1 + [[x2,x1],x1]"), mel("2*x2 + [x2,x1]")]
        subs = [Poly.zero(2), Poly.zero(2)]
        J = jacobi_substituted(gs, subs)
        base = jacobi_matrix(gs)
        for i in range(2):
            for j in range(2):
                assert J.entry(i, j) == Poly.constant(constant_term(base.entry(i, j)), 2)

    def test_chain_rule_worked_pair(self):
        # The Jacobi matrix of a composite equals the outer matrix times the
        # substituted inner matrix.
        y1 = [mel("x1 + [x2,x1]"), mel("x2")]
        y2 = [mel("x2"), mel("x1")]
        z = [endo_apply(g, y2) for g in y1]
        lhs = jacobi_matrix(z)
        rhs = matmul(jacobi_matrix(y2), jacobi_substituted(y1, y2))
        assert lhs.entries == rhs.entries

    def test_chain_rule_random(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.choice([2, 3])
            y1 = [random_melement(rng, n, max_len=4) for _ in range(n)]
            y2 = [random_melement(rng, n, max_len=4) for _ in range(n)]
            z = [endo_apply(g, y2) for g in y1]
            lhs = jacobi_matrix(z)
            rhs = matmul(jacobi_matrix(y2), jacobi_substituted(y1, y2))
            assert lhs.entries == rhs.entries


class TestSigma:
    def test_identity(self):
        A = identity_matrix(3)
        for i in (1, 2, 3):
            assert sigma(A, i) == Poly.variable(i, 3)

    def test_jacobi_columns_recover_linear_parts(self):
        gs = [mel("2*x1 + [x2,x1]"), mel("x1 - 3*x2 + [[x2,x1],x1]")]
        J = jacobi_matrix(gs)
        for j, g in enumerate(gs, start=1):
            assert sigma(J, j) == g.linear_poly()

    def test_elementary_matrix(self):
        # E + x1*E_{1,2} over two generators.
        A = PolyMatrix(2, 2, (
            (Poly.one(2), x(1)),
            (Poly.zero(2), Poly.one(2)),
        ))
        assert sigma(A, 1) == x(1)
        assert sigma(A, 2) == x(1) * x(1) + x(2)

    def test_requires_square(self):
        J = jacobi_matrix([mel("x1")])
        with pytest.raises(ValueError):
            sigma(J, 1)


class TestDetAndMinors:
    def test_det_identity(self):
        assert det(identity_matrix(3)) == Poly.one(3)

    def test_det_of_near_identity_pair(self):
        # Column 2 is (0, 1), so the determinant is the (1,1) entry 1 - x2.
        d = det(jacobi_matrix([mel("x1 + [x2,x1]"), mel("x2")]))
        assert d == Poly.one(2) - x(2)

    def test_det_constant(self):
        assert det(jacobi_matrix([mel("2*x1"), mel("x2")])) == Poly.constant(2, 2)

    def test_minors_identity(self):
        assert minors(identity_matrix(2), 2) == [Poly.one(2)]

    def test_minors_order_one(self):
        got = minors(jacobi_matrix([mel("x1 + [x2,x1]")]), 1)
        assert got == [Poly.one(2) - x(2), x(1)]

    def test_minors_two_by_two(self):
        got = minors(jacobi_matrix([mel("x1 + [[x2,x1],x1]"), mel("x2")]), 2)
        assert got == [Poly.one(2) - x(1) * x(2)]

    def test_minor_count_and_order(self):
        rng = random.Random(79)
        entries = tuple(
            tuple(random_poly(rng, 2, max_degree=1, max_terms=2) for _ in range(3))
            for _ in range(3)
        )
        A = PolyMatrix(3, 3, entries)
        got = minors(A, 2)
        assert len(got) == 9
        # First minor is rows (0,1) x cols (0,1).
        sub = PolyMatrix(2, 2, (
            (A.entry(0, 0), A.entry(0, 1)),
            (A.entry(1, 0), A.entry(1, 1)),
        ))
        assert got[0] == det(sub)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            minors(identity_matrix(2), 3)

    def test_bareiss_agrees_with_leibniz(self):
        # The oracle is the Leibniz sum over permutations, on polynomial and
        # on integer entries, sparse enough that zero pivots force row swaps.
        rng = random.Random(83)
        for _ in range(40):
            size = rng.choice([1, 2, 3, 4, 5])
            rows = [
                [random_poly(rng, 2, max_degree=1, max_terms=2, coeff_bound=3)
                 for _ in range(size)]
                for _ in range(size)
            ]
            assert _det_bareiss(rows) == _leibniz_det(rows, Poly.zero(2))
            ints = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(size)]
                    for _ in range(size)]
            assert _det_bareiss(ints) == _leibniz_det(ints, 0)

    def test_det_of_elementary_products_is_unit(self):
        rng = random.Random(89)
        for _ in range(20):
            n = rng.choice([2, 3])
            A = identity_matrix(n)
            for _ in range(4):
                A = matmul(A, _elementary(rng, n))
            d = det(A)
            assert d == Poly.one(n) or d == -Poly.one(n)


def _leibniz_det(rows, zero):
    total = zero
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term = rows[r][c] * term
        total = total + term
    return total


def _elementary(rng, n):
    i = rng.randrange(n)
    j = rng.choice([t for t in range(n) if t != i])
    f = random_poly(rng, n, max_degree=2, max_terms=2, coeff_bound=2)
    entries = [
        [Poly.one(n) if r == c else Poly.zero(n) for c in range(n)]
        for r in range(n)
    ]
    entries[i][j] = f
    return PolyMatrix(n, n, tuple(tuple(r) for r in entries))


class TestMatrixJson:
    def test_schema(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]"), mel("x2")])
        payload = matrix_to_json(J)
        assert payload == {
            "rows": 2,
            "cols": 2,
            "entries": [["-x2 + 1", "0"], ["x1", "1"]],
        }
