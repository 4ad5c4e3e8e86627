"""Tests for Jacobi matrices, substitutions, minors and determinants."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_term, endo_apply, identity_matrix, jacobi_substituted, linear_poly, matmul,
    random_melement, random_poly, sigma,
)
from metlie.calculus import MAX_DET_WORK, _det_bareiss, det, jacobi_matrix, matrix_to_json, minors
from metlie.expr import parse
from metlie.poly import Poly, ResourceLimitError
from metlie.primitivity import _abelian_minor_gcd
from metlie.ring import MElement


def mel(text, n=2):
    return parse(text, n)


def x(i, n=2):
    return Poly.variable(i, n)


class TestJacobiMatrix:
    def test_generators_give_identity(self):
        J = jacobi_matrix([MElement.generator(1, 2), MElement.generator(2, 2)])
        assert J == identity_matrix(2)

    def test_single_column(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]")])
        assert len(J) == 2 and len(J[0]) == 1
        assert J[0][0] == Poly.one(2) - x(2)
        assert J[1][0] == x(1)

    def test_deeper_column(self):
        J = jacobi_matrix([mel("x1 + [[x2,x1],x1]")])
        assert J[0][0] == Poly.one(2) - x(1) * x(2)
        assert J[1][0] == x(1) * x(1)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            jacobi_matrix([])


class TestJacobiSubstituted:
    def test_identity_substitution(self):
        gs = [mel("x1 + [[x2,x1],x1]"), mel("x2")]
        subs = [MElement.generator(1, 2), MElement.generator(2, 2)]
        assert jacobi_substituted(gs, subs) == jacobi_matrix(gs)

    def test_zero_substitution_gives_constant_terms(self):
        gs = [mel("x1 + [[x2,x1],x1]"), mel("2*x2 + [x2,x1]")]
        subs = [Poly.zero(2), Poly.zero(2)]
        J = jacobi_substituted(gs, subs)
        base = jacobi_matrix(gs)
        for i in range(2):
            for j in range(2):
                assert J[i][j] == Poly.constant(constant_term(base[i][j]), 2)

    def test_chain_rule_worked_pair(self):
        # The Jacobi matrix of a composite equals the outer matrix times the
        # substituted inner matrix.
        y1 = [mel("x1 + [x2,x1]"), mel("x2")]
        y2 = [mel("x2"), mel("x1")]
        z = [endo_apply(g, y2) for g in y1]
        lhs = jacobi_matrix(z)
        rhs = matmul(jacobi_matrix(y2), jacobi_substituted(y1, y2))
        assert lhs == rhs

    def test_chain_rule_random(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.choice([2, 3])
            y1 = [random_melement(rng, n, max_len=4) for _ in range(n)]
            y2 = [random_melement(rng, n, max_len=4) for _ in range(n)]
            z = [endo_apply(g, y2) for g in y1]
            lhs = jacobi_matrix(z)
            rhs = matmul(jacobi_matrix(y2), jacobi_substituted(y1, y2))
            assert lhs == rhs


class TestSigma:
    def test_identity(self):
        A = identity_matrix(3)
        for i in (1, 2, 3):
            assert sigma(A, i) == Poly.variable(i, 3)

    def test_jacobi_columns_recover_linear_parts(self):
        gs = [mel("2*x1 + [x2,x1]"), mel("x1 - 3*x2 + [[x2,x1],x1]")]
        J = jacobi_matrix(gs)
        for j, g in enumerate(gs, start=1):
            assert sigma(J, j) == linear_poly(g)

    def test_elementary_matrix(self):
        # E + x1*E_{1,2} over two generators.
        A = (
            (Poly.one(2), x(1)),
            (Poly.zero(2), Poly.one(2)),
        )
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
        A = entries
        got = minors(A, 2)
        assert len(got) == 9
        # First minor is rows (0,1) x cols (0,1).
        sub = (
            (A[0][0], A[0][1]),
            (A[1][0], A[1][1]),
        )
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

    def test_work_cap_charges_polynomial_entries_only(self):
        # Order 120 updates 568,820 entries, past MAX_DET_WORK: refused on
        # polynomials before any step, computed on integers.
        size = 120
        assert (size - 1) * size * (2 * size - 1) // 6 > MAX_DET_WORK
        ints = [[2 * (i == j) for j in range(size)] for i in range(size)]
        assert _det_bareiss(ints) == 2 ** size
        polys = [[Poly.constant(c, 2) for c in row] for row in ints]
        with pytest.raises(ResourceLimitError, match=f"exceeds the cap {MAX_DET_WORK}"):
            _det_bareiss(polys)


# Sparse entries, so that zero pivots force row swaps.
_entries = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.integers(-3, 3), max_size=3).map(lambda d: Poly(2, d))


def _matrices(entries):
    """(rows, cols, grid) with 1 <= cols <= min(rows, 3) and rows <= 4."""
    return st.integers(1, 4).flatmap(lambda r: st.integers(1, min(r, 3)).flatmap(
        lambda c: st.tuples(st.just(r), st.just(c), st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))))


def _submatrices(grid, rows, cols, k):
    """Each k x k submatrix, row tuples outer, column tuples inner."""
    for idx, cols_idx in itertools.product(itertools.combinations(range(rows), k),
                                           itertools.combinations(range(cols), k)):
        yield [[grid[r][c] for c in cols_idx] for r in idx]


class TestMinorKernel:
    """`minors` and the abelian gcd share one determinant kernel and no longer
    pass through `det`; the Leibniz sum is their independent oracle."""

    @given(_matrices(_entries))
    @settings(max_examples=150, deadline=None)
    def test_minors_match_leibniz(self, case):
        rows, cols, grid = case
        A = tuple(map(tuple, grid))
        for k in range(1, cols + 1):
            assert minors(A, k) == [_leibniz_det(sub, Poly.zero(2))
                                    for sub in _submatrices(grid, rows, cols, k)]

    @given(_matrices(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6])))
    @settings(max_examples=150, deadline=None)
    def test_abelian_gcd_matches_leibniz(self, case):
        # The k x n rows of a system's linear parts: the transposed grid.
        rows, cols, grid = case
        lin = [list(col) for col in zip(*grid)]
        dets = [_leibniz_det(sub, 0) for sub in _submatrices(lin, cols, rows, cols)]
        assert _abelian_minor_gcd(lin) == math.gcd(*dets)

    def test_order_one_returns_the_entry(self):
        big = 10 ** 30 + 7
        entry = Poly(2, {(1, 1): 5, (0, 0): -2})
        assert _det_bareiss([[big]]) is big
        assert _det_bareiss([[entry]]) is entry


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
    return tuple(tuple(r) for r in entries)


class TestMatrixJson:
    def test_schema(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]"), mel("x2")])
        payload = matrix_to_json(J)
        assert payload == {
            "rows": 2,
            "cols": 2,
            "entries": [["-x2 + 1", "0"], ["x1", "1"]],
        }


class TestShapeErrors:
    """A matrix is a tuple of rows of one positive length; every function
    that takes one says which shape it refused."""

    SHAPE = "a matrix must be rows of one positive length"

    @pytest.mark.parametrize("A", [
        (),
        ((),),
        ((Poly.one(2), Poly.zero(2)), (Poly.one(2),)),
    ], ids=["no-rows", "empty-row", "ragged"])
    @pytest.mark.parametrize("call", [
        det, lambda A: minors(A, 1), lambda A: sigma(A, 1), matrix_to_json,
        lambda A: matmul(A, identity_matrix(2)), lambda A: matmul(identity_matrix(2), A),
    ], ids=["det", "minors", "sigma", "json", "matmul-left", "matmul-right"])
    def test_malformed_matrix(self, A, call):
        with pytest.raises(ValueError, match=self.SHAPE):
            call(A)

    def test_non_square_det_and_sigma(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]")])
        with pytest.raises(ValueError, match="determinant requires a square matrix"):
            det(J)
        with pytest.raises(ValueError, match="sigma requires a square matrix"):
            sigma(J, 1)

    @pytest.mark.parametrize("i", [0, 3])
    def test_sigma_column_out_of_range(self, i):
        with pytest.raises(ValueError, match=rf"column index {i} out of range 1\.\.2"):
            sigma(identity_matrix(2), i)

    def test_matmul_mismatched_shapes(self):
        J = jacobi_matrix([mel("x1 + [x2,x1]")])
        with pytest.raises(ValueError, match="incompatible shapes for matrix product"):
            matmul(J, J)
        assert matmul(identity_matrix(2), J) == J

    @pytest.mark.parametrize("k", [0, 2])
    def test_minor_order_out_of_range(self, k):
        J = jacobi_matrix([mel("x1 + [x2,x1]")])
        with pytest.raises(ValueError, match=rf"minor order {k} out of range 1\.\.1"):
            minors(J, k)

    def test_jacobi_system_errors(self):
        with pytest.raises(ValueError, match="empty system of elements"):
            jacobi_matrix([])
        with pytest.raises(ValueError, match="mismatched generator counts in the system"):
            jacobi_matrix([mel("x1"), mel("x1", 3)])

    def test_jacobi_substituted_errors(self):
        gs = [mel("x1 + [x2,x1]")]
        with pytest.raises(ValueError, match="expected 2 substitutions, got 1"):
            jacobi_substituted(gs, [mel("x2")])
        with pytest.raises(TypeError, match="cannot substitute 3"):
            jacobi_substituted(gs, [mel("x2"), 3])
