"""Jacobi matrices of element systems, minors and exact determinants.

The Jacobi matrix of (g_1, .., g_k) over n generators is the n x k matrix
whose column j holds the derivative vector of g_j; a matrix is the tuple of
its rows, every row of one positive length.  Determinants are exact
over Z[X] by fraction-free Bareiss elimination with exact division.
"""

from __future__ import annotations

import itertools
import math
import operator

from metlie.poly import Poly, ResourceLimitError, divexact
from metlie.ring import MElement

# Most k x k minors one matrix may have: C(12, 6) = 924, so every system over
# up to 12 generators fits.
MAX_MINORS = 1 << 10

# Most work one polynomial determinant may take: an entry update counts one
# unit and an exact division its dividend's times its divisor's term count,
# though `divexact` takes its quotient's times its divisor's.  Integer updates
# cost far less: uncharged.
MAX_DET_WORK = 1 << 19


def _shape(A) -> tuple[int, int]:
    """(rows, cols) of the matrix A, a tuple of rows of one positive length."""
    if not A or not A[0] or any(len(row) != len(A[0]) for row in A):
        raise ValueError("a matrix must be rows of one positive length")
    return len(A), len(A[0])


def jacobi_matrix(gs: list[MElement]) -> tuple:
    """Column j holds the derivative vector of gs[j]."""
    if not gs:
        raise ValueError("empty system of elements")
    n = gs[0].n
    for g in gs:
        if g.n != n:
            raise ValueError("mismatched generator counts in the system")
    return tuple(tuple(g.deriv[i] for g in gs) for i in range(n))


def _det_bareiss(rows: list[list]):
    """Determinant by fraction-free Bareiss elimination (Bareiss, 1968).

    The entries are all ints or all polynomials; each step divides by the
    previous pivot, and that division is always exact.  Polynomial work past
    MAX_DET_WORK raises ResourceLimitError, checked before the first step
    from the order alone and again before each exact division.  Order 1
    returns the entry itself.
    """
    size = len(rows)
    if size == 1:
        return rows[0][0]
    m = [list(row) for row in rows]
    poly = isinstance(m[0][0], Poly)
    div = divexact if poly else operator.floordiv
    work = _charge_det(0, (size - 1) * size * (2 * size - 1) // 6 if poly else 0)
    sign = 1
    prev = None
    for k in range(size - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, size) if m[r][k]), None)
            if pivot is None:
                return m[k][k]  # a zero column: the zero of the entry type
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                v = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if poly and prev is not None:
                    work = _charge_det(work, len(v.terms) * len(prev.terms))
                m[i][j] = v if prev is None else div(v, prev)
        prev = m[k][k]
    result = m[size - 1][size - 1]
    return result if sign == 1 else -result


def _charge_det(work: int, units: int) -> int:
    """`work + units`, or ResourceLimitError when that passes MAX_DET_WORK."""
    work += units
    if work > MAX_DET_WORK:
        raise ResourceLimitError(f"determinant work exceeds the cap {MAX_DET_WORK}")
    return work


def det(A) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    rows, cols = _shape(A)
    if rows != cols:
        raise ValueError("determinant requires a square matrix")
    return _det_bareiss(A)


def minors(A, k: int) -> list[Poly]:
    """All k x k minor determinants, ordered by (row tuple, column tuple)."""
    top = min(_shape(A))
    if not 1 <= k <= top:
        raise ValueError(f"minor order {k} out of range 1..{top}")
    return list(_minor_dets(A, k))


def _minor_dets(rows, k: int):
    """The determinant of each k x k submatrix of the equal-length `rows`
    that `minor_positions` selects, in its order: the one minor kernel of
    `minors` and of the abelian gcd."""
    positions = minor_positions(len(rows), len(rows[0]), k)
    return (_det_bareiss([[rows[r][c] for c in cols] for r in idx]) for idx, cols in positions)


def minor_positions(rows: int, cols: int, k: int):
    """(row tuple, column tuple) of every k x k minor, in order.

    Raises ResourceLimitError before any enumeration when there are more
    than MAX_MINORS of them.
    """
    count = math.comb(rows, k) * math.comb(cols, k)
    if count > MAX_MINORS:
        raise ResourceLimitError(f"{count} minors of order {k} exceed the cap {MAX_MINORS}")
    return itertools.product(itertools.combinations(range(rows), k),
                             itertools.combinations(range(cols), k))


def matrix_to_json(A) -> dict:
    rows, cols = _shape(A)
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[str(e) for e in row] for row in A],
    }
