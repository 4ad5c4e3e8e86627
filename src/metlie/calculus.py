"""Jacobi matrices of element systems, minors and exact determinants.

The Jacobi matrix of (g_1, .., g_k) over n generators is the n x k matrix
whose column j holds the derivative vector of g_j.  Determinants are exact
over Z[X] by fraction-free Bareiss elimination with exact division.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from metlie.poly import Poly, ResourceLimitError, divexact
from metlie.ring import MElement

# Most k x k minors one matrix may have: C(12, 6) = 924, so every system over
# up to 12 generators fits.
MAX_MINORS = 1 << 10


@dataclass(frozen=True)
class PolyMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


def jacobi_matrix(gs: list[MElement]) -> PolyMatrix:
    """Column j holds the derivative vector of gs[j]."""
    if not gs:
        raise ValueError("empty system of elements")
    n = gs[0].n
    for g in gs:
        if g.n != n:
            raise ValueError("mismatched generator counts in the system")
    entries = tuple(tuple(g.deriv[i] for g in gs) for i in range(n))
    return PolyMatrix(n, len(gs), entries)


def jacobi_substituted(gs: list[MElement], fs) -> PolyMatrix:
    """Jacobi matrix of gs with the linear parts of fs substituted for x1..xn.

    Each f may be an element (its linear part is used) or a polynomial
    substituted as-is.
    """
    if not gs:
        raise ValueError("empty system of elements")
    n = gs[0].n
    if len(fs) != n:
        raise ValueError(f"expected {n} substitutions, got {len(fs)}")
    images = []
    for f in fs:
        if isinstance(f, MElement):
            images.append(f.linear_poly())
        elif isinstance(f, Poly):
            images.append(f)
        else:
            raise TypeError(f"cannot substitute {f!r}")
    one = Poly.one(n)
    base = jacobi_matrix(gs)
    entries = tuple(
        tuple(e.evaluate(images, one) for e in row) for row in base.entries
    )
    return PolyMatrix(n, len(gs), entries)


def sigma(A: PolyMatrix, i: int) -> Poly:
    """The polynomial sum_j x_j * A[j][i] of a square matrix (1-based i)."""
    if A.rows != A.cols:
        raise ValueError("sigma requires a square matrix")
    if not 1 <= i <= A.cols:
        raise ValueError(f"column index {i} out of range 1..{A.cols}")
    n = A.rows
    total = Poly.zero(n)
    for j in range(n):
        mono = tuple(1 if t == j else 0 for t in range(n))
        total = total + A.entries[j][i - 1].mul_term(1, mono)
    return total


def _det_bareiss(rows: list[list]):
    """Determinant by fraction-free Bareiss elimination (Bareiss, 1968).

    The entries are all ints or all polynomials; each step divides by the
    previous pivot, and that division is always exact.
    """
    size = len(rows)
    m = [list(row) for row in rows]
    div = divexact if isinstance(m[0][0], Poly) else operator.floordiv
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
                m[i][j] = v if prev is None else div(v, prev)
        prev = m[k][k]
    result = m[size - 1][size - 1]
    return result if sign == 1 else -result


def det(A: PolyMatrix) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    if A.rows != A.cols:
        raise ValueError("determinant requires a square matrix")
    return _det_bareiss(A.entries)


def minors(A: PolyMatrix, k: int) -> list[Poly]:
    """All k x k minor determinants, ordered by (row tuple, column tuple)."""
    if not 1 <= k <= min(A.rows, A.cols):
        raise ValueError(f"minor order {k} out of range 1..{min(A.rows, A.cols)}")
    out = []
    for row_idx, col_idx in minor_positions(A.rows, A.cols, k):
        sub = PolyMatrix(
            k, k,
            tuple(tuple(A.entries[r][c] for c in col_idx) for r in row_idx),
        )
        out.append(det(sub))
    return out


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


def matmul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    if A.cols != B.rows:
        raise ValueError("incompatible shapes for matrix product")
    n_gens = A.entries[0][0].n
    entries = tuple(
        tuple(
            sum(
                (A.entries[i][t] * B.entries[t][j] for t in range(A.cols)),
                Poly.zero(n_gens),
            )
            for j in range(B.cols)
        )
        for i in range(A.rows)
    )
    return PolyMatrix(A.rows, B.cols, entries)


def identity_matrix(n: int, n_gens: int | None = None) -> PolyMatrix:
    n_gens = n if n_gens is None else n_gens
    entries = tuple(
        tuple(Poly.one(n_gens) if i == j else Poly.zero(n_gens) for j in range(n))
        for i in range(n)
    )
    return PolyMatrix(n, n, entries)


def matrix_to_json(A: PolyMatrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[str(e) for e in row] for row in A.entries],
    }
