"""Dense linear algebra over a prime field: RREF, rank, nullspace.

A matrix is a 2-D array, or a list of equal-length rows, of field elements;
its width is read from its shape, so a matrix with no rows still has one.
One vectorized numpy Gauss-Jordan elimination on the field's element array
gives the reduced row echelon form, and rank and the nullspace read it.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField


def rref(matrix, field: PrimeField) -> tuple[np.ndarray, list[int]]:
    """(reduced rows, pivot columns): each pivot column is cleared above and
    below its pivot, so the rows are the reduced row echelon form."""
    m = field.array(matrix).copy()  # eliminated in place
    nrows, ncols = m.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = field.mul(m[r], field.inv(int(m[r, c])))
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = field.sub(m[hit], np.outer(col[hit], m[r]))
        pivots.append(c)
    return m, pivots


def rank(matrix, field: PrimeField) -> int:
    return len(rref(matrix, field)[1])


def nullspace(matrix, field: PrimeField) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    reduced, pivots = rref(matrix, field)
    ncols = reduced.shape[1]
    lead = reduced[:len(pivots)].tolist()
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(lead, pivots):
            v[c] = field.sub(0, row[free])
        basis.append(v)
    return basis
