"""Dense linear algebra mod p: RREF, rank, nullspace.

A matrix is a 2-D array, or a list of equal-length rows of ints; its width
is read from its shape, so a matrix with no rows still has one.  One
vectorized numpy Gauss-Jordan elimination at the field's array dtype (int64
when p < 2^31, else Python ints in an object array) gives the reduced row
echelon form, and rank and the nullspace read it.
"""

from __future__ import annotations

import numpy as np

from .field import array_dtype


def rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """(reduced rows, pivot columns): each pivot column is cleared above and
    below its pivot, so the rows are the reduced row echelon form."""
    m = np.array(matrix, dtype=array_dtype(p)) % p
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
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
    return m, pivots


def rank(matrix, p: int) -> int:
    return len(rref(matrix, p)[1])


def nullspace(matrix, p: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0 mod p}, one vector per free column."""
    reduced, pivots = rref(matrix, p)
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
            v[c] = -row[free] % p
        basis.append(v)
    return basis
