"""Dense linear algebra mod p: RREF, rank, nullspace.

Matrices are lists of rows of ints.  One vectorized numpy Gauss-Jordan
elimination at the field's array dtype (int64 when p < 2^31, else Python
ints in an object array) gives the reduced row echelon form, and rank and
the nullspace read it.
"""

from __future__ import annotations

import numpy as np

from .field import array_dtype


def rref(rows: list[list[int]], p: int) -> tuple[np.ndarray, list[int]]:
    """(reduced rows, pivot columns): each pivot column is cleared above and
    below its pivot, so the rows are the reduced row echelon form."""
    ncols = len(rows[0]) if rows else 0
    m = np.array(rows, dtype=array_dtype(p)).reshape(len(rows), ncols) % p
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
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


def rank(rows: list[list[int]], p: int) -> int:
    return len(rref(rows, p)[1])


def nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0 mod p}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, p)
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
