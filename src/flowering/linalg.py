"""Dense linear algebra mod p: rank, RREF, nullspace.

Matrices are lists of rows of ints.  Rank runs one vectorized numpy row
elimination at the field's array dtype (int64 when p < 2^31, else Python
ints in an object array); RREF and the nullspace are plain Gaussian
elimination, which is ample at desk scale.
"""

from __future__ import annotations

import numpy as np

from .field import array_dtype


def rank(rows: list[list[int]], p: int) -> int:
    if not rows or not rows[0]:
        return 0
    m = np.array(rows, dtype=array_dtype(p)) % p
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
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
        r += 1
    return r


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0 mod p}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref([list(r) for r in rows], p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][free] % p
        basis.append(v)
    return basis
