"""Reed-Solomon codes RS[n, k] evaluated on fixed distinct points.

Membership is one dual (syndrome) check.  The dual of RS[n, k] on points
x_1..x_n is the generalized RS code with column multipliers
u_i = 1 / prod_{j != i} (x_i - x_j), so y is a codeword exactly when
sum_i u_i x_i^j y_i = 0 for every j < n - k (MacWilliams-Sloane ch. 10;
Roth, Introduction to Coding Theory, ch. 5).  Any field with p > n and any
distinct points will do.

The per-code tables are array expressions at the field's dtype (int64 when
p < 2^31, else Python ints in an object array), so one expression serves
every modulus.  The dual rows take the n x n difference table
(x_i - x_j) mod p, with ones on the diagonal, in fixed blocks of rows,
reduce each row to prod_{j != i} by pairwise halving products and invert
once per point; evaluation runs Horner's rule once per coefficient over all
points.  Results leave as lists of Python ints.
"""

from __future__ import annotations

import random
from operator import mul

import numpy as np

from .errors import FloweringError
from .field import PrimeField


# rows of the n x n difference table held at once: memory stays O(n) per
# code, and a table of a few hundred points already spans several blocks
BLOCK_ROWS = 64


class DuplicatePointError(FloweringError):
    pass


class DimensionOutOfRangeError(FloweringError):
    pass


class FieldTooSmallError(FloweringError):
    """The field must have more elements than evaluation points."""


class LengthMismatchError(FloweringError):
    pass


class RSCode:
    """RS[n, k] on pairwise-distinct points x_1..x_n of a field with p > n."""

    def __init__(self, field: PrimeField, points: list[int], k: int):
        points = [x % field.p for x in points]
        n = len(points)
        if len(set(points)) != n:
            raise DuplicatePointError("evaluation points must be pairwise distinct")
        if not 1 <= k <= n:
            raise DimensionOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
        if field.p <= n:
            raise FieldTooSmallError(f"need p > n, got p={field.p}, n={n}")
        self.field = field
        self.points = tuple(points)
        self.k = k
        self._parity_rows: list[list[int]] | None = None

    @classmethod
    def with_default_points(cls, field: PrimeField, n: int, k: int) -> RSCode:
        """Evaluation points default to x_i = i (1-based)."""
        return cls(field, list(range(1, n + 1)), k)

    @property
    def n(self) -> int:
        return len(self.points)

    def evaluate(self, coeffs: list[int]) -> list[int]:
        """The polynomial with these coefficients, low-degree first, at every
        point, by Horner's rule over all points at once."""
        p = self.field.p
        xs = np.array(self.points, dtype=self.field.dtype)
        acc = np.zeros_like(xs)
        for c in reversed(coeffs):
            acc = (acc * xs + c % p) % p
        return acc.tolist()

    def is_codeword(self, values: list[int]) -> bool:
        """True iff every parity row annihilates the word."""
        if len(values) != self.n:
            raise LengthMismatchError(f"expected {self.n} values, got {len(values)}")
        p = self.field.p
        return all(sum(map(mul, row, values)) % p == 0 for row in self.parity_rows())

    def unit_interpolant(self) -> list[int]:
        """The k coefficients, low-degree first, of the degree k-1 polynomial
        L with L(x_{n-k+1}) = 1 and L(x_l) = 0 for l = n-k+2, ..., n, in
        product form:
        L(X) = prod_l (X - x_l) / prod_l (x_{n-k+1} - x_l).
        """
        p = self.field.p
        anchor = self.points[self.n - self.k]
        coeffs = [1]  # low-degree first
        denom = 1
        for x in self.points[self.n - self.k + 1:]:
            coeffs = [0] + coeffs
            for j in range(len(coeffs) - 1):
                coeffs[j] = (coeffs[j] - coeffs[j + 1] * x) % p
            denom = denom * (anchor - x) % p
        scale = self.field.inv(denom)
        return [c * scale % p for c in coeffs]

    def parity_rows(self) -> list[list[int]]:
        """(n-k) x n matrix H with H y = 0 iff y is a codeword: row j is
        (u_i x_i^j)_i, the generator of the dual GRS code."""
        if self._parity_rows is None:
            p = self.field.p
            xs = np.array(self.points, dtype=self.field.dtype)
            denoms = []
            for start in range(0, self.n, BLOCK_ROWS):
                block = (xs[start:start + BLOCK_ROWS, None] - xs) % p
                block[np.arange(len(block)), np.arange(start, start + len(block))] = 1
                denoms += _row_products(block, p).tolist()
            row = np.array([self.field.inv(d) for d in denoms], dtype=self.field.dtype)
            rows = []
            for _ in range(self.n - self.k):
                rows.append(row.tolist())
                row = row * xs % p
            self._parity_rows = rows
        return self._parity_rows

    def random_codeword(self, rng: random.Random) -> list[int]:
        return self.evaluate([self.field.sample(rng) for _ in range(self.k)])

    def __repr__(self) -> str:
        return f"RSCode(n={self.n}, k={self.k}, p={self.field.p})"


def _row_products(table: np.ndarray, p: int) -> np.ndarray:
    """The product mod p of each row, by multiplying the two halves of the
    columns until one column is left; an odd last column joins the first."""
    while table.shape[1] > 1:
        half = table.shape[1] // 2
        folded = table[:, :half] * table[:, half:2 * half] % p
        if table.shape[1] % 2:
            folded[:, 0] = folded[:, 0] * table[:, -1] % p
        table = folded
    return table[:, 0]
