"""Reed-Solomon codes RS[n, k] evaluated on fixed distinct points.

Membership is one dual (syndrome) check.  The dual of RS[n, k] on points
x_1..x_n is the generalized RS code with column multipliers
u_i = 1 / M'(x_i), where M = prod_j (X - x_j), so y is a codeword exactly
when sum_i u_i x_i^j y_i = 0 for every j < n - k (MacWilliams-Sloane
ch. 10; Roth, Introduction to Coding Theory, ch. 5).  Any field with p > n
and any distinct points will do.

The code's algebra rests on two primitives: the coefficients of a product
prod (X - x) over a list of points, and evaluation, which runs Horner's rule
once per coefficient over all points as one array expression.  The values
M'(x_i) = prod_{j != i} (x_i - x_j) take one of two routes, and the field's
batch inversion turns them into the multipliers.  On points in arithmetic
progression, x_i = a + (i-1) h (every instance gen writes has 1..n),
x_i - x_j = (i - j) h, so M'(x_i) is the product of the i-1 differences
h, 2h, ..., (i-1)h times the n-i differences -h, ..., -(n-i)h: two running
products, O(n) in all.  On any other points M' is built from the
coefficients of M and evaluated at every point, O(n^2).  The unit
interpolant is a product over the last k - 1 points, scaled to 1 at
x_{n-k+1}.  Results leave as lists of Python ints.
"""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np

from .errors import FloweringError
from .field import PrimeField


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
        n = len(points)
        # checked first: at p <= n any n points collide mod p
        if field.p <= n:
            raise FieldTooSmallError(f"need p > n, got p={field.p}, n={n}")
        points = [field.reduce(x) for x in points]
        if len(set(points)) != n:
            raise DuplicatePointError("evaluation points must be pairwise distinct")
        if not 1 <= k <= n:
            raise DimensionOutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.field = field
        self.points = tuple(points)
        self._xs = field.array(points)
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
        mul_add, reduce = self.field.mul_add, self.field.reduce
        acc = np.zeros_like(self._xs)
        for c in reversed(coeffs):
            acc = mul_add(reduce(c), acc, self._xs)
        return acc.tolist()

    def is_codeword(self, values: list[int]) -> bool:
        """True iff every parity row annihilates the word."""
        if len(values) != self.n:
            raise LengthMismatchError(f"expected {self.n} values, got {len(values)}")
        dot = self.field.dot
        return all(dot(row, values) == 0 for row in self.parity_rows())

    def unit_interpolant(self) -> list[int]:
        """The k coefficients, low-degree first, of the degree k-1 polynomial
        L with L(x_{n-k+1}) = 1 and L(x_l) = 0 for l = n-k+2, ..., n, in
        product form: L = M_S / M_S(x_{n-k+1}), M_S = prod_l (X - x_l).
        """
        field = self.field
        coeffs = _product_of_roots(self.points[self.n - self.k + 1:], field)
        scale = field.inv(self.evaluate(coeffs)[self.n - self.k])
        return [field.mul(c, scale) for c in coeffs]

    def parity_rows(self) -> list[list[int]]:
        """(n-k) x n matrix H with H y = 0 iff y is a codeword: row j is
        (u_i x_i^j)_i, the generator of the dual GRS code, u_i = 1/M'(x_i)."""
        if self._parity_rows is None:
            field = self.field
            row = field.array(field.inv_all(self._derivative_at_points()))
            rows = []
            for _ in range(self.n - self.k):
                rows.append(row.tolist())
                row = field.mul(row, self._xs)
            self._parity_rows = rows
        return self._parity_rows

    def _derivative_at_points(self) -> list[int]:
        """M'(x_i) at every point: two running products of the differences
        when the points are an arithmetic progression, else the derivative
        of M's coefficients evaluated at every point."""
        field, xs = self.field, self._xs
        steps = field.sub(xs[1:], xs[:-1])
        if (steps == steps[:1]).all():
            # x_m's differences to the m points before it are h, 2h, ..., mh,
            # and to the n-1-m points after it -h, -2h, ..., -(n-1-m)h
            rising = accumulate(field.sub(xs[1:], xs[0]).tolist(), field.mul, initial=1)
            falling = accumulate(field.sub(xs[0], xs[1:]).tolist(), field.mul, initial=1)
            return field.mul(field.array(list(rising)),
                             field.array(list(falling))[::-1]).tolist()
        coeffs = _product_of_roots(self.points, field)
        return self.evaluate([field.mul(j, c) for j, c in enumerate(coeffs)][1:])

    def random_codeword(self, rng: random.Random) -> list[int]:
        return self.evaluate([self.field.sample(rng) for _ in range(self.k)])

    def __repr__(self) -> str:
        return f"RSCode(n={self.n}, k={self.k}, p={self.field.p})"


def _product_of_roots(points, field: PrimeField) -> list[int]:
    """The coefficients, low-degree first, of prod (X - x) over the points."""
    # coefficient i at index i + 1, behind a zero that stays, so that each
    # factor is one in-place update: c_i becomes c_{i-1} - x c_i
    padded = np.zeros(len(points) + 2, dtype=field.dtype)
    padded[1] = 1
    for end, x in enumerate(points, 2):
        padded[1:end + 1] = field.sub(padded[:end], x * padded[1:end + 1])
    return padded[1:].tolist()
