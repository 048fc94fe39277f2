"""Reed-Solomon codes RS[n, k] evaluated on fixed distinct points.

Membership is one dual (syndrome) check.  The dual of RS[n, k] on points
x_1..x_n is the generalized RS code with column multipliers
u_i = 1 / M'(x_i), where M = prod_j (X - x_j), so y is a codeword exactly
when sum_i u_i x_i^j y_i = 0 for every j < n - k (MacWilliams-Sloane
ch. 10; Roth, Introduction to Coding Theory, ch. 5).  Any field with p > n
and any distinct points will do.

The code's algebra rests on two primitives: the coefficients of a product
prod (X - x) over a list of points, and evaluation, which runs Horner's rule
once per coefficient over all points as one array expression at the field's
dtype (int64 when p < 2^31, else Python ints in an object array).  The dual
multipliers are M' evaluated at every point, inverted together with one
modular inversion (Montgomery's trick); the unit interpolant is a product
over the last k - 1 points, scaled to 1 at x_{n-k+1}.  Results leave as
lists of Python ints.
"""

from __future__ import annotations

import random
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import FloweringError
from .field import PrimeField, array_dtype


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
        product form: L = M_S / M_S(x_{n-k+1}), M_S = prod_l (X - x_l).
        """
        p = self.field.p
        coeffs = _product_of_roots(self.points[self.n - self.k + 1:], p)
        scale = self.field.inv(self.evaluate(coeffs)[self.n - self.k])
        return [c * scale % p for c in coeffs]

    def parity_rows(self) -> list[list[int]]:
        """(n-k) x n matrix H with H y = 0 iff y is a codeword: row j is
        (u_i x_i^j)_i, the generator of the dual GRS code, u_i = 1/M'(x_i)."""
        if self._parity_rows is None:
            p = self.field.p
            coeffs = _product_of_roots(self.points, p)
            derivs = self.evaluate([j * c % p for j, c in enumerate(coeffs)][1:])
            # one inversion for all n: invert the running product, then peel
            # each factor back off it
            prefix = [1, *accumulate(derivs, lambda a, b: a * b % p)]
            inv = self.field.inv(prefix[-1])
            u = [0] * self.n
            for i in reversed(range(self.n)):
                u[i] = inv * prefix[i] % p
                inv = inv * derivs[i] % p
            xs = np.array(self.points, dtype=self.field.dtype)
            row = np.array(u, dtype=self.field.dtype)
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


def _product_of_roots(points, p: int) -> list[int]:
    """The coefficients, low-degree first, of prod (X - x) over the points."""
    coeffs = np.ones(1, dtype=array_dtype(p))
    for x in points:
        coeffs = (np.append(0, coeffs) - x * np.append(coeffs, 0)) % p
    return coeffs.tolist()
