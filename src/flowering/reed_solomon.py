"""Reed-Solomon codes RS[n, k] evaluated on fixed distinct points.

Membership is one dual (syndrome) check.  The dual of RS[n, k] on points
x_1..x_n is the generalized RS code with column multipliers
u_i = 1 / prod_{j != i} (x_i - x_j), so y is a codeword exactly when
sum_i u_i x_i^j y_i = 0 for every j < n - k (MacWilliams-Sloane ch. 10;
Roth, Introduction to Coding Theory, ch. 5).  Any field with p > n and any
distinct points will do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

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


@dataclass(frozen=True)
class Poly:
    """Polynomial over a prime field, coefficients low-degree first.

    Canonical form has no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple and degree -1 (standing in for -infinity).
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, field: PrimeField, coeffs) -> Poly:
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.field.p
        return acc


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

    def evaluate(self, poly: Poly) -> list[int]:
        return [poly.evaluate(x) for x in self.points]

    def is_codeword(self, values: list[int]) -> bool:
        """True iff every parity row annihilates the word."""
        if len(values) != self.n:
            raise LengthMismatchError(f"expected {self.n} values, got {len(values)}")
        p = self.field.p
        return all(sum(map(mul, row, values)) % p == 0 for row in self.parity_rows())

    def unit_interpolant(self) -> Poly:
        """The degree k-1 polynomial L with L(x_{n-k+1}) = 1 and L(x_l) = 0
        for l = n-k+2, ..., n, in product form:
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
        return Poly.make(self.field, [c * scale for c in coeffs])

    def parity_rows(self) -> list[list[int]]:
        """(n-k) x n matrix H with H y = 0 iff y is a codeword: row j is
        (u_i x_i^j)_i, the generator of the dual GRS code."""
        if self._parity_rows is None:
            p = self.field.p
            xs = self.points
            row = []
            for i, xi in enumerate(xs):
                d = 1
                for j, xj in enumerate(xs):
                    if j != i:
                        d = d * (xi - xj) % p
                row.append(self.field.inv(d))
            rows = []
            for _ in range(self.n - self.k):
                rows.append(row)
                row = [u * x % p for u, x in zip(row, xs)]
            self._parity_rows = rows
        return self._parity_rows

    def random_codeword(self, rng: random.Random) -> list[int]:
        coeffs = [self.field.sample(rng) for _ in range(self.k)]
        return self.evaluate(Poly.make(self.field, coeffs))

    def __repr__(self) -> str:
        return f"RSCode(n={self.n}, k={self.k}, p={self.field.p})"
