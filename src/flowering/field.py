"""Prime-field arithmetic with a runtime modulus.

The modulus is a constructor argument rather than a compile-time constant so
the same code runs tiny pedagogical fields (F_5) and experiment-scale fields
(~2^31).  No structure beyond primality is assumed: in particular no roots of
unity or smooth multiplicative subgroups are ever needed.

Elements are plain ints in ``[0, p)``; callers reduce with ``% p``
themselves, and ``PrimeField`` supplies only what needs the modulus beyond
that: validation, inversion, uniform sampling and the numpy dtype of arrays
of elements, with the bound below which such an array folds exactly.  That
dtype is int64 when the product of two elements fits in it (p < 2^31) and
``object`` (Python ints) otherwise, so one array expression serves every
modulus.  exact_int reads an integer from JSON without coercion.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import FloweringError

_INT64_MAX_P = 1 << 31  # entries < p, products < p^2 < 2^62 fit in int64


class NotPrimeError(FloweringError):
    """The requested modulus failed the primality check."""


# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# which covers every 64-bit modulus this package accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def array_dtype(p: int):
    """The numpy dtype of arrays of elements of F_p: int64 when p < 2^31,
    else object."""
    return np.int64 if p < _INT64_MAX_P else object


def exact_int(value, name: str) -> int:
    """A decimal string or a plain int as an int; a bool or a float is
    refused, not truncated."""
    if not (isinstance(value, str) or type(value) is int):
        raise FloweringError(f"{name} must be a decimal string or an integer, got {value!r}")
    return int(value)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a verified prime p < 2^64."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise NotPrimeError(f"modulus must be an integer >= 2, got {p!r}")
        if p.bit_length() > 64:
            raise NotPrimeError(f"modulus must fit in 64 bits, got {p.bit_length()} bits")
        if not is_probable_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    @property
    def dtype(self):
        """The numpy dtype of arrays of elements; see array_dtype."""
        return array_dtype(self.p)

    @property
    def value_bound(self):
        """The exclusive bound on the values an array at dtype folds exactly:
        2^31 under int64, where a + alpha b < 2^31 + 2^62 for alpha < p, and
        none (inf) for Python ints."""
        return _INT64_MAX_P if self.dtype is np.int64 else math.inf

    def sample(self, rng: random.Random) -> int:
        """Uniform element of [0, p); deterministic given the rng seed."""
        return rng.randrange(self.p)

    # identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
