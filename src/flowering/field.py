"""Prime-field arithmetic with a runtime modulus.

The modulus is a constructor argument rather than a compile-time constant so
the same code runs tiny pedagogical fields (F_5) and experiment-scale fields
(~2^31).  No structure beyond primality is assumed: in particular no roots of
unity or smooth multiplicative subgroups are ever needed.

Elements are ints in ``[0, p)``, and ``PrimeField`` owns every reduction mod
p.  reduce, add, sub, mul and mul_add take Python ints or numpy arrays of
elements alike; dot, inv and inv_all take Python ints; and ``array`` makes
the one representation of many elements, a checked array at the field's
dtype.  That dtype is int64 when the product of two elements fits in it
(p < 2^31) and ``object`` (Python ints) otherwise, so one array expression
serves every modulus.  The operands of an array operation are reduced
elements, or for sub a product of two of them, so no intermediate leaves
int64.  exact_int reads an integer from JSON without coercion.
"""

from __future__ import annotations

import operator
import random
from itertools import accumulate

import numpy as np

from .errors import FloweringError

_INT64_MAX_P = 1 << 31  # entries < p, products < p^2 < 2^62 fit in int64


class NotPrimeError(FloweringError):
    """The requested modulus failed the primality check."""


# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# which covers every 64-bit modulus this package accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def exact_int(value, name: str) -> int:
    """A plain int, or its one decimal spelling str(int) as a string (ASCII
    digits, a leading minus, no leading zero, no "-0"), as an int.  A bool or
    a float is refused, not truncated, as is every other string int() reads
    (spaces, underscores, "+7", non-ASCII digits, "007") or finds too long."""
    if type(value) is int:
        return value
    try:
        if isinstance(value, str) and str(number := int(value)) == value:
            return number
    except ValueError:
        pass
    raise FloweringError(f"{name} must be a decimal string or an integer, got {value!r}")


def _python_int(value, p: int) -> int:
    """An int or NumPy integer as a Python int; anything else, a bool
    included, is refused."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise FloweringError(f"values are not integers of F_{p}: got {value!r}")


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

    __slots__ = ("p", "dtype")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise NotPrimeError(f"modulus must be an integer >= 2, got {p!r}")
        if p.bit_length() > 64:
            raise NotPrimeError(f"modulus must fit in 64 bits, got {p.bit_length()} bits")
        if not is_probable_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        # the numpy dtype of arrays of elements
        self.dtype = np.int64 if p < _INT64_MAX_P else object

    def reduce(self, a):
        """a mod p, for any integer a."""
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def mul_add(self, a, alpha, b):
        """a + alpha b: the fold relation, so the prover's fold and the
        verifier's check are one expression."""
        return (a + alpha * b) % self.p

    def dot(self, a, b) -> int:
        """sum_i a_i b_i over two sequences of Python ints, exact at any
        length and modulus."""
        return sum(map(operator.mul, a, b)) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def inv_all(self, values: list[int]) -> list[int]:
        """The inverses of the values, with one modular inversion
        (Montgomery's trick): invert the running product, then peel each
        factor back off it.  A zero raises ZeroDivisionError, as inv does."""
        p = self.p
        prefix = [1, *accumulate(values, lambda a, b: a * b % p)]
        inv = self.inv(prefix[-1])
        out = [0] * len(values)
        for i in reversed(range(len(values))):
            out[i] = inv * prefix[i] % p
            inv = inv * values[i] % p
        return out

    def array(self, values) -> np.ndarray:
        """values as an array at dtype, of any shape; an array at dtype is
        used as is, not copied.  Refuses a value that is not an integer in
        [0, p), so every array it returns holds reduced elements."""
        try:
            given = np.asarray(values)
        except ValueError as exc:  # a ragged nesting
            raise FloweringError(f"values are not an array of F_{self.p}: {exc}") from exc
        if given.dtype.kind not in "iu":
            # ints past int64, ints that NumPy merges to float64 (some below
            # 2^63, some above), or no ints at all: read entry by entry
            given = np.asarray(values, dtype=object)
            if not all(type(v) is int for v in given.flat):
                given = np.array([_python_int(v, self.p) for v in given.flat],
                                 dtype=object).reshape(given.shape)
        if given.size and not (0 <= given.min() and given.max() < self.p):
            raise FloweringError(f"values of F_{self.p} must lie in [0, {self.p})")
        return given.astype(self.dtype, copy=False)

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
