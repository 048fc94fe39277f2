import random

import numpy as np
import pytest

import loop_oracle as oracle
from flowering import linalg
from flowering.errors import FloweringError
from flowering.field import NotPrimeError, PrimeField, exact_int, is_probable_prime


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def egcd_inverse(a: int, p: int) -> int:
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_field_new_accepts_primes():
    assert PrimeField(5).p == 5
    # Mersenne prime, cross-checked by trial division
    assert trial_division_prime(2147483647)
    assert PrimeField(2147483647).p == 2147483647


def test_field_new_rejects_composites_and_junk():
    with pytest.raises(NotPrimeError):
        PrimeField(6)
    with pytest.raises(NotPrimeError):
        PrimeField(1)
    with pytest.raises(NotPrimeError):
        PrimeField(2**64 + 13)  # too wide even if prime


@pytest.mark.parametrize("n,expected", [
    (2, True), (3, True), (4, False), (561, False), (7919, True),
    ((1 << 61) - 1, True), ((1 << 61) + 1, False),
])
def test_probable_prime_spot_checks(n, expected):
    assert is_probable_prime(n) == expected


def test_basic_arithmetic_f5():
    f = PrimeField(5)
    assert f.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    assert f.inv(2) == egcd_inverse(2, 5)
    assert f.inv(7) == 3  # reduced mod p first
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(10)


def test_inverse_matches_egcd_large():
    f = PrimeField(2147483647)
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(1, f.p)
        inv = f.inv(a)
        assert inv == egcd_inverse(a, f.p)
        assert a * inv % f.p == 1
        assert f.inv(inv) == a  # involution on nonzero elements


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive_small(p):
    # the multiplicative-inverse axiom, the one the field object still owns
    f = PrimeField(p)
    for a in range(1, p):
        assert 0 <= f.inv(a) < p
        assert a * f.inv(a) % p == 1
        assert f.inv(f.inv(a)) == a


def test_sampling_deterministic_and_uniform():
    f = PrimeField(5)
    s1 = [f.sample(random.Random(0)) for _ in range(1)][0]
    s2 = [f.sample(random.Random(0)) for _ in range(1)][0]
    assert s1 == s2
    r1, r2 = random.Random(123), random.Random(123)
    assert [f.sample(r1) for _ in range(100)] == [f.sample(r2) for _ in range(100)]

    # 1e5 draws: each residue within 5 sigma of the expected count
    rng = random.Random(7)
    counts = [0] * 5
    n = 100_000
    for _ in range(n):
        counts[f.sample(rng)] += 1
    sigma = (n * 0.2 * 0.8) ** 0.5
    for c in counts:
        assert abs(c - n / 5) < 5 * sigma


@pytest.mark.parametrize("p", [5, 7, 61, 2**31 - 1, 2**31 + 11, 2**61 - 1])
def test_rank_matches_rref_pivots_at_the_field_dtype(p):
    # int64 arrays below 2^31, where products of two elements fit, and
    # Python ints in object arrays above; the one elimination gives the
    # reduced rows and pivots of the loop, and the nullspace reads them
    field = PrimeField(p)
    assert field.dtype is (np.int64 if p < 2**31 else object)
    rng = random.Random(p)
    for _ in range(40):
        rows, cols, inner = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)
        # a product of random factors, so that many matrices lose rank
        a = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
        m = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
        reduced, pivots = linalg.rref(m, field)
        assert (reduced.tolist(), pivots) == oracle.rref([list(row) for row in m], p)
        assert linalg.rank(m, field) == len(pivots)
        basis = linalg.nullspace(m, field)
        free = [c for c in range(cols) if c not in pivots]
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert [v[c] for c in free] == [int(c == f) for c in free]
            assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in m)


PRIMES = [5, 7, 61, 2**31 - 1, 2**31 + 11, 2**61 - 1, 2**64 - 59]


@pytest.mark.parametrize("p,dtype", [(p, object) for p in PRIMES]
                         + [(p, np.int64) for p in PRIMES if p < 2**31])
def test_array_arithmetic_matches_python_ints(p, dtype):
    # each operation against Python ints on 0, 1, p - 1 and random
    # elements, on ints and on the shapes linalg and the fold use: vectors,
    # a row times a scalar, a column times a row (broadcast) and a matrix
    # minus an outer product; int64 only where p < 2^31, the field's dtype
    field = PrimeField(p)
    rng = random.Random(p)
    elements = [0, 1, p - 1] + [rng.randrange(p) for _ in range(9)]
    for a in elements:
        for b in elements[:6]:
            assert field.add(a, b) == (a + b) % p
            assert field.sub(a, b) == (a - b) % p
            assert field.mul(a, b) == a * b % p
            assert field.mul_add(a, b, p - 1) == (a + b * (p - 1)) % p
    assert [field.reduce(x) for x in (-1, p, 2 * p + 3, 2**64)] == [
        p - 1, 0, 3, 2**64 % p]
    col = np.array(elements, dtype=dtype)
    row = np.array(elements[::-1], dtype=dtype)
    matrix = np.tile(col[:, None], len(row))
    outer = np.outer(col, row)
    for got, want in (
        (field.add(col, row), [(a + b) % p for a, b in zip(elements, elements[::-1])]),
        (field.sub(col, row), [(a - b) % p for a, b in zip(elements, elements[::-1])]),
        (field.mul(row, p - 1), [b * (p - 1) % p for b in elements[::-1]]),
        (field.mul_add(col, p - 1, row),
         [(a + (p - 1) * b) % p for a, b in zip(elements, elements[::-1])]),
        (field.mul(col[:, None], row),
         [[a * b % p for b in elements[::-1]] for a in elements]),
        (field.sub(matrix, outer),
         [[(a - a * b) % p for b in elements[::-1]] for a in elements]),
    ):
        assert got.dtype == dtype
        assert got.tolist() == want
    assert field.dot(elements, elements[::-1]) == sum(
        a * b for a, b in zip(elements, elements[::-1])) % p
    assert field.dot([p - 1] * 1000, [p - 1] * 1000) == 1000 % p


@pytest.mark.parametrize("p", PRIMES)
def test_inv_all_and_array(p):
    field = PrimeField(p)
    rng = random.Random(p)
    values = [1, p - 1] + [rng.randrange(1, p) for _ in range(20)]
    assert field.inv_all(values) == [field.inv(v) for v in values]
    assert field.inv_all([]) == []
    for zero in ([0], [3, 0, 2], [1, p]):
        with pytest.raises(ZeroDivisionError):
            field.inv_all(zero)
    # array: every value in [0, p) at the field's dtype, of any shape; an
    # array at that dtype is not copied
    elements = [[0, 1], [p - 1, rng.randrange(p)]]
    out = field.array(elements)
    assert out.dtype == field.dtype and out.tolist() == elements
    assert field.array(out) is out
    assert field.array([]).size == 0
    # a list NumPy would read as float64 (ints below 2^63 and at or above
    # it), or one that mixes NumPy and Python ints, is read exactly
    mixed = [1, p - 1, 2**63 % p, np.int64(p // 2)]
    assert field.array(mixed).tolist() == [1, p - 1, 2**63 % p, p // 2]
    assert all(type(v) is int for v in field.array(np.array(mixed, dtype=object)).tolist())
    for bad in ([p], [-1], [0, 2**64], [1, 2**63 + p], [[0], [p]], [-2**70]):
        with pytest.raises(FloweringError, match="must lie in"):
            field.array(bad)
    for bad in (["x"], [1.0], np.ones(2), [True], [1, True, 2**64], np.array([1, 2.0], object),
                [[0], [1, 2]]):
        with pytest.raises(FloweringError, match="not"):
            field.array(bad)


def test_exact_int_reads_only_ascii_decimals():
    # one spelling per int: no leading zero and no "-0"
    assert [exact_int(s, "x") for s in ("0", "12", "-7", "10", 5, -3)] == [0, 12, -7, 10, 5, -3]
    for bad in ("1_000", " 12\n", "12\n", "+7", "١٢", "", "-", "0x10", "1e3", "007", "-0", "00",
                "-012", 1.0, True, None, "9" * 5000):
        with pytest.raises(FloweringError, match="x must be a decimal string"):
            exact_int(bad, "x")
