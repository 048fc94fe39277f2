import itertools
import random

import pytest

import loop_oracle as oracle
from flowering import linalg
from flowering.field import PrimeField
from flowering.reed_solomon import (
    DimensionOutOfRangeError,
    DuplicatePointError,
    FieldTooSmallError,
    LengthMismatchError,
    RSCode,
)


def trim(coeffs) -> list[int]:
    """Coefficients, low-degree first, without trailing zeros: the zero
    polynomial is the empty list."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(coeffs) -> int:
    """The degree, with -1 standing in for -infinity at the zero polynomial."""
    return len(trim(coeffs)) - 1


def lagrange_interpolate(field: PrimeField, xs: list[int], ys: list[int]) -> list[int]:
    """Reference oracle: the coefficients, low-degree first and trimmed, of
    the unique polynomial of degree < len(xs) through the given points, by
    O(n^2) Lagrange interpolation."""
    p = field.p
    n = len(xs)
    # master(X) = prod (X - x_i), low-degree first
    master = [1]
    for x in xs:
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] = (master[j] - master[j + 1] * x) % p
    acc = [0] * n
    for i in range(n):
        # num_i = master / (X - x_i) by synthetic division
        num = [0] * n
        num[n - 1] = 1
        for j in range(n - 1, 0, -1):
            num[j - 1] = (master[j] + num[j] * xs[i]) % p
        denom = 0
        power = 1
        for c in num:
            denom = (denom + c * power) % p
            power = power * xs[i] % p
        scale = ys[i] * field.inv(denom) % p
        if scale:
            for j in range(n):
                acc[j] = (acc[j] + num[j] * scale) % p
    return trim(acc)


def property_codes() -> list[RSCode]:
    """RS codes on random distinct (non-default) points: p = n + 1, p = 2^31 - 1
    and a prime above 2^31, each with k in {1, n // 2, n - 1, n}."""
    rng = random.Random(11)
    codes = []
    for p, n in ((5, 4), (7, 6), (13, 12), (2**31 - 1, 9), (2**31 + 11, 8)):
        field = PrimeField(p)
        points = rng.sample(range(p), n)
        for k in sorted({1, n // 2, n - 1, n}):
            codes.append(RSCode(field, points, k))
    return codes


def probe_words(code: RSCode, rng: random.Random) -> list[list[int]]:
    """Codewords, codewords with one bumped entry, evaluations of a degree-k
    polynomial (a non-codeword when k < n) and uniform words."""
    p = code.field.p
    words = []
    for _ in range(4):
        c = code.random_codeword(rng)
        words.append(c)
        bumped = list(c)
        bumped[rng.randrange(code.n)] += rng.randrange(1, p)
        words.append(bumped)
        coeffs = [code.field.sample(rng) for _ in range(code.k)] + [rng.randrange(1, p)]
        words.append(code.evaluate(coeffs))
        words.append([code.field.sample(rng) for _ in range(code.n)])
    return words


@pytest.fixture(scope="module")
def rs_t1():
    return RSCode.with_default_points(PrimeField(5), 3, 2)


def test_rs_new_validation():
    f5 = PrimeField(5)
    code = RSCode(f5, [1, 2, 3], 2)
    assert code.n == 3 and code.k == 2
    with pytest.raises(DuplicatePointError):
        RSCode(f5, [1, 1, 3], 2)
    with pytest.raises(DimensionOutOfRangeError):
        RSCode(f5, [1, 2, 3], 0)
    with pytest.raises(DimensionOutOfRangeError):
        RSCode(f5, [1, 2, 3], 4)
    with pytest.raises(FieldTooSmallError):
        RSCode(PrimeField(3), [0, 1, 2], 2)


def test_interpolate_known_cases(rs_t1):
    field, xs = rs_t1.field, list(rs_t1.points)
    # values (2,4,1) at (1,2,3) over F_5 come from P(X) = 2X
    poly = lagrange_interpolate(field, xs, [2, 4, 1])
    assert poly == [0, 2]
    assert rs_t1.evaluate(poly) == [2, 4, 1]

    const = lagrange_interpolate(field, xs, [4, 4, 4])
    assert const == [4]

    # (1,1,2) needs degree 2: a degree-1 fit through the first two points
    # is the constant 1, which misses the third
    deg2 = lagrange_interpolate(field, xs, [1, 1, 2])
    assert degree(deg2) == 2
    assert rs_t1.evaluate(deg2) == [1, 1, 2]


def test_is_codeword(rs_t1):
    assert rs_t1.is_codeword([1, 2, 3])  # identity polynomial, degree 1
    assert not rs_t1.is_codeword([1, 1, 2])
    assert rs_t1.is_codeword([0, 0, 0])  # zero polynomial
    assert rs_t1.is_codeword([6, 7, 8])  # entries are taken mod p
    with pytest.raises(LengthMismatchError):
        rs_t1.is_codeword([1, 2])


def test_is_codeword_matches_lagrange_oracle():
    rng = random.Random(12)
    for code in property_codes():
        xs = list(code.points)
        for y in probe_words(code, rng):
            expected = degree(lagrange_interpolate(code.field, xs, y)) < code.k
            assert code.is_codeword(y) == expected, (code, y)


def test_is_codeword_against_bruteforce_enumeration(rs_t1):
    p, k = 5, 2
    codewords = set()
    for coeffs in itertools.product(range(p), repeat=k):
        codewords.add(tuple(rs_t1.evaluate(coeffs)))
    rng = random.Random(0)
    for _ in range(100):
        v = [rng.randrange(p) for _ in range(3)]
        assert rs_t1.is_codeword(v) == (tuple(v) in codewords)

    # every word of F_5^4 on non-default points that include 0, k in {1, n-1, n}
    field = PrimeField(5)
    for k in (1, 3, 4):
        code = RSCode(field, [3, 0, 4, 1], k)
        codewords = {
            tuple(code.evaluate(coeffs))
            for coeffs in itertools.product(range(5), repeat=k)
        }
        assert len(codewords) == 5**k
        for v in itertools.product(range(5), repeat=4):
            assert code.is_codeword(list(v)) == (v in codewords)


def test_interpolation_round_trips():
    field = PrimeField(101)
    code = RSCode.with_default_points(field, 7, 3)
    xs = list(code.points)
    rng = random.Random(3)
    for _ in range(25):
        values = [field.sample(rng) for _ in range(7)]
        assert code.evaluate(lagrange_interpolate(field, xs, values)) == values
        poly = [field.sample(rng) for _ in range(7)]
        assert lagrange_interpolate(field, xs, code.evaluate(poly)) == trim(poly)


def test_linearity_of_code():
    field = PrimeField(101)
    code = RSCode.with_default_points(field, 7, 3)
    rng = random.Random(4)
    for _ in range(25):
        u = code.random_codeword(rng)
        v = code.random_codeword(rng)
        a, b = field.sample(rng), field.sample(rng)
        combo = [(a * x + b * y) % field.p for x, y in zip(u, v)]
        assert code.is_codeword(combo)


def test_unit_interpolant_t1(rs_t1):
    # constraints L(2) = 1, L(3) = 0 give L = 3 + 4X, and L(1) = 2
    ell = rs_t1.unit_interpolant()
    assert ell == [3, 4]
    assert rs_t1.evaluate(ell) == [2, 1, 0]


def test_unit_interpolant_edge_dimensions():
    field = PrimeField(11)
    # k = 1: the constraint list is just L(x_n) = 1, so L is the constant 1
    k1 = RSCode.with_default_points(field, 4, 1).unit_interpolant()
    assert k1 == [1]
    # k = n: L is the Lagrange basis polynomial of x_1
    code = RSCode.with_default_points(field, 4, 4)
    kn = code.unit_interpolant()
    assert degree(kn) == 3
    assert code.evaluate(kn) == [1, 0, 0, 0]
    # every dimension on random points, against the Lagrange oracle
    for code in property_codes():
        tail = list(code.points[code.n - code.k:])
        expected = lagrange_interpolate(code.field, tail, [1] + [0] * (code.k - 1))
        ell = code.unit_interpolant()
        assert ell == expected and degree(ell) == code.k - 1


def test_parity_rows_match_membership():
    field = PrimeField(101)
    code = RSCode.with_default_points(field, 6, 4)
    rows = code.parity_rows()
    assert len(rows) == 2 and all(len(r) == 6 for r in rows)
    rng = random.Random(5)
    for _ in range(50):
        v = [field.sample(rng) for _ in range(6)]
        syndrome_zero = all(
            sum(c * x for c, x in zip(row, v)) % field.p == 0 for row in rows
        )
        assert syndrome_zero == code.is_codeword(v)
        assert syndrome_zero == (degree(lagrange_interpolate(field, list(code.points), v)) < 4)

    # n - k rows of full rank that annihilate every monomial x^j, j < k (a
    # basis of the code), hence span exactly the dual code
    for code in property_codes():
        p = code.field.p
        rows = code.parity_rows()
        assert len(rows) == code.n - code.k
        assert all(len(row) == code.n for row in rows)
        if rows:
            assert linalg.rank(rows, p) == code.n - code.k
        monomials = [[pow(x, j, p) for x in code.points] for j in range(code.k)]
        words = monomials + [code.random_codeword(rng) for _ in range(5)]
        for row in rows:
            for w in words:
                assert sum(a * b for a, b in zip(row, w)) % p == 0


def oracle_point_sets():
    """(field, points): random distinct points that include 0 and p - 1, for
    odd and even n up to 300 (and below p), on both sides of the int64
    bound."""
    rng = random.Random(17)
    for p in (5, 61, 2**31 - 1, 2**31 + 11, 2**61 - 1):
        for n in sorted({min(n, p - 1) for n in (1, 2, 3, 4, 63, 64, 65, 150, 299, 300)}):
            points = [0, p - 1][:n] + rng.sample(range(1, p - 1), max(n - 2, 0))
            rng.shuffle(points)
            yield PrimeField(p), points


ORACLE_POINT_SETS = list(oracle_point_sets())


@pytest.mark.parametrize("field,points", ORACLE_POINT_SETS,
                         ids=lambda v: str(v.p) if isinstance(v, PrimeField) else f"n{len(v)}")
def test_parity_rows_and_evaluate_match_loops(field, points):
    p, n = field.p, len(points)
    rng = random.Random(n)
    all_rows = oracle.parity_rows(points, 1, p)  # the rows of every k are a prefix
    for k in sorted({1, n // 2, n - 1, n} - {0}):
        code = RSCode(field, points, k)
        rows = code.parity_rows()
        assert rows == all_rows[:n - k]
        coeffs = [field.sample(rng) for _ in range(k)]
        values = code.evaluate(coeffs)
        assert values == [oracle.horner(coeffs, x, p) for x in points]
        assert all(type(v) is int for row in rows for v in row)
        assert all(type(v) is int for v in values)
