import itertools
import random
from fractions import Fraction

import pytest

from flowering.cayley import (
    DependentSubsetError,
    DuplicateGeneratorError,
    GenSet,
    ParameterConstraintViolatedError,
    SpanDeficientError,
    ZeroGeneratorError,
    blossoming_cayley,
    cayley_rim,
    gen_set_from_parity_check,
    gen_set_full,
    min_distance_bounds,
    span_of,
    upper_bound_witness,
)
from flowering.field import PrimeField
from flowering.graph_code import GraphCode, relative_weight
from flowering.reed_solomon import RSCode
from flowering.rim_graph import mu


def test_cayley_rim_t1():
    g = cayley_rim(2, [1, 2, 3])
    assert g.num_vertices == 4
    assert g.classes.num_classes == 6
    assert g.classes.num_petals == 0
    assert g.violations() == []


def test_cayley_rim_edges_and_errors():
    two = cayley_rim(1, [1])
    assert two.num_vertices == 2
    assert two.classes.num_classes == 1

    with pytest.raises(ZeroGeneratorError):
        cayley_rim(2, [0, 1])
    with pytest.raises(DuplicateGeneratorError):
        cayley_rim(2, [1, 1])


def test_gen_set_full():
    g2 = gen_set_full(2)
    assert g2.vectors == (1, 2, 3)  # the bit strings 01, 10, 11
    assert g2.d == 3 and g2.independence_verified

    g3 = gen_set_full(3)
    assert g3.n == 7
    # d - 1 = 2: all pairs of distinct nonzero vectors are independent
    for a, b in itertools.combinations(g3.vectors, 2):
        assert a ^ b != 0


def test_gen_set_from_parity_check_hamming():
    hamming = [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ]
    gens = gen_set_from_parity_check(hamming, 3)
    assert sorted(gens.vectors) == list(range(1, 8))
    assert gens.independence_verified

    repeated = [  # columns 1,2,4,5,5: spans, but the equal pair sums to zero
        [0, 0, 1, 1, 1],
        [0, 1, 0, 0, 0],
        [1, 0, 0, 1, 1],
    ]
    with pytest.raises(DependentSubsetError):
        gen_set_from_parity_check(repeated, 3)
    with pytest.raises(SpanDeficientError):
        gen_set_from_parity_check([[0, 0, 0], [0, 1, 1], [1, 0, 1]], 3)


def test_blossoming_cayley_t1_structure():
    seq = blossoming_cayley(2, gen_set_full(2))
    assert [g.num_vertices for g in seq.graphs] == [4, 2, 1]
    assert [g.classes.num_classes for g in seq.graphs] == [6, 5, 3]
    assert [g.classes.num_petals for g in seq.graphs] == [0, 4, 3]
    assert seq.validate() is None


def test_blossoming_cayley_r1():
    seq = blossoming_cayley(1, gen_set_full(1))
    assert seq.r == 1
    assert seq.graphs[-1].num_vertices == 1
    assert seq.validate() is None


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_blossoming_cayley_validates(r):
    seq = blossoming_cayley(r, gen_set_full(r))
    assert seq.validate() is None
    assert seq.r == r


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_mu_is_one_at_every_level(r):
    seq = blossoming_cayley(r, gen_set_full(r))
    for g in seq.graphs:
        assert mu(g) == 1


def test_min_distance_bounds_values():
    assert min_distance_bounds(2, 3, 2, 3) == (Fraction(1, 3), Fraction(2, 3))
    assert min_distance_bounds(3, 7, 6, 3) == (Fraction(1, 14), Fraction(1, 7))
    with pytest.raises(ParameterConstraintViolatedError):
        min_distance_bounds(3, 7, 7, 3)


def test_witness_t1(t1):
    code = t1["code"]
    witness = upper_bound_witness(code, t1["gens"])
    # S' = {01, 10} spans all of F_2^2, so every view reads (2, 1, 0)
    for v in range(4):
        assert witness.local_view(v) == [2, 1, 0]
    assert code.is_codeword(witness)
    assert sum(1 for v in witness.values if v) == 4  # (n-k+1) 2^(d-2)
    assert relative_weight(witness) == Fraction(2, 3)


def test_witness_r3():
    field = PrimeField(2147483647)
    gens = gen_set_full(3)
    graph = cayley_rim(3, gens)
    code = GraphCode(graph, RSCode.with_default_points(field, 7, 6))
    witness = upper_bound_witness(code, gens)
    assert code.is_codeword(witness)
    assert sum(1 for v in witness.values if v) == 4  # 4 of 28
    assert relative_weight(witness) == Fraction(4, 28)
    lower, upper = min_distance_bounds(3, 7, 6, 3)
    assert relative_weight(witness) == upper

    with pytest.raises(ParameterConstraintViolatedError):
        upper_bound_witness(GraphCode(graph, RSCode.with_default_points(field, 7, 5)), gens)


def test_witness_span_structure():
    gens = gen_set_full(3)
    span = span_of(gens.vectors[:2])
    assert span == {0, 1, 2, 3}
    field = PrimeField(101)
    code = GraphCode(cayley_rim(3, gens), RSCode.with_default_points(field, 7, 6))
    witness = upper_bound_witness(code, gens)
    for v in range(8):
        view = witness.local_view(v)
        if v in span:
            assert any(view)
        else:
            assert not any(view)


@pytest.mark.parametrize("r,k", [(2, 2), (3, 5), (3, 6)])
def test_rate_bound(r, k):
    # dim / (n 2^(r-1)) >= 2k/n - 1
    field = PrimeField(2147483647)
    gens = gen_set_full(r)
    code = GraphCode(cayley_rim(r, gens), RSCode.with_default_points(field, gens.n, k))
    n = gens.n
    length = n * (1 << (r - 1))
    assert Fraction(code.dimension(), length) >= Fraction(2 * k, n) - 1


def test_gen_set_json_round_trip():
    gens = gen_set_full(3)
    again = GenSet.from_json(gens.to_json())
    assert again == gens


def test_gen_set_spot_check_path_flags_unverified():
    from flowering.cayley import validate_gen_set

    # d = 3 is decided exactly: distinct nonzero vectors are pairwise independent
    full = validate_gen_set(11, list(range(1, 1 << 11)), 3)
    assert full.independence_verified and full == gen_set_full(11)
    # 1024 vectors with the top bit set, d = 4: C(n,3) > 10^6, so independence
    # is spot-checked only (every triple sums to a vector with the top bit set)
    gens = validate_gen_set(11, list(range(1 << 10, 1 << 11)), 4)
    assert not gens.independence_verified
