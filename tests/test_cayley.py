import itertools
from fractions import Fraction

import pytest

from flowering.cayley import (
    MAX_GRAPH_ENTRIES,
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
    validate_gen_set,
)
from flowering.errors import FloweringError, TooLargeError
from flowering.field import PrimeField
from flowering.graph_code import GraphCode, relative_weight
from flowering.reed_solomon import RSCode
from flowering.rim_graph import flowering_cut_validate, mu


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
    with pytest.raises(TooLargeError):  # 2^40 x 40 table entries, refused unbuilt
        cayley_rim(40, [1 << i for i in range(40)])


def test_cayley_rim_refuses_genset_of_other_r():
    # gen_set_full(4) spans only half of F_2^5: two disconnected copies
    with pytest.raises(FloweringError, match="of F_2\\^4 does not generate F_2\\^5"):
        cayley_rim(5, gen_set_full(4))
    assert cayley_rim(4, gen_set_full(4)).num_vertices == 16


def test_gen_set_full():
    g2 = gen_set_full(2)
    assert g2.vectors == (1, 2, 3)  # the bit strings 01, 10, 11
    assert g2.d == 3 and g2.independence_verified

    # the one vector of F_2^1 admits d = 2 only (d - 1 <= n), as validation
    # agrees
    g1 = gen_set_full(1)
    assert g1.d == 2 and validate_gen_set(1, list(g1.vectors), g1.d) == g1

    g3 = gen_set_full(3)
    assert g3.n == 7
    # d - 1 = 2: all pairs of distinct nonzero vectors are independent
    for a, b in itertools.combinations(g3.vectors, 2):
        assert a ^ b != 0

    # the table cap admits the full set at r = 12, 4,096 x 4,095 entries, and
    # refuses r = 40 before its vectors are built
    assert gen_set_full(12).n == 4095 and 4096 * 4095 <= MAX_GRAPH_ENTRIES
    with pytest.raises(TooLargeError):
        gen_set_full(40)


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


def assert_blossoming(seq):
    """Re-check the chain: every cut is a flowering cut of the graph before
    it, its child is the next graph, and the last graph is a flower."""
    for parent, cut, child in zip(seq.graphs, seq.cuts, seq.graphs[1:]):
        assert cut.parent is parent and cut.child is child
        assert flowering_cut_validate(parent, cut.v_prime, cut.phi) is None
    assert len(seq.graphs) == seq.r + 1
    assert seq.graphs[-1].num_vertices == 1


def test_blossoming_cayley_t1_structure():
    seq = blossoming_cayley(gen_set_full(2))
    assert [g.num_vertices for g in seq.graphs] == [4, 2, 1]
    assert [g.classes.num_classes for g in seq.graphs] == [6, 5, 3]
    assert [g.classes.num_petals for g in seq.graphs] == [0, 4, 3]
    assert_blossoming(seq)


def test_blossoming_cayley_r1():
    seq = blossoming_cayley(gen_set_full(1))
    assert seq.r == 1
    assert_blossoming(seq)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_blossoming_cayley_validates(r):
    seq = blossoming_cayley(gen_set_full(r))
    assert_blossoming(seq)
    assert seq.r == r


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_mu_is_one_at_every_level(r):
    seq = blossoming_cayley(gen_set_full(r))
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
    # d = 3 is decided exactly: distinct nonzero vectors are pairwise independent
    full = validate_gen_set(11, list(range(1, 1 << 11)), 3)
    assert full.independence_verified and full == gen_set_full(11)
    # 1024 vectors with the top bit set, d = 4: C(n,3) > 10^6, so independence
    # is spot-checked only (every triple sums to a vector with the top bit set)
    gens = validate_gen_set(11, list(range(1 << 10, 1 << 11)), 4)
    assert not gens.independence_verified


def test_validate_gen_set_exhaustive_check_and_refusals():
    # d = 4 with C(4, 3) subsets: every 3-subset is checked, so the first
    # dependent one (1 + 2 = 3) is the one reported
    with pytest.raises(DependentSubsetError) as exc:
        validate_gen_set(3, [1, 2, 3, 4], 4)
    assert exc.value.subset == (1, 2, 3)
    gens = validate_gen_set(3, [1, 2, 4, 7], 4)
    assert gens.independence_verified and gens.vectors == (1, 2, 4, 7)
    for vectors in ([0, 1, 2], [1, 2, 4], [-1, 1, 2]):  # zero, r + 1 bits at r = 2, negative
        with pytest.raises(ZeroGeneratorError):
            validate_gen_set(2, vectors, 3)
    with pytest.raises(SpanDeficientError):  # no vectors span nothing
        validate_gen_set(2, [], 3)
    with pytest.raises(ParameterConstraintViolatedError):  # d - 1 = 4 > n = 3
        validate_gen_set(2, [1, 2, 3], 5)
    with pytest.raises(DuplicateGeneratorError):  # d = 2 checks no subset
        validate_gen_set(2, [1, 2, 2], 2)
