import random
from fractions import Fraction

import pytest

from conftest import random_rim
from flowering.cayley import cayley_rim, gen_set_full
from flowering.rim_graph import (
    NOT_ISOMORPHISM,
    NOT_PARTITION,
    RIM,
    UNEQUAL_HALVES,
    EmptyCutError,
    FloweringCut,
    InvalidCutError,
    cut_graph,
    flowering_cut_validate,
    is_isomorphism,
    mu,
)


def test_validation():
    cay = cayley_rim(2, [1, 2, 3])
    assert cay.violations() == []

    two = RIM(1, [[1], [0]])
    assert two.violations() == []

    broken = RIM(1, [[1], [1]], check=False)
    assert broken.violations() == [(0, 0)]
    with pytest.raises(Exception):
        RIM(1, [[1], [1]])


def test_edge_classes_t1():
    cay = cayley_rim(2, [1, 2, 3])
    assert cay.classes.num_classes == 6  # 3*4/2, petal-free
    assert cay.classes.num_petals == 0

    g1, kept = cut_graph(cay, [0, 1])
    assert kept == [0, 1]
    assert g1.classes.num_classes == 5  # one true edge at index 0 plus 4 petals
    assert g1.classes.num_petals == 4
    assert g1.classes.sizes.count(2) == 1

    flower = RIM(3, [[0, 0, 0]])
    assert flower.classes.num_classes == 3
    assert flower.classes.num_petals == 3


def test_class_count_formula_random():
    rng = random.Random(0)
    for _ in range(20):
        g = random_rim(rng, rng.randrange(2, 12), rng.randrange(1, 6))
        assert 2 * g.classes.num_classes == g.n * g.num_vertices + g.classes.num_petals
        assert cut_graph(g, range(g.num_vertices))[0].violations() == []


def test_cut_graph():
    cay = cayley_rim(2, [1, 2, 3])
    g1, kept = cut_graph(cay, [0, 1])
    # edge to vertex 2 at index 1 (paper's l=2) becomes a petal at 0
    assert cay.adj[0][1] == 2
    assert g1.adj[0][1] == 0

    same, _ = cut_graph(cay, range(4))
    assert same == cay

    flower, _ = cut_graph(cay, [3])
    assert flower.num_vertices == 1
    assert flower.classes.num_petals == 3

    with pytest.raises(EmptyCutError):
        cut_graph(cay, [])


def test_cut_graphs_always_valid():
    rng = random.Random(1)
    for _ in range(20):
        g = random_rim(rng, 10, 4)
        size = rng.randrange(1, 10)
        child, _ = cut_graph(g, rng.sample(range(10), size))
        assert child.violations() == []


@pytest.mark.parametrize("r", [2, 3])
def test_cayley_translations_are_automorphisms(r):
    cay = cayley_rim(r, list(range(1, 1 << r)))
    for g in range(1 << r):
        phi = {v: v ^ g for v in range(1 << r)}
        assert is_isomorphism(cay, cay, phi)


def test_is_isomorphism_negatives():
    cay = cayley_rim(2, [1, 2, 3])
    assert is_isomorphism(cay, cay, {v: v for v in range(4)})
    assert not is_isomorphism(cay, cay, {v: 0 for v in range(4)})  # not injective
    assert not is_isomorphism(cay, cay, {0: 1, 1: 0, 2: 2, 3: 3})  # breaks adjacency


def test_flowering_cut_validate_and_reasons():
    cay = cayley_rim(2, [1, 2, 3])
    good_phi = {0: 2, 1: 3}
    assert flowering_cut_validate(cay, [0, 1], good_phi) is None

    assert flowering_cut_validate(cay, range(4), good_phi) == NOT_PARTITION
    assert flowering_cut_validate(cay, [0], {0: 1}) == UNEQUAL_HALVES

    # swapping two images of the canonical halving map breaks commutation
    cay3 = cayley_rim(3, list(range(1, 8)))
    good3 = {v: v | 4 for v in range(4)}
    assert flowering_cut_validate(cay3, range(4), good3) is None
    scrambled = {0: 5, 1: 4, 2: 6, 3: 7}
    assert flowering_cut_validate(cay3, range(4), scrambled) == NOT_ISOMORPHISM

    with pytest.raises(InvalidCutError) as err:
        FloweringCut(cay3, range(4), scrambled)
    assert err.value.reason == NOT_ISOMORPHISM


def test_project():
    cay = cayley_rim(2, [1, 2, 3])
    cut = FloweringCut(cay, [0, 1], {0: 2, 1: 3})
    assert cut.project(0) == 0
    assert cut.project(2) == 0  # the paper's pi(10) = 00
    assert cut.project(3) == 1
    for v in range(4):
        assert cut.project(cut.project(v)) == cut.project(v)
    with pytest.raises(Exception):
        cut.project(9)


def test_mu_values():
    cay = cayley_rim(2, [1, 2, 3])
    assert mu(cay) == 1  # petal-free regular graph

    g1, _ = cut_graph(cay, [0, 1])
    assert mu(g1) == 1  # two petals at each vertex: m = 5/2, 5 classes, 2 vertices

    flower = RIM(3, [[0, 0, 0]])
    assert mu(flower) == 1

    # uneven petals: index 1 loops at vertices 0,1 only
    g = RIM(2, [[1, 0], [0, 1], [3, 3], [2, 2]])
    assert g.petal_counts() == [1, 1, 0, 0]
    assert mu(g) == Fraction(2 * 5, 3 * 4)


def test_flowering_cut_petal_balance():
    # both halves of a flowering cut carry identical petal counts per index
    from flowering.cayley import blossoming_cayley, gen_set_full

    for r in (2, 3, 4):
        seq = blossoming_cayley(r, gen_set_full(r))
        for cut in seq.cuts:
            comp = sorted(set(range(cut.parent.num_vertices)) - set(cut.v_prime))
            other, _ = cut_graph(cut.parent, comp)
            for l in range(cut.parent.n):
                left = sum(1 for v in range(cut.child.num_vertices)
                           if cut.child.adj[v][l] == v)
                right = sum(1 for v in range(other.num_vertices)
                            if other.adj[v][l] == v)
                assert left == right


def test_json_round_trip_and_hash():
    # canonical_bytes is the adjacency table as sorted-key compact JSON; its
    # hash is bound into every proof header, so both are pinned
    cay = cayley_rim(2, [1, 2, 3])
    assert cay.canonical_bytes() == (
        b'{"adjacency":[[1,2,3],[0,3,2],[3,0,1],[2,1,0]],"n":3,"num_vertices":4}')
    assert cay.hash_hex() == (
        "28f919cce1c55eecd3337f0d40c64bd2cc8b02a9862bb4fcfec42979d6b019fe")
    assert RIM(3, cay.adj).hash_hex() == cay.hash_hex()
    assert cayley_rim(2, [3, 2, 1]).hash_hex() != cay.hash_hex()
