import hashlib
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import planted_cut, random_rim, scrambled
from flowering.cayley import blossoming_cayley, cayley_rim, gen_set_full, validate_gen_set
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
    mu,
)


def is_isomorphism(g1: RIM, g2: RIM, phi: dict[int, int]) -> bool:
    """Reference: phi is a bijection V(g1) -> V(g2) commuting with adjacency."""
    if g1.n != g2.n or g1.num_vertices != g2.num_vertices:
        return False
    if len(phi) != g1.num_vertices:
        return False
    image = set(phi.values())
    if len(image) != g2.num_vertices or not all(0 <= u < g2.num_vertices for u in image):
        return False
    for v in range(g1.num_vertices):
        if v not in phi:
            return False
        pv = phi[v]
        for l in range(g1.n):
            if phi.get(g1.adj[v][l]) != g2.adj[pv][l]:
                return False
    return True


def oracle_cut_validate(rim: RIM, v_prime, phi: dict[int, int]) -> str | None:
    """Reference validator: cut both halves, translate phi to their dense
    ids and ask is_isomorphism."""
    v_set = set(v_prime)
    all_v = set(range(rim.num_vertices))
    if not v_set or not v_set < all_v:
        return NOT_PARTITION
    if 2 * len(v_set) != rim.num_vertices:
        return UNEQUAL_HALVES
    comp = all_v - v_set
    if set(phi.keys()) != v_set or set(phi.values()) != comp:
        return NOT_ISOMORPHISM
    child1, kept1 = cut_graph(rim, v_set)
    child2, kept2 = cut_graph(rim, comp)
    to1 = {v: i for i, v in enumerate(kept1)}
    to2 = {v: i for i, v in enumerate(kept2)}
    translated = {to1[v]: to2[phi[v]] for v in v_set}
    if not is_isomorphism(child1, child2, translated):
        return NOT_ISOMORPHISM
    return None


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
    assert kept.tolist() == [0, 1]
    assert g1.classes.num_classes == 5  # one true edge at index 0 plus 4 petals
    assert g1.classes.num_petals == 4
    assert g1.classes.sizes.tolist().count(2) == 1

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
    # the reference oracle of the cut validator
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


def test_down():
    cay = cayley_rim(2, [1, 2, 3])
    cut = FloweringCut(cay, [0, 1], {0: 2, 1: 3})
    assert cut.down.tolist() == [0, 1, 0, 1]  # the paper's pi(10) = 00
    # down[v] is the child id of the one vertex of V' that is v or maps to v
    rng = random.Random(4)
    cuts = [c for r in (2, 3, 4) for c in blossoming_cayley(gen_set_full(r)).cuts]
    cuts += [FloweringCut(*planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5)))
             for _ in range(20)]
    for cut in cuts:
        assert len(cut.down) == cut.parent.num_vertices
        for v in range(cut.parent.num_vertices):
            u = cut.from_child[cut.down[v]]
            assert u in cut.v_prime and v in (u, cut.phi[u])


def test_direct_validation_matches_oracle():
    # the validator checks phi on the parent; the oracle cuts both halves
    # and checks an isomorphism between them
    rng = random.Random(5)
    cases = []
    for _ in range(150):
        graph, kept, phi = planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5))
        cases.append((graph, kept, phi))
        if len(phi) > 1:
            cases.append((graph, kept, scrambled(rng, phi)))
    for _ in range(150):
        size = 2 * rng.randrange(1, 6)
        graph = random_rim(rng, size, rng.randrange(1, 5), petal_prob=rng.random())
        kept = rng.sample(range(size), size // 2)
        rest = sorted(set(range(size)) - set(kept))
        rng.shuffle(rest)
        cases.append((graph, kept, dict(zip(kept, rest))))
    for r in (2, 3, 4):
        cay = cayley_rim(r, list(range(1, 1 << r)))
        size = 1 << r
        for _ in range(30):
            # V' a hyperplane and phi a translation off it: always a cut
            c = rng.randrange(1, size)
            kept = [v for v in range(size) if bin(v & c).count("1") % 2 == 0]
            g = rng.choice([v for v in range(size) if v not in kept])
            phi = {v: v ^ g for v in kept}
            cases.append((cay, kept, phi))
            cases.append((cay, kept, scrambled(rng, phi)))
            # a random half with a translation mapping it onto the other half
            g = rng.randrange(1, size)
            kept = []
            for v in rng.sample(range(size), size):
                if v not in kept and v ^ g not in kept:
                    kept.append(v)
            cases.append((cay, kept, {v: v ^ g for v in kept}))
    # bad partitions and bad maps
    t1 = cayley_rim(2, [1, 2, 3])
    cases += [
        (t1, [], {}), (t1, range(4), {}), (t1, [0, 4], {0: 2, 4: 3}),
        (t1, [-1, 0], {-1: 2, 0: 3}), (t1, [0], {0: 1}), (t1, [0, 1, 2], {}),
        (t1, [0, 1], {0: 2}), (t1, [0, 1], {0: 2, 1: 2}), (t1, [0, 1], {0: 1, 1: 2}),
        (t1, [0, 1], {0: 2, 1: 4}), (t1, [0, 1], {0: 2, 2: 3}),
    ]
    outcomes = {}
    for graph, kept, phi in cases:
        reason = flowering_cut_validate(graph, kept, phi)
        assert reason == oracle_cut_validate(graph, kept, phi), (graph.adj, kept, phi)
        outcomes[reason] = outcomes.get(reason, 0) + 1
    assert set(outcomes) == {None, NOT_PARTITION, UNEQUAL_HALVES, NOT_ISOMORPHISM}
    assert min(outcomes[None], outcomes[NOT_ISOMORPHISM]) > 150


def test_fold_plan_is_the_fold_relation():
    # child class of (vc, l) <- parent classes of (v, l) and (phi(v), l),
    # v = from_child[vc], whichever endpoint of the child class vc is
    rng = random.Random(6)
    chains = [blossoming_cayley(gen_set_full(r)) for r in (1, 2, 3, 4)]
    chains.append(blossoming_cayley(validate_gen_set(4, [8, 4, 2, 1, 15], 3)))
    cuts = [cut for seq in chains for cut in seq.cuts]
    cuts += [FloweringCut(*planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5)))
             for _ in range(20)]
    for cut in cuts:
        pc, cc = cut.parent.classes, cut.child.classes
        assert cut.fold_plan.shape == (2, cc.num_classes)
        for vc, v in enumerate(cut.from_child.tolist()):
            for l in range(cut.parent.n):
                assert tuple(cut.fold_plan[:, cc.id_of(vc, l)].tolist()) == (
                    pc.id_of(v, l), pc.id_of(cut.phi[v], l))


def test_mu_values():
    cay = cayley_rim(2, [1, 2, 3])
    assert mu(cay) == 1  # petal-free regular graph

    g1, _ = cut_graph(cay, [0, 1])
    assert mu(g1) == 1  # two petals at each vertex: m = 5/2, 5 classes, 2 vertices

    flower = RIM(3, [[0, 0, 0]])
    assert mu(flower) == 1

    # uneven petals: index 1 loops at vertices 0,1 only
    g = RIM(2, [[1, 0], [0, 1], [3, 3], [2, 2]])
    assert g.petal_counts().tolist() == [1, 1, 0, 0]
    assert mu(g) == Fraction(2 * 5, 3 * 4)


def test_flowering_cut_petal_balance():
    # both halves of a flowering cut carry identical petal counts per index
    for r in (2, 3, 4):
        seq = blossoming_cayley(gen_set_full(r))
        for cut in seq.cuts:
            comp = sorted(set(range(cut.parent.num_vertices)) - set(cut.v_prime))
            other, _ = cut_graph(cut.parent, comp)
            for l in range(cut.parent.n):
                left = sum(1 for v in range(cut.child.num_vertices)
                           if cut.child.adj[v][l] == v)
                right = sum(1 for v in range(other.num_vertices)
                            if other.adj[v][l] == v)
                assert left == right


def test_digest_names_the_table():
    # SHA-256 of a tag, n and |V| as u64 and the raw adjacency as row-major
    # little-endian int64; bound into every proof header, so it is pinned
    cay = cayley_rim(2, [1, 2, 3])
    header = b"flowering-rim-v1" + struct.pack("<QQ", 3, 4)
    assert cay.digest() == hashlib.sha256(
        header + np.array([[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]], dtype="<i8").tobytes()
    ).digest()
    assert cay.digest().hex() == (
        "790d191a40d6286753d987e6a496e17a93503f984ead574a41bec28af7fcdc03")
    assert cay.digest() is cay.digest()  # hashed once per graph
    # equal tables give equal digests, whatever the array's memory order
    assert RIM(3, cay.adj.tolist()).digest() == cay.digest()
    assert RIM(3, np.asfortranarray(cay.adj)).digest() == cay.digest()
    assert cayley_rim(2, [3, 2, 1]).digest() != cay.digest()
    # the same twelve entries read as another shape name another graph
    assert RIM(6, cay.adj.reshape(2, 6), check=False).digest() != cay.digest()
