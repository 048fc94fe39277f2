import random

import numpy as np
import pytest

from conftest import planted_cut, random_word
from flowering.cayley import blossoming_cayley, cayley_rim, gen_set_full, validate_gen_set
from flowering.field import PrimeField
from flowering.errors import FloweringError
from flowering.folding import BlossomingSequence, CutMismatchError, fold, pair_positions
from flowering.graph_code import GraphCode, Word, cut_word, cut_word_on
from flowering.reed_solomon import RSCode
from flowering.rim_graph import RIM, FloweringCut, InvalidCutError


def test_fold_alpha_zero_is_cut(t1):
    # cut_word restricts through the (v, l) accessor, independently of the
    # fold plan that fold and cut_word_on share
    rng = random.Random(0)
    seq = blossoming_cayley(gen_set_full(4))
    for s in (t1["seq"], seq):
        for cut in s.cuts:
            for _ in range(3):
                w = random_word(rng, cut.parent, t1["field"])
                expected = cut_word(w, cut.v_prime).values.tolist()
                assert fold(cut, w, 0).values.tolist() == expected
                assert cut_word_on(w, cut).values.tolist() == expected


def test_fold_constant_and_index_words(t1):
    graph = t1["seq"].graphs[0]
    cut = t1["seq"].cuts[0]
    field = t1["field"]
    for alpha in range(5):
        folded = fold(cut, Word.constant(graph, field, 3), alpha)
        assert all(v == 3 * (1 + alpha) % 5 for v in folded.values)

        y = [1, 2, 3]
        folded_idx = fold(cut, Word.from_index_values(graph, field, y), alpha)
        for v in range(folded_idx.graph.num_vertices):
            assert folded_idx.local_view(v) == [(1 + alpha) * x % 5 for x in y]


def test_fold_mismatch(t1):
    other = cayley_rim(3, list(range(1, 8)))
    w = Word.constant(other, t1["field"], 1)
    with pytest.raises(CutMismatchError):
        fold(t1["seq"].cuts[0], w, 1)


def test_fold_well_defined_on_both_slots():
    # recompute the fold at both slots of every child class and compare
    field = PrimeField(101)
    gens = gen_set_full(3)
    seq = blossoming_cayley(gens)
    cut = seq.cuts[0]
    rng = random.Random(1)
    for _ in range(20):
        w = random_word(rng, seq.graphs[0], field)
        alpha = field.sample(rng)
        folded = fold(cut, w, alpha)
        child = cut.child
        for vc in range(child.num_vertices):
            vp = cut.from_child[vc]
            wp = cut.phi[vp]
            for l in range(child.n):
                expected = (w.at(vp, l) + alpha * w.at(wp, l)) % field.p
                assert folded.at(vc, l) == expected
        assert folded.graph.violations() == []


def test_fold_linearity():
    field = PrimeField(101)
    seq = blossoming_cayley(gen_set_full(3))
    cut = seq.cuts[0]
    rng = random.Random(2)
    p = field.p
    for _ in range(20):
        f = random_word(rng, seq.graphs[0], field)
        g = random_word(rng, seq.graphs[0], field)
        a, b, alpha = (field.sample(rng) for _ in range(3))
        combo = Word(seq.graphs[0], field,
                     [(a * x + b * y) % p for x, y in zip(f.values, g.values)])
        lhs = fold(cut, combo, alpha).values.tolist()
        ff, fg = fold(cut, f, alpha).values.tolist(), fold(cut, g, alpha).values.tolist()
        assert lhs == [(a * x + b * y) % p for x, y in zip(ff, fg)]


def test_completeness_kernel_on_kernel_basis_codewords(t1):
    # random codewords from the parity-check kernel stay codewords after folds
    code = t1["code"]
    seq = t1["seq"]
    field = t1["field"]
    basis = code.codeword_basis()
    rng = random.Random(3)
    p = field.p
    for _ in range(50):
        coeffs = [rng.randrange(p) for _ in basis]
        vec = [0] * seq.graphs[0].classes.num_classes
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b):
                vec[i] = (vec[i] + c * x) % p
        word = Word(seq.graphs[0], field, vec)
        assert code.is_codeword(word)
        for level, cut in enumerate(seq.cuts):
            word = fold(cut, word, field.sample(rng))
            assert GraphCode(seq.graphs[level + 1], t1["rs"]).is_codeword(word)


def test_at_most_one_reviving_alpha_exhaustive():
    # for non-code view pairs, at most one challenge makes the fold view RS
    field = PrimeField(101)
    rs = RSCode.with_default_points(field, 5, 3)
    rng = random.Random(4)
    saw_one = 0
    for _ in range(200):
        a = [field.sample(rng) for _ in range(5)]
        b = [field.sample(rng) for _ in range(5)]
        if rs.is_codeword(a) and rs.is_codeword(b):
            continue
        revivers = [
            alpha for alpha in range(field.p)
            if rs.is_codeword([(x + alpha * y) % field.p for x, y in zip(a, b)])
        ]
        assert len(revivers) <= 1
        saw_one += bool(revivers)
    # crafted pair that is revived exactly once
    good = rs.random_codeword(rng)
    junk = [field.sample(rng) for _ in range(5)]
    while rs.is_codeword(junk):
        junk = [field.sample(rng) for _ in range(5)]
    a = [(g + j) % field.p for g, j in zip(good, junk)]
    b = [(101 - 1) * j % field.p for j in junk]  # fold at alpha=1 cancels the junk
    revivers = [
        alpha for alpha in range(field.p)
        if rs.is_codeword([(x + alpha * y) % field.p for x, y in zip(a, b)])
    ]
    assert revivers == [1]


def test_blossoming_validate(t1):
    # a chain is valid by construction: its graphs are the children of its
    # cuts, each cut is validated on the graph before it, and a chain that
    # stops short of a flower is refused
    seq = t1["seq"]
    assert seq.r == 2
    assert seq.graphs[1:] == [cut.child for cut in seq.cuts]
    specs = [(cut.v_prime, cut.phi) for cut in seq.cuts]
    assert BlossomingSequence(seq.graphs[0], specs).graphs == seq.graphs
    # a one-vertex flower's n petals are its classes 0..n-1 in index order
    dense = BlossomingSequence(seq.graphs[0], specs)
    assert (list(dense.flower_ids()) == list(range(dense.n))
            == dense.graphs[-1].classes.class_of[0].tolist())

    with pytest.raises(FloweringError, match="NotFlower"):
        BlossomingSequence(seq.graphs[0], specs[:1])
    # the second cut halves graph 1, not graph 0
    with pytest.raises(InvalidCutError):
        BlossomingSequence(seq.graphs[0], specs[1:])
    # a one-vertex graph with no cuts is a chain of length 0
    assert BlossomingSequence(seq.graphs[2], []).r == 0


def test_fold_pairs_partition_parent_classes():
    # the distinct unordered pairs {plan[0][c], plan[1][c]} of every cut are
    # pairwise disjoint and cover each parent class once, a self-pair
    # covering one; several child classes may name the same pair
    chains = [blossoming_cayley(gen_set_full(r)) for r in range(2, 9)]
    chains += [blossoming_cayley(validate_gen_set(4, vectors, 3))
               for vectors in ([8, 4, 2, 1, 15], [1, 2, 4, 8, 15])]
    for seq in chains:
        for cut in seq.cuts:
            pairs = {frozenset(pair) for pair in cut.fold_plan.T.tolist()}
            covered = sorted(c for pair in pairs for c in pair)
            assert covered == list(range(cut.parent.classes.num_classes))


def _partitions(cut) -> bool:
    # the distinct pairs cover each parent class once
    pairs = {frozenset(pair) for pair in cut.fold_plan.T.tolist()}
    return (sorted(c for pair in pairs for c in pair)
            == list(range(cut.parent.classes.num_classes)))


def _assert_pair_order(cut, at):
    # every two-class pair {plan[0][c], plan[1][c]} takes positions 2j and
    # 2j+1, and the self-pairs come last
    assert sorted(at.tolist()) == list(range(cut.parent.classes.num_classes))
    a, b = at[cut.fold_plan]
    two = a != b
    assert (np.minimum(a, b)[two] % 2 == 0).all()
    assert (np.abs(a - b)[two] == 1).all()
    alone = sorted(set(a[~two].tolist()))
    assert alone == list(range(at.size - len(alone), at.size))


def test_commit_positions_in_pair_order(t1):
    # each level below the flower is committed in its cut's pair order, a
    # permutation of the level's classes, and the flower in class order
    chains = [blossoming_cayley(gen_set_full(r)) for r in range(2, 9)]
    chains += [blossoming_cayley(validate_gen_set(4, vectors, 3))
               for vectors in ([8, 4, 2, 1, 15], [1, 2, 4, 8, 15])]
    chains.append(t1["seq"])
    for seq in chains:
        positions = seq.commit_positions()
        assert positions is seq.commit_positions()  # built once per chain
        assert len(positions) == seq.r + 1
        for cut, at in zip(seq.cuts, positions):
            _assert_pair_order(cut, at)
        assert positions[-1].tolist() == list(range(seq.graphs[-1].classes.num_classes))


def test_commit_positions_fall_back_to_class_order():
    # the edge {0, 3} crosses a cut whose phi is 0 -> 2, 1 -> 3, so its class
    # is in the fold pairs of both child classes, with {2} and with {1}: the
    # pairs do not partition level 0, which is committed in class order
    graph = RIM(1, [[3], [1], [2], [0]])
    seq = BlossomingSequence(graph, [([0, 1], {0: 2, 1: 3}), ([0], {0: 1})])
    assert seq.cuts[0].fold_plan.tolist() == [[0, 1], [2, 0]]
    assert [at.tolist() for at in seq.commit_positions()] == [[0, 1, 2], [0, 1], [0]]
    # on random planted cuts, whose cross edges may join a class to two
    # pairs, the positions follow the pairs exactly when they partition
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        graph, kept, phi = planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5))
        cut = FloweringCut(graph, kept, phi)
        at = pair_positions(cut)
        seen.add(_partitions(cut))
        if _partitions(cut):
            _assert_pair_order(cut, at)
        else:
            assert at.tolist() == list(range(graph.classes.num_classes))
    assert seen == {True, False}
