import itertools
import random

import pytest

from conftest import random_word
from flowering.cayley import blossoming_cayley, cayley_rim, gen_set_full
from flowering.field import PrimeField
from flowering.folding import BlossomingSequence, CutMismatchError, blossoming_validate, fold
from flowering.graph_code import GraphCode, Word, cut_word, cut_word_on
from flowering.reed_solomon import RSCode
from flowering.rim_graph import RIM, FloweringCut


def test_fold_alpha_zero_is_cut(t1):
    # cut_word restricts through the (v, l) accessor, independently of the
    # fold plan that fold and cut_word_on share
    rng = random.Random(0)
    seq = blossoming_cayley(4, gen_set_full(4))
    for s in (t1["seq"], seq):
        for cut in s.cuts:
            for _ in range(3):
                w = random_word(rng, cut.parent, t1["field"])
                expected = cut_word(w, cut.v_prime).values
                assert fold(cut, w, 0).values == expected
                assert cut_word_on(w, cut).values == expected


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
    seq = blossoming_cayley(3, gens)
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
    seq = blossoming_cayley(3, gen_set_full(3))
    cut = seq.cuts[0]
    rng = random.Random(2)
    p = field.p
    for _ in range(20):
        f = random_word(rng, seq.graphs[0], field)
        g = random_word(rng, seq.graphs[0], field)
        a, b, alpha = (field.sample(rng) for _ in range(3))
        combo = Word(seq.graphs[0], field,
                     [(a * x + b * y) % p for x, y in zip(f.values, g.values)])
        lhs = fold(cut, combo, alpha).values
        ff, fg = fold(cut, f, alpha).values, fold(cut, g, alpha).values
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
    seq = t1["seq"]
    assert seq.validate() is None
    assert seq.r == 2

    truncated = BlossomingSequence(seq.graphs[:2], seq.cuts[:1])
    assert truncated.validate() == "NotFlower"

    wrong_graph = RIM(3, [[0, 1, 0], [1, 0, 1]], check=False)
    wrong_graph.adj[0][1] = 0
    wrong_graph.adj[1][1] = 1
    broken = BlossomingSequence(
        [seq.graphs[0], RIM(3, wrong_graph.adj), seq.graphs[2]], seq.cuts
    )
    assert "CutMismatch at level 1" in broken.validate()
