"""The array-backed graph tables and words against the reference loops of
loop_oracle: class index, violations, petal counts, cut graphs, the cut
validator, down, fold plans, folds and restrictions, entry by entry."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import loop_oracle as oracle
from conftest import planted_cut, random_rim, scrambled
from flowering import linalg
from flowering.adversaries import far_word, lazy_copy
from flowering.cayley import (
    blossoming_cayley,
    cayley_rim,
    gen_set_full,
    upper_bound_witness,
    validate_gen_set,
)
from flowering.commitment import MerkleTree
from flowering.errors import FloweringError
from flowering.experiments import gen_instance, honest_run, random_codeword_word
from flowering.field import PrimeField
from flowering.folding import fold
from flowering.graph_code import Word, cut_word, cut_word_on
from flowering.iopp import ProtocolParams
from flowering.reed_solomon import RSCode
from flowering.niproof import prove_noninteractive, verify_noninteractive
from flowering.rim_graph import RIM, FloweringCut, cut_graph, flowering_cut_validate


def assert_graph_tables(graph: RIM) -> None:
    adj = graph.adj.tolist()
    class_of, reps, sizes, petals = oracle.classes(adj, graph.n)
    idx = graph.classes
    assert idx.num_classes == len(reps) and idx.num_petals == len(petals)
    assert idx.class_of.ravel().tolist() == class_of
    assert list(zip(*(row.tolist() for row in idx.reps))) == reps
    assert idx.sizes.tolist() == sizes
    assert idx.petals.tolist() == petals
    for table in (idx.class_of, *idx.reps, idx.sizes, idx.petals, graph.adj):
        assert table.dtype == np.int64
    assert graph.violations() == oracle.violations(adj, graph.n) == []
    assert graph.petal_counts().tolist() == oracle.petal_counts(adj)


def assert_cut_tables(cut: FloweringCut) -> None:
    parent_adj = cut.parent.adj.tolist()
    child_adj, kept = oracle.cut_graph(parent_adj, cut.v_prime)
    assert cut.child.adj.tolist() == child_adj
    assert cut.from_child.tolist() == kept == list(cut.v_prime)
    assert cut.down.tolist() == oracle.down(cut.parent.num_vertices, kept, cut.phi)
    plan = oracle.fold_plan(parent_adj, child_adj, cut.parent.n, kept, cut.phi)
    assert list(zip(*cut.fold_plan.tolist())) == plan
    # the array fold reads the plan as the list fold does
    values = [(31 * c + 7) % 101 for c in range(cut.parent.classes.num_classes)]
    word = Word(cut.parent, PrimeField(101), values)
    assert fold(cut, word, 5).values.tolist() == oracle.fold(plan, values, 5, 101)
    assert_graph_tables(cut.child)


# every full genset with r <= 8 (r = 2 is T1) and one non-full genset
GENSETS = [gen_set_full(r) for r in range(1, 9)] + [validate_gen_set(4, [8, 4, 2, 1, 15], 3)]


@pytest.mark.parametrize("gens", GENSETS, ids=[f"r{g.r}-n{g.n}" for g in GENSETS])
def test_cayley_chain_tables(gens):
    seq = blossoming_cayley(gens)
    assert seq.graphs[0].adj.tolist() == oracle.cayley_adj(gens.r, gens.vectors)
    assert_graph_tables(seq.graphs[0])
    for cut in seq.cuts:
        assert flowering_cut_validate(cut.parent, cut.v_prime, cut.phi) is None
        assert_cut_tables(cut)


def test_random_rim_and_planted_cut_tables():
    rng = random.Random(11)
    for _ in range(60):
        graph = random_rim(rng, rng.randrange(1, 14), rng.randrange(1, 6),
                           petal_prob=rng.random())
        assert_graph_tables(graph)
        vertices = rng.sample(range(graph.num_vertices), rng.randrange(1, graph.num_vertices + 1))
        child, kept = cut_graph(graph, vertices)
        assert (child.adj.tolist(), kept.tolist()) == oracle.cut_graph(graph.adj.tolist(),
                                                                        vertices)
    for _ in range(60):
        graph, kept, phi = planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5))
        assert_graph_tables(graph)
        assert_cut_tables(FloweringCut(graph, kept, phi))


def test_cut_validate_matches_loop():
    # the loop validator sees the same verdict on valid, scrambled and
    # unbalanced maps
    rng = random.Random(12)
    verdicts = set()
    for _ in range(200):
        graph, kept, phi = planted_cut(rng, rng.randrange(1, 7), rng.randrange(1, 5))
        maps = [phi, scrambled(rng, phi)] if len(phi) > 1 else [phi]
        maps.append({v: rng.randrange(graph.num_vertices) for v in kept})
        for candidate in maps:
            verdict = flowering_cut_validate(graph, kept, candidate)
            assert verdict == oracle.cut_validate(graph.adj.tolist(), kept, candidate)
            verdicts.add(verdict)
    assert verdicts == {None, "NotIsomorphism"}


def test_violations_match_loop():
    rng = random.Random(13)
    found = 0
    for _ in range(100):
        graph = random_rim(rng, rng.randrange(1, 10), rng.randrange(1, 5))
        adj = graph.adj.tolist()
        for _ in range(rng.randrange(1, 4)):
            v, l = rng.randrange(len(adj)), rng.randrange(graph.n)
            adj[v][l] = rng.randrange(-2, len(adj) + 2)
        broken = RIM(graph.n, adj, check=False)
        assert broken.violations() == oracle.violations(adj, graph.n)
        found += bool(broken.violations())
    assert found > 50


def test_cayley_rim_matches_loop():
    for r, vectors in ((1, [1]), (3, [4, 2, 1]), (3, [7, 1, 2, 4, 3]), (5, [1, 2, 4, 8, 16, 31])):
        assert cayley_rim(r, vectors).adj.tolist() == oracle.cayley_adj(r, vectors)


# int64 below 2^31 and Python ints above
WORD_PRIMES = [5, 2**31 - 1, 2**31 + 11, 2**61 - 1]


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_word_arrays_match_loop(p):
    # fold, cut_word_on, cut_word and from_index_values against the list
    # loops on every cut of the full gensets r <= 6 and of [8, 4, 2, 1, 15],
    # with words holding 0 and p - 1 and alpha in {0, 1, p - 1, random}
    field = PrimeField(p)
    rng = random.Random(p)
    for gens in (g for g in GENSETS if g.r <= 6):
        for cut in blossoming_cayley(gens).cuts:
            parent, n = cut.parent, cut.parent.n
            adj = parent.adj.tolist()
            plan = list(zip(*cut.fold_plan.tolist()))
            size = parent.classes.num_classes
            some = ([0, p - 1] + [rng.randrange(p) for _ in range(size)])[:size]
            subset = rng.sample(range(parent.num_vertices),
                                rng.randrange(1, parent.num_vertices + 1))
            for values in ([p - 1] * size, some):
                word = Word(parent, field, values)
                assert word.values.dtype == field.dtype
                for alpha in (0, 1, p - 1, rng.randrange(p)):
                    folded = fold(cut, word, alpha)
                    assert folded.values.dtype == field.dtype
                    assert folded.values.tolist() == oracle.fold(plan, values, alpha, p)
                assert cut_word_on(word, cut).values.tolist() == oracle.cut_word_on(plan, values)
                for vertices in (cut.v_prime, subset):
                    assert (cut_word(word, vertices).values.tolist()
                            == oracle.cut_word(adj, n, values, vertices))
            # index values outside [0, p) are reduced
            y = ([0, p - 1, p, -1, 2**64 + 3] + [rng.randrange(p) for _ in range(n)])[:n]
            index_word = Word.from_index_values(parent, field, y)
            assert index_word.values.dtype == field.dtype
            assert index_word.values.tolist() == oracle.index_word(adj, n, y, p)


def test_word_refuses_values_outside_the_field():
    # a word holds reduced elements only, so a value of [0, p) has one
    # representation: p itself is refused, not read as the zero element
    field = PrimeField(2**31 - 1)
    seq = blossoming_cayley(gen_set_full(3))
    graph = seq.graphs[0]
    size = graph.classes.num_classes
    for bad in (field.p, 2**31, 2**40, -1, 2**64):
        with pytest.raises(FloweringError):
            Word(graph, field, [bad] + [0] * (size - 1))
    with pytest.raises(FloweringError):
        Word(graph, field, [field.p] * size)
    # the largest element is accepted and folds exactly
    word = Word(graph, field, [field.p - 1] * size)
    assert fold(seq.cuts[0], word, 2**31 - 2).values.tolist() == [
        (2**31 - 2) * (2**31 - 1) % field.p] * seq.graphs[1].classes.num_classes
    # Python ints at any size, and the same range
    wide = PrimeField(2**61 - 1)
    assert Word(graph, wide, [2**40] * size).values.dtype == object
    for bad in (-1, wide.p):
        with pytest.raises(FloweringError):
            Word(graph, wide, [bad] * size)


def test_index_values_past_p_are_reduced_and_prove():
    # from_index_values reduces its values, so a word built from values
    # >= p is the word of their residues, and its honest proof verifies
    inst = gen_instance(3, 2**31 - 1, 5)
    p = inst.field.p
    y = inst.rs.random_codeword(random.Random(5))
    word = Word.from_index_values(inst.seq.graphs[0], inst.field, [v + p for v in y])
    assert word == Word.from_index_values(inst.seq.graphs[0], inst.field, y)
    assert inst.code.is_codeword(word)
    params = ProtocolParams(3, 2)
    proof, transcript = prove_noninteractive(inst.seq, inst.rs, word, params)
    assert transcript.accept
    accept, _ = verify_noninteractive(inst.seq, inst.rs, proof, params)
    assert accept


def test_words_and_parity_rows_past_2_63():
    # p = 2^64 - 59, the largest prime below 2^64: NumPy reads a list of
    # ints below and at or above 2^63 as float64, yet words, parity rows
    # and proofs over such elements are exact
    inst = gen_instance(3, 2**64 - 59, 5)
    field, graph = inst.field, inst.seq.graphs[0]
    p = field.p
    rng = random.Random(7)
    values = [p - 1, 2**63, 1] + [rng.randrange(p) for _ in range(graph.classes.num_classes - 3)]
    word = Word(graph, field, values)
    assert word.values.tolist() == values
    assert Word.from_json(graph, field, json.loads(json.dumps(word.to_json()))) == word
    y = inst.rs.random_codeword(rng)
    codeword = Word.from_index_values(graph, field, [v + p for v in y])
    assert codeword == Word.from_index_values(graph, field, y)
    assert inst.code.is_codeword(codeword)
    params = ProtocolParams(3, 2)
    proof, transcript = prove_noninteractive(inst.seq, inst.rs, codeword, params)
    assert transcript.accept and verify_noninteractive(inst.seq, inst.rs, proof, params)[0]
    # points on both sides of 2^63: the rows annihilate every codeword and
    # have full rank
    rs = RSCode(field, [1, 2, 2**63, p - 2, p - 1, 2**63 + 5], 2)
    rows = rs.parity_rows()
    assert linalg.rank(rows, field) == rs.n - rs.k
    for _ in range(5):
        c = rs.random_codeword(rng)
        assert all(field.dot(row, c) == 0 for row in rows)
    assert not rs.is_codeword([1] + [0] * (rs.n - 1))


def test_word_accessors_refuse_out_of_range_positions():
    field = PrimeField(101)
    graph = blossoming_cayley(gen_set_full(3)).graphs[0]
    word = Word(graph, field, range(graph.classes.num_classes))
    for v, l in ((-1, 0), (graph.num_vertices, 0), (0, -1), (0, graph.n)):
        with pytest.raises(FloweringError):
            word.at(v, l)
    for class_id in (-1, graph.classes.num_classes):
        with pytest.raises(FloweringError):
            word.replace(class_id, 1)
    with pytest.raises(FloweringError):
        word.local_view(-1)
    last = graph.classes.num_classes - 1
    assert word.replace(last, -1).values.tolist() == [*range(last), field.p - 1]


def test_word_values_leave_as_python_ints():
    # words hold arrays at the field's dtype; every value that leaves one
    # is a plain int, so no numpy scalar reaches a transcript, a proof, an
    # RS check or JSON
    for p in (101, 2**61 - 1):
        inst = gen_instance(3, p, 6)
        rng = random.Random(14)
        cut = inst.seq.cuts[0]
        word, _ = far_word(inst.code, Fraction(1, 2), rng)
        words = [word, fold(cut, word, 7), lazy_copy(cut, word, 7), cut_word(word, [0, 3, 5]),
                 Word.from_index_values(cut.parent, inst.field, list(range(7))),
                 upper_bound_witness(inst.code, inst.gens)]
        for w in words:
            assert isinstance(w.values, np.ndarray) and w.values.dtype == inst.field.dtype
            assert all(type(x) is int for x in w.local_view(0) + [w.at(0, 1), w.at(1, 6)])
            assert Word.from_json(w.graph, w.field, json.loads(json.dumps(w.to_json()))) == w
            [values] = MerkleTree(w.values).open([0]).records.values()
            assert values and all(type(x) is int for x in values)
        params = ProtocolParams(4, 2)
        transcript = honest_run(inst, params, seed=3)
        for query in transcript.queries:
            assert all(type(x) is int for x in query.walk)
            assert all(type(x) is int for opening in query.openings for x in opening)
        # json.dumps refuses numpy integers
        json.dumps(transcript.to_json())
        proof, ni_transcript = prove_noninteractive(
            inst.seq, inst.rs, random_codeword_word(inst, rng), params)
        assert all(type(value) is int for level in proof.levels
                   for values in level.records.values() for value in values)
        assert all(type(x) is int for query in ni_transcript.queries
                   for opening in query.openings for x in opening)
