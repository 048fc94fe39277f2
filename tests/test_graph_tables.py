"""The array-backed graph tables against the reference loops of loop_oracle:
class index, violations, petal counts, cut graphs, the cut validator, down
and fold plans, entry by entry."""

import random
from fractions import Fraction

import numpy as np
import pytest

import loop_oracle as oracle
from conftest import planted_cut, random_rim, scrambled
from flowering.adversaries import far_word, lazy_copy
from flowering.cayley import (
    blossoming_cayley,
    cayley_rim,
    gen_set_full,
    upper_bound_witness,
    validate_gen_set,
)
from flowering.experiments import gen_instance, honest_run
from flowering.folding import fold
from flowering.graph_code import Word, cut_word
from flowering.iopp import ProtocolParams
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
    assert cut.fold_lists() == [list(column) for column in zip(*plan)]
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


def test_words_hold_python_ints():
    # words built from the tables carry plain ints, so no numpy scalar can
    # reach a Merkle leaf, a proof or a transcript
    inst = gen_instance(3, 101, 6)
    rng = random.Random(14)
    cut = inst.seq.cuts[0]
    word, _ = far_word(inst.code, Fraction(1, 2), rng)
    words = [word, fold(cut, word, 7), lazy_copy(cut, word, 7), cut_word(word, [0, 3, 5]),
             Word.from_index_values(cut.parent, inst.field, list(range(7))),
             upper_bound_witness(inst.code, inst.gens)]
    for w in words:
        assert all(type(x) is int for x in w.values)
    assert all(type(x) is int for x in word.local_view(1) + [word.at(2, 3)])
    transcript = honest_run(inst, ProtocolParams(4, 2), seed=3)
    for query in transcript.queries:
        assert all(type(x) is int for x in query.walk)
        assert all(type(x) is int for opening in query.openings for x in opening)
