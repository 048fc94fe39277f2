"""The implicit Cayley chain against the dense one it stands in for: every
closed form (class ids, fold pairs, the descent, class counts, commit
positions and the digest) and every protocol run on it must equal the
tables of the dense chain."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from flowering import cayley, folding, rim_graph
from flowering.adversaries import build_adversary
from flowering.cayley import _f2_rank, blossoming_cayley, gen_set_full, validate_gen_set
from flowering.cli import main
from flowering.experiments import gen_instance, random_codeword_word
from flowering.iopp import (
    ProtocolParams,
    prover_commit,
    run_protocol,
    sample_query_randomness,
    verifier_query,
)
from flowering.niproof import NIProof, prove_noninteractive, verify_noninteractive

P = 2**31 - 1


def _random_gensets(count: int, seed: int = 0):
    """Seeded random spanning gensets of F_2^r, r in 2..7, of n distinct
    vectors in any order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randrange(2, 8)
        vectors = rng.sample(range(1, 1 << r), rng.randrange(r, 1 << r))
        if _f2_rank(vectors) == r:
            out.append(validate_gen_set(r, vectors, 3))
    return out


GENSETS = ([gen_set_full(r) for r in range(1, 9)]
           + [validate_gen_set(4, [8, 4, 2, 1, 15], 3)] + _random_gensets(12))


@pytest.mark.parametrize("gens", GENSETS,
                         ids=[f"{i}-r{g.r}-n{g.n}" for i, g in enumerate(GENSETS)])
def test_closed_forms_equal_dense_chain(gens):
    chain = blossoming_cayley(gens)
    dense = blossoming_cayley(gens).dense
    r, n = gens.r, gens.n
    assert (chain.r, chain.n) == (dense.r, dense.n) == (r, n)
    positions = dense.commit_positions()
    for level, graph in enumerate(dense.graphs):
        assert chain.num_vertices(level) == graph.num_vertices
        assert chain.num_classes(level) == graph.classes.num_classes
    # a level's fold checks name the classes of its every slot: the kept
    # vertices vc and their images vc | half, and the child's slot (vc, l)
    for level, (cut, by_position, by_id) in enumerate(zip(dense.cuts,
                                                          chain.fold_reads(positions=True),
                                                          dense.fold_reads())):
        half = cut.child.num_vertices
        reads = np.array([[by_position(vc, l) for l in range(n)] for vc in range(half)])
        ids = reads[:, :, :3]
        assert np.array_equal([[by_id(vc, l) for l in range(n)] for vc in range(half)],
                              np.concatenate([ids, ids], axis=2))
        class_of = cut.parent.classes.class_of
        assert np.array_equal(ids[:, :, 0], class_of[:half])
        assert np.array_equal(ids[:, :, 1], class_of[half:])
        assert np.array_equal(ids[:, :, :2].transpose(2, 0, 1),
                              cut.fold_plan[:, cut.child.classes.class_of])
        assert np.array_equal(ids[:, :, 2], cut.child.classes.class_of)
        assert np.array_equal(reads[:, :, 3:5], positions[level][ids[:, :, :2]])
        assert np.array_equal(reads[:, :, 5], positions[level + 1][ids[:, :, 2]])
    assert list(chain.flower_ids()) == dense.graphs[r].classes.class_of[0].tolist()
    for v0 in range(1 << r):
        assert chain.descent(v0) == dense.descent(v0)
    assert chain.proof_length() == dense.proof_length()
    assert chain.digest() == dense.digest()
    # none of it built the dense chain
    assert "dense" not in vars(chain)


def _runs(r: int):
    """(word, response rule) of an honest, a lazy-copy and a far-word prover
    on the r instance."""
    instance = gen_instance(r, P, (1 << r) - 3)
    rng = random.Random(r)
    runs = [(random_codeword_word(instance, rng), None)]
    for name in ("lazy-copy", "far-word-honest-fold"):
        word, respond, _ = build_adversary(name, instance.code, Fraction(1, 2), rng)
        runs.append((word, respond))
    return instance, runs


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_protocol_runs_equal_on_dense_chain(r):
    # the query phase walks by closed forms and closed-form commit
    # positions on a chain whose tables are not built, as the NI verifier
    # does, and gives the transcripts of the dense chain's tables.
    # run_protocol builds the tables in its commit phase, so its walk reads
    # them.
    instance, runs = _runs(r)
    chain, dense = instance.seq, instance.seq.dense
    rs = instance.rs
    for word, respond in runs:
        for seed, (m, t) in enumerate([(1, 1), (3, 2), (5, min(4, chain.n))]):
            params = ProtocolParams(m, t)
            tables = run_protocol(dense, rs, word, params, seed, respond)
            assert run_protocol(chain, rs, word, params, seed, respond).to_json() == tables.to_json()
            rng = random.Random(seed)
            challenges, words = prover_commit(dense, word, lambda f: rs.field.sample(rng), respond)
            randomness = sample_query_randomness(rng, dense.num_vertices(0), dense.n, params)
            # the same words read by commit position on a fresh chain
            committed = []
            for level_word, order in zip(words, dense.commit_positions()):
                committed.append(np.empty_like(level_word.values))
                committed[-1][order] = level_word.values
            fresh = blossoming_cayley(instance.gens)
            implicit = verifier_query(fresh, rs, params, challenges,
                                      lambda level, at: committed[level].item(at), randomness,
                                      fresh.fold_reads(positions=True))
            assert "dense" not in vars(fresh)
            assert implicit.to_json() == tables.to_json()
            assert implicit.reads == tables.reads
        proof, _ = prove_noninteractive(chain, rs, word, ProtocolParams(3, 2))
        parsed = NIProof.parse(proof.serialize())
        fresh = blossoming_cayley(instance.gens)
        (accept, implicit), (dense_accept, tables) = [
            verify_noninteractive(seq, rs, parsed) for seq in (fresh, dense)]
        assert "dense" not in vars(fresh)
        assert accept == dense_accept
        assert (implicit.to_json(), implicit.reads) == (tables.to_json(), tables.reads)


def test_closed_forms_sampled_at_r10():
    # past the exhaustive r <= 8: random slots of every level of the full
    # r = 10 chain against its dense tables, and an r = 9 NI proof that a
    # fresh chain accepts, and rejects with a flipped value, as the dense
    # chain does
    gens = gen_set_full(10)
    chain, dense = blossoming_cayley(gens), blossoming_cayley(gens).dense
    rng = random.Random(10)
    slots = [(rng.randrange(cut.child.num_vertices), rng.randrange(gens.n))
             for cut in dense.cuts for _ in range(200)]
    maps = chain.fold_reads(positions=True), dense.fold_reads(positions=True)
    for level, (closed, table) in enumerate(zip(*maps)):
        for vc, l in slots[200 * level:200 * (level + 1)]:
            assert closed(vc, l) == table(vc, l), (level, vc, l)
    for v0 in rng.sample(range(1 << 10), 200):
        assert chain.descent(v0) == dense.descent(v0)
    assert chain.proof_length() == dense.proof_length()
    assert chain.digest() == dense.digest()
    assert "dense" not in vars(chain)

    instance = gen_instance(9, P, 509)
    proof, _ = prove_noninteractive(instance.seq, instance.rs,
                                    random_codeword_word(instance, random.Random(9)),
                                    ProtocolParams(10, 2))
    flipped = NIProof.parse(proof.serialize())
    opened = next(level for level in flipped.levels if level.records)
    _, values = next(iter(opened.records.values()))
    values[0] = values[0] ^ 1 if values[0] ^ 1 < P else values[0] ^ 2
    for candidate, verdict in ((proof, True), (flipped, False)):
        fresh = blossoming_cayley(instance.gens)
        assert verify_noninteractive(fresh, instance.rs, candidate)[0] is verdict
        assert verify_noninteractive(instance.seq, instance.rs, candidate)[0] is verdict
        assert "dense" not in vars(fresh)


def test_verify_builds_no_dense_table(tmp_path, monkeypatch):
    # a fresh r = 8 `flowering verify` answers every read from the
    # generating set: no graph-0 table, class index, cut or commit-position
    # table is built, whatever its verdict
    def run(*argv):
        return main([str(a) for a in argv])

    instance, proof = tmp_path / "instance.json", tmp_path / "proof.bin"
    assert run("gen", "--r", 8, "--p", P, "--k", 253, "--out", instance) == 0
    assert run("prove", "--instance", instance, "--seed", 1, "--out", proof) == 0
    blob = proof.read_bytes()
    flipped = NIProof.parse(blob)
    opened = next(level for level in flipped.levels if level.records)
    _, values = next(iter(opened.records.values()))
    values[0] = values[0] ^ 1 if values[0] ^ 1 < P else values[0] ^ 2
    (tmp_path / "flipped.bin").write_bytes(flipped.serialize())
    (tmp_path / "truncated.bin").write_bytes(blob[:-1])

    calls = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(cayley, "cayley_rim")
    counting(rim_graph.EdgeClassIndex, "__init__")
    counting(rim_graph.FloweringCut, "__init__")
    counting(folding, "pair_positions")
    for name, code in (("proof.bin", 0), ("flipped.bin", 1), ("truncated.bin", 2)):
        assert run("verify", "--instance", instance, "--proof", tmp_path / name) == code
    assert not calls
    # the counters see the prover, which builds the dense chain
    assert run("prove", "--instance", instance, "--seed", 1, "--out", proof) == 0
    assert set(calls) == {"flowering.cayley.cayley_rim", "EdgeClassIndex.__init__",
                          "FloweringCut.__init__", "flowering.folding.pair_positions"}
