"""The implicit Cayley chain against the validated dense chain, its oracle:
every closed form (the commit positions of each fold check, the descent and
the class counts), every table it builds as blocks of graph 0, and every
protocol run on it must equal the oracle's.  Only the digest differs: a
Cayley chain is named by its generating set, a dense chain by graph 0 and
every cut."""

import hashlib
import json
import random
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import by_position
from flowering import cayley, folding, rim_graph
from flowering.adversaries import build_adversary
from flowering.cayley import (
    GenSet,
    _f2_rank,
    blossoming_cayley,
    cayley_rim,
    gen_set_full,
    validate_gen_set,
)
from flowering.cli import main
from flowering.commitment import MultiOpening
from flowering.errors import TooLargeError
from flowering.field import PrimeField
from flowering.experiments import gen_instance, random_codeword_word
from flowering.folding import BlossomingSequence
from flowering.iopp import (
    ProtocolParams,
    prover_commit,
    run_protocol,
    sample_query_randomness,
    verifier_query,
)
from flowering.niproof import NIProof, prove_noninteractive, verify_noninteractive
from flowering.reed_solomon import RSCode

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


def validated_chain(gens):
    """The canonical chain cut by cut through the validating constructor:
    level i keeps range(2^(r-i)) and phi(v) = v | 2^(r-i)."""
    r = gens.r
    specs = [(range(half), {v: v | half for v in range(half)})
             for half in (1 << (r - i) for i in range(1, r + 1))]
    return BlossomingSequence(cayley_rim(r, gens), specs)


def assert_tables_equal(chain, oracle, levels: bool = True):
    """The chain's block tables against the oracle's: the fold plans and
    commit positions, and with levels every graph's adjacency, class_of,
    reps and petal count and every cut's ends, down and phi."""
    assert len(chain.cuts) == len(oracle.cuts) == chain.r
    for cut, expected in zip(chain.cuts, oracle.cuts):
        assert np.array_equal(cut.fold_plan, expected.fold_plan)
    for positions, expected in zip(chain.commit_positions(), oracle.commit_positions(),
                                   strict=True):
        assert np.array_equal(positions, expected)
    if not levels:
        return
    for graph, expected in zip(chain.graphs, oracle.graphs, strict=True):
        assert np.array_equal(graph.adj, expected.adj)
        index, oracle_index = graph.classes, expected.classes
        assert np.array_equal(index.class_of, oracle_index.class_of)
        for table, oracle_table in zip(index.reps, oracle_index.reps, strict=True):
            assert np.array_equal(table, oracle_table)
        assert index.num_classes == oracle_index.num_classes
        assert index.num_petals == oracle_index.num_petals
    for cut, expected in zip(chain.cuts, oracle.cuts):
        assert np.array_equal(cut.ends, expected.ends)
        assert np.array_equal(cut.down, expected.down)
        assert cut.phi == expected.phi
        assert (cut.parent, cut.child) == (expected.parent, expected.child)


GENSETS = ([gen_set_full(r) for r in range(1, 9)]
           + [validate_gen_set(4, [8, 4, 2, 1, 15], 3)] + _random_gensets(12))


@pytest.mark.parametrize("gens", GENSETS,
                         ids=[f"{i}-r{g.r}-n{g.n}" for i, g in enumerate(GENSETS)])
def test_closed_forms_equal_dense_chain(gens):
    chain = blossoming_cayley(gens)
    dense = validated_chain(gens)
    r, n = gens.r, gens.n
    assert (chain.r, chain.n) == (dense.r, dense.n) == (r, n)
    positions = dense.commit_positions()
    for level, graph in enumerate(dense.graphs):
        assert chain.num_vertices(level) == graph.num_vertices
        assert chain.num_classes(level) == graph.classes.num_classes
    # a level's fold checks name the classes of its every slot: the kept
    # vertices vc and their images vc | half, and the child's slot (vc, l);
    # the closed forms read them at their commit positions
    for level, (cut, closed, by_id) in enumerate(zip(dense.cuts,
                                                     chain.fold_reads(positions=True),
                                                     dense.fold_reads())):
        half = cut.child.num_vertices
        ids = np.array([[by_id(vc, l) for l in range(n)] for vc in range(half)])
        class_of = cut.parent.classes.class_of
        assert np.array_equal(ids[:, :, 0], class_of[:half])
        assert np.array_equal(ids[:, :, 1], class_of[half:])
        assert np.array_equal(ids[:, :, :2].transpose(2, 0, 1),
                              cut.fold_plan[:, cut.child.classes.class_of])
        assert np.array_equal(ids[:, :, 2], cut.child.classes.class_of)
        reads = np.array([[closed(vc, l) for l in range(n)] for vc in range(half)])
        assert np.array_equal(reads[:, :, :2], positions[level][ids[:, :, :2]])
        assert np.array_equal(reads[:, :, 2], positions[level + 1][ids[:, :, 2]])
    # the flower's classes, its one vertex's n petals, in index order
    assert dense.graphs[r].classes.class_of[0].tolist() == list(range(n))
    for v0 in range(1 << r):
        assert chain.descent(v0) == dense.descent(v0)
    assert chain.proof_length() == dense.proof_length()
    # the chain's name is its generating set's, which no dense chain shares
    assert chain.digest() == blossoming_cayley(gens).digest() != dense.digest()
    # none of it built the chain's tables
    assert "_tables" not in vars(chain)
    # which are the oracle's, built as blocks of graph 0
    assert_tables_equal(chain, dense)


# what the query phase and the NI verifier read of a chain, and what only
# the prover reads: a public member added to BlossomingSequence fails
# test_fresh_chain_answers_every_verifier_read until it is put on one side
VERIFIER_READS = {"r", "n", "num_vertices", "num_classes", "proof_length", "digest",
                  "descent", "fold_reads"}
PROVER_READS = {"graphs", "cuts", "commit_positions"}


def verifier_answers(seq) -> dict:
    """Each verifier read of the chain, at every level, vertex and slot."""
    levels = range(seq.r + 1)
    return {
        "r": seq.r,
        "n": seq.n,
        "num_vertices": [seq.num_vertices(level) for level in levels],
        "num_classes": [seq.num_classes(level) for level in levels],
        "proof_length": seq.proof_length(),
        "digest": seq.digest(),
        "descent": [seq.descent(v0) for v0 in range(seq.num_vertices(0))],
        "fold_reads": [[read(vc, l) for vc in range(seq.num_vertices(level + 1))
                        for l in range(seq.n)]
                       for level, read in enumerate(seq.fold_reads(positions=True))],
    }


@pytest.mark.parametrize("gens", GENSETS,
                         ids=[f"{i}-r{g.r}-n{g.n}" for i, g in enumerate(GENSETS)])
def test_fresh_chain_answers_every_verifier_read(gens):
    # a Cayley chain is a BlossomingSequence whose every verifier read a
    # fresh chain answers without its tables, as the validated chain does
    # but for the digest, which names the generating set and is the same
    # once the tables are built
    chain, dense = blossoming_cayley(gens), validated_chain(gens)
    assert isinstance(chain, BlossomingSequence)
    assert {name for name in dir(dense) if not name.startswith("_")} == (
        VERIFIER_READS | PROVER_READS)
    fresh, expected = verifier_answers(chain), verifier_answers(dense)
    assert "_tables" not in vars(chain)
    assert set(fresh) == VERIFIER_READS
    built = blossoming_cayley(gens)
    built.cuts
    assert fresh.pop("digest") == built.digest() != expected.pop("digest")
    assert fresh == expected


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
    # the query phase walks by closed-form commit positions on a chain
    # whose tables are not built, as the NI verifier does, and gives the
    # transcripts of the dense chain's tables, read by commit position.
    # run_protocol builds the tables in its commit phase, so its walk reads
    # them.
    instance, runs = _runs(r)
    chain, dense = instance.seq, validated_chain(instance.gens)
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
            assert "_tables" not in vars(fresh)
            assert (implicit.to_json(), implicit.reads) == by_position(
                tables, dense.commit_positions())
        # a fresh chain's NI verdict and transcript are those of the chain
        # whose block tables the prover built, which assert_tables_equal
        # checks against the oracle; the oracle, a chain of another name,
        # rejects the proof
        proof, _ = prove_noninteractive(chain, rs, word, ProtocolParams(3, 2))
        parsed = NIProof.parse(proof.serialize())
        fresh = blossoming_cayley(instance.gens)
        (accept, implicit), (built_accept, tables) = [
            verify_noninteractive(seq, rs, parsed) for seq in (fresh, chain)]
        assert "_tables" not in vars(fresh) and "_tables" in vars(chain)
        assert accept == built_accept
        assert (implicit.to_json(), implicit.reads) == (tables.to_json(), tables.reads)
        assert verify_noninteractive(dense, rs, parsed) == (False, None)
    assert_tables_equal(chain, dense)


def test_closed_forms_sampled_at_r10():
    # past the exhaustive r <= 8: random slots of every level of the full
    # r = 10 chain against the validated chain's tables, then its block fold
    # plans and commit positions, and an r = 9 NI proof that a fresh chain
    # accepts, and rejects with a flipped value, as the built chain does
    gens = gen_set_full(10)
    chain, dense = blossoming_cayley(gens), validated_chain(gens)
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
    assert "_tables" not in vars(chain)
    assert_tables_equal(chain, dense, levels=False)

    instance = gen_instance(9, P, 509)
    proof, _ = prove_noninteractive(instance.seq, instance.rs,
                                    random_codeword_word(instance, random.Random(9)),
                                    ProtocolParams(10, 2))
    flipped = NIProof.parse(proof.serialize())
    opened = next(level for level in flipped.levels if level.records)
    values = next(iter(opened.records.values()))
    values[0] = values[0] ^ 1 if values[0] ^ 1 < P else values[0] ^ 2
    for candidate, verdict in ((proof, True), (flipped, False)):
        fresh = blossoming_cayley(instance.gens)
        assert verify_noninteractive(fresh, instance.rs, candidate)[0] is verdict
        assert verify_noninteractive(instance.seq, instance.rs, candidate)[0] is verdict
        assert "_tables" not in vars(fresh)


def test_verify_builds_no_dense_table(tmp_path, monkeypatch):
    # a fresh r = 8 `flowering verify` answers every read from the
    # generating set: no graph-0 table, class index, cut or commit-position
    # table is built, and no graph hashed, whatever its verdict
    def run(*argv):
        return main([str(a) for a in argv])

    instance, proof = tmp_path / "instance.json", tmp_path / "proof.bin"
    assert run("gen", "--r", 8, "--p", P, "--k", 253, "--out", instance) == 0
    assert run("prove", "--instance", instance, "--seed", 1, "--out", proof) == 0
    blob = proof.read_bytes()
    flipped = NIProof.parse(blob)
    opened = next(level for level in flipped.levels if level.records)
    values = next(iter(opened.records.values()))
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
    counting(rim_graph.RIM, "digest")
    for name, code in (("proof.bin", 0), ("flipped.bin", 1), ("truncated.bin", 2)):
        assert run("verify", "--instance", instance, "--proof", tmp_path / name) == code
    assert not calls
    # a fresh prove builds the chain's tables as blocks of graph 0: one
    # graph-0 table and class index, no cut validated, and the commit
    # positions of its 8 cuts
    assert run("prove", "--instance", instance, "--seed", 1, "--out", proof) == 0
    assert calls == Counter({"flowering.cayley.cayley_rim": 1, "EdgeClassIndex.__init__": 1,
                             "flowering.folding.pair_positions": 8})


def test_genset_name_binds_the_instance(tmp_path):
    # the Cayley counterpart of test_ni_binds_every_cut: a chain is named by
    # r and its vectors in index order, so two vectors swapped name another
    # chain, as do the same vectors read in F_2^5, and a proof made on one
    # order is rejected against the other
    gens = gen_set_full(4)
    vectors = list(gens.vectors)
    vectors[0], vectors[1] = vectors[1], vectors[0]
    name = blossoming_cayley(gens).digest()
    # the tag, r and n as u64, then one byte per vector at r <= 8
    assert name == hashlib.sha256(
        cayley.CHAIN_TAG + struct.pack("<QQ", 4, 15) + bytes(gens.vectors)).digest()
    assert blossoming_cayley(validate_gen_set(4, vectors, 3)).digest() != name
    assert blossoming_cayley(GenSet(5, gens.vectors, 3)).digest() != name

    def run(*argv):
        return main([str(a) for a in argv])

    genset, proof = tmp_path / "swapped.json", tmp_path / "proof.bin"
    genset.write_text(json.dumps({"r": 4, "d": 3, "vectors": vectors}))
    for path, source in (("full.json", "full"), ("swapped_instance.json", genset)):
        assert run("gen", "--r", 4, "--p", P, "--k", 13, "--genset", source,
                   "--out", tmp_path / path) == 0
    assert run("prove", "--instance", tmp_path / "full.json", "--seed", 1, "--out", proof) == 0
    assert run("verify", "--instance", tmp_path / "full.json", "--proof", proof) == 0
    assert run("verify", "--instance", tmp_path / "swapped_instance.json", "--proof", proof) == 1


def test_chain_above_the_table_cap():
    # the unit vectors of F_2^25 span a graph of 2^25 x 25 slots, above
    # MAX_GRAPH_ENTRIES.  The chain answers its name, its sizes and the
    # verifier's reads from the generating set, and refuses only its tables
    r = 25
    gens = GenSet(r, tuple(1 << j for j in range(r)), 3)
    assert (r << r) > cayley.MAX_GRAPH_ENTRIES
    chain = blossoming_cayley(gens)
    assert chain.digest() == hashlib.sha256(
        cayley.CHAIN_TAG + struct.pack("<QQ", r, r)
        + b"".join(v.to_bytes(4, "little") for v in gens.vectors)).digest()
    # at level i, the r - i vectors below 2^(r-i) pair its vertices and
    # the other i are petals
    for level in range(r + 1):
        b = 1 << (r - level)
        assert chain.num_classes(level) == (r - level) * b // 2 + level * b
    rng = random.Random(25)
    reads = chain.fold_reads(positions=True)
    for _ in range(50):
        level = rng.randrange(r)
        vc, l = rng.randrange(chain.num_vertices(level + 1)), rng.randrange(r)
        kept_at, image_at, child_at = reads[level](vc, l)
        # the pair takes two adjacent commit positions, or one for a
        # self-pair
        assert max(kept_at, image_at) < chain.num_classes(level)
        assert {kept_at, image_at} in ({kept_at & ~1, kept_at | 1}, {kept_at})
        assert child_at < chain.num_classes(level + 1)
    # a foreign proof is rejected at its chain digest, and one naming this
    # chain at its first read, which no record holds
    instance = gen_instance(4, P, 13)
    foreign, _ = prove_noninteractive(instance.seq, instance.rs,
                                      random_codeword_word(instance, random.Random(4)),
                                      ProtocolParams(10, 2))
    empty = [MultiOpening({}, chain.num_classes(level), b"") for level in range(r + 1)]
    named = NIProof(P, chain.digest(), r, 10, 2, [bytes(32)] * (r + 1), empty)
    rs = RSCode.with_default_points(PrimeField(P), r, r - 2)
    for proof in (foreign, NIProof.parse(named.serialize())):
        assert verify_noninteractive(chain, rs, proof) == (False, None)
    assert "_tables" not in vars(chain)
    with pytest.raises(TooLargeError, match="MAX_GRAPH_ENTRIES"):
        chain.graphs


def _f2_rank_by_min(vectors) -> int:
    """The rank by the reduction _f2_rank replaced: each vector against the
    whole basis, kept sorted, largest first."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def test_f2_rank_matches_full_reduction():
    # the pivot table stops once the rank fills the widest vector's bits,
    # so the cases that matter are lists that reach full rank early, lists
    # that never do, and repeats and dependent sums after full rank
    rng = random.Random(26)
    cases = [[], [0], [0, 0], [5, 5], [1, 2, 3], [3, 1, 2, 3, 0, 7]]
    for r in range(1, 11):
        for rank in range(r + 1):
            basis = [(1 << j) | rng.randrange(1 << j) for j in rng.sample(range(r), rank)]
            vectors = basis + [rng.choice(basis) ^ rng.choice(basis) for _ in range(rank)]
            rng.shuffle(vectors)
            cases += [vectors, vectors + vectors, basis + [0]]
        cases.append([rng.randrange(1 << r) for _ in range(rng.randrange(1, 2 * r))])
        cases.append(list(gen_set_full(r).vectors))
    for gens in GENSETS:
        vectors = list(gens.vectors)
        subset = rng.sample(vectors, min(3, len(vectors)))
        cases += [vectors, subset + [subset[0] ^ subset[-1]], subset + subset]
    for vectors in cases:
        assert _f2_rank(vectors) == _f2_rank_by_min(vectors), vectors
    assert [_f2_rank(gen_set_full(r).vectors) for r in range(1, 11)] == list(range(1, 11))
