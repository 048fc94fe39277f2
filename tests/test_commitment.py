import random
from fractions import Fraction

import pytest

import flowering.niproof as niproof
from conftest import replay
from flowering.adversaries import far_word
from flowering.commitment import (
    EmptyWordError,
    FSState,
    IndexOutOfRangeError,
    MerkleTree,
    _leaf_hash,
    _node_hash,
    verify_open,
)
from flowering.experiments import gen_instance, random_codeword_word
from flowering.folding import BlossomingSequence
from flowering.iopp import ProtocolParams, prover_commit, verifier_query
from flowering.niproof import (
    MalformedProofError,
    NIProof,
    derive_noninteractive_randomness,
    prove_noninteractive,
    verify_noninteractive,
)


def test_merkle_deterministic_roots():
    assert MerkleTree([1, 2, 3]).root == MerkleTree([1, 2, 3]).root
    assert MerkleTree([1, 2, 3]).root != MerkleTree([1, 2, 4]).root
    # golden vector pinning the wire format
    assert MerkleTree([5, 6, 7]).root.hex() == (
        "2cffb61627d2e61de4aa5825ef2348a2bf329f72222352223539c8d5888468c7"
    )
    with pytest.raises(EmptyWordError):
        MerkleTree([])


def test_merkle_open_verify():
    values = list(range(100, 113))
    tree = MerkleTree(values)
    for i, v in enumerate(values):
        value, path = tree.open(i)
        assert value == v
        assert verify_open(tree.root, i, value, path, 13)
        assert not verify_open(tree.root, i, value + 1, path, 13)
        if path:
            bad = [bytes([path[0][0] ^ 1]) + path[0][1:]] + path[1:]
            assert not verify_open(tree.root, i, value, bad, 13)
        if i:
            assert not verify_open(tree.root, i - 1, value, path, 13)
    # a path authenticates only against the tree shape it came from
    value, path = tree.open(12)
    assert verify_open(tree.root, 12, value, path, 16)  # same depth, padding
    assert not verify_open(tree.root, 12, value, path, 12)  # index out of range
    assert not verify_open(tree.root, 12, value, path, 17)  # deeper tree
    with pytest.raises(IndexOutOfRangeError):
        tree.open(13)


def test_single_leaf_tree():
    tree = MerkleTree([42])
    value, path = tree.open(0)
    assert path == []
    assert verify_open(tree.root, 0, 42, [], 1)
    assert not verify_open(tree.root, 1, 42, [], 1)


def test_opening_bound_to_tree_depth():
    # One root, two openings of index 1: to 111 through a depth-1 path and to
    # 222 through a depth-2 path that passes the inner node0 off as a leaf.
    node0 = _node_hash(_leaf_hash(0, 5), _leaf_hash(1, 222))
    root = _node_hash(node0, _leaf_hash(1, 111))
    shallow = (1, 111, [node0])
    deep = (1, 222, [_leaf_hash(0, 5), _leaf_hash(1, 111)])
    assert verify_open(root, *shallow, 2) and not verify_open(root, *deep, 2)
    for num_leaves in (3, 4):
        assert verify_open(root, *deep, num_leaves)
        assert not verify_open(root, *shallow, num_leaves)
    for num_leaves in (1, 5, 8):
        assert not verify_open(root, *shallow, num_leaves)
        assert not verify_open(root, *deep, num_leaves)


def test_fs_golden_vector():
    fs = FSState(b"golden-test")
    fs.absorb(b"data", b"\x01\x02\x03")
    assert fs.challenge_field(b"alpha", 2147483647) == 1767023907
    assert fs.state.hex() == (
        "0566161c5a90d86ebeaae26416d9a887e5dcad8d4c79176c6b28c7bb0f9a766e"
    )


def test_fs_domain_and_label_separation():
    def challenge(domain, label, absorbed):
        fs = FSState(domain)
        fs.absorb(b"x", absorbed)
        return fs.challenge_field(label, 2**61 - 1)

    base = challenge(b"d", b"l", b"payload")
    assert challenge(b"d", b"l", b"payload") == base
    assert challenge(b"d2", b"l", b"payload") != base
    assert challenge(b"d", b"l2", b"payload") != base
    assert challenge(b"d", b"l", b"payload2") != base


def test_fs_challenges_advance_state():
    fs = FSState(b"seq")
    a = fs.challenge_field(b"alpha", 101)
    b = fs.challenge_field(b"alpha", 101)
    fs2 = FSState(b"seq")
    assert fs2.challenge_field(b"alpha", 101) == a
    assert fs2.challenge_field(b"alpha", 101) == b


def test_fs_query_randomness_shape():
    fs = FSState(b"golden-test")
    fs.absorb(b"data", b"\x01\x02\x03")
    queries = fs.challenge_queries(b"q", 8, 7, 2, 3)
    assert queries == [(0, (0, 4, 5)), (7, (2, 3, 5))]
    for v0, idx in queries:
        assert 0 <= v0 < 8
        assert len(idx) == 3 and len(set(idx)) == 3
        assert all(0 <= l < 7 for l in idx)


def test_fs_field_challenges_in_range():
    fs = FSState(b"range")
    for p in (5, 101, 2**31 - 1, (1 << 61) - 1):
        for i in range(50):
            assert 0 <= fs.challenge_field(b"a", p) < p


@pytest.fixture(scope="module")
def ni_setup():
    instance = gen_instance(3, 101, 5)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
    return instance, params, word, proof, transcript


def test_ni_round_trip(ni_setup):
    instance, params, word, proof, transcript = ni_setup
    assert transcript.accept
    blob = proof.serialize()
    parsed = NIProof.parse(blob)
    accept, verified_tr = verify_noninteractive(instance.seq, instance.rs, parsed)
    assert accept
    assert parsed.serialize() == blob


def test_ni_matches_interactive_given_same_challenges(ni_setup):
    # the NI prover is prover_commit and verifier_query on the Fiat-Shamir
    # challenges and randomness; a far word's proof opens only valid paths,
    # and the verifier rejects it at the flower check
    instance, params, codeword, codeword_proof, codeword_transcript = ni_setup
    for delta in (None, Fraction(1, 10), Fraction(1, 2)):
        if delta is None:
            word, proof, transcript = codeword, codeword_proof, codeword_transcript
        else:
            word, _ = far_word(instance.code, delta, random.Random(1))
            proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
        challenges, randomness = derive_noninteractive_randomness(
            instance.seq, instance.rs, params, proof.roots
        )
        _, words = prover_commit(instance.seq, word, replay(challenges))
        interactive = verifier_query(
            instance.seq, instance.rs, params, challenges,
            lambda level, cid: words[level].values[cid], randomness,
        )
        assert interactive.to_json() == transcript.to_json()
        assert interactive.reads == transcript.reads
        accept, verified = verify_noninteractive(instance.seq, instance.rs,
                                                 NIProof.parse(proof.serialize()))
        assert accept is transcript.accept is (delta is None)
        assert verified.to_json() == transcript.to_json() and verified.reads == transcript.reads
        if delta is not None:
            # every walk passed and the flower view was read in full
            assert len(transcript.queries) == params.m
            assert transcript.counters.final_check_field_ops > 0
            assert not instance.rs.is_codeword(words[-1].local_view(0))


def test_ni_mutations_rejected(ni_setup):
    instance, params, word, proof, transcript = ni_setup
    blob = proof.serialize()
    rng = random.Random(13)
    for _ in range(150):
        mutated = bytearray(blob)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            parsed = NIProof.parse(bytes(mutated))
        except MalformedProofError:
            continue
        accept, _ = verify_noninteractive(instance.seq, instance.rs, parsed)
        assert not accept


def test_ni_truncation_malformed(ni_setup):
    _, _, _, proof, _ = ni_setup
    blob = proof.serialize()
    for cut in (0, 1, 10, len(blob) // 2, len(blob) - 1):
        with pytest.raises(MalformedProofError):
            NIProof.parse(blob[:cut])
    with pytest.raises(MalformedProofError):
        NIProof.parse(blob + b"\x00")


def test_ni_wrong_instance_rejected(ni_setup):
    instance, params, word, proof, _ = ni_setup
    other = gen_instance(3, 101, 6)  # same graph, different k
    accept, _ = verify_noninteractive(other.seq, other.rs, proof)
    assert not accept

    other_graph = gen_instance(2, 101, 2)
    accept, _ = verify_noninteractive(other_graph.seq, other_graph.rs, proof)
    assert not accept


def test_ni_out_of_range_value_rejected(ni_setup):
    instance, params, word, proof, _ = ni_setup
    hacked = NIProof.parse(proof.serialize())
    level = next(i for i, lv in enumerate(hacked.openings) if lv)
    cid = next(iter(hacked.openings[level]))
    value, path = hacked.openings[level][cid]
    hacked.openings[level][cid] = (value + 101, path)  # same residue, out of range
    accept, _ = verify_noninteractive(instance.seq, instance.rs, hacked)
    assert not accept


def _unread_opening(instance, params, word, proof):
    # a class no walk reads, opened against the honest tree with a valid path
    challenges, _ = derive_noninteractive_randomness(
        instance.seq, instance.rs, params, proof.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    level = 1
    tree = MerkleTree(words[level].values)
    assert tree.root == proof.roots[level]
    cid = min(set(range(len(words[level].values))) - set(proof.openings[level]))
    value, path = tree.open(cid)
    assert verify_open(proof.roots[level], cid, value, path, len(words[level].values))
    proof.openings[level][cid] = (value, path)


def _first_opening(proof, level=1):
    cid = min(proof.openings[level])
    return proof.openings[level], cid


def _drop_opening(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    del opened[cid]


def _move_opening(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    target = proof.openings[2]
    new_cid = min(set(range(instance.seq.graphs[2].classes.num_classes)) - set(target))
    target[new_cid] = opened.pop(cid)


def _resize_path(delta):
    def mutate(instance, params, word, proof):
        opened, cid = _first_opening(proof)
        value, path = opened[cid]
        opened[cid] = (value, path[:-1] if delta < 0 else path + [path[-1]])
    return mutate


def _cid_out_of_range(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    opened[instance.seq.graphs[1].classes.num_classes] = opened.pop(cid)


@pytest.mark.parametrize("mutate", [
    _drop_opening, _unread_opening, _move_opening, _resize_path(-1), _resize_path(+1),
    _cid_out_of_range,
], ids=["dropped", "unread-class", "moved-level", "path-shorter", "path-longer",
        "cid-num-classes"])
def test_ni_structural_mutations_rejected(ni_setup, mutate):
    # the verifier accepts exactly the openings its query phase reads, each
    # through a path of its level's tree depth
    instance, params, word, proof, _ = ni_setup
    assert instance.r == 3
    mutated = NIProof.parse(proof.serialize())
    mutate(instance, params, word, mutated)
    reparsed = NIProof.parse(mutated.serialize())
    assert reparsed.serialize() != proof.serialize()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs, reparsed)
    assert not accept and transcript is None


def test_ni_padded_proof_rejected_before_hashing(monkeypatch):
    # 1,000 extra level-0 openings, each valid against the honest tree: the
    # verifier compares the opened classes with its read log first, so it
    # rejects the proof without authenticating a single path
    instance = gen_instance(6, 2**31 - 1, 61)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, _ = prove_noninteractive(instance.seq, instance.rs, word, params)
    calls = []

    def counting_verify_open(*args):
        calls.append(args[1])
        return verify_open(*args)

    monkeypatch.setattr(niproof, "verify_open", counting_verify_open)
    assert verify_noninteractive(instance.seq, instance.rs, proof)[0]
    assert len(calls) == sum(len(level) for level in proof.openings)

    padded = NIProof.parse(proof.serialize())
    tree = MerkleTree(word.values)
    extra = sorted(set(range(len(word.values))) - set(padded.openings[0]))[:1000]
    assert len(extra) == 1000
    for cid in extra:
        value, path = tree.open(cid)
        assert verify_open(proof.roots[0], cid, value, path, len(word.values))
        padded.openings[0][cid] = (value, path)
    calls.clear()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs,
                                               NIProof.parse(padded.serialize()))
    assert not accept and transcript is None
    assert calls == []


def test_ni_binds_every_cut():
    # two chains on the same graph 0 that differ only in the level-1 phi,
    # v -> v ^ 9 instead of v ^ 8: the same graphs with other fold plans,
    # so the challenges differ for the same roots and neither chain accepts
    # the other's proof
    instance = gen_instance(4, 2**31 - 1, 13)
    canonical = instance.seq
    specs = [(cut.v_prime, cut.phi) for cut in canonical.cuts]
    specs[0] = (specs[0][0], {v: v ^ 9 for v in specs[0][0]})
    other = BlossomingSequence(canonical.graphs[0], specs)
    assert other.graphs == canonical.graphs
    assert other.cuts[0].fold_plan.tolist() != canonical.cuts[0].fold_plan.tolist()
    assert other.digest() != canonical.digest()
    assert other.digest() is other.digest()  # hashed once per chain

    params = ProtocolParams(10, 2)
    word = random_codeword_word(instance, random.Random(0))
    roots = [bytes([level]) * 32 for level in range(5)]
    assert (derive_noninteractive_randomness(canonical, instance.rs, params, roots)
            != derive_noninteractive_randomness(other, instance.rs, params, roots))
    for prover_seq, verifier_seq in ((canonical, other), (other, canonical)):
        proof, transcript = prove_noninteractive(prover_seq, instance.rs, word, params)
        assert transcript.accept
        assert verify_noninteractive(prover_seq, instance.rs, proof)[0]
        assert verify_noninteractive(verifier_seq, instance.rs, proof) == (False, None)
