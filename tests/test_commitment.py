import random
import struct
from fractions import Fraction

import pytest

import flowering.niproof as niproof
import loop_oracle as oracle
from conftest import replay
from flowering.adversaries import far_word
from flowering.commitment import (
    DIGEST_SIZE,
    LEAF_CLASSES,
    EmptyWordError,
    FSState,
    IndexOutOfRangeError,
    MerkleTree,
    _node_hash,
    verify_open,
)
from flowering.experiments import gen_instance, random_codeword_word
from flowering.folding import BlossomingSequence
from flowering.graph_code import Word
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
        "589474e4484420f0be5071126b7a015825b259c1282f167e5e03cab7d7511a80"
    )
    # at one class per leaf the oracle is the one-leaf-per-class tree of
    # format v2, whose pin this was
    assert oracle.merkle_layers([5, 6, 7], 1)[-1][0].hex() == (
        "2cffb61627d2e61de4aa5825ef2348a2bf329f72222352223539c8d5888468c7"
    )
    with pytest.raises(EmptyWordError):
        MerkleTree([])


def _refused_openings(tree, bucket, values, path):
    """Openings of the bucket a verifier must refuse, each by name."""
    n = len(tree.values)
    changed = list(values)
    changed[bucket % len(values)] += 1
    out = {"changed value": (tree.root, bucket, changed, path, n),
           "one value short": (tree.root, bucket, values[:-1], path, n),
           "one value long": (tree.root, bucket, values + [0], path, n),
           "wrong bucket": (tree.root, bucket + 1, values, path, n),
           "deeper path": (tree.root, bucket, values, path + [bytes(DIGEST_SIZE)], n),
           # a tree of one more level, ceil(N / 8) > 2^depth leaves
           "wrong num_classes": (tree.root, bucket, values, path,
                                 LEAF_CLASSES * (1 << len(path)) + 1)}
    if bucket:
        out["wrong bucket below"] = (tree.root, bucket - 1, values, path, n)
    if path:
        out["shallower path"] = (tree.root, bucket, values, path[:-1], n)
    for depth, digest in enumerate(path):
        flipped = list(path)
        flipped[depth] = bytes([digest[0] ^ 1]) + digest[1:]
        out[f"sibling bit flipped at depth {depth}"] = (tree.root, bucket, values, flipped, n)
    if (bucket + 1) * LEAF_CLASSES >= n:
        # the last bucket: one class fewer leaves it one value too many
        out["one class fewer"] = (tree.root, bucket, values, path, n - 1)
    return out


@pytest.mark.parametrize("p", [5, 2**31 - 1, 2**61 - 1])
def test_bucket_tree_matches_loop_oracle(p):
    # the array-built tree equals the per-leaf loop in every layer, every
    # bucket opens and verifies, and every altered opening is refused
    rng = random.Random(p)
    for n in (1, 2, 7, 8, 9, 15, 16, 17, 120, 1000, 4097):
        for values in ([0] * n, [p - 1] * n, [rng.randrange(p) for _ in range(n)]):
            tree = MerkleTree(values)
            layers = oracle.merkle_layers(values, LEAF_CLASSES)
            assert tree.layers == [b"".join(layer) for layer in layers]
            assert tree.root == layers[-1][0]
            buckets = -(-n // LEAF_CLASSES)
            for bucket in range(buckets):
                opened, path = tree.open(bucket)
                assert opened == values[bucket * LEAF_CLASSES:(bucket + 1) * LEAF_CLASSES]
                assert verify_open(tree.root, bucket, opened, path, n)
                for name, args in _refused_openings(tree, bucket, opened, path).items():
                    assert not verify_open(*args), (n, bucket, name)
            with pytest.raises(IndexOutOfRangeError):
                tree.open(buckets)


def test_merkle_open_verify():
    # 13 classes in two buckets, of 8 and 5 classes
    values = list(range(100, 113))
    tree = MerkleTree(values)
    assert tree.open(0) == (values[:8], [tree.layers[0][32:]])
    assert tree.open(1) == (values[8:], [tree.layers[0][:32]])
    # a path authenticates only against the tree shape it came from
    first, path = tree.open(0)
    assert verify_open(tree.root, 0, first, path, 16)  # same depth, full buckets
    last, path = tree.open(1)
    assert verify_open(tree.root, 1, last, path, 13)
    assert not verify_open(tree.root, 1, last, path, 12)  # last bucket of 4
    assert not verify_open(tree.root, 1, last, path, 16)  # last bucket of 8
    assert not verify_open(tree.root, 1, last, path, 8)  # bucket out of range
    assert not verify_open(tree.root, 1, last, path, 17)  # deeper tree
    with pytest.raises(IndexOutOfRangeError):
        tree.open(2)
    with pytest.raises(IndexOutOfRangeError):
        tree.open(-1)


def test_single_leaf_tree():
    tree = MerkleTree([42])
    values, path = tree.open(0)
    assert values == [42] and path == []
    assert verify_open(tree.root, 0, [42], [], 1)
    assert not verify_open(tree.root, 1, [42], [], 1)
    assert not verify_open(tree.root, 0, [42], [], 2)  # a bucket of 2


def test_opening_bound_to_tree_depth():
    # One root, two openings of bucket 1: to c through a depth-1 path and to
    # b through a depth-2 path that passes the inner node0 off as a leaf.
    a, b, c = ([base + i for i in range(LEAF_CLASSES)] for base in (0, 100, 200))
    node0 = _node_hash(oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, b))
    root = _node_hash(node0, oracle.merkle_leaf(1, c))
    shallow = (1, c, [node0])
    deep = (1, b, [oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, c)])
    two_leaves, four_leaves = 2 * LEAF_CLASSES, 4 * LEAF_CLASSES
    assert verify_open(root, *shallow, two_leaves) and not verify_open(root, *deep, two_leaves)
    for num_classes in (two_leaves + 1, 3 * LEAF_CLASSES, four_leaves):
        assert verify_open(root, *deep, num_classes)
        assert not verify_open(root, *shallow, num_classes)
    for num_classes in (LEAF_CLASSES, two_leaves - 1, four_leaves + 1, 8 * LEAF_CLASSES):
        assert not verify_open(root, *shallow, num_classes)
        assert not verify_open(root, *deep, num_classes)


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
    # a proof of the word with every value v written as v + p: every walk's
    # checks hold mod p and every path is valid, so only the range check
    # refuses it
    lifted = Word(word.graph, word.field, [v + 101 for v in word.values])
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, lifted, params)
    assert transcript.accept
    assert verify_noninteractive(instance.seq, instance.rs, proof) == (False, None)


@pytest.fixture(scope="module")
def ni_setup_r5():
    # r = 5, so that levels 0..2 have buckets no walk reads
    instance = gen_instance(5, 2**31 - 1, 29)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, _ = prove_noninteractive(instance.seq, instance.rs, word, params)
    return instance, params, word, proof


def _unread_bucket(instance, params, word, proof, level=1):
    """(bucket, values, path): a bucket no walk reads, opened against the
    honest tree with a valid path."""
    challenges, _ = derive_noninteractive_randomness(
        instance.seq, instance.rs, params, proof.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    tree = MerkleTree(words[level].values)
    assert tree.root == proof.roots[level]
    read = {cid // LEAF_CLASSES for cid in proof.openings[level]}
    bucket = min(set(range(-(-len(tree.values) // LEAF_CLASSES))) - read)
    values, path = tree.open(bucket)
    assert verify_open(proof.roots[level], bucket, values, path, len(tree.values))
    return bucket, values, path


def _unread_opening(instance, params, word, proof):
    # one class outside every read bucket, under its bucket's valid path
    bucket, values, path = _unread_bucket(instance, params, word, proof)
    proof.openings[1][bucket * LEAF_CLASSES] = (values[0], path)


def _unread_bucket_opening(instance, params, word, proof):
    # every class of a bucket no walk reads, under its valid path
    bucket, values, path = _unread_bucket(instance, params, word, proof)
    for cid, value in enumerate(values, bucket * LEAF_CLASSES):
        proof.openings[1][cid] = (value, path)


def _first_opening(proof, level=1):
    cid = min(proof.openings[level])
    return proof.openings[level], cid


def _drop_opening(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    del opened[cid]


def _drop_middle_class(instance, params, word, proof):
    # the bucket's record splits in two around the gap
    opened, cid = _first_opening(proof)
    records = len(niproof._records(opened))
    del opened[cid + LEAF_CLASSES // 2]
    assert len(niproof._records(opened)) == records + 1


def _two_paths(instance, params, word, proof):
    # the second class of a bucket under a path of the right length that is
    # not the bucket's; the first class still carries the bucket's path
    opened, cid = _first_opening(proof)
    value, path = opened[cid + 1]
    opened[cid + 1] = (value, path[:-1] + [bytes([path[-1][0] ^ 1]) + path[-1][1:]])


def _move_opening(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    target = proof.openings[2]
    new_cid = min(set(range(instance.seq.graphs[2].classes.num_classes)) - set(target))
    target[new_cid] = opened.pop(cid)


def _resize_path(delta):
    def mutate(instance, params, word, proof):
        # the whole first bucket under its path made one digest shorter or
        # longer, so every class still shares one path
        opened, cid = _first_opening(proof)
        path = opened[cid][1]
        path = path[:-1] if delta < 0 else path + [path[-1]]
        for other in range(cid, cid + LEAF_CLASSES):
            opened[other] = (opened[other][0], path)
    return mutate


def _cid_out_of_range(instance, params, word, proof):
    opened, cid = _first_opening(proof)
    opened[instance.seq.graphs[1].classes.num_classes] = opened.pop(cid)


def _drop_last_class(instance, params, word, proof):
    # an unread last class of a full read bucket: one short record, which
    # starts where it should, so verify_open (its length check) refuses it
    reads = verify_noninteractive(instance.seq, instance.rs, proof)[1].reads
    level, last = next((level, cid) for level, opened in enumerate(proof.openings)
                       for cid in sorted(opened)
                       if cid % LEAF_CLASSES == LEAF_CLASSES - 1 and cid not in reads[level])
    del proof.openings[level][last]


def _extra_flower_class(instance, params, word, proof):
    # class N of the flower level under its last bucket's path: the flower
    # view reads every class, and the last bucket holds fewer than
    # LEAF_CLASSES, so the record grows one class past it
    opened = proof.openings[instance.r]
    num_classes = instance.seq.graphs[instance.r].classes.num_classes
    assert num_classes % LEAF_CLASSES and opened.keys() == set(range(num_classes))
    opened[num_classes] = (0, opened[num_classes - 1][1])


@pytest.fixture
def verify_open_calls(monkeypatch):
    """The buckets niproof authenticates, one entry per verify_open call."""
    calls = []

    def counting_verify_open(*args):
        calls.append(args[1])
        return verify_open(*args)

    monkeypatch.setattr(niproof, "verify_open", counting_verify_open)
    return calls


def _read_buckets(proof) -> int:
    # an honest proof opens exactly the buckets its query phase reads
    return sum(len({cid // LEAF_CLASSES for cid in level}) for level in proof.openings)


@pytest.mark.parametrize("mutate", [
    _drop_opening, _unread_opening, _move_opening, _resize_path(-1), _resize_path(+1),
    _cid_out_of_range, _drop_middle_class, _two_paths, _unread_bucket_opening,
    _drop_last_class, _extra_flower_class,
], ids=["dropped", "unread-class", "moved-level", "path-shorter", "path-longer",
        "cid-num-classes", "dropped-middle", "two-paths", "unread-bucket",
        "dropped-last", "extra-flower-class"])
def test_ni_structural_mutations_rejected(ni_setup_r5, mutate, verify_open_calls):
    # the verifier accepts exactly the buckets its query phase reads, each
    # with all its classes under one path of its level's tree depth, and
    # authenticates at most once per read bucket
    instance, params, word, proof = ni_setup_r5
    assert instance.r == 5
    mutated = NIProof.parse(proof.serialize())
    mutate(instance, params, word, mutated)
    reparsed = NIProof.parse(mutated.serialize())
    assert reparsed.serialize() != proof.serialize()
    verify_open_calls.clear()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs, reparsed)
    assert not accept and transcript is None
    assert len(verify_open_calls) <= _read_buckets(proof)


def test_ni_malformed_records_refused(ni_setup):
    # records parse only whole and inside one bucket, each class once
    _, _, _, proof, _ = ni_setup
    head = proof.serialize()[:4 + 10 + 32 + 12 + 32 * (proof.r + 1)]
    empty_levels = struct.pack("<I", 0) * proof.r

    def level0(*records):
        return head + struct.pack("<I", len(records)) + b"".join(records) + empty_levels

    def record(first, values):
        return struct.pack(f"<QB{len(values)}QB", first, len(values), *values, 0)

    honest = level0(record(0, [1] * LEAF_CLASSES), record(LEAF_CLASSES + 1, [2, 3]))
    assert NIProof.parse(honest).openings[0].keys() == {*range(LEAF_CLASSES),
                                                         LEAF_CLASSES + 1, LEAF_CLASSES + 2}
    for blob, message in (
        (level0(record(LEAF_CLASSES - 1, [1, 2])), "not inside one bucket"),
        (level0(record(1, [1] * LEAF_CLASSES)), "not inside one bucket"),
        (level0(record(0, [])), "a record of 0 classes"),
        (level0(record(3, [])), "a record of 0 classes"),
        (level0(record(0, [1] * (LEAF_CLASSES + 1))), f"a record of {LEAF_CLASSES + 1}"),
        (level0(record(0, [1, 2]), record(1, [3])), "duplicate opening"),
    ):
        with pytest.raises(MalformedProofError, match=message):
            NIProof.parse(blob)


def test_ni_padded_proof_rejected_before_hashing(verify_open_calls):
    # 1,000 extra level-0 classes from buckets no walk reads, each bucket
    # valid against the honest tree: the verifier compares the records with
    # its read buckets first, so it rejects the proof without
    # authenticating a single path
    instance = gen_instance(6, 2**31 - 1, 61)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, _ = prove_noninteractive(instance.seq, instance.rs, word, params)
    calls = verify_open_calls
    assert verify_noninteractive(instance.seq, instance.rs, proof)[0]
    # one authentication per opened bucket
    assert len(calls) == _read_buckets(proof)

    padded = NIProof.parse(proof.serialize())
    tree = MerkleTree(word.values)
    read = {cid // LEAF_CLASSES for cid in padded.openings[0]}
    unread = sorted(set(range(len(word.values) // LEAF_CLASSES)) - read)[:1000 // LEAF_CLASSES]
    for bucket in unread:
        values, path = tree.open(bucket)
        assert verify_open(proof.roots[0], bucket, values, path, len(word.values))
        for cid, value in enumerate(values, bucket * LEAF_CLASSES):
            padded.openings[0][cid] = (value, path)
    assert sum(map(len, padded.openings)) == sum(map(len, proof.openings)) + 1000
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


def test_ni_header_t_above_n_rejected(ni_setup):
    # t = n + 1 parses, and the verifier refuses it before any walk
    instance, params, word, proof, _ = ni_setup
    hacked = NIProof.parse(proof.serialize())
    hacked.t = instance.n + 1
    parsed = NIProof.parse(hacked.serialize())
    assert parsed.t == instance.n + 1
    assert verify_noninteractive(instance.seq, instance.rs, parsed) == (False, None)
