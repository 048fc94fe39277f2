import hashlib
import random
import struct
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import flowering.commitment as commitment
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
    sent_siblings,
    verify_open,
)
from flowering.errors import FloweringError
from flowering.experiments import derive_seed, gen_instance, random_codeword_word
from flowering.field import PrimeField
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


def verify_path(root, bucket, values, path, num_classes):
    return oracle.verify_open(root, bucket, values, path, num_classes, LEAF_CLASSES)


def verify_record(root, bucket, values, path, num_classes):
    # the level check on a one-bucket opening
    return verify_open(root, [(bucket * LEAF_CLASSES, values, path)], num_classes)


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
    # bucket opens alone under its full path, and the level check and the
    # per-path oracle accept it and refuse every altered opening; the sizes
    # include one class short of and past one and two whole buckets, so
    # that a tree with no full bucket (the 15 classes of the r = 4 flower)
    # builds its leaf layer from no full row
    rng = random.Random(p)
    edges = [LEAF_CLASSES - 1, LEAF_CLASSES + 1, 2 * LEAF_CLASSES - 1, 2 * LEAF_CLASSES + 1]
    for n in sorted({1, 2, 7, 8, 9, 15, 16, 17, 120, 1000, 4097, *edges}):
        for values in ([0] * n, [p - 1] * n, [rng.randrange(p) for _ in range(n)]):
            tree = MerkleTree(values)
            layers = oracle.merkle_layers(values, LEAF_CLASSES)
            assert tree.layers == [b"".join(layer) for layer in layers]
            assert tree.root == layers[-1][0]
            buckets = -(-n // LEAF_CLASSES)
            for bucket in range(buckets):
                [(first, opened, path)] = tree.open([bucket])
                assert first == bucket * LEAF_CLASSES
                assert opened == values[first:first + LEAF_CLASSES]
                assert path == [layer[(bucket >> d) ^ 1] for d, layer in enumerate(layers[:-1])]
                assert verify_path(tree.root, bucket, opened, path, n)
                assert verify_record(tree.root, bucket, opened, path, n)
                for name, args in _refused_openings(tree, bucket, opened, path).items():
                    assert not verify_path(*args), (n, bucket, name)
                    assert not verify_record(*args), (n, bucket, name)
            with pytest.raises(IndexOutOfRangeError):
                tree.open([buckets])


def _flip(digest: bytes) -> bytes:
    return bytes([digest[0] ^ 1]) + digest[1:]


def _hashed_preimages(fn, *args) -> list[bytes]:
    """The preimages commitment hashes while fn(*args) runs."""
    preimages = []

    def digest(data):
        preimages.append(bytes(data))
        return hashlib.sha256(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(commitment, "DIGEST", digest)
        fn(*args)
    return preimages


def test_level_check_matches_per_path_oracle():
    # for every leaf count from 1 to 70, padded trees included, and random
    # sets of buckets (all of them and a single one among them): the level
    # check agrees with the conjunction of the per-path oracle checks on the
    # honest multi-opening and after one value, one sent digest or the root
    # is flipped, and a pruned path holds b"" exactly where the sibling is
    # an ancestor of an opened bucket
    rng = random.Random(70)
    p = 2**31 - 1
    for leaves in range(1, 71):
        n = LEAF_CLASSES * (leaves - 1) + rng.randrange(1, LEAF_CLASSES + 1)
        values = [rng.randrange(p) for _ in range(n)]
        tree = MerkleTree(values)
        layers = oracle.merkle_layers(values, LEAF_CLASSES)
        depth = len(layers) - 1
        subsets = [list(range(leaves)), [rng.randrange(leaves)]]
        subsets += [sorted(rng.sample(range(leaves), rng.randrange(1, leaves + 1)))
                    for _ in range(6)]
        for buckets in subsets:
            records = tree.open(buckets)
            full = {b: [layer[(b >> d) ^ 1] for d, layer in enumerate(layers[:-1])]
                    for b in buckets}
            sent = list(sent_siblings(buckets, depth))
            assert len(sent) == len({(d, (b >> d) ^ 1) for b in buckets for d in range(depth)}
                                    - {(d, b >> d) for b in buckets for d in range(depth)})
            for (first, opened, path), b in zip(records, buckets):
                assert first == b * LEAF_CLASSES and opened == values[first:first + LEAF_CLASSES]
                assert path == [b"" if any(c >> d == (b >> d) ^ 1 for c in buckets) else digest
                                for d, digest in enumerate(full[b])]

            def agree(root, records, full):
                expected = all(verify_path(root, first // LEAF_CLASSES, opened,
                                           full[first // LEAF_CLASSES], n)
                               for first, opened, _ in records)
                assert verify_open(root, records, n) == expected
                return expected

            assert agree(tree.root, records, full)
            assert not agree(_flip(tree.root), records, full)
            # each opened leaf and each distinct ancestor hashed once
            hashed = _hashed_preimages(verify_open, tree.root, records, n)
            assert len(hashed) == len(set(hashed)) == sum(
                len({b >> d for b in buckets}) for d in range(depth + 1))
            i = rng.randrange(len(records))
            first, opened, path = records[i]
            changed = list(opened)
            changed[rng.randrange(len(opened))] ^= 1
            assert not agree(tree.root, records[:i] + [(first, changed, path)] + records[i + 1:],
                             full)
            if sent:
                d, b = rng.choice(sent)

                def flip_sent(bucket, path):
                    # every path below the sent digest's sibling carries it
                    return [_flip(x) if k == d and bucket >> d == b >> d else x
                            for k, x in enumerate(path)]

                flipped = [(f, v, flip_sent(f // LEAF_CLASSES, path)) for f, v, path in records]
                flipped_full = {c: flip_sent(c, path) for c, path in full.items()}
                assert not agree(tree.root, flipped, flipped_full)


def test_merkle_open_verify():
    # LEAF_CLASSES + 5 classes in two buckets, a full one and one of 5
    full = LEAF_CLASSES
    n = full + 5
    values = list(range(100, 100 + n))
    tree = MerkleTree(values)
    assert tree.open([0]) == [(0, values[:full], [tree.layers[0][32:]])]
    assert tree.open([1]) == [(full, values[full:], [tree.layers[0][:32]])]
    # both buckets: each is the other's sibling, so neither path sends it
    both = tree.open([0, 1])
    assert both == [(0, values[:full], [b""]), (full, values[full:], [b""])]
    assert verify_open(tree.root, both, n)
    assert not verify_open(tree.root, both[::-1], n)  # buckets out of order
    assert not verify_open(tree.root, both[:1] * 2, n)  # one bucket twice
    # a path authenticates only against the tree shape it came from
    [first] = tree.open([0])
    assert verify_open(tree.root, [first], 2 * full)  # same depth, full buckets
    [last] = tree.open([1])
    assert verify_open(tree.root, [last], n)
    assert not verify_open(tree.root, [last], n - 1)  # last bucket of 4
    assert not verify_open(tree.root, [last], 2 * full)  # last bucket full
    assert not verify_open(tree.root, [last], full)  # bucket out of range
    assert not verify_open(tree.root, [last], 2 * full + 1)  # deeper tree
    assert not verify_open(tree.root, [(full + 1, *last[1:])], n)  # not a bucket's first class
    # a pruned entry is only valid where the verifier computes the sibling
    assert not verify_open(tree.root, [(0, values[:full], [b""])], n)
    with pytest.raises(IndexOutOfRangeError):
        tree.open([2])
    with pytest.raises(IndexOutOfRangeError):
        tree.open([-1])


def test_single_leaf_tree():
    tree = MerkleTree([42])
    assert tree.open([0]) == [(0, [42], [])]
    assert verify_open(tree.root, [(0, [42], [])], 1)
    assert not verify_open(tree.root, [(LEAF_CLASSES, [42], [])], 1)
    assert not verify_open(tree.root, [(0, [42], [])], 2)  # a bucket of 2


def test_opening_bound_to_tree_depth():
    # One root, two openings of bucket 1: to c through a depth-1 path and to
    # b through a depth-2 path that passes the inner node0 off as a leaf.
    a, b, c = ([base + i for i in range(LEAF_CLASSES)] for base in (0, 100, 200))
    node0 = _node_hash(oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, b))
    root = _node_hash(node0, oracle.merkle_leaf(1, c))
    shallow = [(LEAF_CLASSES, c, [node0])]
    deep = [(LEAF_CLASSES, b, [oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, c)])]
    two_leaves, four_leaves = 2 * LEAF_CLASSES, 4 * LEAF_CLASSES
    assert verify_open(root, shallow, two_leaves) and not verify_open(root, deep, two_leaves)
    for num_classes in (two_leaves + 1, 3 * LEAF_CLASSES, four_leaves):
        assert verify_open(root, deep, num_classes)
        assert not verify_open(root, shallow, num_classes)
    for num_classes in (LEAF_CLASSES, two_leaves - 1, four_leaves + 1, 8 * LEAF_CLASSES):
        assert not verify_open(root, shallow, num_classes)
        assert not verify_open(root, deep, num_classes)


def test_fs_golden_vector():
    fs = FSState(b"golden-test")
    fs.absorb(b"data", b"\x01\x02\x03")
    assert fs.challenge_field(b"alpha", PrimeField(2147483647)) == 1767023907
    assert fs.state.hex() == (
        "0566161c5a90d86ebeaae26416d9a887e5dcad8d4c79176c6b28c7bb0f9a766e"
    )


def test_fs_domain_and_label_separation():
    def challenge(domain, label, absorbed):
        fs = FSState(domain)
        fs.absorb(b"x", absorbed)
        return fs.challenge_field(label, PrimeField(2**61 - 1))

    base = challenge(b"d", b"l", b"payload")
    assert challenge(b"d", b"l", b"payload") == base
    assert challenge(b"d2", b"l", b"payload") != base
    assert challenge(b"d", b"l2", b"payload") != base
    assert challenge(b"d", b"l", b"payload2") != base


def test_fs_challenges_advance_state():
    field = PrimeField(101)
    fs = FSState(b"seq")
    a = fs.challenge_field(b"alpha", field)
    b = fs.challenge_field(b"alpha", field)
    fs2 = FSState(b"seq")
    assert fs2.challenge_field(b"alpha", field) == a
    assert fs2.challenge_field(b"alpha", field) == b


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
            assert 0 <= fs.challenge_field(b"a", PrimeField(p)) < p


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
    accept, verified_tr = verify_noninteractive(instance.seq, instance.rs, parsed, params)
    assert accept
    assert parsed.serialize() == blob


@pytest.mark.parametrize("p,width", [(5, 1), (101, 1), (65537, 4), (2**31 - 1, 4),
                                     (2**31 + 11, 4), (2**61 - 1, 8)])
def test_ni_round_trip_at_value_width(p, width):
    # each value goes on the wire in the smallest of 1, 2, 4 and 8 bytes
    # holding every value below p, and serialize -> parse -> serialize is
    # byte-identical at every width
    instance = gen_instance(2, p, 1)
    params = ProtocolParams(4, 2)
    word = random_codeword_word(instance, random.Random(p))
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
    blob = proof.serialize()
    parsed = NIProof.parse(blob)
    assert transcript.accept and parsed == proof and parsed.serialize() == blob
    assert _digest_lists(proof, width)[-1][1] == len(blob)
    assert verify_noninteractive(instance.seq, instance.rs, parsed, params)[0]


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
                                                 NIProof.parse(proof.serialize()), params)
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
        accept, _ = verify_noninteractive(instance.seq, instance.rs, parsed, params)
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
    accept, _ = verify_noninteractive(other.seq, other.rs, proof, params)
    assert not accept

    other_graph = gen_instance(2, 101, 2)
    accept, _ = verify_noninteractive(other_graph.seq, other_graph.rs, proof, params)
    assert not accept


def test_ni_out_of_range_value_rejected(ni_setup):
    instance, params, word, proof, _ = ni_setup
    hacked = NIProof.parse(proof.serialize())
    level = next(i for i, lv in enumerate(hacked.openings) if lv)
    cid = next(iter(hacked.openings[level]))
    value, path = hacked.openings[level][cid]
    hacked.openings[level][cid] = (value + 101, path)  # same residue, out of range
    accept, _ = verify_noninteractive(instance.seq, instance.rs, hacked, params)
    assert not accept
    # a proof of the word with every value v written as v + p: every walk's
    # checks hold mod p and every path is valid, so only the range check
    # refuses it.  Word refuses such values, so the lifted word is built
    # unchecked, as a cheating prover would
    with pytest.raises(FloweringError):
        Word(word.graph, word.field, word.values + 101)
    lifted = Word._of(word.graph, word.field, word.values + 101)
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, lifted, params)
    assert transcript.accept
    assert verify_noninteractive(instance.seq, instance.rs, proof, params) == (False, None)


def test_ni_writer_refuses_what_the_parser_would(ni_setup):
    # at p = 101 a value takes one byte, and a first position is a u32: a
    # value past a byte or a position past a u32 is one error line from
    # serialize, never a proof of other values or a bare struct.error
    _, _, _, proof, _ = ni_setup
    level = next(i for i, lv in enumerate(proof.openings) if lv)
    at, (_, path) = next(iter(proof.openings[level].items()))
    for key, value in ((at, 256), (at, -1), (1 << 32, 0)):
        hacked = NIProof.parse(proof.serialize())
        hacked.openings[level][key] = (value, path)
        with pytest.raises(FloweringError,
                           match=f"does not fit format v{niproof.VERSION} at p = 101") as info:
            hacked.serialize()
        assert "\n" not in str(info.value)
    # the widest value and the last position are written; the parser reads
    # the value back, and refuses the position only for the level's depth
    hacked = NIProof.parse(proof.serialize())
    hacked.openings[level][at] = (255, path)
    assert NIProof.parse(hacked.serialize()) == hacked
    hacked.openings[level][(1 << 32) - 1] = (0, path)
    with pytest.raises(MalformedProofError, match="outside a tree of depth"):
        NIProof.parse(hacked.serialize())


@pytest.fixture(scope="module")
def ni_setup_r5():
    # r = 5, so that levels 0..2 have buckets no walk reads; at
    # p = 2^31 - 1 a value takes 4 bytes on the wire
    instance = gen_instance(5, 2**31 - 1, 29)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, _ = prove_noninteractive(instance.seq, instance.rs, word, params)
    return instance, params, word, proof


def _committed(seq, level, values):
    """The level's values in its commit order, as the prover commits them."""
    committed = np.empty_like(values)
    committed[seq.commit_positions()[level]] = values
    return committed


def _unread_bucket(instance, params, word, proof, level=1):
    """(bucket, values, path): a bucket no walk reads, opened against the
    honest tree with a valid path."""
    challenges, _ = derive_noninteractive_randomness(
        instance.seq, instance.rs, params, proof.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    tree = MerkleTree(_committed(instance.seq, level, words[level].values))
    assert tree.root == proof.roots[level]
    read = {at // LEAF_CLASSES for at in proof.openings[level]}
    bucket = min(set(range(-(-len(tree.values) // LEAF_CLASSES))) - read)
    [(_, values, path)] = tree.open([bucket])
    assert verify_path(proof.roots[level], bucket, values, path, len(tree.values))
    return bucket, values, path


def _unread_opening(instance, params, word, proof):
    # one position outside every read bucket, under its bucket's valid path
    bucket, values, path = _unread_bucket(instance, params, word, proof)
    proof.openings[1][bucket * LEAF_CLASSES] = (values[0], path)


def _unread_bucket_opening(instance, params, word, proof):
    # every position of a bucket no walk reads, under its valid path
    bucket, values, path = _unread_bucket(instance, params, word, proof)
    for at, value in enumerate(values, bucket * LEAF_CLASSES):
        proof.openings[1][at] = (value, path)


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
    # not the bucket's; the first class still carries the bucket's path, so
    # the bucket is written as three records
    opened, cid = _first_opening(proof)
    value, path = opened[cid + 1]
    opened[cid + 1] = (value, path[:-1] + [b"\x01" * DIGEST_SIZE])


def _move_opening(instance, params, word, proof):
    # under a path of the depth of its new level's tree, its pruned digests
    # filled in, so that the level still writes one digest per sent sibling
    opened, cid = _first_opening(proof)
    target = proof.openings[2]
    new_cid = min(set(range(instance.seq.graphs[2].classes.num_classes)) - set(target))
    value, path = opened.pop(cid)
    target[new_cid] = (value, [digest or bytes(DIGEST_SIZE)
                               for digest in path[:len(target[min(target)][1])]])


def _resize_path(delta):
    def mutate(instance, params, word, proof):
        # every path of a level made one digest shorter or longer, so the
        # level's depth byte is off by one; the first level whose last
        # opened bucket lies in the upper half of its tree, which one layer
        # less cannot hold
        opened = next(level for level in proof.openings
                      if max(level) // LEAF_CLASSES >> (len(level[max(level)][1]) - 1))
        for cid, (value, path) in opened.items():
            opened[cid] = (value, path[:-1] if delta < 0 else path + [bytes(DIGEST_SIZE)])
    return mutate


def _cid_out_of_range(instance, params, word, proof):
    # the first position at or past N that starts a bucket, so in no bucket
    # of the tree, under the first position's path, its pruned digests
    # filled in, so that the level still writes one digest per sent sibling
    opened, at = _first_opening(proof)
    value, path = opened.pop(at)
    past = LEAF_CLASSES * -(-instance.seq.graphs[1].classes.num_classes // LEAF_CLASSES)
    opened[past] = (value, [digest or bytes(DIGEST_SIZE) for digest in path])


def _drop_last_class(instance, params, word, proof):
    # the last position of a full read bucket, whose class was not read:
    # the bucket misses a position, so the verifier refuses it before
    # anything is hashed
    reads = verify_noninteractive(instance.seq, instance.rs, proof, params)[1].reads
    read = [{at.item(cid) for cid in cids}
            for at, cids in zip(instance.seq.commit_positions(), reads)]
    level, last = next((level, at) for level, opened in enumerate(proof.openings)
                       for at in sorted(opened)
                       if at % LEAF_CLASSES == LEAF_CLASSES - 1 and at not in read[level])
    del proof.openings[level][last]


def _swap_pair(instance, params, word, proof):
    # the honest proof of a random kernel codeword, whose two classes of a
    # fold pair differ (an index-only word is equal on both), with the
    # values of a level-0 pair that no walk reads, adjacent positions of one
    # opened bucket, traded under the bucket's path: the query phase and
    # the records are those of the honest proof, and the leaf's hash is not
    rng = random.Random(5)
    field = instance.field
    codeword = field.array([0] * instance.seq.graphs[0].classes.num_classes)
    for vector in instance.code.codeword_basis():
        codeword = field.mul_add(codeword, rng.randrange(field.p), field.array(vector))
    swapped, transcript = prove_noninteractive(
        instance.seq, instance.rs, Word(word.graph, field, codeword), params)
    assert transcript.accept
    positions = instance.seq.commit_positions()[0]
    read = {positions.item(cid) for cid in transcript.reads[0]}
    opened = swapped.openings[0]
    a, b = next(pair for pair in positions[instance.seq.cuts[0].fold_plan].T.tolist()
                if pair[0] in opened and not read & set(pair)
                and opened[pair[0]][0] != opened[pair[1]][0])
    assert abs(a - b) == 1 and min(a, b) % 2 == 0
    (value_a, path_a), (value_b, path_b) = opened[a], opened[b]
    opened[a], opened[b] = (value_b, path_a), (value_a, path_b)
    return swapped.serialize()


def _class_order_level(instance, params, word, proof):
    # level 1 committed in class order, as format v4 committed every level,
    # under a version-7 header, and opened whole, so that every position
    # the verifier reads in pair order is there: the query phase ends, and
    # the record check refuses the buckets it did not read
    positions = instance.seq.commit_positions()
    layout = [*positions[:1], np.arange(positions[1].size), *positions[2:]]
    with mock.patch.object(instance.seq, "commit_positions", lambda: layout):
        forged, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
    assert transcript.accept
    challenges, _ = derive_noninteractive_randomness(
        instance.seq, instance.rs, params, forged.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    tree = MerkleTree(words[1].values)
    assert tree.root == forged.roots[1]
    forged.openings[1] = niproof._by_position(
        tree.open(list(range(-(-len(tree.values) // LEAF_CLASSES)))))
    return forged.serialize()


def _extra_flower_class(instance, params, word, proof):
    # position N of the flower level, committed in class order, under its
    # last bucket's path: the flower view reads every class, and the last
    # bucket holds fewer than LEAF_CLASSES, so the record grows one past
    # the tree's last position
    opened = proof.openings[instance.r]
    num_classes = instance.seq.graphs[instance.r].classes.num_classes
    assert num_classes % LEAF_CLASSES and opened.keys() == set(range(num_classes))
    opened[num_classes] = (0, opened[num_classes - 1][1])


def _digest_lists(proof, width: int) -> list[tuple[int, int]]:
    """(start, end) in the proof's bytes of each level's sibling digests,
    each record being a 5-byte header and its values of width bytes."""
    pos = 4 + 10 + 32 + 12 + 32 * (proof.r + 1)
    spans = []
    for level in proof.openings:
        records = niproof._records(level)
        pos += 5 + sum(5 + width * len(values) for _, values, _ in records)
        depth = len(records[0][2]) if records else 0
        sent = len(list(sent_siblings([first // LEAF_CLASSES for first, _, _ in records], depth)))
        spans.append((pos, pos + DIGEST_SIZE * sent))
        pos += DIGEST_SIZE * sent
    return spans


def _drop_sibling(instance, params, word, proof):
    # level 0's list of sibling digests one short
    blob = proof.serialize()
    start, end = _digest_lists(proof, 4)[0]
    assert end > start
    return blob[:start] + blob[start + DIGEST_SIZE:]


def _duplicate_sibling(instance, params, word, proof):
    # level 0's first sibling digest sent twice
    blob = proof.serialize()
    start, _ = _digest_lists(proof, 4)[0]
    return blob[:start + DIGEST_SIZE] + blob[start:]


def _swap_sibling(instance, params, word, proof):
    # the first sibling digests of levels 0 and 1 trade places
    blob = bytearray(proof.serialize())
    (a, _), (b, _) = _digest_lists(proof, 4)[:2]
    blob[a:a + DIGEST_SIZE], blob[b:b + DIGEST_SIZE] = (blob[b:b + DIGEST_SIZE],
                                                        blob[a:a + DIGEST_SIZE])
    return bytes(blob)


@pytest.fixture
def verify_open_calls(monkeypatch):
    """The buckets niproof authenticates, one entry per verify_open call,
    that is per level."""
    calls = []

    def counting_verify_open(root, records, num_classes):
        calls.append([first // LEAF_CLASSES for first, _, _ in records])
        return verify_open(root, records, num_classes)

    monkeypatch.setattr(niproof, "verify_open", counting_verify_open)
    return calls


@pytest.fixture
def verifier_checks(monkeypatch):
    """How far verify_noninteractive got: the query phases it ended, the
    levels whose read records it refused, and the levels verify_open
    refused."""
    seen = Counter()
    query, read_records, open_level = (niproof.verifier_query, niproof._read_records,
                                       niproof.verify_open)

    def counting_query(*args, **kwargs):
        transcript = query(*args, **kwargs)
        seen["query phase"] += 1
        return transcript

    def counting_records(*args):
        records = read_records(*args)
        seen["records refused"] += records is None
        return records

    def counting_open(*args):
        ok = open_level(*args)
        seen["verify_open refused"] += not ok
        return ok

    monkeypatch.setattr(niproof, "verifier_query", counting_query)
    monkeypatch.setattr(niproof, "_read_records", counting_records)
    monkeypatch.setattr(niproof, "verify_open", counting_open)
    return seen


def _read_buckets(proof) -> int:
    # an honest proof opens exactly the buckets holding the commit
    # positions its query phase reads
    return sum(len({at // LEAF_CLASSES for at in level}) for level in proof.openings)


# cases the parser refuses: a bucket written as several records, a depth
# too small for the level's last bucket, and a sibling digest too few or
# too many, which misaligns the rest of the proof
REFUSED_BY_PARSE = {"path-shorter", "dropped-middle", "two-paths", "dropped-sibling",
                    "duplicated-sibling"}
# cases whose query phase ends, each with the one check that refuses it
REFUSED_BY = {"swapped-pair": "verify_open refused", "class-order-level": "records refused"}


@pytest.mark.parametrize("mutate", [
    _drop_opening, _unread_opening, _move_opening, _resize_path(-1), _resize_path(+1),
    _cid_out_of_range, _drop_middle_class, _two_paths, _unread_bucket_opening,
    _drop_last_class, _extra_flower_class, _drop_sibling, _duplicate_sibling, _swap_sibling,
    _swap_pair, _class_order_level,
], ids=["dropped", "unread-class", "moved-level", "path-shorter", "path-longer",
        "cid-num-classes", "dropped-middle", "two-paths", "unread-bucket",
        "dropped-last", "extra-flower-class", "dropped-sibling", "duplicated-sibling",
        "swapped-sibling", "swapped-pair", "class-order-level"])
def test_ni_structural_mutations_rejected(ni_setup_r5, mutate, verify_open_calls,
                                          verifier_checks, request):
    # the verifier accepts exactly the buckets its query phase reads, each
    # with all its positions under the level's one pruned multi-opening of
    # its tree's depth, and authenticates at most once per level.  A case
    # returns the proof's bytes where it changes them directly, and changes
    # the parsed proof otherwise.
    instance, params, word, proof = ni_setup_r5
    assert instance.r == 5
    mutated = NIProof.parse(proof.serialize())
    blob = mutate(instance, params, word, mutated) or mutated.serialize()
    assert blob != proof.serialize()
    if request.node.callspec.id in REFUSED_BY_PARSE:
        with pytest.raises(MalformedProofError):
            NIProof.parse(blob)
        return
    reparsed = NIProof.parse(blob)
    verify_open_calls.clear()
    verifier_checks.clear()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs, reparsed, params)
    assert not accept and transcript is None
    assert len(verify_open_calls) <= instance.r + 1
    if request.node.callspec.id in REFUSED_BY:
        assert verifier_checks["query phase"] == 1
        assert set(+verifier_checks) == {"query phase", REFUSED_BY[request.node.callspec.id]}


def test_ni_malformed_records_refused(ni_setup):
    # records parse only whole, inside one bucket, one per bucket in
    # increasing order and inside the tree of the level's depth, with
    # exactly the sibling digests their buckets and depth call for
    _, _, _, proof, _ = ni_setup
    head = proof.serialize()[:4 + 10 + 32 + 12 + 32 * (proof.r + 1)]
    empty_levels = struct.pack("<IB", 0, 0) * proof.r
    digest = bytes(range(DIGEST_SIZE))

    def level0(*records, depth=1, digests=b"", tail=empty_levels):
        return (head + struct.pack("<IB", len(records), depth) + b"".join(records)
                + digests + tail)

    def record(first, values):
        # at p = 101 each value takes one byte
        return struct.pack(f"<IB{len(values)}B", first, len(values), *values)

    # buckets 0 and 1: siblings, so at depth 1 nothing is sent and at
    # depth 2 the one sibling of their parent is
    pair = (record(0, [1] * LEAF_CLASSES), record(LEAF_CLASSES + 1, [2, 3]))
    shallow = NIProof.parse(level0(*pair)).openings[0]
    assert shallow.keys() == {*range(LEAF_CLASSES), LEAF_CLASSES + 1, LEAF_CLASSES + 2}
    assert all(path == [b""] for _, path in shallow.values())
    deep = NIProof.parse(level0(*pair, depth=2, digests=digest)).openings[0]
    assert all(path == [b"", digest] for _, path in deep.values())
    for blob, message in (
        (level0(record(LEAF_CLASSES - 1, [1, 2])), "not inside one bucket"),
        (level0(record(1, [1] * LEAF_CLASSES)), "not inside one bucket"),
        (level0(record(0, [])), "a record of 0 classes"),
        (level0(record(3, [])), "a record of 0 classes"),
        (level0(record(0, [1] * (LEAF_CLASSES + 1))), f"a record of {LEAF_CLASSES + 1}"),
        (level0(record(0, [1, 2]), record(2, [3])), "bucket 0 follows one in bucket 0"),
        (level0(*pair[::-1]), "bucket 0 follows one in bucket 1"),
        # the depth byte one too large or too small
        (level0(*pair, depth=3, digests=digest), "truncated proof"),
        (level0(*pair, depth=0), "bucket 1 is outside a tree of depth 0"),
        (level0(depth=1), "a level of no records has depth 1"),
        (level0(*pair, depth=niproof.MAX_DEPTH + 1), "implausible opening count or depth"),
        # a level cut short inside its digest list
        (level0(*pair, depth=2, digests=digest[:DIGEST_SIZE // 2], tail=b""), "truncated proof"),
    ):
        with pytest.raises(MalformedProofError, match=message):
            NIProof.parse(blob)
    # MAX_DEPTH is the depth of a tree whose buckets hold every u32
    # position: the last such bucket parses at it and not one layer less
    max_depth = niproof.MAX_DEPTH
    assert max_depth == (2**32 // LEAF_CLASSES - 1).bit_length()
    last = record(2**32 - LEAF_CLASSES, [1] * LEAF_CLASSES)
    parsed = NIProof.parse(level0(last, depth=max_depth, digests=digest * max_depth))
    assert parsed.openings[0][2**32 - 1] == (1, [digest] * max_depth)
    with pytest.raises(MalformedProofError, match="outside a tree of depth"):
        NIProof.parse(level0(last, depth=max_depth - 1, digests=digest * (max_depth - 1)))


def test_ni_padded_proof_rejected_before_hashing(verify_open_calls):
    # the extra level-0 classes of 1000 // LEAF_CLASSES whole buckets no
    # walk reads, each bucket valid against the honest tree: the verifier
    # compares the records with its read buckets first, so it rejects the
    # proof without hashing anything
    instance = gen_instance(6, 2**31 - 1, 61)
    params = ProtocolParams(3, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, _ = prove_noninteractive(instance.seq, instance.rs, word, params)
    calls = verify_open_calls
    assert verify_noninteractive(instance.seq, instance.rs, proof, params)[0]
    # one authentication per level, of every opened bucket
    assert len(calls) == instance.r + 1 and sum(map(len, calls)) == _read_buckets(proof)

    padded = NIProof.parse(proof.serialize())
    tree = MerkleTree(_committed(instance.seq, 0, word.values))
    read = {at // LEAF_CLASSES for at in padded.openings[0]}
    unread = sorted(set(range(len(word.values) // LEAF_CLASSES)) - read)[:1000 // LEAF_CLASSES]
    for bucket in unread:
        [(_, values, path)] = tree.open([bucket])
        assert verify_path(proof.roots[0], bucket, values, path, len(word.values))
        for at, value in enumerate(values, bucket * LEAF_CLASSES):
            padded.openings[0][at] = (value, path)
    assert len(unread) == 1000 // LEAF_CLASSES
    assert (sum(map(len, padded.openings))
            == sum(map(len, proof.openings)) + LEAF_CLASSES * len(unread))
    calls.clear()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs,
                                               NIProof.parse(padded.serialize()), params)
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
        assert verify_noninteractive(prover_seq, instance.rs, proof, params)[0]
        assert verify_noninteractive(verifier_seq, instance.rs, proof, params) == (False, None)


def test_ni_verifier_params_must_match_header(ni_setup, monkeypatch):
    # the verifier's m and t decide: a proof whose header names others is
    # rejected before any walk, and without params the header's are taken
    instance, params, word, proof, _ = ni_setup
    assert verify_noninteractive(instance.seq, instance.rs, proof)[0]

    def no_query(*args):
        raise AssertionError("walked a proof of other parameters")

    monkeypatch.setattr(niproof, "verifier_query", no_query)
    for other in (ProtocolParams(params.m - 1, params.t), ProtocolParams(params.m, params.t - 1),
                  ProtocolParams(params.m + 1, params.t), ProtocolParams(10, 2)):
        assert verify_noninteractive(instance.seq, instance.rs, proof, other) == (False, None)


def test_ni_header_t_above_n_rejected(ni_setup):
    # t = n + 1 parses, and a verifier at t = n + 1 refuses it before any walk
    instance, params, word, proof, _ = ni_setup
    hacked = NIProof.parse(proof.serialize())
    hacked.t = instance.n + 1
    parsed = NIProof.parse(hacked.serialize())
    assert parsed.t == instance.n + 1
    assert verify_noninteractive(instance.seq, instance.rs, parsed,
                                 ProtocolParams(params.m, instance.n + 1)) == (False, None)


def test_prove_hashes_each_tree_node_once(monkeypatch):
    # an r = 8 prove makes one DIGEST call per leaf and per inner node of
    # each level's tree, none for the zero padding: leaves + padded leaves
    # - 1 per level.  A tree of narrower leaves, or one that hashes classes
    # one by one, makes more
    instance = gen_instance(8, 2**31 - 1, 253)
    calls = []

    class CountingTree(MerkleTree):
        def __init__(self, values):
            calls.extend(_hashed_preimages(super().__init__, values))

    monkeypatch.setattr(niproof, "MerkleTree", CountingTree)
    word = random_codeword_word(instance, random.Random(derive_seed(1, 1)))
    _, transcript = prove_noninteractive(instance.seq, instance.rs, word, ProtocolParams(10, 2))
    assert transcript.accept
    leaves = [-(-graph.classes.num_classes // LEAF_CLASSES) for graph in instance.seq.graphs]
    assert len(calls) == sum(n + (1 << (n - 1).bit_length()) - 1 for n in leaves) == 11_550


@pytest.mark.parametrize("r,max_bytes", [(8, 29_000), (4, 1_800)])
def test_ni_proof_size(r, max_bytes):
    # the r = 8 and r = 4 proofs of word seed 1 at m = 10, t = 2 stay within
    # their size budgets, each level opens the buckets holding the commit
    # positions of its reads, and sends exactly the sibling digests a
    # multi-opening of those buckets cannot compute: at each layer the
    # distinct siblings of the buckets' ancestors that are not ancestors
    n = (1 << r) - 1
    instance = gen_instance(r, 2**31 - 1, n - 2)
    word = random_codeword_word(instance, random.Random(derive_seed(1, 1)))
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, word,
                                             ProtocolParams(10, 2))
    blob = proof.serialize()
    assert transcript.accept and len(blob) <= max_bytes
    pos = 4 + 10 + 32 + 12 + 32 * (r + 1)
    for graph, at, cids in zip(instance.seq.graphs, instance.seq.commit_positions(),
                               transcript.reads):
        buckets = {at.item(cid) // LEAF_CLASSES for cid in cids}
        depth = (-(-graph.classes.num_classes // LEAF_CLASSES) - 1).bit_length()
        above = [{b >> d for b in buckets} for d in range(depth)]
        digests = sum(len({a ^ 1 for a in layer} - layer) for layer in above)
        count, depth_byte = struct.unpack_from("<IB", blob, pos)
        assert (count, depth_byte) == (len(buckets), depth)
        pos += 5
        for _ in range(count):
            # a u32 first position, n as a u8, and n values of 4 bytes
            pos += 5 + 4 * blob[pos + 4]
        pos += DIGEST_SIZE * digests
    assert pos == len(blob)
