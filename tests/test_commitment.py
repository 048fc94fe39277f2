import hashlib
import random
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import flowering.commitment as commitment
import flowering.iopp as iopp
import flowering.niproof as niproof
import loop_oracle as oracle
from conftest import by_position, replay
from flowering.adversaries import build_adversary, far_word
from flowering.cayley import blossoming_cayley
from flowering.commitment import (
    DIGEST_SIZE,
    LEAF_CLASSES,
    EmptyWordError,
    FSState,
    IndexOutOfRangeError,
    MerkleTree,
    MultiOpening,
    _node_hash,
    sent_siblings,
    sibling_count,
    verify_open,
)
from flowering.errors import FloweringError
from flowering.experiments import derive_seed, gen_instance, random_codeword_word
from flowering.field import PrimeField
from flowering.folding import BlossomingSequence
from flowering.graph_code import Word
from flowering.iopp import ProtocolParams, prover_commit, run_protocol, verifier_query
from flowering.niproof import (
    MalformedProofError,
    NIProof,
    byte_split,
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


def one_bucket(bucket, values, path, num_classes):
    # the multi-opening of one bucket of a tree over num_classes values,
    # whose full path is its sibling stream
    return MultiOpening({bucket: values}, num_classes, b"".join(path))


def verify_record(root, bucket, values, path, num_classes):
    # the level check on a one-bucket opening that names the class count
    return verify_open(root, one_bucket(bucket, values, path, num_classes), num_classes)


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
                path = [layer[(bucket >> d) ^ 1] for d, layer in enumerate(layers[:-1])]
                first = bucket * LEAF_CLASSES
                opened = values[first:first + LEAF_CLASSES]
                assert tree.open([bucket]) == one_bucket(bucket, opened, path, n)
                assert tree.open([bucket]).paths() == {bucket: path}
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
            opening = tree.open(buckets)
            full = {b: [layer[(b >> d) ^ 1] for d, layer in enumerate(layers[:-1])]
                    for b in buckets}
            sent = sent_siblings(buckets, depth)
            assert len(sent) == sibling_count(buckets, depth) == len(
                {(d, (b >> d) ^ 1) for b in buckets for d in range(depth)}
                - {(d, b >> d) for b in buckets for d in range(depth)})
            assert (opening.num_classes, opening.depth) == (n, depth)
            assert opening.records == {b: values[b * LEAF_CLASSES:(b + 1) * LEAF_CLASSES]
                                       for b in buckets}
            assert opening.siblings == b"".join(layers[d][node] for d, node in sent)
            assert opening.paths() == {
                b: [b"" if any(c >> d == (b >> d) ^ 1 for c in buckets) else digest
                    for d, digest in enumerate(full[b])] for b in buckets}

            def agree(root, opening, full):
                expected = all(verify_path(root, b, opened, full[b], n)
                               for b, opened in opening.records.items())
                assert verify_open(root, opening, n) == expected
                return expected

            assert agree(tree.root, opening, full)
            assert not agree(_flip(tree.root), opening, full)
            # each opened leaf and each distinct ancestor hashed once
            hashed = _hashed_preimages(verify_open, tree.root, opening, n)
            assert len(hashed) == len(set(hashed)) == sum(
                len({b >> d for b in buckets}) for d in range(depth + 1))
            b = rng.choice(buckets)
            changed = list(opening.records[b])
            changed[rng.randrange(len(changed))] ^= 1
            assert not agree(tree.root, MultiOpening({**opening.records, b: changed},
                                                     n, opening.siblings), full)
            if sent:
                k = rng.randrange(len(sent))
                d, node = sent[k]
                at = k * DIGEST_SIZE
                # every path below the sent digest's sibling carries it
                flipped = MultiOpening(opening.records, n, opening.siblings[:at]
                                       + _flip(opening.siblings[at:at + DIGEST_SIZE])
                                       + opening.siblings[at + DIGEST_SIZE:])
                flipped_full = {c: [_flip(x) if j == d and (c >> d) ^ 1 == node else x
                                    for j, x in enumerate(path)] for c, path in full.items()}
                assert not agree(tree.root, flipped, flipped_full)
                # a stream one digest short or one too long
                for siblings in (opening.siblings[:-DIGEST_SIZE],
                                 opening.siblings + opening.siblings[:DIGEST_SIZE]):
                    assert not verify_open(tree.root, MultiOpening(opening.records, n,
                                                                   siblings), n)


def test_merkle_open_verify():
    # LEAF_CLASSES + 5 classes in two buckets, a full one and one of 5
    full = LEAF_CLASSES
    n = full + 5
    values = list(range(100, 100 + n))
    tree = MerkleTree(values)
    first, last = values[:full], values[full:]
    assert tree.open([0]) == MultiOpening({0: first}, n, tree.layers[0][32:])
    assert tree.open([1]) == MultiOpening({1: last}, n, tree.layers[0][:32])
    # both buckets: each is the other's sibling, so the stream sends neither
    both = tree.open([0, 1])
    assert both == MultiOpening({0: first, 1: last}, n, b"")
    assert verify_open(tree.root, both, n)
    assert not verify_open(tree.root, MultiOpening({1: last, 0: first}, n, b""), n)  # out of order
    # bucket 1 holding bucket 0's values
    assert not verify_open(tree.root, MultiOpening({0: first, 1: first}, n, b""), n)
    # a stream is consumed whole: a digest too few or too many
    assert not verify_open(tree.root, MultiOpening({0: first}, n, b""), n)
    assert not verify_open(tree.root, MultiOpening({0: first, 1: last}, n, tree.layers[0][:32]), n)
    # an opening authenticates only against the tree shape it came from: it
    # must name the class count asked for, and under another one its records
    # and stream do not fit that tree, whose depth or buckets differ
    opened = tree.open([1])
    assert verify_open(tree.root, opened, n)
    for other in (n - 1,  # last bucket of 4
                  2 * full,  # last bucket full
                  full,  # bucket out of range
                  2 * full + 1):  # deeper tree
        assert not verify_open(tree.root, opened, other)
        assert not verify_open(tree.root, MultiOpening(opened.records, other, opened.siblings),
                               other)
    # bucket 0 is full in a tree of 2 * full classes as well, of the same
    # depth, so the opening renamed to that count authenticates
    assert not verify_open(tree.root, tree.open([0]), 2 * full)
    assert verify_open(tree.root, MultiOpening({0: first}, 2 * full, tree.layers[0][32:]),
                       2 * full)
    # no records open nothing, with no siblings
    assert verify_open(tree.root, MultiOpening({}, n, b""), n)
    assert not verify_open(tree.root, MultiOpening({}, n, opened.siblings), n)
    with pytest.raises(IndexOutOfRangeError):
        tree.open([2])
    with pytest.raises(IndexOutOfRangeError):
        tree.open([-1])


def test_single_leaf_tree():
    tree = MerkleTree([42])
    assert tree.open([0]) == MultiOpening({0: [42]}, 1, b"")
    assert verify_open(tree.root, tree.open([0]), 1)
    assert not verify_open(tree.root, MultiOpening({1: [42]}, 1, b""), 1)
    assert not verify_open(tree.root, tree.open([0]), 2)
    assert not verify_open(tree.root, MultiOpening({0: [42]}, 2, b""), 2)  # a bucket of 2


def test_opening_bound_to_tree_depth():
    # One root, two openings of bucket 1: to c through a depth-1 path and to
    # b through a depth-2 path that passes the inner node0 off as a leaf.
    # Each names the class count it is checked against, whose tree's depth
    # decides which of the two can pass.
    a, b, c = ([base + i for i in range(LEAF_CLASSES)] for base in (0, 100, 200))
    node0 = _node_hash(oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, b))
    root = _node_hash(node0, oracle.merkle_leaf(1, c))

    def shallow(num_classes):
        return verify_record(root, 1, c, [node0], num_classes)

    def deep(num_classes):
        return verify_record(root, 1, b, [oracle.merkle_leaf(0, a), oracle.merkle_leaf(1, c)],
                             num_classes)

    two_leaves, four_leaves = 2 * LEAF_CLASSES, 4 * LEAF_CLASSES
    assert shallow(two_leaves) and not deep(two_leaves)
    for num_classes in (two_leaves + 1, 3 * LEAF_CLASSES, four_leaves):
        assert deep(num_classes) and not shallow(num_classes)
    for num_classes in (LEAF_CLASSES, two_leaves - 1, four_leaves + 1, 8 * LEAF_CLASSES):
        assert not shallow(num_classes) and not deep(num_classes)


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
    split = byte_split(blob)
    assert split["levels"][-1][2] == len(blob)
    assert split["values"] == width * sum(len(values) for level in proof.levels
                                          for values in level.records.values())
    assert verify_noninteractive(instance.seq, instance.rs, parsed, params)[0]


def test_read_log_is_the_oracle_addresses(monkeypatch):
    # each level's read log is exactly the set of addresses its oracle was
    # asked, which the record check compares the opened buckets with: class
    # ids in run_protocol, commit positions in the NI prover's self-run and
    # in the NI verifier on a fresh and on a built chain, whether the query
    # phase accepts, fails a fold check or fails the flower check
    asked = []

    def recording(module):
        query = module.verifier_query

        def wrapped(seq, rs, params, challenges, oracle, *args):
            levels = [set() for _ in range(seq.r + 1)]

            def asking(level, at):
                levels[level].add(at)
                return oracle(level, at)
            transcript = query(seq, rs, params, challenges, asking, *args)
            asked.append((transcript, levels))
            return transcript
        monkeypatch.setattr(module, "verifier_query", wrapped)

    recording(iopp)
    recording(niproof)
    instance = gen_instance(4, 2**31 - 1, 13)
    seq, rs, params = instance.seq, instance.rs, ProtocolParams(4, 2)
    codeword = random_codeword_word(instance, random.Random(2))
    far, _ = far_word(instance.code, Fraction(1, 2), random.Random(3))
    lazy, copy, _ = build_adversary("lazy-copy", instance.code, Fraction(1, 2),
                                    random.Random(4))
    for word, respond in ((codeword, None), (far, None), (lazy, copy)):
        run_protocol(seq, rs, word, params, 1, respond)
    for word in (codeword, far):
        proof, _ = prove_noninteractive(seq, rs, word, params)
        flipped = NIProof.parse(proof.serialize())
        values = next(iter(flipped.levels[1].records.values()))
        values[0] ^= 1
        for candidate in (NIProof.parse(proof.serialize()), flipped):
            for chain in (blossoming_cayley(instance.gens), seq):
                verify_noninteractive(chain, rs, candidate, params)
    assert len(asked) == 3 + 2 * (1 + 2 * 2)
    # an accepting run, a flower rejection and a failed fold check, after
    # which the flower view is not read
    outcomes = {(t.accept, t.counters.final_check_field_ops > 0) for t, _ in asked}
    assert outcomes == {(True, True), (False, True), (False, False)}
    for transcript, levels in asked:
        assert transcript.reads == levels


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
        # the NI query phase reads the same classes by commit position
        assert by_position(interactive, instance.seq.commit_positions()) == (
            transcript.to_json(), transcript.reads)
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


def test_ni_every_truncation_and_byte_flip_refused():
    # the r = 3, p = 101, m = 2 proof: every truncation, and every byte
    # XORed with 0x01, 0x80 or 0xff, is refused by parse or rejected by the
    # verifier; none is accepted, and none raises but FloweringError
    instance = gen_instance(3, 101, 5)
    params = ProtocolParams(2, 2)
    word = random_codeword_word(instance, random.Random(0))
    proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
    blob = proof.serialize()
    assert transcript.accept and verify_noninteractive(instance.seq, instance.rs, proof, params)[0]
    cases = [blob[:cut] for cut in range(len(blob))]
    cases += [blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]
              for i in range(len(blob)) for mask in (0x01, 0x80, 0xff)]
    refused = Counter()
    for case in cases:
        try:
            parsed = NIProof.parse(case)
        except MalformedProofError:
            refused["parse"] += 1
            continue
        try:
            accept, _ = verify_noninteractive(instance.seq, instance.rs, parsed, params)
        except FloweringError:
            accept = False
        assert not accept
        refused["verifier"] += 1
    assert sum(refused.values()) == 4 * len(blob) and refused["parse"] and refused["verifier"]


def test_positions_view_reads_and_writes_values(ni_setup):
    # NIProof.openings, per level position -> (value, path) over the
    # records: length, truthiness, iteration in position order, values(),
    # a read, and a write of an opened position's value under its path,
    # which serialize carries, so that the verifier rejects the proof
    instance, params, _, proof, _ = ni_setup
    parsed = NIProof.parse(proof.serialize())
    for opening, view in zip(parsed.levels, parsed.openings):
        paths = opening.paths()
        expected = {at: (value, paths[bucket]) for bucket, values in opening.records.items()
                    for at, value in enumerate(values, bucket * LEAF_CLASSES)}
        assert bool(view) is bool(expected) and len(view) == len(expected)
        assert list(view) == sorted(expected)
        assert list(view.values()) == [expected[at] for at in sorted(expected)]
        assert all(view[at] == expected[at] for at in expected)
    level = next(view for view in parsed.openings if view)
    at = min(level)
    value, path = level[at]
    with pytest.raises(KeyError):
        level[next(x for x in range(at, at + 2**20) if x not in set(level))]
    with pytest.raises(FloweringError, match="under its bucket's path"):
        level[at] = (value, path + [b""])
    assert level[at] == (value, path)
    level[at] = (value ^ 1, path)
    assert level[at] == (value ^ 1, path)
    blob = parsed.serialize()
    assert blob != proof.serialize()
    assert verify_noninteractive(instance.seq, instance.rs, NIProof.parse(blob),
                                 params) == (False, None)


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
    values = next(iter(next(lv for lv in hacked.levels if lv.records).records.values()))
    values[0] += 101  # same residue, out of range
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
    # at p = 101 a value takes one byte, and a bucket and a class count are
    # each a u32: a value past a byte, or a bucket or class count past a
    # u32, is one error line from serialize, never a proof of other values
    # or a bare struct.error
    _, _, _, proof, _ = ni_setup
    level = next(i for i, lv in enumerate(proof.levels) if lv.records)
    bucket, values = next(iter(proof.levels[level].records.items()))
    for key, record in ((bucket, [256, *values[1:]]), (bucket, [-1, *values[1:]]),
                        (1 << 32, [0])):
        hacked = NIProof.parse(proof.serialize())
        hacked.levels[level].records[key] = record
        with pytest.raises(FloweringError,
                           match=f"does not fit format v{niproof.VERSION} at p = 101") as info:
            hacked.serialize()
        assert "\n" not in str(info.value)
    hacked = NIProof.parse(proof.serialize())
    hacked.levels[level].num_classes = 1 << 32
    with pytest.raises(FloweringError, match=f"level {level} does not fit format v"):
        hacked.serialize()
    # the widest value and the last bucket are written; the parser reads
    # the value back, and refuses the bucket only for the level's class count
    hacked = NIProof.parse(proof.serialize())
    hacked.levels[level].records[bucket] = [255, *values[1:]]
    assert NIProof.parse(hacked.serialize()) == hacked
    hacked.levels[level].records = {(1 << 32) - 1: [0]}
    with pytest.raises(MalformedProofError, match=f"bucket {(1 << 32) - 1} is outside a tree of"):
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


def _level_tree(instance, params, word, proof, level=1):
    """The level's honest tree, as the prover committed it."""
    challenges, _ = derive_noninteractive_randomness(
        instance.seq, instance.rs, params, proof.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    tree = MerkleTree(_committed(instance.seq, level, words[level].values))
    assert tree.root == proof.roots[level]
    return tree


def _unread_bucket(instance, params, word, proof, level=1):
    """(tree, bucket): the level's honest tree and a bucket no walk reads,
    which opens against it."""
    tree = _level_tree(instance, params, word, proof, level)
    opened = set(proof.levels[level].records)
    bucket = min(set(range(-(-len(tree.values) // LEAF_CLASSES))) - opened)
    assert verify_open(proof.roots[level], tree.open([bucket]), len(tree.values))
    return tree, bucket


def _tree_siblings(tree, buckets) -> bytes:
    """The sibling stream of the buckets, read from the tree's layers, so
    also for a bucket past the tree's last leaf."""
    depth = len(tree.layers) - 1
    return b"".join(tree.layers[d][node * DIGEST_SIZE:(node + 1) * DIGEST_SIZE]
                    for d, node in sent_siblings(buckets, depth))


def _unread_opening(instance, params, word, proof):
    # the first position of a bucket no walk reads, opened with the read
    # buckets against the honest tree.  Format v9 cannot write a record of
    # part of a bucket, so this proof is checked as built (BUILT_IN_CODE)
    tree, bucket = _unread_bucket(instance, params, word, proof)
    opening = tree.open(sorted({*proof.levels[1].records, bucket}))
    opening.records[bucket] = opening.records[bucket][:1]
    proof.levels[1] = opening


def _unread_bucket_opening(instance, params, word, proof):
    # every position of a bucket no walk reads, opened with the read buckets
    tree, bucket = _unread_bucket(instance, params, word, proof)
    proof.levels[1] = tree.open(sorted({*proof.levels[1].records, bucket}))


def _first_record(proof, level=1):
    records = proof.levels[level].records
    bucket = min(records)
    return records, bucket


def _drop_opening(instance, params, word, proof):
    # level 1's first record, a read bucket, left out, and the others opened
    # against the honest tree: the query phase reads outside the records
    tree = _level_tree(instance, params, word, proof)
    records, bucket = _first_record(proof)
    proof.levels[1] = tree.open(sorted(set(records) - {bucket}))


def _two_paths(instance, params, word, proof):
    # the first bucket of level 1 written as two records, as the
    # per-position form wrote a bucket whose positions carried two paths
    records, bucket = _first_record(proof)
    values = records[bucket]
    head = struct.pack(f"<I{len(values)}I", bucket, *values)
    blob = proof.serialize()
    start = byte_split(blob)["levels"][1][0]
    count, num_classes = struct.unpack_from("<II", blob, start)
    at = start + 8
    assert blob[at:at + len(head)] == head
    return blob[:start] + struct.pack("<II", count + 1, num_classes) + head + blob[at:]


def _move_opening(instance, params, word, proof):
    # level 1's first record moved to the first bucket level 2 does not
    # open, each level under the honest sibling stream of its new buckets,
    # so that it still writes one digest per sent sibling
    records, bucket = _first_record(proof)
    moved = records.pop(bucket)
    proof.levels[1].siblings = _tree_siblings(_level_tree(instance, params, word, proof),
                                              list(records))
    tree = _level_tree(instance, params, word, proof, level=2)
    target = proof.levels[2]
    new = min(set(range(-(-len(tree.values) // LEAF_CLASSES))) - set(target.records))
    assert len(moved) == len(tree.open([new]).records[new])
    buckets = sorted({*target.records, new})
    proof.levels[2] = MultiOpening({b: target.records.get(b, moved) for b in buckets},
                                   target.num_classes, _tree_siblings(tree, buckets))


def _resize_tree(delta):
    def mutate(instance, params, word, proof):
        # a level's class count set to that of a tree one layer shallower
        # (every leaf full) or one deeper (one leaf past a full tree), with
        # the sibling stream of that depth (the deeper one's extra digest
        # zero): the first level whose last opened bucket lies in the upper
        # half of its tree, which one layer less cannot hold, and whose
        # records are whole buckets in the deeper tree too
        opening = next(level for level in proof.levels
                       if max(level.records) >> (level.depth - 1)
                       and all(len(values) == LEAF_CLASSES for values in level.records.values()))
        depth = opening.depth + delta
        opening.siblings = (opening.siblings[:DIGEST_SIZE * sibling_count(opening.records, depth)]
                            + bytes(DIGEST_SIZE) * (delta > 0))
        opening.num_classes = LEAF_CLASSES * (1 << depth if delta < 0 else (1 << depth - 1) + 1)
        assert opening.depth == depth
    return mutate


def _other_class_count(instance, params, word, proof):
    # a level's class count one off, with the same buckets and tree depth:
    # the first level whose last bucket is not opened, so that its records
    # are whole buckets under either count
    opening = next(level for level in proof.levels
                   if max(level.records) < -(-level.num_classes // LEAF_CLASSES) - 1)
    count = opening.num_classes
    opening.num_classes = count + 1 if count % LEAF_CLASSES == 1 else count - 1


def _cid_out_of_range(instance, params, word, proof):
    # level 1's first record moved to the bucket past the last one of its
    # tree
    records, bucket = _first_record(proof)
    records[-(-proof.levels[1].num_classes // LEAF_CLASSES)] = records.pop(bucket)


def _drop_last_class(instance, params, word, proof):
    # the last position of a full read bucket, whose class was not read:
    # the record misses a position, which format v9 cannot write, so this
    # proof is checked as built (BUILT_IN_CODE) and verify_open refuses it
    read = verify_noninteractive(instance.seq, instance.rs, proof, params)[1].reads
    level, bucket = next((level, bucket) for level, opening in enumerate(proof.levels)
                         for bucket, values in opening.records.items()
                         if len(values) == LEAF_CLASSES
                         and (bucket + 1) * LEAF_CLASSES - 1 not in read[level])
    proof.levels[level].records[bucket].pop()


def _swap_pair(instance, params, word, proof):
    # the honest proof of a random kernel codeword, whose two classes of a
    # fold pair differ (an index-only word is equal on both), with the
    # values of a level-0 pair that no walk reads, adjacent positions of one
    # opened bucket, traded in its record: the query phase and the records
    # are those of the honest proof, and the leaf's hash is not
    rng = random.Random(5)
    field = instance.field
    codeword = field.array([0] * instance.seq.graphs[0].classes.num_classes)
    for vector in instance.code.codeword_basis():
        codeword = field.mul_add(codeword, rng.randrange(field.p), field.array(vector))
    swapped, transcript = prove_noninteractive(
        instance.seq, instance.rs, Word(word.graph, field, codeword), params)
    assert transcript.accept
    positions = instance.seq.commit_positions()[0]
    read = transcript.reads[0]
    records = swapped.levels[0].records

    def value(at):
        return records[at // LEAF_CLASSES][at % LEAF_CLASSES]

    a, b = next(pair for pair in positions[instance.seq.cuts[0].fold_plan].T.tolist()
                if pair[0] // LEAF_CLASSES in records and not read & set(pair)
                and value(pair[0]) != value(pair[1]))
    assert abs(a - b) == 1 and min(a, b) % 2 == 0
    values = records[a // LEAF_CLASSES]
    i, j = a % LEAF_CLASSES, b % LEAF_CLASSES
    values[i], values[j] = values[j], values[i]
    return swapped.serialize()


def _class_order_level(instance, params, word, proof):
    # level 1 committed in class order, as format v4 committed every level,
    # under a version-9 header, and opened whole; every other level in its
    # commit order, opening the buckets that the query phase on these roots
    # reads of the honest commitment.  Every position the verifier reads is
    # there, so the query phase ends, and the record check refuses the
    # level-1 buckets it did not read
    seq, rs = instance.seq, instance.rs
    schedule = niproof.fiat_shamir_schedule(seq, rs, params)
    next(schedule)
    trees, honest = [], []

    def commit(level_word):
        honest.append(_committed(seq, len(trees), level_word.values))
        trees.append(MerkleTree(level_word.values if len(trees) == 1 else honest[-1]))
        return schedule.send(trees[-1].root)

    challenges, words = prover_commit(seq, word, commit)
    randomness = commit(words[-1])
    transcript = verifier_query(seq, rs, params, challenges,
                                lambda level, at: honest[level].item(at), randomness,
                                seq.fold_reads(positions=True))
    assert transcript.accept
    levels = [tree.open(sorted({at // LEAF_CLASSES for at in read}))
              for tree, read in zip(trees, transcript.reads)]
    levels[1] = trees[1].open(list(range(-(-len(trees[1].values) // LEAF_CLASSES))))
    return NIProof(rs.field.p, seq.digest(), seq.r, params.m, params.t,
                   [tree.root for tree in trees], levels).serialize()


def _extra_flower_class(instance, params, word, proof):
    # position N of the flower level, committed in class order, appended to
    # its last record: the flower view reads every class, and the last
    # bucket holds fewer than LEAF_CLASSES, so the record grows one past
    # the tree's last position.  Format v9 cannot write it, so this proof
    # is checked as built (BUILT_IN_CODE) and verify_open refuses it
    records = proof.levels[instance.r].records
    num_classes = instance.seq.graphs[instance.r].classes.num_classes
    assert num_classes % LEAF_CLASSES
    assert list(records) == list(range(-(-num_classes // LEAF_CLASSES)))
    records[max(records)].append(0)


def _digest_span(proof, level):
    """(start, end) of the level's sibling digests in the proof's bytes."""
    return byte_split(proof.serialize())["levels"][level][1:]


def _drop_sibling(instance, params, word, proof):
    # level 0's list of sibling digests one short
    blob = proof.serialize()
    start, end = _digest_span(proof, 0)
    assert end > start
    return blob[:start] + blob[start + DIGEST_SIZE:]


def _duplicate_sibling(instance, params, word, proof):
    # level 0's first sibling digest sent twice
    blob = proof.serialize()
    start, _ = _digest_span(proof, 0)
    return blob[:start + DIGEST_SIZE] + blob[start:]


def _swap_sibling(instance, params, word, proof):
    # the first sibling digests of levels 0 and 1 trade places
    blob = bytearray(proof.serialize())
    (a, _), (b, _) = _digest_span(proof, 0), _digest_span(proof, 1)
    blob[a:a + DIGEST_SIZE], blob[b:b + DIGEST_SIZE] = (blob[b:b + DIGEST_SIZE],
                                                        blob[a:a + DIGEST_SIZE])
    return bytes(blob)


@pytest.fixture
def verify_open_calls(monkeypatch):
    """The buckets niproof authenticates, one entry per verify_open call,
    that is per level."""
    calls = []

    def counting_verify_open(root, opening, num_classes):
        calls.append(list(opening.records))
        return verify_open(root, opening, num_classes)

    monkeypatch.setattr(niproof, "verify_open", counting_verify_open)
    return calls


@pytest.fixture
def verifier_checks(monkeypatch):
    """How far verify_noninteractive got: the query phases it ended, the
    levels whose read records it refused, and the levels verify_open
    refused."""
    seen = Counter()
    query, check_records, open_level = (niproof.verifier_query, niproof._check_records,
                                        niproof.verify_open)

    def counting_query(*args, **kwargs):
        transcript = query(*args, **kwargs)
        seen["query phase"] += 1
        return transcript

    def counting_records(*args):
        ok = check_records(*args)
        seen["records refused"] += not ok
        return ok

    def counting_open(*args):
        ok = open_level(*args)
        seen["verify_open refused"] += not ok
        return ok

    monkeypatch.setattr(niproof, "verifier_query", counting_query)
    monkeypatch.setattr(niproof, "_check_records", counting_records)
    monkeypatch.setattr(niproof, "verify_open", counting_open)
    return seen


def _read_buckets(proof) -> int:
    # an honest proof opens exactly the buckets holding the commit
    # positions its query phase reads
    return sum(len(level.records) for level in proof.levels)


# cases format v9 cannot write, a record of part of a bucket or more than
# one, which the verifier gets as built
BUILT_IN_CODE = {"unread-class", "dropped-last", "extra-flower-class"}
# cases the parser refuses: a bucket written as two records, a bucket past
# the level's last, also under a class count of a tree one layer shallower,
# and a sibling digest too few or too many, which misaligns the rest of the
# proof
REFUSED_BY_PARSE = {"path-shorter", "cid-num-classes", "two-paths", "dropped-sibling",
                    "duplicated-sibling"}
# cases whose query phase ends, each with the one check that refuses it; a
# refused record check comes before any verify_open call
REFUSED_BY = {"swapped-pair": "verify_open refused", "class-order-level": "records refused",
              "unread-class": "records refused", "unread-bucket": "records refused",
              "path-longer": "records refused", "class-count": "records refused",
              "dropped-last": "verify_open refused", "extra-flower-class": "verify_open refused"}


@pytest.mark.parametrize("mutate", [
    _drop_opening, _unread_opening, _move_opening, _resize_tree(-1), _resize_tree(+1),
    _other_class_count, _cid_out_of_range, _two_paths, _unread_bucket_opening,
    _drop_last_class, _extra_flower_class, _drop_sibling, _duplicate_sibling, _swap_sibling,
    _swap_pair, _class_order_level,
], ids=["dropped", "unread-class", "moved-level", "path-shorter", "path-longer",
        "class-count", "cid-num-classes", "two-paths", "unread-bucket",
        "dropped-last", "extra-flower-class", "dropped-sibling", "duplicated-sibling",
        "swapped-sibling", "swapped-pair", "class-order-level"])
def test_ni_structural_mutations_rejected(ni_setup_r5, mutate, verify_open_calls,
                                          verifier_checks, request):
    # the verifier accepts exactly the buckets its query phase reads, each
    # whole under the level's one pruned multi-opening of the tree of the
    # chain's class count, and authenticates at most once per level.  A
    # case returns the proof's bytes where it changes them directly, and
    # changes the parsed proof otherwise.
    instance, params, word, proof = ni_setup_r5
    assert instance.r == 5
    case = request.node.callspec.id
    mutated = NIProof.parse(proof.serialize())
    blob = mutate(instance, params, word, mutated)
    if case in BUILT_IN_CODE:
        assert mutated != proof
    else:
        blob = blob or mutated.serialize()
        assert blob != proof.serialize()
        if case in REFUSED_BY_PARSE:
            with pytest.raises(MalformedProofError):
                NIProof.parse(blob)
            return
        mutated = NIProof.parse(blob)
    verify_open_calls.clear()
    verifier_checks.clear()
    accept, transcript = verify_noninteractive(instance.seq, instance.rs, mutated, params)
    assert not accept and transcript is None
    assert len(verify_open_calls) <= instance.r + 1
    if case in REFUSED_BY:
        assert verifier_checks["query phase"] == 1
        assert set(+verifier_checks) == {"query phase", REFUSED_BY[case]}
        if REFUSED_BY[case] == "records refused":
            assert verify_open_calls == []


def test_ni_malformed_records_refused(ni_setup):
    # a level parses only with a class count of at least 1 and at most one
    # record per bucket of its tree, one per bucket in increasing order,
    # each bucket inside the tree, with exactly the values and sibling
    # digests the class count and buckets call for
    _, _, _, proof, _ = ni_setup
    head = proof.serialize()[:4 + 10 + 32 + 12 + 32 * (proof.r + 1)]
    empty_levels = struct.pack("<II", 0, 1) * proof.r
    digest = bytes(range(DIGEST_SIZE))

    def level0(*records, num_classes=LEAF_CLASSES + 2, count=None, digests=b"",
               tail=empty_levels):
        count = len(records) if count is None else count
        return (head + struct.pack("<II", count, num_classes) + b"".join(records)
                + digests + tail)

    def record(bucket, values):
        # at p = 101 each value takes one byte
        return struct.pack(f"<I{len(values)}B", bucket, *values)

    # buckets 0 and 1: siblings, so in a tree of two leaves nothing is sent
    # and in one of three the one sibling of their parent is
    pair = (record(0, [1] * LEAF_CLASSES), record(1, [2, 3]))
    shallow = NIProof.parse(level0(*pair)).levels[0]
    assert shallow == MultiOpening({0: [1] * LEAF_CLASSES, 1: [2, 3]}, LEAF_CLASSES + 2, b"")
    assert shallow.paths() == {0: [b""], 1: [b""]}
    full_pair = (record(0, [1] * LEAF_CLASSES), record(1, [2] * LEAF_CLASSES))
    deep = NIProof.parse(level0(*full_pair, num_classes=2 * LEAF_CLASSES + 1,
                                digests=digest)).levels[0]
    assert (deep.depth, deep.siblings) == (2, digest)
    assert deep.paths() == {0: [b"", digest], 1: [b"", digest]}
    for blob, message in (
        (level0(num_classes=0), "level of 0 records over 0 classes"),
        (level0(*pair, num_classes=0), "level of 2 records over 0 classes"),
        (level0(*pair, record(2, [4])), "level of 3 records over 18 classes"),
        (level0(record(0, [1] * LEAF_CLASSES), record(0, [1] * LEAF_CLASSES),
                num_classes=2 * LEAF_CLASSES), "bucket 0 follows one in bucket 0"),
        (level0(*pair[::-1]), "bucket 0 follows one in bucket 1"),
        (level0(record(2, [4])), "bucket 2 is outside a tree of 18 classes"),
        # a class count that makes bucket 1 full
        (level0(*pair, num_classes=2 * LEAF_CLASSES, tail=b""), "truncated proof"),
        # a level cut short inside its digest list
        (level0(*full_pair, num_classes=2 * LEAF_CLASSES + 1,
                digests=digest[:DIGEST_SIZE // 2], tail=b""), "truncated proof"),
    ):
        with pytest.raises(MalformedProofError, match=message):
            NIProof.parse(blob)
    # the class count is a u32: the last bucket of the largest tree holds
    # the positions up to 2^32 - 2 and parses at its full depth
    largest = 2**32 - 1
    bucket, depth = largest // LEAF_CLASSES, (largest // LEAF_CLASSES).bit_length()
    last = record(bucket, [1] * (LEAF_CLASSES - 1))
    parsed = NIProof.parse(level0(last, num_classes=largest, digests=digest * depth)).levels[0]
    assert parsed.records == {bucket: [1] * (LEAF_CLASSES - 1)}
    assert parsed.paths() == {bucket: [digest] * depth}
    with pytest.raises(MalformedProofError, match=f"bucket {bucket + 1} is outside a tree of"):
        NIProof.parse(level0(record(bucket + 1, [1]), num_classes=largest))


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
    read = set(padded.levels[0].records)
    unread = sorted(set(range(len(word.values) // LEAF_CLASSES)) - read)[:1000 // LEAF_CLASSES]
    for bucket in unread:
        assert verify_open(proof.roots[0], tree.open([bucket]), len(word.values))
    padded.levels[0] = tree.open(sorted(read | set(unread)))
    assert verify_open(proof.roots[0], padded.levels[0], len(word.values))
    assert len(unread) == 1000 // LEAF_CLASSES

    def positions(proof):
        return sum(len(values) for level in proof.levels for values in level.records.values())

    assert positions(padded) == positions(proof) + LEAF_CLASSES * len(unread)
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
    # an r = 8 prove makes one DIGEST call per leaf and per inner node above
    # a leaf of each level's tree, none for the zero padding: the sum over
    # the tree's layers of ceil(leaves / 2^d) per level.  A tree that hashes
    # the nodes over padding alone, a tree of narrower leaves, or one that
    # hashes classes one by one, makes more
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
    assert len(calls) == sum(-(-n // (1 << d)) for n in leaves
                             for d in range((n - 1).bit_length() + 1)) == 10_862


# the seed-1 r = 8 split of format v9: header, roots, values, framing and
# digest bytes, and the digest and record counts
SPLIT_R8 = {"header": 58, "roots": 288, "values": 10_236, "framing": 712, "digests": 14_688,
            "digest_count": 459, "record_count": 160}


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
    # the reads are the commit positions of the classes that the query
    # phase on the same challenges reads by class id
    challenges, randomness = derive_noninteractive_randomness(
        instance.seq, instance.rs, ProtocolParams(10, 2), proof.roots)
    _, words = prover_commit(instance.seq, word, replay(challenges))
    interactive = verifier_query(instance.seq, instance.rs, ProtocolParams(10, 2), challenges,
                                 lambda level, cid: words[level].values.item(cid), randomness)
    assert by_position(interactive, instance.seq.commit_positions())[1] == transcript.reads
    split = byte_split(blob)
    parts = ("header", "roots", "values", "framing", "digests")
    assert sum(split[part] for part in parts) == len(blob)
    if r == 8:
        assert {key: split[key] for key in SPLIT_R8} == SPLIT_R8
    pos = split["header"] + split["roots"]
    for graph, read, opening, (start, digests, end) in zip(
            instance.seq.graphs, transcript.reads, NIProof.parse(blob).levels, split["levels"]):
        buckets = {at // LEAF_CLASSES for at in read}
        depth = (-(-graph.classes.num_classes // LEAF_CLASSES) - 1).bit_length()
        above = [{b >> d for b in buckets} for d in range(depth)]
        sent = sum(len({a ^ 1 for a in layer} - layer) for layer in above)
        assert (set(opening.records), opening.num_classes, opening.depth) == (
            buckets, graph.classes.num_classes, depth)
        # a u32 count and a u32 class count, then per record a u32 bucket
        # and its values of 4 bytes
        assert start == pos and digests == start + 8 + sum(
            4 + 4 * len(values) for values in opening.records.values())
        assert end - digests == DIGEST_SIZE * sent
        pos = end
    assert pos == len(blob)
