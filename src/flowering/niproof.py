"""Non-interactive proofs: binary format, prover, verifier.

The prover is iopp.prover_commit with each verifier message replaced by
Fiat-Shamir (the compiler of Ben-Sasson, Chiesa and Spooner, TCC 2016):
each level's Merkle root is absorbed into a transcript first bound to the
full instance (field, the chain digest of graph 0 and every cut, RS and
protocol parameters), and the query randomness is derived after the last
root.  Each level is committed in its commit order
(BlossomingSequence.commit_positions): levels 0..r-1 in the pair order of
the cut that folds them, so that the two classes a fold check reads share a
Merkle bucket, and the flower in class order.  The prover builds those
orders as tables; the verifier takes the commit position of each class its
walks read with the class's id (folding.Chain.fold_reads), from closed
forms on a Cayley chain whose tables are not built, and reads the proof by
position.  The proof carries the per-level roots and the authenticated
openings of exactly the buckets holding the commit positions of the
classes the verifier re-derives, the query phase's read log.

The record rule: a proof opens exactly the records that were read, and each
level's records are authenticated together, once.  A record is the
positions of one bucket under one path; NIProof.openings holds them per
commit position, and _records (serialize), _read_records (the verifier) and
_by_position (parse, the prover) are the only conversions.  Each level must
open exactly the positions of the buckets holding the commit positions of
its reads, each bucket under one path, before anything is hashed; then each
record needs every value below p, and each level one verify_open, which
refuses a wrong path depth and hashes each opened leaf and each distinct
ancestor once.  So a proof causes at most one authentication per level.

The multi-round security of this transform is not analyzed here; treat the
non-interactive mode as experimental.

Binary layout, version 7 (little-endian):
    magic "FLWR" | version u16 = 7 | p u64 | chain digest 32B | r u32 |
    m u32 | t u32 | (r+1) roots 32B | per level: count u32 | depth u8 |
    count records (first position u32 | n u8 | n values of w bytes) |
    the level's sibling digests 32B.
A value takes the smallest width w of 1, 2, 4 or 8 bytes with p <= 2^(8w):
4 bytes at p = 2^31 - 1, 8 at p = 2^61 - 1.  Only the wire narrows: the
Merkle leaves hash every value as a u64 (commitment.MerkleTree), so the
roots do not depend on w.  A record opens the n consecutive commit
positions first..first+n-1 of one Merkle bucket (commitment.LEAF_CLASSES
positions per leaf); an honest proof writes one record per opened bucket,
and a position fits a u32 since a graph has at most
cayley.MAX_GRAPH_ENTRIES slots.  The sibling digests are the pruned
multi-opening of the level's buckets (commitment.sent_siblings): for each
layer d < depth, in increasing position, the node at (b >> d) ^ 1 for each
record bucket b, once, skipped where it is itself an ancestor b' >> d of a
record bucket.  Each record's path holds its siblings, b"" where pruned, so
a proof and its parse carry the same paths.  The depth is written once per
level, since the parser has no instance to derive it from; the verifier
requires it to equal the level tree's depth.  The chain digest is
``BlossomingSequence.digest``.  Parsing is strict: any other version (1
bound graph 0 alone, 2 had one leaf per class, 3 sent a full path per
record, 4 committed every level in class order, 5 sent every value as a
u64, 6 had 8-class leaves), an r, m or t outside 1..MAX_R, 1..MAX_M or
1..MAX_T, a count above MAX_OPENINGS or a depth above MAX_DEPTH, a record
of no position or of positions of two buckets, a record in a bucket not
after the previous record's, a bucket outside a tree of the level's depth,
a depth on a level of no records, a truncation or a trailing byte is
malformed, so a missing or extra digest is too; and the prover refuses to
write a header the parser would refuse, and the writer a value outside w
bytes or a position outside a u32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .commitment import (
    DIGEST_SIZE,
    LEAF_CLASSES,
    FSState,
    MerkleTree,
    sent_siblings,
    verify_open,
)
from .errors import FloweringError
from .folding import BlossomingSequence, Chain
from .graph_code import Word
from .iopp import ProtocolParams, Transcript, prover_commit, verifier_query, word_oracle
from .reed_solomon import RSCode

MAGIC = b"FLWR"
VERSION = 7
# header bounds the parser enforces and the prover respects
MAX_R = 64
MAX_M = 1 << 14
MAX_T = 1 << 12
MAX_OPENINGS = 1 << 24
# the depth of a tree whose buckets hold every u32 position
MAX_DEPTH = (2**32 // LEAF_CLASSES - 1).bit_length()


class MalformedProofError(FloweringError):
    pass


@dataclass
class NIProof:
    p: int
    chain_digest: bytes
    r: int
    m: int
    t: int
    roots: list[bytes]
    openings: list[dict[int, tuple[int, list[bytes]]]]  # per level: position -> (value, path)

    def serialize(self) -> bytes:
        code = _value_code(self.p)
        out = [MAGIC, struct.pack("<HQ", VERSION, self.p), self.chain_digest,
               struct.pack("<III", self.r, self.m, self.t)]
        out.extend(self.roots)
        for level in self.openings:
            records = _records(level)
            depth = len(records[0][2]) if records else 0
            if any(len(path) != depth for _, _, path in records):
                raise FloweringError("the records of a level need paths of one depth")
            out.append(struct.pack("<IB", len(records), depth))
            paths = {}
            for first, values, path in records:
                try:
                    out.append(struct.pack(f"<IB{len(values)}{code}", first, len(values),
                                           *values))
                except struct.error as exc:
                    raise FloweringError(
                        f"the record of {len(values)} values from position {first} does not "
                        f"fit format v{VERSION} at p = {self.p}: {exc}") from None
                paths.setdefault(first // LEAF_CLASSES, path)
            out.extend(paths[bucket][d] for d, bucket in sent_siblings(list(paths), depth))
        return b"".join(out)

    @classmethod
    def parse(cls, data: bytes) -> NIProof:
        view = memoryview(data)
        pos = 0

        def take(size: int) -> bytes:
            nonlocal pos
            if pos + size > len(view):
                raise MalformedProofError("truncated proof")
            out = bytes(view[pos:pos + size])
            pos += size
            return out

        if take(4) != MAGIC:
            raise MalformedProofError("bad magic")
        version, p = struct.unpack("<HQ", take(10))
        if version != VERSION:
            raise MalformedProofError(f"unsupported version {version}")
        code = _value_code(p)
        width = struct.calcsize(f"<{code}")
        chain_digest = take(DIGEST_SIZE)
        r, m, t = struct.unpack("<III", take(12))
        if not (1 <= r <= MAX_R and 1 <= m <= MAX_M and 1 <= t <= MAX_T):
            raise MalformedProofError("implausible protocol parameters")
        roots = [take(DIGEST_SIZE) for _ in range(r + 1)]
        openings = []
        for _ in range(r + 1):
            count, depth = struct.unpack("<IB", take(5))
            if count > MAX_OPENINGS or depth > MAX_DEPTH:
                raise MalformedProofError("implausible opening count or depth")
            records = []
            buckets = []
            for _ in range(count):
                first, n = struct.unpack("<IB", take(5))
                bucket = first // LEAF_CLASSES
                if n == 0 or bucket != (first + n - 1) // LEAF_CLASSES:
                    raise MalformedProofError(
                        f"a record of {n} classes from class {first} is not inside one bucket")
                if buckets and bucket <= buckets[-1]:
                    raise MalformedProofError(
                        f"a record in bucket {bucket} follows one in bucket {buckets[-1]}")
                records.append((first, struct.unpack(f"<{n}{code}", take(width * n))))
                buckets.append(bucket)
            if buckets and buckets[-1] >> depth:
                raise MalformedProofError(
                    f"bucket {buckets[-1]} is outside a tree of depth {depth}")
            if not buckets and depth:
                raise MalformedProofError(f"a level of no records has depth {depth}, not 0")
            sent = sent_siblings(buckets, depth)
            digests = take(DIGEST_SIZE * len(sent))
            siblings = [{} for _ in range(depth)]  # per layer: ancestor -> its sibling
            for i, (d, bucket) in enumerate(sent):
                siblings[d][bucket >> d] = digests[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE]
            paths = {bucket: [layer.get(bucket >> d, b"") for d, layer in enumerate(siblings)]
                     for bucket in buckets}
            openings.append(_by_position([(first, values, paths[bucket])
                                      for (first, values), bucket in zip(records, buckets)]))
        if pos != len(view):
            raise MalformedProofError("trailing bytes")
        return cls(p, chain_digest, r, m, t, roots, openings)


def _value_code(p: int) -> str:
    """The struct code of the narrowest of 1, 2, 4 and 8 bytes that holds
    every value below p."""
    return next(code for code in "BHIQ" if p <= 1 << 8 * struct.calcsize(f"<{code}"))


def _records(level: dict[int, tuple[int, list[bytes]]]):
    """The level's openings as (first position, values, path) records, one
    per maximal run of consecutive positions in one bucket under one path."""
    records = []
    for at in sorted(level):
        value, path = level[at]
        if records:
            first, values, last_path = records[-1]
            # the positions of a bucket share one path object, so compare
            # lists only when they differ
            if (at == first + len(values) and at // LEAF_CLASSES == first // LEAF_CLASSES
                    and (path is last_path or path == last_path)):
                values.append(value)
                continue
        records.append((at, [value], path))
    return records


def _buckets(positions, cids) -> list[int]:
    """The sorted buckets holding the commit positions of cids."""
    return sorted({positions.item(cid) // LEAF_CLASSES for cid in cids})


def _read_records(opened, read: set[int], num_classes: int):
    """The (first position, values, path) records of the buckets holding
    the read positions, each whole (else KeyError) under one path; None if
    two positions differ in path or another position is opened."""
    records = []
    for first in sorted({at // LEAF_CLASSES * LEAF_CLASSES for at in read}):
        values, paths = zip(*[opened[at] for at in
                              range(first, min(first + LEAF_CLASSES, num_classes))])
        if paths.count(paths[0]) < len(paths):
            return None
        records.append((first, values, paths[0]))
    return records if sum(len(values) for _, values, _ in records) == len(opened) else None


def _by_position(records) -> dict[int, tuple[int, list[bytes]]]:
    """The level's openings from its (first position, values, path)
    records, which lie in distinct buckets: each position under its
    record's path."""
    return {at: (value, path) for first, values, path in records
            for at, value in enumerate(values, first)}


def _bind_instance(fs: FSState, seq: Chain, rs: RSCode,
                   params: ProtocolParams) -> None:
    header = struct.pack(
        "<QIIII", rs.field.p, seq.r, params.m, params.t, rs.k
    ) + seq.digest() + b"".join(
        struct.pack("<Q", x) for x in rs.points
    )
    fs.absorb(b"instance", header)


def fiat_shamir_schedule(seq: Chain, rs: RSCode, params: ProtocolParams):
    """The one Fiat-Shamir schedule of prover and verifier, as a generator.

    After priming with next(), send it the roots of levels 0..r in order:
    each of the first r sends returns the challenge of the next level, and
    the last returns the query randomness.  The prover sends each root as
    it commits; the verifier sends the proof's roots.
    """
    fs = FSState(b"flowering-ni")
    _bind_instance(fs, seq, rs, params)
    fs.absorb(b"root", (yield))
    for _ in range(seq.r):
        fs.absorb(b"root", (yield fs.challenge_field(b"alpha", rs.field)))
    yield fs.challenge_queries(b"query", seq.num_vertices(0), seq.n, params.m, params.t)


def derive_noninteractive_randomness(
    seq: Chain, rs: RSCode, params: ProtocolParams, roots: list[bytes]
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """(challenges, query randomness) both prover and verifier compute from
    the instance binding and the committed roots."""
    schedule = fiat_shamir_schedule(seq, rs, params)
    next(schedule)
    *challenges, randomness = [schedule.send(root) for root in roots]
    return challenges, randomness


def check_params(params: ProtocolParams, n: int) -> None:
    """Refuse an m and t that no proof header on a graph of degree n can hold."""
    params.check(n)
    if params.m > MAX_M or params.t > MAX_T:
        raise FloweringError(f"a proof header holds m <= {MAX_M} and t <= {MAX_T}, got {params}")


def prove_noninteractive(
    seq: BlossomingSequence, rs: RSCode, f0: Word, params: ProtocolParams
) -> tuple[NIProof, Transcript]:
    """The honest prover_commit against Fiat-Shamir: each word is committed
    in its level's commit order and answered by the challenge its root
    derives; the last root derives the queries, and the buckets holding the
    position of a class they read are opened together, level by level, each
    position under its bucket's pruned path.
    Also returns the transcript of the self-run query phase (honest proofs
    accept)."""
    check_params(params, seq.n)
    positions = seq.commit_positions()
    trees = []
    schedule = fiat_shamir_schedule(seq, rs, params)
    next(schedule)

    def commit(word: Word):
        committed = np.empty_like(word.values)
        committed[positions[len(trees)]] = word.values
        trees.append(MerkleTree(committed))
        return schedule.send(trees[-1].root)

    challenges, words = prover_commit(seq, f0, commit)
    randomness = commit(words[-1])
    transcript = verifier_query(seq, rs, params, challenges, word_oracle(words), randomness)
    openings = [_by_position(tree.open(_buckets(at, cids)))
                for tree, at, cids in zip(trees, positions, transcript.reads)]
    proof = NIProof(
        p=rs.field.p,
        chain_digest=seq.digest(),
        r=seq.r,
        m=params.m,
        t=params.t,
        roots=[tree.root for tree in trees],
        openings=openings,
    )
    return proof, transcript


def verify_noninteractive(
    seq: Chain, rs: RSCode, proof: NIProof, params: ProtocolParams | None = None
) -> tuple[bool, Transcript | None]:
    """Recompute challenges and queries from the proof's roots, re-run every
    check on the opened values, read by commit position, and authenticate
    the openings under the record rule of the module docstring.  params
    are the verifier's m and t, and a proof whose header names others is
    rejected; None takes the header's.  (False, None) on any mismatch."""
    if (proof.p != rs.field.p or proof.chain_digest != seq.digest() or proof.r != seq.r
            or not len(proof.roots) == len(proof.openings) == seq.r + 1):
        return False, None
    header = ProtocolParams(proof.m, proof.t)
    params = params or header
    if params != header:
        return False, None
    try:
        params.check(seq.n)
    except FloweringError:
        return False, None

    challenges, randomness = derive_noninteractive_randomness(seq, rs, params, proof.roots)
    read = [set() for _ in proof.openings]  # per level, the positions read

    def oracle(level: int, at: int) -> int:
        read[level].add(at)
        return proof.openings[level][at][0]

    try:
        transcript = verifier_query(seq, rs, params, challenges, oracle, randomness,
                                    seq.fold_reads(positions=True))
        # exactly the positions of the read buckets, each bucket under one
        # path, at every level before anything is hashed
        records = [_read_records(opened, at, seq.num_classes(level))
                   for level, (opened, at) in enumerate(zip(proof.openings, read))]
    except KeyError:
        return False, None
    if None in records:
        return False, None
    for level, (root, level_records) in enumerate(zip(proof.roots, records)):
        if (any(max(values) >= rs.field.p for _, values, _ in level_records)
                or not verify_open(root, level_records, seq.num_classes(level))):
            return False, None
    return transcript.accept, transcript
