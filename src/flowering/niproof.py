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
positions of one bucket; each level is kept as the wire carries it, a
commitment.MultiOpening of its records keyed by bucket and its sibling
digests in wire order, from MerkleTree.open through serialize and parse to
the verifier, which reads a value through its bucket's record.  Each level
must open exactly the buckets holding the commit positions of its reads,
each record whole and every value below p, at every level before anything
is hashed; then each level takes one verify_open, which refuses a wrong
depth and a sibling stream left over or too short, and hashes each opened
leaf and each distinct ancestor once.  So a proof causes at most one
authentication per level.  NIProof.openings is a per-position view of the
records, (value, path) with each path derived from the sibling digests, for
readers that still take that form.

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
record bucket.  Parse keeps them as the bytes it read and serialize writes
them back as they are; byte_split gives a proof's bytes by part.  The depth is written once per
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
    MultiOpening,
    sibling_count,
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


class Positions:
    """One level's openings per commit position, a view over its records:
    position -> (value, path), each path its bucket's, derived from the
    sibling digests (b"" where pruned).  It takes the length, iteration in
    position order, values(), a read, and a write of the value of an
    opened position under that position's path, which changes the record.
    The program itself reads records; the view serves readers of the
    per-position form, perfbench's cli-r8 flip and proof_breakdown."""

    def __init__(self, opening: MultiOpening):
        self.opening = opening

    def __len__(self) -> int:
        return sum(len(values) for _, values in self.opening.records.values())

    def __iter__(self):
        for first, values in self.opening.records.values():
            yield from range(first, first + len(values))

    def __getitem__(self, at: int) -> tuple[int, list[bytes]]:
        first, values = self.opening.records[at // LEAF_CLASSES]
        if not 0 <= at - first < len(values):
            raise KeyError(at)
        return values[at - first], self.opening.paths()[at // LEAF_CLASSES]

    def __setitem__(self, at: int, opened: tuple[int, list[bytes]]) -> None:
        value, path = opened
        if path != self[at][1]:
            raise FloweringError(f"position {at} opens under its bucket's path only")
        first, values = self.opening.records[at // LEAF_CLASSES]
        values[at - first] = value

    def values(self):
        paths = self.opening.paths()
        for bucket, (_, values) in self.opening.records.items():
            for value in values:
                yield value, paths[bucket]


@dataclass
class NIProof:
    p: int
    chain_digest: bytes
    r: int
    m: int
    t: int
    roots: list[bytes]
    levels: list[MultiOpening]  # per level, its opened records and sibling digests

    @property
    def openings(self) -> list[Positions]:
        """Per level, the per-position view of its records."""
        return [Positions(level) for level in self.levels]

    def serialize(self) -> bytes:
        code = _value_code(self.p)
        out = [MAGIC, struct.pack("<HQ", VERSION, self.p), self.chain_digest,
               struct.pack("<III", self.r, self.m, self.t)]
        out.extend(self.roots)
        for level in self.levels:
            out.append(struct.pack("<IB", len(level.records), level.depth))
            for first, values in level.records.values():
                try:
                    out.append(struct.pack(f"<IB{len(values)}{code}", first, len(values),
                                           *values))
                except struct.error as exc:
                    raise FloweringError(
                        f"the record of {len(values)} values from position {first} does not "
                        f"fit format v{VERSION} at p = {self.p}: {exc}") from None
            out.append(level.siblings)
        return b"".join(out)

    @classmethod
    def parse(cls, data: bytes) -> NIProof:
        return _read(data)[0]


_HEADER_BYTES = 4 + 10 + DIGEST_SIZE + 12  # magic, version and p, chain digest, r, m, t
_LEVEL = struct.Struct("<IB")  # a level's record count and depth, and a record's first and n


def _read(data: bytes) -> tuple[NIProof, list[tuple[int, int, int]]]:
    """The proof, and per level the offsets in data where it starts, where
    its sibling digests start and where it ends.  Every read of the wire
    format is here."""
    data = bytes(data)
    try:
        magic, version, p = struct.unpack_from("<4sHQ", data)
        if magic != MAGIC:
            raise MalformedProofError("bad magic")
        if version != VERSION:
            raise MalformedProofError(f"unsupported version {version}")
        code = _value_code(p)
        width = struct.calcsize(f"<{code}")
        chain_digest = data[14:14 + DIGEST_SIZE]
        r, m, t = struct.unpack_from("<III", data, 14 + DIGEST_SIZE)
        if not (1 <= r <= MAX_R and 1 <= m <= MAX_M and 1 <= t <= MAX_T):
            raise MalformedProofError("implausible protocol parameters")
        pos = _HEADER_BYTES + DIGEST_SIZE * (r + 1)
        if pos > len(data):
            raise MalformedProofError("truncated proof")
        roots = [data[at:at + DIGEST_SIZE] for at in range(_HEADER_BYTES, pos, DIGEST_SIZE)]
        levels, spans = [], []
        for _ in range(r + 1):
            start = pos
            count, depth = _LEVEL.unpack_from(data, pos)
            pos += _LEVEL.size
            if count > MAX_OPENINGS or depth > MAX_DEPTH:
                raise MalformedProofError("implausible opening count or depth")
            records = {}
            last = -1
            for _ in range(count):
                first, n = _LEVEL.unpack_from(data, pos)
                bucket = first // LEAF_CLASSES
                if n == 0 or bucket != (first + n - 1) // LEAF_CLASSES:
                    raise MalformedProofError(
                        f"a record of {n} classes from class {first} is not inside one bucket")
                if bucket <= last:
                    raise MalformedProofError(
                        f"a record in bucket {bucket} follows one in bucket {last}")
                records[bucket] = (first, list(struct.unpack_from(f"<{n}{code}", data,
                                                                  pos + _LEVEL.size)))
                pos += _LEVEL.size + width * n
                last = bucket
            if last >> depth > 0:
                raise MalformedProofError(f"bucket {last} is outside a tree of depth {depth}")
            if not records and depth:
                raise MalformedProofError(f"a level of no records has depth {depth}, not 0")
            digests = pos
            pos += DIGEST_SIZE * sibling_count(records, depth)
            if pos > len(data):
                raise MalformedProofError("truncated proof")
            levels.append(MultiOpening(records, depth, data[digests:pos]))
            spans.append((start, digests, pos))
    except struct.error:
        raise MalformedProofError("truncated proof") from None
    if pos != len(data):
        raise MalformedProofError("trailing bytes")
    return NIProof(p, chain_digest, r, m, t, roots, levels), spans


def byte_split(blob: bytes) -> dict:
    """The proof's bytes by part, as parse reads them: header, roots, values,
    framing (each level's count and depth, each record's first position
    and n) and sibling digests, which sum to len(blob); the digest and
    record counts; and per level the offsets (start, digests, end) of its
    records and its sibling digests."""
    proof, spans = _read(blob)
    records = sum(len(level.records) for level in proof.levels)
    framing = _LEVEL.size * (len(proof.levels) + records)
    digests = sum(end - at for _, at, end in spans)
    roots = DIGEST_SIZE * len(proof.roots)
    return {"header": _HEADER_BYTES, "roots": roots,
            "values": len(blob) - _HEADER_BYTES - roots - framing - digests,
            "framing": framing, "digests": digests,
            "digest_count": digests // DIGEST_SIZE, "record_count": records,
            "levels": spans}


def _value_code(p: int) -> str:
    """The struct code of the narrowest of 1, 2, 4 and 8 bytes that holds
    every value below p."""
    return next(code for code in "BHIQ" if p <= 1 << 8 * struct.calcsize(f"<{code}"))


def _buckets(positions, cids) -> list[int]:
    """The sorted buckets holding the commit positions of cids."""
    return sorted({positions.item(cid) // LEAF_CLASSES for cid in cids})


def _check_records(levels: list[MultiOpening], read: list[set[int]], seq: Chain,
                   p: int) -> bool:
    """The record check, at every level before anything is hashed: the
    level opens exactly the buckets it read, each record whole (its
    bucket's first position and every position of the bucket) and every
    value below p."""
    for level, (opening, buckets) in enumerate(zip(levels, read)):
        num_classes = seq.num_classes(level)
        if opening.records.keys() != buckets:
            return False
        for bucket, (first, values) in opening.records.items():
            if (first != bucket * LEAF_CLASSES
                    or len(values) != min(LEAF_CLASSES, num_classes - first)
                    or max(values) >= p):
                return False
    return True


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
    position of a class they read are opened together, one multi-opening
    per level.
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
    levels = [tree.open(_buckets(at, cids))
              for tree, at, cids in zip(trees, positions, transcript.reads)]
    proof = NIProof(
        p=rs.field.p,
        chain_digest=seq.digest(),
        r=seq.r,
        m=params.m,
        t=params.t,
        roots=[tree.root for tree in trees],
        levels=levels,
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
            or not len(proof.roots) == len(proof.levels) == seq.r + 1):
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
    read = [set() for _ in proof.levels]  # per level, the buckets read
    records = [level.records for level in proof.levels]

    def oracle(level: int, at: int) -> int:
        bucket = at // LEAF_CLASSES
        read[level].add(bucket)
        # a record that is not whole may answer with another position's
        # value, or none; the record check refuses it either way
        first, values = records[level][bucket]
        return values[at - first]

    try:
        transcript = verifier_query(seq, rs, params, challenges, oracle, randomness,
                                    seq.fold_reads(positions=True))
    except LookupError:  # a read outside the opened records
        return False, None
    if not _check_records(proof.levels, read, seq, rs.field.p):
        return False, None
    for level, (root, opening) in enumerate(zip(proof.roots, proof.levels)):
        if not verify_open(root, opening, seq.num_classes(level)):
            return False, None
    return transcript.accept, transcript
