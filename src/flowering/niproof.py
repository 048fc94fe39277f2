"""Non-interactive proofs: binary format, prover, verifier.

The prover is iopp.prover_commit with each verifier message replaced by
Fiat-Shamir (the compiler of Ben-Sasson, Chiesa and Spooner, TCC 2016):
each level's Merkle root is absorbed into a transcript first bound to the
full instance (field, chain digest, RS and protocol parameters), and the
query randomness is derived after the last root.  Each level is committed in
its commit order (BlossomingSequence.commit_positions): levels 0..r-1 in
the pair order of the cut that folds them, so that the two classes a fold
check reads share a Merkle bucket, and the flower in class order.  The
prover builds those orders as tables and runs the query phase over its
committed arrays; the verifier reads the proof.  Both take each fold
check's commit positions from the chain (BlossomingSequence.fold_reads),
the verifier from closed forms on a Cayley chain whose tables are not
built, and no class id: the query phase's read log is the positions read.
The proof carries the per-level roots and the authenticated openings of
exactly the buckets holding them.

The record rule: a proof opens exactly the records that were read, and each
level's records are authenticated together, once.  A record is one whole
bucket, its values; each level is kept as the wire carries it, a
commitment.MultiOpening of its records keyed by bucket, its class count and
its sibling digests in wire order, from MerkleTree.open through serialize
and parse to the verifier, which reads position at as value
at % LEAF_CLASSES of bucket at // LEAF_CLASSES.  Each level must name the
chain's class count of the level, open exactly the buckets holding the
commit positions of its reads, and carry every value below p, at every
level before anything is hashed; then each level takes one verify_open,
which refuses a sibling stream left over or too short, and hashes each
opened leaf and each distinct ancestor once.  So a proof causes at most one
authentication per level.  NIProof.openings is a per-position view of the
records, (value, path) with each path derived from the sibling digests, for
readers that still take that form.

The multi-round security of this transform is not analyzed here; treat the
non-interactive mode as experimental.

Binary layout, version 9 (little-endian):
    magic "FLWR" | version u16 = 9 | p u64 | chain digest 32B | r u32 |
    m u32 | t u32 | (r+1) roots 32B | per level: count u32 | class count
    N u32 | count records (bucket b u32 | min(LEAF_CLASSES, N - LEAF_CLASSES*b)
    values of w bytes) | the level's sibling digests 32B.
A value takes the smallest width w of 1, 2, 4 or 8 bytes with p <= 2^(8w):
4 bytes at p = 2^31 - 1, 8 at p = 2^61 - 1.  Only the wire narrows: the
Merkle leaves hash every value as a u64 (commitment.MerkleTree), so the
roots do not depend on w.  A record opens every commit position of its
Merkle bucket b, LEAF_CLASSES*b on (commitment.LEAF_CLASSES positions per
leaf), so its value count follows from b and N.  The class count is written
once per level, since the parser has no instance to derive it from; it
fixes the level tree's depth and the verifier requires it to equal the
chain's.  A prover's N fits a u32 since the tables it commits through have
at most cayley.MAX_GRAPH_ENTRIES slots.  The sibling digests are the pruned
multi-opening of the level's buckets (commitment.sent_siblings): for each
layer d below the depth of the tree over N values, in increasing position,
the node at (b >> d) ^ 1 for each record bucket b, once, skipped where it
is itself an ancestor b' >> d of a record bucket.  Parse keeps them as the
bytes it read and serialize writes them back as they are; byte_split gives
a proof's bytes by part.  The chain digest is ``seq.digest()``: a Cayley
chain's names its generating set, a dense chain's graph 0 and every cut.
Parsing is strict: any other version, an r, m or t outside 1..MAX_R,
1..MAX_M or 1..MAX_T, a class count of 0, more records than the level's
ceil(N / LEAF_CLASSES) buckets, a bucket not after the previous record's or
past the level's last, a truncation or a trailing byte is malformed, so a
missing or extra digest is too; and the prover refuses to write a header
the parser would refuse, and the writer a value outside w bytes or a
bucket or class count outside a u32.
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
from .folding import BlossomingSequence
from .graph_code import Word
from .iopp import ProtocolParams, Transcript, prover_commit, verifier_query, word_oracle
from .reed_solomon import RSCode

MAGIC = b"FLWR"
VERSION = 9
# header bounds the parser enforces and the prover respects
MAX_R = 64
MAX_M = 1 << 14
MAX_T = 1 << 12


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
        return sum(map(len, self.opening.records.values()))

    def __iter__(self):
        for bucket, values in self.opening.records.items():
            yield from range(bucket * LEAF_CLASSES, bucket * LEAF_CLASSES + len(values))

    def __getitem__(self, at: int) -> tuple[int, list[bytes]]:
        bucket, offset = divmod(at, LEAF_CLASSES)
        values = self.opening.records[bucket]
        if offset >= len(values):
            raise KeyError(at)
        return values[offset], self.opening.paths()[bucket]

    def __setitem__(self, at: int, opened: tuple[int, list[bytes]]) -> None:
        value, path = opened
        if path != self[at][1]:
            raise FloweringError(f"position {at} opens under its bucket's path only")
        self.opening.records[at // LEAF_CLASSES][at % LEAF_CLASSES] = value

    def values(self):
        paths = self.opening.paths()
        for bucket, values in self.opening.records.items():
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
        for level, opening in enumerate(self.levels):
            try:
                out.append(_LEVEL.pack(len(opening.records), opening.num_classes))
                out.extend(struct.pack(f"<I{len(values)}{code}", bucket, *values)
                           for bucket, values in opening.records.items())
            except struct.error as exc:
                raise FloweringError(f"level {level} does not fit format v{VERSION} at "
                                     f"p = {self.p}: {exc}") from None
            out.append(opening.siblings)
        return b"".join(out)

    @classmethod
    def parse(cls, data: bytes) -> NIProof:
        return _read(data)[0]


_HEADER_BYTES = 4 + 10 + DIGEST_SIZE + 12  # magic, version and p, chain digest, r, m, t
_LEVEL = struct.Struct("<II")  # a level's record count and class count
_BUCKET = struct.Struct("<I")  # a record's bucket
# a full bucket's values, per value code
_FULL_BUCKET = {code: struct.Struct(f"<{LEAF_CLASSES}{code}") for code in "BHIQ"}


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
        full = _FULL_BUCKET[code]
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
            count, num_classes = _LEVEL.unpack_from(data, pos)
            pos += _LEVEL.size
            leaves = -(-num_classes // LEAF_CLASSES)
            if not 0 < num_classes or count > leaves:
                raise MalformedProofError(
                    f"implausible level of {count} records over {num_classes} classes")
            short = struct.Struct(f"<{num_classes % LEAF_CLASSES}{code}")  # a last, short bucket
            records = {}
            last = -1
            for _ in range(count):
                (bucket,) = _BUCKET.unpack_from(data, pos)
                pos += _BUCKET.size
                if not last < bucket < leaves:
                    raise MalformedProofError(
                        f"a record in bucket {bucket} follows one in bucket {last}"
                        if bucket <= last else
                        f"bucket {bucket} is outside a tree of {num_classes} classes")
                values = full if bucket < num_classes // LEAF_CLASSES else short
                records[bucket] = list(values.unpack_from(data, pos))
                pos += values.size
                last = bucket
            digests = pos
            pos += DIGEST_SIZE * sibling_count(records, (leaves - 1).bit_length())
            if pos > len(data):
                raise MalformedProofError("truncated proof")
            levels.append(MultiOpening(records, num_classes, data[digests:pos]))
            spans.append((start, digests, pos))
    except struct.error:
        raise MalformedProofError("truncated proof") from None
    if pos != len(data):
        raise MalformedProofError("trailing bytes")
    return NIProof(p, chain_digest, r, m, t, roots, levels), spans


def byte_split(blob: bytes) -> dict:
    """The proof's bytes by part, as parse reads them: header, roots, values,
    framing (each level's record count and class count, each record's
    bucket) and sibling digests, which sum to len(blob); the digest and
    record counts; and per level the offsets (start, digests, end) of its
    records and its sibling digests."""
    proof, spans = _read(blob)
    records = sum(len(level.records) for level in proof.levels)
    framing = _LEVEL.size * len(proof.levels) + _BUCKET.size * records
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


def _buckets(reads: set[int]) -> set[int]:
    """The buckets holding the commit positions read."""
    return {at // LEAF_CLASSES for at in reads}


def _check_records(levels: list[MultiOpening], reads: list[set[int]], seq: BlossomingSequence,
                   p: int) -> bool:
    """The record check, at every level before anything is hashed: the
    level names the chain's class count of the level, opens exactly the
    buckets of the positions it read, and carries every value below p.
    Each opened bucket holds a position read, so no record is empty."""
    return all(opening.num_classes == seq.num_classes(level)
               and opening.records.keys() == _buckets(read)
               and max(map(max, opening.records.values()), default=0) < p
               for level, (opening, read) in enumerate(zip(levels, reads)))


def _bind_instance(fs: FSState, seq: BlossomingSequence, rs: RSCode,
                   params: ProtocolParams) -> None:
    header = struct.pack(
        "<QIIII", rs.field.p, seq.r, params.m, params.t, rs.k
    ) + seq.digest() + struct.pack(f"<{len(rs.points)}Q", *rs.points)
    fs.absorb(b"instance", header)


def fiat_shamir_schedule(seq: BlossomingSequence, rs: RSCode, params: ProtocolParams):
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
    seq: BlossomingSequence, rs: RSCode, params: ProtocolParams, roots: list[bytes]
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
    commit positions they read are opened together, one multi-opening per
    level.  Also returns the transcript of the query phase, self-run by
    commit position over the committed arrays (honest proofs accept)."""
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
    transcript = verifier_query(seq, rs, params, challenges, word_oracle(trees), randomness,
                                seq.fold_reads(positions=True))
    levels = [tree.open(sorted(_buckets(read))) for tree, read in zip(trees, transcript.reads)]
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
    seq: BlossomingSequence, rs: RSCode, proof: NIProof, params: ProtocolParams | None = None
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
    records = [level.records for level in proof.levels]

    def oracle(level: int, at: int) -> int:
        return records[level][at // LEAF_CLASSES][at % LEAF_CLASSES]

    try:
        transcript = verifier_query(seq, rs, params, challenges, oracle, randomness,
                                    seq.fold_reads(positions=True))
    except LookupError:  # a read outside the opened records
        return False, None
    if not _check_records(proof.levels, transcript.reads, seq, rs.field.p):
        return False, None
    for level, (root, opening) in enumerate(zip(proof.roots, proof.levels)):
        if not verify_open(root, opening, seq.num_classes(level)):
            return False, None
    return transcript.accept, transcript
