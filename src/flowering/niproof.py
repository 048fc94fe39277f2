"""Non-interactive proofs: binary format, prover, verifier.

The prover is iopp.prover_commit with each verifier message replaced by
Fiat-Shamir (the compiler of Ben-Sasson, Chiesa and Spooner, TCC 2016):
each level's Merkle root is absorbed into a transcript first bound to the
full instance (field, the chain digest of graph 0 and every cut, RS and
protocol parameters), and the query randomness is derived after the last
root.  The proof carries the per-level roots and the authenticated
openings of exactly the positions the verifier re-derives: the query
phase's read log, which the verifier compares with the openings before it
authenticates any of them.

The multi-round security of this transform is not analyzed here; treat the
non-interactive mode as experimental.

Binary layout, version 2 (little-endian):
    magic "FLWR" | version u16 = 2 | p u64 | chain digest 32B | r u32 |
    m u32 | t u32 | (r+1) roots 32B | per level: count u32, then entries
    class u64 | value u64 | path_len u8 | path_len sibling digests 32B.
The chain digest is ``BlossomingSequence.digest``; version 1, which bound
graph 0 alone, is refused.  Parsing is strict: any other version, an r, m
or t outside 1..MAX_R, 1..MAX_M or 1..MAX_T, a count above MAX_OPENINGS, a
truncation or a trailing byte is malformed, and the prover refuses to write
a header the parser would refuse.  The verifier accepts an opening only if
its path_len equals the depth of that level's tree, so a root cannot be
opened at two depths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .commitment import DIGEST_SIZE, FSState, MerkleTree, verify_open
from .errors import FloweringError
from .folding import BlossomingSequence
from .graph_code import Word
from .iopp import ProtocolParams, Transcript, prover_commit, verifier_query
from .reed_solomon import RSCode

MAGIC = b"FLWR"
VERSION = 2
# header bounds the parser enforces and the prover respects
MAX_R = 64
MAX_M = 1 << 14
MAX_T = 1 << 12
MAX_OPENINGS = 1 << 24


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
    openings: list[dict[int, tuple[int, list[bytes]]]]  # per level: class -> (value, path)

    def serialize(self) -> bytes:
        out = [MAGIC, struct.pack("<HQ", VERSION, self.p), self.chain_digest,
               struct.pack("<III", self.r, self.m, self.t)]
        out.extend(self.roots)
        for level in self.openings:
            out.append(struct.pack("<I", len(level)))
            for cid in sorted(level):
                value, path = level[cid]
                out.append(struct.pack("<QQB", cid, value, len(path)))
                out.extend(path)
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
        chain_digest = take(DIGEST_SIZE)
        r, m, t = struct.unpack("<III", take(12))
        if not (1 <= r <= MAX_R and 1 <= m <= MAX_M and 1 <= t <= MAX_T):
            raise MalformedProofError("implausible protocol parameters")
        roots = [take(DIGEST_SIZE) for _ in range(r + 1)]
        openings = []
        for _ in range(r + 1):
            (count,) = struct.unpack("<I", take(4))
            if count > MAX_OPENINGS:
                raise MalformedProofError("implausible opening count")
            level: dict[int, tuple[int, list[bytes]]] = {}
            for _ in range(count):
                cid, value, plen = struct.unpack("<QQB", take(17))
                digests = take(DIGEST_SIZE * plen)
                path = [digests[i:i + DIGEST_SIZE]
                        for i in range(0, len(digests), DIGEST_SIZE)]
                if cid in level:
                    raise MalformedProofError("duplicate opening")
                level[cid] = (value, path)
            openings.append(level)
        if pos != len(view):
            raise MalformedProofError("trailing bytes")
        return cls(p, chain_digest, r, m, t, roots, openings)


def _bind_instance(fs: FSState, seq: BlossomingSequence, rs: RSCode,
                   params: ProtocolParams) -> None:
    header = struct.pack(
        "<QIIII", rs.field.p, seq.r, params.m, params.t, rs.k
    ) + seq.digest() + b"".join(
        struct.pack("<Q", x) for x in rs.points
    )
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
        fs.absorb(b"root", (yield fs.challenge_field(b"alpha", rs.field.p)))
    yield fs.challenge_queries(
        b"query", seq.graphs[0].num_vertices, seq.graphs[0].n, params.m, params.t
    )


def derive_noninteractive_randomness(
    seq: BlossomingSequence, rs: RSCode, params: ProtocolParams, roots: list[bytes]
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """(challenges, query randomness) both prover and verifier compute from
    the instance binding and the committed roots."""
    schedule = fiat_shamir_schedule(seq, rs, params)
    next(schedule)
    *challenges, randomness = [schedule.send(root) for root in roots]
    return challenges, randomness


def prove_noninteractive(
    seq: BlossomingSequence, rs: RSCode, f0: Word, params: ProtocolParams
) -> tuple[NIProof, Transcript]:
    """The honest prover_commit against Fiat-Shamir: each word is committed
    and answered by the challenge its root derives; the last root derives
    the queries, and every position they read is opened.  Also returns the
    transcript of the self-run query phase (honest proofs accept)."""
    params.check(seq.graphs[0].n)
    if params.m > MAX_M or params.t > MAX_T:
        raise FloweringError(
            f"a proof header holds m <= {MAX_M} and t <= {MAX_T}, "
            f"got m={params.m}, t={params.t}")
    trees = []
    schedule = fiat_shamir_schedule(seq, rs, params)
    next(schedule)

    def commit(word: Word):
        trees.append(MerkleTree(word.values))
        return schedule.send(trees[-1].root)

    challenges, words = prover_commit(seq, f0, commit)
    randomness = commit(words[-1])
    transcript = verifier_query(seq, rs, params, challenges,
                                lambda level, cid: words[level].values[cid], randomness)
    openings = [{cid: tree.open(cid) for cid in sorted(cids)}
                for tree, cids in zip(trees, transcript.reads)]
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
    seq: BlossomingSequence, rs: RSCode, proof: NIProof
) -> tuple[bool, Transcript | None]:
    """Recompute challenges and queries from the proof's roots, re-run every
    check on the opened values, and authenticate the openings.  (False, None)
    on any mismatch.

    The query phase runs first and the opened classes must equal its read
    log before any Merkle path is hashed, so the hashing a proof can cause
    is set by the reads, not by how many openings it carries."""
    graph0 = seq.graphs[0]
    if proof.p != rs.field.p:
        return False, None
    if proof.chain_digest != seq.digest():
        return False, None
    if proof.r != seq.r or not len(proof.roots) == len(proof.openings) == seq.r + 1:
        return False, None
    params = ProtocolParams(proof.m, proof.t)
    try:
        params.check(graph0.n)
    except FloweringError:
        return False, None

    challenges, randomness = derive_noninteractive_randomness(seq, rs, params, proof.roots)

    try:
        transcript = verifier_query(seq, rs, params, challenges,
                                    lambda level, cid: proof.openings[level][cid][0],
                                    randomness)
    except KeyError:
        return False, None
    # openings must be exactly the positions read, nothing extra
    if any(opened.keys() != cids for opened, cids in zip(proof.openings, transcript.reads)):
        return False, None

    for level, opened in enumerate(proof.openings):
        num_classes = seq.graphs[level].classes.num_classes
        for cid, (value, path) in opened.items():
            if value >= rs.field.p:
                return False, None
            if not verify_open(proof.roots[level], cid, value, path, num_classes):
                return False, None
    return transcript.accept, transcript
