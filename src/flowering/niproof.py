"""Non-interactive proofs: binary format, prover, verifier.

Challenges are derived by absorbing each level's Merkle root into a
Fiat-Shamir transcript that is first bound to the full instance (field,
graph hash, RS parameters, protocol parameters), and the query randomness is
derived after the last root.  The proof carries the per-level roots and the
authenticated openings of exactly the positions the verifier re-derives:
the query phase's read log, which the verifier compares with the openings.

The multi-round security of this transform is not analyzed here; treat the
non-interactive mode as experimental.

Binary layout (little-endian):
    magic "FLWR" | version u16 | p u64 | graph_hash 32B | r u32 | m u32 |
    t u32 | (r+1) roots 32B | per level: count u32, then entries
    class u64 | value u64 | path_len u8 | path_len sibling digests 32B.
Parsing is strict: any truncation, oversize length, or trailing byte is
malformed.  The verifier accepts an opening only if its path_len equals the
depth of that level's tree, so a root cannot be opened at two depths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .commitment import DIGEST_SIZE, FSState, MerkleTree, verify_open
from .errors import FloweringError
from .folding import BlossomingSequence, fold
from .graph_code import Word
from .iopp import ProtocolParams, Transcript, verifier_query
from .reed_solomon import RSCode

MAGIC = b"FLWR"
VERSION = 1


class MalformedProofError(FloweringError):
    pass


@dataclass
class NIProof:
    p: int
    graph_hash: bytes
    r: int
    m: int
    t: int
    roots: list[bytes]
    openings: list[dict[int, tuple[int, list[bytes]]]]  # per level: class -> (value, path)

    def serialize(self) -> bytes:
        out = [MAGIC, struct.pack("<HQ", VERSION, self.p), self.graph_hash,
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
        graph_hash = take(DIGEST_SIZE)
        r, m, t = struct.unpack("<III", take(12))
        if not (1 <= r <= 64 and 1 <= m <= 1 << 14 and 1 <= t <= 1 << 12):
            raise MalformedProofError("implausible protocol parameters")
        roots = [take(DIGEST_SIZE) for _ in range(r + 1)]
        openings = []
        for _ in range(r + 1):
            (count,) = struct.unpack("<I", take(4))
            if count > 1 << 24:
                raise MalformedProofError("implausible opening count")
            level: dict[int, tuple[int, list[bytes]]] = {}
            for _ in range(count):
                cid, value, plen = struct.unpack("<QQB", take(17))
                path = [take(DIGEST_SIZE) for _ in range(plen)]
                if cid in level:
                    raise MalformedProofError("duplicate opening")
                level[cid] = (value, path)
            openings.append(level)
        if pos != len(view):
            raise MalformedProofError("trailing bytes")
        return cls(p, graph_hash, r, m, t, roots, openings)


def _bind_instance(fs: FSState, seq: BlossomingSequence, rs: RSCode,
                   params: ProtocolParams) -> None:
    graph0 = seq.graphs[0]
    header = struct.pack(
        "<QIIII", rs.field.p, seq.r, params.m, params.t, rs.k
    ) + bytes.fromhex(graph0.hash_hex()) + b"".join(
        struct.pack("<Q", x) for x in rs.points
    )
    fs.absorb(b"instance", header)


def derive_noninteractive_randomness(
    seq: BlossomingSequence, rs: RSCode, params: ProtocolParams, roots: list[bytes]
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """(challenges, query randomness) both prover and verifier compute from
    the instance binding and the committed roots."""
    fs = FSState(b"flowering-ni")
    _bind_instance(fs, seq, rs, params)
    challenges = []
    fs.absorb(b"root", roots[0])
    for i in range(1, seq.r + 1):
        challenges.append(fs.challenge_field(b"alpha", rs.field.p))
        fs.absorb(b"root", roots[i])
    randomness = fs.challenge_queries(
        b"query", seq.graphs[0].num_vertices, seq.graphs[0].n, params.m, params.t
    )
    return challenges, randomness


def prove_noninteractive(
    seq: BlossomingSequence, rs: RSCode, f0: Word, params: ProtocolParams
) -> tuple[NIProof, Transcript]:
    """Commit to the honest fold chain, derive challenges and queries, open
    every position the verifier will read.  Also returns the transcript of
    the self-run query phase (honest proofs accept)."""
    params.check(seq.graphs[0].n)
    words = [f0]
    trees = [MerkleTree(f0.values)]
    roots = [trees[0].root]

    fs = FSState(b"flowering-ni")
    _bind_instance(fs, seq, rs, params)
    challenges = []
    fs.absorb(b"root", roots[0])
    for i in range(1, seq.r + 1):
        alpha = fs.challenge_field(b"alpha", rs.field.p)
        challenges.append(alpha)
        w = fold(seq.cuts[i - 1], words[-1], alpha)
        words.append(w)
        trees.append(MerkleTree(w.values))
        roots.append(trees[-1].root)
        fs.absorb(b"root", roots[-1])
    randomness = fs.challenge_queries(
        b"query", seq.graphs[0].num_vertices, seq.graphs[0].n, params.m, params.t
    )

    transcript = verifier_query(seq, rs, params, challenges,
                                lambda level, cid: words[level].values[cid], randomness)
    openings = [{cid: tree.open(cid) for cid in sorted(cids)}
                for tree, cids in zip(trees, transcript.reads)]
    proof = NIProof(
        p=rs.field.p,
        graph_hash=bytes.fromhex(seq.graphs[0].hash_hex()),
        r=seq.r,
        m=params.m,
        t=params.t,
        roots=roots,
        openings=openings,
    )
    return proof, transcript


def verify_noninteractive(
    seq: BlossomingSequence, rs: RSCode, proof: NIProof
) -> tuple[bool, Transcript | None]:
    """Recompute challenges and queries from the proof's roots, authenticate
    the openings, and re-run every check.  (False, None) on any mismatch."""
    graph0 = seq.graphs[0]
    if proof.p != rs.field.p:
        return False, None
    if proof.graph_hash != bytes.fromhex(graph0.hash_hex()):
        return False, None
    if proof.r != seq.r or not len(proof.roots) == len(proof.openings) == seq.r + 1:
        return False, None
    params = ProtocolParams(proof.m, proof.t)
    try:
        params.check(graph0.n)
    except FloweringError:
        return False, None

    for level, opened in enumerate(proof.openings):
        num_classes = seq.graphs[level].classes.num_classes
        for cid, (value, path) in opened.items():
            if value >= rs.field.p:
                return False, None
            if not verify_open(proof.roots[level], cid, value, path, num_classes):
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
    return transcript.accept, transcript
