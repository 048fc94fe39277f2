"""Merkle vector commitments and the Fiat-Shamir transcript state.

A tree commits an array of values as given: the NI prover passes each word
in its level's commit order (niproof), in which the two classes of a fold
pair are adjacent, so here a position is an index into that array and not
a class id.  The array is committed in buckets of LEAF_CLASSES consecutive
positions, one bucket per leaf, as FRI commits one coset per leaf: leaf j
hashes the bucket index j with the values of bucket j, positions
LEAF_CLASSES * j on (the last leaf holds only the positions that remain),
and leaf/node hashes are domain-separated by a one-byte prefix, so a path
commits to a position, not just values.  The leaf layer is zero-padded to
a power of two.  Each tree layer is one contiguous bytes object of
digests, and the preimages of a layer are built as one numpy record array
(the leaves straight from the committed array) and hashed by one map over
its rows, so the hashing is one DIGEST call per leaf and per node and no
bytecode per row.  SHA-256 throughout; every hash goes through the
module-level DIGEST.

Buckets are opened together, as a multi-opening: at each layer the
sibling of an opened bucket's ancestor is sent once, and not at all where
it is itself such an ancestor, since the verifier computes it (the batched
decommitment of StarkWare's "ethSTARK Documentation", ePrint 2021/582).

FSState keeps a running 32-byte state.  Every absorb and every challenge is
framed with a length-prefixed label, and deriving a challenge ratchets the
state, so challenge streams under different labels or histories never
collide.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

import numpy as np

from .errors import FloweringError
from .field import PrimeField

DIGEST = hashlib.sha256
DIGEST_SIZE = 32
_DIGEST_OF = type(DIGEST()).digest  # the digest method of a DIGEST object
# positions per Merkle leaf: an opened bucket carries its unread positions
# as values of p's byte width (4 B at p = 2^31 - 1) and saves the 32-byte
# path digests of separate leaves; 16 gives 8's proof size at half the hashes
LEAF_CLASSES = 16

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_ZERO_DIGEST = bytes(DIGEST_SIZE)


class EmptyWordError(FloweringError):
    pass


class IndexOutOfRangeError(FloweringError):
    pass


def _num_leaves(num_classes: int) -> int:
    return -(-num_classes // LEAF_CLASSES)


def _leaf_preimage(bucket: int, values: list[int]) -> bytes:
    return _LEAF_PREFIX + struct.pack(f"<Q{len(values)}Q", bucket, *values)


def _hash_rows(records: np.ndarray) -> bytes:
    """The digests of the rows of a 2-D uint8 array, concatenated: each row
    as one bytes object, hashed and digested by map."""
    rows = records.view(f"V{records.shape[1]}").ravel().tolist()
    return b"".join(map(_DIGEST_OF, map(DIGEST, rows)))


def _leaf_layer(values: np.ndarray) -> bytes:
    """The leaf digests: the preimages of the full buckets (prefix, index
    u64, LEAF_CLASSES values u64) as the rows of one record array, and the
    last, shorter bucket on its own."""
    full = len(values) // LEAF_CLASSES
    records = np.empty((full, 1 + 8 + 8 * LEAF_CLASSES), dtype=np.uint8)
    records[:, 0] = _LEAF_PREFIX[0]
    records[:, 1:9] = np.arange(full, dtype="<u8").view(np.uint8).reshape(full, 8)
    records[:, 9:] = values[:full * LEAF_CLASSES].astype("<u8").view(
        np.uint8).reshape(full, 8 * LEAF_CLASSES)
    layer = _hash_rows(records)
    if full * LEAF_CLASSES < len(values):
        layer += DIGEST(_leaf_preimage(full, values[full * LEAF_CLASSES:].tolist())).digest()
    return layer


def _node_layer(layer: bytes) -> bytes:
    records = np.empty((len(layer) // (2 * DIGEST_SIZE), 1 + 2 * DIGEST_SIZE), dtype=np.uint8)
    records[:, 0] = _NODE_PREFIX[0]
    records[:, 1:] = np.frombuffer(layer, dtype=np.uint8).reshape(-1, 2 * DIGEST_SIZE)
    return _hash_rows(records)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return DIGEST(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """Commitment to an array of field values, used as is and in the order
    given, one leaf per bucket of LEAF_CLASSES positions.

    layers[0] is the zero-padded leaf layer and layers[-1] the root, each
    one bytes object of 32-byte digests; a level's read buckets are opened
    together and authenticated against the root by verify_open.
    """

    def __init__(self, values):
        values = np.asarray(values)
        if not values.size:
            raise EmptyWordError("cannot commit to an empty word")
        self.values = values
        leaves = _num_leaves(len(values))
        layers = [_leaf_layer(values)
                  + _ZERO_DIGEST * ((1 << (leaves - 1).bit_length()) - leaves)]
        while len(layers[-1]) > DIGEST_SIZE:
            layers.append(_node_layer(layers[-1]))
        self.layers = layers

    @property
    def root(self) -> bytes:
        return self.layers[-1]

    def open(self, buckets: list[int]) -> list[tuple[int, list[int], list[bytes]]]:
        """The multi-opening of the sorted, distinct buckets: one record
        (first position, values as Python ints, path) per bucket, whose path
        holds b"" at each layer where the sibling is itself an ancestor of
        an opened bucket, since the verifier computes it."""
        leaves = _num_leaves(len(self.values))
        for bucket in buckets:
            if not 0 <= bucket < leaves:
                raise IndexOutOfRangeError(f"bucket {bucket} out of range")
        above = [{b >> d for b in buckets} for d in range(len(self.layers) - 1)]
        records = []
        for bucket in buckets:
            path = []
            for d, layer in enumerate(self.layers[:-1]):
                sibling = (bucket >> d) ^ 1
                path.append(b"" if sibling in above[d]
                            else layer[sibling * DIGEST_SIZE:(sibling + 1) * DIGEST_SIZE])
            first = bucket * LEAF_CLASSES
            records.append((first, self.values[first:first + LEAF_CLASSES].tolist(), path))
        return records


def sent_siblings(buckets: list[int], depth: int) -> list[tuple[int, int]]:
    """(layer, bucket) for each sibling digest a multi-opening of the
    sorted, distinct buckets carries, in order of layer and then position:
    at layer d the sibling of each ancestor b >> d, once, unless it is an
    ancestor itself.  bucket is the first whose path holds the digest."""
    out = []
    firsts = dict(zip(buckets, buckets))  # the layer's ancestors -> first bucket below
    for d in range(depth):
        parents = {}
        for node, first in firsts.items():
            if node ^ 1 not in firsts:
                out.append((d, first))
            parents.setdefault(node >> 1, first)
        firsts = parents
    return out


def verify_open(root: bytes, records, num_classes: int) -> bool:
    """True iff the (first position, values, path) records, sorted by
    bucket and one per bucket, open a tree over num_classes values with this
    root.  Each record must hold exactly its bucket's positions,
    min(LEAF_CLASSES, N - first) values, under a path of exactly that tree's
    depth: a shorter or longer one could pass an inner node off as a leaf.
    Each leaf and each distinct ancestor is hashed once, from the computed
    sibling where one exists and from the first record's path below the
    node otherwise.  No records open nothing and are accepted."""
    leaves = _num_leaves(num_classes)
    depth = (leaves - 1).bit_length()
    nodes = {}  # node index -> (digest, path of the first record below it)
    last = -1
    for first, values, path in records:
        bucket, offset = divmod(first, LEAF_CLASSES)
        if (offset or not last < bucket < leaves or len(path) != depth
                or len(values) != min(LEAF_CLASSES, num_classes - first)):
            return False
        nodes[bucket] = (DIGEST(_leaf_preimage(bucket, values)).digest(), path)
        last = bucket
    for d in range(depth):
        parents = {}
        for pos, (node, path) in nodes.items():
            if pos >> 1 in parents:
                continue
            sibling = nodes.get(pos ^ 1, (path[d],))[0]
            if len(sibling) != DIGEST_SIZE:
                return False
            parents[pos >> 1] = (_node_hash(sibling, node) if pos & 1
                                 else _node_hash(node, sibling), path)
        nodes = parents
    return not nodes or nodes[0][0] == root


def _frame(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


class FSState:
    """Fiat-Shamir transcript: absorb commitments, squeeze challenges."""

    def __init__(self, domain: bytes):
        self.state = DIGEST(b"FLWR-FS-v1" + _frame(domain)).digest()

    def absorb(self, label: bytes, data: bytes) -> None:
        self.state = DIGEST(self.state + b"\x10" + _frame(label) + _frame(data)).digest()

    def _squeeze(self, label: bytes) -> bytes:
        out = DIGEST(self.state + b"\x20" + _frame(label)).digest()
        self.state = DIGEST(self.state + b"\x30" + _frame(label)).digest()
        return out

    def challenge_field(self, label: bytes, field: PrimeField) -> int:
        """A field element: 256-bit digest reduced mod p (bias < 2^-190 for
        any 64-bit modulus)."""
        return field.reduce(int.from_bytes(self._squeeze(label), "big"))

    def challenge_queries(self, label: bytes, num_vertices: int, n: int,
                          m: int, t: int) -> list[tuple[int, tuple[int, ...]]]:
        """Query-phase randomness: m pairs of start vertex and sorted
        t-subset of [n].  Each is drawn uniformly by rejection from the
        stream of 64-bit big-endian chunks of DIGEST(seed || counter), the
        counter a u64 from 0."""
        seed = self._squeeze(label)
        blocks = (DIGEST(seed + struct.pack("<Q", c)).digest() for c in itertools.count())
        chunks = (x for block in blocks for (x,) in struct.iter_unpack(">Q", block))

        def uniform(bound: int) -> int:
            limit = (1 << 64) - ((1 << 64) % bound)
            for x in chunks:
                if x < limit:
                    return x % bound

        out = []
        for _ in range(m):
            v0 = uniform(num_vertices)
            picked: set[int] = set()
            while len(picked) < t:
                picked.add(uniform(n))
            out.append((v0, tuple(sorted(picked))))
        return out
