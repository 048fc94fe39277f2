"""Merkle vector commitments and the Fiat-Shamir transcript state.

A word is committed in buckets of LEAF_CLASSES consecutive classes, one
bucket per leaf, as FRI commits one coset per leaf: leaf j hashes the
bucket index j with the values of classes 8j..8j+7 (the last leaf holds
only the classes that remain), and leaf/node hashes are domain-separated
by a one-byte prefix, so a path commits to a position, not just values.
The leaf layer is zero-padded to a power of two.  Each tree layer is one
contiguous bytes object of digests, and the preimages of a layer are built
as one numpy record array (the leaves straight from the word's array) and
hashed row by row, so the hashing is one DIGEST call per leaf and per node
and nothing else per class.  SHA-256 throughout; every hash goes through
the module-level DIGEST.

FSState keeps a running 32-byte state.  Every absorb and every challenge is
framed with a length-prefixed label, and deriving a challenge ratchets the
state, so challenge streams under different labels or histories never
collide.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import FloweringError

DIGEST = hashlib.sha256
DIGEST_SIZE = 32
# classes per Merkle leaf: an opened bucket carries its unread classes as
# 8-byte values and saves the 32-byte path digests of separate leaves
LEAF_CLASSES = 8

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
    """The digests of the rows of a 2-D uint8 array, concatenated."""
    digest = DIGEST
    width = records.shape[1]
    view = memoryview(records.tobytes())
    return b"".join([digest(view[i:i + width]).digest()
                     for i in range(0, len(view), width)])


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
    """Commitment to an array of field values (a word's values, used as is)
    in canonical class order, one leaf per bucket of LEAF_CLASSES classes.

    layers[0] is the zero-padded leaf layer and layers[-1] the root, each
    one bytes object of 32-byte digests; openings are (bucket values as
    Python ints, sibling path) pairs authenticated against the root.
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

    def open(self, bucket: int) -> tuple[list[int], list[bytes]]:
        """The committed values of a bucket plus its authentication path."""
        if not 0 <= bucket < _num_leaves(len(self.values)):
            raise IndexOutOfRangeError(f"bucket {bucket} out of range")
        path = []
        pos = bucket
        for layer in self.layers[:-1]:
            sibling = (pos ^ 1) * DIGEST_SIZE
            path.append(layer[sibling:sibling + DIGEST_SIZE])
            pos >>= 1
        first = bucket * LEAF_CLASSES
        return self.values[first:first + LEAF_CLASSES].tolist(), path


def verify_open(root: bytes, bucket: int, values: list[int], path: list[bytes],
                num_classes: int) -> bool:
    """True iff the path authenticates the values of a bucket under the root
    of a tree over num_classes values.  The bucket must hold exactly its
    classes, min(LEAF_CLASSES, N - LEAF_CLASSES * bucket) values, and the
    path must have exactly that tree's depth: a shorter or longer one could
    pass an inner node off as a leaf."""
    leaves = _num_leaves(num_classes)
    if (not 0 <= bucket < leaves
            or len(values) != min(LEAF_CLASSES, num_classes - LEAF_CLASSES * bucket)
            or len(path) != (leaves - 1).bit_length()):
        return False
    node = DIGEST(_leaf_preimage(bucket, values)).digest()
    pos = bucket
    for sibling in path:
        if pos & 1:
            node = _node_hash(sibling, node)
        else:
            node = _node_hash(node, sibling)
        pos >>= 1
    return node == root


def _frame(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


class _DigestStream:
    """Counter-mode SHA-256 stream exposing rejection-sampled uniform ints."""

    def __init__(self, seed: bytes):
        self.seed = seed
        self.counter = 0
        self.buffer = b""

    def _refill(self) -> None:
        self.buffer += DIGEST(self.seed + struct.pack("<Q", self.counter)).digest()
        self.counter += 1

    def chunk64(self) -> int:
        while len(self.buffer) < 8:
            self._refill()
        out = int.from_bytes(self.buffer[:8], "big")
        self.buffer = self.buffer[8:]
        return out

    def uniform(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on 64-bit chunks."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.chunk64()
            if x < limit:
                return x % bound


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

    def challenge_field(self, label: bytes, p: int) -> int:
        """A field element: 256-bit digest reduced mod p (bias < 2^-190 for
        any 64-bit modulus)."""
        return int.from_bytes(self._squeeze(label), "big") % p

    def challenge_queries(self, label: bytes, num_vertices: int, n: int,
                          m: int, t: int) -> list[tuple[int, tuple[int, ...]]]:
        """Query-phase randomness: m pairs of start vertex and sorted
        t-subset of [n], rejection-sampled from the digest stream."""
        stream = _DigestStream(self._squeeze(label))
        out = []
        for _ in range(m):
            v0 = stream.uniform(num_vertices)
            picked: set[int] = set()
            while len(picked) < t:
                picked.add(stream.uniform(n))
            out.append((v0, tuple(sorted(picked))))
        return out
