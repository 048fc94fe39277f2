"""Merkle vector commitments and the Fiat-Shamir transcript state.

Leaves hash the canonical class index together with the field value, and
leaf/node hashes are domain-separated by a one-byte prefix, so a path commits
to a position, not just a value.  SHA-256 throughout; the digest function is
a module-level hook should anyone need to swap it.

FSState keeps a running 32-byte state.  Every absorb and every challenge is
framed with a length-prefixed label, and deriving a challenge ratchets the
state, so challenge streams under different labels or histories never
collide.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import FloweringError

DIGEST = hashlib.sha256
DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_ZERO_DIGEST = bytes(DIGEST_SIZE)


class EmptyWordError(FloweringError):
    pass


class IndexOutOfRangeError(FloweringError):
    pass


def _leaf_hash(index: int, value: int) -> bytes:
    return DIGEST(_LEAF_PREFIX + struct.pack("<QQ", index, value)).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return DIGEST(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """Commitment to a list of field values in canonical class order.

    The leaf layer is zero-padded to a power of two; openings are
    (value, sibling path) pairs authenticated against the root.
    """

    def __init__(self, values: list[int]):
        if not values:
            raise EmptyWordError("cannot commit to an empty word")
        self.values = list(values)
        leaves = [_leaf_hash(i, v) for i, v in enumerate(values)]
        width = 1
        while width < len(leaves):
            width *= 2
        leaves += [_ZERO_DIGEST] * (width - len(leaves))
        layers = [leaves]
        while len(layers[-1]) > 1:
            prev = layers[-1]
            layers.append([_node_hash(prev[i], prev[i + 1]) for i in range(0, len(prev), 2)])
        self.layers = layers

    @property
    def root(self) -> bytes:
        return self.layers[-1][0]

    def open(self, index: int) -> tuple[int, list[bytes]]:
        """The committed value at a class index plus its authentication path."""
        if not 0 <= index < len(self.values):
            raise IndexOutOfRangeError(f"index {index} out of range")
        path = []
        pos = index
        for layer in self.layers[:-1]:
            path.append(layer[pos ^ 1])
            pos >>= 1
        return self.values[index], path


def verify_open(root: bytes, index: int, value: int, path: list[bytes],
                num_leaves: int) -> bool:
    """True iff the path authenticates (index, value) under the root of a
    tree over num_leaves values.  The path must have exactly that tree's
    depth: a shorter or longer one could pass an inner node off as a leaf."""
    if not 0 <= index < num_leaves or len(path) != (num_leaves - 1).bit_length():
        return False
    node = _leaf_hash(index, value)
    pos = index
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
