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
its rows, so the hashing is one DIGEST call per leaf and per node above a
leaf and no bytecode per row; a node over padding alone is the digest of
an all-padding subtree of its height, hashed once at import for every
tree.  SHA-256 throughout; every hash goes through the module-level
DIGEST.

Buckets are opened together, as a multi-opening: at each layer the
sibling of an opened bucket's ancestor is sent once, and not at all where
it is itself such an ancestor, since the verifier computes it (the batched
decommitment of StarkWare's "ethSTARK Documentation", ePrint 2021/582).
A MultiOpening keeps the opened buckets' values, the tree's class count
and those sibling digests in the order the proof sends them, and
verify_open consumes them in that order.

FSState keeps a running 32-byte state.  Every absorb and every challenge is
framed with a length-prefixed label, and deriving a challenge ratchets the
state, so challenge streams under different labels or histories never
collide.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass

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


# _PADDING[d]: the digest of an all-padding subtree of height d, a tree
# layer's padding; hashed once, here, for every depth a tree can have
_PADDING = [_ZERO_DIGEST]
for _ in range(63):
    _PADDING.append(_node_hash(_PADDING[-1], _PADDING[-1]))


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
        width = 1 << (leaves - 1).bit_length()
        layer = _leaf_layer(values)
        layers = []
        for pad in _PADDING:  # the padding digest of the layer at hand
            real = len(layer) // DIGEST_SIZE
            layers.append(layer + pad * (width - real))
            if width == 1:
                break
            # only the nodes above a leaf are hashed, the last one beside
            # the padding when the layer has an odd number of them
            layer = _node_layer(layer + pad * (real & 1))
            width >>= 1
        self.layers = layers

    @property
    def root(self) -> bytes:
        return self.layers[-1]

    def open(self, buckets: list[int]) -> MultiOpening:
        """The multi-opening of the sorted, distinct buckets: each bucket's
        values as Python ints, and the sibling digests a verifier cannot
        compute, in wire order (sent_siblings)."""
        leaves = _num_leaves(len(self.values))
        for bucket in buckets:
            if not 0 <= bucket < leaves:
                raise IndexOutOfRangeError(f"bucket {bucket} out of range")
        records = {bucket: self.values[bucket * LEAF_CLASSES:(bucket + 1) * LEAF_CLASSES].tolist()
                   for bucket in buckets}
        siblings = b"".join(self.layers[d][node * DIGEST_SIZE:(node + 1) * DIGEST_SIZE]
                            for d, node in sent_siblings(buckets, len(self.layers) - 1))
        return MultiOpening(records, len(self.values), siblings)


@dataclass
class MultiOpening:
    """Buckets of one tree opened together, as the proof's wire format
    carries them: records maps each opened bucket, in increasing order, to
    its values, every position of the bucket; num_classes is the number of
    values the tree commits, which fixes its depth and each bucket's size;
    siblings is the sibling digests, concatenated in wire order
    (sent_siblings)."""

    records: dict[int, list[int]]
    num_classes: int
    siblings: bytes

    @property
    def depth(self) -> int:
        return (_num_leaves(self.num_classes) - 1).bit_length()

    def paths(self) -> dict[int, list[bytes]]:
        """Each opened bucket's path: per layer its sibling digest, b"" where
        the sibling is an ancestor of an opened bucket."""
        sent = {key: self.siblings[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE]
                for i, key in enumerate(sent_siblings(list(self.records), self.depth))}
        return {bucket: [sent.get((d, (bucket >> d) ^ 1), b"") for d in range(self.depth)]
                for bucket in self.records}


def sent_siblings(buckets: list[int], depth: int) -> list[tuple[int, int]]:
    """(layer, node) for each sibling digest a multi-opening of the sorted,
    distinct buckets carries, in wire order: at layer d, in increasing
    position, the sibling (b >> d) ^ 1 of each ancestor b >> d of an opened
    bucket, once, unless it is itself such an ancestor."""
    out = []
    nodes = buckets
    for d in range(depth):
        above = set(nodes)
        out += [(d, node ^ 1) for node in nodes if node ^ 1 not in above]
        nodes = list(dict.fromkeys([node >> 1 for node in nodes]))
    return out


def sibling_count(buckets, depth: int) -> int:
    """len(sent_siblings(buckets, depth)), from the number of ancestors per
    layer alone: a parent with one opened child sends one sibling and a
    parent with two sends none."""
    count, nodes = 0, set(buckets)
    for _ in range(depth):
        parents = {node >> 1 for node in nodes}
        count += 2 * len(parents) - len(nodes)
        nodes = parents
    return count


def verify_open(root: bytes, opening: MultiOpening, num_classes: int) -> bool:
    """True iff the multi-opening opens a tree over num_classes values with
    this root.  It must name that count, which fixes the depth (another
    could pass an inner node off as a leaf), and hold, in increasing bucket
    order, all of each bucket's values, as parse gives and code need not.
    The sibling stream is consumed in wire order, layer by layer, in
    increasing position, one digest wherever a node's sibling is not itself
    computed, and a stream left over or too short is refused.  Each leaf and
    each distinct ancestor is hashed once.  No records open nothing and are
    accepted with no siblings."""
    if opening.num_classes != num_classes:
        return False
    siblings = opening.siblings
    if not opening.records:
        return not siblings
    leaves, depth = _num_leaves(num_classes), opening.depth
    indices, preimages = [], []  # a layer's computed nodes, in increasing position
    for bucket, values in opening.records.items():
        if (indices and bucket <= indices[-1] or not 0 <= bucket < leaves
                or len(values) != min(LEAF_CLASSES, num_classes - bucket * LEAF_CLASSES)):
            return False
        indices.append(bucket)
        preimages.append(_leaf_preimage(bucket, values))
    at = 0  # the next sent digest; a short stream ends past its length
    for _ in range(depth):
        digests = list(map(_DIGEST_OF, map(DIGEST, preimages)))
        parents, preimages = [], []
        i, count = 0, len(indices)
        while i < count:
            index, node = indices[i], digests[i]
            if index & 1:
                preimages.append(_NODE_PREFIX + siblings[at:at + DIGEST_SIZE] + node)
                at += DIGEST_SIZE
            elif i + 1 < count and indices[i + 1] == index + 1:
                preimages.append(_NODE_PREFIX + node + digests[i + 1])
                i += 1
            else:
                preimages.append(_NODE_PREFIX + node + siblings[at:at + DIGEST_SIZE])
                at += DIGEST_SIZE
            parents.append(index >> 1)
            i += 1
        indices = parents
    return at == len(siblings) and DIGEST(preimages[0]).digest() == root


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
