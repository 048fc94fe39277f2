"""Regular indexed multigraphs (RIMs) and flowering cuts.

A RIM assigns every vertex exactly n incident edge slots indexed 1..n, stored
here 0-based as a |V| x n int64 array ``adj`` with the involution property
``adj[adj[v, l], l] == v``.  A slot with ``adj[v, l] == v`` is a
petal (loop).  Slots (v, l) and (adj[v, l], l) form one undirected edge
class; words are indexed by classes in a canonical order, and a proof's
commit order is derived from it, so that order is fixed once here: classes
sorted by (minimum vertex id, index l).

Every table of the graph layer (class index, cut adjacency, projection,
fold plan) is an int64 array built by whole-array expressions, and a table
of pairs is two flat arrays, never a list of tuples.  Each table takes a
handful of array operations whatever its size, since on the small graphs
of a Monte-Carlo study the cost per operation, not the size, sets the time.
Code that reads single entries takes Python ints from ``.item()``, and a
word is gathered through a table in one step (``values[plan[0]]``), so no
numpy scalar reaches a transcript, a Merkle opening or a proof.

Cutting a graph to a vertex subset keeps ids dense by remapping.  A
flowering cut is validated on its parent and cut once; it keeps the
child-to-parent ids, the parent-to-child projection ``down`` that the query
walk of a built chain follows, and the fold plan, which names the two
parent classes behind every child class for the fold and that walk's fold
check alike.  A Cayley chain builds its levels' class indexes and cuts as
blocks of graph 0's tables, through the unchecked ``_of`` constructors, and
a fresh verifier computes the same ids from the generating set
(cayley.CayleyChain).

Graphs are never read from disk: an instance file names the generating set
and the chain is rebuilt from it.  A graph is named by ``RIM.digest``, the
SHA-256 of its raw adjacency buffer under a format tag; like the class
index it is computed once per graph and cached.  A Cayley chain is named by
its generating set instead (cayley.CayleyChain.digest).
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

import numpy as np

from .errors import FloweringError

# domain tag of RIM.digest
DIGEST_TAG = b"flowering-rim-v1"


class UnknownVertexError(FloweringError):
    pass


class EmptyCutError(FloweringError):
    pass


class InvalidCutError(FloweringError):
    """A claimed flowering cut failed validation; see .reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


NOT_PARTITION = "NotPartition"
UNEQUAL_HALVES = "UnequalHalves"
NOT_ISOMORPHISM = "NotIsomorphism"


class EdgeClassIndex:
    """Quotient of V x [n] by the shared-edge relation, in canonical order.

    class_of is |V| x n: class_of[v, l] is the class id of slot (v, l).
    reps is a pair of length-N arrays, the vertices and the indices of the
    (min vertex, l) representatives in class order.  All are int64 arrays;
    sizes and petals are derived on access.
    """

    __slots__ = ("num_classes", "class_of", "reps", "_adj")

    def __init__(self, rim: RIM):
        adj = rim.adj
        # slot (v, l) represents its class when v is the class's smaller
        # vertex; row-major order of the representatives is canonical order
        self.reps = (adj >= np.arange(rim.num_vertices)[:, None]).nonzero()
        self.num_classes = self.reps[0].size
        ids = np.arange(self.num_classes)
        # a class id goes to its representative and to the other end of it
        self.class_of = np.empty(adj.shape, dtype=np.int64)
        self.class_of[self.reps] = ids
        self.class_of[adj[self.reps], self.reps[1]] = ids
        self._adj = adj

    @classmethod
    def _of(cls, adj: np.ndarray, class_of: np.ndarray, reps) -> EdgeClassIndex:
        """The index of adjacency adj with tables known by construction, as a
        Cayley level's are blocks of graph 0's (cayley.CayleyChain);
        unchecked."""
        index = cls.__new__(cls)
        index.class_of, index.reps, index._adj = class_of, reps, adj
        index.num_classes = reps[0].size
        return index

    @property
    def sizes(self) -> np.ndarray:
        """Per class, 1 for a petal and 2 for an edge."""
        vertex, index = self.reps
        return 2 - (self._adj[vertex, index] == vertex)

    @property
    def petals(self) -> np.ndarray:
        """The petal class ids, in order."""
        return np.flatnonzero(self.sizes == 1)

    @property
    def num_petals(self) -> int:
        # an edge class covers two slots and a petal one
        return 2 * self.num_classes - self._adj.size

    def id_of(self, v: int, l: int) -> int:
        return self.class_of.item(v, l)


class RIM:
    """n-regular indexed multigraph on dense vertex ids 0..|V|-1.

    adjacency may be nested lists or an int64 array, which is used as is,
    not copied.  The class index and the digest are cached from it, so the
    table must not change after construction; classes, if given, is taken
    as its class index.
    """

    __slots__ = ("n", "num_vertices", "adj", "_classes", "_digest")

    def __init__(self, n: int, adjacency, check: bool = True,
                 classes: EdgeClassIndex | None = None):
        try:
            adj = np.asarray(adjacency, dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise FloweringError(f"not a valid RIM adjacency table: {exc}") from exc
        if adj.ndim != 2 or adj.shape[1] != n:
            raise FloweringError(
                f"not a valid RIM, adjacency of shape {adj.shape} for n={n}")
        self.n = n
        self.num_vertices = adj.shape[0]
        self.adj = adj
        self._classes = classes
        self._digest: bytes | None = None
        if check:
            bad = self.violations()
            if bad:
                raise FloweringError(f"not a valid RIM, violations at {bad[:5]}")

    def violations(self) -> list[tuple[int, int]]:
        """All slots (v, l) where the involution E(E(v,l),l) = v fails."""
        adj = self.adj
        inside = (adj >= 0) & (adj < self.num_vertices)
        back = adj[np.where(inside, adj, 0), np.arange(self.n)]
        bad = ~inside | (back != np.arange(self.num_vertices)[:, None])
        return [tuple(slot) for slot in np.argwhere(bad).tolist()]

    @property
    def classes(self) -> EdgeClassIndex:
        if self._classes is None:
            self._classes = EdgeClassIndex(self)
        return self._classes

    def petal_counts(self) -> np.ndarray:
        """Number of petals at each vertex."""
        return np.count_nonzero(self.adj == np.arange(self.num_vertices)[:, None], axis=1)

    def __eq__(self, other: object) -> bool:
        # fold and prover_commit compare graphs on every call, mostly a
        # graph with itself
        if other is self:
            return True
        return (
            isinstance(other, RIM)
            and other.n == self.n
            and np.array_equal(other.adj, self.adj)
        )

    def __repr__(self) -> str:
        return f"RIM(n={self.n}, vertices={self.num_vertices}, classes={self.classes.num_classes})"

    def digest(self) -> bytes:
        """SHA-256 over DIGEST_TAG, n and |V| as u64 and the adjacency as
        row-major little-endian int64, hashed from the table's own buffer."""
        if self._digest is None:
            h = hashlib.sha256(DIGEST_TAG + struct.pack("<QQ", self.n, self.num_vertices))
            h.update(np.ascontiguousarray(self.adj, dtype="<i8"))
            self._digest = h.digest()
        return self._digest


def cut_graph(rim: RIM, vertices) -> tuple[RIM, np.ndarray]:
    """Restrict the graph to a vertex subset; edges leaving it become petals.

    Returns the cut graph (vertex ids remapped densely, preserving order) and
    the child-to-parent ids as an int64 array.
    """
    kept = sorted(set(vertices))
    if not kept:
        raise EmptyCutError("cut to the empty vertex set")
    if kept[0] < 0 or kept[-1] >= rim.num_vertices:
        raise UnknownVertexError(f"cut set contains ids outside 0..{rim.num_vertices - 1}")
    kept = np.array(kept, dtype=np.int64)
    ids = np.arange(kept.size)
    to_child = np.full(rim.num_vertices, -1, dtype=np.int64)
    to_child[kept] = ids
    rows = to_child.take(rim.adj.take(kept, axis=0))
    return RIM(rim.n, np.where(rows >= 0, rows, ids[:, None]), check=False), kept


def _split(rim: RIM, v_prime, phi: dict[int, int]):
    """Validate (V', phi) as a flowering cut of rim and cut it once.

    Returns (reason, None) on failure and (None, (ends, down, child_adj))
    on success, where column vc of ends is (from_child[vc], its phi image).

    phi must be a bijection from V' onto the other half that commutes with
    the adjacency of the two cut halves.  Both halves are cut from the
    parent in one step and read through down, the child id of each vertex's
    representative in V'.  down is one-to-one on each half and
    down(phi(v)) = down(v), so phi maps the row of v in the cut to V' onto
    the row of phi(v) in the other cut exactly when the two rows agree
    through down; the V' rows through down are the child's adjacency.
    """
    v_set = set(v_prime)
    all_v = set(range(rim.num_vertices))
    if not v_set or not v_set < all_v:
        return NOT_PARTITION, None
    half = len(v_set)
    if 2 * half != rim.num_vertices:
        return UNEQUAL_HALVES, None
    images = set(phi.values())
    if (phi.keys() != v_set or len(images) != half or not images <= all_v
            or not images.isdisjoint(v_set)):
        return NOT_ISOMORPHISM, None
    kept = sorted(v_set)
    ends = np.array([kept, [phi[v] for v in kept]], dtype=np.int64)
    ids = np.arange(half)
    down = np.empty(rim.num_vertices, dtype=np.int64)
    down[ends] = ids
    side = np.zeros(rim.num_vertices, dtype=bool)
    side[ends[0]] = True
    neighbours = rim.adj.take(ends, axis=0)
    # a V' row keeps its neighbours in V' and a row of the other half those
    # outside V'; an edge across the cut becomes a petal at the row vertex
    keep = side.take(neighbours)
    keep[1] ^= True
    rows = np.where(keep, down.take(neighbours), ids[:, None])
    # equal int64 rows of one shape are equal bytes; comparing bytes skips a
    # reduction, which costs more than the comparison on small graphs
    if rows[0].tobytes() != rows[1].tobytes():
        return NOT_ISOMORPHISM, None
    return None, (ends, down, rows[0])


def flowering_cut_validate(rim: RIM, v_prime, phi: dict[int, int]) -> str | None:
    """None if (V', phi) is a flowering cut of rim, else the failure reason:
    NotPartition, UnequalHalves or NotIsomorphism, checked in that order."""
    return _split(rim, v_prime, phi)[0]


class FloweringCut:
    """A validated flowering cut (V', phi) of a parent graph, with its cut
    graph and the translations the fold and the protocol walk read.

    ends is 2 x |V'|: column vc holds from_child[vc], the parent id of child
    vertex vc, and its phi image; down[v] is the child id of pi_phi(v), the
    representative in V' of parent vertex v.  All are int64 arrays.
    """

    __slots__ = ("parent", "child", "ends", "from_child", "down", "_fold_plan")

    def __init__(self, parent: RIM, v_prime, phi: dict[int, int]):
        reason, tables = _split(parent, v_prime, phi)
        if reason is not None:
            raise InvalidCutError(reason)
        ends, down, child_adj = tables
        self._set(parent, RIM(parent.n, child_adj, check=False), ends, down, None)

    @classmethod
    def _of(cls, parent: RIM, child: RIM, ends: np.ndarray, down: np.ndarray,
            fold_plan: np.ndarray) -> FloweringCut:
        """The cut with these tables, known valid by construction, as a
        Cayley chain's are (cayley.CayleyChain); unchecked."""
        cut = cls.__new__(cls)
        cut._set(parent, child, ends, down, fold_plan)
        return cut

    def _set(self, parent, child, ends, down, fold_plan) -> None:
        self.parent, self.child, self.ends, self.down = parent, child, ends, down
        self.from_child = ends[0]
        self._fold_plan = fold_plan

    @property
    def v_prime(self) -> tuple[int, ...]:
        """The kept half V', sorted."""
        return tuple(self.from_child.tolist())

    @property
    def phi(self) -> dict[int, int]:
        """The isomorphism as a dict from V' to the other half."""
        return dict(zip(*self.ends.tolist()))

    @property
    def fold_plan(self) -> np.ndarray:
        """2 x N' int64: column c holds the two parent class ids feeding
        child class c, those of (v, l) and (phi(v), l) for its
        representative (v, l)."""
        if self._fold_plan is None:
            vc, l = self.child.classes.reps
            self._fold_plan = self.parent.classes.class_of[self.ends.take(vc, axis=1), l]
        return self._fold_plan


def mu(rim: RIM) -> Fraction:
    """The distance-comparison ratio |classes| / (m |V|), where m is the
    maximum over vertices of sum_l 1/|class(v, l)|.

    With q petals at a vertex that sum is (n + q) / 2, so mu depends only on
    the largest per-vertex petal count; it is 1 when petals are spread evenly.
    """
    worst = int(rim.petal_counts().max())
    return Fraction(2 * rim.classes.num_classes, (rim.n + worst) * rim.num_vertices)
