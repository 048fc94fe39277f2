"""Regular indexed multigraphs (RIMs) and flowering cuts.

A RIM assigns every vertex exactly n incident edge slots indexed 1..n, stored
here 0-based as a dense |V| x n table ``adj`` with the involution property
``adj[adj[v][l]][l] == v``.  A slot with ``adj[v][l] == v`` is a petal (loop).
Slots (v, l) and (adj[v][l], l) form one undirected edge class; words and
Merkle leaves are indexed by classes in a canonical order, so that order is
fixed once here: classes sorted by (minimum vertex id, index l).

Cutting a graph to a vertex subset keeps ids dense by remapping.  A
flowering cut is validated on its parent and cut once; it keeps the
child-to-parent ids, the parent-to-child projection ``down`` that the query
walk follows, and the fold plan, which names the two parent classes behind
every child class for the fold and the verifier's fold check alike.

Graphs are never read from disk: an instance file names the generating set
and the chain is rebuilt from it.  ``RIM.hash_hex`` is the graph's only
serialized form, bound into every non-interactive proof; like the class
index it is computed once per graph and cached.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .errors import FloweringError


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

    class_of is a flat lookup: class_of[v * n + l] is the class id of slot
    (v, l).  reps[cid] is the (min vertex, l) representative; sizes[cid] is 1
    for petals and 2 otherwise.
    """

    __slots__ = ("n", "num_classes", "class_of", "reps", "sizes", "petals")

    def __init__(self, rim: RIM):
        n = rim.n
        self.n = n
        adj = rim.adj
        class_of = [-1] * (rim.num_vertices * n)
        reps: list[tuple[int, int]] = []
        sizes: list[int] = []
        petals: list[int] = []
        cid = 0
        for v in range(rim.num_vertices):
            base = v * n
            for l in range(n):
                if class_of[base + l] >= 0:
                    continue
                w = adj[v][l]
                class_of[base + l] = cid
                if w == v:
                    sizes.append(1)
                    petals.append(cid)
                else:
                    class_of[w * n + l] = cid
                    sizes.append(2)
                reps.append((v, l))
                cid += 1
        self.num_classes = cid
        self.class_of = class_of
        self.reps = reps
        self.sizes = sizes
        self.petals = petals

    @property
    def num_petals(self) -> int:
        return len(self.petals)

    def id_of(self, v: int, l: int) -> int:
        return self.class_of[v * self.n + l]


class RIM:
    """n-regular indexed multigraph on dense vertex ids 0..|V|-1."""

    __slots__ = ("n", "num_vertices", "adj", "_classes", "_hash")

    def __init__(self, n: int, adjacency: list[list[int]], check: bool = True):
        self.n = n
        self.num_vertices = len(adjacency)
        self.adj = [list(row) for row in adjacency]
        self._classes: EdgeClassIndex | None = None
        self._hash: str | None = None
        if check:
            bad = self.violations()
            if bad:
                raise FloweringError(f"not a valid RIM, violations at {bad[:5]}")

    def violations(self) -> list[tuple[int, int]]:
        """All slots (v, l) where the involution E(E(v,l),l) = v fails."""
        out = []
        V = self.num_vertices
        for v in range(V):
            row = self.adj[v]
            if len(row) != self.n:
                out.extend((v, l) for l in range(self.n))
                continue
            for l in range(self.n):
                w = row[l]
                if not 0 <= w < V or self.adj[w][l] != v:
                    out.append((v, l))
        return out

    @property
    def classes(self) -> EdgeClassIndex:
        if self._classes is None:
            self._classes = EdgeClassIndex(self)
        return self._classes

    def petal_counts(self) -> list[int]:
        """Number of petals at each vertex."""
        return [sum(1 for l in range(self.n) if row[l] == v) for v, row in enumerate(self.adj)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RIM)
            and other.n == self.n
            and other.adj == self.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(tuple(r) for r in self.adj)))

    def __repr__(self) -> str:
        return f"RIM(n={self.n}, vertices={self.num_vertices}, classes={self.classes.num_classes})"

    def canonical_bytes(self) -> bytes:
        """Sorted-key compact JSON of (n, num_vertices, adjacency): the bytes
        that hash_hex, and so every proof header, commits to."""
        data = {"n": self.n, "num_vertices": self.num_vertices, "adjacency": self.adj}
        return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()

    def hash_hex(self) -> str:
        if self._hash is None:
            self._hash = hashlib.sha256(self.canonical_bytes()).hexdigest()
        return self._hash


def cut_graph(rim: RIM, vertices) -> tuple[RIM, list[int]]:
    """Restrict the graph to a vertex subset; edges leaving it become petals.

    Returns the cut graph (vertex ids remapped densely, preserving order) and
    the child-to-parent id list.
    """
    kept = sorted(set(vertices))
    if not kept:
        raise EmptyCutError("cut to the empty vertex set")
    if kept[0] < 0 or kept[-1] >= rim.num_vertices:
        raise UnknownVertexError(f"cut set contains ids outside 0..{rim.num_vertices - 1}")
    to_child = {v: i for i, v in enumerate(kept)}
    adj = []
    for v in kept:
        row = []
        for l in range(rim.n):
            w = rim.adj[v][l]
            row.append(to_child[w] if w in to_child else to_child[v])
        adj.append(row)
    return RIM(rim.n, adj, check=False), kept


def flowering_cut_validate(rim: RIM, v_prime, phi: dict[int, int]) -> str | None:
    """None if (V', phi) is a flowering cut of rim, else the failure reason.

    phi must be a bijection from V' onto the other half that commutes with
    the adjacency of the two cut halves.  That is checked on the parent,
    without building either half: for v in V' and each l, with a = E(v, l)
    and b = E(phi(v), l), the cut to V' has neighbour a if a is in V' (else
    the petal v), the cut to the other half has neighbour b if b is not in
    V' (else the petal phi(v)), and phi must map the first to the second.
    """
    v_set = set(v_prime)
    all_v = set(range(rim.num_vertices))
    if not v_set or not v_set < all_v:
        return NOT_PARTITION
    if 2 * len(v_set) != rim.num_vertices:
        return UNEQUAL_HALVES
    if set(phi.keys()) != v_set or set(phi.values()) != all_v - v_set:
        return NOT_ISOMORPHISM
    adj = rim.adj
    for v in v_set:
        pv = phi[v]
        for a, b in zip(adj[v], adj[pv]):
            if phi[a if a in v_set else v] != (pv if b in v_set else b):
                return NOT_ISOMORPHISM
    return None


class FloweringCut:
    """A validated flowering cut (V', phi) of a parent graph, with its cut
    graph and the translations the fold and the protocol walk read.

    from_child[vc] is the parent id of child vertex vc; down[v] is the child
    id of pi_phi(v), the representative in V' of parent vertex v.
    """

    __slots__ = ("parent", "v_prime", "phi", "child", "from_child", "down", "_fold_plan")

    def __init__(self, parent: RIM, v_prime, phi: dict[int, int]):
        reason = flowering_cut_validate(parent, v_prime, phi)
        if reason is not None:
            raise InvalidCutError(reason)
        self.parent = parent
        self.v_prime = tuple(sorted(set(v_prime)))
        self.phi = dict(phi)
        self.child, self.from_child = cut_graph(parent, self.v_prime)
        self.down = [0] * parent.num_vertices
        for vc, v in enumerate(self.from_child):
            self.down[v] = self.down[self.phi[v]] = vc
        self._fold_plan: list[tuple[int, int]] | None = None

    @property
    def fold_plan(self) -> list[tuple[int, int]]:
        """Per child edge class, the pair of parent class ids feeding it:
        (class of (v, l), class of (phi(v), l)) for a representative (v, l)."""
        if self._fold_plan is None:
            pc = self.parent.classes
            n = self.parent.n
            plan = []
            for vc, l in self.child.classes.reps:
                vp = self.from_child[vc]
                plan.append((pc.class_of[vp * n + l], pc.class_of[self.phi[vp] * n + l]))
            self._fold_plan = plan
        return self._fold_plan


def mu(rim: RIM) -> Fraction:
    """The distance-comparison ratio |classes| / (m |V|), where m is the
    maximum over vertices of sum_l 1/|class(v, l)|.

    With q petals at a vertex that sum is (n + q) / 2, so mu depends only on
    the largest per-vertex petal count; it is 1 when petals are spread evenly.
    """
    worst = max(rim.petal_counts())
    return Fraction(2 * rim.classes.num_classes, (rim.n + worst) * rim.num_vertices)
