"""The folding operator and blossoming sequences of flowering cuts.

Folding collapses a word on a graph onto the kept half of a flowering cut:
the value on a child class at (v, l) is f(v, l) + alpha * f(phi(v), l).  The
isomorphism phi makes this well defined per class, so the fold is one
gather and one field mul_add over the cut's precomputed class-pair plan, a
2 x N' int64 array built once per cut, at two field operations per output
class on the word's array; the verifier's fold check reads the same pairs
and checks the same mul_add.  alpha is always the verifier's challenge;
nothing here samples randomness.

A blossoming sequence is valid by construction: its constructor cuts each
graph once, validating every cut on its parent, and refuses a chain that
does not end in a one-vertex flower.  A Cayley chain's tables are valid by
construction too, blocks of graph 0's (cayley.CayleyChain), so it takes
them unchecked (BlossomingSequence._of).  A blossoming sequence's digest
names graph 0 and every cut, since each cut fixes the fold relation the
verifier checks; a Cayley chain, whose cuts its generating set fixes, is
named by that set alone.

A fold check at level i reads a pair of level-(i-1) classes, those of
(v, l) and (phi(v), l), so a proof commits level i-1 in cut i's pair
order (pair_positions): when the cut's fold pairs partition the parent's
classes, as translation by the cut bit makes them on every Cayley chain,
each pair takes two adjacent positions and a Merkle bucket of an even
number of positions never splits one, as FRI commits one coset per leaf.

The query phase and the NI verifier read a chain only through Chain: per
level sizes, the digest, the walk's descent, and per fold check the class
ids it reads with their addresses, which for the NI verifier are commit
positions.  A BlossomingSequence answers from its tables: the cut's down,
the child's class index, the fold plan and commit_positions, which are
pair_positions over the fold plans, built on first use.  A Cayley chain
answers a fresh verifier from its generating set (cayley.CayleyChain), so
that verifier builds no table over the vertices.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from typing import Protocol

import numpy as np

from .errors import FloweringError
from .graph_code import Word
from .rim_graph import RIM, FloweringCut

NOT_FLOWER = "NotFlower"


class CutMismatchError(FloweringError):
    pass


def fold(cut: FloweringCut, f: Word, alpha: int) -> Word:
    """Fold f along the cut with challenge alpha; a word on the cut graph."""
    if f.graph != cut.parent:
        raise CutMismatchError("word does not live on the cut's parent graph")
    field = f.field
    vals = f.values
    plan = cut.fold_plan
    return Word._of(cut.child, field,
                    field.mul_add(vals[plan[0]], field.reduce(alpha), vals[plan[1]]))


def pair_positions(cut: FloweringCut) -> np.ndarray:
    """The commit position of each parent class in the cut's pair order:
    the two-class fold pairs first, pair j at positions 2j and 2j+1 in
    order of its smaller class, then the self-pairs in class order.  Where
    the pairs do not partition the parent's classes (some class is in two
    distinct pairs, or in none), the positions are the class order."""
    plan = cut.fold_plan
    ids = np.arange(cut.parent.classes.num_classes, dtype=np.int32)
    partner = np.full_like(ids, -1)
    partner[plan[0]] = plan[1]
    partner[plan[1]] = plan[0]
    # every pair that names a class must name the partner it was given
    if ((partner < 0).any() or (partner[plan[0]] != plan[1]).any()
            or (partner[plan[1]] != plan[0]).any()):
        return ids
    lo = np.flatnonzero(ids < partner)
    evens = ids[:2 * lo.size:2]
    positions = np.empty_like(ids)
    positions[lo] = evens
    positions[partner[lo]] = evens + 1
    positions[ids == partner] = ids[2 * lo.size:]
    return positions


# the fold check at a child slot (vc, l): the two parent class ids of its
# fold pair and the slot's own class id, then the three addresses the query
# phase's oracle reads them at
ReadMap = Callable[[int, int], tuple[int, int, int, int, int, int]]


class Chain(Protocol):
    """What the query phase and the NI verifier read of a blossoming
    sequence: sizes, its digest, and per fold check three class ids and
    their addresses.  descent(v0) follows a level-0 vertex down the cuts:
    entry j is the child vertex vc that cut j+1 maps the level-j vertex to.
    fold_reads(positions)[j](vc, l) are the level-j class ids of the kept
    and the image slot at index l (the fold plan's column for the child
    slot), the level-(j+1) class id of the slot (vc, l), then the addresses
    of the three: the ids again, or with positions their commit positions.
    The flower is committed in class order."""

    r: int
    n: int

    def num_vertices(self, level: int) -> int: ...
    def num_classes(self, level: int) -> int: ...
    def proof_length(self) -> int: ...
    def digest(self) -> bytes: ...
    def descent(self, v: int) -> list[int]: ...
    def fold_reads(self, positions: bool = False) -> list[ReadMap]: ...
    def flower_ids(self) -> Sequence[int]: ...


def _read_map(cut: FloweringCut, pair_at: np.ndarray | None = None,
              child_at: np.ndarray | None = None) -> ReadMap:
    """The fold check at slot (vc, l) of the cut's child: its class c, the
    fold plan's column c, and the same column of pair_at and entry c of
    child_at, the commit positions of the parent and the child, if given."""
    class_of, plan = cut.child.classes.class_of.item, cut.fold_plan.item
    if pair_at is None:
        def read(vc: int, l: int) -> tuple[int, int, int, int, int, int]:
            c = class_of(vc, l)
            a, b = plan(0, c), plan(1, c)
            return a, b, c, a, b, c
    else:
        at, child = pair_at.item, child_at.item

        def read(vc: int, l: int) -> tuple[int, int, int, int, int, int]:
            c = class_of(vc, l)
            return plan(0, c), plan(1, c), c, at(0, c), at(1, c), child(c)
    return read


class BlossomingSequence:
    """Chain of graphs linked by flowering cuts, ending in a one-vertex
    flower; graphs[i] is the child of cuts[i-1].

    Valid by construction: it is built from a base graph and (v_prime, phi)
    specs, each cut validated on the graph before it, and a chain that does
    not end in a flower raises a FloweringError naming NotFlower.
    """

    def __init__(self, graph0: RIM, specs):
        self.n = graph0.n
        self.cuts: list[FloweringCut] = []
        self.graphs = [graph0]
        self._digest: bytes | None = None
        self._positions: list[np.ndarray] | None = None
        self._reads: dict[bool, list[ReadMap]] = {}
        for v_prime, phi in specs:
            self.cuts.append(FloweringCut(self.graphs[-1], v_prime, phi))
            self.graphs.append(self.cuts[-1].child)
        if self.graphs[-1].num_vertices != 1:
            raise FloweringError(
                f"{NOT_FLOWER}: the chain ends in a graph of "
                f"{self.graphs[-1].num_vertices} vertices")

    @classmethod
    def _of(cls, graphs: list[RIM], cuts: list[FloweringCut]) -> BlossomingSequence:
        """The chain of these graphs and cuts, known valid by construction,
        as a Cayley chain's are (cayley.CayleyChain); unchecked."""
        seq = cls.__new__(cls)
        seq.n, seq.graphs, seq.cuts = graphs[0].n, graphs, cuts
        seq._digest = seq._positions = None
        seq._reads = {}
        return seq

    @property
    def r(self) -> int:
        return len(self.cuts)

    def num_vertices(self, level: int) -> int:
        return self.graphs[level].num_vertices

    def num_classes(self, level: int) -> int:
        return self.graphs[level].classes.num_classes

    def proof_length(self) -> int:
        """Total number of edge classes across the sent levels 1..r."""
        return sum(map(self.num_classes, range(1, self.r + 1)))

    def descent(self, v: int) -> list[int]:
        walk = []
        for cut in self.cuts:
            v = cut.down.item(v)
            walk.append(v)
        return walk

    def fold_reads(self, positions: bool = False) -> list[ReadMap]:
        """Per cut, the fold checks of its child slots, built once per
        chain; with positions, addressed by the commit positions of the
        parent, gathered by the fold plan, and of the child."""
        if positions not in self._reads:
            if positions:
                orders = self.commit_positions()
                self._reads[True] = [_read_map(cut, parent[cut.fold_plan], child)
                                     for cut, parent, child in zip(self.cuts, orders, orders[1:])]
            else:
                self._reads[False] = list(map(_read_map, self.cuts))
        return self._reads[positions]

    def flower_ids(self) -> list[int]:
        return self.graphs[-1].classes.class_of[0].tolist()

    def commit_positions(self) -> list[np.ndarray]:
        """Per level, the Merkle position of each class: levels 0..r-1 in
        the pair order of the cut that folds them, the flower in class order.
        Built on first use, not with the chain or its fold plans."""
        if self._positions is None:
            self._positions = ([pair_positions(cut) for cut in self.cuts]
                               + [np.arange(self.graphs[-1].classes.num_classes, dtype=np.int32)])
        return self._positions

    def digest(self) -> bytes:
        """SHA-256 over graph 0's RIM.digest and, per cut, V' and phi(V')
        as little-endian int64 arrays; every size is fixed by graph 0."""
        if self._digest is None:
            h = hashlib.sha256(self.graphs[0].digest())
            for cut in self.cuts:
                h.update(np.ascontiguousarray(cut.ends, dtype="<i8"))
            self._digest = h.digest()
        return self._digest
