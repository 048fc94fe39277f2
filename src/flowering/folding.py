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
does not end in a one-vertex flower.  Its subclass cayley.CayleyChain is
valid by construction too: its graphs and cuts are blocks of graph 0's,
built unchecked.  A blossoming sequence's digest names graph 0 and every
cut, since each cut fixes the fold relation the verifier checks; a Cayley
chain, whose cuts its generating set fixes, is named by that set alone.

A fold check at level i reads a pair of level-(i-1) classes, those of
(v, l) and (phi(v), l), so a proof commits level i-1 in cut i's pair
order (pair_positions): when the cut's fold pairs partition the parent's
classes, as translation by the cut bit makes them on every Cayley chain,
each pair takes two adjacent positions and a Merkle bucket of an even
number of positions never splits one, as FRI commits one coset per leaf.

A BlossomingSequence answers the verifier's reads, listed in its
docstring, from its tables: the cut's down, the child's class index, the
fold plan and commit_positions, pair_positions over the fold plans.  Its
subclass cayley.CayleyChain answers them from its generating set, so a
fresh verifier builds no table over the vertices.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from functools import cached_property

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


# the fold check at a child slot (vc, l): the three addresses the query
# phase's oracle reads, the two parent classes of its fold pair and the slot's
# own class
ReadMap = Callable[[int, int], tuple[int, int, int]]


def _read_map(cut: FloweringCut, parent_at: np.ndarray | None = None,
              child_at: np.ndarray | None = None) -> ReadMap:
    """The fold check at slot (vc, l) of the cut's child, whose class is c:
    the fold plan's column c and c, or, with the commit positions of the
    parent and the child, their entries there."""
    class_of, plan = cut.child.classes.class_of.item, cut.fold_plan.item
    if parent_at is None:
        def read(vc: int, l: int) -> tuple[int, int, int]:
            c = class_of(vc, l)
            return plan(0, c), plan(1, c), c
    else:
        at, child = parent_at.item, child_at.item

        def read(vc: int, l: int) -> tuple[int, int, int]:
            c = class_of(vc, l)
            return at(plan(0, c)), at(plan(1, c)), child(c)
    return read


class BlossomingSequence:
    """Chain of graphs linked by flowering cuts, ending in a one-vertex
    flower; graphs[i] is the child of cuts[i-1].

    Valid by construction: it is built from a base graph and (v_prime, phi)
    specs, each cut validated on the graph before it, and a chain that does
    not end in a flower raises a FloweringError naming NotFlower.

    The verifier reads r, n, num_vertices, num_classes, proof_length,
    digest, descent and fold_reads, and the prover graphs, cuts and
    commit_positions too; cayley.CayleyChain overrides each verifier
    read that this class answers from graphs or cuts.
    """

    def __init__(self, graph0: RIM, specs):
        self.n = graph0.n
        self.cuts: list[FloweringCut] = []
        self.graphs = [graph0]
        for v_prime, phi in specs:
            self.cuts.append(FloweringCut(self.graphs[-1], v_prime, phi))
            self.graphs.append(self.cuts[-1].child)
        if self.graphs[-1].num_vertices != 1:
            raise FloweringError(
                f"{NOT_FLOWER}: the chain ends in a graph of "
                f"{self.graphs[-1].num_vertices} vertices")

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
        """A level-0 vertex followed down the cuts: entry j is the child
        vertex vc that cut j+1 maps the level-j vertex to."""
        walk = []
        for cut in self.cuts:
            v = cut.down.item(v)
            walk.append(v)
        return walk

    def fold_reads(self, positions: bool = False) -> list[ReadMap]:
        """Per cut j, the fold checks of its child slots, built once per
        chain: fold_reads(positions)[j](vc, l) are the addresses of the
        level-j classes of the kept and the image slot at index l (the fold
        plan's column for the child slot) and of the level-(j+1) class of
        the slot (vc, l): their class ids, or with positions their commit
        positions."""
        return self._position_reads if positions else self._id_reads

    @cached_property
    def _id_reads(self) -> list[ReadMap]:
        return list(map(_read_map, self.cuts))

    @cached_property
    def _position_reads(self) -> list[ReadMap]:
        orders = self.commit_positions()
        return list(map(_read_map, self.cuts, orders, orders[1:]))

    def commit_positions(self) -> list[np.ndarray]:
        """Per level, the Merkle position of each class: levels 0..r-1 in
        the pair order of the cut that folds them, the flower in class order.
        Built on first use, not with the chain or its fold plans."""
        return self._positions

    @cached_property
    def _positions(self) -> list[np.ndarray]:
        return ([pair_positions(cut) for cut in self.cuts]
                + [np.arange(self.num_classes(self.r), dtype=np.int32)])

    def digest(self) -> bytes:
        """The chain's name (_digest), which an NI proof's transcript binds."""
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        """SHA-256 over graph 0's RIM.digest and, per cut, V' and phi(V')
        as little-endian int64 arrays; every size is fixed by graph 0."""
        h = hashlib.sha256(self.graphs[0].digest())
        for cut in self.cuts:
            h.update(np.ascontiguousarray(cut.ends, dtype="<i8"))
        return h.digest()
