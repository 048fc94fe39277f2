"""The folding operator and blossoming sequences of flowering cuts.

Folding collapses a word on a graph onto the kept half of a flowering cut:
the value on a child class at (v, l) is f(v, l) + alpha * f(phi(v), l).  The
isomorphism phi makes this well defined per class, so the fold is one
gather and one field mul_add over the cut's precomputed class-pair plan, a
2 x N' int64 array built once per cut, at two field operations per output
class on the word's array; the verifier's fold check reads single columns
of the same plan and checks the same mul_add.  alpha is always the
verifier's challenge; nothing here samples randomness.

A blossoming sequence is valid by construction: its constructor cuts each
graph once, validating every cut on its parent, and refuses a chain that
does not end in a one-vertex flower.  Its digest names graph 0 and every
cut, since each cut fixes the fold relation the verifier checks.

A fold check at level i reads a pair of level-(i-1) classes, those of
(v, l) and (phi(v), l), so a proof commits level i-1 in cut i's pair
order (pair_positions): when the cut's fold pairs partition the parent's
classes, as translation by the cut bit makes them on every Cayley chain,
each pair takes two adjacent positions and a Merkle bucket of an even
number of positions never splits one, as FRI commits one coset per leaf.
"""

from __future__ import annotations

import hashlib

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


class BlossomingSequence:
    """Chain of graphs linked by flowering cuts, ending in a one-vertex
    flower; graphs[i] is the child of cuts[i-1].

    Valid by construction: it is built from a base graph and (v_prime, phi)
    specs, each cut validated on the graph before it, and a chain that does
    not end in a flower raises a FloweringError naming NotFlower.
    """

    def __init__(self, graph0: RIM, specs):
        self.cuts: list[FloweringCut] = []
        self.graphs = [graph0]
        self._digest: bytes | None = None
        self._positions: list[np.ndarray] | None = None
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

    def proof_length(self) -> int:
        """Total number of edge classes across the sent levels 1..r."""
        return sum(g.classes.num_classes for g in self.graphs[1:])

    def commit_positions(self) -> list[np.ndarray]:
        """Per level, the Merkle position of each class: levels 0..r-1 in
        the pair order of the cut that folds them, the flower in class order.
        Built on first use, not with the chain or its fold plans."""
        if self._positions is None:
            self._positions = ([pair_positions(cut) for cut in self.cuts]
                               + [np.arange(self.graphs[-1].classes.num_classes, dtype=np.int32)])
        return self._positions

    def digest(self) -> bytes:
        """SHA-256 over graph 0's digest and, per cut, V' and phi(V') as
        little-endian int64 arrays; every size is fixed by graph 0."""
        if self._digest is None:
            h = hashlib.sha256(self.graphs[0].digest())
            for cut in self.cuts:
                h.update(cut.ends.astype("<i8", copy=False))
            self._digest = h.digest()
        return self._digest
