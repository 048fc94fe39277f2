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
"""

from __future__ import annotations

import hashlib

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

    def digest(self) -> bytes:
        """SHA-256 over graph 0's digest and, per cut, V' and phi(V') as
        little-endian int64 arrays; every size is fixed by graph 0."""
        if self._digest is None:
            h = hashlib.sha256(self.graphs[0].digest())
            for cut in self.cuts:
                h.update(cut.ends.astype("<i8", copy=False))
            self._digest = h.digest()
        return self._digest
