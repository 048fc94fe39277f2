"""The folding operator and blossoming sequences of flowering cuts.

Folding collapses a word on a graph onto the kept half of a flowering cut:
the value on a child class at (v, l) is f(v, l) + alpha * f(phi(v), l).  The
isomorphism phi makes this well defined per class, so the fold is computed
straight from the cut's precomputed class-pair plan at two field operations
per output class.  alpha is always the verifier's challenge; nothing here
samples randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FloweringError
from .graph_code import Word
from .rim_graph import RIM, FloweringCut, flowering_cut_validate

NOT_FLOWER = "NotFlower"


class CutMismatchError(FloweringError):
    pass


def fold(cut: FloweringCut, f: Word, alpha: int) -> Word:
    """Fold f along the cut with challenge alpha; a word on the cut graph."""
    if f.graph != cut.parent:
        raise CutMismatchError("word does not live on the cut's parent graph")
    p = f.field.p
    alpha %= p
    vals = f.values
    return Word(
        cut.child,
        f.field,
        [(vals[a] + alpha * vals[b]) % p for a, b in cut.fold_plan],
    )


@dataclass
class BlossomingSequence:
    """Chain of graphs linked by flowering cuts, ending in a one-vertex
    flower; graphs[i] is the child of cuts[i-1]."""

    graphs: list[RIM]
    cuts: list[FloweringCut]

    @property
    def r(self) -> int:
        return len(self.cuts)

    @classmethod
    def from_cut_specs(cls, graph0: RIM, specs) -> BlossomingSequence:
        """Build the chain from (v_prime, phi) pairs, cutting successively;
        every cut is validated."""
        graphs = [graph0]
        cuts = []
        for v_prime, phi in specs:
            cut = FloweringCut(graphs[-1], v_prime, phi)
            cuts.append(cut)
            graphs.append(cut.child)
        return cls(graphs, cuts)

    def validate(self) -> str | None:
        return blossoming_validate(self.graphs, self.cuts)

    def proof_length(self) -> int:
        """Total number of edge classes across the sent levels 1..r."""
        return sum(g.classes.num_classes for g in self.graphs[1:])


def blossoming_validate(graphs: list[RIM], cuts: list[FloweringCut]) -> str | None:
    """None if the chain is blossoming, else a reason naming the failing level."""
    if len(graphs) != len(cuts) + 1:
        return f"LengthMismatch: {len(graphs)} graphs for {len(cuts)} cuts"
    for i, cut in enumerate(cuts, start=1):
        if cut.parent != graphs[i - 1]:
            return f"CutMismatch at level {i}: cut parent is not the previous graph"
        reason = flowering_cut_validate(graphs[i - 1], cut.v_prime, cut.phi)
        if reason is not None:
            return f"{reason} at level {i}"
        if cut.child != graphs[i]:
            return f"CutMismatch at level {i}: graph is not the cut of its parent"
    if graphs[-1].num_vertices != 1:
        return NOT_FLOWER
    return None
