"""Cayley multigraphs over (F_2^r, +) and their blossoming sequences.

Group elements are r-bit integers with XOR as the law; coordinate j (1-based)
is bit r-j, so the first coordinates are the most significant bits.  With
that encoding the canonical halving V_i = {0}^i x F_2^(r-i) is the dense
prefix range(2^(r-i)): cut remaps are the identity and vertex ids coincide
with group elements at every level.  The identifying isomorphism at level i
toggles coordinate i, i.e. XOR with 2^(r-i).

Generating sets carry an independence parameter d: every d-1 of the vectors
must be linearly independent (the coset-graph construction from a parity
check matrix of a binary [n, n-r, d] code).  The full nonzero set realizes
d = 3.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import FloweringError
from .folding import BlossomingSequence
from .graph_code import GraphCode, Word
from .rim_graph import RIM

INDEPENDENCE_CHECK_CAP = 10**6
_SPOT_CHECKS = 1000


class ZeroGeneratorError(FloweringError):
    pass


class DuplicateGeneratorError(FloweringError):
    pass


class SpanDeficientError(FloweringError):
    pass


class DependentSubsetError(FloweringError):
    def __init__(self, subset: tuple[int, ...]):
        super().__init__(f"dependent subset {subset}")
        self.subset = subset


class ParameterConstraintViolatedError(FloweringError):
    """These constructions assume n - k + 1 = d - 1."""


def _f2_rank(vectors) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def _independent(subset) -> bool:
    return _f2_rank(subset) == len(subset)


@dataclass(frozen=True)
class GenSet:
    """A generating set of F_2^r whose (d-1)-subsets are independent."""

    r: int
    vectors: tuple[int, ...]
    d: int
    independence_verified: bool = True

    @property
    def n(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {"r": self.r, "d": self.d, "vectors": list(self.vectors)}

    @classmethod
    def from_json(cls, data: dict) -> GenSet:
        return validate_gen_set(data["r"], list(data["vectors"]), data["d"])


def gen_set_full(r: int) -> GenSet:
    """All 2^r - 1 nonzero vectors; distinct nonzero vectors over F_2 are
    pairwise independent, so d = 3 holds structurally."""
    if r < 1:
        raise FloweringError("r must be >= 1")
    return GenSet(r, tuple(range(1, 1 << r)), 3, True)


def validate_gen_set(r: int, vectors: list[int], d: int) -> GenSet:
    """Validate span and (d-1)-subset independence of explicit vectors.

    For d <= 3 independence is decided exactly by the zero and duplicate
    checks.  Above that it is exhaustive when the number of subsets is at
    most INDEPENDENCE_CHECK_CAP, otherwise a deterministic randomized spot
    check runs and the returned GenSet is flagged unverified.
    """
    vs = tuple(vectors)
    if any(not 0 < v < (1 << r) for v in vs):
        raise ZeroGeneratorError("generators must be nonzero r-bit vectors")
    if _f2_rank(vs) != r:
        raise SpanDeficientError(f"generators span a proper subspace of F_2^{r}")
    size = d - 1
    if size > len(vs):
        raise ParameterConstraintViolatedError(f"d-1={size} exceeds n={len(vs)}")
    verified = True
    if size <= 2:
        # nonzero vectors are pairwise dependent only when equal, so at d = 3
        # the first repeated vector is the first dependent pair
        counts = Counter(vs)
        repeated = next((v for v in vs if counts[v] > 1), None)
        if size == 2 and repeated is not None:
            raise DependentSubsetError((repeated, repeated))
    elif math.comb(len(vs), size) <= INDEPENDENCE_CHECK_CAP:
        # repeated vectors show up here as dependent subsets
        for subset in itertools.combinations(vs, size):
            if not _independent(subset):
                raise DependentSubsetError(subset)
    else:
        rng = random.Random(0)
        for _ in range(_SPOT_CHECKS):
            subset = tuple(rng.sample(vs, size))
            if not _independent(subset):
                raise DependentSubsetError(subset)
        verified = False
    if len(set(vs)) != len(vs):
        raise DuplicateGeneratorError("generators must be distinct")
    return GenSet(r, vs, d, verified)


def gen_set_from_parity_check(matrix: list[list[int]], d: int) -> GenSet:
    """Generators from the columns of an r x n binary parity-check matrix
    (row 0 is the most significant coordinate)."""
    r = len(matrix)
    n = len(matrix[0])
    cols = []
    for j in range(n):
        v = 0
        for i in range(r):
            v = (v << 1) | (matrix[i][j] & 1)
        cols.append(v)
    return validate_gen_set(r, cols, d)


def cayley_rim(r: int, gens: GenSet | list[int]) -> RIM:
    """The n-RIM on F_2^r with E(v, l) = v XOR s_l; petal-free since every
    generator is nonzero and its own inverse."""
    vectors = gens.vectors if isinstance(gens, GenSet) else tuple(gens)
    if any(not 0 < s < (1 << r) for s in vectors):
        raise ZeroGeneratorError("generators must be nonzero r-bit vectors")
    if len(set(vectors)) != len(vectors):
        raise DuplicateGeneratorError("generators must be distinct")
    size = 1 << r
    adj = [[v ^ s for s in vectors] for v in range(size)]
    return RIM(len(vectors), adj, check=False)


def blossoming_cayley(r: int, gens: GenSet) -> BlossomingSequence:
    """The canonical blossoming sequence: at level i keep the half with
    coordinate i zero and identify across the toggled coordinate."""
    graph0 = cayley_rim(r, gens)
    specs = []
    for i in range(1, r + 1):
        half = 1 << (r - i)
        v_prime = range(half)
        phi = {v: v | half for v in v_prime}
        specs.append((v_prime, phi))
    return BlossomingSequence.from_cut_specs(graph0, specs)


def min_distance_bounds(r: int, n: int, k: int, d: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on the relative minimum distance of the code on
    Cay(F_2^r, S): 2^(d-r-2) (1 - (k-1)/n) and twice that."""
    if n - k + 1 != d - 1:
        raise ParameterConstraintViolatedError(
            f"need n - k + 1 = d - 1, got n={n}, k={k}, d={d}"
        )
    base = Fraction(n - k + 1, n)
    return (Fraction(2) ** (d - r - 2) * base, Fraction(2) ** (d - r - 1) * base)


def span_of(vectors) -> set[int]:
    span = {0}
    for s in vectors:
        span |= {x ^ s for x in span}
    return span


def upper_bound_witness(code: GraphCode, gens: GenSet) -> Word:
    """The explicit codeword meeting the upper distance bound: local views
    are evaluations of the unit interpolant on the span of the first d-1
    generators, and zero elsewhere.  Its weight is (n-k+1) 2^(d-2)."""
    n, k, d = gens.n, code.rs.k, gens.d
    if n - k + 1 != d - 1:
        raise ParameterConstraintViolatedError(
            f"need n - k + 1 = d - 1, got n={n}, k={k}, d={d}"
        )
    if code.graph.num_vertices != 1 << gens.r or code.graph.n != n:
        raise FloweringError("code graph is not the Cayley graph of this GenSet")
    span = span_of(gens.vectors[: d - 1])
    ell = code.rs.unit_interpolant()
    lx = [ell.evaluate(x) for x in code.rs.points]
    values = [
        lx[l] if v in span else 0 for v, l in code.graph.classes.reps
    ]
    return Word(code.graph, code.field, values)
