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

import numpy as np

from .errors import FloweringError, TooLargeError
from .folding import BlossomingSequence
from .graph_code import GraphCode, Word
from .rim_graph import RIM

INDEPENDENCE_CHECK_CAP = 10**6
# entries 2^r * n of the largest graph-0 table built: the full generating
# set at r = 12 has 4,096 x 4,095
MAX_GRAPH_ENTRIES = 1 << 24
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


def _check_graph_size(r: int, n: int | None = None) -> None:
    """Refuse a table of 2^r * n entries above MAX_GRAPH_ENTRIES, n being
    2^r - 1, the full set, when None.  r is tested first, so a huge r never
    builds 2^r."""
    if (r >= MAX_GRAPH_ENTRIES.bit_length()
            or ((1 << r) - 1 if n is None else n) << r > MAX_GRAPH_ENTRIES):
        raise TooLargeError(f"a Cayley graph on F_2^{r} needs more than "
                            f"MAX_GRAPH_ENTRIES={MAX_GRAPH_ENTRIES} table entries")


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
        """r and d must be plain ints and vectors a list of them: a bool or a
        float is refused, not read as a number."""
        r, d, vectors = data["r"], data["d"], data["vectors"]
        if type(r) is not int or type(d) is not int:
            raise FloweringError(f"r and d must be integers, got r={r!r}, d={d!r}")
        if not isinstance(vectors, list) or any(type(v) is not int for v in vectors):
            raise FloweringError("vectors must be a list of integers")
        return validate_gen_set(r, vectors, d)


def gen_set_full(r: int) -> GenSet:
    """All 2^r - 1 nonzero vectors; distinct nonzero vectors over F_2 are
    pairwise independent, so d = 3 holds structurally."""
    if r < 1:
        raise FloweringError("r must be >= 1")
    _check_graph_size(r)
    return GenSet(r, tuple(range(1, 1 << r)), 3, True)


def validate_gen_set(r: int, vectors: list[int], d: int) -> GenSet:
    """Validate span and (d-1)-subset independence of explicit vectors.

    For d <= 3 independence is decided exactly by the zero and duplicate
    checks.  Above that it is exhaustive when the number of subsets is at
    most INDEPENDENCE_CHECK_CAP, otherwise a deterministic randomized spot
    check runs and the returned GenSet is flagged unverified.
    """
    vs = tuple(vectors)
    if type(d) is not int or d < 1:
        raise FloweringError(f"d must be an integer >= 1, got d={d!r}")
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
    (row 0 is the most significant coordinate).  The matrix must be a
    non-empty list of equal-length rows of plain-int 0/1 entries: a bool is
    refused, not read as a bit."""
    if (not isinstance(matrix, list) or not matrix
            or any(not isinstance(row, list) or len(row) != len(matrix[0])
                   or any(type(b) is not int or b not in (0, 1) for b in row)
                   for row in matrix)):
        raise FloweringError(
            "matrix must be a non-empty list of equal-length rows of 0/1 integers")
    cols = [0] * len(matrix[0])
    for row in matrix:
        cols = [(v << 1) | b for v, b in zip(cols, row)]
    return validate_gen_set(len(matrix), cols, d)


def cayley_rim(r: int, gens: GenSet | list[int]) -> RIM:
    """The n-RIM on F_2^r with E(v, l) = v XOR s_l; petal-free since every
    generator is nonzero and its own inverse.  A GenSet must be one of
    F_2^r."""
    if isinstance(gens, GenSet):
        if gens.r != r:
            raise FloweringError(f"a generating set of F_2^{gens.r} does not generate F_2^{r}")
        gens = gens.vectors
    vectors = tuple(gens)
    _check_graph_size(r, len(vectors))
    if vectors and (min(vectors) <= 0 or max(vectors) >= 1 << r):
        raise ZeroGeneratorError("generators must be nonzero r-bit vectors")
    if len(set(vectors)) != len(vectors):
        raise DuplicateGeneratorError("generators must be distinct")
    vertex = np.arange(1 << r, dtype=np.int64)[:, None]
    return RIM(len(vectors), vertex ^ np.array(vectors, dtype=np.int64), check=False)


def blossoming_cayley(gens: GenSet) -> BlossomingSequence:
    """The canonical blossoming sequence on Cay(F_2^r, gens), r = gens.r: at
    level i keep the half with coordinate i zero and identify across the
    toggled coordinate."""
    r = gens.r
    graph0 = cayley_rim(r, gens)
    specs = []
    for i in range(1, r + 1):
        half = 1 << (r - i)
        specs.append((range(half), dict(zip(range(half), range(half, 2 * half)))))
    return BlossomingSequence(graph0, specs)


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
    in_span = np.zeros(code.graph.num_vertices, dtype=bool)
    in_span[sorted(span_of(gens.vectors[: d - 1]))] = True
    lx = code.rs.evaluate(code.rs.unit_interpolant())
    vertex, index = code.graph.classes.reps
    values = [lx[l] if inside else 0
              for inside, l in zip(in_span[vertex].tolist(), index.tolist())]
    return Word(code.graph, code.field, values)
