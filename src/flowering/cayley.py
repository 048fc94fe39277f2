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

blossoming_cayley returns a CayleyChain, a BlossomingSequence that answers
a fresh NI verifier's reads by closed forms in the generating set: class
ids, fold pairs and commit positions are ranks computed in O(r) big-int
steps per read, and the chain is named by its generating set.  The graphs
and cuts the prover folds and commits through are built on first use as
blocks of graph 0's, with one class index and no cut validated, and the
base class answers every other read from them; MAX_GRAPH_ENTRIES caps
those tables (cayley_rim), not the chain.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import FloweringError, TooLargeError
from .folding import BlossomingSequence, ReadMap
from .graph_code import GraphCode, Word
from .rim_graph import RIM, EdgeClassIndex, FloweringCut

INDEPENDENCE_CHECK_CAP = 10**6
# entries 2^r * n of the largest graph-0 table built: the full generating
# set at r = 12 has 4,096 x 4,095
MAX_GRAPH_ENTRIES = 1 << 24
_SPOT_CHECKS = 1000
# domain tag of CayleyChain.digest, naming the canonical halving
CHAIN_TAG = b"flowering-cayley-halving-v1"


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
    """The rank over F_2 of nonnegative ints read as bit vectors.  Each
    vector is reduced by the pivots of the vectors before it, one per top
    bit, and the scan stops once every bit of the widest vector has a
    pivot, since then no later vector can be independent."""
    width = max(vectors, default=0).bit_length()
    pivots: dict[int, int] = {}
    for v in vectors:
        if len(pivots) == width:
            break
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


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
    pairwise independent, so d = 3 holds structurally, but for r = 1, whose
    one vector admits d = 2 only (d - 1 <= n)."""
    if r < 1:
        raise FloweringError("r must be >= 1")
    _check_graph_size(r)
    return GenSet(r, tuple(range(1, 1 << r)), 3 if r > 1 else 2, True)


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


def _ranker(present: int, c: list[int], sets: list[int], none: int):
    """rank(w, l): the number of present slots (u, l') before (w, l) in
    (vertex, index) order, that is with u < w, or u = w and l' < l.
    Index l' is absent at every vertex if bit l' of none is set, absent
    where bit h of u is set if bit l' of sets[h] is (c[h] such indices),
    and present otherwise; present counts the indices not in none.

    The vertices below w hold present * w - sum_h c[h] ones(w, h) present
    slots, ones(w, h) being the number of u < w with bit h set.  Summed over
    the set bits k of w from the top, that is c[k] (w mod 2^k) +
    2^(k-1) (c[0] + ... + c[k-1]) per bit.  At w itself come the l slots
    below l, less the absent ones: those in none or in the sets of the
    bits of w."""
    below = [(1 << k >> 1) * sum(c[:k]) for k in range(len(c))]

    def rank(w: int, l: int) -> int:
        acc = present * w + l
        absent = none
        while w:
            k = w.bit_length() - 1
            w ^= 1 << k
            acc -= c[k] * w + below[k]
            absent |= sets[k]
        return acc - (absent & ((1 << l) - 1)).bit_count()

    return rank


# the pair of a child slot (vc, l): its two parent classes, or their positions
PairMap = Callable[[int, int], tuple[int, int]]


def _slots(bits: int, present: int, c: list[int]) -> int:
    """The present slots of the vertices below 2^bits, each bit h set in
    half of them."""
    return (present << bits) - (sum(c[:bits]) << bits >> 1)


class CayleyChain(BlossomingSequence):
    """The canonical blossoming sequence on Cay(F_2^r, gens), answered from
    the generating set: at level i keep the half with coordinate i zero and
    identify across the toggled coordinate.

    Level i has the vertices below b = 2^(r-i), and slot (v, l) is the edge
    to v ^ s_l if s_l < b and a petal otherwise.  An edge slot represents
    its class when bit top(s_l) of v is 0, and a petal slot always does, as
    does any slot whose bit top(s_l) >= r-i lies above every vertex of the
    level.  So one ranker over the bits top(s_l) gives the class ids of
    every level, the rank of the representative (v or v ^ s_l) among all
    representatives.  The walk's descent is v mod b, and its fold pair
    ((vc, l), (vc | b, l)).

    A commit position is twice the rank of the pair's smaller class among
    the smaller classes (folding.pair_positions), whose representatives lie
    below b at level i-1: the class of the kept vertex of a petal pair, the
    representative with bit top(s_l) 0 for s_l < b, and the one with bit
    top(s_l ^ b) 0 for b < s_l < 2b, which pairs the edge classes at vc and
    vc ^ s_l ^ b.  The self-pairs (s_l = b) follow in vertex order.  So a
    level's positions are a ranker of the class ranker's bits, but for the
    indices with top(s_l) = r-i, and all of them together cost O(n).

    The graphs and cuts, which the prover and the word tools read, are
    built on first use as blocks of graph 0 (_tables); the base class reads
    them for every read not overridden here, and for the verifier's too
    once they are built."""

    def __init__(self, gens: GenSet):
        self.gens, self.n = gens, gens.n

    @property
    def r(self) -> int:
        return self.gens.r

    # every table below is O(n) and built on first use, as _tables is

    @cached_property
    def _tops(self) -> list[int]:
        return [s.bit_length() - 1 for s in self.gens.vectors]

    @cached_property
    def _by_top(self) -> tuple[list[int], list[int], list[list[int]]]:
        """Per bit h, the indices whose top bit is h: their count, their
        bitset and their list."""
        c, sets, indices = [0] * self.r, [0] * self.r, [[] for _ in range(self.r)]
        for l, top in enumerate(self._tops):
            c[top] += 1
            sets[top] |= 1 << l
            indices[top].append(l)
        return c, sets, indices

    @cached_property
    def _rank(self):
        return _ranker(self.n, *self._by_top[:2], 0)

    @cached_property
    def _flips(self) -> list[int]:
        return [1 << top for top in self._tops]

    @cached_property
    def _num_classes(self) -> list[int]:
        return [_slots(self.r - level, self.n, self._by_top[0]) for level in range(self.r + 1)]

    def _fold_pair(self, level: int) -> PairMap:
        """The fold pairs of the level: the classes of (vc, l) and
        (vc | half, l).  For an index whose top bit is not the level's top
        bit, the image's representative is the kept one's, w, with that bit
        set, so its id adds the slots of the vertices from w to w | half
        and takes away the indices below l absent at w | half only."""
        rank, flip, vectors, tops = self._rank, self._flips, self.gens.vectors, self._tops
        top = self.r - level - 1
        half = 1 << top
        c, sets, _ = self._by_top
        c_top, set_top = c[top], sets[top]
        step = self.n * half - (half >> 1) * sum(c[:top])

        def fold_pair(vc: int, l: int) -> tuple[int, int]:
            if tops[l] == top:
                return rank(vc, l), rank(vc ^ vectors[l] ^ half, l)
            w = vc ^ vectors[l] if vc & flip[l] else vc
            kept = rank(w, l)
            return kept, kept + step - c_top * w - (set_top & ((1 << l) - 1)).bit_count()
        return fold_pair

    @cached_property
    def _pair_positions(self) -> list[PairMap]:
        return [self._pair_position(level) for level in range(self.r)]

    def _pair_position(self, level: int) -> PairMap:
        bits = self.r - level - 1
        half = 1 << bits
        vectors, tops, flip = self.gens.vectors, self._tops, self._flips
        # the middle indices, half <= s_l < 2 half, take the bit top(s_l ^ half)
        c, sets = (table[:bits] for table in self._by_top[:2])
        none = 0
        for l in self._by_top[2][bits]:
            d = vectors[l] ^ half
            if d:
                c[d.bit_length() - 1] += 1
                sets[d.bit_length() - 1] |= 1 << l
            else:  # the self-pair index
                none = 1 << l
        present = self.n - (none > 0)
        rank = _ranker(present, c, sets, none)
        self_pairs_at = 2 * _slots(bits, present, c)

        def pair_position(vc: int, l: int) -> tuple[int, int]:
            s = vectors[l]
            if tops[l] != bits:
                at = 2 * rank(vc ^ s if vc & flip[l] else vc, l)
                return at, at + 1
            if s == half:
                return self_pairs_at + vc, self_pairs_at + vc
            d = s ^ half
            if vc & (1 << d.bit_length() >> 1):
                at = 2 * rank(vc ^ d, l)
                return at + 1, at
            at = 2 * rank(vc, l)
            return at, at + 1
        return pair_position

    def num_vertices(self, level: int) -> int:
        return 1 << (self.r - level)

    def num_classes(self, level: int) -> int:
        return self._num_classes[level]

    @cached_property
    def _masks(self) -> list[int]:
        return [(1 << bit) - 1 for bit in range(self.r - 1, -1, -1)]

    def descent(self, v: int) -> list[int]:
        return [v & mask for mask in self._masks]

    def _fold_read(self, level: int) -> ReadMap:
        """The fold check at slot (vc, l) of level level+1, addressed by
        commit positions.  Its class id is the kept class's at level level:
        the ranks agree on the vertices below 2^(r-level-1).  Its commit
        position is in the next level's pair order, the flower's in class
        order."""
        fold_pair, pair_at = self._fold_pair(level), self._pair_positions[level]
        if level + 1 == self.r:
            def read(vc: int, l: int) -> tuple[int, int, int, int, int, int]:
                a, b = fold_pair(vc, l)
                return (a, b, a, *pair_at(vc, l), a)
            return read
        child_at = self._pair_positions[level + 1]
        bit = self.r - level - 2
        mask = (1 << bit) - 1

        def read(vc: int, l: int) -> tuple[int, int, int, int, int, int]:
            a, b = fold_pair(vc, l)
            return (a, b, a, *pair_at(vc, l), child_at(vc & mask, l)[vc >> bit & 1])
        return read

    @cached_property
    def _closed_form_reads(self) -> list[ReadMap]:
        return [self._fold_read(level) for level in range(self.r)]

    def fold_reads(self, positions: bool = False) -> list[ReadMap]:
        """A fresh verifier's reads by commit position from the closed
        forms; every other read from the chain's tables, which the prover
        and the word tools build."""
        if positions and "_tables" not in vars(self):
            return self._closed_form_reads
        return super().fold_reads(positions)

    @cached_property
    def _digest(self) -> bytes:
        """SHA-256 over CHAIN_TAG, r and n as u64 and the vectors in index
        order, ceil(r/8) little-endian bytes each: what fixes the chain, so
        no graph row is hashed.  A dense chain's digest starts with graph
        0's where this one has the tag (BlossomingSequence._digest)."""
        vectors = b"".join(v.to_bytes((self.r + 7) // 8, "little") for v in self.gens.vectors)
        return hashlib.sha256(CHAIN_TAG + struct.pack("<QQ", self.r, self.n) + vectors).digest()

    @cached_property
    def _tables(self) -> tuple[list[RIM], list[FloweringCut]]:
        """The chain's graphs and cuts as blocks of graph 0, whose adjacency
        and class index are the only ones built from scratch.  Level i keeps
        graph 0's first b = 2^(r-i) vertices, and slot (v, l) is a petal
        where s_l >= b.  Its representatives are graph 0's below b, as the
        ranker above has it, so its class_of is graph 0's top b rows and its
        reps graph 0's first N_i.  Cut i keeps range(b) with phi(v) = v + b,
        so down is v mod b, and fold plan column c is c and graph 0's class
        of (v + b, l) for the child's representative (v, l).  No cut is
        validated: the tests check every table against the validated chain
        BlossomingSequence(cayley_rim(r, gens), specs)."""
        r, n = self.r, self.n
        graph0 = cayley_rim(r, self.gens)
        index = graph0.classes
        vertex, l = index.reps
        # the flat positions of graph 0's representatives in its class_of
        at, class_of = vertex * n + l, index.class_of.ravel()
        s = np.array(self.gens.vectors, dtype=np.int64)
        graphs, cuts = [graph0], []
        for level in range(1, r + 1):
            b, count = 1 << (r - level), self._num_classes[level]
            v = np.arange(b)[:, None]
            adj = np.where(s < b, v ^ s, v)
            child = RIM(n, adj, check=False, classes=EdgeClassIndex._of(
                adj, index.class_of[:b], (vertex[:count], l[:count])))
            plan = np.empty((2, count), dtype=np.int64)
            plan[0] = np.arange(count)
            class_of[b * n:].take(at[:count], out=plan[1])
            ends = np.arange(2 * b).reshape(2, b)
            cuts.append(FloweringCut._of(graphs[-1], child, ends, ends.ravel() & (b - 1), plan))
            graphs.append(child)
        return graphs, cuts

    @property
    def graphs(self) -> list[RIM]:
        return self._tables[0]

    @property
    def cuts(self) -> list[FloweringCut]:
        return self._tables[1]


def blossoming_cayley(gens: GenSet) -> CayleyChain:
    """The canonical blossoming sequence on Cay(F_2^r, gens), r = gens.r,
    as an implicit chain: nothing over the vertices is built until its
    tables are asked for."""
    return CayleyChain(gens)


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
