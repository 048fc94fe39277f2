"""The flowering proximity protocol: commit phase, query phase, counters.

Commit phase: for each level the verifier sends a challenge on the word just
sent and the prover answers with a word on the next cut graph.  A prover is
its initial word plus a response rule respond(cut, f, alpha) -> word, the
honest rule being the fold.  prover_commit is the one commit loop of both
modes: its challenges are uniform draws or, in niproof, Fiat-Shamir.
Query phase: m repetitions each walk a random start vertex down the cut
chain checking t indices of the fold relation per level, then the single
flower view is read in full and RS-tested.

Query accounting: the walks record opening triples and, as they go, one
read log per level, the addresses its walks read; the transcript's read log
is that union plus the flower view, exactly the addresses the oracle was
asked, and a non-interactive proof opens the buckets holding them.
oracle_reads counts the distinct walk positions, which reproduces the
2t-then-t shape per level (the second read of the projected vertex's class
is the previous round's opening), plus the flower view in full, n reads.
A walk reads at most (2r+1)t positions, so when the m walks touch
pairwise-disjoint positions the total is exactly (2r+1)mt + n, and it never
exceeds that.  The phase stops at the first failed fold check, which is
then the last recorded opening, and reads the flower view only if every
walk passed.

The walk follows the cuts through the reads the chain offers a verifier
(folding.BlossomingSequence): at level i it moves to v_i = down_i(v_{i-1}), the child id
of the projection of v_{i-1}, and for each index l it opens the child class
of (v_i, l) in f_i and, in f_{i-1}, the fold pair behind it: the classes of
(v, l) and (phi_i(v), l) at the parent vertex v of v_i.  Each check is one
lookup in the chain's fold_reads: the three addresses the oracle reads,
the class ids in the interactive protocol or, in the non-interactive one,
the commit positions.  A BlossomingSequence reads them from the child's
class index, the fold plan and the commit positions; its subclass
cayley.CayleyChain computes the commit positions from the generating set
until its tables are built.  Either way the check is the fold relation as
the prover computed it.  The flower is committed in class order, so its
view reads the same addresses in both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import FloweringError
from .folding import BlossomingSequence, ReadMap, fold
from .graph_code import GraphCode, Word
from .reed_solomon import RSCode
from .rim_graph import UnknownVertexError


class SequenceMismatchError(FloweringError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """m query-phase repetitions, t indices checked per repetition."""

    m: int
    t: int

    def check(self, n: int) -> None:
        if self.m < 1:
            raise FloweringError(f"need m >= 1, got {self.m}")
        if not 1 <= self.t <= n:
            raise FloweringError(f"need 1 <= t <= {n}, got t={self.t}")


# the m and t of the CLI's prove, verify and report-complexity
DEFAULT_PARAMS = ProtocolParams(10, 2)


@dataclass
class QueryRecord:
    v0: int
    indices: tuple[int, ...]
    walk: tuple[int, ...]
    openings: list[tuple[int, int, int]] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "v0": self.v0,
            "indices": list(self.indices),
            "walk": list(self.walk),
            "openings": [list(o) for o in self.openings],
        }


@dataclass
class Counters:
    oracle_reads: int = 0
    proof_length: int = 0
    rounds: int = 0
    rand_field_elements: int = 0
    rand_vertices: int = 0
    rand_subsets: int = 0
    verifier_field_ops: int = 0
    final_check_field_ops: int = 0
    prover_field_ops: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Transcript:
    challenges: list[int]
    queries: list[QueryRecord]
    accept: bool
    counters: Counters
    walks_disjoint: bool
    # per level, the addresses the query phase asked the oracle (walks and
    # flower view): class ids, or commit positions in the non-interactive
    # protocol, where a proof opens the buckets holding them
    reads: list[set[int]]

    def to_json(self) -> dict:
        return {
            "challenges": [str(a) for a in self.challenges],
            "queries": [q.to_json() for q in self.queries],
            "accept": self.accept,
            "counters": self.counters.to_json(),
            "walks_disjoint": self.walks_disjoint,
        }


def prover_commit(seq: BlossomingSequence, f0: Word, challenge,
                  respond=None) -> tuple[list[int], list[Word]]:
    """The commit phase: the challenges alpha_0..alpha_{r-1} and words
    f_0..f_r of the prover (f0, respond) against the challenge source
    challenge(f_{i-1}) -> alpha_{i-1}, called as each word is sent.  The
    rule respond(cut, f_{i-1}, alpha_{i-1}) -> f_i defaults to the honest
    fold, which is accepted with probability 1 whenever f0 is a codeword."""
    if f0.graph != seq.graphs[0]:
        raise SequenceMismatchError("word does not live on the base graph")
    if respond is None:
        respond = fold
    challenges = []
    words = [f0]
    for i, cut in enumerate(seq.cuts, start=1):
        challenges.append(challenge(words[-1]))
        w = respond(cut, words[-1], challenges[-1])
        if w.graph != seq.graphs[i]:
            raise SequenceMismatchError(f"prover word at level {i} is on the wrong graph")
        words.append(w)
    return challenges, words


def word_oracle(levels: list):
    """The oracle of verifier_query over the prover's levels 0..r, read
    through their values arrays: its words by class id, or its Merkle trees
    (commitment.MerkleTree) by commit position.  It answers in Python ints,
    read value by value with item, so the fold checks and the RS check are
    exact at any modulus and no array is copied (a copy as a list of Python
    ints holds some 36 bytes a class)."""
    items = [level.values.item for level in levels]
    return lambda level, at: items[level](at)


def sample_query_randomness(rng: random.Random, num_vertices: int, n: int,
                            params: ProtocolParams) -> list[tuple[int, tuple[int, ...]]]:
    """m pairs (start vertex, sorted t-subset of indices)."""
    out = []
    for _ in range(params.m):
        v0 = rng.randrange(num_vertices)
        idx = tuple(sorted(rng.sample(range(n), params.t)))
        out.append((v0, idx))
    return out


def verifier_query(
    seq: BlossomingSequence,
    rs: RSCode,
    params: ProtocolParams,
    challenges: list[int],
    oracle,
    randomness: list[tuple[int, tuple[int, ...]]],
    fold_reads: list[ReadMap] | None = None,
) -> Transcript:
    """Run the query phase against oracles: oracle(level, address) ->
    value.  fold_reads gives each fold check's three addresses
    (BlossomingSequence.fold_reads); the default, seq.fold_reads(), is the
    class ids, and the NI prover and verifier pass the commit positions.

    Returns the transcript, whose openings and read log hold the addresses
    asked; a failed fold check ends the phase as its last recorded opening
    triple."""
    r, n = seq.r, seq.n
    num_vertices = seq.num_vertices(0)
    mul_add = rs.field.mul_add
    params.check(n)
    if len(challenges) != r:
        raise SequenceMismatchError(f"expected {r} challenges, got {len(challenges)}")

    # fold cost model: the prover spends two field operations per sent class
    counters = Counters(rounds=r, proof_length=seq.proof_length(),
                        rand_field_elements=r, rand_vertices=params.m,
                        rand_subsets=params.m, prover_field_ops=2 * seq.proof_length())
    descent = seq.descent
    if fold_reads is None:
        fold_reads = seq.fold_reads()
    records: list[QueryRecord] = []
    reads: list[set[int]] = [set() for _ in range(r + 1)]
    accept = True

    for v0, indices in randomness:
        if not 0 <= v0 < num_vertices:
            raise UnknownVertexError(f"start vertex {v0} not in the base graph")
        record = QueryRecord(v0=v0, indices=indices, walk=())
        records.append(record)
        openings = record.openings
        walk = descent(v0)
        i = 0
        for i in range(1, r + 1):
            vc, check, alpha = walk[i - 1], fold_reads[i - 1], challenges[i - 1]
            parent_reads, child_reads = reads[i - 1], reads[i]
            for l in indices:
                a, b, c = check(vc, l)
                va, vb, vr = oracle(i - 1, a), oracle(i - 1, b), oracle(i, c)
                openings += ((i - 1, a, va), (i - 1, b, vb), (i, c, vr))
                parent_reads.add(a)
                parent_reads.add(b)
                child_reads.add(c)
                if mul_add(va, alpha, vb) != vr:
                    accept = False
                    break
            if not accept:
                break
        record.walk = tuple(walk[:i])
        if not accept:
            break

    # a fold check is three opening triples and two field operations
    counters.verifier_field_ops = sum(len(record.openings) for record in records) // 3 * 2
    counters.oracle_reads = sum(len(level) for level in reads)
    # A walk reads at most (2r+1)t positions: 2t at level 0, at most 2t at
    # each of levels 1..r-1 (a child read there is one of the next level's
    # pair) and t at level r.  So the union reaches that bound times the
    # number of walks only when the walks are pairwise disjoint and each is
    # full.
    disjoint = counters.oracle_reads == len(records) * (2 * r + 1) * params.t

    if accept:
        # the flower's classes are its one vertex's n petals, in index order
        view = [oracle(r, cid) for cid in range(n)]
        reads[r].update(range(n))
        counters.oracle_reads += n
        counters.final_check_field_ops += n * (n - rs.k)
        accept = rs.is_codeword(view)
        if records:
            records[-1].openings += [(r, cid, value) for cid, value in enumerate(view)]

    return Transcript(
        challenges=list(challenges),
        queries=records,
        accept=accept,
        counters=counters,
        walks_disjoint=disjoint,
        reads=reads,
    )


def run_protocol(
    seq: BlossomingSequence,
    rs: RSCode,
    f0: Word,
    params: ProtocolParams,
    seed: int,
    respond=None,
) -> Transcript:
    """Full interactive run: prover_commit against uniform challenges, then
    the query phase.  Deterministic given the seed; respond never sees the
    verifier's rng, and m and t are checked before anything is drawn."""
    params.check(seq.n)
    rng = random.Random(seed)
    challenges, words = prover_commit(seq, f0, lambda f: rs.field.sample(rng), respond)
    randomness = sample_query_randomness(rng, seq.num_vertices(0), seq.n, params)
    transcript = verifier_query(seq, rs, params, challenges, word_oracle(words), randomness)
    assert transcript.counters.proof_length < seq.n * seq.num_vertices(0)
    return transcript


def soundness_bound(delta, r: int, n: int, t: int, m: int, field_size: int) -> float:
    """The acceptance-probability bound for delta in [0, 1] and t in 1..n,
    min(1, min over eps in (0, delta/r] of r/(eps |F|) + (1 - (t/n)(delta - r eps))^m).
    mu = 1: rim_graph.mu is 1 on the petal-free Cayley base graphs.

    The first term is convex and decreasing in eps, the second convex and
    increasing, so the sum is unimodal in x = ln eps, and a golden-section
    search over x in [ln(r/|F|), ln(delta/r)] finds its minimum.  Below r/|F|
    the first term alone exceeds 1, so the bound is 1 if r/|F| >= delta/r."""
    d = float(delta)
    if not (0 <= d <= 1 and 1 <= t <= n):
        raise FloweringError(f"need 0 <= delta <= 1 and 1 <= t <= {n}, got delta={delta}, t={t}")
    if r / field_size >= d / r:
        return 1.0

    def value(x: float) -> float:
        eps = math.exp(x)
        return r / (eps * field_size) + (1 - (t / n) * (d - r * eps)) ** m

    # ends a and b in either order; c, 1/phi of the way from a to b, is the best point seen
    golden = (math.sqrt(5) - 1) / 2
    a, b = math.log(d / r), math.log(r / field_size)
    c = a + golden * (b - a)
    fc = value(c)
    for _ in range(100):
        x = b + golden * (a - b)
        fx = value(x)
        if fx <= fc:
            b, c, fc = c, x, fx
        else:
            a, b = b, x
    return min(1.0, fc, value(math.log(d / r)))


@dataclass
class CommitSoundnessResult:
    events: int
    samples: int
    exhaustive: bool


COMMIT_CHALLENGES = 10**4
COMMIT_SEED = 0


def commit_soundness_trial(code, cut, word: Word, eps) -> CommitSoundnessResult:
    """Measure how often folding by a random challenge shrinks the fraction
    of invalid local views by more than eps.  Exhaustive over the whole field
    when p <= COMMIT_CHALLENGES, else over COMMIT_CHALLENGES challenges drawn
    from random.Random(COMMIT_SEED)."""
    p = code.field.p
    child_code = GraphCode(cut.child, code.rs)
    base = Fraction(code.invalid_views(word), code.graph.num_vertices)
    threshold = base - Fraction(eps)
    num_child = cut.child.num_vertices

    exhaustive = p <= COMMIT_CHALLENGES
    if exhaustive:
        alphas = range(p)
    else:
        rng = random.Random(COMMIT_SEED)
        alphas = [rng.randrange(p) for _ in range(COMMIT_CHALLENGES)]

    events = 0
    total = 0
    for alpha in alphas:
        folded = fold(cut, word, alpha)
        if Fraction(child_code.invalid_views(folded), num_child) < threshold:
            events += 1
        total += 1
    return CommitSoundnessResult(events=events, samples=total, exhaustive=exhaustive)
