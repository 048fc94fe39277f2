"""The flowering proximity protocol: commit phase, query phase, counters.

Commit phase: for each level the verifier sends a uniform challenge and the
prover answers with a word on the next cut graph (honestly, the fold of the
previous word).  Query phase: m repetitions each walk a random start vertex
down the cut chain checking t indices of the fold relation per level, then
the single flower view is read in full and RS-tested.

Query accounting: walk reads are deduplicated against every position already
opened during the query phase, which reproduces the 2t-then-t shape per
level (the second read of the projected vertex's class is the previous
round's opening).  The final flower read is performed once and counted in
full, n reads.  When the m walks touch pairwise-disjoint positions the
total is exactly (2r+1)mt + n, and it never exceeds that.

The walk projects with the cut that maps level i-1 onto level i; the check
at level i opens f_{i-1} at (v_i, l) and (phi_i(v_i), l) against f_i(v_i, l).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import FloweringError
from .folding import BlossomingSequence, fold
from .graph_code import Word, cut_word_on
from .reed_solomon import RSCode


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

    def to_json(self) -> dict:
        return {
            "challenges": [str(a) for a in self.challenges],
            "queries": [q.to_json() for q in self.queries],
            "accept": self.accept,
            "counters": self.counters.to_json(),
            "walks_disjoint": self.walks_disjoint,
        }


class HonestProver:
    """Sends f_i = Fold[f_{i-1}, alpha_{i-1}]; accepted with probability 1
    whenever the initial word is a codeword."""

    def __init__(self, word: Word):
        self.word = word

    def initial_word(self, seq: BlossomingSequence) -> Word:
        if self.word.graph != seq.graphs[0]:
            raise SequenceMismatchError("initial word does not live on the base graph")
        return self.word

    def respond(self, seq: BlossomingSequence, i: int, alpha: int,
                words: list[Word], challenges: list[int]) -> Word:
        return fold(seq.cuts[i - 1], words[-1], alpha)


class LazyCopyProver:
    """Sends the bare restriction of f_{i-1} instead of its fold, ignoring
    the challenge; a cheap deviation the query phase should catch."""

    def __init__(self, word: Word):
        self.word = word

    def initial_word(self, seq: BlossomingSequence) -> Word:
        if self.word.graph != seq.graphs[0]:
            raise SequenceMismatchError("initial word does not live on the base graph")
        return self.word

    def respond(self, seq: BlossomingSequence, i: int, alpha: int,
                words: list[Word], challenges: list[int]) -> Word:
        return cut_word_on(words[-1], seq.cuts[i - 1])


def prover_commit(seq: BlossomingSequence, f0: Word, challenges: list[int]) -> list[Word]:
    """Honest commit phase: the folds f_1..f_r for the given challenges."""
    if f0.graph != seq.graphs[0]:
        raise SequenceMismatchError("word does not live on the base graph")
    if len(challenges) != seq.r:
        raise SequenceMismatchError(f"expected {seq.r} challenges, got {len(challenges)}")
    words = [f0]
    for i, alpha in enumerate(challenges, start=1):
        words.append(fold(seq.cuts[i - 1], words[-1], alpha))
    return words[1:]


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
    stop_early: bool = False,
    record_openings: bool = True,
) -> Transcript:
    """Run the query phase against oracles; oracle(level, class_id) -> value.

    Returns the transcript with the deduplicated read counter.  With
    stop_early the loop aborts on the first failed check (counters then
    reflect only the reads performed).
    """
    r = seq.r
    n = seq.graphs[0].n
    p = rs.field.p
    params.check(n)
    if len(challenges) != r:
        raise SequenceMismatchError(f"expected {r} challenges, got {len(challenges)}")

    counters = Counters(rounds=r, proof_length=seq.proof_length(),
                        rand_field_elements=r, rand_vertices=params.m,
                        rand_subsets=params.m)
    opened: list[set[int]] = [set() for _ in range(r + 1)]
    rep_positions: list[set[tuple[int, int]]] = []
    records: list[QueryRecord] = []
    accept = True

    for v0, indices in randomness:
        positions: set[tuple[int, int]] = set()
        record = QueryRecord(v0=v0, indices=indices, walk=())
        walk = []
        v_cur = v0
        for i in range(1, r + 1):
            cut = seq.cuts[i - 1]
            vp = cut.project(v_cur)
            wp = cut.phi[vp]
            vc = cut.to_child[vp]
            walk.append(vc)
            cls_prev = seq.graphs[i - 1].classes
            cls_cur = seq.graphs[i].classes
            alpha = challenges[i - 1]
            for l in indices:
                ca = cls_prev.id_of(vp, l)
                cb = cls_prev.id_of(wp, l)
                cr = cls_cur.id_of(vc, l)
                for lev, c in ((i - 1, ca), (i - 1, cb), (i, cr)):
                    if c not in opened[lev]:
                        opened[lev].add(c)
                        counters.oracle_reads += 1
                    positions.add((lev, c))
                va = oracle(i - 1, ca)
                vb = oracle(i - 1, cb)
                vr = oracle(i, cr)
                counters.verifier_field_ops += 2
                if record_openings:
                    record.openings += [(i - 1, ca, va), (i - 1, cb, vb), (i, cr, vr)]
                if (va + alpha * vb) % p != vr:
                    accept = False
            v_cur = vc
            if stop_early and not accept:
                break
        record.walk = tuple(walk)
        records.append(record)
        rep_positions.append(positions)
        if stop_early and not accept:
            break

    flower_ok = True
    if not (stop_early and not accept):
        flower_classes = seq.graphs[r].classes
        view = [oracle(r, flower_classes.id_of(0, l)) for l in range(n)]
        counters.oracle_reads += n
        counters.final_check_field_ops += n * (n - rs.k)
        flower_ok = rs.is_codeword(view)
        if record_openings and records:
            records[-1].openings += [
                (r, flower_classes.id_of(0, l), view[l]) for l in range(n)
            ]
    accept = accept and flower_ok

    expected = (2 * r + 1) * params.t
    disjoint = all(len(pos) == expected for pos in rep_positions) and (
        sum(len(pos) for pos in rep_positions)
        == len(set().union(*rep_positions)) if rep_positions else True
    )
    return Transcript(
        challenges=list(challenges),
        queries=records,
        accept=accept,
        counters=counters,
        walks_disjoint=disjoint,
    )


def run_protocol(
    seq: BlossomingSequence,
    rs: RSCode,
    strategy,
    params: ProtocolParams,
    seed: int,
    stop_early: bool = False,
    record_openings: bool = True,
) -> Transcript:
    """Full interactive run: sample challenges, collect the prover's words,
    run the query phase.  Deterministic given the seed."""
    rng = random.Random(seed)
    f0 = strategy.initial_word(seq)
    words = [f0]
    challenges: list[int] = []
    for i in range(1, seq.r + 1):
        alpha = rs.field.sample(rng)
        challenges.append(alpha)
        w = strategy.respond(seq, i, alpha, words, challenges)
        if w.graph != seq.graphs[i]:
            raise SequenceMismatchError(f"prover word at level {i} is on the wrong graph")
        words.append(w)

    randomness = sample_query_randomness(rng, seq.graphs[0].num_vertices,
                                         seq.graphs[0].n, params)
    transcript = verifier_query(
        seq, rs, params, challenges,
        lambda level, cid: words[level].values[cid],
        randomness, stop_early=stop_early, record_openings=record_openings,
    )
    # fold cost model: two field operations per sent class
    transcript.counters.prover_field_ops = 2 * sum(
        len(w.values) for w in words[1:]
    )
    assert transcript.counters.proof_length < seq.graphs[0].n * seq.graphs[0].num_vertices
    return transcript


def soundness_bound(delta, mu_ratio, r: int, n: int, t: int, m: int,
                    field_size: int) -> float:
    """The acceptance-probability bound
    min over eps > 0 of r/(eps |F|) + (1 - (t/n)(mu delta - r eps))^m,
    minimized numerically on a log grid over (0, mu delta / r] with local
    trisection refinement.  Clamped into [0, 1]."""
    d = float(delta) * float(mu_ratio)
    if d <= 0:
        return 1.0

    def value(eps: float) -> float:
        base = 1.0 - (t / n) * (d - r * eps)
        base = min(1.0, max(0.0, base))
        return r / (eps * field_size) + base**m

    lo, hi = 1e-9, d / r
    if hi <= lo:
        return min(1.0, value(hi))
    ratio = (hi / lo) ** (1 / 999)
    grid = [lo * ratio**i for i in range(1000)]
    best_i = min(range(1000), key=lambda i: value(grid[i]))
    a = grid[max(0, best_i - 1)]
    b = grid[min(999, best_i + 1)]
    for _ in range(100):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        if value(m1) <= value(m2):
            b = m2
        else:
            a = m1
    eps = (a + b) / 2
    return min(1.0, min(value(eps), value(grid[best_i])))


@dataclass
class CommitSoundnessResult:
    events: int
    samples: int
    exhaustive: bool


def commit_soundness_trial(code, cut, word: Word, eps, num_samples: int | None = None,
                           seed: int = 0, exhaustive_cap: int = 10**4) -> CommitSoundnessResult:
    """Measure how often folding by a random challenge shrinks the fraction
    of invalid local views by more than eps.  Exhaustive over the whole field
    when p <= exhaustive_cap and no sample count is forced."""
    from fractions import Fraction

    from .graph_code import GraphCode

    p = code.field.p
    child_code = GraphCode(cut.child, code.rs)
    base = Fraction(code.invalid_views(word), code.graph.num_vertices)
    threshold = base - Fraction(eps)
    num_child = cut.child.num_vertices

    if num_samples is None and p <= exhaustive_cap:
        alphas = range(p)
        exhaustive = True
    else:
        rng = random.Random(seed)
        alphas = [rng.randrange(p) for _ in range(num_samples or 10**4)]
        exhaustive = False

    events = 0
    total = 0
    for alpha in alphas:
        folded = fold(cut, word, alpha)
        if Fraction(child_code.invalid_views(folded), num_child) < threshold:
            events += 1
        total += 1
    return CommitSoundnessResult(events=events, samples=total, exhaustive=exhaustive)
