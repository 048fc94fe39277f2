"""The flowering proximity protocol: commit phase, query phase, counters.

Commit phase: for each level the verifier sends a uniform challenge and the
prover answers with a word on the next cut graph.  A prover is its initial
word plus a response rule respond(cut, f, alpha) -> word; the honest rule is
the fold, and prover_commit is the one loop that collects the answers.
Query phase: m repetitions each walk a random start vertex down the cut
chain checking t indices of the fold relation per level, then the single
flower view is read in full and RS-tested.

Query accounting: each walk logs the positions it reads, per level.  The
transcript's read log is the union of those logs plus the flower view; it is
exactly what a non-interactive proof opens.  oracle_reads counts the
distinct walk positions, which reproduces the 2t-then-t shape per level (the
second read of the projected vertex's class is the previous round's
opening), plus the flower view in full, n reads.  When the m walks touch
pairwise-disjoint positions the total is exactly (2r+1)mt + n, and it never
exceeds that.

The walk projects with the cut that maps level i-1 onto level i; the check
at level i opens f_{i-1} at (v_i, l) and (phi_i(v_i), l) against f_i(v_i, l).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import FloweringError
from .folding import BlossomingSequence, fold
from .graph_code import Word
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
    # per level, the classes the query phase read (walks and flower view);
    # the positions a non-interactive proof opens
    reads: list[set[int]]

    def to_json(self) -> dict:
        return {
            "challenges": [str(a) for a in self.challenges],
            "queries": [q.to_json() for q in self.queries],
            "accept": self.accept,
            "counters": self.counters.to_json(),
            "walks_disjoint": self.walks_disjoint,
        }


def prover_commit(seq: BlossomingSequence, f0: Word, challenges: list[int],
                  respond=None) -> list[Word]:
    """The commit phase: the words f_1..f_r a prover sends for the given
    challenges.  A prover is its initial word f0 plus a response rule
    respond(cut, f_{i-1}, alpha_{i-1}) -> f_i.  None means the honest rule,
    fold, which is accepted with probability 1 whenever f0 is a codeword."""
    if f0.graph != seq.graphs[0]:
        raise SequenceMismatchError("word does not live on the base graph")
    if len(challenges) != seq.r:
        raise SequenceMismatchError(f"expected {seq.r} challenges, got {len(challenges)}")
    if respond is None:
        respond = fold
    words = [f0]
    for i, (cut, alpha) in enumerate(zip(seq.cuts, challenges), start=1):
        w = respond(cut, words[-1], alpha)
        if w.graph != seq.graphs[i]:
            raise SequenceMismatchError(f"prover word at level {i} is on the wrong graph")
        words.append(w)
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
    verdict_only: bool = False,
) -> Transcript:
    """Run the query phase against oracles; oracle(level, class_id) -> value.

    Returns the transcript with its read log.  With verdict_only the loop
    aborts on the first failed check and records no openings (counters and
    reads then reflect only the reads performed).
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
    walk_reads: list[list[set[int]]] = []  # per walk, per level: classes read
    records: list[QueryRecord] = []
    accept = True

    for v0, indices in randomness:
        positions: list[set[int]] = [set() for _ in range(r + 1)]
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
            prev_read, cur_read = positions[i - 1], positions[i]
            alpha = challenges[i - 1]
            for l in indices:
                ca = cls_prev.id_of(vp, l)
                cb = cls_prev.id_of(wp, l)
                cr = cls_cur.id_of(vc, l)
                prev_read.add(ca)
                prev_read.add(cb)
                cur_read.add(cr)
                va = oracle(i - 1, ca)
                vb = oracle(i - 1, cb)
                vr = oracle(i, cr)
                counters.verifier_field_ops += 2
                if not verdict_only:
                    record.openings += [(i - 1, ca, va), (i - 1, cb, vb), (i, cr, vr)]
                if (va + alpha * vb) % p != vr:
                    accept = False
            v_cur = vc
            if verdict_only and not accept:
                break
        record.walk = tuple(walk)
        records.append(record)
        walk_reads.append(positions)
        if verdict_only and not accept:
            break

    reads = [set().union(*(positions[level] for positions in walk_reads))
             for level in range(r + 1)]
    counters.oracle_reads = sum(len(level) for level in reads)
    expected = (2 * r + 1) * params.t
    walk_sizes = [sum(len(level) for level in positions) for positions in walk_reads]
    disjoint = (all(size == expected for size in walk_sizes)
                and sum(walk_sizes) == counters.oracle_reads)

    if not (verdict_only and not accept):
        flower_ids = [seq.graphs[r].classes.id_of(0, l) for l in range(n)]
        view = [oracle(r, cid) for cid in flower_ids]
        reads[r].update(flower_ids)
        counters.oracle_reads += n
        counters.final_check_field_ops += n * (n - rs.k)
        accept = rs.is_codeword(view) and accept
        if not verdict_only and records:
            records[-1].openings += [(r, cid, value) for cid, value in zip(flower_ids, view)]

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
    verdict_only: bool = False,
) -> Transcript:
    """Full interactive run: sample the r challenges, collect the words of
    the prover (f0, respond), run the query phase.  Deterministic given the
    seed; respond never sees the verifier's rng."""
    rng = random.Random(seed)
    challenges = [rs.field.sample(rng) for _ in range(seq.r)]
    words = [f0] + prover_commit(seq, f0, challenges, respond)
    randomness = sample_query_randomness(rng, seq.graphs[0].num_vertices,
                                         seq.graphs[0].n, params)
    transcript = verifier_query(
        seq, rs, params, challenges,
        lambda level, cid: words[level].values[cid],
        randomness, verdict_only=verdict_only,
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
