"""Experiment harness: instance construction, Monte-Carlo soundness studies,
complexity and bound reports.

An instance is a Cayley graph over F_2^r named by its generating set, plus
an RS base code.  Its file holds only {format, p, k, points, genset}:
generating an instance and loading its file both build the canonical
blossoming sequence from the generating set, so a file cannot name a graph
its generating set does not define.

Everything is deterministic given a master seed: per-trial seeds are derived
by hashing (seed, index), and trials merge by index whether they ran inline
or on a worker pool.  Reports are plain dicts ready for sorted-key JSON.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import random
import struct
from dataclasses import dataclass
from fractions import Fraction

from .adversaries import build_adversary
from .cayley import (
    GenSet,
    blossoming_cayley,
    gen_set_full,
    min_distance_bounds,
    upper_bound_witness,
)
from .errors import FloweringError, TooLargeError
from .field import PrimeField
from .folding import BlossomingSequence
from .graph_code import (
    DEFAULT_ENUM_CAP,
    DEFAULT_MATRIX_CAP,
    GraphCode,
    Word,
    relative_weight,
)
from .iopp import ProtocolParams, Transcript, run_protocol, soundness_bound
from .reed_solomon import RSCode

WILSON_Z_99 = 2.5758293035489004

INSTANCE_FORMAT = "flowering-instance-v2"


def derive_seed(master: int, *indices: int) -> int:
    """Independent 64-bit seed from a master seed and an index path."""
    h = hashlib.sha256(b"flwr-seed" + struct.pack("<Q", master & (1 << 64) - 1))
    for i in indices:
        h.update(struct.pack("<Q", i & (1 << 64) - 1))
    return int.from_bytes(h.digest()[:8], "little")


@dataclass
class Instance:
    field: PrimeField
    rs: RSCode
    gens: GenSet
    seq: BlossomingSequence
    code: GraphCode

    @property
    def r(self) -> int:
        return self.seq.r

    @property
    def n(self) -> int:
        return self.rs.n

    def to_json(self) -> dict:
        return {
            "format": INSTANCE_FORMAT,
            "p": str(self.field.p),
            "k": self.rs.k,
            "points": [str(x) for x in self.rs.points],
            "genset": self.gens.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> Instance:
        if data.get("format") != INSTANCE_FORMAT:
            raise FloweringError(f"not a {INSTANCE_FORMAT} file")
        field = PrimeField(int(data["p"]))
        rs = RSCode(field, [int(x) for x in data["points"]], data["k"])
        return _cayley_instance(GenSet.from_json(data["genset"]), rs)


def _cayley_instance(gens: GenSet, rs: RSCode) -> Instance:
    """The instance on Cay(F_2^r, gens) with RS base code rs."""
    seq = blossoming_cayley(gens.r, gens)
    return Instance(rs.field, rs, gens, seq, GraphCode(seq.graphs[0], rs))


def gen_instance(r: int, p: int, k: int, genset: str | GenSet = "full") -> Instance:
    """Blossoming Cayley instance on the full nonzero generating set of
    F_2^r, or on an explicit GenSet (whose own r then applies)."""
    gens = gen_set_full(r) if genset == "full" else genset
    return _cayley_instance(gens, RSCode.with_default_points(PrimeField(p), gens.n, k))


def random_codeword_word(instance: Instance, rng: random.Random) -> Word:
    """An index-only random codeword: every local view is the same random RS
    codeword, which is always consistent across shared edges."""
    return Word.from_index_values(
        instance.seq.graphs[0], instance.field, instance.rs.random_codeword(rng)
    )


def honest_run(instance: Instance, params: ProtocolParams, seed: int) -> Transcript:
    """Honest prover on a seed-derived random codeword."""
    word = random_codeword_word(instance, random.Random(derive_seed(seed, 1)))
    return run_protocol(instance.seq, instance.rs, word, params, derive_seed(seed, 2))


# Monte-Carlo soundness ----------------------------------------------------

_POOL_STATE: dict = {}


def _pool_trial(seed: int) -> bool:
    st = _POOL_STATE
    tr = run_protocol(st["seq"], st["rs"], st["word"], st["params"], seed,
                      st["respond"], verdict_only=True)
    return tr.accept


def wilson_upper(successes: int, trials: int, z: float = WILSON_Z_99) -> float:
    """Upper end of the Wilson score interval for a binomial rate."""
    if trials == 0:
        return 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return min(1.0, (center + spread) / denom)


@dataclass
class SoundnessPoint:
    adversary: str
    delta_target: Fraction
    delta_achieved: Fraction
    m: int
    t: int
    trials: int
    accepts: int
    bound: float

    @property
    def rate(self) -> float:
        return self.accepts / self.trials

    @property
    def wilson_upper(self) -> float:
        return wilson_upper(self.accepts, self.trials)

    @property
    def within_bound(self) -> bool:
        return self.rate <= self.bound + (self.wilson_upper - self.rate)

    def to_json(self) -> dict:
        return {
            "adversary": self.adversary,
            "delta_target": str(self.delta_target),
            "delta_achieved": str(self.delta_achieved),
            "m": self.m,
            "t": self.t,
            "trials": self.trials,
            "accepts": self.accepts,
            "acceptance_rate": self.rate,
            "wilson_upper_99": self.wilson_upper,
            "soundness_bound": self.bound,
            "within_bound": self.within_bound,
        }


def soundness_mc_point(
    instance: Instance,
    adversary: str,
    delta,
    params: ProtocolParams,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SoundnessPoint:
    """Empirical acceptance of one adversary at one distance against the
    theoretical bound evaluated at the target distance."""
    name_tag = int.from_bytes(hashlib.sha256(adversary.encode()).digest()[:4], "little")
    rng = random.Random(derive_seed(seed, name_tag))
    word, respond, achieved = build_adversary(adversary, instance.code, delta, rng)
    seeds = [derive_seed(seed, 3, i) for i in range(trials)]
    global _POOL_STATE
    _POOL_STATE = {
        "seq": instance.seq, "rs": instance.rs,
        "word": word, "respond": respond, "params": params,
    }
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_pool_trial, seeds, chunksize=max(1, trials // (8 * workers)))
    else:
        results = [_pool_trial(s) for s in seeds]
    accepts = sum(results)
    bound = soundness_bound(delta, 1, instance.r, instance.n, params.t, params.m,
                            instance.field.p)
    return SoundnessPoint(
        adversary=adversary,
        delta_target=Fraction(delta),
        delta_achieved=achieved,
        m=params.m,
        t=params.t,
        trials=trials,
        accepts=accepts,
        bound=bound,
    )


def soundness_mc(
    instance: Instance,
    adversaries: list[str],
    deltas: list,
    ms: list[int],
    ts: list[int],
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    for name, values in (("ms", ms), ("ts", ts), ("trials", [trials]),
                         ("workers", [workers])):
        if not all(isinstance(v, int) and v >= 1 for v in values):
            raise FloweringError(f"{name} must be positive integers, got {values!r}")
    if any(t > instance.n for t in ts):
        raise FloweringError(f"ts must be at most n={instance.n}, got {ts!r}")
    points = []
    idx = 0
    for adversary in adversaries:
        for delta in deltas:
            for m in ms:
                for t in ts:
                    point = soundness_mc_point(
                        instance, adversary, delta, ProtocolParams(m, t),
                        trials, derive_seed(seed, 4, idx), workers,
                    )
                    points.append(point.to_json())
                    idx += 1
    flagged = [pt for pt in points if not pt["within_bound"]]
    return {
        "instance": {"r": instance.r, "n": instance.n, "p": str(instance.field.p),
                     "k": instance.rs.k},
        "trials_per_point": trials,
        "seed": seed,
        "points": points,
        "violations": len(flagged),
    }


# complexity and bound reports ----------------------------------------------


def complexity_report(instance: Instance, params: ProtocolParams, seed: int) -> dict:
    """Measured protocol counters next to the bound expressions.

    The exact counting bounds (proof length < n|V0|, rounds = r < log2 N,
    reads <= (2r+1)mt + n, fold-check field ops <= 4rmt) are asserted; the
    asymptotic forms (prover 3N, length N, queries 2mt log2 N) are reported
    for comparison but not asserted, since the petal terms exceed them on
    small instances.
    """
    tr = honest_run(instance, params, seed)
    c = tr.counters
    n = instance.n
    v0 = instance.seq.graphs[0].num_vertices
    big_n = instance.seq.graphs[0].classes.num_classes
    r = instance.r
    checks = {
        "length_lt_nV0": c.proof_length < n * v0,
        "rounds_lt_log2N": r < math.log2(big_n),
        "reads_le_max": c.oracle_reads <= (2 * r + 1) * params.m * params.t + n,
        "fold_ops_le_4rmt": c.verifier_field_ops <= 4 * r * params.m * params.t,
    }
    report = {
        "instance": {"r": r, "n": n, "p": str(instance.field.p), "k": instance.rs.k,
                     "N_code_length": big_n},
        "params": {"m": params.m, "t": params.t, "seed": seed},
        "accept": tr.accept,
        "measured": c.to_json(),
        "bounds": {
            "proof_length_max": n * v0,
            "proof_length_asymptotic_N": big_n,
            "oracle_reads_max": (2 * r + 1) * params.m * params.t + n,
            "oracle_reads_asymptotic": 2 * params.m * params.t * math.log2(big_n) + n,
            "rounds_asymptotic_log2N": math.log2(big_n),
            "prover_ops_max": 3 * c.proof_length,
            "prover_ops_asymptotic_3N": 3 * big_n,
            "verifier_fold_ops_4rmt": 4 * r * params.m * params.t,
        },
        "asserted": checks,
        "all_asserted_hold": all(checks.values()),
    }
    return report


def bounds_report(instance: Instance, enum_cap: int = DEFAULT_ENUM_CAP,
                  matrix_cap: int = DEFAULT_MATRIX_CAP) -> dict:
    """Dimension bound per level, witness weight, brute-force distance."""
    rs = instance.rs
    levels = []
    for i, graph in enumerate(instance.seq.graphs):
        code = GraphCode(graph, rs)
        entry: dict = {
            "level": i,
            "vertices": graph.num_vertices,
            "classes": graph.classes.num_classes,
            "petals": graph.classes.num_petals,
            "dimension_lower_bound": code.dimension_lower_bound(),
        }
        try:
            dim = code.dimension(matrix_cap)
            entry["dimension"] = dim
            entry["bound_holds"] = dim >= entry["dimension_lower_bound"]
        except TooLargeError:
            entry["dimension"] = None
            entry["bound_holds"] = None
        levels.append(entry)

    report: dict = {
        "instance": {"r": instance.r, "n": instance.n, "p": str(instance.field.p),
                     "k": rs.k, "d": instance.gens.d},
        "levels": levels,
    }

    n, k, d = instance.n, rs.k, instance.gens.d
    if n - k + 1 == d - 1:
        lower, upper = min_distance_bounds(instance.gens.r, n, k, d)
        witness = upper_bound_witness(instance.code, instance.gens)
        weight = relative_weight(witness)
        abs_weight = sum(1 for v in witness.values if v)
        expected_abs = (n - k + 1) * (1 << (d - 2))
        corrupted = witness.replace(0, (witness.values[0] + 1) % instance.field.p)
        witness_entry = {
            "distance_lower_bound": str(lower),
            "distance_upper_bound": str(upper),
            "witness_weight": abs_weight,
            "witness_weight_expected": expected_abs,
            "witness_weight_matches": abs_weight == expected_abs,
            "witness_relative_weight": str(weight),
            "witness_meets_upper_bound": weight == upper,
            "witness_is_codeword": instance.code.is_codeword(witness),
            "corrupted_witness_rejected": not instance.code.is_codeword(corrupted),
        }
        try:
            brute = instance.code.min_distance_bruteforce(enum_cap)
            witness_entry["bruteforce_distance"] = str(brute)
            witness_entry["bruteforce_within_bounds"] = lower <= brute <= upper
        except TooLargeError:
            witness_entry["bruteforce_distance"] = None
            witness_entry["bruteforce_within_bounds"] = None
        report["distance"] = witness_entry
    else:
        report["distance"] = {"skipped": f"n-k+1={n - k + 1} != d-1={d - 1}"}

    flags = [lv["bound_holds"] for lv in levels if lv["bound_holds"] is not None]
    dist = report["distance"]
    for key in ("witness_weight_matches", "witness_meets_upper_bound",
                "witness_is_codeword", "corrupted_witness_rejected",
                "bruteforce_within_bounds"):
        if key in dist and dist[key] is not None:
            flags.append(dist[key])
    report["violations"] = sum(1 for f in flags if not f)
    return report
