"""The three benchmark workloads.

Each workload is a closed loop with one client in one process: an op
starts only when the previous one has finished.  A workload builds its
instance in set-up, may prepare untimed inputs, and then runs ops; every op
appends its timings to ``samples`` and returns the names of the correctness
checks it failed.

Inputs come from the run seed only.  Op i of a run with seed s proves the
codeword of word seed 10000 * s + i, the word ``flowering prove --seed`` picks
for that seed, so a traced run with seed 0 reproduces the word-seed-0 proof.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from flowering import cli, experiments, iopp
from flowering.adversaries import ADVERSARIES, far_word
from flowering.experiments import (
    derive_seed,
    gen_instance,
    random_codeword_word,
    soundness_mc_point,
)
from flowering.iopp import ProtocolParams
from flowering.niproof import NIProof, prove_noninteractive, verify_noninteractive

ROOT = Path(__file__).resolve().parent.parent
P = 2**31 - 1
NI_PARAMS = ProtocolParams(10, 2)
WORD_SEEDS_PER_RUN = 10_000
# The grid of acceptance criterion 5.
MC_DELTAS = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
MC_MS = (5, 10, 20)
MC_TS = (1, 2, 4)


def word_seed(seed: int, index: int) -> int:
    return WORD_SEEDS_PER_RUN * seed + index


def build_instance(r: int, k: int):
    """A ready Cayley instance: the chain plus its lazily built class
    indexes and fold plans, so no op pays for them."""
    instance = gen_instance(r, P, k)
    for graph in instance.seq.graphs:
        graph.classes
    for cut in instance.seq.cuts:
        cut.fold_plan
    return instance


def proof_breakdown(proof: NIProof, tracer) -> None:
    """Proof-size split computed from the parsed proof, outside the program:
    roots, opened values at their 8-byte encoding, and path digests."""
    digests = [d for level in proof.openings for _, path in level.values() for d in path]
    tracer.count("niproof.bytes.roots", sum(len(root) for root in proof.roots))
    tracer.count("niproof.bytes.values", 8 * sum(len(level) for level in proof.openings))
    tracer.count("niproof.bytes.paths", sum(len(d) for d in digests))
    tracer.count("niproof.paths.digests", len(digests))
    tracer.count("niproof.paths.distinct", len(set(digests)))


class Workload:
    """Shared run state (seed, tracer, samples) and the NI round trip."""

    name = ""

    def __init__(self, seed: int, tracer, smoke: bool):
        self.seed = seed
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)

    def timed(self, metric: str | None, phase: str, fn, *args):
        """Run fn inside the named phase; record its wall time as a sample of
        metric unless that is None."""
        with self.tracer.span("bench." + phase, phase):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        if metric is not None:
            self.samples[metric].append(elapsed)
        return result, elapsed

    @staticmethod
    def prove(instance, word) -> bytes:
        proof, _ = prove_noninteractive(instance.seq, instance.rs, word, NI_PARAMS)
        return proof.serialize()

    @staticmethod
    def verify(instance, blob: bytes) -> tuple[NIProof, bool]:
        proof = NIProof.parse(blob)
        accept, _ = verify_noninteractive(instance.seq, instance.rs, proof)
        return proof, accept

    def ni_round_trip(self, instance, seed: int, verifies: int = 1) -> list[str]:
        """Prove a fresh codeword and serialize, then parse and verify it
        `verifies` times.  Returns the failed checks."""
        word = random_codeword_word(instance, random.Random(derive_seed(seed, 1)))
        blob, _ = self.timed("prove_s", "prove", self.prove, instance, word)
        failed = []
        for _ in range(verifies):
            (proof, accept), _ = self.timed("verify_s", "verify", self.verify, instance, blob)
            if not accept:
                failed.append("honest proof rejected")
        self.samples["proof_bytes"].append(len(blob))
        with self.tracer.span("bench.check", "check"):
            if proof.serialize() != blob:
                failed.append("serialize-parse-serialize not byte-identical")
            proof_breakdown(proof, self.tracer)
        return failed

    def prepare(self) -> None:
        """Untimed per-run inputs built after the first set-up."""

    def rate(self):
        """(statistic, runs per second, samples) for a workload that measures
        its own rate; None for the others."""
        return None

    def release(self) -> None:
        """Drop the instance before the next set-up, outside its timing."""
        self.instance = None

    def close(self) -> None:
        self.release()


class NIWorkload(Workload):
    """ni-r8: in-process NI prove/verify on the r = 8 Cayley instance.

    r = 8 rather than 10: an r = 10 prove takes about 7 s and an r = 9 one
    1.3-1.9 s, so a run holds 4 or 12 of them, and on a shared machine
    whose speed drifts by 20-30% over minutes their slow tail spread by
    23-27% (r = 10) and 10-16% (r = 9) from run to run.  An r = 8 run holds
    40 or more."""

    name = "ni-r8"

    def __init__(self, seed, tracer, smoke):
        super().__init__(seed, tracer, smoke)
        self.r = 4 if smoke else 8
        self.instance = None

    def setup(self) -> None:
        n = (1 << self.r) - 1
        self.instance = build_instance(self.r, n - 2)

    def prepare(self) -> None:
        # One far word at delta = 1/2, proved honestly: every op must reject
        # it, which fails a verifier that skips the final RS check.  The
        # prover does the same work on any word, so this is a prove sample.
        word, _ = far_word(self.instance.code, Fraction(1, 2),
                           random.Random(derive_seed(self.seed, 7)))
        self.far_blob, _ = self.timed("prove_s", "prove", self.prove, self.instance, word)

    def op(self, index: int) -> list[str]:
        # Verifying each proof twice doubles the verify samples at no cost
        # in ops per run.
        failed = self.ni_round_trip(self.instance, word_seed(self.seed, index), verifies=2)
        with self.tracer.span("bench.check", "check"):
            _, accept = self.verify(self.instance, self.far_blob)
        if accept:
            failed.append("far-word proof accepted")
        return failed


class CLIWorkload(Workload):
    """cli-r8: the flowering CLI called in-process, one file per proof."""

    name = "cli-r8"

    def __init__(self, seed, tracer, smoke):
        super().__init__(seed, tracer, smoke)
        self.r = 4 if smoke else 8
        # The checkout is the only writable place the benchmark may use.
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.instance_path = os.path.join(self.workdir, "instance.json")
        self.proof_path = os.path.join(self.workdir, "proof.bin")
        self.bad_path = os.path.join(self.workdir, "bad.bin")

    def cli(self, *argv: str) -> int:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2

    def setup(self) -> None:
        n = (1 << self.r) - 1
        code = self.cli("gen", "--r", str(self.r), "--p", str(P), "--k", str(n - 2),
                        "--out", self.instance_path)
        if code != 0:
            raise RuntimeError(f"flowering gen exited {code}")

    def cli_verify(self, path: str) -> int:
        self.tracer.count("experiments.instance_bytes", os.path.getsize(self.instance_path))
        return self.cli("verify", "--instance", self.instance_path, "--proof", path)

    def op(self, index: int) -> list[str]:
        failed = []
        self.tracer.count("experiments.instance_bytes", os.path.getsize(self.instance_path))
        code, _ = self.timed(
            "prove_s", "prove", self.cli, "prove", "--instance", self.instance_path,
            "--seed", str(word_seed(self.seed, index)), "--out", self.proof_path)
        if code != 0:
            failed.append(f"prove exited {code}")
        code, _ = self.timed("verify_s", "verify", self.cli_verify, self.proof_path)
        if code != 0:
            failed.append(f"verify exited {code} on the honest proof")
        with open(self.proof_path, "rb") as fh:
            blob = fh.read()
        self.samples["proof_bytes"].append(len(blob))

        with self.tracer.span("bench.check", "check"):
            proof = NIProof.parse(blob)
            proof_breakdown(proof, self.tracer)
            level = next(lv for lv in proof.openings if lv)
            cid = min(level)
            value, path = level[cid]
            flipped = value ^ 1 if value ^ 1 < proof.p else value ^ 2
            level[cid] = (flipped, path)
            with open(self.bad_path, "wb") as fh:
                fh.write(proof.serialize())
            code = self.cli_verify(self.bad_path)
            if code != 1:
                failed.append(f"verify exited {code} on a flipped opened value")
            with open(self.bad_path, "wb") as fh:
                fh.write(blob[:-1])
            code = self.cli_verify(self.bad_path)
            if code != 2:
                failed.append(f"verify exited {code} on a truncated proof")
        return failed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class MCWorkload(Workload):
    """mc-r4: the Monte-Carlo soundness grid of acceptance criterion 5, one
    full pass per op, plus an NI round trip at r = 4 after each point.  Few
    trials per point make passes short, so a run has many of them.

    Each trial is one interactive protocol run.  Criterion 5 runs 10^4 trials
    per point, so the per-point cost (building the adversary, the bound, the
    trial seeds) is 0.03% of its time; at the benchmark's 25 trials it would
    be 11%.  So the rate counts protocol runs per second of protocol-run
    time: a timer on the study's ``run_protocol`` sums it, at about 1 us per
    run of 600 us.  The per-point cost shows in ``adversaries.build_s``.

    The rate is taken point by point: each grid point's protocol time at its
    90th percentile over the run's passes, summed over the grid.  A whole
    pass lasts about a second and averages away the machine's short slow
    spells, so a run that falls in a fast spell read up to 15% faster by
    its passes; a point lasts 5-50 ms, so every run sees slow ones."""

    name = "mc-r4"

    def __init__(self, seed, tracer, smoke):
        super().__init__(seed, tracer, smoke)
        self.trials = 4 if smoke else 25
        self.grid = [(a, d, m, t) for a in ADVERSARIES for d in MC_DELTAS
                     for m in MC_MS for t in MC_TS]
        self.instance = None
        self.protocol_runs = 0
        self.protocol_s = 0.0
        self.point_s: list[list[float]] = [[] for _ in self.grid]

        def timed_run_protocol(*args, **kwargs):
            start = time.perf_counter()
            try:
                # looked up per call, so a traced run reaches the wrapper
                return iopp.run_protocol(*args, **kwargs)
            finally:
                self.protocol_s += time.perf_counter() - start
                self.protocol_runs += 1

        # soundness_mc_point's trials call run_protocol by this name.
        self.untimed_run_protocol = experiments.run_protocol
        experiments.run_protocol = timed_run_protocol

    def setup(self) -> None:
        self.instance = build_instance(4, 12)

    def op(self, index: int) -> list[str]:
        failed = []
        accepts = 0
        self.protocol_runs = 0
        point_s = []
        for idx, (adversary, delta, m, t) in enumerate(self.grid):
            self.protocol_s = 0.0
            point, _ = self.timed(
                None, "study", soundness_mc_point, self.instance, adversary, delta,
                ProtocolParams(m, t), self.trials, derive_seed(self.seed, index, idx))
            point_s.append(self.protocol_s)
            accepts += point.accepts
            if not point.within_bound:
                failed.append(f"{adversary} delta={delta} m={m} t={t} above bound")
            failed += self.ni_round_trip(
                self.instance, word_seed(self.seed, index * len(self.grid) + idx))
        trials = self.trials * len(self.grid)
        if self.protocol_runs != trials:
            failed.append(f"{self.protocol_runs} protocol runs timed for {trials} trials")
        else:
            for samples, elapsed in zip(self.point_s, point_s):
                samples.append(elapsed)
        self.tracer.count("experiments.mc.accepts", accepts)
        self.tracer.count("experiments.mc.trials", trials)
        return failed

    def rate(self):
        passes = len(self.point_s[0])
        if not passes:  # every pass failed its checks
            return "p90/pt", 0.0, 0
        slow_pass_s = sum(
            statistics.quantiles(samples, n=10, method="inclusive")[8] if passes > 1
            else samples[0] for samples in self.point_s)
        return "p90/pt", self.trials * len(self.grid) / slow_pass_s, passes

    def close(self) -> None:
        experiments.run_protocol = self.untimed_run_protocol
        super().close()


WORKLOADS = {cls.name: cls for cls in (NIWorkload, CLIWorkload, MCWorkload)}
