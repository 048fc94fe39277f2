"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte-Carlo soundness
study (criterion 5) dominates the runtime and is marked slow; everything
else finishes in seconds, and `-m "not slow"` runs only that.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_rim, random_word
from flowering.adversaries import far_word, revivable_word
from flowering.cayley import min_distance_bounds, upper_bound_witness
from flowering.experiments import (
    derive_seed,
    gen_instance,
    honest_run,
    random_codeword_word,
    soundness_mc_point,
)
from flowering.field import PrimeField
from flowering.folding import fold
from flowering.graph_code import GraphCode, Word, hamming_distance, relative_weight, vertex_distance
from flowering.iopp import ProtocolParams, commit_soundness_trial
from flowering.niproof import MalformedProofError, NIProof, prove_noninteractive, verify_noninteractive
from flowering.rim_graph import cut_graph, mu

P31 = 2147483647


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


@pytest.fixture(scope="module")
def grid():
    """Blossoming Cayley instances r = 2..8, p = 2^31 - 1, k = ceil(3n/4)."""
    out = {}
    for r in range(2, 9):
        n = (1 << r) - 1
        out[r] = gen_instance(r, P31, -(-3 * n // 4))
    return out


def test_criterion_1_completeness(grid):
    start = time.time()
    runs = 0
    for r, instance in grid.items():
        for i in range(200):
            tr = honest_run(instance, ProtocolParams(2, 2), derive_seed(1000 + r, i))
            assert tr.accept, f"honest run rejected at r={r} seed index {i}"
            runs += 1
    elapsed = time.time() - start
    report(1, "completeness", runs == 1400 and elapsed < 60,
           f"{runs} honest runs accepted in {elapsed:.1f}s")


def test_criterion_2_query_accounting(grid):
    rng = random.Random(2024)
    exact_hits = 0
    total = 0
    for i in range(1000):
        r = rng.choice([2, 3, 4])
        instance = grid[r]
        n = instance.n
        params = ProtocolParams(rng.choice([1, 2, 3]), rng.choice([1, 2, min(4, n)]))
        tr = honest_run(instance, params, derive_seed(2000, i))
        assert tr.accept
        formula = (2 * r + 1) * params.m * params.t + n
        if tr.walks_disjoint:
            assert tr.counters.oracle_reads == formula, (
                f"disjoint walks but {tr.counters.oracle_reads} != {formula}"
            )
            exact_hits += 1
        else:
            assert tr.counters.oracle_reads <= formula
        total += 1
    report(2, "query accounting", exact_hits > 0,
           f"{total} runs, {exact_hits} with disjoint walks matched (2r+1)mt+n exactly")


def test_criterion_3_proof_length(grid, t1):
    ok = all(
        inst.seq.proof_length() < inst.n * inst.seq.graphs[0].num_vertices
        for inst in grid.values()
    )
    t1_length = t1["seq"].proof_length()
    ok = ok and t1_length == 8 and 8 < 12
    report(3, "proof length", ok, f"T1 length {t1_length} < 12; all r in 2..8 strict")


def test_criterion_4_commit_soundness():
    instance = gen_instance(4, 101, 11)
    graph1 = instance.seq.graphs[1]
    cut = instance.seq.cuts[1]
    code1 = GraphCode(graph1, instance.rs)
    kept = list(cut.v_prime)
    rng = random.Random(44)
    epsilons = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
    max_counts = {eps: 0 for eps in epsilons}
    for w in range(50):
        if w % 2 == 0:
            num_groups = rng.randrange(1, 4)
            verts = rng.sample(kept, min(len(kept), num_groups + rng.randrange(2)))
            alphas = rng.sample(range(1, 101), num_groups)
            groups = [(alphas[g], [v for j, v in enumerate(verts) if j % num_groups == g])
                      for g in range(num_groups)]
            groups = [(a, vs) for a, vs in groups if vs]
            word = revivable_word(code1, cut, groups, rng)
        else:
            word, _ = far_word(code1, Fraction(rng.randrange(1, 9), 8), rng)
        for eps in epsilons:
            res = commit_soundness_trial(code1, cut, word, eps)
            assert res.exhaustive and res.samples == 101
            bound = math.ceil(1 / eps)
            assert res.events <= bound, f"word {w}: {res.events} events > {bound} at eps={eps}"
            max_counts[eps] = max(max_counts[eps], res.events)
    nontrivial = any(c > 0 for c in max_counts.values())
    detail = ", ".join(f"eps={eps}: max events {c} <= {math.ceil(1/eps)}"
                       for eps, c in max_counts.items())
    report(4, "commit soundness", nontrivial, detail)


@pytest.mark.slow
def test_criterion_5_soundness_bound(grid):
    start = time.time()
    instance = grid[4]
    worst_margin = None
    points = 0
    for adversary in ("far-word-honest-fold", "lazy-copy"):
        for delta in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            for m in (5, 10, 20):
                for t in (1, 2, 4):
                    pt = soundness_mc_point(
                        instance, adversary, delta, ProtocolParams(m, t),
                        trials=10_000, seed=derive_seed(5000, points),
                    )
                    halfwidth = pt.wilson_upper - pt.rate
                    assert pt.rate <= pt.bound + halfwidth, (
                        f"{adversary} delta={delta} m={m} t={t}: "
                        f"rate {pt.rate} > bound {pt.bound} + {halfwidth}"
                    )
                    margin = pt.bound + halfwidth - pt.rate
                    if worst_margin is None or margin < worst_margin:
                        worst_margin = margin
                    points += 1
    elapsed = time.time() - start
    report(5, "soundness bound", points == 54 and elapsed < 600,
           f"{points} configs x 10^4 trials in {elapsed:.0f}s, min margin {worst_margin:.4f}")


def test_criterion_6_distance_comparison():
    rng = random.Random(66)
    field = PrimeField(101)
    graphs = []
    while len(graphs) < 20:
        base = random_rim(rng, rng.randrange(2, 10), rng.randrange(1, 5))
        graphs.append(base)
        if len(graphs) < 20 and base.num_vertices >= 4:
            # petal-rich cut of the same graph
            size = rng.randrange(1, base.num_vertices)
            child, _ = cut_graph(base, rng.sample(range(base.num_vertices), size))
            graphs.append(child)
    checked = 0
    for graph in graphs:
        ratio = mu(graph)
        for _ in range(50):
            f = random_word(rng, graph, field)
            g = random_word(rng, graph, field)
            assert vertex_distance(f, g) >= ratio * hamming_distance(f, g)
            checked += 1
    report(6, "distance comparison", checked == 1000,
           f"{checked} word pairs on {len(graphs)} graphs, exact rationals")


def test_criterion_7_dimension_bound(t1):
    rows = []
    for r in (2, 3, 4, 5):
        n = (1 << r) - 1
        instance = gen_instance(r, P31, -(-3 * n // 4))
        for i, graph in enumerate(instance.seq.graphs):
            code = GraphCode(graph, instance.rs)
            dim = code.dimension()
            bound = code.dimension_lower_bound()
            assert dim == graph.classes.num_classes - (
                graph.classes.num_classes - dim
            )
            assert dim >= bound, f"r={r} level {i}: dim {dim} < bound {bound}"
            rows.append((r, i, dim, bound))
    # T1 over F_5 as well
    for i, graph in enumerate(t1["seq"].graphs):
        code = GraphCode(graph, t1["rs"])
        assert code.dimension() >= code.dimension_lower_bound()
    report(7, "dimension bound", len(rows) == sum(r + 1 for r in (2, 3, 4, 5)),
           f"{len(rows)} levels checked, exact integers")


def test_criterion_8_minimum_distance(t1):
    brute = t1["code"].min_distance_bruteforce()
    lower, upper = min_distance_bounds(2, 3, 2, 3)
    ok = lower <= brute <= upper

    witness = upper_bound_witness(t1["code"], t1["gens"])
    w_abs = sum(1 for v in witness.values if v)
    ok = ok and w_abs == 4 and t1["code"].is_codeword(witness)

    inst3 = gen_instance(3, P31, 6)
    witness3 = upper_bound_witness(inst3.code, inst3.gens)
    w3 = sum(1 for v in witness3.values if v)
    ok = ok and w3 == 4 and inst3.code.is_codeword(witness3)
    ok = ok and relative_weight(witness3) == Fraction(4, 28)

    corrupted = witness3.replace(
        next(i for i, v in enumerate(witness3.values) if v), 0
    )
    ok = ok and not inst3.code.is_codeword(corrupted)
    report(8, "minimum distance", ok,
           f"T1 brute {brute} in [{lower},{upper}]; witness weights 4/6 and 4/28")


def test_criterion_9_fold_completeness_kernel(t1):
    rng = random.Random(99)
    checked = 0

    def kernel_words(instance_code, graph, field, count):
        basis = instance_code.codeword_basis()
        p = field.p
        for _ in range(count):
            vec = [0] * graph.classes.num_classes
            for b in basis:
                c = rng.randrange(p)
                if c:
                    for i, x in enumerate(b):
                        vec[i] = (vec[i] + c * x) % p
            yield Word(graph, field, vec)

    cases = [
        (t1["code"], t1["seq"], t1["rs"], t1["field"], 400),
        * [(inst.code, inst.seq, inst.rs, inst.field, cnt)
           for inst, cnt in ((gen_instance(3, 101, 5), 300),
                             (gen_instance(4, P31, 12), 300))],
    ]
    for code, seq, rs, field, count in cases:
        child_code = GraphCode(seq.graphs[1], rs)
        for word in kernel_words(code, seq.graphs[0], field, count):
            assert code.is_codeword(word), "kernel sample is not a codeword"
            alpha = field.sample(rng)
            folded = fold(seq.cuts[0], word, alpha)
            assert child_code.is_codeword(folded)
            checked += 1
    report(9, "fold completeness kernel", checked == 1000,
           f"{checked} (codeword, challenge) pairs, exact membership")


def test_criterion_10_ni_round_trip():
    rng = random.Random(1010)
    instances = [gen_instance(3, 101, 5), gen_instance(2, P31, 2)]
    proofs = []
    for i in range(100):
        instance = instances[i % 2]
        params = ProtocolParams(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        word = random_codeword_word(instance, random.Random(derive_seed(10_000, i)))
        proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
        assert transcript.accept
        blob = proof.serialize()
        accept, _ = verify_noninteractive(instance.seq, instance.rs, NIProof.parse(blob))
        assert accept, f"round trip {i} rejected"
        proofs.append((instance, blob))

    mutations = 0
    for i in range(1000):
        instance, blob = proofs[i % 100]
        mutated = bytearray(blob)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            parsed = NIProof.parse(bytes(mutated))
        except MalformedProofError:
            mutations += 1
            continue
        accept, _ = verify_noninteractive(instance.seq, instance.rs, parsed)
        assert not accept, f"mutation {i} at byte {pos} accepted"
        mutations += 1
    report(10, "NI round-trip", mutations == 1000,
           "100 proofs verified; 1000 single-byte mutations all rejected")
