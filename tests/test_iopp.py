import itertools
import json
import random
from fractions import Fraction

import pytest

from flowering.cayley import blossoming_cayley, gen_set_full
from flowering.experiments import gen_instance, random_codeword_word
from flowering.field import PrimeField
from flowering.folding import fold
from flowering.graph_code import GraphCode, Word
from flowering.iopp import (
    HonestProver,
    LazyCopyProver,
    ProtocolParams,
    commit_soundness_trial,
    prover_commit,
    run_protocol,
    sample_query_randomness,
    soundness_bound,
    verifier_query,
)


def words_oracle(words):
    return lambda level, cid: words[level].values[cid]


def test_honest_prover_accepts(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    rng = random.Random(0)
    for seed in range(30):
        w = Word.from_index_values(seq.graphs[0], field, rs.random_codeword(rng))
        tr = run_protocol(seq, rs, HonestProver(w), ProtocolParams(2, 2), seed)
        assert tr.accept
        assert tr.counters.rounds == 2
        assert tr.counters.rand_field_elements == 2
        assert tr.counters.rand_vertices == 2 and tr.counters.rand_subsets == 2


def test_prover_commit_codeword_chain(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    words = prover_commit(seq, w, [3, 4])
    for level, word in enumerate(words, start=1):
        assert GraphCode(seq.graphs[level], rs).is_codeword(word)
    assert rs.is_codeword(words[-1].local_view(0))


def test_prover_commit_constant_product(t1):
    seq, field = t1["seq"], t1["field"]
    c = 2
    words = prover_commit(seq, Word.constant(seq.graphs[0], field, c), [3, 4])
    expected = c * (1 + 3) * (1 + 4) % 5
    assert all(v == expected for v in words[-1].values)


def test_prover_commit_zero_challenges_are_cuts(t1):
    seq, field = t1["seq"], t1["field"]
    rng = random.Random(1)
    w = Word(seq.graphs[0], field, [field.sample(rng) for _ in range(6)])
    words = prover_commit(seq, w, [0, 0])
    # the flower view is the local view of f0 at the surviving vertex 0
    assert words[-1].local_view(0) == w.local_view(0)


def test_query_count_exact_t1(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    formula = (2 * 2 + 1) * 1 * 1 + 3
    seen_exact = 0
    for seed in range(100):
        tr = run_protocol(seq, rs, HonestProver(w), ProtocolParams(1, 1), seed)
        assert tr.accept
        if tr.walks_disjoint:
            assert tr.counters.oracle_reads == formula
            seen_exact += 1
        else:
            assert tr.counters.oracle_reads < formula
    assert seen_exact > 0


def test_proof_length_t1(t1):
    assert t1["seq"].proof_length() == 8
    assert 8 < 3 * 4


def test_reject_when_flower_not_codeword(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]

    class CorruptLast(HonestProver):
        def respond(self, seq, i, alpha, words, challenges):
            w = super().respond(seq, i, alpha, words, challenges)
            if i == seq.r:
                w = Word(w.graph, w.field, w.values)
                w.values[0] = (w.values[0] + 1) % field.p
                while rs.is_codeword(w.local_view(0)):
                    w.values[1] = (w.values[1] + 1) % field.p
            return w

    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    for seed in range(20):
        tr = run_protocol(seq, rs, CorruptLast(w), ProtocolParams(1, 1), seed)
        assert not tr.accept


class OneClassCorruptor:
    """Honest chain except one corrupted class in f_1; later words continue
    from the clean chain, so only the checks reading that class can fail."""

    def __init__(self, word, class_id, delta=1):
        self.word = word
        self.class_id = class_id
        self.delta = delta
        self.clean = None

    def initial_word(self, seq):
        self.clean = [self.word]
        return self.word

    def respond(self, seq, i, alpha, words, challenges):
        nxt = fold(seq.cuts[i - 1], self.clean[-1], alpha)
        self.clean.append(nxt)
        if i != 1:
            return nxt
        corrupted = Word(nxt.graph, nxt.field, nxt.values)
        corrupted.values[self.class_id] = (
            corrupted.values[self.class_id] + self.delta
        ) % nxt.field.p
        return corrupted


def test_corrupted_class_rejection_rate_matches_enumeration():
    # exact rejection probability by enumerating all (v0, I) pairs, m = 1
    field = PrimeField(101)
    gens = gen_set_full(3)
    seq = blossoming_cayley(3, gens)
    from flowering.reed_solomon import RSCode

    rs = RSCode.with_default_points(field, 7, 5)
    rng = random.Random(5)
    w = Word.from_index_values(seq.graphs[0], field, rs.random_codeword(rng))
    class_id = 3
    params = ProtocolParams(1, 2)

    challenges = [11, 22, 33]
    strategy = OneClassCorruptor(w, class_id)
    f0 = strategy.initial_word(seq)
    words = [f0]
    for i in range(1, 4):
        words.append(strategy.respond(seq, i, challenges[i - 1], words, challenges))

    n = 7
    rejects = 0
    total = 0
    for v0 in range(8):
        for idx in itertools.combinations(range(n), params.t):
            tr = verifier_query(seq, rs, params, challenges, words_oracle(words),
                                [(v0, idx)], record_openings=False)
            rejects += not tr.accept
            total += 1
    exact_rate = rejects / total

    mc_rejects = 0
    trials = 3000
    mc_rng = random.Random(99)
    for _ in range(trials):
        randomness = sample_query_randomness(mc_rng, 8, n, params)
        tr = verifier_query(seq, rs, params, challenges, words_oracle(words),
                            randomness, record_openings=False)
        mc_rejects += not tr.accept
    mc_rate = mc_rejects / trials
    sigma = (exact_rate * (1 - exact_rate) / trials) ** 0.5
    assert abs(mc_rate - exact_rate) < 5 * sigma + 1e-9
    # detection requires reading the corrupted class: rate scales like t/n
    assert 0 < exact_rate < 1


def test_lazy_copy_rejected_quickly(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    rng = random.Random(7)
    w = Word.from_index_values(seq.graphs[0], field, rs.random_codeword(rng))
    rejected = 0
    for seed in range(50):
        tr = run_protocol(seq, rs, LazyCopyProver(w), ProtocolParams(3, 2), seed)
        rejected += not tr.accept
    assert rejected >= 45  # detection needs alpha != 0 and a nonzero read


def test_run_protocol_deterministic(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    tr1 = run_protocol(seq, rs, HonestProver(w), ProtocolParams(2, 2), 1234)
    tr2 = run_protocol(seq, rs, HonestProver(w), ProtocolParams(2, 2), 1234)
    assert json.dumps(tr1.to_json()) == json.dumps(tr2.to_json())


def test_soundness_bound_edges():
    assert soundness_bound(0, 1, 4, 15, 2, 10, 2**31 - 1) == 1.0
    # enormous field: the epsilon term vanishes
    b = soundness_bound(Fraction(1, 2), 1, 4, 15, 2, 10, 2**61)
    assert abs(b - (1 - (2 / 15) * 0.5) ** 10) < 1e-6
    assert 0 <= soundness_bound(1, 1, 2, 3, 3, 50, 5) <= 1


def test_soundness_bound_against_dense_scan():
    r, n, t, m = 4, 15, 3, 20
    field_size = 2**31 - 1
    delta = 0.5
    bound = soundness_bound(delta, 1, r, n, t, m, field_size)

    def value(eps):
        base = min(1.0, max(0.0, 1 - (t / n) * (delta - r * eps)))
        return r / (eps * field_size) + base**m

    lo, hi = 1e-9, delta / r
    dense = min(
        value(lo * (hi / lo) ** (i / 99999)) for i in range(100000)
    )
    assert bound <= dense + 1e-6
    assert abs(bound - dense) <= 1e-6


def test_commit_soundness_codeword_never_improves(t1):
    code, seq, field = t1["code"], t1["seq"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    res = commit_soundness_trial(code, seq.cuts[0], w, Fraction(1, 10))
    assert res.exhaustive and res.samples == 5
    assert res.events == 0


def test_commit_soundness_t1_exhaustive_raw_count(t1):
    # tiny field: the 1/(eps |F|) bound is vacuous; just report the raw count
    code, seq, field = t1["code"], t1["seq"], t1["field"]
    rng = random.Random(11)
    word = None
    for _ in range(5000):
        cand = Word(seq.graphs[0], field, [field.sample(rng) for _ in range(6)])
        if code.invalid_views(cand) == 1:
            word = cand
            break
    assert word is not None, "no word with exactly one invalid view found"
    res = commit_soundness_trial(code, seq.cuts[0], word, Fraction(1, 10))
    assert res.exhaustive and res.samples == 5
    assert 0 <= res.events <= 5


def test_params_validation(t1):
    with pytest.raises(Exception):
        ProtocolParams(0, 1).check(3)
    with pytest.raises(Exception):
        ProtocolParams(1, 4).check(3)
    ProtocolParams(1, 3).check(3)
