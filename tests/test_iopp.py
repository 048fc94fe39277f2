import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import replay
from flowering.adversaries import lazy_copy
from flowering.cayley import blossoming_cayley, gen_set_full
from flowering.experiments import gen_instance, random_codeword_word
from flowering.errors import FloweringError
from flowering.field import PrimeField
from flowering.folding import fold
from flowering.graph_code import GraphCode, Word
from flowering.iopp import (
    ProtocolParams,
    SequenceMismatchError,
    commit_soundness_trial,
    prover_commit,
    run_protocol,
    sample_query_randomness,
    soundness_bound,
    verifier_query,
)
from flowering.reed_solomon import RSCode
from flowering.rim_graph import UnknownVertexError, mu


def words_oracle(words):
    return lambda level, cid: words[level].values[cid]


def test_honest_prover_accepts(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    rng = random.Random(0)
    for seed in range(30):
        w = Word.from_index_values(seq.graphs[0], field, rs.random_codeword(rng))
        tr = run_protocol(seq, rs, w, ProtocolParams(2, 2), seed)
        assert tr.accept
        assert tr.counters.rounds == 2
        assert tr.counters.rand_field_elements == 2
        assert tr.counters.rand_vertices == 2 and tr.counters.rand_subsets == 2


def test_prover_commit_codeword_chain(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    sent = []

    def challenge(word):
        sent.append(word)
        return 2 + len(sent)

    challenges, words = prover_commit(seq, w, challenge)
    # the source is asked once per cut, on the word just sent
    assert challenges == [3, 4] and sent == words[:2] and words[0] is w
    for level, word in enumerate(words[1:], start=1):
        assert GraphCode(seq.graphs[level], rs).is_codeword(word)
    assert rs.is_codeword(words[-1].local_view(0))


def test_prover_commit_constant_product(t1):
    seq, field = t1["seq"], t1["field"]
    c = 2
    _, words = prover_commit(seq, Word.constant(seq.graphs[0], field, c), replay([3, 4]))
    expected = c * (1 + 3) * (1 + 4) % 5
    assert all(v == expected for v in words[-1].values)


def test_prover_commit_zero_challenges_are_cuts(t1):
    seq, field = t1["seq"], t1["field"]
    rng = random.Random(1)
    w = Word(seq.graphs[0], field, [field.sample(rng) for _ in range(6)])
    _, words = prover_commit(seq, w, replay([0, 0]))
    # the flower view is the local view of f0 at the surviving vertex 0
    assert words[-1].local_view(0) == w.local_view(0)


def test_prover_commit_checks_words(t1):
    seq, field = t1["seq"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    with pytest.raises(SequenceMismatchError):
        prover_commit(seq, Word.constant(seq.graphs[1], field, 1), replay([3, 4]))
    with pytest.raises(SequenceMismatchError):  # a rule answering off the cut graph
        prover_commit(seq, w, replay([3, 4]), lambda cut, f, alpha: f)


def test_read_log_is_every_oracle_read():
    # the transcript's per-level reads are exactly the positions the oracle
    # was asked for, and oracle_reads counts the walk reads plus n
    instance = gen_instance(3, 101, 5)
    seq, rs = instance.seq, instance.rs
    rng = random.Random(3)
    for _ in range(30):
        w = random_codeword_word(instance, rng)
        challenges = [rs.field.sample(rng) for _ in range(seq.r)]
        _, words = prover_commit(seq, w, replay(challenges))
        params = ProtocolParams(rng.randrange(1, 4), rng.randrange(1, 4))
        randomness = sample_query_randomness(rng, 8, 7, params)
        asked = [set() for _ in range(seq.r + 1)]

        def oracle(level, cid):
            asked[level].add(cid)
            return words[level].values[cid]

        tr = verifier_query(seq, rs, params, challenges, oracle, randomness)
        assert tr.accept and tr.reads == asked
        # the recorded openings end with the n = 7 flower reads
        openings = [(lev, cid) for q in tr.queries for lev, cid, _ in q.openings]
        assert tr.counters.oracle_reads == len(set(openings[:-7])) + 7
        assert "reads" not in tr.to_json()


def test_walk_start_vertex_must_exist(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    oracle = words_oracle(prover_commit(seq, w, replay([3, 4]))[1])
    for v0 in (-1, 4):
        with pytest.raises(UnknownVertexError):
            verifier_query(seq, rs, ProtocolParams(1, 1), [3, 4], oracle, [(v0, (0,))])
    tr = verifier_query(seq, rs, ProtocolParams(1, 1), [3, 4], oracle, [(3, (0,))])
    assert tr.accept and tr.queries[0].walk == (1, 0)
    with pytest.raises(SequenceMismatchError, match="expected 2 challenges, got 1"):
        verifier_query(seq, rs, ProtocolParams(1, 1), [3], oracle, [(3, (0,))])


def test_query_count_exact_t1(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    formula = (2 * 2 + 1) * 1 * 1 + 3
    seen_exact = 0
    for seed in range(100):
        tr = run_protocol(seq, rs, w, ProtocolParams(1, 1), seed)
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

    def corrupt_last(cut, f, alpha):
        w = fold(cut, f, alpha)
        if cut is seq.cuts[-1]:
            w = w.replace(0, w.values[0] + 1)
            while rs.is_codeword(w.local_view(0)):
                w = w.replace(1, w.values[1] + 1)
        return w

    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    for seed in range(20):
        tr = run_protocol(seq, rs, w, ProtocolParams(1, 1), seed, corrupt_last)
        assert not tr.accept


def one_class_corruptor(seq, class_id, delta=1):
    """Response rule: the honest chain except class class_id of f_1 shifted
    by delta.  The next fold undoes the shift first, so later words continue
    from the clean chain and only the checks reading that class can fail."""

    def respond(cut, f, alpha):
        if cut is seq.cuts[1]:
            f = f.replace(class_id, f.values[class_id] - delta)
        w = fold(cut, f, alpha)
        if cut is seq.cuts[0]:
            w = w.replace(class_id, w.values[class_id] + delta)
        return w

    return respond


def test_corrupted_class_rejection_rate_matches_enumeration():
    # exact rejection probability by enumerating all (v0, I) pairs, m = 1
    field = PrimeField(101)
    gens = gen_set_full(3)
    seq = blossoming_cayley(gens)
    rs = RSCode.with_default_points(field, 7, 5)
    rng = random.Random(5)
    w = Word.from_index_values(seq.graphs[0], field, rs.random_codeword(rng))
    class_id = 3
    params = ProtocolParams(1, 2)

    challenges = [11, 22, 33]
    _, words = prover_commit(seq, w, replay(challenges), one_class_corruptor(seq, class_id))
    _, clean = prover_commit(seq, w, replay(challenges))
    assert [sum(a != b for a, b in zip(x.values, y.values))
            for x, y in zip(words, clean)] == [0, 1, 0, 0]

    n = 7
    rejects = 0
    total = 0
    for v0 in range(8):
        for idx in itertools.combinations(range(n), params.t):
            tr = verifier_query(seq, rs, params, challenges, words_oracle(words),
                                [(v0, idx)])
            rejects += not tr.accept
            total += 1
    exact_rate = rejects / total

    mc_rejects = 0
    trials = 3000
    mc_rng = random.Random(99)
    for _ in range(trials):
        randomness = sample_query_randomness(mc_rng, 8, n, params)
        tr = verifier_query(seq, rs, params, challenges, words_oracle(words),
                            randomness)
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
        tr = run_protocol(seq, rs, w, ProtocolParams(3, 2), seed, lazy_copy)
        rejected += not tr.accept
    assert rejected >= 45  # detection needs alpha != 0 and a nonzero read


def test_rejected_run_ends_at_its_failing_check():
    # lazy copy's flower view is a codeword, so its runs reject only at a fold
    # check: that check is the last recorded opening triple, every earlier
    # triple holds, and the flower view is never read
    instance = gen_instance(3, 101, 5)
    seq, rs = instance.seq, instance.rs
    w = random_codeword_word(instance, random.Random(8))
    rejected = 0
    for seed in range(40):
        tr = run_protocol(seq, rs, w, ProtocolParams(3, 2), seed, lazy_copy)
        if tr.accept:
            continue
        rejected += 1
        openings = [o for q in tr.queries for o in q.openings]
        assert len(openings) % 3 == 0
        holds = [(va + tr.challenges[level - 1] * vb) % 101 == vr
                 for (_, _, va), (_, _, vb), (level, _, vr)
                 in zip(openings[0::3], openings[1::3], openings[2::3])]
        assert holds[-1] is False and all(holds[:-1])
        assert tr.counters.final_check_field_ops == 0
        assert tr.counters.oracle_reads == sum(len(level) for level in tr.reads)
    assert rejected >= 30


def test_walks_disjoint_matches_per_walk_read_sets():
    # walks_disjoint is read off the union of the walk reads; rebuilt from
    # each walk's own openings, the walks are disjoint exactly when each
    # read (2r+1)t positions and no position was read twice
    seen = set()
    for r, p, k in ((2, 17, 2), (3, 101, 5), (4, 2**31 - 1, 12)):
        instance = gen_instance(r, p, k)
        rng = random.Random(r)
        for _ in range(100):
            for respond in (None, lazy_copy):
                w = random_codeword_word(instance, rng)
                params = ProtocolParams(rng.randrange(1, 4), rng.randrange(1, 4))
                tr = run_protocol(instance.seq, instance.rs, w, params,
                                  rng.randrange(2**32), respond)
                openings = [q.openings for q in tr.queries]
                if tr.accept:  # the flower view closes the last walk's openings
                    openings[-1] = openings[-1][:-instance.n]
                walk_reads = [{(level, cid) for level, cid, _ in ops} for ops in openings]
                per_walk = (all(len(s) == (2 * r + 1) * params.t for s in walk_reads)
                            and sum(map(len, walk_reads)) == len(set().union(*walk_reads)))
                assert tr.walks_disjoint == per_walk
                seen.add((tr.accept, per_walk))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_run_protocol_deterministic(t1):
    seq, rs, field = t1["seq"], t1["rs"], t1["field"]
    w = Word.from_index_values(seq.graphs[0], field, [1, 2, 3])
    tr1 = run_protocol(seq, rs, w, ProtocolParams(2, 2), 1234)
    tr2 = run_protocol(seq, rs, w, ProtocolParams(2, 2), 1234)
    assert json.dumps(tr1.to_json()) == json.dumps(tr2.to_json())


def test_soundness_bound_edges():
    assert soundness_bound(0, 4, 15, 2, 10, 2**31 - 1) == 1.0
    # enormous field: the epsilon term vanishes
    b = soundness_bound(Fraction(1, 2), 4, 15, 2, 10, 2**61)
    assert abs(b - (1 - (2 / 15) * 0.5) ** 10) < 1e-6
    assert 0 <= soundness_bound(1, 2, 3, 3, 50, 5) <= 1
    # delta outside [0, 1] and t outside 1..n are refused, not clamped
    for delta, t in ((Fraction(-1, 2), 2), (Fraction(3, 2), 2), (Fraction(1, 2), 0),
                     (Fraction(1, 2), 16)):
        with pytest.raises(FloweringError):
            soundness_bound(delta, 4, 15, t, 10, 2**31 - 1)
    # r/|F| >= delta/r leaves no eps at which the first term is below 1
    assert soundness_bound(Fraction(1, 10), 10, 1023, 2, 10, 101) == 1.0
    assert soundness_bound(Fraction(1, 2), 4, 15, 2, 10, 32) == 1.0
    # the bound takes mu = 1, which holds on the study's base graphs
    for r in range(2, 9):
        assert mu(gen_instance(r, 2**31 - 1, 2**r - 3).seq.graphs[0]) == 1


FIELD_SIZES = {"101": 101, "M31": 2**31 - 1, "M61": 2**61 - 1, "M31^4": (2**31 - 1) ** 4}
BOUND_CASES = [
    (4, "101", Fraction(1, 2), 10),
    (4, "M31", Fraction(1, 10), 1000),
    (4, "M61", Fraction(1), 10),
    (4, "M31^4", Fraction(1, 2), 1000),
    (8, "101", Fraction(1, 10), 10),
    (8, "M31", Fraction(1, 2), 10),
    (8, "M61", Fraction(1, 10), 1000),
    (8, "M31^4", Fraction(1), 10),
    (10, "101", Fraction(1), 1000),
    (10, "M31", Fraction(1), 1000),
    (10, "M61", Fraction(1, 2), 10),
    (10, "M31^4", Fraction(1, 10), 1000),
]


@pytest.mark.parametrize("r, field, delta, m", BOUND_CASES,
                         ids=[f"r{r}-{f}-delta{float(d)}-m{m}" for r, f, d, m in BOUND_CASES])
def test_soundness_bound_against_dense_scan(r, field, delta, m):
    # a log scan from below r/|F|, clamped to 1 as the bound is: the search
    # never lies above it and finds its minimum to 1e-6 relative
    n, t, field_size = 2**r - 1, 2, FIELD_SIZES[field]
    bound = soundness_bound(delta, r, n, t, m, field_size)
    d = float(delta)

    def value(eps):
        base = min(1.0, max(0.0, 1 - (t / n) * (d - r * eps)))
        return r / (eps * field_size) + base**m

    lo, hi = min(1e-12, r / field_size), d / r
    dense = min(1.0, min(value(lo * (hi / lo) ** (i / 99999)) for i in range(100000)))
    assert bound <= dense * (1 + 1e-12)
    assert bound >= dense * (1 - 1e-6)


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


def test_commit_soundness_samples_a_large_field():
    # p > COMMIT_CHALLENGES: a fixed sample of challenges, the same each call
    instance = gen_instance(3, 10007, 5)
    graph, field = instance.seq.graphs[0], instance.field
    rng = random.Random(3)
    word = Word(graph, field, [field.sample(rng) for _ in range(graph.classes.num_classes)])
    res = commit_soundness_trial(instance.code, instance.seq.cuts[0], word, Fraction(1, 10))
    assert res.samples == 10**4 and res.exhaustive is False
    assert commit_soundness_trial(instance.code, instance.seq.cuts[0], word,
                                  Fraction(1, 10)) == res


def test_params_validation(t1):
    with pytest.raises(Exception):
        ProtocolParams(0, 1).check(3)
    with pytest.raises(Exception):
        ProtocolParams(1, 4).check(3)
    ProtocolParams(1, 3).check(3)
