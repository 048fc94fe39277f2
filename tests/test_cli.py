import json
import random

import pytest

from flowering.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "instance.json"
    code = run("gen", "--r", 4, "--p", 2147483647, "--k", 12, "--out", path)
    assert code == 0
    return path


def test_gen_writes_instance(instance_file):
    data = json.loads(instance_file.read_text())
    assert data["format"] == "flowering-instance-v2"
    # the generating set defines the graph chain; no graph is stored
    assert set(data) == {"format", "p", "k", "points", "genset"}
    assert not {"graph", "cuts", "graph_hash"} & set(data)
    assert len(data["genset"]["vectors"]) == 15  # n = 2^4 - 1
    assert data["k"] == 12


def test_gen_deterministic(tmp_path, instance_file):
    other = tmp_path / "instance2.json"
    assert run("gen", "--r", 4, "--p", 2147483647, "--k", 12, "--out", other) == 0
    assert other.read_bytes() == instance_file.read_bytes()


def test_prove_verify_ni(tmp_path, instance_file):
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--m", 4, "--t", 2,
               "--seed", 5, "--out", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof) == 0

    # byte-identical on repeat invocations
    proof2 = tmp_path / "proof2.bin"
    assert run("prove", "--instance", instance_file, "--m", 4, "--t", 2,
               "--seed", 5, "--out", proof2) == 0
    assert proof.read_bytes() == proof2.read_bytes()


def test_prove_verify_ni_json(tmp_path, instance_file):
    proof = tmp_path / "proof.json"
    assert run("prove", "--instance", instance_file, "--m", 2, "--t", 1,
               "--seed", 6, "--json", "--out", proof) == 0
    assert json.loads(proof.read_text())["format"] == "flowering-ni-proof-v1"
    assert run("verify", "--instance", instance_file, "--proof", proof) == 0


def test_prove_verify_interactive(tmp_path, instance_file, capsys):
    # a transcript commits to nothing and its writer picks the challenges, so
    # verify refuses it outright: an all-zero forgery must not be accepted
    proof = tmp_path / "transcript.json"
    assert run("prove", "--instance", instance_file, "--m", 3, "--t", 2,
               "--seed", 7, "--mode", "interactive", "--out", proof) == 0
    data = json.loads(proof.read_text())
    for query in data["transcript"]["queries"]:
        for opening in query["openings"]:
            opening[2] = 0
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    capsys.readouterr()
    for transcript in (proof, forged):
        assert run("verify", "--instance", instance_file, "--proof", transcript) == 2
        err = capsys.readouterr().err
        assert "non-interactive proofs only" in err and err.count("\n") == 1


def test_verify_truncated_is_malformed(tmp_path, instance_file):
    proof = tmp_path / "proof.bin"
    run("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--seed", 8,
        "--out", proof)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(proof.read_bytes()[:40])
    assert run("verify", "--instance", instance_file, "--proof", truncated) == 2

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a proof at all")
    assert run("verify", "--instance", instance_file, "--proof", garbage) == 2


def test_malformed_instance_exits_2(tmp_path, instance_file, capsys):
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--m", 2, "--t", 1,
               "--seed", 4, "--out", proof) == 0
    data = json.loads(instance_file.read_text())

    def write(name, content):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        return path

    not_an_object = write("list.json", [])
    string_k = write("string_k.json", {**data, "k": str(data["k"])})
    v1 = write("v1.json", {**data, "format": "flowering-instance-v1"})
    no_p_word = write("no_p_word.json", {"values": [0] * 120})
    missing = tmp_path / "missing.json"
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(proof.read_bytes()[:40])
    verify = ("verify", "--instance", instance_file, "--proof")
    prove = ("prove", "--instance", instance_file, "--out", tmp_path / "p.bin")
    mc = ("soundness-mc", "--instance", instance_file, "--out", tmp_path / "mc.json",
          "--config")
    gen = ("gen", "--r", 3, "--p", 101, "--k", 6, "--out", tmp_path / "g.json",
           "--genset")
    capsys.readouterr()
    for argv, message in (
        (("verify", "--instance", not_an_object, "--proof", proof), "malformed instance file"),
        (("verify", "--instance", string_k, "--proof", proof), "malformed instance file"),
        (("verify", "--instance", v1, "--proof", proof), "not a flowering-instance-v2 file"),
        (("prove", "--instance", missing, "--out", tmp_path / "p.bin"),
         "malformed instance file"),
        (prove + ("--word", missing), "malformed word file"),
        (prove + ("--word", no_p_word), "malformed word file"),
        (mc + (missing,), "malformed config file"),
        (mc + (write("ms.json", {"ms": "5"}),), "ms must be positive integers"),
        (mc + (write("trials.json", {"trials": 0}),), "trials must be positive integers"),
        (mc + (write("ts.json", {"ts": [16]}),), "ts must be at most n=15"),
        (gen + (missing,), "malformed genset file"),
        (gen + (write("genset.json", {"vectors": [1, 2]}),), "malformed genset file"),
        (verify + (missing,), "malformed proof file"),
        (verify + (not_json,), "malformed proof file"),
        (verify + (write("list_proof.json", [proof.read_bytes().hex()]),),
         "malformed proof file"),
        (verify + (write("no_hex.json", {"format": "flowering-ni-proof-v1"}),),
         "malformed proof file"),
        (verify + (write("bad_hex.json", {"hex": "zz"}),), "malformed proof file"),
        (verify + (truncated,), "truncated proof"),
    ):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_verify_corrupted_rejects(tmp_path, instance_file):
    proof = tmp_path / "proof.bin"
    run("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--seed", 9,
        "--out", proof)
    blob = bytearray(proof.read_bytes())
    blob[60] ^= 0xFF  # inside the level-0 root
    corrupted = tmp_path / "corrupted.bin"
    corrupted.write_bytes(bytes(blob))
    assert run("verify", "--instance", instance_file, "--proof", corrupted) in (1, 2)


def test_soundness_mc_cli(tmp_path, instance_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "adversaries": ["far-word-honest-fold", "lazy-copy"],
        "deltas": ["1/2"],
        "ms": [5],
        "ts": [2],
        "trials": 200,
    }))
    out = tmp_path / "mc.json"
    csv = tmp_path / "mc.csv"
    assert run("soundness-mc", "--instance", instance_file, "--config", cfg,
               "--seed", 3, "--csv", csv, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["violations"] == 0
    assert len(report["points"]) == 2
    assert csv.read_text().count("\n") == 3

    # determinism
    out2 = tmp_path / "mc2.json"
    assert run("soundness-mc", "--instance", instance_file, "--config", cfg,
               "--seed", 3, "--out", out2) == 0
    assert out2.read_text() == out.read_text()


def test_report_complexity_cli(tmp_path, instance_file):
    out = tmp_path / "complexity.json"
    assert run("report-complexity", "--instance", instance_file, "--m", 4,
               "--t", 2, "--seed", 11, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["all_asserted_hold"]
    assert report["measured"]["proof_length"] == 190
    assert report["bounds"]["proof_length_max"] == 240


def test_prove_with_explicit_word(tmp_path, instance_file):
    import random

    from flowering.experiments import Instance, random_codeword_word

    instance = Instance.from_json(json.loads(instance_file.read_text()))
    word = random_codeword_word(instance, random.Random(5))
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(word.to_json()))
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--word", word_file,
               "--m", 2, "--t", 1, "--out", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof) == 0


def test_gen_from_parity_check_file(tmp_path):
    matrix = {
        "matrix": [
            [0, 0, 0, 1, 1, 1, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [1, 0, 1, 0, 1, 0, 1],
        ],
        "d": 3,
    }
    genset_file = tmp_path / "hamming.json"
    genset_file.write_text(json.dumps(matrix))
    instance = tmp_path / "hamming_instance.json"
    assert run("gen", "--r", 3, "--p", 101, "--k", 6, "--genset", genset_file,
               "--out", instance) == 0
    data = json.loads(instance.read_text())
    assert len(data["genset"]["vectors"]) == 7
    proof = tmp_path / "hamming_proof.bin"
    assert run("prove", "--instance", instance, "--m", 2, "--t", 2, "--seed", 1,
               "--out", proof) == 0
    assert run("verify", "--instance", instance, "--proof", proof) == 0


def test_genset_defines_the_graph(tmp_path):
    # an instance file cannot name a graph its generating set does not
    # define: reversing the vectors makes another graph with another hash
    original = tmp_path / "original.json"
    assert run("gen", "--r", 3, "--p", 101, "--k", 6, "--out", original) == 0
    data = json.loads(original.read_text())
    data["genset"]["vectors"].reverse()
    reversed_gens = tmp_path / "reversed.json"
    reversed_gens.write_text(json.dumps(data))
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", original, "--m", 2, "--t", 2, "--seed", 1,
               "--out", proof) == 0
    assert run("verify", "--instance", original, "--proof", proof) == 0
    assert run("verify", "--instance", reversed_gens, "--proof", proof) == 1
    # the upper-bound witness is built from the same generating set
    out = tmp_path / "bounds.json"
    assert run("check-bounds", "--instance", reversed_gens, "--out", out) == 0
    assert json.loads(out.read_text())["violations"] == 0


def test_worker_pool_matches_inline(instance_file):
    from fractions import Fraction

    from flowering.experiments import Instance, soundness_mc_point
    from flowering.iopp import ProtocolParams

    instance = Instance.from_json(json.loads(instance_file.read_text()))
    kwargs = dict(adversary="lazy-copy", delta=Fraction(1, 2),
                  params=ProtocolParams(3, 2), trials=60, seed=9)
    inline = soundness_mc_point(instance, workers=1, **kwargs)
    pooled = soundness_mc_point(instance, workers=2, **kwargs)
    assert inline.accepts == pooled.accepts
    assert inline.to_json() == pooled.to_json()


def test_prove_verify_across_grid(tmp_path):
    # every honest proof verifies, for the whole instance grid
    for r in range(2, 9):
        n = (1 << r) - 1
        instance = tmp_path / f"instance_r{r}.json"
        assert run("gen", "--r", r, "--p", 2147483647, "--k", -(-3 * n // 4),
                   "--out", instance) == 0
        proof = tmp_path / f"proof_r{r}.bin"
        assert run("prove", "--instance", instance, "--m", 2, "--t", 2,
                   "--seed", r, "--out", proof) == 0
        assert run("verify", "--instance", instance, "--proof", proof) == 0


def test_check_bounds_cli(tmp_path):
    instance = tmp_path / "t1.json"
    assert run("gen", "--r", 2, "--p", 5, "--k", 2, "--out", instance) == 0
    out = tmp_path / "bounds.json"
    assert run("check-bounds", "--instance", instance, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["violations"] == 0
    assert report["levels"][0]["dimension"] == 2
    assert report["distance"]["bruteforce_distance"] == "2/3"
    assert report["distance"]["witness_weight"] == 4
