import json
import random
from fractions import Fraction

import pytest

from flowering import experiments, graph_code
from flowering.cli import main
from flowering.experiments import Instance, random_codeword_word
from flowering.iopp import ProtocolParams, run_protocol


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


@pytest.mark.parametrize("r, vectors", [(1, None), (2, None), (3, None), (2, [1, 2])],
                         ids=["1", "2", "3", "basis-r2"])
def test_every_gen_instance_round_trips(tmp_path, r, vectors):
    # every command loads what gen writes, the one-vector r = 1 genset and
    # the basis of F_2^2 too.  A check outside its hypothesis is null, not a
    # violation: rounds = r < log2 N needs N > 2^r, false at r = 1 (N = 1)
    # and on the basis (N = 4), and a corrupted witness is rejected only
    # when k < n, while k = n = 1 at r = 1 makes every word a codeword
    n = len(vectors) if vectors else (1 << r) - 1
    instance, proof = tmp_path / "instance.json", tmp_path / "proof.bin"
    genset = "full"
    if vectors:
        genset = tmp_path / "genset.json"
        genset.write_text(json.dumps({"r": r, "d": 3, "vectors": vectors}))
    assert run("gen", "--r", r, "--p", 2147483647, "--k", max(n - 1, 1),
               "--genset", genset, "--out", instance) == 0
    assert run("prove", "--instance", instance, "--t", 1, "--out", proof) == 0
    assert run("verify", "--instance", instance, "--t", 1, "--proof", proof) == 0
    bounds, complexity = tmp_path / "bounds.json", tmp_path / "complexity.json"
    assert run("check-bounds", "--instance", instance, "--out", bounds) == 0
    assert run("report-complexity", "--instance", instance, "--t", 1,
               "--out", complexity) == 0
    rejected = json.loads(bounds.read_text())["distance"]["corrupted_witness_rejected"]
    assert rejected is (None if r == 1 else True)
    rounds = json.loads(complexity.read_text())["asserted"]["rounds_lt_log2N"]
    assert rounds is (True if r >= 2 and not vectors else None)


def test_prove_verify_ni(tmp_path, instance_file):
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--m", 4, "--t", 2,
               "--seed", 5, "--out", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof, "--m", 4) == 0

    # byte-identical on repeat invocations
    proof2 = tmp_path / "proof2.bin"
    assert run("prove", "--instance", instance_file, "--m", 4, "--t", 2,
               "--seed", 5, "--out", proof2) == 0
    assert proof.read_bytes() == proof2.read_bytes()


def test_prove_verify_on_points_in_no_progression(tmp_path, instance_file):
    # an instance file may name any distinct points; the squares 1, 4, ...,
    # 225 are no arithmetic progression, so prove's self-run and verify
    # take the RS code's general route to its dual rows.  The proof binds
    # the points: the instance on 1..n rejects it
    data = json.loads(instance_file.read_text())
    data["points"] = [str(i * i) for i in range(1, 16)]
    squares, proof = tmp_path / "squares.json", tmp_path / "proof.bin"
    squares.write_text(json.dumps(data))
    assert run("prove", "--instance", squares, "--seed", 3, "--out", proof) == 0
    assert run("verify", "--instance", squares, "--proof", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof) == 1


def test_prove_verify_ni_json(tmp_path, instance_file):
    proof = tmp_path / "proof.json"
    assert run("prove", "--instance", instance_file, "--m", 2, "--t", 1,
               "--seed", 6, "--json", "--out", proof) == 0
    assert json.loads(proof.read_text())["format"] == "flowering-ni-proof-v8"
    assert run("verify", "--instance", instance_file, "--proof", proof,
               "--m", 2, "--t", 1) == 0


def test_verifier_chooses_m_and_t(tmp_path, instance_file):
    # a proof made with fewer walks or indices than the verifier's is
    # rejected, as is one made with more
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--m", 1, "--t", 1,
               "--seed", 3, "--out", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof) == 1
    assert run("verify", "--instance", instance_file, "--proof", proof,
               "--m", 1, "--t", 1) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof, "--m", 1) == 1
    assert run("verify", "--instance", instance_file, "--proof", proof, "--t", 1) == 1
    strong = tmp_path / "strong.bin"
    assert run("prove", "--instance", instance_file, "--seed", 3, "--out", strong) == 0
    assert run("verify", "--instance", instance_file, "--proof", strong) == 0
    assert run("verify", "--instance", instance_file, "--proof", strong,
               "--m", 1, "--t", 1) == 1


def test_prove_verify_interactive(tmp_path, instance_file, capsys):
    # a transcript commits to nothing and its writer picks the challenges, so
    # verify refuses it outright: an all-zero forgery must not be accepted
    proof = tmp_path / "transcript.json"
    assert run("prove", "--instance", instance_file, "--m", 3, "--t", 2,
               "--seed", 7, "--mode", "interactive", "--out", proof) == 0
    data = json.loads(proof.read_text())
    instance = Instance.from_json(json.loads(instance_file.read_text()))
    assert data["graph_hash"] == instance.seq.graphs[0].digest().hex()
    assert data["chain_hash"] == instance.seq.digest().hex()
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
    # k a plain int, p and each point a decimal string or a plain int: a
    # bool or a float is refused, not truncated
    points, vectors = data["points"], data["genset"]["vectors"]
    mistyped = [(write(f"mistyped_{i}.json", {**data, **change}), message)
                for i, (change, message) in enumerate((
                    ({"k": 5.5}, "k must be an integer"),
                    ({"k": True}, "k must be an integer"),
                    ({"points": [1.5] + points[1:]}, "a point must be a decimal string"),
                    ({"points": [True] + points[1:]}, "a point must be a decimal string"),
                    ({"points": "".join(points)}, "points must be a list"),
                    ({"p": float(data["p"])}, "p must be a decimal string"),
                    # a decimal string is an int's one spelling, though
                    # int() would also read underscores or a leading zero
                    ({"p": "2_147_483_647"}, "p must be a decimal string"),
                    ({"p": "0" + data["p"]}, "p must be a decimal string"),
                    # the genset's r and d plain ints, its vectors a list of them
                    ({"genset": {**data["genset"], "d": True}}, "r and d must be integers"),
                    ({"genset": {**data["genset"], "vectors": [True] + vectors[1:]}},
                     "vectors must be a list of integers")))]
    # a graph-0 table of 2^40 x 40 entries, refused by each command that
    # builds it before anything of size 2^r is built; verify builds none
    r40 = write("r40.json", {**data, "k": 38, "points": [str(x) for x in range(1, 41)],
                             "genset": {"r": 40, "d": 3, "vectors": [1 << i for i in range(40)]}})
    v1 = write("v1.json", {**data, "format": "flowering-instance-v1"})
    no_p_word = write("no_p_word.json", {"values": [0] * 120})
    # word values outside [0, p): a negative one, one past u64 and p itself
    p = int(data["p"])
    out_of_field = [write(f"word_{i}.json", {"p": str(p), "values": [str(bad)] + ["0"] * 119})
                    for i, bad in enumerate((-1, 2**64, p))]
    # word p and values as in an instance file: a float or a bool is refused,
    # not truncated, and a string of digits is not a list of values
    mistyped_words = [(write(f"mistyped_word_{i}.json", {"p": str(p), **change}), message)
                      for i, (change, message) in enumerate((
                          ({"values": [37.5] + ["0"] * 119}, "a word value must be a decimal"),
                          ({"values": [True] + ["0"] * 119}, "a word value must be a decimal"),
                          ({"values": [" 1"] + ["0"] * 119}, "a word value must be a decimal"),
                          ({"p": float(p), "values": ["0"] * 120}, "p must be a decimal string"),
                          ({"values": "0" * 120}, "values must be a list")))]
    missing = tmp_path / "missing.json"
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(proof.read_bytes()[:40])
    # a version-1 header, and a word file naming graph 0 by the version-1
    # hash, the SHA-256 of its adjacency as JSON
    v1_proof = tmp_path / "v1_proof.bin"
    v1_proof.write_bytes(proof.read_bytes()[:4] + b"\x01\x00" + proof.read_bytes()[6:])
    # a version-2 header, the format of one Merkle leaf per class
    v2_proof = tmp_path / "v2_proof.bin"
    v2_proof.write_bytes(proof.read_bytes()[:4] + b"\x02\x00" + proof.read_bytes()[6:])
    # a version-3 header, the format of a full sibling path per record
    v3_proof = tmp_path / "v3_proof.bin"
    v3_proof.write_bytes(proof.read_bytes()[:4] + b"\x03\x00" + proof.read_bytes()[6:])
    # a version-4 header, the format that committed every level in class order
    v4_proof = tmp_path / "v4_proof.bin"
    v4_proof.write_bytes(proof.read_bytes()[:4] + b"\x04\x00" + proof.read_bytes()[6:])
    # a version-5 header, the format that sent every value as a u64
    v5_proof = tmp_path / "v5_proof.bin"
    v5_proof.write_bytes(proof.read_bytes()[:4] + b"\x05\x00" + proof.read_bytes()[6:])
    # a version-6 header, the format of 8-class Merkle leaves
    v6_proof = tmp_path / "v6_proof.bin"
    v6_proof.write_bytes(proof.read_bytes()[:4] + b"\x06\x00" + proof.read_bytes()[6:])
    # a version-7 header, whose chain digest named graph 0's rows and every cut
    v7_proof = tmp_path / "v7_proof.bin"
    v7_proof.write_bytes(proof.read_bytes()[:4] + b"\x07\x00" + proof.read_bytes()[6:])
    v1_word = write("v1_word.json", {
        "p": str(p), "values": ["0"] * 120,
        "graph_hash": "fff32483e303ad9426ac740d8ebca6a1e280d17f31fa2cd30e6c5eeb1b3a7d48"})
    verify = ("verify", "--instance", instance_file, "--proof")
    prove = ("prove", "--instance", instance_file, "--out", tmp_path / "p.bin")
    complexity = ("report-complexity", "--instance", instance_file, "--out",
                  tmp_path / "c.json")
    mc = ("soundness-mc", "--instance", instance_file, "--out", tmp_path / "mc.json",
          "--config")
    gen = ("gen", "--r", 3, "--p", 101, "--k", 6, "--out", tmp_path / "g.json",
           "--genset")
    gen2 = ("gen", "--r", 2, "--p", 101, "--k", 1, "--out", tmp_path / "g.json",
            "--genset")
    hamming2 = [[1, 0, 1], [0, 1, 1]]
    # a parity-check genset takes the explicit form's rule: a non-empty list
    # of equal-length rows of plain-int 0/1, d a plain int
    bad_matrices = [(write(f"matrix_{i}.json", content), message)
                    for i, (content, message) in enumerate((
                        ({"matrix": hamming2, "d": 2.5}, "d must be an integer"),
                        ({"matrix": hamming2, "d": True}, "d must be an integer"),
                        ({"matrix": [[1, 0], [0, 1, 1]], "d": 2}, "equal-length rows"),
                        ({"matrix": [[True, False, True], [0, 1, 1]], "d": 2},
                         "equal-length rows of 0/1 integers"),
                        ({"matrix": [], "d": 2}, "a non-empty list"),
                        ({"matrix": [[1, 0, 2], [0, 1, 1]], "d": 2}, "0/1 integers")))]
    negative_d = write("negative_d.json", {**data, "genset": {**data["genset"], "d": -5}})
    capsys.readouterr()
    for argv, message in (
        (("verify", "--instance", not_an_object, "--proof", proof), "malformed instance file"),
        (("verify", "--instance", string_k, "--proof", proof), "malformed instance file"),
        *((("prove", "--instance", path, "--out", tmp_path / "p.bin"), message)
          for path, message in mistyped),
        *((("check-bounds", "--instance", path, "--out", tmp_path / "b.json"), message)
          for path, message in mistyped),
        (("verify", "--instance", v1, "--proof", proof), "not a flowering-instance-v2 file"),
        (("prove", "--instance", r40, "--out", tmp_path / "p.bin"), "MAX_GRAPH_ENTRIES"),
        (("check-bounds", "--instance", r40, "--out", tmp_path / "b.json"), "MAX_GRAPH_ENTRIES"),
        (("report-complexity", "--instance", r40, "--out", tmp_path / "c.json"),
         "MAX_GRAPH_ENTRIES"),
        (("gen", "--r", 40, "--p", p, "--k", 38, "--out", tmp_path / "g.json"),
         "MAX_GRAPH_ENTRIES"),
        (("prove", "--instance", missing, "--out", tmp_path / "p.bin"),
         "malformed instance file"),
        (prove + ("--word", missing), "malformed word file"),
        (prove + ("--word", no_p_word), "malformed word file"),
        *((prove + ("--word", word), "must lie in [0, ") for word in out_of_field),
        *((prove + ("--word", word), message) for word, message in mistyped_words),
        (prove + ("--word", v1_word), "malformed word file"),
        (prove + ("--m", 16385), "a proof header holds m <= 16384"),
        (verify + (proof, "--m", 16385), "a proof header holds m <= 16384"),
        # an m below 1 or a t outside 1..n is refused before any work: by
        # prove, by verify of its own parameters and by report-complexity
        *((command + (flag, value), message)
          for command in (prove, verify + (proof,), complexity)
          for flag, value, message in (("--m", 0, "need m >= 1"), ("--m", -1, "need m >= 1"),
                                       ("--t", 0, "need 1 <= t <= 15"),
                                       ("--t", -1, "need 1 <= t <= 15"),
                                       ("--t", 16, "need 1 <= t <= 15"))),
        (mc + (missing,), "malformed config file"),
        (mc + (write("ms.json", {"ms": "5"}),), "ms must be positive integers"),
        (mc + (write("trials.json", {"trials": 0}),), "trials must be positive integers"),
        (mc + (write("ts.json", {"ts": [16]}),), "ts must be at most n=15"),
        (mc + (write("zero_den.json", {"deltas": ["1/0"]}),), "malformed config file"),
        (mc + (write("negative.json", {"deltas": ["-1/2"]}),), "deltas must lie in [0, 1]"),
        # the config is checked by type, not coerced: a string is not a list,
        # a bool is not a count and a float is not an exact delta
        (mc + (write("adv_str.json", {"adversaries": "lazy-copy"}),),
         "adversaries must be a list"),
        (mc + (write("trials_bool.json", {"trials": True}),), "trials must be positive integers"),
        (mc + (write("ms_bool.json", {"ms": [True]}),), "ms must be positive integers"),
        (mc + (write("deltas_str.json", {"deltas": "1/2"}),), "deltas must be a list"),
        (mc + (write("deltas_bool.json", {"deltas": [True]}),),
         "deltas must be strings or integers"),
        (mc + (write("deltas_float.json", {"deltas": [0.1]}),),
         "deltas must be strings or integers"),
        (mc + (write("workers.json", {"workers": 2}),), "unknown config keys ['workers']"),
        (gen + (missing,), "malformed genset file"),
        *((gen2 + (path,), message) for path, message in bad_matrices),
        (gen + (write("genset_d.json", {**data["genset"], "d": -5}),),
         "d must be an integer >= 1"),
        (("prove", "--instance", negative_d, "--out", tmp_path / "p.bin"),
         "d must be an integer >= 1"),
        (gen + (write("genset.json", {"vectors": [1, 2]}),), "malformed genset file"),
        (gen + (write("genset_r2.json", {"r": 2, "d": 3, "vectors": [1, 2, 3]}),),
         "the generating set has r=2, not r=3"),
        # the default points 1..7 collide mod 5 only because p <= n
        (("gen", "--r", 3, "--p", 5, "--k", 2, "--out", tmp_path / "g.json"),
         "need p > n, got p=5, n=7"),
        (verify + (missing,), "malformed proof file"),
        (verify + (not_json,), "malformed proof file"),
        (verify + (write("list_proof.json", [proof.read_bytes().hex()]),),
         "malformed proof file"),
        (verify + (write("no_hex.json", {"format": "flowering-ni-proof-v8"}),),
         "malformed proof file"),
        (verify + (write("bad_hex.json", {"hex": "zz"}),), "malformed proof file"),
        (verify + (truncated,), "truncated proof"),
        (verify + (v1_proof,), "unsupported version 1"),
        (verify + (v2_proof,), "unsupported version 2"),
        (verify + (v3_proof,), "unsupported version 3"),
        (verify + (v4_proof,), "unsupported version 4"),
        (verify + (v5_proof,), "unsupported version 5"),
        (verify + (v6_proof,), "unsupported version 6"),
        (verify + (v7_proof,), "unsupported version 7"),
    ):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
    # the r = 40 chain is named by its generating set, so verify loads it
    # and rejects a proof of the r = 4 chain
    assert run("verify", "--instance", r40, "--proof", proof) == 1


def test_unwritable_output_exits_2(tmp_path, instance_file, capsys, monkeypatch):
    # every output a command writes goes through one writer: a path in a
    # missing directory is one error line and exit 2, never a traceback;
    # it is refused before the command runs, so no other output is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ms": [2], "ts": [1], "trials": 5}))
    bad = tmp_path / "missing" / "out"
    good = tmp_path / "out"
    mc = ("soundness-mc", "--instance", instance_file, "--config", cfg)
    capsys.readouterr()
    for argv in (
        ("gen", "--r", 3, "--p", 101, "--k", 6, "--out", bad),
        ("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--out", bad),
        ("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--json", "--out", bad),
        ("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--mode", "interactive",
         "--out", bad),
        ("check-bounds", "--instance", instance_file, "--out", bad),
        ("report-complexity", "--instance", instance_file, "--m", 2, "--t", 1, "--out", bad),
        mc + ("--out", bad),
        mc + ("--out", good, "--csv", bad),
    ):
        assert run(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: FileNotFoundError")
        assert captured.err.count("\n") == 1 and "error:" not in captured.out
    assert not good.exists()

    def no_proving(*args, **kwargs):
        raise AssertionError("proved before checking the output")

    monkeypatch.setattr("flowering.cli.prove_noninteractive", no_proving)
    assert run("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--out", bad) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: FileNotFoundError")


def test_verify_corrupted_rejects(tmp_path, instance_file):
    proof = tmp_path / "proof.bin"
    run("prove", "--instance", instance_file, "--m", 2, "--t", 1, "--seed", 9,
        "--out", proof)
    blob = bytearray(proof.read_bytes())
    blob[60] ^= 0xFF  # inside the level-0 root
    corrupted = tmp_path / "corrupted.bin"
    corrupted.write_bytes(bytes(blob))
    assert run("verify", "--instance", instance_file, "--proof", corrupted,
               "--m", 2, "--t", 1) in (1, 2)


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
    instance = Instance.from_json(json.loads(instance_file.read_text()))
    word = random_codeword_word(instance, random.Random(5))
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(word.to_json()))
    proof = tmp_path / "proof.bin"
    assert run("prove", "--instance", instance_file, "--word", word_file,
               "--m", 2, "--t", 1, "--out", proof) == 0
    assert run("verify", "--instance", instance_file, "--proof", proof, "--m", 2, "--t", 1) == 0


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
    assert run("verify", "--instance", instance, "--proof", proof, "--m", 2) == 0


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
    assert run("verify", "--instance", original, "--proof", proof, "--m", 2) == 0
    assert run("verify", "--instance", reversed_gens, "--proof", proof, "--m", 2) == 1
    # the upper-bound witness is built from the same generating set
    out = tmp_path / "bounds.json"
    assert run("check-bounds", "--instance", reversed_gens, "--out", out) == 0
    assert json.loads(out.read_text())["violations"] == 0


def test_soundness_point_runs_each_trial_through_run_protocol(instance_file, monkeypatch):
    # a caller counts or times the study's trials by wrapping
    # experiments.run_protocol, so each trial is one call through that name
    instance = Instance.from_json(json.loads(instance_file.read_text()))
    point = (instance, "lazy-copy", Fraction(1, 2), ProtocolParams(3, 2), 60, 9)
    unpatched = experiments.soundness_mc_point(*point)
    calls = []

    def counting_run_protocol(*args, **kwargs):
        calls.append(kwargs)
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_protocol", counting_run_protocol)
    assert experiments.soundness_mc_point(*point) == unpatched
    assert calls == [{}] * 60


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
        assert run("verify", "--instance", instance, "--proof", proof, "--m", 2) == 0


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


def test_check_bounds_skips_a_level_over_the_matrix_cap(tmp_path, monkeypatch, capsys):
    # r = 3, k = 5: level 0 has a 16 x 28 parity-check matrix; under a cap
    # of 100 entries its dimension is reported as unknown, not as a failure
    instance = tmp_path / "r3.json"
    assert run("gen", "--r", 3, "--p", 17, "--k", 5, "--out", instance) == 0
    monkeypatch.setattr(graph_code, "MATRIX_CAP", 100)
    out = tmp_path / "bounds.json"
    assert run("check-bounds", "--instance", instance, "--out", out) == 0
    level0 = json.loads(out.read_text())["levels"][0]
    assert level0["dimension"] is None and level0["bound_holds"] is None
    assert "    0      8       28       0      -     12 skip" in capsys.readouterr().out
