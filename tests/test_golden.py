"""Byte-identity pins: SHA-256 digests of NI proofs, an interactive
transcript, a Monte-Carlo report, the graph-0 digest and the RS dual rows
on fixed instances and seeds.

A change that is meant to leave proofs and reports as they are must leave
these digests as they are; a change of format or randomness updates them
on purpose and says so.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from flowering.experiments import (
    derive_seed,
    gen_instance,
    honest_run,
    random_codeword_word,
    soundness_mc,
)
from flowering.field import PrimeField
from flowering.iopp import ProtocolParams
from flowering.niproof import prove_noninteractive
from flowering.reed_solomon import RSCode

P = 2**31 - 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_bytes(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def instance(r: int):
    n = (1 << r) - 1
    return gen_instance(r, P, n - 2)


NI_PROOFS = {
    (3, 1): "6d90d632014c04a35ed89f13c9e5b0872fd0ba5d17c7f13ec1090cce66e52ee2",
    (3, 2): "abd4684b0384293ab2aa8a3e805e5d30cc110ae370e13d4935cc59ed5d7439ac",
    (4, 1): "3494c079bfa0a6d722841f5c82d81d47b2c85575ef5e7ca86b0895ac601e7415",
    (4, 2): "ff69c275e075f16ad466a99d823e8bd83674e6249dc0c3bee287963b7b2d5bbb",
    (6, 1): "978f3f0d386106fae18d57b171f06651167617a855a38ea46f0f6bee2c7ffa56",
    (8, 1): "f57b697b41445dfec431ce9b0f00355fd95cef326d10b3c6381b160b56b9a8b5",
}


@pytest.mark.parametrize("r,seed", sorted(NI_PROOFS))
def test_ni_proof_bytes(r, seed):
    inst = instance(r)
    word = random_codeword_word(inst, random.Random(derive_seed(seed, 1)))
    proof, transcript = prove_noninteractive(inst.seq, inst.rs, word, ProtocolParams(10, 2))
    assert transcript.accept
    assert sha256(proof.serialize()) == NI_PROOFS[(r, seed)]


def test_honest_run_transcript_bytes():
    tr = honest_run(instance(4), ProtocolParams(10, 2), seed=7)
    assert tr.accept
    assert sha256(json_bytes(tr.to_json())) == (
        "2d724277d6df5f784800300190e6b0a5b83243d215453a03375b03bc3bc13fe3")


def test_soundness_mc_report_bytes():
    # a small field, so that both adversaries are accepted in some trials
    report = soundness_mc(gen_instance(3, 11, 5), ["far-word-honest-fold", "lazy-copy"],
                          [Fraction(1, 10), Fraction(1, 2)], [1, 5], [1, 2],
                          trials=40, seed=3)
    assert 0 < sum(pt["accepts"] for pt in report["points"]) < 16 * 40
    assert sha256(json_bytes(report)) == (
        "6710ff1a324cfbe355317bc257c45bfb77add11f24723a58fbea3a4db566cc7a")


def test_graph0_hash_and_parity_rows_bytes():
    # the digest of the r = 8 graph 0, which every chain digest and so every
    # proof header binds, and all n - 1 dual rows on the default points
    # (those of every k are a prefix)
    assert instance(8).seq.graphs[0].digest().hex() == (
        "97c260981471d6da8e9176d534297c567febeb04e30edb00583a12aa5edc2115")
    rows = RSCode.with_default_points(PrimeField(P), 255, 1).parity_rows()
    assert sha256(json_bytes(rows)) == (
        "d37ea9d3a92a7ec19b5435f5ac6c835afbd2e5be6ed90b0e80b98d1057eabb45")
