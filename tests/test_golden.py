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
from flowering.niproof import NIProof, prove_noninteractive
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
    (3, 1): "f0319bcb7e53fed9551cb961e619612e1a692e74f7de8c7ce70d95b84d664fcf",
    (3, 2): "8b96c49c4db150e59ab141dca800a67143272301bbbea6b0b392537b889890cb",
    (4, 1): "46425a3475d7e3a8dd9efdd67021aa89081b8da08610dcc68358b6ca89f5be0b",
    (4, 2): "fc931214fb681786c556cf8ed7d72cb71beccf03b546d1cdeaaa81c09508735e",
    (6, 1): "f6c4c5aab94f9ac3813390c21d31138d57322128754311e09e6903067cf6bbd9",
    (8, 1): "6094906ac228bd03ac899e13e3ef6811b81c2aed0a6f875f832f4f6a105965e3",
}
# the SHA-256 of each proof's concatenated Merkle roots, which a change of
# wire format alone does not move: these are format v7's, whose leaves hold
# 16 classes (v5 and v6 shared the roots of 8-class leaves)
NI_ROOTS = {
    (3, 1): "e5a64ae2b7266cd260c493926fb9202acb03d74ec1483874545cca66ff70a6f1",
    (3, 2): "3056320125b533192c00f0372f55a1388617a308460f2c41b4888af08c4d5a37",
    (4, 1): "5003bb64f6e5ab946ce793e058e23f6a495c3bb0a230d97542e04bd227c27c20",
    (4, 2): "8a47772fa3ec4ac3d746a4f7319dd0cdf15c27c10cb7222d97e4cb809e47c8b3",
    (6, 1): "c15fb1466268d65916ce0b6d64bd6a2ef848ba7c0109c4f2f128ef42035bb05e",
    (8, 1): "412b11c71c051d0f4a6a1f5e62fb4924c5389dcb58cff6687ed98d002b353332",
}


@pytest.mark.parametrize("r,seed", sorted(NI_PROOFS))
def test_ni_proof_bytes(r, seed):
    inst = instance(r)
    word = random_codeword_word(inst, random.Random(derive_seed(seed, 1)))
    proof, transcript = prove_noninteractive(inst.seq, inst.rs, word, ProtocolParams(10, 2))
    assert transcript.accept
    blob = proof.serialize()
    assert sha256(blob) == NI_PROOFS[(r, seed)]
    assert sha256(b"".join(proof.roots)) == NI_ROOTS[(r, seed)]
    assert NIProof.parse(blob) == proof


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
