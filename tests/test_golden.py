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
    (3, 1): "3c56703145273e9e46cd66630f63fb2560a56672e499db2ff9d2c82488f8d6b7",
    (3, 2): "fe2fc8500e6254551caa7fa3d49f5e88b19ac19529774134a7d66d5db051f406",
    (4, 1): "cca3f23d755ff4a0c88e1b2ab2295cb5f956d147f0ba75629cdddf5839440a0f",
    (4, 2): "fc9feeac1765a49f6f9849b07510eaf64f4420e0fdc41faa742ad8a211c48191",
    (6, 1): "3fc0e787a77054ca0aeb89434934e5d1ab6f4728f384d3bc21178586ccb90e0d",
    (8, 1): "321a5102f4b811a3da1290102c2a93b06473223180980571c20a34a556118d3a",
}
# the SHA-256 of each proof's concatenated Merkle roots, which no change of
# wire format moves: these are format v5's
NI_ROOTS = {
    (3, 1): "3fc212250c88a81ecadbfc97c959ccaf9f4ca4e3c0f77099181713a685e06caf",
    (3, 2): "8b0b581ea4e191d99dcd2e1504768378abe08a9642baa6156dec2a2160cc647b",
    (4, 1): "98bf347e0eac46ef0e9e05e948b6d2bc9c7e5c352722e7df71a0cbbab7cd9b73",
    (4, 2): "712dd17134ee468002261956d48fca71fc196da31e234a05e84fa02abf6d992a",
    (6, 1): "6def06980707695a01b5244472d07b792d4f10013bb0781089d087dcbc6f9960",
    (8, 1): "21ff8cec9e4cc07ed356710bd59ac4ee64646f79cfd67ce8ba168f0228698a03",
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
