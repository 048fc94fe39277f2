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
from flowering.niproof import NIProof, byte_split, prove_noninteractive
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
    (3, 1): "6a58f4a4916e43ab4fdf844977da83420ee8c5c8a2c588a9aa1f8dd95fce0f36",
    (3, 2): "0876e8546302b6a80b6a8705358f282320565c5099d4b31864ca5828992ae0d5",
    (4, 1): "1d5cbd12f4c769f285d785cb1494c423295a20efdf86e56522fe6616943ccd55",
    (4, 2): "96d59843a9de39bd7837febe4355b26922999c9a13bb1868ba42a2d670f1d8f5",
    (6, 1): "65a4128765f63bddb2dbd36d8f205c025cb83672307870f85a7c6f78d354c481",
    (8, 1): "c254d0ac3b94675400e76b873f51d9c2bdb8cde9a5e108bdbe859e80382576e7",
}
# the SHA-256 of each proof's concatenated Merkle roots, which a change of
# wire format alone does not move.  Every root past level 0 follows the
# Fiat-Shamir challenges, and so the chain digest: these are format v8's,
# whose digest names the generating set, with 16-class leaves
NI_ROOTS = {
    (3, 1): "924460f28ba37e090a85638e9f452780355903e6097adcfb3e91fd44d0fa93f6",
    (3, 2): "f6586a8d6cf4e8aa6759c941683839d82de2c763e81aae629da0f3dc128275d2",
    (4, 1): "ea25f66370387f5bdd74a37e94f91e65661d3bbb1b365911dadc77baff6c45f8",
    (4, 2): "68b7327229db09f408819ab140c26183cf7db7e34f6390b580ba4a6a921d86f9",
    (6, 1): "57cd3cb890c582ea97cc23ae4b311108dc31c5911b283f30d2c0d7ddb80517a9",
    (8, 1): "666132a703e3b17286033a8b47a90e8b1945dd974671f834983485676089a7cf",
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


@pytest.mark.parametrize("r,seed", sorted(NI_PROOFS))
def test_ni_proof_byte_split(r, seed):
    # the byte split of each pinned proof covers it: its parts sum to its
    # length, and its levels follow the roots and each other to its end
    inst = instance(r)
    word = random_codeword_word(inst, random.Random(derive_seed(seed, 1)))
    blob = prove_noninteractive(inst.seq, inst.rs, word, ProtocolParams(10, 2))[0].serialize()
    split = byte_split(blob)
    assert sum(split[part] for part in ("header", "roots", "values", "framing",
                                        "digests")) == len(blob)
    assert split["digests"] == 32 * split["digest_count"]
    ends = [split["header"] + split["roots"]] + [end for _, _, end in split["levels"]]
    assert [start for start, _, _ in split["levels"]] == ends[:-1] and ends[-1] == len(blob)


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
    # the digest of the r = 8 graph 0, which word files and the interactive
    # run report name graph 0 by, and all n - 1 dual rows on the default
    # points (those of every k are a prefix)
    assert instance(8).seq.graphs[0].digest().hex() == (
        "97c260981471d6da8e9176d534297c567febeb04e30edb00583a12aa5edc2115")
    rows = RSCode.with_default_points(PrimeField(P), 255, 1).parity_rows()
    assert sha256(json_bytes(rows)) == (
        "d37ea9d3a92a7ec19b5435f5ac6c835afbd2e5be6ed90b0e80b98d1057eabb45")
