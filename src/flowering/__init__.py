"""Proximity testing for Reed-Solomon codes on regular indexed multigraphs.

Build a blossoming sequence of flowering cuts, fold words down to a single
flower, and test proximity with logarithmically many oracle reads.
"""

from .cayley import (
    GenSet,
    blossoming_cayley,
    cayley_rim,
    gen_set_from_parity_check,
    gen_set_full,
    min_distance_bounds,
    upper_bound_witness,
)
from .commitment import FSState, MerkleTree, MultiOpening, verify_open
from .errors import FloweringError, TooLargeError
from .field import NotPrimeError, PrimeField
from .folding import BlossomingSequence, fold
from .graph_code import (
    GraphCode,
    Word,
    cut_word,
    hamming_distance,
    relative_weight,
    vertex_distance,
)
from .iopp import (
    ProtocolParams,
    Transcript,
    commit_soundness_trial,
    prover_commit,
    run_protocol,
    soundness_bound,
    verifier_query,
)
from .niproof import NIProof, prove_noninteractive, verify_noninteractive
from .reed_solomon import RSCode
from .rim_graph import RIM, FloweringCut, cut_graph, flowering_cut_validate, mu

__all__ = [
    "BlossomingSequence",
    "FloweringCut",
    "FloweringError",
    "FSState",
    "GenSet",
    "GraphCode",
    "MerkleTree",
    "MultiOpening",
    "NIProof",
    "NotPrimeError",
    "PrimeField",
    "ProtocolParams",
    "RIM",
    "RSCode",
    "TooLargeError",
    "Transcript",
    "Word",
    "blossoming_cayley",
    "cayley_rim",
    "commit_soundness_trial",
    "cut_graph",
    "cut_word",
    "flowering_cut_validate",
    "fold",
    "gen_set_from_parity_check",
    "gen_set_full",
    "hamming_distance",
    "min_distance_bounds",
    "mu",
    "prove_noninteractive",
    "prover_commit",
    "relative_weight",
    "run_protocol",
    "soundness_bound",
    "upper_bound_witness",
    "verifier_query",
    "verify_noninteractive",
    "verify_open",
    "vertex_distance",
]
__version__ = "0.1.0"
