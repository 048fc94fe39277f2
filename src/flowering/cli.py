"""Command-line interface.

Subcommands: gen, prove, verify, soundness-mc, report-complexity,
check-bounds.  Every command is deterministic given --seed and produces
byte-identical reports on identical invocations.  verify takes
non-interactive proofs only and exits 0 on accept, 1 on reject, 2 on
malformed input; it checks a proof at its own --m and --t (prove's
defaults unless given), so a proof made with other values is rejected.
``prove --mode interactive`` writes its transcript as a run report, which
verify refuses, since a transcript commits to nothing and its writer chose
the challenges.  Every input file (instance, genset, word,
config and proof) is read by one loader and every output file (instance,
proof, transcript, report and CSV) written by one writer, so a missing or
malformed input or an unwritable output exits 2 with a one-line error.  The
directory of every output is checked before the command runs, so an output
in a missing directory costs no work and leaves no other output behind.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .cayley import GenSet, gen_set_from_parity_check
from .errors import FloweringError
from .experiments import (
    Instance,
    bounds_report,
    complexity_report,
    derive_seed,
    gen_instance,
    random_codeword_word,
    soundness_mc,
)
from .graph_code import Word
from .iopp import DEFAULT_PARAMS, ProtocolParams, run_protocol
from .niproof import VERSION, NIProof, check_params, prove_noninteractive, verify_noninteractive

TRANSCRIPT_FORMAT = "flowering-transcript-v1"
# the d of a parity-check genset file that names none
DEFAULT_D = 3
MC_DEFAULTS = {
    "adversaries": ["far-word-honest-fold", "lazy-copy"],
    "deltas": ["1/2"],
    "ms": [10],
    "ts": [2],
    "trials": 1000,
}


def _write(path: str, data) -> None:
    """Write data to the file at path: bytes as they are, a str as its
    bytes and a dict as indented JSON with sorted keys, with any write
    error raised as a one-line FloweringError."""
    if isinstance(data, dict):
        data = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if isinstance(data, str):
        data = data.encode()
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _check_writable(path: str) -> None:
    """Raise the error _write would raise on a path whose directory is
    missing or not writable, without creating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(parent):
        if os.access(parent, os.W_OK | os.X_OK):
            return
        code = errno.EACCES
    else:
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    # OSError picks the subclass of the errno, as open() does
    raise _cannot_write(path, OSError(code, os.strerror(code), path))


def _cannot_write(path: str, exc: OSError) -> FloweringError:
    return FloweringError(f"cannot write {path}: {type(exc).__name__}: {exc}")


def _load(kind: str, path: str, parse, read=json.load):
    """parse(read(the file at path)), by default of the JSON in the file,
    with every read or shape error of the file raised as a one-line
    FloweringError."""
    try:
        with open(path, "rb") as fh:
            return parse(read(fh))
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError, FloweringError) as exc:
        raise FloweringError(
            f"malformed {kind} file {path}: {type(exc).__name__}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    return _load("instance", path, Instance.from_json)


def _parse_genset(data: dict) -> GenSet:
    if "matrix" in data:
        return gen_set_from_parity_check(data["matrix"], data.get("d", DEFAULT_D))
    return GenSet.from_json(data)


def _parse_mc_config(cfg: dict) -> dict:
    """The study's config over its defaults; soundness_mc checks the values.
    A delta is exact: a string such as "1/2" or an int, never a float or bool."""
    study = {**MC_DEFAULTS, **cfg}
    unknown = sorted(set(cfg) - MC_DEFAULTS.keys())
    if unknown:
        raise FloweringError(
            f"unknown config keys {unknown}; a config takes {', '.join(MC_DEFAULTS)}")
    if isinstance(study["deltas"], list):
        if not all(isinstance(d, str) or type(d) is int for d in study["deltas"]):
            raise FloweringError(
                f"deltas must be strings or integers, got {study['deltas']!r}")
        study["deltas"] = [Fraction(d) for d in study["deltas"]]
    return study


def cmd_gen(args) -> int:
    genset = args.genset
    if genset != "full":
        genset = _load("genset", genset, _parse_genset)
    instance = gen_instance(args.r, args.p, args.k, genset)
    _write(args.out, instance.to_json())
    print(f"wrote instance: r={instance.r} n={instance.n} k={instance.rs.k} "
          f"p={instance.field.p} -> {args.out}")
    return 0


def cmd_prove(args) -> int:
    instance = _load_instance(args.instance)
    params = ProtocolParams(args.m, args.t)
    if args.word:
        word = _load("word", args.word,
                     lambda data: Word.from_json(instance.seq.graphs[0], instance.field, data))
    else:
        word = random_codeword_word(instance, random.Random(derive_seed(args.seed, 1)))

    if args.mode == "ni":
        proof, transcript = prove_noninteractive(instance.seq, instance.rs, word, params)
        blob = proof.serialize()
        if args.json:
            blob = {"format": f"flowering-ni-proof-v{VERSION}", "hex": blob.hex()}
        _write(args.out, blob)
    else:
        transcript = run_protocol(instance.seq, instance.rs, word, params,
                                  derive_seed(args.seed, 2))
        _write(args.out, {
            "format": TRANSCRIPT_FORMAT,
            "p": str(instance.field.p),
            "graph_hash": instance.seq.graphs[0].digest().hex(),
            "chain_hash": instance.seq.digest().hex(),
            "m": params.m,
            "t": params.t,
            "transcript": transcript.to_json(),
        })
    print(f"proof written to {args.out} (accept={transcript.accept}, "
          f"oracle_reads={transcript.counters.oracle_reads})")
    return 0 if transcript.accept else 1


def _parse_proof(blob: bytes) -> NIProof:
    """A binary NI proof, or its JSON form {"hex": ...}."""
    if blob.lstrip()[:1] in (b"{", b"["):
        data = json.loads(blob)
        if isinstance(data, dict) and data.get("format") == TRANSCRIPT_FORMAT:
            raise FloweringError(
                "verify takes non-interactive proofs only; an interactive transcript "
                "is a run report and proves nothing")
        blob = bytes.fromhex(data["hex"])
    return NIProof.parse(blob)


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    params = ProtocolParams(args.m, args.t)
    check_params(params, instance.n)
    proof = _load("proof", args.proof, _parse_proof, read=lambda fh: fh.read())
    accept, _ = verify_noninteractive(instance.seq, instance.rs, proof, params)
    print("accept" if accept else "reject")
    return 0 if accept else 1


def cmd_soundness_mc(args) -> int:
    instance = _load_instance(args.instance)
    cfg = _load("config", args.config, _parse_mc_config)
    report = soundness_mc(instance, seed=args.seed, **cfg)
    _write(args.out, report)
    header = f"{'adversary':24} {'delta':>8} {'m':>3} {'t':>3} {'accept':>8} {'wilson99':>9} {'bound':>9} ok"
    print(header)
    for pt in report["points"]:
        print(f"{pt['adversary']:24} {pt['delta_target']:>8} {pt['m']:>3} {pt['t']:>3} "
              f"{pt['acceptance_rate']:8.4f} {pt['wilson_upper_99']:9.4f} "
              f"{pt['soundness_bound']:9.4f} {'yes' if pt['within_bound'] else 'NO'}")
    print(f"violations: {report['violations']}")
    if args.csv:
        cols = ["adversary", "delta_target", "m", "t", "trials", "accepts",
                "acceptance_rate", "wilson_upper_99", "soundness_bound", "within_bound"]
        lines = [",".join(cols)]
        lines += [",".join(str(pt[c]) for c in cols) for pt in report["points"]]
        _write(args.csv, "\n".join(lines) + "\n")
    return 0


def cmd_report_complexity(args) -> int:
    instance = _load_instance(args.instance)
    params = ProtocolParams(args.m, args.t)
    report = complexity_report(instance, params, args.seed)
    _write(args.out, report)
    print(f"{'counter':28} {'measured':>12} {'bound':>14}")
    meas, bounds = report["measured"], report["bounds"]
    rows = [
        ("proof_length", meas["proof_length"], bounds["proof_length_max"]),
        ("oracle_reads", meas["oracle_reads"], bounds["oracle_reads_max"]),
        ("rounds", meas["rounds"], f"{bounds['rounds_asymptotic_log2N']:.2f}"),
        ("prover_field_ops", meas["prover_field_ops"], bounds["prover_ops_max"]),
        ("verifier_fold_ops", meas["verifier_field_ops"], bounds["verifier_fold_ops_4rmt"]),
    ]
    for name, measured, bound in rows:
        print(f"{name:28} {measured:>12} {bound:>14}")
    print(f"asserted bounds hold: {report['all_asserted_hold']}")
    return 0 if report["all_asserted_hold"] else 1


def cmd_check_bounds(args) -> int:
    instance = _load_instance(args.instance)
    report = bounds_report(instance)
    _write(args.out, report)
    print(f"{'level':>5} {'|V|':>6} {'classes':>8} {'petals':>7} {'dim':>6} {'bound':>6} ok")
    for lv in report["levels"]:
        dim = lv["dimension"] if lv["dimension"] is not None else "-"
        ok = {True: "yes", False: "NO", None: "skip"}[lv["bound_holds"]]
        print(f"{lv['level']:>5} {lv['vertices']:>6} {lv['classes']:>8} "
              f"{lv['petals']:>7} {dim!s:>6} {lv['dimension_lower_bound']:>6} {ok}")
    for key, value in sorted(report["distance"].items()):
        print(f"  distance.{key}: {value}")
    print(f"violations: {report['violations']}")
    return 0 if report["violations"] == 0 else 1


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=DEFAULT_PARAMS.m)
    parser.add_argument("--t", type=int, default=DEFAULT_PARAMS.t)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="flowering",
                                     description="Proximity testing for codes on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a blossoming Cayley instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--genset", default="full",
                   help="'full' or a JSON file with a genset or parity-check matrix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("prove", help="run the prover and write a proof")
    p.add_argument("--instance", required=True)
    _add_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word", help="word JSON to prove; default: seed-derived codeword")
    p.add_argument("--mode", choices=["ni", "interactive"], default="ni")
    p.add_argument("--json", action="store_true", help="hex-encode the NI proof as JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="verify a proof (exit 0/1/2)")
    p.add_argument("--instance", required=True)
    p.add_argument("--proof", required=True)
    _add_params(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("soundness-mc", help="Monte-Carlo soundness study")
    p.add_argument("--instance", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also write the points as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soundness_mc)

    p = sub.add_parser("report-complexity", help="counters vs bound expressions")
    p.add_argument("--instance", required=True)
    _add_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_complexity)

    p = sub.add_parser("check-bounds", help="dimension and distance bound report")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (getattr(args, "out", None), getattr(args, "csv", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except FloweringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
