"""Benchmark of the flowering prover, verifier, CLI and soundness study.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ni-r8 --seed 1 --seconds 40 --trace 0

It builds the workload's instance several times (set-up), then runs ops in
a closed loop for --seconds, checks every op's outputs, prints a table of
the metrics with their sample counts, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 even ops are traced and odd ops
untraced, the metrics are the per-layer ones (see README.md), and every
span is written to .perfbench-trace/<workload>.npz.
--smoke shrinks the instances to r = 4 and the study to a few trials.

The program is imported from ./src of the checkout and nowhere else; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracing import PREPARE_UNIT, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
# A traced run writes its spans here, one file per workload, replaced by the
# next traced run of that workload.
SPANS_DIR = ROOT / ".perfbench-trace"


def spans_file(workload: str) -> Path:
    return SPANS_DIR / f"{workload}.npz"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def decile(values, k: int) -> float:
    """The k-th decile (k = 1..9) of the samples, interpolated."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def run_units(workload, seconds: float, tracer, trace: bool) -> dict:
    """Set up, prepare, then run ops until the window closes, each on a
    freshly set-up instance, so set-up samples spread over the run like op
    samples.  The window opens before the first set-up, and an op (with its
    set-up) starts only if one of median length still fits, so a run ends
    within `seconds` unless its first op alone is longer.  When tracing,
    the preparation and even ops with their set-ups run with the wrappers
    installed and odd ops without them, which measures the tracing
    overhead."""
    deadline = time.perf_counter() + seconds
    setup_times = []

    def set_up(index: int) -> None:
        workload.release()
        gc.collect()
        tracer.unit = -(index + 1)
        with tracer.span("bench.setup", "setup"):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

    set_up(0)
    setup_rss = peak_rss_mb()

    tracer.unit = PREPARE_UNIT
    with tracer.span("bench.prepare", "prepare"):
        workload.prepare()

    attempted = failed = 0
    op_times = {True: [], False: []}
    unit_times = []  # each op with its set-up
    index = 0
    while index == 0 or time.perf_counter() + median(unit_times) < deadline:
        traced = trace and index % 2 == 0
        if trace:
            (tracer.install if traced else tracer.uninstall)()
        unit_start = time.perf_counter()
        if index > 0:
            set_up(index)
        tracer.unit = index
        start = time.perf_counter()
        try:
            with tracer.span("bench.op", "op"):
                problems = workload.op(index)
        except Exception:  # an op that crashes counts as failed; the run goes on
            traceback.print_exc()
            problems = ["op raised"]
        op_times[traced].append(time.perf_counter() - start)
        unit_times.append(time.perf_counter() - unit_start)
        attempted += 1
        if problems:
            failed += 1
            print(f"# op {index} failed: {'; '.join(problems)}", file=sys.stderr)
        index += 1
    if trace:
        tracer.uninstall()
    return {"setup_times": setup_times, "setup_rss": setup_rss, "attempted": attempted,
            "failed": failed, "op_times": op_times}


def end_to_end(workload, result) -> dict:
    """(statistic, value, samples) per metric.  Op timings report their
    90th percentile: the shared machine this benchmark was tuned on drifts
    by 20-30% in speed over minutes, which moves a run's median by 25-30%
    from run to run but its slow tail by 10-15%.  Set-up reports its
    median."""
    s = workload.samples
    setup = result["setup_times"]
    prove, verify = decile(s["prove_s"], 9), decile(s["verify_s"], 9)
    runs = workload.rate()
    if runs is None:  # prove + verify round trips per second at the slow tail
        runs = ("1/p90s", 1 / (prove + verify), len(s["verify_s"]))
    return {
        "setup_s": ("median", median(setup), len(setup)),
        "prove_s": ("p90", prove, len(s["prove_s"])),
        "verify_s": ("p90", verify, len(s["verify_s"])),
        "proof_bytes": ("median", median(s["proof_bytes"]), len(s["proof_bytes"])),
        "runs_per_s": runs,
        "peak_rss_mb": ("max", peak_rss_mb(), 1),
    }


def per_layer(spec: dict, tracer, result) -> dict:
    """Median over set-up repetitions plus median over traced ops of each
    layer's self time and counters, and the tracing overhead."""
    units = sorted(set(u for u, _ in tracer.self_time) | set(u for u, _ in tracer.counts))
    setups = [tracer.unit_values(u) for u in units if PREPARE_UNIT < u < 0 and u % 2]
    ops = [tracer.unit_values(u) for u in units if u >= 0 and u % 2 == 0]
    for values in ops:
        for phase in ("prove", "verify"):  # phase counters per prove / per verify
            calls = values.get(f"bench.{phase}.calls")
            for key in [k for k in values if k.endswith("." + phase)]:
                values[key] /= calls
        digests = values.get("niproof.paths.digests", 0)
        values["niproof.paths.distinct_ratio"] = (
            values.get("niproof.paths.distinct", 0) / digests if digests else 0.0)
        values["trace.layers_self_s"] = sum(
            v for k, v in values.items() if k.endswith("_s") and not k.startswith("bench."))
        values["trace.unattributed_s"] = sum(
            v for k, v in values.items() if k.endswith("_s") and k.startswith("bench."))

    def med(group, key):
        return median([g.get(key, 0.0) for g in group]) if group else 0.0

    traced, untraced = result["op_times"][True], result["op_times"][False]
    out = {}
    for name in (metric["name"] for metric in spec["per_layer"]):
        if name == "experiments.setup_rss_mb":
            out[name] = ("max", result["setup_rss"], 1)
        elif name == "trace.op_traced_s":
            out[name] = ("median", median(traced), len(traced))
        elif name == "trace.op_untraced_s":
            out[name] = ("median", median(untraced), len(untraced))
        elif name == "trace.overhead_s":
            out[name] = ("median", median(traced) - median(untraced),
                         min(len(traced), len(untraced)))
        elif name.startswith("trace."):
            out[name] = ("median", med(ops, name), len(ops))
        else:
            out[name] = ("median", med(setups, name) + med(ops, name), len(ops))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="r = 4 instances and a few trials, same code path")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (src / "flowering" / "__init__.py").is_file():
        print(f"perfbench: no BENCHMARK.json or src/flowering under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # one workload, one single-threaded process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, args.smoke)
    if args.trace:
        tracer.install()
    try:
        result = run_units(workload, args.seconds, tracer, bool(args.trace))
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer(spec, tracer, result)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        spans_path = spans_file(args.workload)
        spans = tracer.dump(spans_path)
    else:
        metrics = end_to_end(workload, result)
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    if args.trace:
        for layer in tracer.absent:
            print(f"# absent layer: {layer}")
        print(f"# spans: {spans} written to {spans_path.relative_to(ROOT)}")
    print(f"# {'metric':34} {'stat':>6} {'value':>16} {'unit':>6} {'samples':>8}")
    for name, (stat, value, n) in metrics.items():
        print(f"# {name:34} {stat:>6} {value:16.6f} {units[name]:>6} {n:8d}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (_, value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
