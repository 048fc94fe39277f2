"""Tests of the benchmark itself, on its smoke configuration.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_line(workload, trace):
    spans_path = run.spans_file(workload)
    spans_path.unlink(missing_ok=True)
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, spec["name"]
    assert spans_path.is_file() == bool(trace)
    if trace:
        spans = np.load(spans_path)
        count = len(spans["start"])
        assert count > 0
        assert all(len(spans[field]) == count for field in ("name", "end", "parent", "unit"))
        assert (spans["end"] >= spans["start"]).all()
        assert (spans["parent"] < np.arange(count)).all()
        names = set(spans["names"][spans["name"]])
        assert {"bench.setup", "bench.op"} <= names


def test_traced_counts_are_consistent():
    """At r = 4 the proof-size split and the commitment counters agree with
    the instance: one root per level, one leaf per class of every level."""
    proc = run_bench(ROOT, "--workload", "ni-r8", "--seed", "0", "--seconds", "0.2",
                     "--trace", "1", "--smoke")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert metrics["niproof.bytes.roots"] == 32 * 5
    assert metrics["niproof.bytes.paths"] == 32 * metrics["niproof.paths.digests"]
    assert 0 < metrics["niproof.paths.distinct_ratio"] <= 1
    from flowering.experiments import gen_instance

    instance = gen_instance(4, 2**31 - 1, 13)
    assert metrics["commitment.merkle.leaves"] == sum(
        g.classes.num_classes for g in instance.seq.graphs)
    assert metrics["folding.fold.calls"] == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_target_is_reported_absent(monkeypatch):
    from flowering import folding, niproof

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("folding.gone", "folding", "no_such_function", None),
        ("folding.gone", "folding", "NoSuchClass.method", None),
        ("folding.gone", "no_such_module", "fold", None),
    ])
    original = folding.fold
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert niproof.fold is not original
        assert len(tracer.absent) == 3
        assert all(entry.startswith("folding.gone") for entry in tracer.absent)
    finally:
        tracer.uninstall()
    assert niproof.fold is original and folding.fold is original


def test_self_times_add_up_to_the_outer_span():
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.01)
    total = time.perf_counter() - start
    values = tracer.unit_values(0)
    assert values["inner.calls"] == 2
    assert values["inner_s"] >= 0.02
    assert 0 <= values["outer_s"] < values["inner_s"]
    assert values["outer_s"] + values["inner_s"] == pytest.approx(total, abs=1e-3)
