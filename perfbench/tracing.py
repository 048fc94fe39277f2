"""In-memory span and counter recorder, and the wrappers that feed it.

The recorder keeps one row per span (layer name, start, end, parent span,
unit) in flat arrays, so a run of a million spans costs tens of MB, and
folds each span's self time (its duration minus the time its child spans
cover) into a per-unit total as the span closes.  A unit is one op of the
workload, one set-up repetition, or the untimed preparation between them.
At exit the spans are written to an .npz file.

The wrappers are installed from outside the program: each target below is
a public entry point looked up by its callers at call time, and every
module of the package that holds a reference to the original object gets
the wrapper instead.  A target that no longer exists is reported as absent
and skipped, so a program whose internals were renamed still runs.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

PACKAGE = "flowering"

PREPARE_UNIT = -1000


def _count_classes(tracer, args, result):
    tracer.count("folding.fold.classes", len(result.values))


def _count_leaves(tracer, args, result):
    tracer.count("commitment.merkle.leaves", len(args[1]))


def _count_reads(tracer, args, result):
    tracer.count("iopp.oracle_reads", result.counters.oracle_reads)


# (layer, module, attribute path, counter hook or None).  Calls are counted
# as "<layer>.calls" for every target.
TARGETS = [
    ("cayley.blossoming", "cayley", "blossoming_cayley", None),
    ("rim_graph.class_index", "rim_graph", "EdgeClassIndex.__init__", None),
    ("folding.fold_plan", "rim_graph", "FloweringCut.fold_plan", None),
    ("experiments.instance_load", "experiments", "Instance.from_json", None),
    ("rim_graph.hash", "rim_graph", "RIM.hash_hex", None),
    ("folding.fold", "folding", "fold", _count_classes),
    ("commitment.merkle", "commitment", "MerkleTree.__init__", _count_leaves),
    ("commitment.open", "commitment", "MerkleTree.open", None),
    ("commitment.verify_open", "commitment", "verify_open", None),
    ("commitment.fs", "commitment", "FSState.__init__", None),
    ("commitment.fs", "commitment", "FSState.absorb", None),
    ("commitment.fs", "commitment", "FSState.challenge_field", None),
    ("commitment.fs", "commitment", "FSState.challenge_queries", None),
    ("reed_solomon.is_codeword", "reed_solomon", "RSCode.is_codeword", None),
    ("iopp.query", "iopp", "verifier_query", _count_reads),
    ("iopp.run_protocol", "iopp", "run_protocol", None),
    ("graph_code.word", "graph_code", "Word.__init__", None),
    ("graph_code.word", "graph_code", "cut_word_on", None),
    ("adversaries.build", "adversaries", "build_adversary", None),
    ("adversaries.build", "adversaries", "far_word", None),
    ("niproof.serialize", "niproof", "NIProof.serialize", None),
    ("niproof.parse", "niproof", "NIProof.parse", None),
]

# The hash function every commitment and Fiat-Shamir hash goes through.
DIGEST_TARGET = ("commitment", "DIGEST", "commitment.sha256.calls")


class Tracer:
    """Spans and counters of one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self._stack: list[list] = []  # [span index, child time]
        self.unit = 0
        self.phase = ""
        self.self_time: dict[tuple[int, str], float] = defaultdict(float)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self._restore: list = []
        self.installed = False

    # recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(self.unit)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        end = time.perf_counter()
        idx, child_time = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_time[(self.unit, name)] += duration - child_time
        self.counts[(self.unit, name + ".calls")] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.unit, name)] += amount
        if self.phase:
            self.counts[(self.unit, f"{name}.{self.phase}")] += amount

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        previous = self.phase
        if phase is not None:
            self.phase = phase
        self.enter(name)
        try:
            yield
        finally:
            self.exit()
            self.phase = previous

    # wrappers ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        if self.installed:
            return
        self.installed = True
        self.absent = []
        for layer, module, path, hook in TARGETS:
            if not self._wrap(layer, module, path, hook):
                self.absent.append(f"{layer} ({PACKAGE}.{module}.{path})")
        module, attr, counter = DIGEST_TARGET
        original = _lookup(module, attr)
        if original is None:
            self.absent.append(f"{counter} ({PACKAGE}.{module}.{attr})")
        else:
            def counting(*args, _orig=original):
                self.count(counter)
                return _orig(*args)
            self._replace_everywhere(original, counting)

    def uninstall(self) -> None:
        self.installed = False
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    def _wrap(self, layer: str, module: str, path: str, hook) -> bool:
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = _lookup(module, owner_path)
            if owner is None or attr not in vars(owner):
                return False
            raw = vars(owner)[attr]
            if isinstance(raw, property):
                new = property(self._wrapper(raw.fget, layer, hook))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, layer, hook))
            else:
                new = self._wrapper(raw, layer, hook)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
            return True
        original = _lookup(module, attr)
        if original is None:
            return False
        self._replace_everywhere(original, self._wrapper(original, layer, hook))
        return True

    def _wrapper(self, fn, layer: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every package module's reference to original at replacement,
        since callers import entry points by name."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    # reporting -----------------------------------------------------------

    def unit_values(self, unit: int) -> dict[str, float]:
        """Self time per layer (as "<layer>_s") and counters of one unit."""
        out: dict[str, float] = {}
        for (u, name), value in self.self_time.items():
            if u == unit:
                out[name + "_s"] = value
        for (u, name), value in self.counts.items():
            if u == unit:
                out[name] = value
        return out

    def dump(self, path: Path) -> int:
        """Write every span to path as an .npz file: the layer names, and one
        array per field (name index, start, end, parent span, unit).  Returns
        the number of spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + ".partial")
        with open(partial, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str),
                     name=np.frombuffer(self.span_name, dtype=np.int32),
                     start=np.frombuffer(self.span_start, dtype=np.float64),
                     end=np.frombuffer(self.span_end, dtype=np.float64),
                     parent=np.frombuffer(self.span_parent, dtype=np.int32),
                     unit=np.frombuffer(self.span_unit, dtype=np.int32))
        os.replace(partial, path)
        return len(self.span_start)


class NullTracer:
    """Stands in for Tracer when tracing is off: spans cost nothing."""

    unit = 0

    def span(self, name: str, phase: str | None = None):
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


def _lookup(module: str, path: str):
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj
