"""Spans around the public entry points of the lsils layers, from outside.

The tracer never edits the package: `install` looks every hooked entry
point up by name, wraps it, and rebinds the wrapper wherever the package
holds the original object (the defining module and every module that
imported the name). `uninstall` puts the originals back. A hook whose
module or attribute no longer exists is reported as absent instead of
failing the run, so the benchmark keeps working when a refactor deletes an
entry point.

Every hook aggregates `calls`, `total_s` and `self_s` (total minus the time
of traced children). Coarse hooks (runs, censuses, toy builds) also keep a
full span record: name, start, end, parent span and root span, where the
root span is the benchmark's unit of work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "lsils"


def _apply_flip_label(args) -> str:
    form = args[0].form
    return "qubo.apply_flip.orig" if type(form).__name__ == "UbqpInstance" else "qubo.apply_flip.toy"


def _count_perturbation(tracer, args, result) -> None:
    # sample_distinct_positions(rng, n, count): one perturbation of `count`
    # bits, which the search charges count * n evaluations.
    tracer.counters["search.perturb_evals"] += int(args[1]) * int(args[2])


def _count_run(tracer, args, result) -> None:
    tracer.counters["search.evals"] += int(result.evaluations)


def _count_walk(tracer, args, result) -> None:
    tracer.counters["landscape.states.walk"] += sum(int(a.size) for a in result)
    _note_bytes(tracer, max(int(a.nbytes) for a in result))


def _count_blocked(tracer, args, result) -> None:
    tracer.counters["landscape.states.blocked"] += int(result.size)
    _note_bytes(tracer, int(result.nbytes))


def _note_bytes(tracer, nbytes: int) -> None:
    key = "landscape.array_bytes"
    tracer.counters[key] = max(tracer.counters[key], nbytes)


# (span label or label function, module, attribute path, keep full spans,
#  result callback). Hot per-flip hooks keep aggregates only.
HOOKS = (
    (_apply_flip_label, "lsils.qubo", "GainCache.apply_flip", False, None),
    ("qubo.build", "lsils.qubo", "GainCache.build", False, None),
    ("qubo.evaluate", "lsils.qubo", "evaluate", False, None),
    ("smoothing.toy_col", "lsils.smoothing", "ToyMatrix.col", False, None),
    ("smoothing.construct_toy", "lsils.smoothing", "construct_toy", True, None),
    ("smoothing.auto_alpha", "lsils.smoothing", "auto_alpha", True, None),
    ("search.run", "lsils.search", "ils", True, _count_run),
    ("search.run", "lsils.search", "lsils", True, _count_run),
    ("search.sample_positions", "lsils.search", "sample_distinct_positions", False,
     _count_perturbation),
    ("search.offer", "lsils.search", "BestTracker.offer", False, None),
    ("landscape.enumerate_values", "lsils.landscape", "enumerate_values", True, _count_walk),
    ("landscape.enumerate_local_optima", "lsils.landscape", "enumerate_local_optima", True,
     None),
    ("landscape.all_values_blocked", "lsils.landscape", "all_values_blocked", True,
     _count_blocked),
    ("landscape.value_histogram", "lsils.landscape", "value_histogram", True, None),
    ("landscape.analyze", "lsils.landscape", "analyze", True, None),
    ("landscape.lambda_sweep", "lsils.landscape", "lambda_sweep", True, None),
    ("bench_io.write_runlog_csv", "lsils.bench_io", "write_runlog_csv", True, None),
    ("bench_io.gen_random_instance", "lsils.bench_io", "gen_random_instance", True, None),
)


class Tracer:
    """In-memory span aggregates, counters and coarse span records."""

    def __init__(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters = defaultdict(int)
        self.spans: list[dict] = []
        self.absent: list[tuple[str, str]] = []  # (span, entry point)
        self._stack: list[list] = []  # [label, child_s, start, span_id]
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------
    def _open(self, label: str, keep: bool) -> list:
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [label, 0.0, time.perf_counter(), span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        total = end - frame[2]
        stat = self.stats[frame[0]]
        stat[0] += 1
        stat[1] += total
        stat[2] += total - frame[1]
        if self._stack:
            self._stack[-1][1] += total
        if frame[3]:
            kept = [f[3] for f in self._stack if f[3]]
            self.spans.append({
                "id": frame[3], "name": frame[0], "start": frame[2], "end": end,
                "parent": kept[-1] if kept else None,
                "root": kept[0] if kept else frame[3],
            })

    @contextlib.contextmanager
    def span(self, label: str):
        """A coarse span opened by the benchmark itself."""
        frame = self._open(label, True)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, label, fn, keep: bool, on_result):
        tracer = self
        label_of = label if callable(label) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(label_of(args) if label_of else label, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        """Resolve every hook by name and rebind a traced wrapper."""
        for label, module_name, path, keep, on_result in HOOKS:
            name = label if isinstance(label, str) else "qubo.apply_flip"
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner)[attr] if owner_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append((name, f"{module_name}.{path}"))
                continue
            if owner_name:
                self._patch_class(owner, attr, raw, label, keep, on_result)
            else:
                self._patch_function(raw, label, keep, on_result)

    def _patch_class(self, owner, attr, raw, label, keep, on_result) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(label, raw.__func__, keep, on_result))
        else:
            wrapped = self._wrap(label, raw, keep, on_result)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _patch_function(self, original, label, keep, on_result) -> None:
        wrapped = self._wrap(label, original, keep, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def calls(self, label: str) -> int:
        return self.stats[label][0] if label in self.stats else 0

    def self_s(self, label: str) -> float:
        return self.stats[label][2] if label in self.stats else 0.0
