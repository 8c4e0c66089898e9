"""In-process tracing of conformal_gate from the outside.

``Tracer.install`` wraps the public functions each layer exposes.  A
wrapper records a span (name, start, end, parent, command) and bumps the
layer's counters; nothing under ``src/`` changes.  Each wrapped function is
replaced under every name that binds it in any ``conformal_gate`` module,
so ``from .core_types import require_valid`` in ``predictor`` is traced as
well as ``core_types.require_valid``.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, asdict
from typing import Callable


def _count_load(counters, args, kwargs, result):
    counters["io.rows_read"] += len(result)
    counters["io.bytes_read"] += os.path.getsize(kwargs.get("path") or args[0])


def _count_write(counters, args, kwargs, result):
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    counters["io.bytes_written"] += len(text.encode("utf-8"))


def _count_validate(counters, args, kwargs, result):
    counters["core_types.validate_calls"] += 1
    counters["core_types.validated_rows"] += len(result)


def _count_sets(counters, args, kwargs, result):
    counters["predictor.sets_built"] += len(result)
    counters["predictor.members_total"] += sum(ps.set_size for ps in result)


def _count_generate(counters, args, kwargs, result):
    counters["synth.rows_generated"] += len(result)


def _count_draws(counters, args, kwargs, result):
    counters["rng.draws"] += len(result)


# (module, attribute, per-layer self-time metric, counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.self_s", None),
    ("io", "load_probabilities", "io.load_s", _count_load),
    ("io", "write_atomic", "io.write_s", _count_write),
    ("io", "write_report", "io.write_s", None),
    ("io", "write_curve", "io.write_s", None),
    ("core_types", "require_valid", "core_types.validate_s", _count_validate),
    ("core_types", "Dataset.probability_matrix", "core_types.matrix_s", None),
    ("calibration", "calibrate", "calibration.calibrate_s", None),
    ("calibration", "calibrate_scores", "calibration.calibrate_scores_s", None),
    ("calibration", "export_calibration_curve", "calibration.curve_s", None),
    ("predictor", "predict_batch", "predictor.predict_batch_s", _count_sets),
    ("metrics", "evaluate", "metrics.evaluate_s", None),
    ("metrics", "confusion_and_recall", "metrics.confusion_s", None),
    ("metrics", "marginal_coverage", "metrics.marginal_coverage_s", None),
    ("synth", "generate", "synth.generate_s", _count_generate),
    ("rng", "output_block", "rng.output_block_s", _count_draws),
)

PACKAGE = "conformal_gate"


@dataclass
class Span:
    name: str
    command: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: defaultdict[str, Counter] = defaultdict(Counter)  # by command
        self.command = ""
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, self.command, parent, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_ns += span.end_ns - span.start_ns
            if count is not None:
                count(self.counters[self.command], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, _, count in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *cls, fname = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, fname)
            traced = self._wrap(f"{module_name}.{attr}", original, count)
            if cls:
                self._patch(owner, fname, traced, f"{PACKAGE}.{module_name}.{attr}")
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, traced, f"{module.__name__}.{name}")

    def _patch(self, owner, name: str, value, label: str) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)
        self.bindings.append(label)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def self_times(self) -> defaultdict[str, Counter]:
        """Per-layer self time in seconds, by command."""
        metric_of = {f"{m}.{a}": metric for m, a, metric, _ in TARGETS}
        totals: defaultdict[str, Counter] = defaultdict(Counter)
        for span in self.spans:
            totals[span.command][metric_of[span.name]] += span.self_ns / 1e9
        return totals

    def as_json(self) -> list[dict]:
        return [dict(asdict(span), self_ns=span.self_ns) for span in self.spans]
