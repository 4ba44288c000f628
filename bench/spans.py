"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the bmps modules (and two methods of
``LaplacePosterior``) with wrappers that record a span per call: name, start,
end and parent span. Nothing inside ``src/bmps`` changes; the wrappers are
installed from here and removed again after each traced operation. bmps code
calls its own modules through attributes (``mps.sweep_env``,
``laplace.predictive_batch``) and its own module-level functions through
globals (``loss`` inside ``train_map``), so the wrappers see those calls too.

Spans stay in memory; :meth:`Tracer.write` saves them at the end of a run.
A span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from bmps import cli, data, decision, initializer, laplace, mps, trainer


def _rows(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["X"])


def _out_bytes(args, kwargs, out):
    return out.nbytes


def _rank(args, kwargs, out):
    return out.rank


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (owner, attribute, span name, per-call count or None)
TARGETS = (
    (mps, "sweep_env", "mps.sweep_env", _rows),
    (mps, "weighted_grad_from_env", "mps.weighted_grad_from_env", None),
    (mps, "forward_batch", "mps.forward_batch", _rows),
    (mps, "jacobian_from_env", "mps.jacobian_from_env", _out_bytes),
    (mps, "save_model", "mps.save_model", None),
    (mps, "load_model", "mps.load_model", None),
    (laplace, "ggn_factors", "laplace.ggn_factors", _rank),
    (laplace.LaplacePosterior, "__init__", "laplace.LaplacePosterior", None),
    (laplace.LaplacePosterior, "solve_many", "laplace.solve_many", _out_bytes),
    (laplace, "predictive_batch", "laplace.predictive_batch", None),
    (laplace, "save_posterior", "laplace.save_posterior", _file_bytes),
    (laplace, "load_posterior", "laplace.load_posterior", None),
    (trainer, "train_map", "trainer.train_map", None),
    (trainer, "loss", "trainer.loss", None),
    (trainer, "accuracy", "trainer.accuracy", None),
    (data, "load_csv", "data.load_csv", None),
    (decision, "classify_map", "decision.classify_map", None),
    (decision, "classify_utility", "decision.classify_utility", None),
    (initializer, "init_model", "initializer.init_model", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder. Each span is [name, phase, start, end, parent, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, count=None):
        """Record a span; a span opened with no span open is a root (its phase)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        phase = self.spans[self._stack[0]][0] if self._stack else name
        rec = [name, phase, time.perf_counter(), None, parent, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextmanager
    def operation(self):
        """Wrap the targets and record one operation as an "op" root span."""
        with self.installed(), self.span("op"):
            yield

    def totals(self):
        """Per (phase, name): calls, summed duration, self time and count."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        for i, (name, phase, start, end, parent, count) in enumerate(self.spans):
            a = agg[(phase, name)]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child[i]
            a["count"] += count or 0
        return agg

    def write(self, path):
        fields = ("name", "phase", "start", "end", "parent", "count")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
            fh.write("\n")


# A per-layer metric is named ``<span>.<suffix>``; the suffix picks the field.
SUFFIX_FIELDS = {
    "self_s": "self_s", "s": "total_s", "init_s": "total_s", "calls": "calls",
    "rows": "count", "out_bytes": "count", "bytes": "count", "rank": "count",
}


def layer_value(metric, totals, n_ops):
    """A per-layer metric's value per traced operation, read off its name.

    ``<span>.<suffix>`` sums the suffix's field over the operations' spans
    named ``<span>`` or ``<span>.*``, so ``decision.calls`` counts every
    ``decision.classify_*`` call. ``trace.unattributed_s`` is the operations'
    own self time. ``initializer.init_model.self_s`` also counts the set-up
    once: the digit workloads draw their model there, the CLI workload in
    every ``train`` command.
    """
    if metric == "trace.unattributed_s":
        return totals[("op", "op")]["self_s"] / n_ops
    span, suffix = metric.rsplit(".", 1)
    field = SUFFIX_FIELDS[suffix]
    value = sum(
        t[field] for (phase, name), t in totals.items()
        if phase == "op" and (name == span or name.startswith(span + "."))
    ) / n_ops
    if metric == "initializer.init_model.self_s":
        value += totals[("setup", span)]["self_s"]
    return value
