"""Spans and counters recorded around calls into the package's modules.

A `Tracer` patches the public functions listed in `SPANS` (or, when it
counts, `COUNTS`) for as long as it is entered, and restores them on exit.
Spans stay in memory: each is `[name, start, end, parent, batch]`, where
`parent` is the index of the enclosing span (-1 for none) and `batch` the id
of the batch being adapted (None outside a batch). Calls such as
`losses.mahalanobis` and `Tensor.__init__` are too frequent for a span each,
so they are counted.

The package looks these functions up through their module (or class) at
call time, so patching the attribute is enough to see every call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from tta_align import adapt, autograd, data, experiment, losses, network, stats

# (owner, attribute, span name)
SPANS = (
    (data, "generate_dataset", "data.generate_dataset"),
    (experiment, "pretrain_source", "experiment.pretrain_source"),
    (stats, "estimate_source_stats", "stats.estimate_source_stats"),
    (adapt, "adapt_stream", "adapt.adapt_stream"),
    (adapt, "adam_step", "adapt.adam_step"),
    (network, "forward_features", "network.forward_features"),
    (network, "loss_and_grad_named", "network.loss_and_grad_named"),
    (losses, "distance_report", "losses.distance_report"),
    (losses, "loss_tensor", "losses.loss_tensor"),
    (autograd.Tensor, "backward", "autograd.backward"),
)
COUNTS = (
    (losses, "mahalanobis", "losses.mahalanobis"),
    (autograd.Tensor, "__init__", "autograd.tensors"),
)
BATCH_SPAN = "bench.batch"  # opened by the benchmark's stream iterator


class Tracer:
    """Records spans (`spans=True`) or counts calls (`spans=False`).

    Counting wraps hot functions such as `losses.mahalanobis`, whose
    wrappers would inflate the spans around them, so the two are kept to
    separate passes.
    """

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # name -> calls
        self.batch: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.batch])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        # a call that raised may leave inner spans open; close them too
        now = time.perf_counter()
        while self._open:
            top = self._open.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def _span_wrapper(self, original, name):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _count_wrapper(self, original, name):
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        if self.record_spans:
            for owner, attr, name in SPANS:
                self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        else:
            for owner, attr, name in COUNTS:
                self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- reading --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Spans nest strictly (one thread), so the children's durations add up.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    def write(self, path, header: dict) -> None:
        """Write the spans, with times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), parent, batch]
            for name, s, e, parent, batch in self.spans
        ]
        doc = dict(header)
        doc["span_fields"] = ["name", "start_us", "end_us", "parent", "batch"]
        doc["spans"] = rows
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
