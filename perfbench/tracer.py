"""Span tracing of the program's layers from outside the program.

Every module-level function of the six layer modules is replaced, through
`setattr` on its module, by a wrapper that records a span. Calls made through a
module namespace or a module global (for example `train.fit` ->
`batch_loss_and_grads`, `elem_mul` -> `quat_mul`) therefore land in the trace;
numpy work done inline in a function counts as that function's self time.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("algebra", "model", "train", "ranking", "data", "checkpoint")


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1, run id]
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._originals = []

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"mkge.{layer}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._originals.append((mod, name, obj))
                    setattr(mod, name, self._wrap(f"{layer}.{name}", obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._originals):
            setattr(mod, name, obj)
        self._originals.clear()

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def summarize(spans):
    """Per-layer and per-function aggregates keyed by metric name.

    `<layer>.self_s` / `.calls` sum over the layer's spans; `<layer>.<fn>.total_s`
    counts only the outermost span of a function, so a function nested in
    itself is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for i, ((name, start, end, parent, _), self_s) in enumerate(zip(spans, selfs)):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start)
    return out
