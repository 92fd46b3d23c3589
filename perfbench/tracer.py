"""Spans recorded from outside the program.

`Tracer.wrap` replaces a public function at the module attribute its
callers look it up by, records one span per call (name, start, end,
parent) and restores the original on `restore`. Spans stay in memory
until the traced unit ends; `summarize` turns them into per-name totals,
self times and call counts. The package source is never edited.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Module attribute -> span name for one `poissonlab surrogate` run. Each
# entry is where the caller resolves the name, so the wrapper sees every
# call on that path (cli imports write_csv, surrogate imports solve_fdm).
PIPELINE_HOOKS = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "parse_config", "config.parse_config"),
    ("surrogate", "generate_dataset", "surrogate.generate_dataset"),
    ("surrogate", "sample_inputs", "surrogate.sample_inputs"),
    ("surrogate", "split_dataset", "surrogate.split_dataset"),
    ("surrogate", "train_surrogate", "surrogate.train_surrogate"),
    ("surrogate", "evaluate", "surrogate.evaluate"),
    ("surrogate", "architecture_sweep", "surrogate.architecture_sweep"),
    ("surrogate", "solve_fdm", "pde.solve_fdm"),
    ("pde", "solve_fdm", "pde.solve_fdm"),
    ("pde", "solve_tridiagonal", "linalg.solve_tridiagonal"),
    ("ann", "train_steepest_descent", "ann.train_steepest_descent"),
    ("ann", "loss_sse", "ann.loss_sse"),
    ("ann", "gradients", "ann.gradients"),
    ("costs", "measure", "costs.measure"),
    ("cli", "write_csv", "fileio.write_csv"),
    ("cli", "write_json", "fileio.write_json"),
    ("manifest", "write_json", "fileio.write_json"),
    ("cli", "write_manifest", "manifest.write_manifest"),
)

# The query workload calls the model and the solver directly.
QUERY_HOOKS = (
    ("SurrogateModel", "predict", "surrogate.SurrogateModel.predict"),
    ("pde", "solve_fdm", "pde.solve_fdm"),
    ("pde", "solve_tridiagonal", "linalg.solve_tridiagonal"),
    ("ann", "predict_batch", "ann.predict_batch"),
)

# Layers reported as self time; the root span's own time is reported
# separately as untraced time, so these plus it add up to the root.
LAYERS = ("config", "surrogate", "pde", "linalg", "ann", "costs", "fileio", "manifest")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_return is not None:
                on_return(self, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summarize(self) -> dict:
        """Per span name: inclusive seconds, self seconds and calls.

        Self time is a span's duration minus the time its direct children
        cover; calls run synchronously, so children nest inside parents.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["calls"] += 1
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of spans called name that have an ancestor called ancestor."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


def count_bytes(tracer: Tracer, path) -> None:
    tracer.counters["fileio.write_csv.bytes"] += path.stat().st_size


def install(tracer: Tracer, hooks) -> None:
    import poissonlab.ann
    import poissonlab.cli
    import poissonlab.costs
    import poissonlab.manifest
    import poissonlab.pde
    import poissonlab.surrogate

    modules = {
        "ann": poissonlab.ann,
        "cli": poissonlab.cli,
        "costs": poissonlab.costs,
        "manifest": poissonlab.manifest,
        "pde": poissonlab.pde,
        "surrogate": poissonlab.surrogate,
        "SurrogateModel": poissonlab.surrogate.SurrogateModel,
    }
    for module, attr, name in hooks:
        on_return = count_bytes if name == "fileio.write_csv" else None
        tracer.wrap(modules[module], attr, name, on_return)
