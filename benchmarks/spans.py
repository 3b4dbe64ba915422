"""In-memory span recorder that wraps the package's functions from outside.

A wrapper is installed at the module attribute where the package looks a
function up (``lmmx.training.batch_logits``, ``lmmx.explain.forward``, ...),
so the package itself is unchanged.  Each call records one span: name,
start, end, parent span and operation id.  Some wrappers also record
counts computed from their arguments' array sizes.  Spans stay in memory
until ``dump`` writes them out.  The recorder assumes one thread, which is
how the benchmark drives the package (``workers=1``).
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent, op, counts]
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, counts) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, counts])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name, None)
        try:
            yield index
        finally:
            self._close(index)

    def install(self, module, attr: str, name: str, counter=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until ``uninstall``.

        ``counter(args, kwargs)`` returns a dict of computed counts for the
        call, or is None.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, counter(args, kwargs) if counter else None)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def descendants(self, root: int) -> list[int]:
        """Indices of every span nested under span ``root``."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):  # children open after parents
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
        return out

    def summary(self, root: int) -> dict:
        """Per-name totals under ``root``: seconds, self seconds, calls, counts.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because there is one thread.
        """
        indices = self.descendants(root)
        child_time = defaultdict(float)
        for i in indices:
            name, start, end, parent, _, _ = self.spans[i]
            child_time[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "by_parent": defaultdict(float)})
        for i in indices:
            name, start, end, parent, _, counts = self.spans[i]
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
            parent_name = self.spans[parent][0]
            entry["by_parent"][parent_name] += end - start
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        root_span = self.spans[root]
        wall = root_span[2] - root_span[1]
        return {"wall_s": wall, "root_self_s": wall - child_time[root], "layers": out,
                "spans": len(indices)}

    def dump(self, path) -> None:
        rows = [[name, start - self.t0, end - self.t0, parent, op, counts]
                for name, start, end, parent, op, counts in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "counts"],
                       "spans": rows}, fh)


def install_package_tracing(tracer: Tracer, lmmx) -> None:
    """Wrap every public function the pipeline calls, where it is looked up."""
    data, medoids, network = lmmx.data, lmmx.medoids, lmmx.network
    training, explain, metrics = lmmx.training, lmmx.explain, lmmx.metrics

    def rows(args, kwargs):
        params, images = args[0], args[1]
        n = images.shape[0]
        return {"rows": n, "minplus_cells": n * 2 * params.n_pixels * params.n_hidden}

    def pairs(args, kwargs):
        return {"distance_pairs": args[0].shape[0] * args[1].shape[0]}

    def steps(args, kwargs):
        train_data, config = args[1], args[3]
        return {"steps": config.epochs * math.ceil(train_data.n_samples / config.batch_size)}

    def walk(args, kwargs):
        params = args[0]
        return {"walk_cells": kwargs["permutations"] * (params.n_pixels + 1) * params.n_hidden}

    for module, attr in ((data, "load_npz_dataset"), (data, "save_model"),
                         (medoids, "select_medoids"), (medoids, "init_params"),
                         (training, "calibrate_temperature"),
                         (explain, "pixel_fragility"), (explain, "integrated_gradients"),
                         (metrics, "compute_report"), (metrics, "confusion_matrix"),
                         (metrics, "fidelity"), (metrics, "stability"), (metrics, "timing")):
        tracer.install(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    tracer.install(training, "train", "training.train", steps)
    tracer.install(explain, "shapley_sampling", "explain.shapley_sampling", walk)
    tracer.install(medoids, "cdist", "medoids.cdist", pairs)
    for module in (network, training, metrics):
        tracer.install(module, "batch_logits", "network.batch_logits", rows)
    tracer.install(metrics, "batch_predict", "network.batch_predict")
    for module in (training, explain):
        tracer.install(module, "forward", "network.forward")
