"""The benchmark's span tracer finds every package function it wraps, and puts each back."""

import importlib.util
import os

import numpy as np

import lmmx
from lmmx.data import PIXEL_LEVELS

_SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_hook():
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_package_tracing(tracer, lmmx)  # AttributeError if a hook is gone
    patched = list(tracer._patched)
    try:
        names = {(module.__name__, attr) for module, attr, _ in patched}
        assert {("lmmx.metrics", "batch_logits"), ("lmmx.explain", "forward"),
                ("lmmx.training", "forward")} <= names
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
        params = lmmx.LmmParams(np.ones(4), np.zeros((4, 2)), np.eye(2))
        with tracer.span("root"):
            lmmx.explain.shapley_sampling(params, np.array([0.25, 0.75]), permutations=2)
        # Shapley reads its predicted class from its own terms, without forward
        assert [span[0] for span in tracer.spans] == ["root", "explain.shapley_sampling"]
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original


def test_greedy_build_records_one_span_on_one_thread(monkeypatch):
    # the matrix stripes run on pool threads that call NumPy only, never a wrapped hook
    monkeypatch.setattr(lmmx.medoids, "_usable_cpus", lambda: 4)
    images = np.random.default_rng(6).integers(0, PIXEL_LEVELS + 1, (200, 6)) / PIXEL_LEVELS
    train = lmmx.Dataset(images, np.repeat([0, 1], 100), "train")
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_package_tracing(tracer, lmmx)
    try:
        lmmx.medoids.select_medoids(train, 8, "greedy-kmedoids", seed=0)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["medoids.select_medoids"]
    assert tracer.spans[0][2] is not None and tracer._stack == []
