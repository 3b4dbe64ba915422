"""The benchmark's span tracer finds every package function it wraps, and puts each back."""

import importlib.util
import os

import numpy as np

import lmmx

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
        assert [span[0] for span in tracer.spans] == ["root", "explain.shapley_sampling",
                                                       "network.forward"]
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
