"""Small-scale self-checks against brute-force oracles.

Every suite re-derives expected values independently of the library code
it checks: plain-Python layer evaluation, direct Chebyshev distances,
central finite differences, per-entry formula recomputation, and exact
telescoping sums on a dyadic grid where float64 arithmetic is exact.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .data import load_model, save_model
from .errors import LmmError
from .explain import NeuronClassing, extended_sensitivity, pixel_fragility, shapley_sampling, slack
from .medoids import MedoidSet, init_params, nearest_medoid_predict
from .network import LmmParams, forward
from .oracles import brute_forward, fd_gradients
from .training import subgradient


def _random_params(rng, n_pix, n_hid, n_cls, lo=0.2, hi=2.0) -> LmmParams:
    return LmmParams(
        rng.uniform(lo, hi, 2 * n_pix),
        rng.normal(0.0, 1.0, (2 * n_pix, n_hid)),
        rng.normal(0.0, 1.0, (n_hid, n_cls)),
    )


def check_forward_oracle(trials: int = 200, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_pix = int(rng.integers(1, 5))
        n_hid = int(rng.integers(1, 5))
        n_cls = int(rng.integers(2, 4))
        params = _random_params(rng, n_pix, n_hid, n_cls)
        x = rng.uniform(-1.0, 2.0, n_pix)
        trace = forward(params, x)
        _, hidden, _, logits, _ = brute_forward(
            params.scales, params.minplus_weights, params.maxplus_weights, x)
        assert np.max(np.abs(trace.hidden - hidden)) <= 1e-12
        assert np.max(np.abs(trace.logits - logits)) <= 1e-12
        # single-active-path: the recorded winners reproduce every value
        for h in range(n_hid):
            i = trace.hidden_argmin[h]
            assert trace.hidden[h] == trace.linear[i] + params.minplus_weights[i, h]
        for d in range(n_cls):
            h = trace.logit_argmax[d]
            assert trace.logits[d] == trace.hidden[h] + params.maxplus_weights[h, d]


def check_init_equivalence(trials: int = 200, seed: int = 1) -> None:
    rng = np.random.default_rng(seed)
    for n_pix in (2, 8):
        for _ in range(trials // 2):
            n_med = int(rng.integers(2, 7))
            labels = np.concatenate([[0, 1], rng.integers(0, 2, n_med - 2)])
            medoids = MedoidSet(rng.uniform(0, 1, (n_med, n_pix)), labels, np.arange(n_med))
            params = init_params(medoids, k0=float(rng.uniform(0.1, 10.0)))
            x = rng.uniform(0, 1, n_pix)
            assert forward(params, x).predicted == nearest_medoid_predict(medoids, x)


def check_gradient_oracle(trials: int = 60, seed: int = 2) -> None:
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        n_pix = int(rng.integers(1, 4))
        n_hid = int(rng.integers(1, 4))
        n_cls = int(rng.integers(2, 4))
        params = _random_params(rng, n_pix, n_hid, n_cls)
        x = rng.uniform(0, 1, n_pix)
        y = int(rng.integers(0, n_cls))
        trace = forward(params, x)
        pre_hidden = trace.linear[:, None] + params.minplus_weights
        margins_ok = all(
            np.partition(pre_hidden[:, h], 1)[1] - trace.hidden[h] > 1e-3
            for h in range(n_hid) if 2 * n_pix > 1
        ) and all(
            trace.logits[d] - np.partition(trace.hidden + params.maxplus_weights[:, d], -2)[-2] > 1e-3
            for d in range(n_cls) if n_hid > 1
        )
        if not margins_ok:
            continue
        done += 1
        dense = subgradient(params, x[None], [y])[1:]
        for exact, fd in zip(dense, fd_gradients(params, x, y)):
            zero = exact == 0.0
            assert np.all(np.abs(fd[zero]) < 1e-7)
            assert np.all(np.abs(fd - exact)[~zero] <= 1e-5 * np.maximum(1.0, np.abs(exact[~zero])))


def check_fragility_formulas(trials: int = 200, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_pix = int(rng.integers(1, 5))
        n_hid = int(rng.integers(1, 5))
        params = _random_params(rng, n_pix, n_hid, 2)
        x = rng.uniform(0, 1, n_pix)
        trace = forward(params, x)
        c = trace.predicted
        fmap = pixel_fragility(params, x)
        _, opposite = NeuronClassing.from_params(params).split(c)
        for h in range(n_hid):
            assert slack(params, trace, h, c) >= 0.0
        for p in range(n_pix):
            if opposite.size:
                expect = min(extended_sensitivity(params, trace, x, p, h, c) for h in opposite)
                assert fmap.scores[p] == expect
            else:
                assert fmap.scores[p] == np.inf


def check_shapley_efficiency(trials: int = 20, seed: int = 4) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_pix = int(rng.integers(2, 6))
        n_hid = int(rng.integers(1, 4))
        grid = 1024.0  # dyadic weights: all float ops below are exact
        params = LmmParams(
            rng.integers(1, 2 * 1024, 2 * n_pix) / grid,
            rng.integers(-2 * 1024, 2 * 1024, (2 * n_pix, n_hid)) / grid,
            rng.integers(-2 * 1024, 2 * 1024, (n_hid, 2)) / grid,
        )
        x = rng.integers(0, 1025, n_pix) / grid
        baseline = np.full(n_pix, 0.5)
        target = forward(params, x).predicted
        gap = forward(params, x).logits[target] - forward(params, baseline).logits[target]
        for _ in range(3):  # single permutations: the identity holds per walk
            imap = shapley_sampling(params, x, permutations=1, seed=int(rng.integers(1 << 16)))
            assert imap.scores.sum() == gap
        mean_map = shapley_sampling(params, x, permutations=4, seed=int(rng.integers(1 << 16)))
        assert mean_map.scores.sum() == gap


def check_model_roundtrip(seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    params = _random_params(rng, 3, 4, 2)
    params.temperature = 0.8317
    fd, path = tempfile.mkstemp(suffix=".lmmp")
    os.close(fd)
    try:
        save_model(params, path)
        back = load_model(path)
        assert np.array_equal(back.scales, params.scales)
        assert np.array_equal(back.minplus_weights, params.minplus_weights)
        assert np.array_equal(back.maxplus_weights, params.maxplus_weights)
        assert back.temperature == params.temperature
    finally:
        os.unlink(path)


SUITES = (
    ("forward-vs-bruteforce", check_forward_oracle),
    ("init-nearest-medoid", check_init_equivalence),
    ("subgradient-vs-finite-differences", check_gradient_oracle),
    ("fragility-formulas", check_fragility_formulas),
    ("shapley-efficiency", check_shapley_efficiency),
    ("model-roundtrip", check_model_roundtrip),
)


def run_selftest(verbose: bool = True) -> bool:
    """Run every oracle suite; returns True when all pass."""
    ok = True
    for name, suite in SUITES:
        try:
            suite()
            status = "ok"
        except (AssertionError, LmmError) as exc:
            status = f"FAIL ({exc})"
            ok = False
        if verbose:
            print(f"selftest {name}: {status}", flush=True)
    return ok
