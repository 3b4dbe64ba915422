"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (visible with -rA/-s).
Criteria 7 and 9 need the real chest-X-ray archive and are skipped with a
notice when it is not present (see conftest.pneumonia_archive_path).
"""

import numpy as np
from scipy.spatial.distance import cdist

from lmmx import (LmmParams, MedoidSet, TrainConfig, batch_logits, fidelity, forward,
                  init_params, integrated_gradients, load_model, pixel_fragility,
                  save_model, select_medoids, shapley_sampling, sparse_subgradient,
                  synth_dataset, train)
from lmmx.explain import NeuronClassing, extended_sensitivity, sensitivity, slack
from lmmx.network import softmax_rows

from lmmx.oracles import brute_forward, fd_gradients


def report(n, name):
    print(f"\nACCEPTANCE {n:2d} {name}: PASS", flush=True)


def random_params(rng, n_pix, n_hid, n_cls, lo=0.2, hi=2.0):
    return LmmParams(
        rng.uniform(lo, hi, 2 * n_pix),
        rng.normal(0.0, 1.0, (2 * n_pix, n_hid)),
        rng.normal(0.0, 1.0, (n_hid, n_cls)),
    )


def test_c01_parameter_count():
    params = LmmParams(np.ones(2 * 784), np.zeros((2 * 784, 25)), np.zeros((25, 2)))
    assert params.n_parameters == 40818
    report(1, "parameter count 40,818 for (784, 25, 2)")


def test_c02_init_equals_nearest_medoid():
    rng = np.random.default_rng(100)
    plan = {2: (5, 200), 8: (5, 200), 784: (2, 500)}  # sets x inputs per set
    for n_pix, (n_sets, n_inputs) in plan.items():
        for _ in range(n_sets):
            n_med = int(rng.integers(2, 8))
            labels = np.concatenate([[0, 1], rng.integers(0, 2, n_med - 2)])
            med = MedoidSet(rng.uniform(0, 1, (n_med, n_pix)), labels, np.arange(n_med))
            inputs = rng.uniform(0, 1, (n_inputs, n_pix))
            oracle = med.labels[np.argmin(cdist(inputs, med.vectors, "chebyshev"), axis=1)]
            for k0 in (0.1, 1.0, 10.0):
                params = init_params(med, k0)
                predicted = np.argmax(batch_logits(params, inputs), axis=1)
                assert np.array_equal(predicted, oracle)
    report(2, "medoid init predicts exactly like the Chebyshev nearest-medoid rule")


def test_c03_forward_matches_bruteforce():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        params = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                               int(rng.integers(2, 4)))
        x = rng.uniform(-1, 2, params.n_pixels)
        trace = forward(params, x)
        _, hidden, argmins, logits, argmaxes = brute_forward(
            params.scales, params.minplus_weights, params.maxplus_weights, x)
        assert np.max(np.abs(trace.hidden - hidden)) <= 1e-12
        assert np.max(np.abs(trace.logits - logits)) <= 1e-12
        assert np.array_equal(trace.hidden_argmin, argmins)
        assert np.array_equal(trace.logit_argmax, argmaxes)
    report(3, "forward equals exhaustive min/max evaluation within 1e-12 (1000 nets)")


def _winner_margins(params, trace):
    pre_hidden = trace.linear[:, None] + params.minplus_weights
    hid = min(np.partition(pre_hidden[:, h], 1)[1] - trace.hidden[h]
              for h in range(params.n_hidden))
    if params.n_hidden == 1:
        return hid
    out = min(trace.logits[d]
              - np.partition(trace.hidden + params.maxplus_weights[:, d], -2)[-2]
              for d in range(params.n_classes))
    return min(hid, out)


def test_c04_subgradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 500:
        params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               int(rng.integers(2, 4)))
        x = rng.uniform(0, 1, params.n_pixels)
        if _winner_margins(params, forward(params, x)) <= 1e-3:
            continue
        checked += 1
        y = int(rng.integers(0, params.n_classes))
        dense = sparse_subgradient(params, x, y).as_dense(params)
        fd = fd_gradients(params, x, y)
        scale = max(1.0, max(np.max(np.abs(g), initial=0.0) for g in dense))
        for got, ref in zip(dense, fd):
            # contributions that cancel mathematically leave ~1e-17 float
            # residue; below finite-difference resolution they count as zeros
            nz = np.abs(got) > 1e-12 * scale
            if nz.any():
                assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(got[nz])) <= 1e-5
            assert np.max(np.abs(ref[~nz]), initial=0.0) < 1e-7 * scale
    report(4, "sparse subgradient matches central differences at 500 smooth points")


def test_c05_fragility_formula_suite():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        params = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
        x = rng.uniform(0, 1, params.n_pixels)
        trace = forward(params, x)
        c = trace.predicted
        slacks = [slack(params, trace, h, c) for h in range(params.n_hidden)]
        assert min(slacks) >= 0.0
        for p in range(params.n_pixels):
            for h in range(params.n_hidden):
                assert extended_sensitivity(params, trace, x, p, h, c) >= \
                    sensitivity(params, trace, x, p, h)
        fmap = pixel_fragility(params, x)
        _, opposite = NeuronClassing.from_params(params).split(c)
        for p in range(params.n_pixels):
            if opposite.size:
                expected = min(extended_sensitivity(params, trace, x, p, h, c)
                               for h in opposite)
                assert fmap.scores[p] == expected
            else:
                assert fmap.scores[p] == np.inf
        # interval invariant under a 10^4-point scan at one sampled (p, h)
        p = int(rng.integers(0, params.n_pixels))
        h = int(rng.integers(0, params.n_hidden))
        g = trace.hidden[h]
        w1p = params.minplus_weights[2 * p, h]
        w1m = params.minplus_weights[2 * p + 1, h]
        kp, km = params.scales[2 * p], params.scales[2 * p + 1]
        v_lo = (g - w1p) / kp - x[p]
        v_hi = (w1m - g) / km - x[p]
        if v_hi - v_lo > 1e-9:
            shrink = 1e-9 * (v_hi - v_lo)
            vs = np.linspace(v_lo + shrink, v_hi - shrink, 10_000)
            plus_terms = kp * (x[p] + vs) + w1p
            minus_terms = -km * (x[p] + vs) + w1m
            assert np.all(plus_terms >= g - 1e-12)
            assert np.all(minus_terms >= g - 1e-12)
            if trace.hidden_argmin[h] not in (2 * p, 2 * p + 1):
                others = np.delete(trace.linear + params.minplus_weights[:, h],
                                   [2 * p, 2 * p + 1])
                g_scan = np.minimum(others.min(), np.minimum(plus_terms, minus_terms))
                assert np.all(g_scan == g)
    report(5, "slack/extended-sensitivity/fragility identities on 1000 binary nets")


def _two_cluster(seed, n=200):
    centers = np.array([[0.1], [0.9]])
    return (synth_dataset(1, n // 2, centers, 0.02, seed=seed, split="train"),
            synth_dataset(1, 20, centers, 0.02, seed=seed + 1000, split="val"))


def test_c06_synthetic_training_reaches_full_accuracy():
    wins = 0
    for seed in range(10):
        train_data, val_data = _two_cluster(1000 + seed)
        med = select_medoids(train_data, 2, "greedy-kmedoids", seed=seed)
        params = init_params(med, 1.0)
        cfg = TrainConfig(epochs=20, batch_size=32, lr0=0.05, seed=seed)
        _, history = train(params, train_data, val_data, cfg)
        if max(history["train_accuracy"]) == 1.0:
            wins += 1
    assert wins >= 9
    report(6, f"synthetic two-cluster task fully fit within 20 epochs ({wins}/10 seeds)")


def test_c07_pneumonia_end_to_end(pneumonia_model, pneumonia_splits):
    params = pneumonia_model["params"]
    elapsed = pneumonia_model["train_seconds"]
    test = pneumonia_splits["test"]
    predicted = np.argmax(batch_logits(params, test.images), axis=1)
    acc = float(np.mean(predicted == test.labels))
    assert acc >= 0.72
    assert elapsed < 15 * 60
    report(7, f"end-to-end test accuracy {acc:.4f} >= 0.72 (trained in {elapsed:.0f}s)")


def test_c08_calibration_hits_target(synth_model):
    params = synth_model["params"]
    val = synth_model["task"]["val"]
    probs = softmax_rows(batch_logits(params, val.images), params.temperature)
    conf = float(np.mean(np.max(probs, axis=1)))
    assert abs(conf - 0.8) <= 0.005
    report(8, f"calibrated mean confidence {conf:.4f} within 0.800 +/- 0.005")


def test_c09_fidelity_ordering(pneumonia_model, pneumonia_splits):
    params = pneumonia_model["params"]
    test = pneumonia_splits["test"]
    explainers = {
        "fragility": lambda p, x: pixel_fragility(p, x),
        "intgrad": lambda p, x: integrated_gradients(p, x, steps=50),
        "shapley": lambda p, x: shapley_sampling(p, x, permutations=200, seed=0),
    }
    values = {name: fidelity(params, fn, test, fill=0.5, steps=28)
              for name, fn in explainers.items()}
    assert values["fragility"] < values["intgrad"]
    assert values["shapley"] < values["intgrad"]
    assert values["fragility"] <= 0.62
    report(9, "fidelity ordering fragility {fragility:.3f} / shapley {shapley:.3f} "
              "< intgrad {intgrad:.3f}".format(**values))


def test_c10_shapley_efficiency_exact():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n_pix = int(rng.integers(2, 7))
        n_hid = int(rng.integers(1, 4))
        # dyadic grid: every product, sum and selection below is exact in float64
        params = LmmParams(
            rng.integers(1, 2048, 2 * n_pix) / 1024.0,
            rng.integers(-2048, 2048, (2 * n_pix, n_hid)) / 1024.0,
            rng.integers(-2048, 2048, (n_hid, 2)) / 1024.0,
        )
        x = rng.integers(0, 1025, n_pix) / 1024.0
        target = forward(params, x).predicted
        gap = (forward(params, x).logits[target]
               - forward(params, np.full(n_pix, 0.5)).logits[target])
        imap = shapley_sampling(params, x, permutations=1, seed=int(rng.integers(1 << 16)))
        assert imap.scores.sum() == gap
    report(10, "Shapley per-permutation telescoping identity exact on 100 cases")


def test_c11_serialization(tmp_path):
    rng = np.random.default_rng(105)
    small = random_params(rng, 3, 4, 2)
    small.temperature = 0.71875
    path = tmp_path / "model.lmmp"
    save_model(small, path)
    back = load_model(path)
    assert np.array_equal(back.scales, small.scales)
    assert np.array_equal(back.minplus_weights, small.minplus_weights)
    assert np.array_equal(back.maxplus_weights, small.maxplus_weights)
    assert back.temperature == small.temperature

    full = LmmParams(np.ones(2 * 784), np.zeros((2 * 784, 25)), np.zeros((25, 2)))
    full_path = tmp_path / "full.lmmp"
    save_model(full, full_path)
    assert full_path.stat().st_size == 326568
    report(11, "model round-trip bit-exact; (784, 25, 2) file is 326,568 bytes")
