"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (visible with -rA/-s).
Criteria 2-5, 10 and 11 run the oracle checks of ``lmmx selftest`` at
release sizes.  Criteria 7 and 9 need the real chest-X-ray archive and are
skipped with a notice when it is not present (see
conftest.pneumonia_archive_path).
"""

import numpy as np

from lmmx import (LmmParams, TrainConfig, batch_logits, fidelity, init_params,
                  integrated_gradients, pixel_fragility, save_model, select_medoids,
                  shapley_sampling, synth_dataset, train)
from lmmx.metrics import accuracy_from_confusion, confusion_matrix
from lmmx.network import softmax_rows
from lmmx.selftest import (check_forward_oracle, check_fragility_formulas, check_gradient_oracle,
                           check_init_equivalence, check_model_roundtrip,
                           check_shapley_efficiency)


def report(n, name):
    print(f"\nACCEPTANCE {n:2d} {name}: PASS", flush=True)


def test_c01_parameter_count():
    params = LmmParams(np.ones(2 * 784), np.zeros((2 * 784, 25)), np.zeros((25, 2)))
    assert params.n_parameters == 40818
    report(1, "parameter count 40,818 for (784, 25, 2)")


def test_c02_init_equals_nearest_medoid():
    check_init_equivalence(trials=1000, seed=100)
    report(2, "medoid init predicts exactly like the Chebyshev nearest-medoid rule")


def test_c03_forward_matches_bruteforce():
    check_forward_oracle(trials=1000, seed=101)
    report(3, "forward equals exhaustive min/max evaluation within 1e-12 "
              "(1000 nets, 1000 tie-heavy)")


def test_c04_subgradient_matches_finite_differences():
    check_gradient_oracle(trials=500, seed=102)
    report(4, "sparse subgradient matches central differences at 500 smooth points")


def test_c05_fragility_formula_suite():
    check_fragility_formulas(trials=1000, seed=103)
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
        params, _ = train(params, train_data, val_data, cfg)
        if accuracy_from_confusion(confusion_matrix(params, train_data)) == 1.0:
            wins += 1
    assert wins >= 9
    report(6, f"returned model fits the synthetic two-cluster training split ({wins}/10 seeds)")


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
    check_shapley_efficiency(trials=100, seed=104)
    report(10, "Shapley per-permutation telescoping identity exact on 100 cases")


def test_c11_serialization(tmp_path):
    check_model_roundtrip(seed=105)
    full = LmmParams(np.ones(2 * 784), np.zeros((2 * 784, 25)), np.zeros((25, 2)))
    full_path = tmp_path / "full.lmmp"
    save_model(full, full_path)
    assert full_path.stat().st_size == 326568
    report(11, "model round-trip bit-exact; (784, 25, 2) file is 326,568 bytes")
