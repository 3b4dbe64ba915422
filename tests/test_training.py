"""Loss, sparse subgradients vs finite differences, the training loop, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmmx.training
from lmmx import (SCALE_FLOOR, CalibrationError, Dataset, DimensionError, LmmParams,
                  NumericError, ParameterError, TrainConfig, batch_logits, calibrate_temperature,
                  forward, init_params, pixel_fragility, select_medoids, shapley_sampling,
                  stability, subgradient, synth_dataset, train)
from lmmx.metrics import accuracy_from_confusion, confusion_matrix
from lmmx.training import _apply_batch

from lmmx.oracles import brute_forward
from lmmx.selftest import check_gradient_oracle, random_params

from test_network import tie_heavy_nets


def flat_params(n_pix=1, n_hid=1, n_cls=2, scale=1.0):
    return LmmParams(np.full(2 * n_pix, scale), np.zeros((2 * n_pix, n_hid)),
                     np.zeros((n_hid, n_cls)))


def two_cluster_task(seed, n=200):
    centers = np.array([[0.1], [0.9]])
    return (synth_dataset(1, n // 2, centers, 0.02, seed=seed, split="train"),
            synth_dataset(1, 20, centers, 0.02, seed=seed + 1000, split="val"))


def medoid_init_1d():
    from lmmx import MedoidSet
    med = MedoidSet(np.array([[0.1], [0.9]]), np.array([0, 1]), np.array([0, 1]))
    return init_params(med, 1.0)


class TestSparseSubgradient:
    # the loss is taken at temperature 1, so a calibrated temperature leaves it unchanged
    @pytest.mark.parametrize("n_cls, label, w2, temperature, expected, tol", [
        (2, 0, [0.0, 0.0], 1.0, np.log(2), 1e-12),
        (3, 2, [0.0, 0.0, 0.0], 1.0, np.log(3), 1e-12),
        (2, 0, [60.0, -60.0], 1.0, 0.0, 0.0),
        (2, 0, [0.0, 0.0], 5.0, np.log(2), 1e-12),
    ], ids=["uniform_two_classes", "uniform_three_classes", "confident_correct_limit",
            "ignores_calibrated_temperature"])
    def test_returned_loss(self, n_cls, label, w2, temperature, expected, tol):
        params = flat_params(n_cls=n_cls)
        params.maxplus_weights[0] = w2
        params.temperature = temperature
        loss = subgradient(params, np.array([[0.0]]), [label])[0]
        assert abs(loss - expected) <= tol

    def test_hand_worked_example(self):
        params = flat_params()
        x = np.array([0.5])
        loss, g_scales, g_w1, g_w2 = subgradient(params, x[None], [0])
        assert abs(loss - np.log(2)) <= 1e-12
        trace = forward(params, x)
        assert trace.logit_argmax.tolist() == [0, 0]
        assert trace.hidden_argmin.tolist() == [1]  # minus branch wins: -0.5 < 0.5
        assert g_w2[0, 0] == -0.5 and g_w2[0, 1] == 0.5  # residuals probs - onehot
        assert np.all(g_w1 == 0.0)   # -0.5 + 0.5 cancels on the shared branch
        assert np.all(g_scales == 0.0)

    def test_zero_residual_zero_gradient(self):
        params = flat_params()
        params.maxplus_weights[0] = [500.0, -500.0]  # prob saturates to one-hot
        loss, *grads = subgradient(params, np.array([[0.3]]), [0])
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            params = random_params(rng, 2, 3, 3)
            g_w2 = subgradient(params, rng.uniform(0, 1, (1, 2)), [int(rng.integers(0, 3))])[3]
            assert abs(g_w2.sum()) <= 1e-12  # each class's residual lands once in W2

    def test_sparsity_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n_cls = int(rng.integers(2, 4))
            params = random_params(rng, 3, 4, n_cls)
            _, g_scales, g_w1, g_w2 = subgradient(params, rng.uniform(0, 1, (1, 3)),
                                                  [int(rng.integers(0, n_cls))])
            assert np.all(np.count_nonzero(g_w2, axis=0) <= 1)
            assert np.count_nonzero(g_w1) <= n_cls
            assert np.count_nonzero(g_scales) <= n_cls

    def test_input_validation(self):
        params = flat_params()
        for bad in ([2], [-1]):
            with pytest.raises(ParameterError):
                subgradient(params, np.array([[0.5]]), bad)
        with pytest.raises(DimensionError):
            subgradient(params, np.array([0.5]), [0])
        with pytest.raises(DimensionError):
            subgradient(params, np.array([[0.5], [0.6]]), [0])
        with pytest.raises(DimensionError):
            subgradient(params, np.zeros((0, 1)), [])

    def test_matches_finite_differences(self):
        check_gradient_oracle(trials=150, seed=22)


class TestTrainLoop:
    def test_separable_task_reaches_full_accuracy(self, gapped_task):
        train_data, val_data = gapped_task(1000)
        init = init_params(select_medoids(train_data, 2, "greedy-kmedoids", seed=0), 1.0)
        assert accuracy_from_confusion(confusion_matrix(init, train_data)) < 1.0
        params, _ = train(init, train_data, val_data,
                          TrainConfig(epochs=20, batch_size=8, lr0=0.4, seed=0))
        assert accuracy_from_confusion(confusion_matrix(params, train_data)) == 1.0

    def test_evaluates_only_the_validation_split(self, monkeypatch):
        train_data, val_data = two_cluster_task(seed=7)
        rows = []

        def recorder(params, images):
            rows.append(images)
            return batch_logits(params, images)

        monkeypatch.setattr(lmmx.training, "batch_logits", recorder)
        epochs = 3
        train(medoid_init_1d(), train_data, val_data, TrainConfig(epochs=epochs, seed=0))
        assert len(rows) == epochs + 1   # the initial parameters, then once per epoch
        assert all(np.array_equal(images, val_data.images) for images in rows)

    def test_zero_epochs_is_noop(self):
        train_data, val_data = two_cluster_task(seed=1)
        init = medoid_init_1d()
        params, history = train(init, train_data, val_data, TrainConfig(epochs=0))
        assert np.array_equal(params.scales, init.scales)
        assert np.array_equal(params.minplus_weights, init.minplus_weights)
        assert np.array_equal(params.maxplus_weights, init.maxplus_weights)
        assert history["train_loss"] == []

    def test_same_seed_identical(self):
        train_data, val_data = two_cluster_task(seed=2)
        cfg = TrainConfig(epochs=5, batch_size=16, lr0=0.05, seed=9)
        a, hist_a = train(medoid_init_1d(), train_data, val_data, cfg)
        b, hist_b = train(medoid_init_1d(), train_data, val_data, cfg)
        assert hist_a == hist_b
        assert np.array_equal(a.scales, b.scales)
        assert np.array_equal(a.minplus_weights, b.minplus_weights)
        assert np.array_equal(a.maxplus_weights, b.maxplus_weights)

    def test_scales_stay_clamped(self):
        train_data, val_data = two_cluster_task(seed=3)
        cfg = TrainConfig(epochs=3, batch_size=8, lr0=50.0, seed=0)
        params, _ = train(medoid_init_1d(), train_data, val_data, cfg)
        assert params.scales.min() >= SCALE_FLOOR

    def test_loss_decreases_over_first_epoch(self):
        wins = 0
        for seed in range(10):
            train_data, val_data = two_cluster_task(seed=100 + seed)
            init = medoid_init_1d()

            def full_loss(p):
                z = batch_logits(p, train_data.images)
                m = z.max(axis=1)
                lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
                return float(np.mean(lse - z[np.arange(len(z)), train_data.labels]))

            before = full_loss(init)
            cfg = TrainConfig(epochs=1, batch_size=32, lr0=0.05, seed=seed)
            # selection may return the init weights; measure the trained ones
            trained = init.copy()
            rng = np.random.default_rng(cfg.seed)
            order = rng.permutation(train_data.n_samples)
            step = 0
            for start in range(0, train_data.n_samples, cfg.batch_size):
                rows = order[start:start + cfg.batch_size]
                lr = cfg.lr0 / np.sqrt(1.0 + cfg.lr_decay * step)
                _apply_batch(trained, train_data.images[rows], train_data.labels[rows], lr)
                step += 1
            if full_loss(trained) < before:
                wins += 1
        assert wins >= 9

    def test_best_validation_selection(self):
        train_data, val_data = two_cluster_task(seed=4)
        params, history = train(medoid_init_1d(), train_data, val_data,
                                TrainConfig(epochs=10, batch_size=32, seed=3))
        final_preds = np.argmax(batch_logits(params, val_data.images), axis=1)
        final_acc = float(np.mean(final_preds == val_data.labels))
        assert final_acc >= max(history["val_accuracy"]) - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_nets(denominator=64.0), st.data())
    def test_batch_accumulation_matches_per_sample(self, net, data):
        params, images = net
        labels = np.array(data.draw(st.lists(st.integers(0, params.n_classes - 1),
                                             min_size=len(images), max_size=len(images))))
        loss, *batched = subgradient(params, images, labels)
        singles = [subgradient(params, x[None], [y]) for x, y in zip(images, labels)]
        assert abs(loss - np.mean([one[0] for one in singles])) <= 1e-12
        for k, grad in enumerate(batched, start=1):
            assert np.max(np.abs(grad - np.mean([one[k] for one in singles], axis=0))) <= 1e-12

        classes = np.arange(params.n_classes)
        for x, (_, g_scales, g_w1, g_w2) in zip(images, singles):
            *_, argmins, _, argmaxes = brute_forward(params, x)
            branches = argmins[argmaxes]
            for grad, touched in ((g_w2, (argmaxes, classes)), (g_w1, (branches, argmaxes)),
                                  (g_scales, branches)):
                off_path = np.ones(grad.shape, dtype=bool)
                off_path[touched] = False
                assert np.all(grad[off_path] == 0.0)

        stepped = params.copy()
        _apply_batch(stepped, images, labels, 0.5)
        g_scales, g_w1, g_w2 = batched
        assert np.array_equal(stepped.scales,
                              np.maximum(params.scales - 0.5 * g_scales, SCALE_FLOOR))
        assert np.array_equal(stepped.minplus_weights, params.minplus_weights - 0.5 * g_w1)
        assert np.array_equal(stepped.maxplus_weights, params.maxplus_weights - 0.5 * g_w2)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts(self):
        huge = LmmParams(np.ones(2), np.full((2, 1), 1e308), np.full((1, 2), 1e308))
        data = Dataset(np.array([[0.5], [0.6]]), np.array([0, 1]), "train")
        with pytest.raises(NumericError, match="epoch"):
            train(huge, data, data, TrainConfig(epochs=1, batch_size=2))

    def test_dimension_validation(self):
        train_data, val_data = two_cluster_task(seed=5)
        rng = np.random.default_rng(24)
        wrong = random_params(rng, 2, 2, 2)
        with pytest.raises(Exception):
            train(wrong, train_data, val_data, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=-1)
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=0)
        for bad in ({"lr0": 0.0}, {"lr0": np.nan}, {"lr_decay": np.inf}, {"seed": -1}):
            with pytest.raises(ParameterError):
                TrainConfig(**bad)


# each entry point checks its counts and seeds itself, before numpy or the
# training loop would fail on them with a bare TypeError
NON_INTEGRAL_ARGUMENTS = {
    "TrainConfig-epochs": lambda data, params: TrainConfig(epochs=1.5),
    "TrainConfig-batch_size": lambda data, params: TrainConfig(batch_size=2.5),
    "TrainConfig-seed": lambda data, params: TrainConfig(seed=2.5),
    "select_medoids-n_medoids": lambda data, params: select_medoids(data, 4.5),
    "select_medoids-seed": lambda data, params: select_medoids(data, 2, seed=2.5),
    "shapley_sampling-seed": lambda data, params: shapley_sampling(
        params, data.images[0], permutations=2, seed=2.5),
    "stability-seed": lambda data, params: stability(params, pixel_fragility, data, m=1,
                                                     seed=2.5),
}


@pytest.mark.parametrize("call", NON_INTEGRAL_ARGUMENTS.values(), ids=NON_INTEGRAL_ARGUMENTS)
def test_non_integral_counts_and_seeds_are_parameter_errors(call):
    train_data, _ = two_cluster_task(seed=6, n=20)
    with pytest.raises(ParameterError, match="must be an integer"):
        call(train_data, random_params(np.random.default_rng(25), 1, 2, 2))


# strings and None reach the range checks as non-numbers; each real argument
# is checked for a finite number first
NON_NUMERIC_REALS = {
    "TrainConfig-lr0": lambda data, params: TrainConfig(lr0="0.1"),
    "TrainConfig-lr_decay": lambda data, params: TrainConfig(lr_decay=None),
    "init_params-k0-None": lambda data, params: init_params(select_medoids(data, 2), None),
    "init_params-k0-str": lambda data, params: init_params(select_medoids(data, 2), "1"),
    "stability-sigma": lambda data, params: stability(params, pixel_fragility, data, sigma="0.1",
                                                      m=1),
    "calibrate_temperature-target-str": lambda data, params: calibrate_temperature(params, data,
                                                                                   "0.8"),
    "calibrate_temperature-target-None": lambda data, params: calibrate_temperature(params, data,
                                                                                    None),
}


@pytest.mark.parametrize("call", NON_NUMERIC_REALS.values(), ids=NON_NUMERIC_REALS)
def test_non_numeric_reals_are_parameter_errors(call):
    train_data, _ = two_cluster_task(seed=6, n=20)
    with pytest.raises(ParameterError, match="must be a finite real number"):
        call(train_data, random_params(np.random.default_rng(25), 1, 2, 2))


class TestCalibration:
    def test_closed_form_two_class(self):
        # one sample with logits (1, 0): T solves 1/(1 + exp(-1/T)) = 0.8
        params = flat_params()
        params.maxplus_weights[0] = [1.0, 0.0]
        data = Dataset(np.array([[0.0]]), np.array([0]), "val")
        t = calibrate_temperature(params, data, 0.8)
        assert abs(t - 1.0 / np.log(4.0)) <= 1e-3
        assert params.temperature == t

    def test_degenerate_logits_error(self):
        params = flat_params()
        data = Dataset(np.array([[0.0], [0.0]]), np.array([0, 1]), "val")
        with pytest.raises(CalibrationError):
            calibrate_temperature(params, data, 0.8)

    def test_target_validation(self):
        params = flat_params()
        data = Dataset(np.array([[0.0]]), np.array([0]), "val")
        for bad in (0.5, 0.2, 1.0, 1.3):
            with pytest.raises(ParameterError):
                calibrate_temperature(params, data, bad)

    def test_trained_synthetic_model_hits_target(self, synth_model):
        params = synth_model["params"]
        val = synth_model["task"]["val"]
        probs = np.exp(batch_logits(params, val.images) / params.temperature)
        probs /= probs.sum(axis=1, keepdims=True)
        conf = float(np.mean(probs.max(axis=1)))
        assert abs(conf - 0.8) <= 1e-3
