"""Loss, sparse subgradients vs finite differences, the training loop, calibration."""

import numpy as np
import pytest

from lmmx import (CalibrationError, Dataset, LmmParams, NumericError, ParameterError,
                  TrainConfig, batch_logits, calibrate_temperature, cross_entropy, forward,
                  sparse_subgradient, synth_dataset, train)
from lmmx.training import _apply_batch

from lmmx.oracles import fd_gradients

from test_network import random_params


def flat_params(n_pix=1, n_hid=1, n_cls=2, scale=1.0):
    return LmmParams(np.full(2 * n_pix, scale), np.zeros((2 * n_pix, n_hid)),
                     np.zeros((n_hid, n_cls)))


def two_cluster_task(seed, n=200):
    centers = np.array([[0.1], [0.9]])
    return (synth_dataset(1, n // 2, centers, 0.02, seed=seed, split="train"),
            synth_dataset(1, 20, centers, 0.02, seed=seed + 1000, split="val"))


def medoid_init_1d():
    from lmmx import MedoidSet, init_params
    med = MedoidSet(np.array([[0.1], [0.9]]), np.array([0, 1]), np.array([0, 1]))
    return init_params(med, 1.0)


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        params = flat_params()
        assert abs(cross_entropy(params, np.array([0.0]), 0) - np.log(2)) <= 1e-12

    def test_uniform_three_classes(self):
        params = flat_params(n_cls=3)
        assert abs(cross_entropy(params, np.array([0.0]), 2) - np.log(3)) <= 1e-12

    def test_confident_correct_limit(self):
        params = flat_params()
        params.maxplus_weights[0] = [60.0, -60.0]
        assert cross_entropy(params, np.array([0.0]), 0) == 0.0

    def test_ignores_calibrated_temperature(self):
        params = flat_params()
        params.temperature = 5.0
        assert abs(cross_entropy(params, np.array([0.0]), 0) - np.log(2)) <= 1e-12

    def test_label_validation(self):
        with pytest.raises(ParameterError):
            cross_entropy(flat_params(), np.array([0.0]), 2)


class TestSparseSubgradient:
    def test_hand_worked_example(self):
        params = flat_params()
        grad = sparse_subgradient(params, np.array([0.5]), 0)
        assert np.array_equal(grad.residuals, [-0.5, 0.5])
        assert grad.hidden_winner.tolist() == [0, 0]
        assert grad.branch_winner.tolist() == [1, 1]  # minus branch wins: -0.5 < 0.5
        g_scales, g_w1, g_w2 = grad.as_dense(params)
        assert g_w2[0, 0] == -0.5 and g_w2[0, 1] == 0.5
        assert np.all(g_w1 == 0.0)   # -0.5 + 0.5 cancels on the shared branch
        assert np.all(g_scales == 0.0)

    def test_zero_residual_zero_gradient(self):
        params = flat_params()
        params.maxplus_weights[0] = [500.0, -500.0]  # prob saturates to one-hot
        grad = sparse_subgradient(params, np.array([0.3]), 0)
        assert np.array_equal(grad.residuals, [0.0, 0.0])
        assert all(np.all(g == 0.0) for g in grad.as_dense(params))

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            params = random_params(rng, 2, 3, 3)
            grad = sparse_subgradient(params, rng.uniform(0, 1, 2), int(rng.integers(0, 3)))
            assert abs(grad.residuals.sum()) <= 1e-12

    def test_sparsity_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n_cls = int(rng.integers(2, 4))
            params = random_params(rng, 3, 4, n_cls)
            grad = sparse_subgradient(params, rng.uniform(0, 1, 3), int(rng.integers(0, n_cls)))
            assert len(set(zip(grad.hidden_winner, range(n_cls)))) <= n_cls
            assert len(set(zip(grad.branch_winner, grad.hidden_winner))) <= n_cls
            assert len(set(grad.branch_winner.tolist())) <= n_cls

    def margins(self, params, x):
        trace = forward(params, x)
        pre_hidden = trace.linear[:, None] + params.minplus_weights
        hid = min(np.partition(pre_hidden[:, h], 1)[1] - trace.hidden[h]
                  for h in range(params.n_hidden))
        if params.n_hidden == 1:
            out = np.inf
        else:
            out = min(trace.logits[d] - np.partition(trace.hidden + params.maxplus_weights[:, d], -2)[-2]
                      for d in range(params.n_classes))
        return min(hid, out)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 150:
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                   int(rng.integers(2, 4)))
            x = rng.uniform(0, 1, params.n_pixels)
            y = int(rng.integers(0, params.n_classes))
            if self.margins(params, x) <= 1e-3:
                continue
            checked += 1
            dense = sparse_subgradient(params, x, y).as_dense(params)
            fd = fd_gradients(params, x, y)
            scale = max(1.0, max(np.max(np.abs(g), initial=0.0) for g in dense))
            for got, ref in zip(dense, fd):
                # exact cancellations leave float residue below FD resolution
                nz = np.abs(got) > 1e-12 * scale
                assert np.allclose(got[nz], ref[nz], rtol=1e-5, atol=0)
                assert np.max(np.abs(ref[~nz]), initial=0.0) < 1e-7 * scale


class TestTrainLoop:
    def test_separable_task_reaches_full_accuracy(self):
        train_data, val_data = two_cluster_task(seed=0)
        params, history = train(medoid_init_1d(), train_data, val_data,
                                TrainConfig(epochs=20, batch_size=32, lr0=0.05, seed=0))
        assert max(history["train_accuracy"]) == 1.0

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
        cfg = TrainConfig(epochs=3, batch_size=8, lr0=50.0, seed=0, k_min=1e-6)
        params, _ = train(medoid_init_1d(), train_data, val_data, cfg)
        assert params.scales.min() >= 1e-6

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
                _apply_batch(trained, train_data.images[rows], train_data.labels[rows],
                             lr, cfg.k_min)
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

    def test_batch_accumulation_matches_per_sample(self):
        rng = np.random.default_rng(23)
        params = random_params(rng, 3, 4, 2)
        images = rng.uniform(0, 1, (16, 3))
        labels = rng.integers(0, 2, 16)
        lr = 0.05
        batched = params.copy()
        _apply_batch(batched, images, labels, lr, 1e-6)
        manual = params.copy()
        g_scales = np.zeros_like(manual.scales)
        g_w1 = np.zeros_like(manual.minplus_weights)
        g_w2 = np.zeros_like(manual.maxplus_weights)
        for i in reversed(range(16)):  # opposite accumulation order
            grad = sparse_subgradient(params, images[i], int(labels[i]))
            s, w1, w2 = grad.as_dense(params)
            g_scales += s
            g_w1 += w1
            g_w2 += w2
        manual.scales = np.maximum(manual.scales - lr * g_scales / 16, 1e-6)
        manual.minplus_weights -= lr * g_w1 / 16
        manual.maxplus_weights -= lr * g_w2 / 16
        assert np.max(np.abs(batched.scales - manual.scales)) <= 1e-9
        assert np.max(np.abs(batched.minplus_weights - manual.minplus_weights)) <= 1e-9
        assert np.max(np.abs(batched.maxplus_weights - manual.maxplus_weights)) <= 1e-9

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
        with pytest.raises(ParameterError):
            TrainConfig(lr0=0.0)


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
