"""Medoid selection, nearest-medoid initialization, and their equivalence."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from lmmx import (DataError, Dataset, DimensionError, MedoidSet, ParameterError, forward,
                  init_params, nearest_medoid_predict, select_medoids)
from lmmx.medoids import _allocate_per_class

from lmmx.oracles import chebyshev_nearest


def tiny_train():
    return Dataset(np.array([[0.2], [0.8]]), np.array([0, 1]), "train")


def random_medoids(rng, n_med, n_pix, n_cls=2):
    labels = np.concatenate([np.arange(n_cls), rng.integers(0, n_cls, n_med - n_cls)])
    return MedoidSet(rng.uniform(0, 1, (n_med, n_pix)), labels, np.arange(n_med))


class TestAllocation:
    def test_proportional_with_min_one(self):
        # 90/10 split over 10 medoids: floor gives 7/0, minimum lifts to 1,
        # remainder goes to the largest class
        alloc = _allocate_per_class(np.array([90, 10]), 10)
        assert alloc.tolist() == [9, 1] or alloc.sum() == 10 and alloc.min() >= 1

    def test_exact_split(self):
        assert _allocate_per_class(np.array([50, 50]), 10).tolist() == [5, 5]

    def test_remainder_to_largest(self):
        alloc = _allocate_per_class(np.array([10, 30, 20]), 4)
        assert alloc.sum() == 4 and alloc.min() >= 1
        assert alloc[1] == alloc.max()

    def test_too_few(self):
        with pytest.raises(ParameterError):
            _allocate_per_class(np.array([5, 5, 5]), 2)


class TestSelectMedoids:
    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_forced_choice(self, strategy):
        med = select_medoids(tiny_train(), 2, strategy, seed=0)
        assert sorted(med.source_indices.tolist()) == [0, 1]
        assert sorted(med.labels.tolist()) == [0, 1]

    def test_greedy_picks_cost_minimizer(self):
        # brute-force oracle: summed Chebyshev distance of each candidate
        points = np.array([[0.0], [0.1], [0.9], [0.5]])
        train = Dataset(points, np.array([0, 0, 0, 1]), "train")
        class0 = points[:3]
        costs = [sum(abs(class0 - c).max(axis=1)) for c in class0]
        best = int(np.argmin(costs))
        assert best == 1  # medoid 0.1: costs 1.0, 0.9, 1.7
        med = select_medoids(train, 2, "greedy-kmedoids", seed=0)
        chosen0 = med.source_indices[med.labels == 0]
        assert chosen0.tolist() == [best]

    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_deterministic(self, strategy):
        rng = np.random.default_rng(7)
        train = Dataset(rng.uniform(0, 1, (40, 3)), rng.integers(0, 2, 40), "train")
        train.labels[:2] = [0, 1]
        a = select_medoids(train, 6, strategy, seed=11)
        b = select_medoids(train, 6, strategy, seed=11)
        assert np.array_equal(a.source_indices, b.source_indices)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)

    def test_errors(self):
        with pytest.raises(ParameterError):
            select_medoids(tiny_train(), 1, "random", 0)  # fewer medoids than classes
        with pytest.raises(ParameterError):
            select_medoids(tiny_train(), 3, "random", 0)  # more than samples
        with pytest.raises(ParameterError):
            select_medoids(tiny_train(), 2, "pam-swap", 0)
        gappy = Dataset(np.array([[0.1], [0.3], [0.9]]), np.array([0, 0, 2]), "train")
        with pytest.raises(DataError):
            select_medoids(gappy, 3, "random", 0)  # class 1 empty

    def test_allocation_respects_frequency(self):
        rng = np.random.default_rng(8)
        images = rng.uniform(0, 1, (100, 2))
        labels = np.array([0] * 75 + [1] * 25)
        med = select_medoids(Dataset(images, labels, "train"), 8, "random", seed=0)
        assert np.sum(med.labels == 0) == 6 and np.sum(med.labels == 1) == 2


class TestInitParams:
    def test_weight_formulas(self):
        med = MedoidSet(np.array([[0.2], [0.8]]), np.array([0, 1]), np.array([0, 1]))
        params = init_params(med, 1.0)
        assert params.minplus_weights.tolist() == [[-0.2, -0.8], [0.2, 0.8]]
        assert params.maxplus_weights.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
        assert np.all(params.scales == 1.0)
        assert params.temperature == 1.0

    def test_single_medoid_distance_activation(self):
        # with one medoid at 0.3 the hidden activation is -|x - 0.3|
        med = MedoidSet(np.array([[0.3], [0.3]]), np.array([0, 1]), np.array([0, 0]))
        params = init_params(med, 1.0)
        for x in np.linspace(0, 1, 21):
            trace = forward(params, np.array([x]))
            np.testing.assert_allclose(trace.hidden[0], -abs(x - 0.3), rtol=0, atol=1e-15)

    def test_hand_worked_logits(self):
        med = MedoidSet(np.array([[0.2], [0.8]]), np.array([0, 1]), np.array([0, 1]))
        trace = forward(init_params(med, 1.0), np.array([0.4]))
        np.testing.assert_allclose(trace.logits, [0.8, 0.6], rtol=0, atol=1e-15)
        assert trace.predicted == 0

    def test_k0_validation(self):
        med = MedoidSet(np.array([[0.2], [0.8]]), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ParameterError):
            init_params(med, 0.0)


class TestNearestMedoid:
    def setup_method(self):
        self.med = MedoidSet(np.array([[0.2], [0.8]]), np.array([0, 1]), np.array([0, 1]))

    def test_closer_medoid_wins(self):
        assert nearest_medoid_predict(self.med, np.array([0.4])) == 0

    def test_exact_hit(self):
        assert nearest_medoid_predict(self.med, np.array([0.8])) == 1

    def test_tie_lowest_index(self):
        assert nearest_medoid_predict(self.med, np.array([0.5])) == 0

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            nearest_medoid_predict(self.med, np.array([0.5, 0.5]))


class TestInitEquivalence:
    def test_matches_nearest_medoid_oracle(self):
        rng = np.random.default_rng(9)
        for n_pix in (2, 8):
            for _ in range(100):
                med = random_medoids(rng, int(rng.integers(2, 7)), n_pix)
                k0 = float(rng.choice([0.1, 1.0, 10.0]))
                params = init_params(med, k0)
                for _ in range(3):
                    x = rng.uniform(0, 1, n_pix)
                    assert forward(params, x).predicted == chebyshev_nearest(
                        med.vectors, med.labels, x)

    def test_logit_formula_at_init(self):
        # z_d = max over medoids h of (-k0 * chebyshev(x, medoid_h) + W2[h, d])
        rng = np.random.default_rng(10)
        for _ in range(50):
            n_pix = int(rng.integers(2, 9))
            med = random_medoids(rng, int(rng.integers(2, 7)), n_pix)
            k0 = float(rng.uniform(0.1, 5.0))
            params = init_params(med, k0)
            x = rng.uniform(0, 1, n_pix)
            dists = cdist(x[None, :], med.vectors, "chebyshev")[0]
            expected = np.max(-k0 * dists[:, None] + params.maxplus_weights, axis=0)
            np.testing.assert_allclose(forward(params, x).logits, expected, rtol=0, atol=1e-12)

    def test_matching_class_term(self):
        # one medoid per class: z_d = k0 - k0 * distance to the class medoid
        rng = np.random.default_rng(11)
        med = MedoidSet(rng.uniform(0, 1, (2, 5)), np.array([0, 1]), np.arange(2))
        params = init_params(med, 2.5)
        for _ in range(50):
            x = rng.uniform(0, 1, 5)
            trace = forward(params, x)
            for d in (0, 1):
                dist = np.max(np.abs(x - med.vectors[d]))
                np.testing.assert_allclose(trace.logits[d], 2.5 - 2.5 * dist, rtol=0, atol=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(12)
        med = random_medoids(rng, 5, 4)
        base = init_params(med, 1.0)
        for k0 in (0.1, 10.0):
            scaled = init_params(med, k0)
            for _ in range(50):
                x = rng.uniform(0, 1, 4)
                a = forward(base, x)
                b = forward(scaled, x)
                np.testing.assert_allclose(b.logits, k0 * a.logits, rtol=1e-12, atol=1e-13)
                assert a.predicted == b.predicted


class TestMedoidSetValidation:
    def test_missing_class(self):
        with pytest.raises(DataError):
            MedoidSet(np.array([[0.1], [0.2]]), np.array([0, 2]), np.array([0, 1]))

    def test_out_of_range_entries(self):
        with pytest.raises(DataError):
            MedoidSet(np.array([[1.2], [0.2]]), np.array([0, 1]), np.array([0, 1]))
