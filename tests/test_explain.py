"""Fragility formulas, the flip oracle, integrated gradients, Shapley sampling."""

import numpy as np
import pytest

from lmmx import (ImportanceMap, LmmParams, MedoidSet, NeuronClassing, ParameterError,
                  UnsupportedConfigError, extended_sensitivity, forward,
                  fragility_bruteforce_flip, init_params, integrated_gradients,
                  pixel_fragility, sensitivity, shapley_sampling, slack)

from lmmx.oracles import exact_shapley, path_integral_attribution, walk_deltas

from test_network import random_params


@pytest.fixture
def two_medoid_net():
    med = MedoidSet(np.array([[0.2], [0.8]]), np.array([0, 1]), np.array([0, 1]))
    params = init_params(med, 1.0)
    x = np.array([0.4])
    return params, x, forward(params, x)


class TestSensitivity:
    def test_hand_example_zero_at_active_branch(self, two_medoid_net):
        params, x, trace = two_medoid_net
        # neuron 0's minus branch is the active argmin, so the margin is zero
        assert sensitivity(params, trace, x, 0, 0) == 0.0

    def test_minus_branch_argmin_gives_zero(self):
        rng = np.random.default_rng(30)
        hits = 0
        for _ in range(200):
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            trace = forward(params, x)
            for h in range(params.n_hidden):
                i = trace.hidden_argmin[h]
                if i % 2 == 1:
                    hits += 1
                    assert abs(sensitivity(params, trace, x, i // 2, h)) <= 1e-12
        assert hits > 50

    def test_interval_scan(self):
        # inside the induced interval both branch terms stay above the activation
        rng = np.random.default_rng(31)
        for _ in range(100):
            params = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            trace = forward(params, x)
            p = int(rng.integers(0, params.n_pixels))
            h = int(rng.integers(0, params.n_hidden))
            g = trace.hidden[h]
            w1p = params.minplus_weights[2 * p, h]
            w1m = params.minplus_weights[2 * p + 1, h]
            kp = params.scales[2 * p]
            km = params.scales[2 * p + 1]
            v_lo = (g - w1p) / kp - x[p]
            v_hi = (w1m - g) / km - x[p]
            assert v_lo <= 1e-12 and v_hi >= -1e-12
            assert abs(sensitivity(params, trace, x, p, h) - min(-v_lo, v_hi)) <= 1e-12
            if v_hi - v_lo <= 1e-9:
                continue
            shrink = 1e-9 * (v_hi - v_lo)
            vs = np.linspace(v_lo + shrink, v_hi - shrink, 10_000)
            plus_terms = kp * (x[p] + vs) + w1p
            minus_terms = -km * (x[p] + vs) + w1m
            assert np.all(plus_terms >= g - 1e-12)
            assert np.all(minus_terms >= g - 1e-12)
            # when some other branch holds the minimum, the activation is pinned
            if trace.hidden_argmin[h] not in (2 * p, 2 * p + 1):
                others = np.delete(trace.linear + params.minplus_weights[:, h],
                                   [2 * p, 2 * p + 1])
                g_scan = np.minimum(others.min(), np.minimum(plus_terms, minus_terms))
                assert np.all(g_scan == g)


class TestSlack:
    def test_winner_has_zero_slack(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            params = random_params(rng, 2, 3, 2)
            x = rng.uniform(0, 1, 2)
            trace = forward(params, x)
            c = trace.predicted
            h = trace.logit_argmax[c]
            if int(np.argmax(params.maxplus_weights[h])) == c:
                assert slack(params, trace, h, c) == 0.0

    def test_hand_example(self, two_medoid_net):
        params, x, trace = two_medoid_net
        assert abs(slack(params, trace, 1, 0) - 0.2) <= 1e-12

    def test_nonnegative_for_predicted_class(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)), 2)
            trace = forward(params, rng.uniform(0, 1, params.n_pixels))
            for h in range(params.n_hidden):
                assert slack(params, trace, h, trace.predicted) >= 0.0


class TestExtendedSensitivity:
    def test_equals_sensitivity_at_zero_slack(self):
        rng = np.random.default_rng(34)
        found = 0
        for _ in range(100):
            params = random_params(rng, 2, 3, 2)
            x = rng.uniform(0, 1, 2)
            trace = forward(params, x)
            c = trace.predicted
            for h in range(3):
                if slack(params, trace, h, c) == 0.0:
                    found += 1
                    for p in range(2):
                        assert extended_sensitivity(params, trace, x, p, h, c) == \
                            sensitivity(params, trace, x, p, h)
        assert found > 20

    def test_hand_example(self, two_medoid_net):
        params, x, trace = two_medoid_net
        assert abs(extended_sensitivity(params, trace, x, 0, 1, 0) - 0.2) <= 1e-12

    def test_dominates_sensitivity(self):
        rng = np.random.default_rng(35)
        for _ in range(300):
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            trace = forward(params, x)
            c = trace.predicted
            for p in range(params.n_pixels):
                for h in range(params.n_hidden):
                    assert extended_sensitivity(params, trace, x, p, h, c) >= \
                        sensitivity(params, trace, x, p, h)


class TestNeuronClassing:
    def test_lowest_index_tie(self):
        params = LmmParams(np.ones(2), np.zeros((2, 2)),
                           np.array([[1.0, 1.0], [0.0, 2.0]]))
        classing = NeuronClassing.from_params(params)
        assert classing.class_of_neuron.tolist() == [0, 1]

    def test_partition(self):
        params = LmmParams(np.ones(2), np.zeros((2, 3)),
                           np.array([[3.0, 0.0], [0.0, 3.0], [2.0, 1.0]]))
        same, other = NeuronClassing.from_params(params).split(0)
        assert same.tolist() == [0, 2] and other.tolist() == [1]
        assert len(set(same) | set(other)) == 3


class TestPixelFragility:
    def test_hand_example(self, two_medoid_net):
        params, x, _ = two_medoid_net
        fmap = pixel_fragility(params, x)
        assert fmap.ordering == "ascending"
        assert abs(fmap.scores[0] - 0.2) <= 1e-12

    def test_matches_per_neuron_recompute_exactly(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            params = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            trace = forward(params, x)
            c = trace.predicted
            fmap = pixel_fragility(params, x)
            _, opposite = NeuronClassing.from_params(params).split(c)
            for p in range(params.n_pixels):
                if opposite.size:
                    expected = min(extended_sensitivity(params, trace, x, p, h, c)
                                   for h in opposite)
                    assert fmap.scores[p] == expected
                else:
                    assert fmap.scores[p] == np.inf

    def test_empty_opposite_set_gives_infinity(self):
        params = LmmParams(np.ones(2), np.zeros((2, 2)),
                           np.array([[1.0, 0.0], [2.0, 1.0]]))  # both neurons typed class 0
        x = np.array([0.5])
        assert forward(params, x).predicted == 0
        assert np.all(pixel_fragility(params, x).scores == np.inf)

    def test_multiclass_rejected(self):
        rng = np.random.default_rng(37)
        params = random_params(rng, 2, 2, 3)
        with pytest.raises(UnsupportedConfigError):
            pixel_fragility(params, rng.uniform(0, 1, 2))


class TestBruteforceFlip:
    def test_hand_example_flip_distance(self, two_medoid_net):
        # logits cross at the midpoint of the two medoids: z0 = 1 - |x'-0.2|
        # falls while z1 = 1 - |x'-0.8| rises, meeting at x' = 0.5, so the
        # flip distance from x = 0.4 is 0.1 (while the fragility score,
        # which holds the winning logit fixed, is 0.2)
        params, x, _ = two_medoid_net
        v = fragility_bruteforce_flip(params, x, 0, grid=401)
        assert v is not None and abs(v - 0.1) <= 0.011

    def test_constant_margin_never_flips(self):
        params = LmmParams(np.ones(2), np.zeros((2, 1)), np.array([[10.0, -10.0]]))
        assert fragility_bruteforce_flip(params, np.array([0.5]), 0, grid=201) is None

    def test_grid_validation(self, two_medoid_net):
        params, x, _ = two_medoid_net
        with pytest.raises(ParameterError):
            fragility_bruteforce_flip(params, x, 0, grid=50)


class TestIntegratedGradients:
    def test_zero_at_baseline(self):
        rng = np.random.default_rng(38)
        params = random_params(rng, 3, 3, 2)
        imap = integrated_gradients(params, np.full(3, 0.5))
        assert np.array_equal(imap.scores, np.zeros(3))
        assert imap.ordering == "descending"

    def test_matches_line_integral_oracle(self, two_medoid_net):
        params, x, trace = two_medoid_net
        oracle = path_integral_attribution(params, x, np.full(1, 0.5), trace.predicted, 10_000)
        got = integrated_gradients(params, x, steps=10_000)
        np.testing.assert_allclose(got.scores, oracle, rtol=0, atol=1e-12)

    def test_matches_oracle_on_random_nets(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            target = forward(params, x).predicted
            oracle = path_integral_attribution(params, x, np.full(params.n_pixels, 0.5),
                                               target, 777)
            got = integrated_gradients(params, x, steps=777)
            np.testing.assert_allclose(got.scores, oracle, rtol=0, atol=1e-12)

    def test_completeness_on_kink_free_paths(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            baseline = np.full(params.n_pixels, 0.5)
            target = forward(params, x).predicted
            # keep only paths whose active pair never switches
            pairs = set()
            for t in np.linspace(0.0, 1.0, 50):
                tr = forward(params, baseline + t * (x - baseline))
                h = tr.logit_argmax[target]
                pairs.add((int(h), int(tr.hidden_argmin[h])))
            gap = forward(params, x).logits[target] - forward(params, baseline).logits[target]
            if len(pairs) > 1 or abs(gap) < 1e-2:
                continue
            checked += 1
            total = integrated_gradients(params, x, steps=1000).scores.sum()
            assert abs(total - gap) <= 0.05 * abs(gap)


class TestShapleySampling:
    def test_zero_at_baseline(self):
        rng = np.random.default_rng(41)
        params = random_params(rng, 3, 3, 2)
        imap = shapley_sampling(params, np.full(3, 0.5), permutations=5, seed=0)
        assert np.array_equal(imap.scores, np.zeros(3))

    def test_two_pixel_exact_enumeration(self):
        rng = np.random.default_rng(42)
        params = random_params(rng, 2, 3, 2)
        x = rng.uniform(0, 1, 2)
        baseline = np.full(2, 0.5)
        target = forward(params, x).predicted
        oracle = exact_shapley(params.scales, params.minplus_weights,
                               params.maxplus_weights, x, baseline, target)
        # find a seed whose two sampled permutations cover both orders
        for seed in range(50):
            probe = np.random.default_rng(seed)
            drawn = {tuple(probe.permutation(2)) for _ in range(2)}
            if drawn == {(0, 1), (1, 0)}:
                got = shapley_sampling(params, x, permutations=2, seed=seed)
                np.testing.assert_allclose(got.scores, oracle, rtol=0, atol=1e-12)
                return
        pytest.fail("no seed produced both permutations")

    def test_walks_match_direct_evaluation(self):
        # the prefix/suffix running-minimum walk equals flip-by-flip forwards
        rng = np.random.default_rng(43)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            baseline = np.full(params.n_pixels, 0.5)
            target = forward(params, x).predicted
            seed = int(rng.integers(1 << 16))
            got = shapley_sampling(params, x, permutations=1, seed=seed)
            perm = np.random.default_rng(seed).permutation(params.n_pixels)
            deltas = walk_deltas(params.scales, params.minplus_weights,
                                 params.maxplus_weights, x, baseline, target, perm)
            assert np.array_equal(got.scores, deltas)

    def test_efficiency_identity(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            params = random_params(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            target = forward(params, x).predicted
            gap = (forward(params, x).logits[target]
                   - forward(params, np.full(params.n_pixels, 0.5)).logits[target])
            total = shapley_sampling(params, x, permutations=3, seed=7).scores.sum()
            assert abs(total - gap) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        params = random_params(rng, 4, 3, 2)
        x = rng.uniform(0, 1, 4)
        a = shapley_sampling(params, x, permutations=10, seed=3)
        b = shapley_sampling(params, x, permutations=10, seed=3)
        assert np.array_equal(a.scores, b.scores)


class TestImportanceMapRanking:
    def test_ascending_ranks_small_first(self):
        imap = ImportanceMap(np.array([3.0, 1.0, 2.0, 1.0]), "ascending", "fragility")
        assert imap.ranking().tolist() == [1, 3, 2, 0]

    def test_descending_ranks_by_magnitude(self):
        imap = ImportanceMap(np.array([-5.0, 3.0, 0.0, 5.0]), "descending", "shapley")
        assert imap.ranking().tolist() == [0, 3, 1, 2]

    def test_ordering_validated(self):
        with pytest.raises(ParameterError):
            ImportanceMap(np.zeros(3), "sideways", "fragility")
