"""Fragility formulas and their references, the flip oracle, integrated gradients, Shapley sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmx import (SCALE_FLOOR, DimensionError, ImportanceMap, LmmParams, MedoidSet,
                  NumericError, ParameterError, UnsupportedConfigError, forward, init_params,
                  integrated_gradients, pixel_fragility, shapley_sampling)
from lmmx import explain
from lmmx.explain import GRAY, prune
from lmmx.network import pixel_mins
from lmmx.oracles import (exact_shapley, extended_sensitivity, fragility_bruteforce_flip,
                          neuron_class, path_integral_attribution, sampled_walk_deltas,
                          sensitivity, slack, walk_deltas)
from lmmx.selftest import (check_fragility_formulas, check_shapley_efficiency, dyadic_params,
                           random_params)

from strategies import walk_nets


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


class TestPixelFragility:
    def test_hand_example(self, two_medoid_net):
        params, x, _ = two_medoid_net
        fmap = pixel_fragility(params, x)
        assert fmap.ordering == "ascending"
        assert abs(fmap.scores[0] - 0.2) <= 1e-12

    def test_matches_per_neuron_recompute_exactly(self):
        check_fragility_formulas(trials=200, seed=36)

    @staticmethod
    def least_extended_sensitivity(params, x, neurons):
        trace = forward(params, x)
        return np.array([min(extended_sensitivity(params, trace, x, p, h, trace.predicted)
                             for h in neurons) for p in range(params.n_pixels)])

    def test_tied_neuron_is_typed_to_class_0(self):
        # neuron 0's max-plus biases tie, so it is typed to class 0 and scores
        # against a class-1 prediction only: both maps read 0.5, where typing
        # it to class 1 would give 1.0 and 0.0
        params = LmmParams(np.ones(2), np.array([[1.0, -1.0, 2.0], [1.0, 1.5, -0.5]]),
                           np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]]))
        for x, predicted, opposite in ((0.75, 1, [0, 2]), (0.25, 0, [1])):
            x = np.array([x])
            assert forward(params, x).predicted == predicted
            scores = pixel_fragility(params, x).scores
            assert np.array_equal(scores, self.least_extended_sensitivity(params, x, opposite))

    def test_same_and_opposite_sets_partition_the_neurons(self):
        # a class-0 prediction scores exactly the neurons typed 1, a class-1
        # prediction exactly the rest
        rng = np.random.default_rng(35)
        nets = 0
        while nets < 20:
            params = random_params(rng, 3, 4, 2)
            xs = rng.uniform(0, 1, (20, 3))
            if len({forward(params, x).predicted for x in xs}) < 2:
                continue
            nets += 1
            typed_1 = [h for h in range(4) if neuron_class(params, h) == 1]
            rest = [h for h in range(4) if h not in typed_1]
            for x in xs:
                opposite = typed_1 if forward(params, x).predicted == 0 else rest
                assert np.array_equal(pixel_fragility(params, x).scores,
                                      self.least_extended_sensitivity(params, x, opposite))

    def test_empty_opposite_set_gives_infinity(self):
        params = LmmParams(np.ones(2), np.zeros((2, 2)),
                           np.array([[1.0, 0.0], [2.0, 1.0]]))  # both neurons typed class 0
        x = np.array([0.5])
        assert forward(params, x).predicted == 0
        assert np.all(pixel_fragility(params, x).scores == np.inf)

    @staticmethod
    def divided_per_entry(params, x):
        """The (P, opposite) extended sensitivities, each divided, then their min per pixel."""
        trace = forward(params, x)
        own = np.argmax(params.maxplus_weights, axis=1)
        opposite = np.flatnonzero(own != trace.predicted)
        g = trace.hidden[opposite]
        s = trace.logits[trace.predicted] - (g + params.maxplus_weights[opposite, own[opposite]])
        w1_plus = params.minplus_weights[0::2, opposite]
        w1_minus = params.minplus_weights[1::2, opposite]
        k_plus = params.scales[0::2][:, None]
        k_minus = params.scales[1::2][:, None]
        term_plus = x[:, None] - ((g - s)[None, :] - w1_plus) / k_plus
        term_minus = (s[None, :] + w1_minus - g[None, :]) / k_minus - x[:, None]
        return np.minimum(term_plus, term_minus).min(axis=1, initial=np.inf)

    @pytest.mark.parametrize("levels, signed_zeros, extreme_scales", [
        (1024, False, False),   # few ties
        (4, False, False),      # coarse grid: tied terms, neurons and zero scores
        (4, True, False),       # and -0.0 among the zeros of W1, W2 and the pixels
        (4, True, True),        # and scales at SCALE_FLOOR and 1e6
        (1024, False, True),
    ])
    def test_min_before_division_matches_per_entry_division(self, levels, signed_zeros,
                                                            extreme_scales):
        # the numerators' max (plus side) and min (minus side) over opposite
        # neurons, each divided once, give the per-entry reduction's values;
        # only the sign of a zero score may differ
        rng = np.random.default_rng(38 + levels)
        n_pix = 16
        opposite_sizes = {0: set(), 1: set()}
        zero_scores = 0
        for _ in range(12):
            n_hid = int(rng.integers(20, 28))
            params = dyadic_params(rng, n_pix, n_hid, 2, levels)
            w2 = params.maxplus_weights
            typed_0 = rng.random(n_hid) < 0.75       # uneven typing: small and large opposite sets
            w2[typed_0] = np.sort(w2[typed_0], axis=1)[:, ::-1]
            own = np.argmax(w2, axis=1)
            if signed_zeros:
                for a in (params.minplus_weights, w2):
                    a[(a == 0) & (rng.random(a.shape) < 0.5)] = -0.0
            if extreme_scales:
                pick = rng.integers(0, 3, 2 * n_pix)
                params.scales[pick == 1] = SCALE_FLOOR
                params.scales[pick == 2] = 1e6
            for _ in range(16):
                x = rng.integers(0, levels + 1, n_pix) / levels
                x[:2] = 0.0, 1.0
                if signed_zeros:
                    x[x == 0] = -0.0
                predicted = forward(params, x).predicted
                opposite_sizes[predicted].add(int(np.count_nonzero(own != predicted)))
                fmap = pixel_fragility(params, x)
                expected = self.divided_per_entry(params, x)
                assert np.array_equal(fmap.scores, expected)
                nonzero = expected != 0
                zero_scores += int(np.count_nonzero(~nonzero))
                assert fmap.scores[nonzero].tobytes() == expected[nonzero].tobytes()
                assert np.array_equal(fmap.ranking(), ImportanceMap(expected, "ascending").ranking())
        assert all(opposite_sizes.values())                 # both predicted classes ran
        assert max(opposite_sizes[1]) > max(opposite_sizes[0])
        assert zero_scores > 0 or levels > 4

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
        imap = integrated_gradients(params, np.full(3, GRAY))
        assert np.array_equal(imap.scores, np.zeros(3))
        assert imap.ordering == "descending"

    def test_matches_line_integral_oracle(self, two_medoid_net):
        params, x, trace = two_medoid_net
        oracle = path_integral_attribution(params, x, trace.predicted, 10_000)
        got = integrated_gradients(params, x, steps=10_000)
        assert got.scores.tobytes() == oracle.tobytes()

    def test_matches_oracle_on_random_nets(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            target = forward(params, x).predicted
            oracle = path_integral_attribution(params, x, target, 777)
            got = integrated_gradients(params, x, steps=777)
            assert got.scores.tobytes() == oracle.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pruned_path_matches_oracle_on_ties(self, data):
        # tie-heavy dyadic nets: duplicated neurons and branches, pixels equal
        # to the baseline, at 0 and at 1, and max-plus biases wide enough to
        # prune neurons; one step makes both path ends one point, and the gray
        # image has no path at all
        params, (x,) = data.draw(walk_nets(n_rows=1))
        if data.draw(st.booleans()):
            x = np.full(params.n_pixels, GRAY)
        steps = data.draw(st.integers(1, 70))
        target = forward(params, x).predicted
        oracle = path_integral_attribution(params, x, target, steps)
        got = integrated_gradients(params, x, steps=steps)
        assert got.scores.tobytes() == oracle.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 70), medoid=st.booleans())
    def test_matches_oracle_on_bench_shape_nets(self, seed, steps, medoid):
        # P = 784, H1 = 25, C = 2.  A medoid-init net (k0 = 5) of k / 255
        # medoids has branches that tie across neurons, a random net none; the
        # image lies near a medoid, with 80 pixels set to 0, 1 or GRAY
        rng = np.random.default_rng(seed)
        n_pix, n_hid = 784, 25
        vectors = rng.integers(0, 256, (n_hid, n_pix)) / 255.0
        if medoid:
            params = init_params(MedoidSet(vectors, np.arange(n_hid) % 2, np.arange(n_hid)), 5.0)
        else:
            params = random_params(rng, n_pix, n_hid, 2)
        x = np.clip(vectors[rng.integers(n_hid)] + rng.integers(-20, 21, n_pix) / 255.0, 0.0, 1.0)
        x[rng.choice(n_pix, 80, replace=False)] = rng.choice([0.0, 1.0, GRAY], 80)
        oracle = path_integral_attribution(params, x, forward(params, x).predicted, steps)
        got = integrated_gradients(params, x, steps=steps)
        assert got.scores.tobytes() == oracle.tobytes()

    def test_branch_at_the_neuron_bound_is_kept(self):
        # Branch 0 (pixel 0, which never moves) is pinned at 0.875, the
        # neuron's upper bound, set by branch 2 at the path's last point;
        # there the two tie and branch 0 wins by index.  Dropping it would
        # credit pixel 1 with both points: 0.5 instead of 0.25.
        w1 = np.array([[0.375], [10.0], [0.0], [10.0]])
        params = LmmParams(np.ones(4), w1, np.array([[0.0, -1.0]]))
        x = np.array([0.5, 1.0])
        got = integrated_gradients(params, x, steps=2)
        assert np.array_equal(got.scores, [0.0, 0.25])
        oracle = path_integral_attribution(params, x, 0, 2)
        assert got.scores.tobytes() == oracle.tobytes()

    def test_neuron_at_the_threshold_is_kept(self):
        # Neuron 0 is pinned at 0.5 (pixel 0 never moves), so its upper bound
        # equals the pruning threshold, neuron 1's lower bound at the first
        # point; there the two tie and neuron 0 wins by index.  Dropping it
        # would credit pixel 1 with both points: 0.5 instead of 0.25.
        w1 = np.array([[0.0, 10.0], [10.0, 10.0], [10.0, -0.125], [10.0, 10.0]])
        params = LmmParams(np.ones(4), w1, np.array([[0.0, -5.0], [0.0, -5.0]]))
        x = np.array([0.5, 1.0])
        assert forward(params, x).predicted == 0
        got = integrated_gradients(params, x, steps=2)
        assert np.array_equal(got.scores, [0.0, 0.25])
        oracle = path_integral_attribution(params, x, 0, 2)
        assert got.scores.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("steps", [0, 2.5, 3.0, "50"])
    def test_steps_must_be_a_positive_integer(self, steps):
        params = random_params(np.random.default_rng(38), 3, 3, 2)
        with pytest.raises(ParameterError):
            integrated_gradients(params, np.full(3, 0.25), steps=steps)

    def test_completeness_on_kink_free_paths(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
            x = rng.uniform(0, 1, params.n_pixels)
            baseline = np.full(params.n_pixels, GRAY)
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
        imap = shapley_sampling(params, np.full(3, GRAY), permutations=5, seed=0)
        assert np.array_equal(imap.scores, np.zeros(3))

    def test_two_pixel_exact_enumeration(self):
        rng = np.random.default_rng(42)
        params = random_params(rng, 2, 3, 2)
        x = rng.uniform(0, 1, 2)
        target = forward(params, x).predicted
        oracle = exact_shapley(params, x, target)
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
            target = forward(params, x).predicted
            seed = int(rng.integers(1 << 16))
            got = shapley_sampling(params, x, permutations=1, seed=seed)
            perm = np.random.default_rng(seed).permutation(params.n_pixels)
            deltas = walk_deltas(params, x, target, perm)
            assert np.array_equal(got.scores, deltas)

    def test_efficiency_identity(self):
        check_shapley_efficiency(trials=30, seed=44)

    def test_threshold_tie_keeps_the_neuron(self):
        # Neuron 0 is pinned at -x0 = -0.5 (pixel 0 never moves), so its upper
        # bound equals the pruning threshold; neuron 1 (= x1 - 1.25) crosses it.
        # Dropping neuron 0 would make the gray logit -0.75 instead of -0.5 and
        # credit pixel 1 with 0.5 instead of 0.25.
        w1 = np.array([[0.0, 10.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]])
        params = LmmParams(np.ones(4), w1, np.array([[0.0, -2.0], [-1.25, -2.0]]))
        x = np.array([0.5, 1.0])
        assert forward(params, x).predicted == 0
        start, end = pixel_mins(params, np.full(2, GRAY)), pixel_mins(params, x)
        out_bias = params.maxplus_weights[:, 0]
        upper = np.maximum(start, end).min(axis=1) + out_bias
        lower = np.minimum(start, end).min(axis=1) + out_bias
        assert upper[0] == lower.max() == -0.5
        got = shapley_sampling(params, x, permutations=3, seed=1)
        assert np.array_equal(got.scores, [0.0, 0.25])
        assert prune(np.minimum(start, end), np.maximum(start, end), out_bias)[0].tolist() == [0, 1]

    def test_all_but_one_neuron_pruned(self):
        # one class-0 medoid among class-1 medoids: at init every class-1
        # neuron sits at least k0 below the class-0 logit on every walk
        vectors = np.array([[0.25, 0.75, 0.5], [1.0, 0.0, 0.5], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        params = init_params(MedoidSet(vectors, np.array([0, 1, 1, 1]), np.arange(4)), 2.0)
        x = np.array([0.375, 0.5, 0.25])
        baseline = np.full(3, GRAY)
        assert forward(params, x).predicted == 0
        start, end = pixel_mins(params, baseline), pixel_mins(params, x)
        assert prune(np.minimum(start, end), np.maximum(start, end),
                     params.maxplus_weights[:, 0])[0].tolist() == [0]
        for seed in range(6):
            perm = np.random.default_rng(seed).permutation(3)
            deltas = walk_deltas(params, x, 0, perm)
            assert np.array_equal(shapley_sampling(params, x, permutations=1, seed=seed).scores,
                                  deltas)

    def test_pixel_at_a_bound_stays_in_the_walk(self):
        # One neuron.  Pixel 0 sits at the baseline, so both its terms are 0.5,
        # which is the neuron's bound min_p max(start, end) = min(0.5, 0.75).
        # Pixel 1 moves its term from 0.25 to 0.75 and is credited
        # min(0.5, 0.75) - 0.25; leaving pixel 0 out would credit 0.75 - 0.25.
        w1 = np.array([[0.0], [10.0], [-0.25], [10.0]])
        params = LmmParams(np.ones(4), w1, np.array([[0.0, -1.0]]))
        x = np.array([0.5, 1.0])
        start, end = pixel_mins(params, np.full(2, GRAY)), pixel_mins(params, x)
        assert np.minimum(start, end)[0, 0] == np.maximum(start, end).min() == 0.5
        keep, bound = prune(np.minimum(start, end), np.maximum(start, end),
                            params.maxplus_weights[:, 0])
        assert keep.tolist() == [0] and bound.tolist() == [0.5]
        for seed in range(3):
            got = shapley_sampling(params, x, permutations=1, seed=seed)
            assert got.scores.tobytes() == np.array([0.0, 0.25]).tobytes()

    def test_pixel_above_every_bound_scores_positive_zero(self):
        # Both neurons are kept (bounds 1.0 and 0.75).  Pixel 1's terms are at
        # least 3.0 in both, so it never sets a min and is credited +0.0.
        w1 = np.array([[0.0, -0.25], [10.0, 10.0], [2.0, 2.25], [10.0, 10.0]])
        params = LmmParams(np.ones(4), w1, np.array([[0.0, -1.0], [0.0, -1.0]]))
        x = np.array([1.0, 1.0])
        start, end = pixel_mins(params, np.full(2, GRAY)), pixel_mins(params, x)
        keep, bound = prune(np.minimum(start, end), np.maximum(start, end),
                            params.maxplus_weights[:, 0])
        assert keep.tolist() == [0, 1] and bound.tolist() == [1.0, 0.75]
        assert np.all(np.minimum(start, end)[:, 0] <= bound)
        assert np.all(np.minimum(start, end)[:, 1] > bound)
        for permutations in (1, 2, 5):
            got = shapley_sampling(params, x, permutations=permutations, seed=permutations)
            assert got.scores.tobytes() == np.array([0.5, 0.0]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pruned_walks_match_direct_evaluation_on_ties(self, data):
        # tie-heavy dyadic nets: duplicated neurons, pixels equal to the
        # baseline, and max-plus biases wide enough that neurons get pruned
        params, (x,) = data.draw(walk_nets(n_rows=1))
        target = forward(params, x).predicted
        seed = data.draw(st.integers(0, 1 << 16))
        permutations = data.draw(st.integers(1, 4))
        perms = np.random.default_rng(seed)
        expected = np.zeros(params.n_pixels)
        for _ in range(permutations):
            expected += walk_deltas(params, x, target, perms.permutation(params.n_pixels))
        got = shapley_sampling(params, x, permutations=permutations, seed=seed)
        assert np.array_equal(got.scores, expected / permutations)

    @pytest.mark.parametrize("permutations", [1, 300])
    def test_bias_fold_at_extreme_scales(self, permutations):
        # Max-plus biases near 2**40, where float64 steps by 2**-12, and
        # min-plus terms about 1e-3 apart: adding a bias rounds distinct
        # terms together, and the map still equals biasing each activation.
        # Rounding also lifts terms above a bound onto the biased bound, so
        # the biased test marks more gray ranks or image pixels than the
        # unbiased one on some images, and those extra events change no bit.
        # 300 permutations cross the 256-permutation block.
        rng = np.random.default_rng(84)
        n_pix, n_hid = 8, 5
        params = LmmParams(rng.uniform(0.2, 2.0, 2 * n_pix) * 2.0 ** -10,
                           rng.normal(0.0, 2.0 ** -10, (2 * n_pix, n_hid)),
                           2.0 ** 40 + rng.integers(-1, 2, (n_hid, 2)) * 2.0 ** -12)
        baseline = np.full(n_pix, GRAY)
        most_kept = widened = 0
        for _ in range(10):
            x = rng.uniform(0, 1, n_pix)
            target = forward(params, x).predicted
            start, end = pixel_mins(params, baseline), pixel_mins(params, x)
            terms = np.concatenate([start, end], axis=1)
            biased = terms + params.maxplus_weights[:, target, None]
            assert any(np.unique(b).size < np.unique(t).size for t, b in zip(terms, biased))
            keep, bound = prune(np.minimum(start, end), np.maximum(start, end),
                                params.maxplus_weights[:, target])
            most_kept = max(most_kept, keep.size)
            out_bias = params.maxplus_weights[keep, target, None]
            plain = np.stack([start[keep], end[keep]]) <= bound[:, None]
            marked = np.stack([start[keep], end[keep]]) + out_bias <= bound[:, None] + out_bias
            assert np.all(marked | ~plain)
            widened += (not np.array_equal(marked[0].sum(axis=1), plain[0].sum(axis=1))
                        or not np.array_equal(marked[1].any(axis=0), plain[1].any(axis=0)))
            seed = int(rng.integers(1 << 16))
            perms = np.random.default_rng(seed)
            expected = np.zeros(n_pix)
            for _ in range(permutations):
                expected += walk_deltas(params, x, target, perms.permutation(n_pix))
            got = shapley_sampling(params, x, permutations=permutations, seed=seed)
            assert got.scores.tobytes() == (expected / permutations).tobytes()
        assert most_kept >= 3     # several neurons compete for the logit
        assert widened >= 1       # the biased test adds events on some image

    @pytest.mark.parametrize("permutations", [0, 2.5])
    def test_permutations_must_be_a_positive_integer(self, permutations):
        params = random_params(np.random.default_rng(41), 3, 3, 2)
        with pytest.raises(ParameterError):
            shapley_sampling(params, np.full(3, 0.25), permutations=permutations)

    @pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)],
                             ids=["dyadic", "plus-minus-zero", "minus-plus-zero"])
    def test_tied_logits_take_the_lowest_class(self, signs):
        # Neuron h is sign_h * x_h, the only neuron of class h.  At x = 0.25
        # the logits tie at 0.25; at x = 0 they tie at zeros of the signs
        # given (a -0.0 weight on a -0.0 minus branch keeps -0.0).  Class 0
        # credits pixel 0 and class 1 pixel 1, so the map shows the class.
        w1 = np.full((4, 2), 10.0)
        w1[0 if signs[0] > 0 else 1, 0] = w1[2 if signs[1] > 0 else 3, 1] = -0.0
        params = LmmParams(np.ones(4), w1, np.array([[-0.0, -10.0], [-10.0, -0.0]]))
        x = np.full(2, 0.25 if signs == (1.0, 1.0) else 0.0)
        logits = forward(params, x).logits
        assert logits[0] == logits[1]
        assert np.signbit(logits).tolist() == [s < 0 and x[0] == 0 for s in signs]
        for permutations, seed in ((1, 0), (3, 5)):
            got = shapley_sampling(params, x, permutations=permutations, seed=seed)
            assert got.scores.tobytes() == walked(params, x, permutations, seed).tobytes()
            other = sampled_walk_deltas(params, x, 1, permutations, seed)
            assert got.scores.tobytes() != other.tobytes()

    def test_input_errors_match_forward(self):
        params = random_params(np.random.default_rng(46), 3, 3, 2)
        for bad, error in (([0.25, np.nan, 0.5], NumericError), (np.full(4, 0.25), DimensionError),
                           (np.full((1, 3), 0.25), DimensionError)):
            with pytest.raises(error) as expected:
                forward(params, bad)
            with pytest.raises(error) as got:
                shapley_sampling(params, bad, permutations=2)
            assert str(got.value) == str(expected.value)
            assert got.value.exit_code == (3 if error is NumericError else 2)
            with pytest.raises(ParameterError):      # counts are checked before the input
                shapley_sampling(params, bad, permutations=0)

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        params = random_params(rng, 4, 3, 2)
        x = rng.uniform(0, 1, 4)
        a = shapley_sampling(params, x, permutations=10, seed=3)
        b = shapley_sampling(params, x, permutations=10, seed=3)
        assert np.array_equal(a.scores, b.scores)


def walked(params, x, permutations, seed):
    """The Shapley map of ``x`` by direct evaluation of every walk."""
    return sampled_walk_deltas(params, x, forward(params, x).predicted, permutations, seed)


def ranked_terms(params, x):
    """The biased terms at or below each kept neuron's biased bound, the ones Shapley ranks."""
    target = forward(params, x).predicted
    start, end = pixel_mins(params, np.full(params.n_pixels, GRAY)), pixel_mins(params, x)
    keep, bound = prune(np.minimum(start, end), np.maximum(start, end),
                        params.maxplus_weights[:, target])
    out_bias = params.maxplus_weights[keep, target, None]
    terms = np.stack([start[keep], end[keep]]) + out_bias
    return terms[terms <= bound[:, None] + out_bias]


class TestShapleyEventPass:
    @pytest.mark.parametrize("n_pix, n_hid, wide", [(36, 8, True), (20, 6, False)],
                             ids=["uint16", "uint8"])
    def test_both_code_widths(self, n_pix, n_hid, wide):
        # Non-dyadic terms.  Every plus branch loses, and the pixels near 1
        # put every minus-branch term below the gray image's, so all P image
        # terms of each kept neuron are at or below its bound and ranked.
        rng = np.random.default_rng(n_pix)
        w1 = rng.uniform(-0.3, 0.0, (2 * n_pix, n_hid))
        w1[0::2] += 1.0
        params = LmmParams(rng.uniform(0.8, 1.2, 2 * n_pix), w1,
                           rng.uniform(-0.1, 0.1, (n_hid, 2)))
        x = rng.uniform(0.85, 1.0, n_pix)
        assert (np.unique(ranked_terms(params, x)).size > 255) == wide
        for permutations in (1, 3, 257):
            got = shapley_sampling(params, x, permutations=permutations, seed=permutations)
            assert got.scores.tobytes() == walked(params, x, permutations, permutations).tobytes()

    def test_signed_zeros_share_a_code(self):
        # np.unique merges +0.0 and -0.0 into one code.  In the walk that
        # flips pixel 1 first the logit goes -0.5, +0.0, -0.0, so one of the
        # two zeros decodes with the other sign: pixel 0's step is -0.0 on
        # floats and +0.0 on codes, and either added to its +0.0 credit
        # gives +0.0.
        w1 = np.array([[0.5, -0.25], [-0.0, 0.5], [0.0, 0.25], [-0.0, -0.0]])
        params = LmmParams(np.ones(4), w1, np.array([[-0.0, -0.0], [-0.0, 0.0]]))
        x = np.zeros(2)
        zeros = ranked_terms(params, x)
        zeros = zeros[zeros == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        traces = [forward(params, np.array(s)) for s in ([0.5, 0.0], [0.0, 0.0])]
        assert [(t.predicted, np.signbit(t.logits[0])) for t in traces] == [(0, False), (0, True)]
        for permutations in (1, 2, 4):
            for seed in (0, 3):     # seed 3 flips pixel 1 first
                got = shapley_sampling(params, x, permutations=permutations, seed=seed)
                assert got.scores.tobytes() == walked(params, x, permutations, seed).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_summed_walks_at_block_edges(self, data):
        # tie-heavy dyadic nets at counts inside, at and across the memoized
        # 256-permutation block; few seeds, so examples share memo entries
        params, (x,) = data.draw(walk_nets(n_rows=1))
        permutations = data.draw(st.sampled_from([1, 2, 3, 4, 255, 256, 257, 300]))
        seed = data.draw(st.integers(0, 3))
        got = shapley_sampling(params, x, permutations=permutations, seed=seed)
        assert got.scores.tobytes() == walked(params, x, permutations, seed).tobytes()


class TestShapleyPermutationMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        explain._block.cache_clear()
        yield
        explain._block.cache_clear()

    @pytest.mark.parametrize("counts", [(1, 200, 300), (300, 200, 100, 1)])
    def test_maps_equal_fresh_draws_in_any_call_order(self, counts):
        # 300 permutations cross the first block's edge, and 100 after 200
        # reads a prefix.  The dyadic net's credits depend on the order (11
        # distinct maps among 60 single permutations); pixel 3 is never walked.
        rng = np.random.default_rng(81)
        params = LmmParams(np.ones(12), rng.integers(-2, 3, (12, 4)) / 8,
                           rng.integers(-1, 2, (4, 2)) / 8)
        x = rng.integers(0, 9, 6) / 8.0
        target = forward(params, x).predicted
        seed = 7
        for permutations in counts:
            perms = np.random.default_rng(seed)
            expected = np.zeros(6)
            for _ in range(permutations):
                expected += walk_deltas(params, x, target, perms.permutation(6))
            got = shapley_sampling(params, x, permutations=permutations, seed=seed)
            assert got.scores.tobytes() == (expected / permutations).tobytes()
        assert explain._block.cache_info().misses == 2   # each block drawn once per seed and model

    def test_more_blocks_than_entries_refill_in_order(self):
        # 1,100 permutations read 5 blocks through a 4-entry memo: the second
        # call refills every block, each resumed from the entry just read
        params = dyadic_params(np.random.default_rng(95), 6, 4, 2)
        x = np.random.default_rng(96).integers(0, 1025, 6) / 1024.0
        expected = walked(params, x, 1100, 3)
        for misses in (5, 10):
            got = shapley_sampling(params, x, permutations=1100, seed=3)
            assert got.scores.tobytes() == expected.tobytes()
            assert explain._block.cache_info().misses == misses

    def test_memoized_block_is_read_only(self):
        params = dyadic_params(np.random.default_rng(94), 5, 3, 2)
        gray = pixel_mins(params, np.full(5, GRAY)).tobytes()
        block = explain._block(0, 5, gray, 0)[0]
        with pytest.raises(ValueError):
            block[0, 0] = 1


class TestShapleyRecordMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        explain._block.cache_clear()
        yield
        explain._block.cache_clear()

    def test_two_models_alternate(self):
        # same P, H1 and seed: only the gray terms tell the entries apart
        rng = np.random.default_rng(91)
        models = [dyadic_params(rng, 6, 4, 2) for _ in range(2)]
        x = rng.integers(0, 1025, 6) / 1024.0
        for permutations in (3, 257, 3, 257):
            for params in models:
                got = shapley_sampling(params, x, permutations=permutations, seed=5)
                assert got.scores.tobytes() == walked(params, x, permutations, 5).tobytes()
        info = explain._block.cache_info()
        assert (info.misses, info.hits) == (4, 10)

    def test_colliding_keys_compare_in_full(self, monkeypatch):
        # every key hashes alike, so only full equality tells the models apart
        monkeypatch.setattr(explain._GrayKey, "__hash__", lambda key: 0)
        self.test_two_models_alternate()

    def test_weights_changed_in_place_get_new_records(self):
        rng = np.random.default_rng(92)
        params = dyadic_params(rng, 6, 4, 2)
        x = rng.integers(0, 1025, 6) / 1024.0
        before = shapley_sampling(params, x, permutations=40, seed=2)
        assert before.scores.tobytes() == walked(params, x, 40, 2).tobytes()
        params.minplus_weights[:] = params.minplus_weights[::-1]
        after = shapley_sampling(params, x, permutations=40, seed=2)
        assert after.scores.tobytes() == walked(params, x, 40, 2).tobytes()
        assert after.scores.tobytes() != before.scores.tobytes()
        assert explain._block.cache_info().misses == 2

    def test_memo_is_read_only_and_bounded(self):
        rng = np.random.default_rng(93)
        x = np.full(4, 0.75)
        for _ in range(6):
            params = dyadic_params(rng, 4, 3, 2)
            shapley_sampling(params, x, permutations=2)
        info = explain._block.cache_info()
        assert info.currsize == info.maxsize == 4 and info.misses == 6
        gray = explain._GrayKey(pixel_mins(params, np.full(4, GRAY)))   # the key _blocks builds
        block, inv, key, flat, _ = explain._block(0, 4, gray, 0)
        for part in (block, inv, key, flat):     # draws, inverses, record keys and flat indices
            with pytest.raises(ValueError):
                part[0] = 0
        assert explain._block.cache_info().hits == 1


def reference_events(block, inv, records, hits):
    """``_events`` by its definition: mark each (permutation, position) in an (n, P)
    table, then read each permutation's marked pixels in walk order."""
    n, n_pix = block.shape
    marked = np.zeros((n, n_pix), dtype=bool)
    marked.ravel()[records] = True
    marked[np.arange(n)[:, None], inv[:, hits]] = True
    rows = [block[k, marked[k]] for k in range(n)]
    most = max(row.size for row in rows)
    return np.stack([np.pad(row, (0, most - row.size), constant_values=n_pix) for row in rows], 1)


class TestEvents:
    @pytest.mark.parametrize("n_pix, n", [(784, 256), (784, 200), (6, 3), (1, 2)])
    def test_matches_the_mark_table(self, n_pix, n):
        # records from gray terms of 4 levels, so ranks tie, over two neurons
        # with the same terms: every record is one of two neurons at once
        rng = np.random.default_rng(n_pix + n)
        block = np.stack([rng.permutation(n_pix) for _ in range(n)])
        inv = np.argsort(block, axis=1).astype(np.min_scalar_type(n_pix - 1))
        gray = rng.integers(0, 4, n_pix).astype(np.float64)
        key, flat = explain._suffix_records(np.stack([gray, gray]), inv)
        depth = min(n_pix, 5)
        records = flat[(key % n_pix < depth)]
        # the pixel of rank 0 is a record in every permutation
        hits = np.union1d(rng.choice(n_pix, min(n_pix, 2), replace=False),
                          np.argsort(gray, kind="stable")[:1])
        hit_flat = (np.arange(n)[:, None] * n_pix + inv[:, hits]).ravel()
        assert np.unique(records).size < records.size          # two neurons' record
        assert np.isin(hit_flat, records).any()                # a hit that is a record
        got = explain._events(block, inv, records, hits)
        expected = reference_events(block, inv, records, hits)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def reference_records(gray, inv):
    """(key, flat) of every suffix-min record, straight from the definition.

    The pixel of rank r (ascending terms, ties by pixel index) is a record
    in permutation k when its position exceeds that of every lower rank.
    """
    n, n_pix = inv.shape
    found = []
    for h, terms in enumerate(gray):
        ranked = sorted(range(n_pix), key=lambda p: (terms[p], p))
        pos = inv[:, ranked].astype(np.int64)                      # (n, ranks)
        lower = np.maximum.accumulate(pos, axis=1)
        record = np.ones(pos.shape, dtype=bool)
        record[:, 1:] = pos[:, 1:] > lower[:, :-1]
        found += [(h * n_pix + r, k, k * n_pix + pos[k, r]) for k, r in zip(*np.nonzero(record))]
    found.sort()
    return [f[0] for f in found], [f[2] for f in found]


class TestSuffixRecords:
    @pytest.mark.parametrize("n_pix, rows", [(784, 3), (1, 4), (2, 4)])
    def test_matches_the_definition(self, n_pix, rows):
        # 256 draws as a memo entry holds them, on gray terms of 8 levels, so
        # most ranks tie; P = 784 gives uint16 positions, P <= 2 uint8
        rng = np.random.default_rng(n_pix)
        gray = rng.integers(0, 8, (rows, n_pix)).astype(np.float64)
        draws = np.stack([rng.permutation(n_pix) for _ in range(256)])
        inv = np.argsort(draws, axis=1).astype(np.min_scalar_type(n_pix - 1))
        assert inv.dtype == (np.uint16 if n_pix > 256 else np.uint8)
        key, flat = explain._suffix_records(gray, inv)
        assert key.dtype == flat.dtype == np.intp
        expected_key, expected_flat = reference_records(gray, inv)
        assert key.tolist() == expected_key and flat.tolist() == expected_flat
        assert np.all(np.diff(key) >= 0)                          # ascending keys
        perm = flat // n_pix
        assert np.all(np.diff(perm)[np.diff(key) == 0] > 0)       # equal keys in permutation order


class TestImportanceMapRanking:
    def test_ascending_ranks_small_first(self):
        imap = ImportanceMap(np.array([3.0, 1.0, 2.0, 1.0]), "ascending")
        assert imap.ranking().tolist() == [1, 3, 2, 0]

    def test_descending_ranks_by_magnitude(self):
        imap = ImportanceMap(np.array([-5.0, 3.0, 0.0, 5.0]), "descending")
        assert imap.ranking().tolist() == [0, 3, 1, 2]

    def test_ordering_validated(self):
        with pytest.raises(ParameterError):
            ImportanceMap(np.zeros(3), "sideways")
