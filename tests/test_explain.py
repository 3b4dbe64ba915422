"""Fragility formulas and their references, the flip oracle, integrated gradients, Shapley sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmx import (ImportanceMap, LmmParams, MedoidSet, ParameterError, UnsupportedConfigError,
                  forward, init_params, integrated_gradients, pixel_fragility, shapley_sampling)
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
        # to the baseline, and max-plus biases wide enough to prune neurons
        params, (x,) = data.draw(walk_nets(n_rows=1))
        steps = data.draw(st.integers(1, 70))
        target = forward(params, x).predicted
        oracle = path_integral_attribution(params, x, target, steps)
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
        assert prune(start, end, out_bias)[0].tolist() == [0, 1]

    def test_all_but_one_neuron_pruned(self):
        # one class-0 medoid among class-1 medoids: at init every class-1
        # neuron sits at least k0 below the class-0 logit on every walk
        vectors = np.array([[0.25, 0.75, 0.5], [1.0, 0.0, 0.5], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        params = init_params(MedoidSet(vectors, np.array([0, 1, 1, 1]), np.arange(4)), 2.0)
        x = np.array([0.375, 0.5, 0.25])
        baseline = np.full(3, GRAY)
        assert forward(params, x).predicted == 0
        assert prune(pixel_mins(params, baseline), pixel_mins(params, x),
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
        assert prune(start, end, params.maxplus_weights[:, 0])[1].tolist() == [0, 1]
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
        keep, cols, candidate = prune(start, end, params.maxplus_weights[:, 0])
        assert keep.tolist() == [0, 1] and cols.tolist() == [0]
        assert candidate.tolist() == [[True], [True]]
        assert np.all(np.minimum(start, end)[:, 1] > np.maximum(start, end).min(axis=1))
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
        # 300 permutations cross the 256-permutation block.
        rng = np.random.default_rng(84)
        n_pix, n_hid = 8, 5
        params = LmmParams(rng.uniform(0.2, 2.0, 2 * n_pix) * 2.0 ** -10,
                           rng.normal(0.0, 2.0 ** -10, (2 * n_pix, n_hid)),
                           2.0 ** 40 + rng.integers(-1, 2, (n_hid, 2)) * 2.0 ** -12)
        baseline = np.full(n_pix, GRAY)
        most_kept = 0
        for _ in range(10):
            x = rng.uniform(0, 1, n_pix)
            target = forward(params, x).predicted
            start, end = pixel_mins(params, baseline), pixel_mins(params, x)
            terms = np.concatenate([start, end], axis=1)
            biased = terms + params.maxplus_weights[:, target, None]
            assert any(np.unique(b).size < np.unique(t).size for t, b in zip(terms, biased))
            most_kept = max(most_kept, prune(start, end, params.maxplus_weights[:, target])[0].size)
            seed = int(rng.integers(1 << 16))
            perms = np.random.default_rng(seed)
            expected = np.zeros(n_pix)
            for _ in range(permutations):
                expected += walk_deltas(params, x, target, perms.permutation(n_pix))
            got = shapley_sampling(params, x, permutations=permutations, seed=seed)
            assert got.scores.tobytes() == (expected / permutations).tobytes()
        assert most_kept >= 3     # several neurons compete for the logit

    @pytest.mark.parametrize("permutations", [0, 2.5])
    def test_permutations_must_be_a_positive_integer(self, permutations):
        params = random_params(np.random.default_rng(41), 3, 3, 2)
        with pytest.raises(ParameterError):
            shapley_sampling(params, np.full(3, 0.25), permutations=permutations)

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


class TestShapleyEventPass:
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
        gray = pixel_mins(params, np.full(4, GRAY)).tobytes()
        block, inv, key, flat, _ = explain._block(0, 4, gray, 0)
        for part in (block, inv, key, flat):     # draws, inverses, record keys and flat indices
            with pytest.raises(ValueError):
                part[0] = 0
        assert explain._block.cache_info().hits == 1


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
