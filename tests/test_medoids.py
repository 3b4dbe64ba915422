"""Medoid selection, nearest-medoid initialization, and their equivalence."""

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmmx import (DataError, Dataset, DimensionError, MedoidSet, NumericError, ParameterError,
                  forward, init_params, nearest_medoid_predict, select_medoids, synth_dataset)
from lmmx import _native, medoids
from lmmx.data import PIXEL_LEVELS
from lmmx.medoids import _COLS, _ROWS, _allocate_per_class, _chebyshev_matrix, _greedy_kmedoids

from lmmx.oracles import brute_greedy_kmedoids
from lmmx.selftest import check_init_equivalence, check_medoid_distances


# more workers than the largest size below (300 points) has row stripes
MANY_WORKERS = -(-300 // _ROWS) + 1


def worker_cases(sizes):
    """Each size at the host's own worker count (the bare size id), then at 1
    worker, 2 workers and more workers than stripes."""
    return [pytest.param(n, workers, id=str(n) if workers is None else f"{n}-{workers}w")
            for n in sizes for workers in (None, 1, 2, MANY_WORKERS)]


def use_workers(monkeypatch, workers):
    if workers is not None:
        monkeypatch.setattr(medoids, "_usable_cpus", lambda: workers)


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
        assert alloc.tolist() == [9, 1]

    def test_exact_split(self):
        assert _allocate_per_class(np.array([50, 50]), 10).tolist() == [5, 5]

    def test_remainder_to_largest(self):
        alloc = _allocate_per_class(np.array([10, 30, 20]), 4)
        assert alloc.sum() == 4 and alloc.min() >= 1
        assert alloc[1] == alloc.max()

    def test_too_few(self):
        with pytest.raises(ParameterError):
            _allocate_per_class(np.array([5, 5, 5]), 2)

    def test_too_many(self):
        with pytest.raises(ParameterError):
            _allocate_per_class(np.array([1, 2]), 4)

    def test_paper_shape(self):
        assert _allocate_per_class(np.array([1214, 3494]), 25).tolist() == [6, 19]

    def test_remainder_skips_full_classes(self):
        # class 0 has one member: the remainder it would get goes to class 2
        assert _allocate_per_class(np.array([1, 1, 5]), 7).tolist() == [1, 1, 5]
        assert _allocate_per_class(np.array([1, 4, 4]), 8).tolist() == [1, 4, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.data())
    def test_never_exceeds_class_size(self, counts, data):
        counts = np.array(counts)
        n_medoids = data.draw(st.integers(counts.size, int(counts.sum())))
        alloc = _allocate_per_class(counts, n_medoids)
        assert alloc.sum() == n_medoids
        assert np.all(alloc >= 1) and np.all(alloc <= counts)


class TestSelectMedoids:
    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_forced_choice(self, strategy):
        med = select_medoids(tiny_train(), 2, strategy, seed=0)
        assert sorted(med.source_indices.tolist()) == [0, 1]
        assert sorted(med.labels.tolist()) == [0, 1]

    def test_greedy_picks_cost_minimizer(self):
        # brute-force oracle: summed Chebyshev distance of each candidate, in pixel levels
        levels = np.array([[0], [25], [230], [128]])
        train = Dataset(levels / PIXEL_LEVELS, np.array([0, 0, 0, 1]), "train")
        class0 = levels[:3]
        costs = [sum(abs(class0 - c).max(axis=1)) for c in class0]
        best = int(np.argmin(costs))
        assert best == 1  # medoid 25/255: costs 255, 230, 435 levels
        med = select_medoids(train, 2, "greedy-kmedoids", seed=0)
        chosen0 = med.source_indices[med.labels == 0]
        assert chosen0.tolist() == [best]

    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_deterministic(self, strategy):
        rng = np.random.default_rng(7)
        train = Dataset(grid_points(rng, 40, n_pix=3), rng.integers(0, 2, 40), "train")
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

    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_small_classes_get_distinct_medoids(self, strategy):
        rng = np.random.default_rng(5)
        labels = np.array([0, 1, 2, 2, 2, 2, 2])
        train = Dataset(rng.integers(0, 256, (7, 4)) / 255.0, labels, "train")
        med = select_medoids(train, 7, strategy, seed=0)
        assert len(set(med.source_indices.tolist())) == 7
        assert np.all(np.bincount(med.labels) <= np.bincount(labels))

    def test_allocation_respects_frequency(self):
        rng = np.random.default_rng(8)
        images = rng.uniform(0, 1, (100, 2))
        labels = np.array([0] * 75 + [1] * 25)
        med = select_medoids(Dataset(images, labels, "train"), 8, "random", seed=0)
        assert np.sum(med.labels == 0) == 6 and np.sum(med.labels == 1) == 2

    def test_no_thread_outlives_the_build(self):
        rng = np.random.default_rng(4)
        train = Dataset(grid_points(rng, 200), np.repeat([0, 1], 100), "train")
        before = threading.active_count()
        select_medoids(train, 8, "greedy-kmedoids", seed=0)
        assert threading.active_count() == before

    def test_greedy_build_holds_one_uint8_matrix(self, monkeypatch):
        # one class of 1,000 grid rows at P = 784 (6.3 MB of float64 pixels): the build
        # may hold the n x n matrix and the n x P levels, plus a fixed allowance for
        # the float64 level blocks, two workers' stripe temporaries and the update chunks
        use_workers(monkeypatch, 2)
        n, n_pix = 1000, 784
        images = grid_points(np.random.default_rng(3), n, n_pix)
        train = Dataset(images, np.zeros(n, np.int64), "train")
        tracemalloc.start()
        try:
            select_medoids(train, 10, "greedy-kmedoids", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n + n * n_pix + 8 * 2**20

    def test_off_grid_images_need_the_random_strategy(self):
        rng = np.random.default_rng(9)
        train = Dataset(rng.uniform(0, 1, (30, 2)), np.repeat([0, 1], 15), "train")
        with pytest.raises(DataError, match="grid"):
            select_medoids(train, 4, "greedy-kmedoids", seed=0)
        med = select_medoids(train, 4, "random", seed=0)
        assert np.array_equal(med.vectors, train.images[med.source_indices])


@st.composite
def tied_points(draw):
    """Duplicated rows on the k/255 grid, coarse or fine, so greedy costs tie often.

    Sizes include the block edges of the uint8 distance build.
    """
    n = draw(st.sampled_from([1, 2, _ROWS + 1, _COLS - 1, _COLS + 1, _ROWS + _COLS + 1, 300])
             | st.integers(1, 40))
    n_pix = draw(st.integers(1, 3))
    top = draw(st.sampled_from([3, PIXEL_LEVELS]) | st.integers(1, PIXEL_LEVELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(0, top + 1, (draw(st.integers(1, 6)), n_pix)) / PIXEL_LEVELS
    points = distinct[rng.integers(0, distinct.shape[0], n)]
    return points, draw(st.integers(1, n))


@st.composite
def tied_subsets(draw):
    """``tied_points`` with a sorted subset of their rows that holds at least ``quota``."""
    points, quota = draw(tied_points())
    rows = draw(st.sets(st.integers(0, points.shape[0] - 1), min_size=quota))
    return points, np.array(sorted(rows)), quota


# candidates 2, 5, 6 and 7 all cost 340 levels; in float64 sums of k/255
# distances, rounding made candidate 5 look cheaper
EXACT_TIE = np.array([[227], [7], [78], [27], [27], [60], [78], [78]]) / PIXEL_LEVELS


def grid_points(rng, n, n_pix=5):
    return rng.integers(0, PIXEL_LEVELS + 1, (n, n_pix)) / PIXEL_LEVELS


def brute_matrix(points):
    """cdist's Chebyshev matrix, max |a - b|, taken in int64 levels."""
    units = np.rint(points * PIXEL_LEVELS).astype(np.int64)
    return np.abs(units[:, None, :] - units[None, :, :]).max(axis=2)


class TestChebyshevMatrix:
    @pytest.mark.parametrize("n, workers", worker_cases(
        [1, 2, _ROWS - 1, _ROWS, _ROWS + 1, _COLS - 1, _COLS, _COLS + 1, _ROWS + _COLS + 1,
         4 * _ROWS + 3, 300]))
    def test_grid_levels_match_cdist(self, n, workers, monkeypatch):
        # the reference is cdist's Chebyshev matrix, max |a - b|, taken in int64 levels;
        # stripes of unequal length on any worker count give the same bytes
        use_workers(monkeypatch, workers)
        rng = np.random.default_rng(n)
        points = grid_points(rng, n)
        points[0, 0], points[-1, 0] = 0.0, 1.0  # the full 255-level span
        dist = _chebyshev_matrix(points)
        assert dist.dtype == np.uint8
        assert np.array_equal(dist, brute_matrix(points))

    def test_synth_images_give_uint8_levels(self):
        points = synth_dataset(16, 70, [np.full(16, 0.3), np.full(16, 0.7)], 0.1, seed=1).images
        dist = _chebyshev_matrix(points)
        assert dist.dtype == np.uint8
        assert _greedy_kmedoids(points, 9) == brute_greedy_kmedoids(points, 9)

    @pytest.mark.parametrize("points", [
        np.random.default_rng(0).uniform(0, 1, (_COLS + 3, 4)),
        np.array([[0.5 / PIXEL_LEVELS]]),
        np.array([[0.0], [1.0], [np.nextafter(1.0, 0.0)]]),
    ], ids=["uniform", "half-level", "one-ulp"])
    def test_off_grid_is_data_error(self, points, monkeypatch):
        pools = []
        monkeypatch.setattr(medoids, "ThreadPoolExecutor", lambda *args: pools.append(args))
        with pytest.raises(DataError, match=f"k / {PIXEL_LEVELS} grid"):
            _chebyshev_matrix(points)
        assert pools == []  # checked in the caller's thread, before any worker starts

    def test_a_failing_stripe_raises_in_the_caller_and_leaves_no_thread(self, monkeypatch):
        def fail(units, dist, i0):
            raise MemoryError(f"stripe {i0}")

        use_workers(monkeypatch, 2)
        monkeypatch.setattr(medoids, "_stripe", fail)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="stripe 0"):
            _chebyshev_matrix(grid_points(np.random.default_rng(0), 10 * _ROWS))
        assert threading.active_count() == before


@st.composite
def stripe_cases(draw):
    """(points, rows): duplicated rows of a coarse or fine grid, and a sorted subset of them,
    at subset sizes across the stripe kernel's four-row groups and the numpy stripe's blocks."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, _ROWS - 1, _ROWS + 1, _COLS - 1, _COLS + 1, 300]))
    n_pix = draw(st.sampled_from([1, 15, 16, 17, 784]))
    top = draw(st.sampled_from([3, PIXEL_LEVELS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(0, top + 1, (draw(st.integers(1, 6)), n_pix)) / PIXEL_LEVELS
    points = distinct[rng.integers(0, distinct.shape[0], n + draw(st.integers(0, 5)))]
    return points, np.sort(rng.choice(points.shape[0], n, replace=False))


class TestNativeStripe:
    """The compiled stripe and the numpy one build byte-equal matrices."""

    @pytest.fixture(autouse=True, scope="class")
    def library(self):
        if _native.kernel() is None:
            pytest.skip(f"no compiled kernel here: {_native.status()}")

    @settings(max_examples=60, deadline=None)
    @given(stripe_cases(), st.sampled_from([1, 2, MANY_WORKERS]))
    def test_equals_the_numpy_stripes(self, case, workers):
        points, rows = case
        with mock.patch.object(medoids, "_usable_cpus", lambda: workers):
            native = _chebyshev_matrix(points, rows)
            with mock.patch.object(_native, "kernel", lambda: None):
                numpy = _chebyshev_matrix(points, rows)
        assert native.tobytes() == numpy.tobytes()

    def test_runs_where_a_kernel_is_built(self, monkeypatch):
        monkeypatch.setattr(medoids, "_numpy_stripe", mock.Mock(side_effect=AssertionError))
        points = grid_points(np.random.default_rng(2), 3 * _ROWS)
        assert np.array_equal(_chebyshev_matrix(points), brute_matrix(points))


def test_numpy_stripes_run_without_a_kernel(monkeypatch):
    calls = []
    numpy_stripe = medoids._numpy_stripe
    monkeypatch.setattr(_native, "kernel", lambda: None)
    monkeypatch.setattr(medoids, "_numpy_stripe", lambda *args: calls.append(args[2])
                        or numpy_stripe(*args))
    points = grid_points(np.random.default_rng(1), 3 * _ROWS + 2)
    assert np.array_equal(_chebyshev_matrix(points), brute_matrix(points))
    assert sorted(calls) == list(range(0, 3 * _ROWS + 2, _ROWS))


def test_medoid_distances_oracle():
    check_medoid_distances(trials=40, seed=11)


class TestGreedyKMedoids:
    @settings(max_examples=150, deadline=None)
    @given(tied_points())
    @example((EXACT_TIE, 2))
    def test_matches_full_matrix_reference_on_ties(self, case):
        points, quota = case
        assert _greedy_kmedoids(points, quota) == brute_greedy_kmedoids(points, quota)

    @pytest.mark.parametrize("n, workers", worker_cases(
        [1, 2, _ROWS + 1, _COLS - 1, _COLS, _COLS + 1, 2 * _COLS - 1, 2 * _COLS, 2 * _COLS + 1,
         4 * _ROWS + 3, 300]))
    def test_matches_reference_across_block_edges(self, n, workers, monkeypatch):
        use_workers(monkeypatch, workers)
        points = grid_points(np.random.default_rng(n), n)
        assert _greedy_kmedoids(points, n) == brute_greedy_kmedoids(points, n)

    def test_exact_cost_tie_goes_to_lowest_index(self):
        assert brute_greedy_kmedoids(EXACT_TIE, 2) == [2, 3]
        assert _greedy_kmedoids(EXACT_TIE, 2) == [2, 3]

    @settings(max_examples=150, deadline=None)
    @given(tied_subsets(), st.integers(1, 700))
    @example((EXACT_TIE, np.arange(8), 8), 1)
    def test_in_place_cost_updates_match_the_reference(self, case, cells):
        # update chunks from one cell to whole updates, over a subset of the rows
        points, rows, quota = case
        with mock.patch.object(medoids, "_UPDATE_CELLS", cells):
            picks = _greedy_kmedoids(points, quota, rows)
        assert picks == brute_greedy_kmedoids(points[rows], quota)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_numeric_error_like_forward(self, value):
        with pytest.raises(NumericError):
            forward(init_params(self.med, 1.0), np.array([value]))
        with pytest.raises(NumericError):
            nearest_medoid_predict(self.med, np.array([value]))


class TestInitEquivalence:
    def test_matches_nearest_medoid_oracle(self):
        check_init_equivalence(trials=100, seed=9)

    def test_logit_formula_at_init(self):
        # z_d = max over medoids h of (-k0 * chebyshev(x, medoid_h) + W2[h, d])
        rng = np.random.default_rng(10)
        for _ in range(50):
            n_pix = int(rng.integers(2, 9))
            med = random_medoids(rng, int(rng.integers(2, 7)), n_pix)
            k0 = float(rng.uniform(0.1, 5.0))
            params = init_params(med, k0)
            x = rng.uniform(0, 1, n_pix)
            dists = np.abs(med.vectors - x).max(axis=1)
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

    @pytest.mark.parametrize("labels, sources", [([0.9, 1.2], [0, 1]), (["0", "1"], [0, 1]),
                                                 ([0, 1], [0.5, 1]), ([0, 1], [0, 1e30])])
    def test_labels_and_sources_must_be_int64_integers(self, labels, sources):
        with pytest.raises(DataError, match="must be integers"):
            MedoidSet(np.array([[0.1], [0.2]]), labels, sources)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries(self, value):
        with pytest.raises(DataError, match="non-finite"):
            MedoidSet(np.array([[value], [0.5]]), np.array([0, 1]), np.array([0, 1]))
