"""Confusion/accuracy, deletion fidelity, stability, timing, report output."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmx import (Dataset, DimensionError, ImportanceMap, LmmParams, NumericError, ParameterError,
                  confusion_matrix, fidelity, integrated_gradients, pixel_fragility,
                  shapley_sampling, stability, synth_dataset, timing)
from lmmx.metrics import MetricsReport, accuracy_from_confusion, compute_report
from lmmx.oracles import deletion_fidelity
from lmmx.selftest import random_params

from strategies import walk_nets


def constant_model(margin=10.0):
    """Single-neuron net whose logit gap is constant in the input."""
    params = LmmParams(np.ones(4), np.zeros((4, 1)), np.array([[margin, -margin]]))
    params.temperature = 8.0  # keeps the calibrated confidence away from 1
    return params


def random_ranking_explainer(seed):
    def explain(params, x):
        rng = np.random.default_rng(seed)
        return ImportanceMap(rng.permutation(len(x)).astype(float), "ascending")
    return explain


class TestConfusion:
    def test_perfect_classifier_is_diagonal(self, synth_model):
        params = synth_model["params"]
        train = synth_model["task"]["train"]
        confusion = confusion_matrix(params, train)
        assert confusion.sum() == train.n_samples
        assert accuracy_from_confusion(confusion) >= 0.99

    def test_constant_model_single_column(self):
        data = synth_dataset(2, 10, np.array([[0.2, 0.2], [0.8, 0.8]]), 0.05, seed=0)
        confusion = confusion_matrix(constant_model(), data)
        assert np.all(confusion[:, 1] == 0)
        assert confusion[:, 0].tolist() == [10, 10]

    def test_trace_is_accuracy(self):
        confusion = np.array([[131, 103], [34, 356]])
        assert abs(accuracy_from_confusion(confusion) - 487 / 624) <= 1e-12


class TestFidelity:
    def test_constant_model_equals_confidence(self):
        params = constant_model()
        data = synth_dataset(2, 6, np.array([[0.3, 0.3], [0.7, 0.7]]), 0.05, seed=1)
        expected = 1.0 / (1.0 + np.exp(-2 * 10.0 / params.temperature))
        got = fidelity(params, random_ranking_explainer(0), data, steps=2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_oracle_beats_random_on_planted_pixel(self):
        # class signal lives in a single pixel; deleting it first must hurt
        rng = np.random.default_rng(2)
        n_pix = 16
        centers = np.full((2, n_pix), 0.4)
        centers[0, 5] = 0.1
        centers[1, 5] = 0.9
        data = synth_dataset(n_pix, 40, centers, 0.03, seed=3)
        scales = np.ones(2 * n_pix)
        w1 = np.zeros((2 * n_pix, 2))
        w1[:, 0] = -np.repeat(centers[0], 2) * np.tile([1.0, -1.0], n_pix)
        w1[:, 1] = -np.repeat(centers[1], 2) * np.tile([1.0, -1.0], n_pix)
        params = LmmParams(scales, w1, np.array([[1.0, -1.0], [-1.0, 1.0]]))

        def oracle(params_, x):
            scores = np.arange(1, n_pix + 1, dtype=float)
            scores[5] = 0.0  # the informative pixel ranks first
            return ImportanceMap(scores, "ascending")

        oracle_fid = fidelity(params, oracle, data, steps=n_pix)
        random_fids = [fidelity(params, random_ranking_explainer(s), data, steps=n_pix)
                       for s in range(20)]
        better = sum(oracle_fid < rf for rf in random_fids)
        assert better >= 16
        assert oracle_fid < np.mean(random_fids)

    def test_within_unit_interval(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        for explainer in (lambda p, x: pixel_fragility(p, x),
                          lambda p, x: integrated_gradients(p, x, steps=20),
                          lambda p, x: shapley_sampling(p, x, permutations=20, seed=0)):
            value = fidelity(params, explainer, test, steps=8)
            assert 0.0 < value < 1.0


class TestFidelityWalk:
    """``fidelity`` reads a pixel walk; the reference re-scores every filled image."""

    # steps > P repeats cuts (k * P // steps), the case np.minimum.reduceat
    # would get wrong: it mis-handles equal consecutive indices
    @pytest.mark.parametrize("steps", [1, 28, 49, 101])
    def test_equals_direct_evaluation(self, steps):
        rng = np.random.default_rng(46)
        data = synth_dataset(49, 3, rng.uniform(0.2, 0.8, (2, 49)), 0.1, seed=steps)
        for n_cls in (2, 3):
            params = random_params(rng, 49, 6, n_cls)
            params.temperature = 0.7
            explainers = [random_ranking_explainer(steps),
                          lambda p, x: integrated_gradients(p, x, steps=10)]
            if n_cls == 2:
                explainers.append(lambda p, x: pixel_fragility(p, x))
            for explainer in explainers:
                assert fidelity(params, explainer, data, steps=steps) == \
                    deletion_fidelity(params, explainer, data, steps)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_direct_evaluation_on_ties(self, data):
        # tie-heavy dyadic nets; images and the gray fill on the same grid
        params, rows = data.draw(walk_nets(n_rows=3))
        images = Dataset(rows, np.zeros(3, dtype=np.int64))
        steps = data.draw(st.integers(1, 2 * params.n_pixels + 3))
        explainer = random_ranking_explainer(data.draw(st.integers(0, 99)))
        assert fidelity(params, explainer, images, steps=steps) == \
            deletion_fidelity(params, explainer, images, steps)

    @pytest.mark.parametrize("steps", [0, 2.5])
    def test_steps_must_be_a_positive_integer(self, steps, synth_model):
        test = synth_model["task"]["test"]
        with pytest.raises(ParameterError):
            fidelity(synth_model["params"], lambda p, x: pixel_fragility(p, x), test, steps=steps)


    def test_short_ranking_rejected(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        explainer = lambda p, x: ImportanceMap(np.zeros(len(x) - 1), "ascending")
        with pytest.raises(DimensionError):
            fidelity(params, explainer, test)


class TestExplainerShape:
    """``fidelity``, ``stability`` and ``timing`` check every map for one score per pixel."""

    # 3 scores, and 4 scores shaped (2, 2), for 4-pixel images; stability
    # once scored the short map 0.0
    params = random_params(np.random.default_rng(47), 4, 3, 2)
    data = synth_dataset(4, 3, np.array([[0.2] * 4, [0.8] * 4]), 0.05, seed=0)

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    @pytest.mark.parametrize("metric", [fidelity, stability, functools.partial(timing, n=2)])
    def test_wrong_shape_is_a_dimension_error(self, metric, shape):
        explainer = lambda p, x: ImportanceMap(np.full(shape, 3.3), "ascending")
        with pytest.raises(DimensionError, match=re.escape(f"{shape} for an image of shape (4,)")):
            metric(self.params, explainer, self.data)

    def test_perturbed_calls_are_checked_too(self):
        # right shape for the clean images, wrong for their perturbations
        clean = {row.tobytes() for row in self.data.images}

        def explainer(params, x):
            return ImportanceMap(np.zeros(4 if x.tobytes() in clean else 3), "ascending")

        with pytest.raises(DimensionError):
            stability(self.params, explainer, self.data, m=2)

    @pytest.mark.parametrize("metric", [fidelity, stability, functools.partial(timing, n=2)])
    def test_explainer_must_be_callable(self, metric):
        with pytest.raises(ParameterError, match="explainer must be callable"):
            metric(self.params, "fragility", self.data)

    # a returned array used to escape as AttributeError
    @pytest.mark.parametrize("metric", [fidelity, stability, functools.partial(timing, n=2)])
    def test_a_result_that_is_not_a_map_is_a_parameter_error(self, metric):
        explainer = lambda p, x: np.zeros(len(x))
        with pytest.raises(ParameterError, match="ndarray, not an ImportanceMap"):
            metric(self.params, explainer, self.data)

    # an all-NaN map used to score fidelity 0.5 and stability 0.0 without a word
    @pytest.mark.parametrize("metric", [fidelity, stability, functools.partial(timing, n=2)])
    def test_nan_map_is_a_numeric_error(self, metric):
        explainer = lambda p, x: ImportanceMap(np.full(len(x), np.nan), "descending")
        with pytest.raises(NumericError, match="NaN"):
            metric(self.params, explainer, self.data)
        with pytest.raises(NumericError, match="NaN"):
            compute_report(self.params, self.data, {"nan": explainer}, steps=2, m=1)

    # pixel_mins trusts its caller, so the deletion checks the pixel count: unchecked,
    # 4 pixels end in a bare ValueError and 1 pixel broadcasts against the model's 3
    @pytest.mark.parametrize("n_pix", [4, 1])
    @pytest.mark.parametrize("metric", ["fidelity", "compute_report"])
    def test_pixel_count_is_checked_before_any_map(self, metric, n_pix):
        params = random_params(np.random.default_rng(5), 3, 2, 2)
        data = Dataset(np.full((2, n_pix), 0.25), [0, 1])
        calls = []

        def explainer(p, x):  # the data's shape, and no forward to catch it
            calls.append(x)
            return ImportanceMap(np.zeros(x.shape), "descending")

        with pytest.raises(DimensionError, match=f"{n_pix} pixels, the model 3"):
            if metric == "fidelity":
                fidelity(params, explainer, data, steps=2)
            else:
                compute_report(params, data, {"zeros": explainer}, steps=2, m=1)
        assert calls == []

    def test_infinite_scores_stay_allowed(self):
        # fragility scores +inf where no opposite-class neuron exists
        explainer = lambda p, x: ImportanceMap(np.full(len(x), np.inf), "ascending")
        assert stability(self.params, explainer, self.data, m=2) == 0.0
        assert 0.0 < fidelity(self.params, explainer, self.data, steps=2) <= 1.0


class TestStability:
    def test_constant_map_gives_zero(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        explainer = lambda p, x: ImportanceMap(np.full(len(x), 3.3), "ascending")
        assert stability(params, explainer, test, m=4, seed=0) == 0.0

    def test_rescaling_invariance_is_exact(self, synth_model):
        # power-of-two rescaling keeps the normalized map bitwise identical
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        base = lambda p, x: pixel_fragility(p, x)

        def rescaled(p, x):
            imap = pixel_fragility(p, x)
            return ImportanceMap(4.0 * imap.scores, imap.ordering)

        a = stability(params, base, test, m=4, seed=5)
        b = stability(params, rescaled, test, m=4, seed=5)
        assert a == b

    def test_deterministic_per_seed(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        explainer = lambda p, x: integrated_gradients(p, x, steps=10)
        a = stability(params, explainer, test, m=3, seed=11)
        b = stability(params, explainer, test, m=3, seed=11)
        assert a == b
        c = stability(params, explainer, test, m=3, seed=12)
        assert a != c

    @pytest.mark.parametrize("m", [0, 2.5])
    def test_m_must_be_a_positive_integer(self, m, synth_model):
        test = synth_model["task"]["test"]
        with pytest.raises(ParameterError):
            stability(synth_model["params"], lambda p, x: pixel_fragility(p, x), test, m=m)

    def test_positive_for_input_dependent_maps(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        value = stability(params, lambda p, x: pixel_fragility(p, x), test, m=4, seed=1)
        assert value > 0.0


class TestTiming:
    def test_single_image(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        seconds = timing(params, lambda p, x: pixel_fragility(p, x), test, n=1)
        assert seconds > 0.0

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_n_must_be_a_positive_integer(self, n, synth_model):
        test = synth_model["task"]["test"]
        with pytest.raises(ParameterError):
            timing(synth_model["params"], lambda p, x: pixel_fragility(p, x), test, n=n)

    def test_fragility_faster_than_shapley(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        frag = timing(params, lambda p, x: pixel_fragility(p, x), test, n=10)
        shap = timing(params, lambda p, x: shapley_sampling(p, x, permutations=200, seed=0),
                      test, n=10)
        assert frag < shap


class TestReport:
    def test_key_value_format(self, synth_model):
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        explainers = {"fragility": lambda p, x: pixel_fragility(p, x)}
        report = compute_report(params, test, explainers, steps=4, m=2, timing_images=2)
        lines = report.key_value_lines()
        pattern = re.compile(r"^[a-z_]+(\.[a-zA-Z0-9_.]+)? = -?[0-9.]+$")
        assert all(pattern.match(line) for line in lines)
        joined = "\n".join(lines)
        assert "fidelity.fragility = " in joined
        assert "stability.fragility = " in joined
        assert "seconds_per_image.fragility = " in joined
        assert "confusion.0.0 = " in joined

    # workers stays only as the benchmark's workers=1: any other value is
    # rejected before the first metric runs
    @pytest.mark.parametrize("workers", [2, np.nan, 2.5, "3"])
    def test_workers_must_be_a_count(self, workers, synth_model, monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail("the report started before workers was checked")

        monkeypatch.setattr("lmmx.metrics.confusion_matrix", no_work)
        params, test = synth_model["params"], synth_model["task"]["test"]
        with pytest.raises(ParameterError, match="workers"):
            compute_report(params, test, {"fragility": pixel_fragility}, steps=2, m=1,
                           timing_images=1, workers=workers)

    # a bad value used to fail only after the maps before its metric: 360
    # explainer calls for timing_images=0 on a 30-image fragility report
    @pytest.mark.parametrize("argument, value", [
        ("steps", 0), ("steps", 2.5), ("sigma", -1), ("sigma", 0), ("sigma", np.inf),
        ("m", 0), ("m", 2.5), ("seed", -1), ("seed", 2.5), ("timing_images", 0),
        ("timing_images", 2.5)])
    def test_every_argument_is_checked_before_any_work(self, argument, value, synth_model,
                                                      monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail(f"the report started before {argument} was checked")

        monkeypatch.setattr("lmmx.metrics.confusion_matrix", no_work)
        params, test = synth_model["params"], synth_model["task"]["test"]
        settings = {"steps": 2, "m": 1, "timing_images": 1, argument: value}
        with pytest.raises(ParameterError, match=argument):
            compute_report(params, test, {"fragility": no_work}, **settings)

    @pytest.mark.parametrize("explainers", [[pixel_fragility], ("fragility",), pixel_fragility,
                                            {"fragility": None}])
    def test_explainers_must_map_to_callables(self, explainers, synth_model, monkeypatch):
        # a list used to fail as AttributeError, and a None explainer as TypeError,
        # after the confusion matrix
        def no_work(*args, **kwargs):
            pytest.fail("the report started before explainers was checked")

        monkeypatch.setattr("lmmx.metrics.confusion_matrix", no_work)
        params, test = synth_model["params"], synth_model["task"]["test"]
        with pytest.raises(ParameterError, match="explainers"):
            compute_report(params, test, explainers, steps=2, m=1, timing_images=1)

    def test_timing_maps_only_the_first_n_images(self, synth_model):
        params, test = synth_model["params"], synth_model["task"]["test"]
        calls = []

        def explainer(p, x):
            calls.append(x)
            return pixel_fragility(p, x)

        assert timing(params, explainer, test, n=3) > 0.0
        assert np.array_equal(calls, test.images[:3])

    def test_each_clean_image_is_mapped_once(self, synth_model):
        # n (m + 1) calls per method: one clean map for fidelity, stability's
        # base and the timing, plus m perturbed maps
        params = synth_model["params"]
        test = synth_model["task"]["test"]
        data = Dataset(test.images[:5], test.labels[:5], "test")
        calls = {"fragility": 0, "intgrad": 0}

        def counting(name, explain):
            def explainer(p, x):
                calls[name] += 1
                return explain(p, x)
            return explainer

        explainers = {"fragility": counting("fragility", pixel_fragility),
                      "intgrad": counting("intgrad",
                                          lambda p, x: integrated_gradients(p, x, steps=10))}
        report = compute_report(params, data, explainers, steps=6, m=3, seed=4, timing_images=2)
        assert calls == {"fragility": 5 * (3 + 1), "intgrad": 5 * (3 + 1)}
        for name, explainer in explainers.items():
            assert report.fidelity[name] == fidelity(params, explainer, data, steps=6)
            assert report.stability[name] == stability(params, explainer, data, m=3, seed=4)
            assert report.seconds_per_image[name] > 0.0

    def test_table_mentions_methods(self):
        report = MetricsReport(np.array([[3, 0], [1, 2]]), 5 / 6,
                               fidelity={"fragility": 0.5}, stability={"fragility": 1.2},
                               seconds_per_image={"fragility": 0.001})
        table = report.format_table()
        assert "fragility" in table and "0.8333" in table
