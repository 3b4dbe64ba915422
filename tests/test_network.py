"""Forward-pass contracts: layers, traces, softmax, brute-force equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmx import (DimensionError, LmmParams, NumericError, ParameterError, batch_logits,
                  batch_predict, forward, linear_layer)

from lmmx import network
from lmmx.network import pixel_mins, softmax_rows, tropical_pass
from lmmx.oracles import brute_forward
from lmmx.selftest import check_forward_oracle, dyadic_params, random_params

from strategies import walk_nets


class TestLinearLayer:
    def test_direct_substitution(self):
        params = LmmParams(np.array([1.0, 1.0, 2.0, 2.0]), np.zeros((4, 1)), np.zeros((1, 2)))
        out = linear_layer(params, np.array([0.5, 1.0]))
        assert np.array_equal(out, [0.5, -0.5, 2.0, -2.0])

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 3, 2, 2)
        assert np.array_equal(linear_layer(params, np.zeros(3)), np.zeros(6))

    def test_single_pixel(self):
        params = LmmParams(np.array([3.0, 1.0]), np.zeros((2, 1)), np.zeros((1, 2)))
        assert np.array_equal(linear_layer(params, np.array([2.0])), [6.0, -2.0])

    def test_dimension_error(self):
        params = LmmParams(np.array([1.0, 1.0]), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            linear_layer(params, np.array([1.0, 2.0]))


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(softmax_rows([0.0, 0.0], 1.0), [0.5, 0.5])

    def test_shift_invariance(self):
        for a in (-3.0, 0.0, 7.5):
            out = softmax_rows([a, a, a], 2.0)
            np.testing.assert_allclose(out, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_high_temperature_flattens(self):
        out = softmax_rows([1.0, 0.0], 1e9)
        np.testing.assert_allclose(out, [0.5, 0.5], rtol=0, atol=1e-9)

    def test_invalid_temperature(self):
        with pytest.raises(ParameterError):
            softmax_rows([1.0, 0.0], 0.0)
        with pytest.raises(ParameterError):
            softmax_rows([1.0, 0.0], -1.0)

    def test_sums_to_one(self):
        # sharpness capped so no probability saturates to exactly 0 or 1
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(0, 5, rng.integers(2, 6))
            t = float(rng.uniform(0.5, 20))
            p = softmax_rows(z, t)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_vector_equals_its_row(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 5, (50, 3))
        rows = softmax_rows(z, 0.7)
        for i in range(50):
            assert np.array_equal(softmax_rows(z[i], 0.7), rows[i])


class TestForward:
    def test_hand_example(self):
        # one pixel, two hidden neurons, two classes, worked by hand
        params = LmmParams(
            np.array([1.0, 1.0]),
            np.array([[0.0, -1.0], [0.0, 1.0]]),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        trace = forward(params, np.array([0.5]))
        assert np.array_equal(trace.linear, [0.5, -0.5])
        assert np.array_equal(trace.hidden, [-0.5, -0.5])
        assert np.array_equal(trace.logits, [0.5, 0.5])
        assert np.array_equal(softmax_rows(trace.logits, params.temperature), [0.5, 0.5])
        assert trace.predicted == 0  # tie broken by lowest class index
        # winners: neuron 0 takes its minus branch, neuron 1 its plus branch
        assert trace.hidden_argmin.tolist() == [1, 0]

    def test_flat_network_is_symmetric(self):
        params = LmmParams(np.full(6, 1e-6), np.zeros((6, 3)), np.zeros((3, 3)))
        x = np.array([0.2, 0.9, 0.4])
        trace = forward(params, x)
        expected_g = min(min(1e-6 * v, -1e-6 * v) for v in x)
        np.testing.assert_allclose(trace.hidden, expected_g, rtol=0, atol=1e-18)
        assert np.all(trace.logits == trace.logits[0])
        assert trace.predicted == 0

    def test_bruteforce_equivalence(self):
        check_forward_oracle(trials=300, seed=2)

    def test_shift_covariance(self):
        # dyadic-grid weights keep every addition exact, so the shift is exact
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_pix, n_cls = 3, 2
            params = dyadic_params(rng, n_pix, 4, n_cls)
            x = rng.integers(0, 1025, n_pix) / 1024.0
            d = int(rng.integers(0, n_cls))
            beta = float(rng.choice([0.5, 1.0, 2.0, -0.25]))
            before = forward(params, x)
            shifted = params.copy()
            shifted.maxplus_weights[:, d] += beta
            after = forward(shifted, x)
            assert after.logits[d] == before.logits[d] + beta
            other = np.arange(n_cls) != d
            assert np.array_equal(after.logits[other], before.logits[other])
            assert np.array_equal(after.logit_argmax, before.logit_argmax)

    def test_tie_break_determinism(self):
        params = LmmParams(
            np.array([1.0, 1.0]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),   # both branches tie inside each neuron
            np.array([[2.0, 2.0], [2.0, 2.0]]),   # both neurons tie for each class
        )
        a = forward(params, np.array([0.0]))
        b = forward(params, np.array([0.0]))
        assert a.hidden_argmin.tolist() == [0, 0]
        assert a.logit_argmax.tolist() == [0, 0]
        assert a.predicted == 0
        for got, again in zip(a, b):
            assert np.array_equal(got, again)

    def test_input_validation(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 2, 2)
        with pytest.raises(DimensionError):
            forward(params, np.zeros(3))
        with pytest.raises(NumericError):
            forward(params, np.array([0.5, np.nan]))
        with pytest.raises(NumericError):
            forward(params, np.array([0.5, np.inf]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 4, 3, 3)
        batch = rng.uniform(0, 1, (40, 4))
        logits = batch_logits(params, batch)
        for i in range(40):
            assert np.array_equal(logits[i], forward(params, batch[i]).logits)


@st.composite
def tie_heavy_nets(draw, denominator=1024.0):
    """Dyadic nets (k/denominator) on a coarse grid with duplicated hidden neurons.

    Every sum is exact, the coarse grid makes branches tie inside a neuron,
    and a repeated W1 column with its W2 row makes neurons tie for a logit.
    """
    n_pix, n_hid, n_cls = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    n_rows = draw(st.integers(1, 6))

    def grid(lo, hi, shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape) / denominator

    columns = draw(st.lists(st.integers(0, n_hid - 1), min_size=n_hid, max_size=n_hid))
    params = LmmParams(grid(1, 4, (2 * n_pix,)),
                       grid(-4, 4, (2 * n_pix, n_hid))[:, columns],
                       grid(-4, 4, (n_hid, n_cls))[columns])
    return params, grid(0, 4, (n_rows, n_pix))


class TestTropicalPass:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_nets())
    def test_matches_bruteforce_and_forward_on_ties(self, net):
        params, rows = net
        active = tropical_pass(params, rows)
        predicted = batch_predict(params, rows)
        for i, x in enumerate(rows):
            expect, trace = brute_forward(params, x), forward(params, x)
            for field in active._fields:
                assert np.array_equal(getattr(active, field)[i], getattr(expect, field))
                assert np.array_equal(getattr(active, field)[i], getattr(trace, field))
            assert active.predicted[i] == trace.predicted == predicted[i]

    def test_batch_crosses_chunk_boundaries(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 784, 25, 2)
        images = rng.integers(0, 256, (120, 784)) / 255.0
        assert 120 * 2 * 784 * 25 > 2 * network._CHUNK_CELLS  # several min-plus chunks
        logits = batch_logits(params, images)
        for i in range(120):
            assert np.array_equal(logits[i], forward(params, images[i]).logits)


class TestPixelMins:
    @settings(max_examples=200, deadline=None)
    @given(walk_nets())
    def test_min_over_pixels_is_the_hidden_layer(self, net):
        # Shapley sampling and deletion fidelity build every walk state from these
        params, rows = net
        hidden = tropical_pass(params, rows).hidden
        for i, x in enumerate(rows):
            assert np.array_equal(pixel_mins(params, x).min(axis=1), hidden[i])


class TestParams:
    def test_parameter_count(self):
        params = LmmParams(np.ones(1568), np.zeros((1568, 25)), np.zeros((25, 2)))
        assert params.n_parameters == 40818

    def test_validation(self):
        with pytest.raises(ParameterError):
            LmmParams(np.array([1.0, 0.0]), np.zeros((2, 1)), np.zeros((1, 2)))  # scale below floor
        with pytest.raises(DimensionError):
            LmmParams(np.ones(3), np.zeros((3, 1)), np.zeros((1, 2)))  # odd scale count
        with pytest.raises(DimensionError):
            LmmParams(np.ones(2), np.zeros((4, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            LmmParams(np.ones(2), np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            LmmParams(np.ones(2), np.zeros((2, 0)), np.zeros((0, 2)))  # no hidden neuron
        with pytest.raises(ParameterError):
            LmmParams(np.ones(2), np.zeros((2, 1)), np.zeros((1, 1)))  # single class
        with pytest.raises(ParameterError):
            LmmParams(np.ones(2), np.zeros((2, 1)), np.zeros((1, 2)), temperature=0.0)
        with pytest.raises(NumericError):
            LmmParams(np.ones(2), np.full((2, 1), np.nan), np.zeros((1, 2)))

    def test_copy_is_deep(self):
        params = LmmParams(np.ones(2), np.zeros((2, 1)), np.zeros((1, 2)))
        clone = params.copy()
        clone.minplus_weights[0, 0] = 5.0
        assert params.minplus_weights[0, 0] == 0.0
