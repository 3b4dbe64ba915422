"""Pixel-fragility importance maps and baseline attribution methods.

Fragility exploits the active-path structure of the network.  For a pixel p
and hidden neuron h, the sensitivity S is the largest single-pixel change
that keeps both of pixel p's linear-branch terms of neuron h at or above
the neuron's current activation; the extended sensitivity additionally
grants the neuron its slack, i.e. the gap between the winning logit and
the neuron's contribution to its own class.  The fragility of a pixel is
the smallest extended sensitivity over the neurons typed to the opposite
class: how far the pixel must move before an opposite-class neuron can
reach the winning activation level.

Two model-agnostic baselines are provided for comparison: integrated
gradients along a straight path from a gray baseline (the per-point
derivative follows the active path), and a Monte-Carlo permutation
estimator of Shapley values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ParameterError, UnsupportedConfigError
from .network import ForwardTrace, LmmParams, forward, linear_layer, tropical_pass

ASCENDING = "ascending"     # smaller score = more important (fragility)
DESCENDING = "descending"   # larger |score| = more important (attributions)


@dataclass
class ImportanceMap:
    """One score per pixel plus the producing method's ranking convention."""

    scores: np.ndarray
    ordering: str            # ASCENDING or DESCENDING
    method: str
    image_index: int = -1

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.ordering not in (ASCENDING, DESCENDING):
            raise ParameterError(f"unknown ordering '{self.ordering}'")

    def ranking(self) -> np.ndarray:
        """Pixel indices from most to least important, ties by pixel index.

        Descending maps rank by absolute attribution.
        """
        key = self.scores if self.ordering == ASCENDING else -np.abs(self.scores)
        return np.argsort(key, kind="stable")


@dataclass
class NeuronClassing:
    """Each hidden neuron typed by the class of its largest max-plus bias."""

    class_of_neuron: np.ndarray  # (H1,) int

    @classmethod
    def from_params(cls, params: LmmParams) -> "NeuronClassing":
        return cls(np.argmax(params.maxplus_weights, axis=1))

    def split(self, predicted: int) -> tuple[np.ndarray, np.ndarray]:
        """(neurons typed to ``predicted``, neurons typed to other classes)."""
        same = np.nonzero(self.class_of_neuron == predicted)[0]
        other = np.nonzero(self.class_of_neuron != predicted)[0]
        return same, other


def extended_sensitivity_matrix(params: LmmParams, trace: ForwardTrace, x) -> np.ndarray:
    """Extended sensitivities for all (pixel, neuron) pairs, shape (P, H1).

    Performs the same arithmetic as the per-entry reference
    ``lmmx.oracles.extended_sensitivity``, just vectorized.
    """
    x = np.asarray(x, dtype=np.float64)
    own = np.argmax(params.maxplus_weights, axis=1)
    g = trace.hidden
    s = trace.logits[trace.predicted] - (g + params.maxplus_weights[np.arange(params.n_hidden), own])
    w1_plus = params.minplus_weights[0::2, :]    # (P, H1)
    w1_minus = params.minplus_weights[1::2, :]
    k_plus = params.scales[0::2][:, None]
    k_minus = params.scales[1::2][:, None]
    term_plus = x[:, None] - ((g - s)[None, :] - w1_plus) / k_plus
    term_minus = (s[None, :] + w1_minus - g[None, :]) / k_minus - x[:, None]
    return np.minimum(term_plus, term_minus)


def pixel_fragility(params: LmmParams, x, image_index: int = -1) -> ImportanceMap:
    """Per-pixel flip margins: min extended sensitivity over opposite neurons.

    Small values flag pixels whose change can flip the binary decision; a
    pixel scores +inf when no neuron is typed to the opposite class.
    """
    if params.n_classes != 2:
        raise UnsupportedConfigError("pixel fragility is defined for binary classifiers only")
    trace = forward(params, x)
    _, opposite = NeuronClassing.from_params(params).split(trace.predicted)
    sbar = extended_sensitivity_matrix(params, trace, x)
    if opposite.size == 0:
        scores = np.full(params.n_pixels, np.inf)
    else:
        scores = np.min(sbar[:, opposite], axis=1)
    return ImportanceMap(scores, ASCENDING, "fragility", image_index)


def _fill_baseline(params: LmmParams, baseline) -> np.ndarray:
    if baseline is None:
        return np.full(params.n_pixels, 0.5)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != (params.n_pixels,):
        raise DimensionError(f"baseline must have length {params.n_pixels}")
    if not np.all(np.isfinite(baseline)):
        raise NumericError("baseline contains non-finite values")
    return baseline


def integrated_gradients(params: LmmParams, x, baseline=None, steps: int = 50,
                         image_index: int = -1) -> ImportanceMap:
    """Integrated gradients of the predicted logit along a straight path.

    The derivative at each path point follows the active path: it is the
    signed scale of the winning linear branch feeding the winning neuron of
    the predicted class, concentrated on that branch's pixel (lowest-index
    winners at kinks).  A midpoint rule with ``steps`` points approximates
    the path integral.
    """
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    baseline = _fill_baseline(params, baseline)
    target = forward(params, x).predicted
    diff = x - baseline

    ts = (np.arange(steps) + 0.5) / steps
    points = baseline[None, :] + ts[:, None] * diff[None, :]
    active = tropical_pass(params, points)
    h_star = active.logit_argmax[:, target]                           # (steps,)
    branch = active.hidden_argmin[np.arange(steps), h_star]
    grad = np.where(branch % 2 == 0, params.scales[branch], -params.scales[branch])
    mean_grad = np.zeros(params.n_pixels)
    np.add.at(mean_grad, branch // 2, grad)
    mean_grad /= steps
    return ImportanceMap(diff * mean_grad, DESCENDING, "intgrad", image_index)


def shapley_sampling(params: LmmParams, x, baseline=None, permutations: int = 200,
                     seed: int = 0, image_index: int = -1) -> ImportanceMap:
    """Monte-Carlo Shapley values of the predicted logit.

    For each sampled pixel permutation, pixels are flipped one by one from
    the baseline value to the image value and each pixel is credited with
    the change of the predicted-class logit it causes; scores average the
    credits over permutations, so each permutation's credits telescope to
    z_c(x) - z_c(baseline).

    Walks are evaluated in O(P * H1) per permutation: with only one pixel
    state per position, the hidden-layer minimum over a prefix-flipped
    state splits into a running minimum over flipped pixels and one over
    still-baseline pixels.
    """
    if permutations < 1:
        raise ParameterError("permutations must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    baseline = _fill_baseline(params, baseline)
    target = forward(params, x).predicted
    n_pix, n_hid = params.n_pixels, params.n_hidden

    def per_pixel_mins(values: np.ndarray) -> np.ndarray:
        pre = linear_layer(params, values)[:, None] + params.minplus_weights
        return np.minimum(pre[0::2, :], pre[1::2, :])             # (P, H1)

    at_base = per_pixel_mins(baseline)
    at_image = per_pixel_mins(x)
    out_bias = params.maxplus_weights[:, target]

    rng = np.random.default_rng(seed)
    inf_row = np.full((1, n_hid), np.inf)
    scores = np.zeros(n_pix)
    for _ in range(permutations):
        perm = rng.permutation(n_pix)
        flipped_prefix = np.vstack([inf_row, np.minimum.accumulate(at_image[perm], axis=0)])
        base_suffix = np.vstack([np.minimum.accumulate(at_base[perm][::-1], axis=0)[::-1], inf_row])
        hidden = np.minimum(flipped_prefix, base_suffix)          # (P + 1, H1)
        walk = np.max(hidden + out_bias[None, :], axis=1)         # (P + 1,)
        scores[perm] += np.diff(walk)
    return ImportanceMap(scores / permutations, DESCENDING, "shapley", image_index)
