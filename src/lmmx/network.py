"""Linear-min-max-plus network: parameters, forward pass, softmax head.

The network maps an input x in R^P through three layers:

  1. a sparse linear layer producing, for every pixel p, the pair
     (K+_p * x_p, -K-_p * x_p) with positive scales K+_p, K-_p;
  2. a min-plus hidden layer  g_h = min_i (lin_i + W1[i, h]);
  3. a max-plus output layer  z_d = max_h (g_h + W2[h, d])
     followed by a tempered softmax.

Because both tropical layers are pure selections, every logit is determined
by exactly one hidden neuron and every hidden activation by exactly one
linear branch.  ``tropical_pass`` records those winners in a
``ForwardTrace`` of a block of rows, and ``forward`` returns its one-row
case, so downstream code can walk the active path.  ``pixel_mins`` gives
each pixel's smaller min-plus term per neuron: a hidden activation is the
min of these over the pixels, which is how Shapley sampling and deletion
fidelity evaluate walks that move pixels one at a time between two inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DimensionError, NumericError, ParameterError, require_floats, require_input,
                     require_positive)

# Positive floor for the linear scales.  Keeping every scale at or above this
# value fixes the sign pattern of the linear layer (plus branch strictly
# increasing, minus branch strictly decreasing), which the sensitivity
# formulas in lmmx.explain divide by.
SCALE_FLOOR = 1e-6


@dataclass
class LmmParams:
    """All trainable weights of a linear-min-max-plus classifier.

    Attributes:
        scales: shape (2P,).  Even entries hold K+_p, odd entries K-_p for
            pixel p; all entries must be >= SCALE_FLOOR.
        minplus_weights: shape (2P, H1) biases of the min-plus layer.
        maxplus_weights: shape (H1, C) biases of the max-plus layer.
        temperature: softmax temperature, > 0.  Training always uses 1;
            calibration overwrites this afterwards.
    """

    scales: np.ndarray
    minplus_weights: np.ndarray
    maxplus_weights: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        self.scales = require_floats(self.scales, "scales", NumericError)
        # Column-major, so each neuron's 2P biases are contiguous: the min-plus
        # reduction runs along them, about twice as fast as across them.
        self.minplus_weights = np.asfortranarray(
            require_floats(self.minplus_weights, "minplus_weights", NumericError))
        self.maxplus_weights = require_floats(self.maxplus_weights, "maxplus_weights", NumericError)
        if self.scales.ndim != 1 or self.scales.size == 0 or self.scales.size % 2:
            raise DimensionError("scales must be a 1-D array of length 2P")
        w1_shape = self.minplus_weights.shape
        if len(w1_shape) != 2 or w1_shape[0] != self.scales.size or w1_shape[1] == 0:
            raise DimensionError("minplus_weights must have shape (2P, H1) with H1 >= 1")
        if self.maxplus_weights.ndim != 2 or self.maxplus_weights.shape[0] != self.minplus_weights.shape[1]:
            raise DimensionError("maxplus_weights must have shape (H1, C)")
        if self.maxplus_weights.shape[1] < 2:
            raise ParameterError("need at least 2 classes")
        if np.any(self.scales < SCALE_FLOOR):
            raise ParameterError(f"all scales must be >= {SCALE_FLOOR}")
        self.temperature = require_positive(self.temperature, "temperature")

    @property
    def n_pixels(self) -> int:
        return self.scales.size // 2

    @property
    def n_hidden(self) -> int:
        return self.minplus_weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.maxplus_weights.shape[1]

    @property
    def n_parameters(self) -> int:
        """Trainable parameter count: 2P + 2P*H1 + H1*C."""
        return self.scales.size + self.minplus_weights.size + self.maxplus_weights.size

    def copy(self) -> "LmmParams":
        return LmmParams(
            self.scales.copy(),
            self.minplus_weights.copy(order="F"),
            self.maxplus_weights.copy(),
            self.temperature,
        )


def linear_layer(params: LmmParams, x: np.ndarray) -> np.ndarray:
    """Sparse linear map of one input (P,) or of rows (N, P) of float64.

    out[..., 2p] = K+_p * x[..., p] and out[..., 2p+1] = -K-_p * x[..., p].
    Callers validate the inputs.
    """
    out = np.empty(x.shape[:-1] + (2 * params.n_pixels,))
    out[..., 0::2] = params.scales[0::2] * x
    out[..., 1::2] = -params.scales[1::2] * x
    return out


class ForwardTrace(NamedTuple):
    """Per-layer values and lowest-index winners of one input, or of n rows.

    ``forward`` returns one input's trace and ``tropical_pass`` n rows',
    each field then with a leading row axis.  Indices are 0-based:
    ``hidden_argmin[..., h]`` is the linear branch that attained g_h and
    ``logit_argmax[..., d]`` the hidden neuron that attained z_d; ties go to
    the lowest index.
    """

    linear: np.ndarray         # (2P,) or (n, 2P)
    hidden: np.ndarray         # (H1,) or (n, H1)
    hidden_argmin: np.ndarray  # (H1,) or (n, H1) int
    logits: np.ndarray         # (C,) or (n, C)
    logit_argmax: np.ndarray   # (C,) or (n, C) int

    @property
    def predicted(self):
        """Argmax class over the last axis, lowest index on ties: a NumPy integer
        for one input, shape (n,) for rows.  Temperature does not change it."""
        return np.argmax(self.logits, axis=-1)


def tropical_pass(params: LmmParams, images: np.ndarray) -> ForwardTrace:
    """Linear, min-plus and max-plus layers on rows (n, P), one row of (2P, H1)
    min-plus sums at a time.  Callers validate the inputs; ties go to the lowest index."""
    lin = linear_layer(params, images)
    w1 = params.minplus_weights
    n, n_hid = lin.shape[0], w1.shape[1]
    hidden_argmin = np.empty((n, n_hid), dtype=np.intp)
    # per row: 16 MB blocks measured 1.5-2x slower at 29 to 4708 rows of P = 784, H1 = 25
    for i in range(n):
        np.argmin(lin[i, :, None] + w1, axis=0, out=hidden_argmin[i])     # (2P, H1)
    row = np.arange(n)[:, None]
    # the winning sums redone: the same float additions, so equal bit for bit
    hidden = lin[row, hidden_argmin] + w1[hidden_argmin, np.arange(n_hid)]
    pre_logits = hidden[:, :, None] + params.maxplus_weights                 # (n, H1, C)
    logit_argmax = np.argmax(pre_logits, axis=1)
    logits = pre_logits[row, logit_argmax, np.arange(params.n_classes)]
    return ForwardTrace(lin, hidden, hidden_argmin, logits, logit_argmax)


def pixel_mins(params: LmmParams, x) -> np.ndarray:
    """Per-pixel min-plus terms of one input, neuron-major (H1, P).

    Entry (h, p) is min(lin[2p] + W1[2p, h], lin[2p+1] + W1[2p+1, h]): the
    sums ``tropical_pass`` reduces, so a min over any of them is bit-equal
    to a hidden activation.  Callers validate the input.
    """
    pre = linear_layer(params, x) + params.minplus_weights.T       # (H1, 2P)
    return np.minimum(pre[:, 0::2], pre[:, 1::2])


def image_terms(params: LmmParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One checked input (P,) as float64, its ``pixel_mins`` table (H1, P), the
    row mins (H1,) and the logits max_h(hidden_h + W2[h, :]) (C,).  Table
    entries are sums ``tropical_pass`` reduces, so the row mins and logits
    equal ``forward``'s up to the sign of a zero, which ``np.argmax`` ignores."""
    x = require_input(x, params.n_pixels)
    mins = pixel_mins(params, x)
    hidden = mins.min(axis=1)
    return x, mins, hidden, (hidden[:, None] + params.maxplus_weights).max(axis=0)


def forward(params: LmmParams, x) -> ForwardTrace:
    """Evaluate the network on one input and record the active path."""
    x = require_input(x, params.n_pixels)
    return ForwardTrace._make(a[0] for a in tropical_pass(params, x[None]))


def batch_logits(params: LmmParams, images: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, shape (N, C); bitwise ``forward`` on every row."""
    images = require_floats(images, "batch", NumericError)
    if images.ndim != 2 or images.shape[1] != params.n_pixels:
        raise DimensionError(f"expected (N, {params.n_pixels}) inputs, got shape {images.shape}")
    return tropical_pass(params, images).logits


def batch_predict(params: LmmParams, images: np.ndarray) -> np.ndarray:
    """Predicted class per row (temperature-invariant)."""
    return np.argmax(batch_logits(params, images), axis=1)


def softmax_rows(z, temperature: float) -> np.ndarray:
    """Tempered softmax of logits (C,) or rows (N, C) over the last axis, max-subtracted."""
    temperature = require_positive(temperature, "temperature")
    z = require_floats(z, "logits", NumericError)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise DimensionError(f"logits need a non-empty last axis, got shape {z.shape}")
    return tempered_softmax(z, temperature)


def tempered_softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """``softmax_rows`` without its checks: float64 logits and T > 0; callers validate."""
    z = z / temperature
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)
