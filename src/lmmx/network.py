"""Linear-min-max-plus network: parameters, forward pass, softmax head.

The network maps an input x in R^P through three layers:

  1. a sparse linear layer producing, for every pixel p, the pair
     (K+_p * x_p, -K-_p * x_p) with positive scales K+_p, K-_p;
  2. a min-plus hidden layer  g_h = min_i (lin_i + W1[i, h]);
  3. a max-plus output layer  z_d = max_h (g_h + W2[h, d])
     followed by a tempered softmax.

Because both tropical layers are pure selections, every logit is determined
by exactly one hidden neuron and every hidden activation by exactly one
linear branch.  ``tropical_pass`` records those winners for a block of
rows, and ``forward`` is its one-row case, so downstream code can walk the
active path.  ``PixelWalk`` evaluates every state of a pixel-by-pixel walk
between two inputs at once, for Shapley sampling and deletion fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, ParameterError, require_real

# Positive floor for the linear scales.  Keeping every scale at or above this
# value fixes the sign pattern of the linear layer (plus branch strictly
# increasing, minus branch strictly decreasing), which the sensitivity
# formulas in lmmx.explain divide by.
SCALE_FLOOR = 1e-6

# Largest min-plus block (rows x 2P x H1 cells) that tropical_pass builds at
# once.  512 KiB of float64 stays in a core's L2 cache while it is summed and
# reduced; 16 MB blocks measured 1.5-2x slower at 29 to 4708 rows of
# P = 784, H1 = 25 (one row per block there).
_CHUNK_CELLS = 1 << 16


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


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
        self.scales = _as_float_array(self.scales, "scales")
        # Column-major, so each neuron's 2P biases are contiguous: the min-plus
        # reduction runs along them, about twice as fast as across them.
        self.minplus_weights = np.asfortranarray(_as_float_array(self.minplus_weights,
                                                                 "minplus_weights"))
        self.maxplus_weights = _as_float_array(self.maxplus_weights, "maxplus_weights")
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
        self.temperature = require_real(self.temperature, "temperature")
        if self.temperature <= 0:
            raise ParameterError("temperature must be > 0")

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


@dataclass
class ForwardTrace:
    """Per-layer values plus the winning indices of one forward pass.

    Indices are 0-based.  ``hidden_argmin[h]`` is the linear branch that
    attained g_h and ``logit_argmax[d]`` the hidden neuron that attained
    z_d; ties go to the lowest index.
    """

    linear: np.ndarray        # (2P,)
    hidden: np.ndarray        # (H1,)
    hidden_argmin: np.ndarray  # (H1,) int
    logits: np.ndarray        # (C,)
    logit_argmax: np.ndarray  # (C,) int
    predicted: int
    probs: np.ndarray         # (C,)


def linear_layer(params: LmmParams, x) -> np.ndarray:
    """Sparse linear map of one input (P,) or of rows (N, P).

    out[..., 2p] = K+_p * x[..., p] and out[..., 2p+1] = -K-_p * x[..., p].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.n_pixels:
        raise DimensionError(f"expected inputs of length {params.n_pixels}, got shape {x.shape}")
    out = np.empty(x.shape[:-1] + (2 * params.n_pixels,))
    out[..., 0::2] = params.scales[0::2] * x
    out[..., 1::2] = -params.scales[1::2] * x
    return out


class TropicalPass(NamedTuple):
    """Layer values and lowest-index winners of ``tropical_pass`` on n rows."""

    linear: np.ndarray         # (n, 2P)
    hidden: np.ndarray         # (n, H1)
    hidden_argmin: np.ndarray  # (n, H1) int
    logits: np.ndarray         # (n, C)
    logit_argmax: np.ndarray   # (n, C) int


def tropical_pass(params: LmmParams, images: np.ndarray) -> TropicalPass:
    """Linear, min-plus and max-plus layers on rows of shape (n, P).

    The (rows, 2P, H1) min-plus sums are built a chunk of rows at a time,
    at most _CHUNK_CELLS cells (or one row) each, so memory stays bounded
    for any n.  Callers validate the inputs; ties go to the lowest index.
    """
    lin = linear_layer(params, images)
    w1 = params.minplus_weights
    n, n_hid = lin.shape[0], w1.shape[1]
    hidden_argmin = np.empty((n, n_hid), dtype=np.intp)
    chunk = max(1, _CHUNK_CELLS // w1.size)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        np.argmin(lin[rows, :, None] + w1, axis=1, out=hidden_argmin[rows])  # (rows, 2P, H1)
    row = np.arange(n)[:, None]
    # the winning sums redone: the same float additions, so equal bit for bit
    hidden = lin[row, hidden_argmin] + w1[hidden_argmin, np.arange(n_hid)]
    pre_logits = hidden[:, :, None] + params.maxplus_weights                 # (n, H1, C)
    logit_argmax = np.argmax(pre_logits, axis=1)
    logits = pre_logits[row, logit_argmax, np.arange(params.n_classes)]
    return TropicalPass(lin, hidden, hidden_argmin, logits, logit_argmax)


def pixel_mins(params: LmmParams, x) -> np.ndarray:
    """Per-pixel min-plus terms of one input, neuron-major (H1, P).

    Entry (h, p) is min(lin[2p] + W1[2p, h], lin[2p+1] + W1[2p+1, h]): the
    sums ``tropical_pass`` reduces, so a min over any of them is bit-equal
    to a hidden activation.
    """
    pre = linear_layer(params, x) + params.minplus_weights.T       # (H1, 2P)
    return np.minimum(pre[:, 0::2], pre[:, 1::2])


class PixelWalk:
    """Hidden activations along walks that move pixels one at a time between two inputs.

    A walk along the pixel order ``order`` passes through P + 1 states:
    state k holds pixels order[:k] at the end input's values and the rest at
    the start input's.  Neuron h's activation in state k is then the min of
    a running min of the end input's ``pixel_mins`` over order[:k] and one
    of the start input's over order[k:].  The rows passed in may be any
    subset of neurons; the (H, P + 1) buffers are reused from walk to walk.
    """

    def __init__(self, n_hidden: int, n_pixels: int):
        self._moved = np.empty((n_hidden, n_pixels + 1))
        self._moved[:, 0] = np.inf
        self._kept = np.empty((n_hidden, n_pixels + 1))
        self._kept[:, n_pixels] = np.inf
        self._hidden = np.empty((n_hidden, n_pixels + 1))

    def hidden(self, start: np.ndarray, end: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Activations (H, P + 1) of every state; overwritten by the next walk.

        ``start`` and ``end`` are (H, P) rows of ``pixel_mins``, or those rows
        plus one constant per row: rounding is monotone, so each state's min
        then equals the activation plus that constant, bit for bit.  They
        hold no NaN (finite weights and inputs), where ``fmin`` equals
        ``minimum``; its running min measured about 1.5x faster.  Both halves
        are gathered in walk order into contiguous rows, which measured
        twice as fast as gathering into a reversed view; the kept half's
        suffix min then runs over the reversed view.
        """
        moved = self._moved[:, 1:]
        np.take(end, order, axis=1, out=moved)
        np.fmin.accumulate(moved, axis=1, out=moved)
        np.take(start, order, axis=1, out=self._kept[:, :-1])
        kept = self._kept[:, -2::-1]                    # state P - 1 first
        np.fmin.accumulate(kept, axis=1, out=kept)
        return np.minimum(self._moved, self._kept, out=self._hidden)


def forward(params: LmmParams, x) -> ForwardTrace:
    """Evaluate the network on one input and record the active path."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.n_pixels,):
        raise DimensionError(f"expected input of length {params.n_pixels}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("input contains non-finite values")
    lin, hidden, hidden_argmin, logits, logit_argmax = [a[0] for a in tropical_pass(params, x[None])]
    predicted = int(np.argmax(logits))
    probs = softmax_rows(logits, params.temperature)
    return ForwardTrace(lin, hidden, hidden_argmin, logits, logit_argmax, predicted, probs)


def batch_logits(params: LmmParams, images: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, shape (N, C); bitwise ``forward`` on every row."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[1] != params.n_pixels:
        raise DimensionError(f"expected (N, {params.n_pixels}) inputs, got shape {images.shape}")
    if not np.all(np.isfinite(images)):
        raise NumericError("batch contains non-finite values")
    return tropical_pass(params, images).logits


def batch_predict(params: LmmParams, images: np.ndarray) -> np.ndarray:
    """Predicted class per row (temperature-invariant)."""
    return np.argmax(batch_logits(params, images), axis=1)


def softmax_rows(z, temperature: float) -> np.ndarray:
    """Tempered softmax of logits (C,) or rows (N, C) over the last axis, max-subtracted."""
    temperature = require_real(temperature, "temperature")
    if temperature <= 0:
        raise ParameterError("temperature must be > 0")
    z = np.asarray(z, dtype=np.float64) / temperature
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)
