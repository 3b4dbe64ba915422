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
gradients along a straight path from the gray image (every pixel at
``GRAY``; the per-point derivative follows the active path), and a
Monte-Carlo permutation estimator of Shapley values against the same gray
image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedConfigError, require_count
from .network import LmmParams, PixelWalk, forward, linear_layer, pixel_mins

ASCENDING = "ascending"     # smaller score = more important (fragility)
DESCENDING = "descending"   # larger |score| = more important (attributions)

# The one reference image: every pixel of the attribution baseline (intgrad,
# Shapley) and of the deletion fill (lmmx.metrics.fidelity) is this gray.
GRAY = 0.5


@dataclass
class ImportanceMap:
    """One score per pixel plus the producing method's ranking convention."""

    scores: np.ndarray
    ordering: str            # ASCENDING or DESCENDING

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.ordering not in (ASCENDING, DESCENDING):
            raise ParameterError(f"unknown ordering '{self.ordering}'")

    def importance(self) -> np.ndarray:
        """Per-pixel key where larger means more important.

        Ascending maps negate their scores; descending maps rank by
        absolute attribution.
        """
        return -self.scores if self.ordering == ASCENDING else np.abs(self.scores)

    def ranking(self) -> np.ndarray:
        """Pixel indices from most to least important, ties by pixel index."""
        return np.argsort(-self.importance(), kind="stable")


def pixel_fragility(params: LmmParams, x) -> ImportanceMap:
    """Per-pixel flip margins: min extended sensitivity over opposite neurons.

    Each neuron is typed to the class of its largest max-plus bias, lowest
    index on ties; only the neurons typed to the other class than the
    predicted one are evaluated.  Small values flag pixels whose change can
    flip the binary decision; a pixel scores +inf when no neuron is typed
    to the opposite class.  The (P, neurons) extended sensitivities perform
    the same arithmetic as the per-entry reference
    ``lmmx.oracles.extended_sensitivity``, just vectorized.
    """
    if params.n_classes != 2:
        raise UnsupportedConfigError("pixel fragility is defined for binary classifiers only")
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x)
    own = np.argmax(params.maxplus_weights, axis=1)
    opposite = np.flatnonzero(own != trace.predicted)
    if opposite.size == 0:
        return ImportanceMap(np.full(params.n_pixels, np.inf), ASCENDING)
    g = trace.hidden[opposite]
    s = trace.logits[trace.predicted] - (g + params.maxplus_weights[opposite, own[opposite]])
    w1_plus = params.minplus_weights[0::2, opposite]    # (P, len(opposite))
    w1_minus = params.minplus_weights[1::2, opposite]
    k_plus = params.scales[0::2][:, None]
    k_minus = params.scales[1::2][:, None]
    term_plus = x[:, None] - ((g - s)[None, :] - w1_plus) / k_plus
    term_minus = (s[None, :] + w1_minus - g[None, :]) / k_minus - x[:, None]
    return ImportanceMap(np.minimum(term_plus, term_minus).min(axis=1), ASCENDING)


def integrated_gradients(params: LmmParams, x, steps: int = 50) -> ImportanceMap:
    """Integrated gradients of the predicted logit along a straight path from gray.

    The derivative at each path point follows the active path: it is the
    signed scale of the winning linear branch feeding the winning neuron of
    the predicted class, concentrated on that branch's pixel (lowest-index
    winners at kinks).  A midpoint rule with ``steps`` points approximates
    the path integral.

    Only the branches that can win are evaluated along the path.  The
    points t increase and rounding is monotone, so each min-plus sum
    lin_i + W1[i, h] lies between its values at the path's two ends, and
    ``prune`` keeps, for each neuron that can win, the branches that can
    set its min.  The remaining rows keep ``linear_layer``'s float
    operations and ascending branch order, so the winners, lowest index on
    ties, are ``tropical_pass``'s bit for bit.
    """
    steps = require_count(steps, "steps")
    x = np.asarray(x, dtype=np.float64)
    baseline = np.full(params.n_pixels, GRAY)
    target = forward(params, x).predicted
    diff = x - baseline

    ts = (np.arange(steps) + 0.5) / steps
    slope = np.where(np.arange(2 * params.n_pixels) % 2 == 0, params.scales, -params.scales)
    w1 = params.minplus_weights
    ends = linear_layer(params, baseline + ts[[0, -1], None] * diff)        # (2, 2P)
    keep, used, candidate = prune(ends[0] + w1.T, ends[1] + w1.T,
                                  params.maxplus_weights[:, target])
    w1 = w1[used]
    lin = slope[used, None] * (baseline[used // 2, None] + diff[used // 2, None] * ts)
    cols = np.arange(steps)
    hidden = np.empty((keep.size, steps))
    winners = np.empty((keep.size, steps), dtype=np.intp)                 # rows of lin
    for j, h in enumerate(keep):
        rows = np.flatnonzero(candidate[j])
        sums = lin[rows] + w1[rows, h, None]
        best = np.argmin(sums, axis=0)
        hidden[j] = sums[best, cols]
        winners[j] = rows[best]
    h_star = np.argmax(hidden + params.maxplus_weights[keep, target, None], axis=0)
    branch = used[winners[h_star, cols]]
    mean_grad = np.zeros(params.n_pixels)
    np.add.at(mean_grad, branch // 2, slope[branch])
    mean_grad /= steps
    return ImportanceMap(diff * mean_grad, DESCENDING)


def prune(start: np.ndarray, end: np.ndarray,
          out_bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neurons and terms that can set max_h(g_h + out_bias_h) between two ends.

    ``start`` and ``end`` are (H1, n) rows of min-plus terms, g_h is the min
    of neuron h's row, and each term may take any value that lies between
    its ``start`` and ``end`` values: a Shapley walk holds each pixel at one
    of its two ``pixel_mins``, and each branch sum moves monotonically along
    the integrated-gradients path.  So g_h lies between min(start, end) and
    its bound min max(start, end) over its row, and rounding is monotone: a
    neuron whose bound plus its bias falls strictly below the largest lower
    end plus bias is strictly below the max everywhere, and a term whose
    smaller end exceeds its neuron's bound never sets that neuron's min.
    Ties keep the neuron and the term.

    Returns the kept neurons, the columns holding a candidate term of some
    kept neuron, and the (kept, columns) candidate mask.
    """
    low, high = np.minimum(start, end), np.maximum(start, end)
    bound = high.min(axis=1)
    keep = np.flatnonzero(bound + out_bias >= (low.min(axis=1) + out_bias).max())
    candidate = low[keep] <= bound[keep, None]
    cols = np.flatnonzero(candidate.any(axis=0))
    return keep, cols, candidate[:, cols]


# Shapley permutations are drawn and walked this many at a time, so a call
# holds at most this many rows of P indices whatever its permutation count.
_BLOCK = 256


@functools.lru_cache(maxsize=4)
def _first_block(seed: int, n_pix: int) -> tuple[np.ndarray, dict]:
    """The first ``_BLOCK`` draws of ``default_rng(seed).permutation(n_pix)``.

    Returned read-only, with the generator state after them.  Every
    ``shapley_sampling`` call of one ``lmmx metrics`` run uses one seed, so
    all calls after the first read their permutations from here.  An entry
    holds 256 * P indices, 1.6 MB at P = 784.
    """
    rng = np.random.default_rng(seed)
    block = np.stack([rng.permutation(n_pix) for _ in range(_BLOCK)])
    block.flags.writeable = False
    return block, rng.bit_generator.state


def _permutation_blocks(seed: int, n_pix: int, count: int):
    """The first ``count`` draws of ``default_rng(seed).permutation(n_pix)``, in blocks.

    Draws are sequential, so the first k do not depend on ``count``: the
    memoized first block serves a prefix, and later blocks resume from the
    state saved after it.
    """
    block, state = _first_block(seed, n_pix)
    yield block[:count]
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = state
    for start in range(_BLOCK, count, _BLOCK):
        yield np.stack([rng.permutation(n_pix) for _ in range(min(_BLOCK, count - start))])


def shapley_sampling(params: LmmParams, x, permutations: int = 200,
                     seed: int = 0) -> ImportanceMap:
    """Monte-Carlo Shapley values of the predicted logit against the gray image.

    For each sampled pixel permutation, pixels are flipped one by one from
    ``GRAY`` to the image value and each pixel is credited with the change
    of the predicted-class logit it causes; scores average the credits over
    permutations, so each permutation's credits telescope to
    z_c(x) - z_c(gray image).  The permutations are the first
    ``permutations`` draws of ``default_rng(seed).permutation(P)``.

    Each permutation is one ``PixelWalk`` over only the neurons and pixels
    that ``prune`` keeps for the predicted logit: in every walk state
    neuron h holds one of each pixel's two ``pixel_mins``.  A pixel that is
    a candidate of no kept neuron never sets a kept neuron's min, so it is
    left out of the walk and credited an exact +0.0.  The other
    pixels keep their order and the states' float operations, so the maps
    are bit-equal to walking every neuron over every pixel.

    Each kept neuron's max-plus bias is added to its terms once per call,
    not to its activations once per permutation.  Rounding is monotone, so
    fl(min(a, b) + c) = min(fl(a + c), fl(b + c)) and every state's biased
    activation keeps its bits.  The logit and its steps are written into
    buffers allocated once per call.
    """
    permutations = require_count(permutations, "permutations")
    seed = require_count(seed, "seed", 0)
    x = np.asarray(x, dtype=np.float64)
    target = forward(params, x).predicted
    n_pix = params.n_pixels

    at_base = pixel_mins(params, np.full(n_pix, GRAY))
    at_image = pixel_mins(params, x)
    keep, cols, _ = prune(at_base, at_image, params.maxplus_weights[:, target])
    out_bias = params.maxplus_weights[keep, target, None]
    at_base = at_base[np.ix_(keep, cols)] + out_bias
    at_image = at_image[np.ix_(keep, cols)] + out_bias
    slot = np.full(n_pix, -1)                    # pixel -> its column among ``cols``, or -1
    slot[cols] = np.arange(cols.size)

    walk = PixelWalk(keep.size, cols.size)
    logit = np.empty(cols.size + 1)
    step = np.empty(cols.size)
    credits = np.zeros(cols.size)
    for block in _permutation_blocks(seed, n_pix, permutations):
        taken = slot[block]
        for order in taken[taken >= 0].reshape(len(block), cols.size):
            np.max(walk.hidden(at_base, at_image, order), axis=0, out=logit)
            np.subtract(logit[1:], logit[:-1], out=step)
            credits[order] += step
    scores = np.zeros(n_pix)
    scores[cols] = credits / permutations
    return ImportanceMap(scores, DESCENDING)

