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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericError, ParameterError, UnsupportedConfigError, require_count,
                     require_floats)
from .network import LmmParams, forward, linear_layer, pixel_mins

ASCENDING = "ascending"     # smaller score = more important (fragility)
DESCENDING = "descending"   # larger |score| = more important (attributions)

# The one reference image: every pixel of the attribution baseline (intgrad,
# Shapley) and of the deletion fill (lmmx.metrics.fidelity) is this gray.
GRAY = 0.5


@dataclass
class ImportanceMap:
    """One score per pixel plus the producing method's ranking convention.

    Scores are real and never NaN; +inf is allowed (fragility's score of a
    pixel no opposite-class neuron can reach).
    """

    scores: np.ndarray
    ordering: str            # ASCENDING or DESCENDING

    def __post_init__(self):
        self.scores = require_floats(self.scores, "scores", NumericError, finite=False)
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
    trace = forward(params, x)
    x = np.asarray(x, dtype=np.float64)
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
    target = forward(params, x).predicted
    baseline = np.full(params.n_pixels, GRAY)
    diff = np.asarray(x, dtype=np.float64) - baseline

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

# Largest array, in elements, of one step of the Shapley event pass: each of
# its two (events, permutations, kept neurons) float64 slabs stays at 1 MiB,
# and the uint16 positions of a record build at 2 MiB.
_EVENT_CELLS = 1 << 17
_RECORD_CELLS = 1 << 20


def _suffix_records(gray: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's suffix-min records along each permutation.

    Row h's terms are ranked ascending, ties by pixel index.  The pixel of
    rank r is a record in a permutation when it comes after every pixel of
    a lower rank, so every strict suffix-min record of the terms is one, and
    the records among the d smallest terms do not depend on the others.  In
    rank order a record is a strict rise of the running max of positions.
    That max is taken over blocks of about sqrt(P) ranks: first within each
    block, all blocks at once, then across blocks, so about 2 sqrt(P)
    row-wise ``np.maximum`` calls do the work of P - 1; it runs forward, so
    the padding after rank P - 1 changes no rank.  Rows are taken a few at
    a time so the positions stay within ``_RECORD_CELLS``.

    Returns ``key`` = h * P + r, ascending, and ``flat`` = k * P + the
    record's position in permutation k, an index into (n, P) arrays; equal
    keys keep permutation order.
    """
    n, n_pix = inv.shape
    order = np.argsort(gray, axis=1, kind="stable").T
    by_pixel = np.ascontiguousarray(inv.T)
    width = math.isqrt(n_pix - 1) + 1
    ranks = -(-n_pix // width) * width
    rows = max(1, _RECORD_CELLS // (n * n_pix))
    space = np.empty(ranks * rows * n, dtype=inv.dtype)         # reused by each chunk
    rises = np.empty(n_pix * rows * n, dtype=bool)
    keys, flats = [], []
    for h0 in range(0, gray.shape[0], rows):
        ranked = order[:, h0:h0 + rows]
        shape = (ranks, ranked.shape[1], n)                       # (ranks, rows, n)
        pos = space[:math.prod(shape)].reshape(shape)
        np.take(by_pixel, ranked, axis=0, out=pos[:n_pix])
        blocks = pos.reshape(-1, width, *shape[1:])
        for w in range(1, width):
            np.maximum(blocks[:, w - 1], blocks[:, w], out=blocks[:, w])
        for b in range(1, len(blocks)):
            np.maximum(blocks[b], blocks[b - 1, -1], out=blocks[b])
        rise = rises[:n_pix * shape[1] * n].reshape(n_pix, *shape[1:])
        rise[0] = True
        np.greater(pos[1:n_pix], pos[:n_pix - 1], out=rise[1:])
        at = np.flatnonzero(rise)
        rank, row, perm = np.unravel_index(at, rise.shape)
        keys.append((h0 + row) * n_pix + rank)
        flats.append(perm * n_pix + pos.ravel()[at])
    key, flat = np.concatenate(keys), np.concatenate(flats)
    by_key = np.argsort(key, kind="stable")
    return key[by_key], flat[by_key]


@functools.lru_cache(maxsize=4)
def _block(seed: int, n_pix: int, gray: bytes, index: int) -> tuple:
    """Block ``index`` of ``_BLOCK`` draws of ``default_rng(seed).permutation(n_pix)`` and its records.

    ``gray`` holds the bytes of ``pixel_mins(params, GRAY)``, so a model
    whose weights change gets new entries.  The generator resumes from the
    state in entry ``index - 1``, which ``_blocks`` has just read.  Returns
    the draws, each permutation's position of every pixel (n, P) in the
    smallest unsigned type, ``_suffix_records`` of every neuron over all
    ranks, all read-only, and the generator state after the draws.  An
    entry holds about 2.9 MB at P = 784, H1 = 25: 1.6 MB of draws, the
    key's 157 kB of terms, 401 kB of uint16 positions, and 16 bytes per
    record (about 46,000).
    """
    rng = np.random.default_rng(seed)
    if index:
        rng.bit_generator.state = _block(seed, n_pix, gray, index - 1)[-1]
    block = np.stack([rng.permutation(n_pix) for _ in range(_BLOCK)])
    inv = np.empty(block.shape, dtype=np.min_scalar_type(n_pix - 1))
    inv[np.arange(_BLOCK)[:, None], block] = np.arange(n_pix)
    key, flat = _suffix_records(np.frombuffer(gray).reshape(-1, n_pix), inv)
    for a in (block, inv, key, flat):
        a.flags.writeable = False
    return block, inv, key, flat, rng.bit_generator.state


def _blocks(seed: int, n_pix: int, count: int, at_gray: np.ndarray, keep: np.ndarray,
            depth: np.ndarray):
    """The first ``count`` draws of ``default_rng(seed).permutation(n_pix)``, in blocks.

    Each block comes with its inverse permutations and the flat indices of
    kept neuron j's gray-term records among its ``depth[j]`` smallest terms.
    Draws are sequential, so the last block read serves a prefix.
    """
    gray, lo = at_gray.tobytes(), keep * n_pix
    for index, start in enumerate(range(0, count, _BLOCK)):
        block, inv, key, flat, _ = _block(seed, n_pix, gray, index)
        n = min(_BLOCK, count - start)
        taken = np.concatenate([flat[a:b] for a, b in zip(np.searchsorted(key, lo),
                                                           np.searchsorted(key, lo + depth))])
        yield block[:n], inv[:n], taken[taken < n * n_pix]


def _events(block: np.ndarray, inv: np.ndarray, records: np.ndarray,
            hits: np.ndarray) -> np.ndarray:
    """Each permutation's event pixels in walk order, (most events, n), padded with pixel P.

    The events are the positions in ``records`` (flat k * P + position) and
    the positions of the pixels ``hits``; a position marked twice is one
    event.
    """
    n, n_pix = block.shape
    marked = np.zeros((n, n_pix), dtype=bool)
    marked.ravel()[records] = True
    marked[np.arange(n)[:, None], inv[:, hits]] = True
    at = np.flatnonzero(marked)                        # (permutation, position) order
    perm = at // n_pix
    counts = np.bincount(perm, minlength=n)
    events = np.full((counts.max(), n), n_pix)
    events[np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts), perm] = \
        block.ravel()[at]
    return events


def _event_credits(events: np.ndarray, gray_terms: np.ndarray, image_terms: np.ndarray,
                   gray_logit: float, credits: np.ndarray) -> None:
    """Add each event's change of the logit to its pixel's credit, in (permutation, event) order.

    ``gray_terms`` and ``image_terms`` are (P + 1, kept) biased terms whose
    last row, the padding pixel, is +inf.  After event i a neuron holds the
    min of its image terms at events 0..i and of its gray terms at the later
    events; the logit is the max over neurons, and before the first event
    it is ``gray_logit``.  Permutations are taken a chunk at a time, so each
    (events, chunk, kept) slab stays within ``_EVENT_CELLS``.
    """
    n_kept = gray_terms.shape[1]
    chunk = max(1, _EVENT_CELLS // (len(events) * n_kept))
    for c in range(0, events.shape[1], chunk):
        pixels = events[:, c:c + chunk]
        flipped = image_terms[pixels]                  # (events, chunk, kept)
        left = gray_terms[pixels]
        for i in range(1, len(flipped)):
            np.fmin(flipped[i - 1], flipped[i], out=flipped[i])
        for i in range(len(left) - 2, -1, -1):
            np.fmin(left[i + 1], left[i], out=left[i])
        np.fmin(flipped[:-1], left[1:], out=flipped[:-1])
        logit = flipped[:, :, 0].copy()
        for j in range(1, n_kept):                     # faster than a max over the short last axis
            np.maximum(logit, flipped[:, :, j], out=logit)
        steps = np.diff(logit, axis=0, prepend=gray_logit)
        np.add.at(credits, pixels.T.ravel(), steps.T.ravel())


def shapley_sampling(params: LmmParams, x, permutations: int = 200,
                     seed: int = 0) -> ImportanceMap:
    """Monte-Carlo Shapley values of the predicted logit against the gray image.

    For each sampled pixel permutation, pixels are flipped one by one from
    ``GRAY`` to the image value and each pixel is credited with the change
    of the predicted-class logit it causes; scores average the credits over
    permutations, so each permutation's credits telescope to
    z_c(x) - z_c(gray image).  The permutations are the first
    ``permutations`` draws of ``default_rng(seed).permutation(P)``.

    Only the steps where the logit can change are evaluated, and the maps
    are bit-equal to evaluating every step.  In every state of a walk,
    neuron h's activation is the min of its image terms (``pixel_mins``)
    over the pixels already flipped and its gray terms over the rest.  Only
    the neurons ``prune`` keeps can set the logit, and a kept neuron's
    activation never exceeds its bound b_h, the min over pixels of the
    larger of the two terms: so a term above b_h never sets its min.  The
    image part changes only at a pixel whose image term is at most b_h, and
    the gray part only where a suffix-min record of the gray terms leaves
    it.  These steps, over all kept neurons, are the permutation's events.
    At every event the running mins over the events alone equal the
    activations: any term at most b_h that sets a min is itself an event,
    and the extra events of other neurons hold real terms of the state.

    Every other step changes no activation and credits x - x = +0.0.
    Credits start at +0.0 and a sum is -0.0 only if both of its terms are,
    so no credit is ever -0.0 and leaving those +0.0 out changes no bit.
    ``np.add.at`` adds the event credits in (permutation, event) order,
    so each pixel's credits are summed in permutation order, the order of
    a walk through every step.

    Each block of ``_BLOCK`` permutations and its gray records depend only
    on the seed, the block's index and the gray terms, and are memoized in
    one entry per block, model and seed (``_block``).  Events are sorted by position; a
    permutation with fewer events than the most is padded with a dummy
    pixel whose terms are +inf and change nothing.
    Each kept neuron's max-plus bias is added to its terms once per call:
    rounding is monotone, so fl(min(a, b) + c) = min(fl(a + c), fl(b + c))
    and every state's biased activation keeps its bits.  The running mins
    are row-wise ``np.fmin`` over (events, permutations, kept) slabs of at
    most ``_EVENT_CELLS`` cells, about 2 MB of temporaries.
    """
    permutations = require_count(permutations, "permutations")
    seed = require_count(seed, "seed", 0)
    target = forward(params, x).predicted
    n_pix = params.n_pixels

    at_gray = pixel_mins(params, np.full(n_pix, GRAY))
    at_image = pixel_mins(params, np.asarray(x, dtype=np.float64))
    keep = prune(at_gray, at_image, params.maxplus_weights[:, target])[0]
    gray, image = at_gray[keep], at_image[keep]
    bound = np.maximum(gray, image).min(axis=1)[:, None]
    depth = np.count_nonzero(gray <= bound, axis=1)        # gray ranks that may be records
    hits = np.flatnonzero((image <= bound).any(axis=0))    # pixels whose image term may count
    out_bias = params.maxplus_weights[keep, target, None]
    gray_terms = np.full((n_pix + 1, keep.size), np.inf)   # row n_pix is the dummy pixel
    gray_terms[:-1] = (gray + out_bias).T
    image_terms = np.full((n_pix + 1, keep.size), np.inf)
    image_terms[:-1] = (image + out_bias).T
    gray_logit = gray_terms.min(axis=0).max()

    credits = np.zeros(n_pix + 1)
    for block, inv, records in _blocks(seed, n_pix, permutations, at_gray, keep, depth):
        _event_credits(_events(block, inv, records, hits), gray_terms, image_terms,
                       gray_logit, credits)
    return ImportanceMap(credits[:n_pix] / permutations, DESCENDING)
