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

from .errors import (NumericError, ParameterError, UnsupportedConfigError, require_count,
                     require_floats)
# forward is unused here, but benchmarks/spans.py wraps it under this name
from .network import LmmParams, forward, image_terms, linear_layer, pixel_mins  # noqa: F401

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
    to the opposite class.

    The min over neurons is taken before the division.  The per-entry
    reference ``lmmx.oracles.extended_sensitivity`` scores pixel p and
    neuron h as min(x_p - a_h / K+_p, b_h / K-_p - x_p), with numerators
    a_h = (g_h - s_h) - W1[2p, h] and b_h = (s_h + W1[2p+1, h]) - g_h.  The
    scales are positive and rounding is monotone, so fl(x - fl(a / k))
    never rises as a grows and fl(fl(b / k) - x) never falls as b grows:
    the min over h of the plus side is its value at max_h a_h, and of the
    minus side its value at min_h b_h.  Each numerator keeps the
    reference's float operations, so every score equals the reference's,
    with one division per pixel and side, up to the sign of a zero: g_h,
    the logits and the class come from ``image_terms``, whose row mins
    differ from ``forward``'s argmin-picked sums only in that sign, and
    operands equal as reals give results equal as reals.  Terms that tie at
    zero with opposite signs (which needs a -0.0 weight or pixel) can also
    flip it; the reference's sign there already depends on the reduction
    order.  Rankings (so deletion fidelity), the stability ratio and the
    PGM export ignore it; the CSV export prints it.
    """
    if params.n_classes != 2:
        raise UnsupportedConfigError("pixel fragility is defined for binary classifiers only")
    x, _, hidden, logits = image_terms(params, x)
    predicted = np.argmax(logits)
    own = np.argmax(params.maxplus_weights, axis=1)
    opposite = np.flatnonzero(own != predicted)
    if opposite.size == 0:
        return ImportanceMap(np.full(params.n_pixels, np.inf), ASCENDING)
    g = hidden[opposite]
    s = logits[predicted] - (g + params.maxplus_weights[opposite, own[opposite]])
    reach = params.minplus_weights[0::2, opposite]      # (P, len(opposite)) copies
    drop = params.minplus_weights[1::2, opposite]
    np.subtract(g - s, reach, out=reach)
    np.add(s, drop, out=drop)
    np.subtract(drop, g, out=drop)
    return ImportanceMap(np.minimum(x - reach.max(axis=1) / params.scales[0::2],
                                    drop.min(axis=1) / params.scales[1::2] - x), ASCENDING)


def integrated_gradients(params: LmmParams, x, steps: int = 50) -> ImportanceMap:
    """Integrated gradients of the predicted logit along a straight path from gray.

    The derivative at each path point follows the active path: it is the
    signed scale of the winning linear branch feeding the winning neuron of
    the predicted class, concentrated on that branch's pixel (lowest-index
    winners at kinks).  A midpoint rule with ``steps`` points approximates
    the path integral.

    Only the branches that can win are evaluated along the path.  Each
    branch's linear value is monotone in t and the points t increase, so
    its values lie between a0 and a1, its values at the path's two ends.
    Rounding is monotone, so fl(a + w) is monotone in a and each min-plus
    sum lin_i + W1[i, h] lies between fl(min(a0, a1) + w) =
    min(fl(a0 + w), fl(a1 + w)) and the same with max: the low and high
    tables are two (2P,) vectors of end values plus W1, and ``prune`` takes
    them as the terms' ends.  For pixels in [0, 1] an end value is never
    zero: ``GRAY`` is 0.5, |diff| <= 0.5 and t < 1, so |fl(t * diff)| < 0.5
    (t would round to 1 only beyond 2**53 steps).  A pixel with diff == 0
    has bit-equal ends, and the tables are only compared, never summed into
    a map, so the sign of a zero never matters.  ``prune`` keeps the neurons
    that can win, with their bounds, and a branch whose low end exceeds its
    neuron's bound never sets its min, so only the other branches are
    summed.  The path's linear layer is built steps-major, (steps, used
    branches); multiplication commutes in IEEE arithmetic, so it keeps
    ``linear_layer``'s bits.  Each kept neuron's candidate columns are
    gathered in ascending branch order and reduced along contiguous rows,
    so the winners, lowest index on ties, are ``tropical_pass``'s bit for
    bit, and their sums are redone once for all kept neurons.
    """
    steps = require_count(steps, "steps")
    x, _, _, logits = image_terms(params, x)
    target = np.argmax(logits)
    diff = x - GRAY

    ts = (np.arange(steps) + 0.5) / steps
    slope = np.where(np.arange(2 * params.n_pixels) % 2 == 0, params.scales, -params.scales)
    w1 = params.minplus_weights
    ends = linear_layer(params, GRAY + ts[[0, -1], None] * diff)     # (2, 2P)
    low = ends.min(axis=0) + w1.T                                    # (H1, 2P)
    keep, bound = prune(low, ends.max(axis=0) + w1.T, params.maxplus_weights[:, target])
    candidate = low[keep] <= bound[:, None]                          # (kept, 2P)
    used = np.flatnonzero(candidate.any(axis=0))
    candidate = candidate[:, used]
    lin = slope[used] * (GRAY + ts[:, None] * diff[used // 2])       # (steps, used)
    winners = np.empty((keep.size, steps), dtype=np.intp)            # columns of lin
    for j, h in enumerate(keep):
        rows = np.flatnonzero(candidate[j])
        sums = np.take(lin, rows, axis=1)                            # (steps, rows)
        sums += w1[used[rows], h]
        np.take(rows, np.argmin(sums, axis=1), out=winners[j])
    cols = np.arange(steps)
    # the winning sums redone: the same float additions, so equal bit for bit
    hidden = lin[cols, winners] + w1[used[winners], keep[:, None]]
    h_star = np.argmax(hidden + params.maxplus_weights[keep, target, None], axis=0)
    branch = used[winners[h_star, cols]]
    mean_grad = np.zeros(params.n_pixels)
    np.add.at(mean_grad, branch // 2, slope[branch])
    mean_grad /= steps
    return ImportanceMap(diff * mean_grad, DESCENDING)


def prune(low: np.ndarray, high: np.ndarray,
          out_bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neurons that can set max_h(g_h + out_bias_h), and their bounds.

    ``low`` and ``high`` are (H1, n) rows of each min-plus term's low and
    high end, g_h is the min of neuron h's row, and each term may take any
    value between its ends.  A Shapley walk holds each pixel at one of its
    two ``pixel_mins``, so the caller passes their ``np.minimum`` and
    ``np.maximum``.  Along the integrated-gradients path each branch's
    linear value a moves monotonically between its end values a0 and a1,
    and rounding is monotone, so its sum fl(a + w) stays between
    fl(min(a0, a1) + w) = min(fl(a0 + w), fl(a1 + w)) and the same with
    max: two vectors of end values plus W1 give both tables.  So g_h lies
    between min(low) over its row and its bound b_h = min(high) over its
    row, and a neuron whose bound plus its bias falls strictly below the
    largest row min of ``low`` plus bias is strictly below the max
    everywhere, since fl(u + c) is monotone in u too.  Ties keep the
    neuron.

    Returns the kept neurons and their bounds.  A term whose low end
    exceeds its neuron's bound never sets its min, and each caller derives
    its own term mask from the bounds.
    """
    bound = high.min(axis=1)
    keep = np.flatnonzero(bound + out_bias >= (low.min(axis=1) + out_bias).max())
    return keep, bound[keep]


# Shapley permutations are drawn and walked this many at a time, so a call
# holds at most this many rows of P indices whatever its permutation count.
_BLOCK = 256


def _suffix_records(gray: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's suffix-min records along each permutation, in one pass.

    Row h's terms are ranked ascending, ties by pixel index.  The pixel of
    rank r is a record in a permutation when it comes after every pixel of
    a lower rank, so every strict suffix-min record of the terms is one, and
    the records among the d smallest terms do not depend on the others.  In
    rank order a record is a strict rise of the running max of positions:
    the (rows, ranks, n) table of positions takes one row-wise
    ``np.maximum`` per rank, and its rises, read in (row, rank, permutation)
    order, come out sorted by key.  The table and its rise mask hold about
    3 bytes per cell at uint16 positions, 15 MB at H1 = 25, P = 784 and
    n = 256, for the length of the call.

    Returns ``key`` = h * P + r, ascending, and ``flat`` = k * P + the
    record's position in permutation k, an index into (n, P) arrays; equal
    keys keep permutation order.
    """
    n, n_pix = inv.shape
    pos = np.take(np.ascontiguousarray(inv.T), np.argsort(gray, axis=1, kind="stable"), axis=0)
    for r in range(1, n_pix):
        np.maximum(pos[:, r - 1], pos[:, r], out=pos[:, r])
    rise = np.empty(pos.shape, dtype=bool)
    rise[:, 0] = True
    np.greater(pos[:, 1:], pos[:, :-1], out=rise[:, 1:])
    at = np.flatnonzero(rise)
    key, perm = np.divmod(at, n)
    return key, perm * n_pix + pos.ravel()[at]


class _GrayKey(bytes):
    """The bytes of ``pixel_mins(params, GRAY)`` as a ``_block`` memo key.

    The hash reads every 509th byte, a few hundred bytes at the paper's
    shape, instead of all 157 kB of a key that is new on every call;
    equality stays full ``bytes`` equality.  A hash collision between two
    models costs one comparison and never returns the other model's entry.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self[::509])


@functools.lru_cache(maxsize=4)
def _block(seed: int, n_pix: int, gray: _GrayKey, index: int) -> tuple:
    """Block ``index`` of ``_BLOCK`` draws of ``default_rng(seed).permutation(n_pix)`` and its records.

    ``gray`` holds the bytes of ``pixel_mins(params, GRAY)``, so a model
    whose weights change gets new entries.  The generator resumes from the
    state in entry ``index - 1``, which ``_blocks`` has just read.  Returns
    the draws, each permutation's position of every pixel (n, P) in the
    smallest unsigned type, ``_suffix_records`` of every neuron over all
    ranks, all read-only, and the generator state after the draws.  An
    entry holds about 2.9 MB at P = 784, H1 = 25: 1.6 MB of draws, the
    key's 157 kB of terms, 401 kB of uint16 positions, and 16 bytes per
    record (about 46,000).  Filling it holds ``_suffix_records``' table,
    about 15 MB there; the process peak is set earlier, by the model build.
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
    Draws are sequential, so the last block read serves a prefix.  The memo
    key is a ``_GrayKey`` of the gray terms: a sampled hash, full equality.
    """
    gray, lo = _GrayKey(at_gray), keep * n_pix
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
    event.  Both kinds are flat keys k * P + position, in the smallest
    unsigned type that holds (n + 1) * P (uint32 at the paper's shape, half
    the bytes of int64 to sort).  One sort puts them in (permutation,
    position) order with each repeat next to its twin, a neighbour compare
    drops the repeats, and ``np.searchsorted`` finds where each permutation
    starts.
    """
    n, n_pix = block.shape
    dtype = np.min_scalar_type((n + 1) * n_pix)
    at = np.concatenate([records, (np.arange(0, n * n_pix, n_pix, dtype=dtype)[:, None]
                                   + inv[:, hits]).ravel()],
                        dtype=dtype, casting="unsafe")        # every key is below n * P
    at.sort()
    at = at[np.concatenate(([True], at[1:] != at[:-1]))]
    starts = np.searchsorted(at, np.arange(0, (n + 1) * n_pix, n_pix, dtype=dtype))
    counts = np.diff(starts)
    perm = np.repeat(np.arange(n), counts)
    events = np.full(counts.max() * n, n_pix)
    events[(np.arange(at.size) - starts[perm]) * n + perm] = block.ravel()[at]
    return events.reshape(-1, n)


def _event_credits(events: np.ndarray, gray_codes: np.ndarray, image_codes: np.ndarray,
                   levels: np.ndarray, gray_logit: float, credits: np.ndarray) -> None:
    """Add each event's change of the logit to its pixel's credit, in (permutation, event) order.

    ``gray_codes`` and ``image_codes`` are (P + 1, kept) order codes of the
    biased terms, indices into ``levels``, whose last row, the padding
    pixel, holds the top code.  After event i a neuron holds the min of its
    image codes at events 0..i and of its gray codes at the later events;
    the logit is the max over neurons, decoded through ``levels``, and
    before the first event it is ``gray_logit``.  A block takes one
    (events, n, kept) slab of codes per side: at most P events and H1 kept
    neurons, so no more cells than the (H1, P, n) position table of a
    ``_block`` fill.  The max over neurons is one ``np.maximum.reduce``
    over a kept-major copy of the slab; max only selects, so the codes are
    those of any other reduction order.
    """
    flipped = np.take(image_codes, events, axis=0)      # (events, n, kept)
    left = np.take(gray_codes, events, axis=0)
    for i in range(1, len(flipped)):
        np.minimum(flipped[i - 1], flipped[i], out=flipped[i])
    for i in range(len(left) - 2, -1, -1):
        np.minimum(left[i + 1], left[i], out=left[i])
    np.minimum(flipped[:-1], left[1:], out=flipped[:-1])
    # the copy pays: a reduce over strided kept slices, or .max(axis=2), is slower
    logit = np.maximum.reduce(np.ascontiguousarray(flipped.transpose(2, 0, 1)), axis=0)
    steps = np.diff(np.take(levels, logit), axis=0, prepend=gray_logit)
    np.add.at(credits, events.T.ravel(), steps.T.ravel())


def shapley_sampling(params: LmmParams, x, permutations: int = 200,
                     seed: int = 0) -> ImportanceMap:
    """Monte-Carlo Shapley values of the predicted logit against the gray image.

    For each sampled pixel permutation, pixels are flipped one by one from
    ``GRAY`` to the image value and each pixel is credited with the change
    of the predicted-class logit it causes; scores average the credits over
    permutations, so each permutation's credits telescope to
    z_c(x) - z_c(gray image).  The permutations are the first
    ``permutations`` draws of ``default_rng(seed).permutation(P)``.  The
    class c is ``image_terms``' argmax, from the table the walk needs anyway.

    Only the steps where the logit can change are evaluated, and the maps
    are bit-equal to evaluating every step.  In every state of a walk,
    neuron h's activation is the min of its image terms (``pixel_mins``)
    over the pixels already flipped and its gray terms over the rest.  Only
    the neurons ``prune`` keeps can set the logit, and a kept neuron's
    activation never exceeds its ``prune`` bound b_h, so a term above b_h
    never sets its min.  Each kept neuron's max-plus bias c_h is added to
    its terms once per call; rounding is monotone, so fl(min(a, b) + c) =
    min(fl(a + c), fl(b + c)) and every biased activation keeps its bits.
    One test marks the biased terms at or below fl(b_h + c_h).  t <= u
    implies fl(t + c) <= fl(u + c), so the marks hold every term at most
    b_h, and a neuron's marked gray terms are a prefix of its gray ranks.
    The image part changes only at a marked image term, and the gray part
    only where a suffix-min record among the marked gray terms leaves it:
    these steps, over all kept neurons, are the permutation's events.  At
    every event the running mins over the events alone equal the
    activations: any term at most b_h that sets a min is itself an event,
    and every other event holds a real term of the state.

    Every other step changes no activation and credits x - x = +0.0.
    Credits start at +0.0 and a sum is -0.0 only if both of its terms are,
    so no credit is ever -0.0 and leaving those +0.0 out changes no bit.
    ``np.add.at`` adds the event credits in (permutation, event) order,
    so each pixel's credits are summed in permutation order, the order of
    a walk through every step.

    Blocks of ``_BLOCK`` permutations and their gray records are memoized
    (``_block``).  ``_events`` pads a permutation with fewer events than the
    most with a dummy pixel whose codes are the top code (below).

    The running mins run on order codes, small unsigned integers in the
    order of the biased terms they replace, and the maps keep every bit:

    1. A kept neuron's biased activation never exceeds its biased bound
       fl(b_h + c_h), so an unmarked term never sets a min, and all such
       terms, and the padding pixel, share one top code.
    2. The marked terms are ranked by one ``np.unique``:
       ranks keep the order and equal values share a code.  min and max
       only select values, so on codes they select the value they select
       on floats, and that value is ranked.
    3. Decoding the logit through the sorted values returns that value's
       bits, except that ``np.unique`` merges +0.0 and -0.0.  A decoded
       zero of the other sign changes no nonzero step of the logit, only
       the sign of a zero step, and adding either zero to a credit, which
       is never -0.0, leaves it as it was.

    Codes take ``np.min_scalar_type`` of the top code, uint8 or uint16 at
    the paper's shape: a quarter or less of float64 terms' bytes to move.
    """
    permutations = require_count(permutations, "permutations")
    seed = require_count(seed, "seed", 0)
    _, at_image, _, logits = image_terms(params, x)
    target = np.argmax(logits)
    n_pix = params.n_pixels
    at_gray = pixel_mins(params, np.full(n_pix, GRAY))
    w2 = params.maxplus_weights
    keep, bound = prune(np.minimum(at_gray, at_image), np.maximum(at_gray, at_image),
                        w2[:, target])
    out_bias = w2[keep, target, None]
    terms = np.stack([at_gray[keep], at_image[keep]])      # (2, kept, P) biased terms
    terms += out_bias
    low = terms <= bound[:, None] + out_bias                # the terms that can set a min
    depth = np.count_nonzero(low[0], axis=1)                # gray ranks that may be records
    hits = np.flatnonzero(low[1].any(axis=0))               # pixels whose image term may count
    # a 1-D argument, so the inverse is 1-D on numpy 1.24 and on 2.x
    levels, ranks = np.unique(terms[low], return_inverse=True)
    codes = np.full((2, n_pix + 1, keep.size), levels.size,  # row n_pix is the dummy pixel
                    dtype=np.min_scalar_type(levels.size))
    codes[:, :-1].transpose(0, 2, 1)[low] = ranks
    levels = np.append(levels, np.inf)
    gray_logit = terms[0].min(axis=1).max()

    credits = np.zeros(n_pix + 1)
    for block, inv, records in _blocks(seed, n_pix, permutations, at_gray, keep, depth):
        _event_credits(_events(block, inv, records, hits), codes[0], codes[1], levels,
                       gray_logit, credits)
    return ImportanceMap(credits[:n_pix] / permutations, DESCENDING)
