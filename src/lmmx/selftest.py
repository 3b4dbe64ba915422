"""Oracle checks of the paper's claims, one implementation each.

Every check re-derives expected values independently of the library code
it checks (see :mod:`lmmx.oracles`): plain-Python layer evaluation, direct
Chebyshev distances, central finite differences of a plain-loop loss,
per-entry formula recomputation, and exact telescoping sums on a dyadic
grid where float64 arithmetic is exact.  ``lmmx selftest`` runs them at the
small ``SUITES`` sizes; the acceptance tests run the same functions at
release sizes.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import _native
from .data import PIXEL_LEVELS, load_model, save_model
from .explain import GRAY, _block, pixel_fragility, prune, shapley_sampling
from .medoids import (_COLS, _ROWS, MedoidSet, _chebyshev_matrix, _numpy_stripe, init_params,
                      nearest_medoid_predict)
from .network import (ForwardTrace, LmmParams, batch_logits, forward, pixel_mins,
                      softmax_rows)
from .oracles import (brute_forward, chebyshev_nearest, extended_sensitivity, fd_gradients,
                      neuron_class, sampled_walk_deltas, sensitivity, slack,
                      walk_deltas)
from .training import subgradient


def random_params(rng, n_pix, n_hid, n_cls, lo=0.2, hi=2.0) -> LmmParams:
    """Scales uniform in [lo, hi), biases standard normal: ties have probability zero."""
    return LmmParams(
        rng.uniform(lo, hi, 2 * n_pix),
        rng.normal(0.0, 1.0, (2 * n_pix, n_hid)),
        rng.normal(0.0, 1.0, (n_hid, n_cls)),
    )


def dyadic_params(rng, n_pix, n_hid, n_cls, levels=1024) -> LmmParams:
    """Scales in (0, 2) and biases in [-2, 2) on the grid k / levels.

    With inputs on the same grid every product and sum is exact in float64;
    a coarse grid (few levels) also makes branches and neurons tie.
    """
    return LmmParams(
        rng.integers(1, 2 * levels, 2 * n_pix) / levels,
        rng.integers(-2 * levels, 2 * levels, (2 * n_pix, n_hid)) / levels,
        rng.integers(-2 * levels, 2 * levels, (n_hid, n_cls)) / levels,
    )


def _check(ok, what: str) -> None:
    """Raise ``AssertionError(what)`` unless ``ok``; unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise AssertionError(what)


def _winner_margin(params: LmmParams, trace: ForwardTrace) -> float:
    """Smallest lead of a winner over its runner-up in either tropical layer.

    Away from such kinks the loss is smooth, so finite differences see the
    subgradient; a max-plus layer with one neuron has no runner-up.
    """
    pre_hidden = trace.linear[:, None] + params.minplus_weights
    margin = np.min(np.partition(pre_hidden, 1, axis=0)[1] - trace.hidden)
    if params.n_hidden == 1:
        return float(margin)
    pre_logits = trace.hidden[:, None] + params.maxplus_weights
    return float(min(margin, np.min(trace.logits - np.partition(pre_logits, -2, axis=0)[-2])))


def check_forward_oracle(trials: int = 200, seed: int = 0) -> None:
    """``forward`` equals plain min/max loops and follows one active path.

    Each trial draws a standard-normal net and a coarse dyadic net of the
    same shape, where branches and neurons tie and the lowest index must win.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_pix, n_hid, n_cls = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                               int(rng.integers(2, 4)))
        nets = [(random_params(rng, n_pix, n_hid, n_cls), rng.uniform(-1.0, 2.0, n_pix)),
                (dyadic_params(rng, n_pix, n_hid, n_cls, levels=4),
                 rng.integers(-4, 9, n_pix) / 4.0)]
        for params, x in nets:
            trace, brute = forward(params, x), brute_forward(params, x)
            for field in ("linear", "hidden", "logits"):
                _check(np.max(np.abs(getattr(trace, field) - getattr(brute, field))) <= 1e-12,
                       f"forward's {field} deviates from brute_forward by more than 1e-12")
            for field in ("hidden_argmin", "logit_argmax"):
                _check(np.array_equal(getattr(trace, field), getattr(brute, field)),
                       f"forward's {field} differs from brute_forward")
            # single active path: each recorded winner attains its value and dominates
            pre_hidden = trace.linear[:, None] + params.minplus_weights
            _check(np.array_equal(trace.hidden, pre_hidden[trace.hidden_argmin, np.arange(n_hid)]),
                   "a hidden winner does not attain its activation")
            _check(np.all(trace.hidden <= pre_hidden), "a hidden winner is not the minimum")
            pre_logits = trace.hidden[:, None] + params.maxplus_weights
            _check(np.array_equal(trace.logits, pre_logits[trace.logit_argmax, np.arange(n_cls)]),
                   "a logit winner does not attain its logit")
            _check(np.all(trace.logits >= pre_logits), "a logit winner is not the maximum")
            _check(abs(softmax_rows(trace.logits, params.temperature).sum() - 1.0) <= 1e-12,
                   "probabilities do not sum to 1")


def check_init_equivalence(trials: int = 200, seed: int = 1) -> None:
    """At init, ``forward`` and ``batch_logits`` classify like the nearest medoid.

    ``trials`` inputs per pixel count P in {2, 8, 784}, spread over five
    medoid sets (two at P = 784), each set checked at k0 in {0.1, 1, 10}
    against the Chebyshev nearest-medoid rule with ties to the lowest index.
    """
    rng = np.random.default_rng(seed)
    for n_pix, n_sets in ((2, 5), (8, 5), (784, 2)):
        for _ in range(n_sets):
            n_med = int(rng.integers(2, 8))
            labels = np.concatenate([[0, 1], rng.integers(0, 2, n_med - 2)])
            medoids = MedoidSet(rng.uniform(0, 1, (n_med, n_pix)), labels, np.arange(n_med))
            inputs = rng.uniform(0, 1, (trials // n_sets, n_pix))
            nearest = [chebyshev_nearest(medoids.vectors, medoids.labels, x) for x in inputs]
            _check([nearest_medoid_predict(medoids, x) for x in inputs] == nearest,
                   "nearest_medoid_predict differs from the Chebyshev rule")
            for k0 in (0.1, 1.0, 10.0):
                params = init_params(medoids, k0)
                _check(np.array_equal(np.argmax(batch_logits(params, inputs), axis=1), nearest),
                       "batch_logits at init differs from the nearest medoid")
                _check([forward(params, x).predicted for x in inputs] == nearest,
                       "forward at init differs from the nearest medoid")


def check_gradient_oracle(trials: int = 60, seed: int = 2) -> None:
    """``subgradient`` equals central finite differences at ``trials`` smooth points.

    Points where a winner leads by 1e-3 or less are redrawn.  Tolerances
    scale with the largest entry: contributions that cancel mathematically
    leave ~1e-17 residue, below finite-difference resolution, so they count
    as zeros.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < trials:
        params = random_params(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               int(rng.integers(2, 4)))
        x = rng.uniform(0, 1, params.n_pixels)
        if _winner_margin(params, forward(params, x)) <= 1e-3:
            continue
        checked += 1
        y = int(rng.integers(0, params.n_classes))
        dense = subgradient(params, x[None], [y])[1:]
        scale = max(1.0, max(np.max(np.abs(g)) for g in dense))
        for got, ref in zip(dense, fd_gradients(params, x, y)):
            nz = np.abs(got) > 1e-12 * scale
            _check(np.all(np.abs(got[nz] - ref[nz]) <= 1e-5 * np.abs(got[nz])),
                   "subgradient differs from finite differences")
            _check(np.all(np.abs(ref[~nz]) < 1e-7 * scale),
                   "subgradient is zero where finite differences are not")


def check_fragility_formulas(trials: int = 200, seed: int = 3) -> None:
    """``pixel_fragility`` equals the per-entry formulas, which keep their invariants.

    On each binary net: every slack toward the predicted class is >= 0,
    every extended sensitivity is >= its sensitivity, and each score is the
    least extended sensitivity over opposite-class neurons (+inf if none).
    At one sampled (pixel, neuron) the sensitivity is the nearer end of the
    interval of single-pixel changes that keep both branch terms at or above
    the activation; a 10^4-point scan of the interval confirms it.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        params = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
        x = rng.uniform(0, 1, params.n_pixels)
        trace = forward(params, x)
        c = trace.predicted
        pixels, neurons = range(params.n_pixels), range(params.n_hidden)
        _check(all(slack(params, trace, h, c) >= 0.0 for h in neurons),
               "negative slack toward the predicted class")
        ext = np.array([[extended_sensitivity(params, trace, x, p, h, c) for h in neurons]
                        for p in pixels])
        sens = np.array([[sensitivity(params, trace, x, p, h) for h in neurons] for p in pixels])
        _check(np.all(ext >= sens), "extended sensitivity below sensitivity")
        opposite = [h for h in neurons if neuron_class(params, h) != c]
        expected = ext[:, opposite].min(axis=1) if opposite else np.full(len(pixels), np.inf)
        _check(np.array_equal(pixel_fragility(params, x).scores, expected),
               "pixel_fragility differs from the per-entry formulas")

        p, h = int(rng.integers(0, params.n_pixels)), int(rng.integers(0, params.n_hidden))
        g = trace.hidden[h]
        w1p, w1m = params.minplus_weights[2 * p, h], params.minplus_weights[2 * p + 1, h]
        kp, km = params.scales[2 * p], params.scales[2 * p + 1]
        v_lo = (g - w1p) / kp - x[p]
        v_hi = (w1m - g) / km - x[p]
        _check(v_lo <= 1e-12 and v_hi >= -1e-12, "the change interval does not contain zero")
        _check(abs(sens[p, h] - min(-v_lo, v_hi)) <= 1e-12,
               "sensitivity is not the nearer end of the interval")
        if v_hi - v_lo <= 1e-9:
            continue
        shrink = 1e-9 * (v_hi - v_lo)
        vs = np.linspace(v_lo + shrink, v_hi - shrink, 10_000)
        plus_terms = kp * (x[p] + vs) + w1p
        minus_terms = -km * (x[p] + vs) + w1m
        _check(np.all(plus_terms >= g - 1e-12) and np.all(minus_terms >= g - 1e-12),
               "a branch term drops below the activation inside the interval")
        # while another branch holds the minimum, the activation stays pinned
        if trace.hidden_argmin[h] not in (2 * p, 2 * p + 1):
            others = np.delete(trace.linear + params.minplus_weights[:, h], [2 * p, 2 * p + 1])
            _check(np.all(np.minimum(others.min(), np.minimum(plus_terms, minus_terms)) == g),
                   "the activation moves while another branch holds the minimum")


def _logit_gap(params: LmmParams, x) -> float:
    """z_c(x) - z_c(gray image) for the predicted class c: the Shapley baseline's gap."""
    trace = forward(params, x)
    target = trace.predicted
    return trace.logits[target] - forward(params, np.full(x.size, GRAY)).logits[target]


def check_shapley_efficiency(trials: int = 20, seed: int = 4) -> None:
    """Shapley credits telescope to the predicted logit's gap from the baseline.

    On dyadic nets and inputs every float operation is exact, so each single
    permutation and a four-permutation mean sum to the gap exactly, and
    each single-permutation map equals ``walk_deltas``' direct evaluation
    byte for byte: a wrongly pruned pixel would still telescope, because
    its credit moves to the next walked pixel.  Every other trial's net is
    ``init_params`` of dyadic medoids of both classes, whose cross-class
    max-plus biases (-k0) keep other-class neurons below the predicted
    logit throughout: there ``prune`` must drop a neuron from the
    walks.  Its inputs lie on the medoids' k / 4 grid, so pixels tie with
    the gray baseline and with the medoids, and some pixel's smaller term
    meets a kept neuron's bound.  On a standard-normal net of the same
    shape a three-permutation mean sums to the gap within 1e-12.

    Last, one 257-permutation map, which reads two memoized blocks, the
    second resumed from the first, equals the mean of ``walk_deltas`` byte
    for byte, once with the Shapley memo emptied and once reading it.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n_pix, n_hid = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        cross_class = trial % 2 == 1
        if cross_class:
            labels = np.concatenate([[0, 1], rng.integers(0, 2, n_hid)])
            medoids = MedoidSet(rng.integers(0, 5, (labels.size, n_pix)) / 4.0, labels,
                                np.arange(labels.size))
            params = init_params(medoids, float(rng.choice([0.5, 1.0, 2.0])))
        else:
            params = dyadic_params(rng, n_pix, n_hid, 2)
        x = rng.integers(0, 5, n_pix) / 4.0 if cross_class else rng.integers(0, 1025, n_pix) / 1024.0
        gap = _logit_gap(params, x)
        target = forward(params, x).predicted
        if cross_class:
            gray, image = pixel_mins(params, np.full(n_pix, GRAY)), pixel_mins(params, x)
            kept = prune(np.minimum(gray, image), np.maximum(gray, image),
                         params.maxplus_weights[:, target])[0]
            _check(kept.size < params.n_hidden, "no neuron pruned on a cross-class net")
        for permutations in (1, 1, 1, 4):
            perm_seed = int(rng.integers(1 << 16))
            imap = shapley_sampling(params, x, permutations=permutations, seed=perm_seed)
            _check(imap.scores.sum() == gap, "dyadic Shapley credits do not telescope exactly")
            if permutations == 1:
                deltas = walk_deltas(params, x, target,
                                     np.random.default_rng(perm_seed).permutation(n_pix))
                _check(imap.scores.tobytes() == deltas.tobytes(),
                       "a Shapley map differs from direct evaluation of its walk")
        params = random_params(rng, n_pix, n_hid, 2)
        x = rng.uniform(0, 1, n_pix)
        imap = shapley_sampling(params, x, permutations=3, seed=int(rng.integers(1 << 16)))
        _check(abs(imap.scores.sum() - _logit_gap(params, x)) <= 1e-12,
               "Shapley credits miss the logit gap by more than 1e-12")
    params = dyadic_params(rng, 5, 3, 2)
    x = rng.integers(0, 1025, 5) / 1024.0
    perm_seed = int(rng.integers(1 << 16))
    expected = sampled_walk_deltas(params, x, forward(params, x).predicted, 257, perm_seed)
    _block.cache_clear()
    for memo in ("an empty", "a filled"):
        imap = shapley_sampling(params, x, permutations=257, seed=perm_seed)
        _check(imap.scores.tobytes() == expected.tobytes(),
               f"a 257-permutation Shapley map with {memo} memo differs from direct evaluation")


def check_model_roundtrip(seed: int = 5) -> None:
    """``save_model`` then ``load_model`` is bit-exact at C = 2 and C = 3, temperature included."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="lmmx_selftest_") as tmp:
        path = os.path.join(tmp, "model.lmmp")
        for n_cls in (2, 3):
            params = random_params(rng, 3, 4, n_cls)
            params.temperature = float(rng.uniform(0.1, 5.0))
            save_model(params, path)
            back = load_model(path)
            for field in ("scales", "minplus_weights", "maxplus_weights", "temperature"):
                _check(np.array_equal(getattr(back, field), getattr(params, field)),
                       "model round trip is not bit-exact")


def check_medoid_distances(trials: int = 12, seed: int = 6) -> None:
    """``_chebyshev_matrix`` equals the direct Chebyshev distances in whole levels.

    Each trial draws a tied grid: a few distinct rows on a coarse or fine
    k / 255 grid, duplicated, at a row count across the stripe and block
    edges and P in {1, 15, 16, 17, 784}.  The matrix must equal
    max |a - b| of the int64 levels, and the numpy stripes
    (``_numpy_stripe``, one thread) must give its bytes, so where the
    compiled stripe runs it is checked against the numpy one.
    """
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 4, 5, _ROWS - 1, _ROWS + 1, _COLS - 1, _COLS + 1, 2 * _COLS + _ROWS + 3]
    for trial in range(trials):
        n = sizes[trial % len(sizes)]
        n_pix = int(rng.choice([1, 15, 16, 17, 784] if n <= 40 else [1, 15, 16, 17]))
        top = int(rng.choice([3, PIXEL_LEVELS]))
        distinct = rng.integers(0, top + 1, (int(rng.integers(1, 7)), n_pix))
        units = distinct[rng.integers(0, distinct.shape[0], n)]
        dist = _chebyshev_matrix(units / PIXEL_LEVELS)
        expected = np.abs(units[:, None, :] - units[None, :, :]).max(axis=2)
        _check(dist.dtype == np.uint8 and np.array_equal(dist, expected),
               "the Chebyshev matrix differs from the direct distances")
        numpy, levels = np.empty_like(dist), units.astype(np.uint8)
        for i0 in range(0, n, _ROWS):
            _numpy_stripe(levels, numpy, i0)
        _check(numpy.tobytes() == dist.tobytes(),
               "the numpy stripes differ from the Chebyshev matrix")


SUITES = (
    ("forward-vs-bruteforce", check_forward_oracle),
    ("init-nearest-medoid", check_init_equivalence),
    ("subgradient-vs-finite-differences", check_gradient_oracle),
    ("fragility-formulas", check_fragility_formulas),
    ("shapley-efficiency", check_shapley_efficiency),
    ("model-roundtrip", check_model_roundtrip),
    ("medoid-distances", check_medoid_distances),
)


def run_selftest() -> bool:
    """Run every oracle suite, printing one status line each; returns True when all pass.

    A first line names the path both kernels run on, Shapley blocks and
    medoid distance stripes: the compiled library, or the numpy passes and
    why no library could be built (``lmmx._native.status``).
    """
    print(f"selftest native-path: {_native.status()}", flush=True)
    ok = True
    for name, suite in SUITES:
        try:
            suite()
            status = "ok"
        except Exception as exc:  # a broken build may raise anything; the other suites still run
            status = f"FAIL ({type(exc).__name__}: {exc})"
            ok = False
        print(f"selftest {name}: {status}", flush=True)
    return ok
