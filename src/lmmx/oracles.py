"""Independent reference implementations used to cross-check the library.

Everything here evaluates the layer definitions or metric definitions
directly (plain loops, finite differences, exhaustive enumeration,
per-entry formulas) and deliberately avoids the code paths under test.
The checks in :mod:`lmmx.selftest`, and through them ``lmmx selftest``
and the test suite, compare the library against them.
"""

import itertools

import numpy as np

from .data import PIXEL_LEVELS
from .errors import ParameterError
from .network import batch_logits, batch_predict, forward, softmax_rows


def brute_linear(scales, x):
    out = []
    for p in range(len(x)):
        out.append(scales[2 * p] * x[p])
        out.append(-scales[2 * p + 1] * x[p])
    return np.array(out)


def brute_forward(scales, w1, w2, x):
    """(linear, hidden, argmins, logits, argmaxes) by plain min/max loops."""
    lin = brute_linear(scales, x)
    n_hid = w1.shape[1]
    n_cls = w2.shape[1]
    hidden = np.empty(n_hid)
    argmins = np.empty(n_hid, dtype=int)
    for h in range(n_hid):
        vals = [lin[i] + w1[i, h] for i in range(len(lin))]
        best = min(range(len(vals)), key=lambda i: (vals[i], i))
        argmins[h] = best
        hidden[h] = vals[best]
    logits = np.empty(n_cls)
    argmaxes = np.empty(n_cls, dtype=int)
    for d in range(n_cls):
        vals = [hidden[h] + w2[h, d] for h in range(n_hid)]
        best = max(range(len(vals)), key=lambda h: (vals[h], -h))
        argmaxes[d] = best
        logits[d] = vals[best]
    return lin, hidden, argmins, logits, argmaxes


def brute_logit(scales, w1, w2, x, target):
    return brute_forward(scales, w1, w2, x)[3][target]


def chebyshev_nearest(medoid_vectors, medoid_labels, x):
    dists = [max(abs(v - x).max(), 0.0) for v in medoid_vectors]
    best = min(range(len(dists)), key=lambda i: (dists[i], i))
    return medoid_labels[best]


def brute_greedy_kmedoids(points, quota):
    """Greedy PAM build picks from the full distance matrix, lowest index on ties.

    Points lie on the loader's k / PIXEL_LEVELS grid and are measured in
    whole levels with int64 distances and sums, so equal costs are exact ties.
    """
    units = np.rint(points * PIXEL_LEVELS).astype(np.int64)
    dist = np.abs(units[:, None, :] - units[None, :, :]).max(axis=2)
    nearest = dist.max(axis=1)  # no medoid yet: nothing in a row lies farther
    chosen = []
    for _ in range(quota):
        costs = np.minimum(dist, nearest[:, None]).sum(axis=0)
        best = min((c for c in range(len(costs)) if c not in chosen), key=lambda c: (costs[c], c))
        chosen.append(best)
        nearest = np.minimum(nearest, dist[:, best])
    return chosen


def cross_entropy_value(scales, w1, w2, x, y):
    """Cross-entropy of class y at temperature 1 on ``brute_forward``'s logits."""
    z = brute_forward(scales, w1, w2, x)[3]
    m = z.max()
    return m + np.log(np.sum(np.exp(z - m))) - z[y]


def fd_gradients(params, x, y, step=1e-6):
    """Central finite differences of ``cross_entropy_value`` on every entry."""
    weights = (params.scales, params.minplus_weights, params.maxplus_weights)
    out = []
    for arr in weights:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + step
            up = cross_entropy_value(*weights, x, y)
            arr[idx] = keep - step
            down = cross_entropy_value(*weights, x, y)
            arr[idx] = keep
            grad[idx] = (up - down) / (2 * step)
        out.append(grad)
    return out


def exact_shapley(scales, w1, w2, x, baseline, target):
    """Shapley values of the target logit by full permutation enumeration."""
    n_pix = len(x)
    scores = np.zeros(n_pix)
    perms = list(itertools.permutations(range(n_pix)))
    for perm in perms:
        state = baseline.copy()
        prev = brute_logit(scales, w1, w2, state, target)
        for p in perm:
            state[p] = x[p]
            cur = brute_logit(scales, w1, w2, state, target)
            scores[p] += cur - prev
            prev = cur
    return scores / len(perms)


def walk_deltas(scales, w1, w2, x, baseline, target, perm):
    """Per-pixel logit changes along one flip walk, by direct evaluation."""
    state = baseline.copy()
    deltas = np.zeros(len(x))
    prev = brute_logit(scales, w1, w2, state, target)
    for p in perm:
        state[p] = x[p]
        cur = brute_logit(scales, w1, w2, state, target)
        deltas[p] = cur - prev
        prev = cur
    return deltas


def sampled_walk_deltas(scales, w1, w2, x, baseline, target, permutations, seed):
    """The mean of ``walk_deltas`` over the first ``permutations`` draws of
    ``default_rng(seed).permutation(P)``, summed in draw order."""
    perms = np.random.default_rng(seed)
    total = np.zeros(len(x))
    for _ in range(permutations):
        total += walk_deltas(scales, w1, w2, x, baseline, target, perms.permutation(len(x)))
    return total / permutations


def deletion_fidelity(params, explainer, data, fill, steps):
    """Deletion fidelity by direct evaluation of every partially filled image.

    Each image's top k * P // steps ranked pixels (k = 1..steps) are set to
    ``fill`` in a copy of the image, and ``batch_logits`` scores the steps + 1
    rows; the result is the mean calibrated probability of the clean image's
    predicted class over every image and cut.
    """
    n_pix = data.n_pixels
    values = []
    for x in data.images:
        rank = explainer(params, x).ranking()
        batch = np.repeat(x[None, :], steps + 1, axis=0)
        for k in range(1, steps + 1):
            batch[k, rank[:(k * n_pix) // steps]] = fill
        logits = batch_logits(params, batch)
        target = int(np.argmax(logits[0]))
        values.append(softmax_rows(logits[1:], params.temperature)[:, target])
    return float(np.mean(np.concatenate(values)))


def path_integral_attribution(params, x, baseline, target, steps):
    """Midpoint-rule line integral of the active-path derivative.

    One ``forward`` per path point, accumulated in path order and divided
    as diff * (acc / steps), the library's grouping, so the two agree bit
    for bit.
    """
    n_pix = len(x)
    diff = x - baseline
    acc = np.zeros(n_pix)
    for k in range(steps):
        point = baseline + (k + 0.5) / steps * diff
        trace = forward(params, point)
        h_star = trace.logit_argmax[target]
        branch = trace.hidden_argmin[h_star]
        slope = params.scales[branch] if branch % 2 == 0 else -params.scales[branch]
        acc[branch // 2] += slope
    return diff * (acc / steps)


def sensitivity(params, trace, x, pixel, neuron):
    """Change margin of pixel ``pixel`` before neuron ``neuron`` activates lower.

    The distance from zero to the nearest end of the interval of
    single-pixel changes v for which both of the pixel's branch terms stay
    at or above the neuron's current activation.
    """
    x = np.asarray(x, dtype=np.float64)
    g = float(trace.hidden[neuron])
    w1_plus = params.minplus_weights[2 * pixel, neuron]
    w1_minus = params.minplus_weights[2 * pixel + 1, neuron]
    k_plus = params.scales[2 * pixel]
    k_minus = params.scales[2 * pixel + 1]
    return float(min(x[pixel] - (g - w1_plus) / k_plus,
                     (w1_minus - g) / k_minus - x[pixel]))


def neuron_class(params, neuron):
    """d(h): the class of neuron h's largest max-plus bias, lowest index on ties."""
    row = params.maxplus_weights[neuron]
    return max(range(len(row)), key=lambda d: (row[d], -d))


def slack(params, trace, neuron, predicted):
    """Gap z_c - (g_h + W2[h, d(h)]); non-negative when c is the argmax class.

    The grouping matters: g_h + W2[h, d(h)] is one of the candidates the
    max defining the logits already dominated, so the subtraction cannot
    round below zero.
    """
    own = neuron_class(params, neuron)
    return float(trace.logits[predicted]
                 - (trace.hidden[neuron] + params.maxplus_weights[neuron, own]))


def extended_sensitivity(params, trace, x, pixel, neuron, predicted):
    """Sensitivity with the neuron's slack granted toward the winning logit.

    The per-entry reference for ``lmmx.explain.pixel_fragility``.
    """
    x = np.asarray(x, dtype=np.float64)
    g = float(trace.hidden[neuron])
    s = slack(params, trace, neuron, predicted)
    w1_plus = params.minplus_weights[2 * pixel, neuron]
    w1_minus = params.minplus_weights[2 * pixel + 1, neuron]
    k_plus = params.scales[2 * pixel]
    k_minus = params.scales[2 * pixel + 1]
    return float(min(x[pixel] - (g - s - w1_plus) / k_plus,
                     (s + w1_minus - g) / k_minus - x[pixel]))


def fragility_bruteforce_flip(params, x, pixel, grid=401):
    """Smallest |v| on a grid over [-2, 2] that flips the prediction.

    Scans single-pixel perturbations by brute force and returns the flip
    distance, or None when no grid point flips.  Fragility scores hold the
    winning logit fixed and this scan moves it too, so the two are related
    but not identical quantities.
    """
    if grid < 100:
        raise ParameterError("grid must be >= 100")
    x = np.asarray(x, dtype=np.float64)
    base = forward(params, x).predicted
    vs = np.linspace(-2.0, 2.0, grid)
    batch = np.repeat(x[None, :], grid, axis=0)
    batch[:, pixel] = x[pixel] + vs
    flipped = batch_predict(params, batch) != base
    if not flipped.any():
        return None
    return float(min(np.abs(vs[flipped])))
