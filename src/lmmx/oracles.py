"""Independent reference implementations used to cross-check the library.

Everything here evaluates the layer definitions or metric definitions
directly (plain loops, finite differences, exhaustive enumeration) and
deliberately avoids the code paths under test.  ``lmmx selftest`` and the
test suite both check the library against them.
"""

import itertools

import numpy as np

from .network import forward
from .training import cross_entropy


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


def cross_entropy_value(scales, w1, w2, x, y):
    z = brute_forward(scales, w1, w2, x)[3]
    m = z.max()
    return m + np.log(np.sum(np.exp(z - m))) - z[y]


def fd_gradients(params, x, y, step=1e-6):
    """Central finite differences of the cross-entropy on every entry."""
    out = []
    for arr in (params.scales, params.minplus_weights, params.maxplus_weights):
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + step
            up = cross_entropy(params, x, y)
            arr[idx] = keep - step
            down = cross_entropy(params, x, y)
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


def path_integral_attribution(params, x, baseline, target, steps):
    """Midpoint-rule line integral of the active-path derivative."""
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
    return diff * acc / steps
