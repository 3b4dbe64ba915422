"""Medoid selection and nearest-medoid initialization.

A network initialized from a medoid set classifies exactly like a nearest-
medoid rule under the Chebyshev (L-infinity) distance: with scale k0 the
matching-class logit is k0 - k0 * min over same-class medoids of the
L-infinity distance, and the cross-class biases of the max-plus layer are
low enough (-k0) that they never win for inputs in [0, 1]^P.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
# cdist is unused here, but benchmarks/spans.py wraps it under this name
from scipy.spatial.distance import cdist  # noqa: F401

from .data import PIXEL_LEVELS, Dataset
from .errors import (DataError, DimensionError, NumericError, ParameterError, require_count,
                     require_floats, require_int64, require_real)
from .network import SCALE_FLOOR, LmmParams, linear_layer

STRATEGIES = ("random", "greedy-kmedoids")
_ROWS, _COLS = 16, 64  # uint8 distance block shape (measured best)


@dataclass
class MedoidSet:
    """Selected training samples acting as per-class cluster centers."""

    vectors: np.ndarray         # (H1, P) in [0, 1]
    labels: np.ndarray          # (H1,) class index per medoid
    source_indices: np.ndarray  # (H1,) rows of the training set

    def __post_init__(self):
        self.vectors = require_floats(self.vectors, "medoid entries", DataError)
        self.labels = require_int64(self.labels, "labels").reshape(-1)
        self.source_indices = require_int64(self.source_indices, "source_indices").reshape(-1)
        if self.vectors.ndim != 2 or 0 in self.vectors.shape:
            raise DimensionError("vectors must be a non-empty (H1, P) matrix")
        if self.labels.shape[0] != self.vectors.shape[0] or self.source_indices.shape[0] != self.vectors.shape[0]:
            raise DimensionError("labels and source_indices must match the medoid count")
        if self.vectors.min() < 0.0 or self.vectors.max() > 1.0:
            raise DataError("medoid entries must lie in [0, 1]")
        n_classes = int(self.labels.max()) + 1
        present = np.unique(self.labels)
        if present.size != n_classes or present[0] != 0:
            missing = sorted(set(range(n_classes)) - set(present.tolist()))
            raise DataError(f"every class needs at least one medoid; missing {missing}")

    @property
    def n_medoids(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def _allocate_per_class(counts: np.ndarray, n_medoids: int) -> np.ndarray:
    """Medoids per class, proportional to class frequency, at least 1 each.

    The remainder after the proportional floor goes to the largest classes
    first (ties by class index), skipping classes that already have a
    medoid for every member, so no class gets more medoids than samples.
    """
    n_classes = counts.size
    if n_medoids < n_classes:
        raise ParameterError(f"need at least one medoid per class: {n_medoids} < {n_classes}")
    if n_medoids > counts.sum():
        raise ParameterError(f"cannot pick {n_medoids} medoids from {counts.sum()} samples")
    alloc = np.ones(n_classes, dtype=np.int64)
    spare = n_medoids - n_classes
    extra = (spare * counts) // counts.sum()
    alloc += extra
    left = spare - int(extra.sum())
    order = np.lexsort((np.arange(n_classes), -counts))
    i = 0
    while left > 0:
        c = order[i % n_classes]
        if alloc[c] < counts[c]:
            alloc[c] += 1
            left -= 1
        i += 1
    return alloc


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripe(units: np.ndarray, dist: np.ndarray, i0: int) -> None:
    """Fill rows i0:i0+_ROWS of ``dist`` from the diagonal on, and their transposes.

    Runs on a pool thread and calls NumPy only: NumPy's uint8 loops
    release the GIL, and tracers that wrap package functions at their
    module attributes (``benchmarks/spans.py``) assume one thread.
    """
    a = units[i0:i0 + _ROWS, None]
    for j0 in range(i0, units.shape[0], _COLS):
        b = units[None, j0:j0 + _COLS]
        block = (np.maximum(a, b) - np.minimum(a, b)).max(axis=2)
        dist[i0:i0 + _ROWS, j0:j0 + _COLS] = block
        dist[j0:j0 + _COLS, i0:i0 + _ROWS] = block.T


def _chebyshev_matrix(points: np.ndarray) -> np.ndarray:
    """All pairwise Chebyshev distances of ``points``, in whole pixel levels.

    Every entry must lie on the loader's k / PIXEL_LEVELS grid, as in every
    archive ``load_npz_dataset`` reads; the distances are then an exact
    uint8 matrix, built from (_ROWS, _COLS) blocks of max(a, b) - min(a, b)
    over the upper triangle, each block written with its transpose.

    The row stripes run on a thread pool of one worker per usable CPU (at
    most one per stripe).  Stripes write disjoint cells of exact uint8
    levels, so the matrix is byte-equal in any order the stripes run.  The
    off-grid check runs before any worker starts; if a stripe raises or
    the caller is interrupted, the stripes not yet started are cancelled,
    and no worker outlives the call.  Memory: the n x n uint8 result plus
    3 * _ROWS * _COLS * P bytes of block temporaries per worker (2.4 MB at
    P = 784).
    """
    levels = np.rint(points * PIXEL_LEVELS)
    if not np.array_equal(levels / PIXEL_LEVELS, points):
        raise DataError(f"the greedy medoid build needs pixels on the k / {PIXEL_LEVELS} grid "
                        f"(k = 0..{PIXEL_LEVELS}), as an archive loads them")
    units = levels.astype(np.uint8)
    n = points.shape[0]
    dist = np.empty((n, n), np.uint8)
    starts = range(0, n, _ROWS)
    pool = ThreadPoolExecutor(min(_usable_cpus(), len(starts)))
    try:
        for future in [pool.submit(_stripe, units, dist, i0) for i0 in starts]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return dist


def _greedy_kmedoids(points: np.ndarray, quota: int) -> list[int]:
    """Greedy PAM build step under the Chebyshev distance.

    Repeatedly adds the point minimizing the summed distance from every
    class member to its nearest chosen medoid.  Ties go to the lowest
    index.  Needs the n x n uint8 ``_chebyshev_matrix``, and each pick holds
    one more n x n uint8 temporary: 2 n**2 bytes (24 MB at n = 3,494), plus
    about 2.4 MB (at P = 784) of block temporaries per worker while the
    matrix is built.  Its row stripes run on every usable CPU, and the
    matrix is byte-equal in any order they run, so the picks are the same
    on any host and any core count.

    Every cost is a whole number of levels below 2**53, so its float64 sum
    is exact in any order and equal costs are true ties.
    """
    dist = _chebyshev_matrix(points)
    nearest = np.full(dist.shape[0], dist.max(), dist.dtype)  # no medoid yet: nothing lies farther
    chosen: list[int] = []
    for _ in range(quota):
        costs = np.minimum(dist, nearest[:, None]).sum(axis=0, dtype=np.float64)
        costs[chosen] = np.inf  # never pick the same sample twice
        best = int(np.argmin(costs))
        chosen.append(best)
        nearest = np.minimum(nearest, dist[best])  # the row equals the column
    return chosen


def select_medoids(train: Dataset, n_medoids: int, strategy: str = "greedy-kmedoids",
                   seed: int = 0) -> MedoidSet:
    """Pick ``n_medoids`` training samples to seed the hidden layer.

    Neurons are allotted per class proportionally to class frequency (at
    least one each).  ``random`` draws uniformly without replacement;
    ``greedy-kmedoids`` runs the greedy PAM build step per class, and
    raises ``DataError`` for pixels off the loader's k / PIXEL_LEVELS grid.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")
    n_medoids = require_count(n_medoids, "n_medoids")
    seed = require_count(seed, "seed", 0)
    n_classes = int(train.labels.max()) + 1
    counts = np.bincount(train.labels, minlength=n_classes)
    if np.any(counts == 0):
        empty = np.nonzero(counts == 0)[0].tolist()
        raise DataError(f"classes {empty} have no training samples")
    alloc = _allocate_per_class(counts, n_medoids)

    rng = np.random.default_rng(seed)
    picked: list[np.ndarray] = []
    for c in range(n_classes):
        members = np.nonzero(train.labels == c)[0]
        quota = int(alloc[c])
        if strategy == "random":
            sel = np.sort(rng.choice(members, size=quota, replace=False))
        else:
            local = _greedy_kmedoids(train.images[members], quota)
            sel = members[local]
        picked.append(sel)
    indices = np.concatenate(picked)
    return MedoidSet(train.images[indices], train.labels[indices], indices)


def require_k0(k0) -> float:
    """``k0`` as a float, or ``ParameterError`` unless it is a real number >= ``SCALE_FLOOR``."""
    if require_real(k0, "k0") < SCALE_FLOOR:
        raise ParameterError(f"k0 must be >= {SCALE_FLOOR}")
    return float(k0)


def init_params(medoids: MedoidSet, k0: float = 1.0) -> LmmParams:
    """Build network weights that classify by nearest medoid.

    All scales are set to k0; the min-plus bias of branch i and neuron h is
    the negated linear image of medoid h, and the max-plus bias is +k0 for
    the medoid's own class and -k0 otherwise.
    """
    k0 = require_k0(k0)
    n_pix = medoids.vectors.shape[1]
    n_hid = medoids.n_medoids
    n_cls = medoids.n_classes
    w2 = np.full((n_hid, n_cls), -k0)
    w2[np.arange(n_hid), medoids.labels] = k0
    params = LmmParams(np.full(2 * n_pix, k0), np.zeros((2 * n_pix, n_hid)), w2)
    params.minplus_weights = -linear_layer(params, medoids.vectors).T
    return params


def nearest_medoid_predict(medoids: MedoidSet, x) -> int:
    """Class of the L-infinity-nearest medoid (lowest index on ties)."""
    x = require_floats(x, "input", NumericError)
    if x.shape != (medoids.vectors.shape[1],):
        raise DimensionError(f"expected input of length {medoids.vectors.shape[1]}, got shape {x.shape}")
    dist = np.max(np.abs(medoids.vectors - x[None, :]), axis=1)
    return int(medoids.labels[int(np.argmin(dist))])
