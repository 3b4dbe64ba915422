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

from . import _native
from .data import PIXEL_LEVELS, Dataset
from .errors import (DataError, DimensionError, ParameterError, require_count, require_floats,
                     require_input, require_int64, require_real)
from .network import SCALE_FLOOR, LmmParams, linear_layer

STRATEGIES = ("random", "greedy-kmedoids")
_ROWS, _COLS = 16, 64  # rows per stripe; uint8 block shape of the numpy stripe (measured best)
_LEVEL_ROWS = 256  # rows per float64 block of the on-grid check and uint8 conversion
_UPDATE_CELLS = 1 << 18  # uint8 cells per row chunk of a greedy cost update (measured best)


def cdist(*args, **kwargs):
    """scipy's ``scipy.spatial.distance.cdist``, imported on first call.

    Nothing in lmmx calls it: ``benchmarks/spans.py`` wraps this name.
    Importing scipy here rather than at module level keeps it out of every
    lmmx process (about 37 MB of resident memory and 0.3 s per import).
    """
    from scipy.spatial.distance import cdist as scipy_cdist
    return scipy_cdist(*args, **kwargs)


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

    The pool's unit of work: the compiled stripe of ``lmmx._native`` where a
    kernel can be built, ``_numpy_stripe`` elsewhere.  Both release the GIL
    and write the same exact levels, and neither calls anything that
    ``benchmarks/spans.py`` wraps, since its tracers assume one thread.
    ``_chebyshev_matrix`` resolves ``_native.kernel()`` before the pool
    starts, so here it is a cached lookup.
    """
    kernel = _native.kernel()
    if kernel:
        kernel.chebyshev_stripe(units, dist, i0, min(i0 + _ROWS, units.shape[0]))
    else:
        _numpy_stripe(units, dist, i0)


def _numpy_stripe(units: np.ndarray, dist: np.ndarray, i0: int) -> None:
    """``_stripe`` where no kernel can be built: (_ROWS, _COLS) blocks of max(a, b) - min(a, b)."""
    a = units[i0:i0 + _ROWS, None]
    for j0 in range(i0, units.shape[0], _COLS):
        b = units[None, j0:j0 + _COLS]
        block = (np.maximum(a, b) - np.minimum(a, b)).max(axis=2)
        dist[i0:i0 + _ROWS, j0:j0 + _COLS] = block
        dist[j0:j0 + _COLS, i0:i0 + _ROWS] = block.T


def _pixel_levels(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``points[rows]`` as uint8 pixel levels, or ``DataError`` for an entry off
    the loader's k / PIXEL_LEVELS grid.

    Converts _LEVEL_ROWS rows at a time, so its float64 temporaries are three
    blocks of _LEVEL_ROWS x P (4.8 MB at P = 784) at any row count.
    """
    units = np.empty((rows.size, points.shape[1]), np.uint8)
    for i0 in range(0, rows.size, _LEVEL_ROWS):
        block = points[rows[i0:i0 + _LEVEL_ROWS]]
        levels = np.rint(block * PIXEL_LEVELS)
        if not np.array_equal(levels / PIXEL_LEVELS, block):
            raise DataError(f"the greedy medoid build needs pixels on the k / {PIXEL_LEVELS} grid "
                            f"(k = 0..{PIXEL_LEVELS}), as an archive loads them")
        units[i0:i0 + _LEVEL_ROWS] = levels
    return units


def _chebyshev_matrix(points: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """All pairwise Chebyshev distances of ``points[rows]`` (every row by
    default), in whole pixel levels.

    Every entry must lie on the loader's k / PIXEL_LEVELS grid, as in every
    archive ``load_npz_dataset`` reads; the distances are then an exact
    uint8 matrix, built in stripes of _ROWS rows over the upper triangle,
    each value written with its transpose (``_stripe``).

    The row stripes run on a thread pool of one worker per usable CPU (at
    most one per stripe).  Stripes write disjoint cells of exact uint8
    levels, so the matrix is byte-equal in any order the stripes run and on
    either path of ``_stripe``.  The off-grid check, and the first compile
    or load of the kernel, run before any worker starts; if a stripe raises
    or the caller is interrupted, the stripes not yet started are
    cancelled, and no worker outlives the call.  Memory: the n x n uint8
    result and the n x P uint8 levels, plus ``_pixel_levels``' float64
    blocks (4.8 MB at P = 784) before the pool starts.  The compiled stripe
    allocates nothing; ``_numpy_stripe`` holds 3 * _ROWS * _COLS * P bytes of
    block temporaries per worker (2.4 MB at P = 784) while it runs.
    """
    units = _pixel_levels(points, np.arange(points.shape[0]) if rows is None else rows)
    n = units.shape[0]
    dist = np.empty((n, n), np.uint8)
    _native.kernel()  # compiled or loaded here, not on a pool thread
    starts = range(0, n, _ROWS)
    pool = ThreadPoolExecutor(min(_usable_cpus(), len(starts)))
    try:
        for future in [pool.submit(_stripe, units, dist, i0) for i0 in starts]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return dist


def _greedy_kmedoids(points: np.ndarray, quota: int, rows: np.ndarray | None = None) -> list[int]:
    """Greedy PAM build step under the Chebyshev distance, over ``points[rows]``
    (every row by default); returns positions within those rows.

    Repeatedly adds the point minimizing the summed distance from every
    class member to its nearest chosen medoid.  Ties go to the lowest
    index.  The costs start as the column sums of the n x n uint8
    ``_chebyshev_matrix`` (no medoid yet), and each pick lowers them in
    place: only the rows j whose nearest distance fell change, and column
    c loses min(D[j, c], old_j) - min(D[j, c], new_j) over them.  Every
    cost is a whole number of levels, kept in int64, so it equals the full
    sum over the matrix and equal costs are true ties.

    Memory: the matrix (12 MB at n = 3,494) and what ``_chebyshev_matrix``
    holds while it builds it, then two uint8 row chunks of _UPDATE_CELLS
    cells and one row of uint32 sums per update; no n x n temporary.  The
    matrix is byte-equal on any core count, so the picks are the same on
    any host.
    """
    dist = _chebyshev_matrix(points, rows)
    n = dist.shape[0]
    costs = dist.sum(axis=0, dtype=np.int64)
    nearest = np.full(n, dist.max(), dist.dtype)  # no medoid yet: nothing lies farther
    taken = np.zeros(n, bool)
    chunk = max(1, _UPDATE_CELLS // n)
    chosen: list[int] = []
    for _ in range(quota):
        best = int(np.argmin(np.where(taken, np.iinfo(np.int64).max, costs)))
        chosen.append(best)
        taken[best] = True
        if len(chosen) == quota:
            break
        row = dist[best]  # the row equals the column
        fell = np.flatnonzero(row < nearest)
        for j0 in range(0, fell.size, chunk):
            j = fell[j0:j0 + chunk]
            block = dist[j]
            drop = np.minimum(block, nearest[j, None])
            drop -= np.minimum(block, row[j, None], out=block)  # new <= old: no wraparound
            costs -= drop.sum(axis=0, dtype=np.uint32)  # at most 255 * chunk per column
        np.minimum(nearest, row, out=nearest)
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
            sel = members[_greedy_kmedoids(train.images, quota, members)]
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
    x = require_input(x, medoids.vectors.shape[1])
    dist = np.max(np.abs(medoids.vectors - x[None, :]), axis=1)
    return int(medoids.labels[int(np.argmin(dist))])
