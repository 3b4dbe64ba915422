"""Classification quality and explanation-quality metrics.

Explainers are passed as callables ``(params, x) -> ImportanceMap``.

Deletion fidelity follows the clean image's predicted class: pixels are
replaced by gray (``lmmx.explain.GRAY``, the attributions' baseline) in
ranking order, ``steps`` equal increments, and the calibrated
predicted-class probability is averaged over images and increments.
Lower is better; a value near the calibration target means the ranking
never found the decisive pixels.

Stability is a normalized local Lipschitz ratio: the mean, over Gaussian
input perturbations, of the change of the unit-normalized importance map
divided by the change of the input.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ParameterError, require_count, require_real
from .explain import GRAY
# batch_logits is unused here, but benchmarks/spans.py wraps it under this name
from .network import (LmmParams, PixelWalk, batch_logits, batch_predict,  # noqa: F401
                      pixel_mins, softmax_rows)


@dataclass
class MetricsReport:
    """Confusion/accuracy plus per-explainer fidelity, stability, timing."""

    confusion: np.ndarray
    accuracy: float
    fidelity: dict = field(default_factory=dict)
    stability: dict = field(default_factory=dict)
    seconds_per_image: dict = field(default_factory=dict)

    def key_value_lines(self) -> list[str]:
        """Machine-readable ``metric.method = value`` lines."""
        lines = [f"accuracy = {self.accuracy:.6f}"]
        n = self.confusion.shape[0]
        for i in range(n):
            for j in range(n):
                lines.append(f"confusion.{i}.{j} = {int(self.confusion[i, j])}")
        for metric, table in (("fidelity", self.fidelity),
                              ("stability", self.stability),
                              ("seconds_per_image", self.seconds_per_image)):
            for method, value in table.items():
                lines.append(f"{metric}.{method} = {value:.6f}")
        return lines

    def format_table(self) -> str:
        """Human-readable summary table."""
        rows = [f"accuracy: {self.accuracy:.4f}",
                "confusion (rows true, cols predicted):"]
        for row in self.confusion:
            rows.append("  " + "  ".join(f"{int(v):6d}" for v in row))
        if self.fidelity:  # compute_report fills the three tables with the same methods
            width = max(len(m) for m in self.fidelity)
            rows.append(f"  {'method'.ljust(width)}  {'fidelity':>9}  {'stability':>9}  {'s/image':>9}")
            for m in self.fidelity:
                cells = (self.fidelity[m], self.stability[m], self.seconds_per_image[m])
                rows.append(f"  {m.ljust(width)}  " + "  ".join(f"{v:9.4f}" for v in cells))
        return "\n".join(rows)


def confusion_matrix(params: LmmParams, data: Dataset) -> np.ndarray:
    """Counts indexed (true, predicted); prediction ignores temperature."""
    n = params.n_classes
    if data.labels.max() >= n:
        raise DataError(f"{data.split or 'dataset'} labels reach {data.labels.max()}, "
                        f"but the model has {n} classes")
    predicted = batch_predict(params, data.images)
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (data.labels, predicted), 1)
    return counts


def accuracy_from_confusion(confusion: np.ndarray) -> float:
    return float(np.trace(confusion) / confusion.sum())


def _map_images(fn, n_images: int, workers: int) -> list:
    """Apply a pure per-image function, optionally on a small thread pool.

    Results are collected by image index, so the outcome does not depend
    on the schedule.  ``workers`` is a count its callers have checked.
    """
    if workers <= 1:
        return [fn(i) for i in range(n_images)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_images)))


def fidelity(params: LmmParams, explainer, data: Dataset, steps: int = 28,
             workers: int = 1) -> float:
    """Mean calibrated predicted-class probability under ranked deletion.

    Deleting pixels in ranking order is a ``PixelWalk`` from the image to
    the gray image, read at the cuts k * P // steps for k = 1..steps; the
    logits are bit-equal to ``batch_logits`` on the partially grayed images.
    """
    steps = require_count(steps, "steps")
    workers = require_count(workers, "workers")
    n_pix = data.n_pixels
    at_gray = pixel_mins(params, np.full(n_pix, GRAY))
    states = np.arange(steps + 1) * n_pix // steps          # the clean image, then each cut

    def per_image(i: int) -> np.ndarray:
        x = data.images[i]
        rank = explainer(params, x).ranking()
        if rank.shape != (n_pix,):
            raise DimensionError(f"explainer ranked {rank.size} pixels, expected {n_pix}")
        walk = PixelWalk(params.n_hidden, n_pix)
        hidden = walk.hidden(pixel_mins(params, x), at_gray, rank)[:, states]   # (H1, steps + 1)
        logits = np.max(hidden.T[:, :, None] + params.maxplus_weights, axis=1)
        target = int(np.argmax(logits[0]))
        probs = softmax_rows(logits[1:], params.temperature)
        return probs[:, target]

    values = _map_images(per_image, data.n_samples, workers)
    return float(np.mean(np.concatenate(values)))


def _unit_map(scores: np.ndarray) -> np.ndarray:
    """L2-normalize; a zero map stays zero.

    Non-finite scores (possible only for degenerate fragility maps) are
    replaced by the largest finite score before normalizing.
    """
    v = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        finite = v[np.isfinite(v)]
        v = np.where(np.isfinite(v), v, finite.max() if finite.size else 0.0)
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else np.zeros_like(v)


def stability(params: LmmParams, explainer, data: Dataset, sigma: float = 0.05,
              m: int = 10, seed: int = 0, workers: int = 1) -> float:
    """Mean ratio of explanation change to input change under noise."""
    sigma = require_real(sigma, "sigma")
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    m = require_count(m, "m")
    seed = require_count(seed, "seed", 0)
    workers = require_count(workers, "workers")
    n_pix = data.n_pixels
    # one independent, index-keyed stream per image so the schedule cannot
    # change the draws
    seeds = np.random.SeedSequence(seed).spawn(data.n_samples)

    def per_image(i: int) -> float:
        rng = np.random.default_rng(seeds[i])
        x = data.images[i]
        base = _unit_map(explainer(params, x).scores)
        ratios = np.empty(m)
        for j in range(m):
            xp = np.clip(x + rng.normal(0.0, sigma, n_pix), 0.0, 1.0)
            den = float(np.linalg.norm(xp - x))
            if den == 0.0:
                ratios[j] = 0.0
                continue
            pert = _unit_map(explainer(params, xp).scores)
            ratios[j] = float(np.linalg.norm(pert - base)) / den
        return float(np.mean(ratios))

    return float(np.mean(_map_images(per_image, data.n_samples, workers)))


def timing(params: LmmParams, explainer, data: Dataset, n: int) -> float:
    """Mean wall-clock seconds per importance map, single-threaded."""
    n = require_count(n, "n")
    n = min(n, data.n_samples)
    start = time.perf_counter()
    for i in range(n):
        explainer(params, data.images[i])
    return (time.perf_counter() - start) / n


def compute_report(params: LmmParams, data: Dataset, explainers: dict,
                   steps: int = 28, sigma: float = 0.05, m: int = 10, seed: int = 0,
                   timing_images: int = 20, workers: int = 1) -> MetricsReport:
    """Run every metric for every explainer over one dataset split."""
    workers = require_count(workers, "workers")
    confusion = confusion_matrix(params, data)
    report = MetricsReport(confusion, accuracy_from_confusion(confusion))
    for name, explainer in explainers.items():
        report.fidelity[name] = fidelity(params, explainer, data, steps, workers)
        report.stability[name] = stability(params, explainer, data, sigma, m, seed, workers)
        report.seconds_per_image[name] = timing(params, explainer, data, timing_images)
    return report
