"""Classification quality and explanation-quality metrics.

Explainers are passed as callables ``(params, x) -> ImportanceMap``; every
map must hold one score per pixel of ``x``.

Deletion fidelity follows the clean image's predicted class: pixels are
replaced by gray (``lmmx.explain.GRAY``, the attributions' baseline) in
ranking order, ``steps`` equal increments, and the calibrated
predicted-class probability is averaged over images and increments.
Lower is better; a value near the calibration target means the ranking
never found the decisive pixels.

Stability is a normalized local Lipschitz ratio: the mean, over Gaussian
input perturbations, of the change of the unit-normalized importance map
divided by the change of the input.

``compute_report`` maps each clean image once per explainer and gives that
map to both metrics; its timing is the mean wall time of the first N of
those clean maps (``lmmx metrics --timing-n``), not of extra calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ParameterError, require_count, require_real
from .explain import GRAY, ImportanceMap
# batch_logits is unused here, but benchmarks/spans.py wraps it under this name
from .network import (LmmParams, batch_logits, batch_predict, pixel_mins,  # noqa: F401
                      softmax_rows)


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


def _explain(params: LmmParams, explainer, x: np.ndarray) -> ImportanceMap:
    """The explainer's map of ``x``, checked to hold one score per pixel."""
    imap = explainer(params, x)
    if imap.scores.shape != x.shape:
        raise DimensionError(f"explainer returned scores of shape {imap.scores.shape} "
                             f"for an image of shape {x.shape}")
    return imap


class _Deletion:
    """Ranked deletion of one image at a time, evaluated only at its cuts."""

    def __init__(self, params: LmmParams, n_pix: int, steps: int):
        self.params = params
        self.at_gray = pixel_mins(params, np.full(n_pix, GRAY))
        cuts = np.arange(steps + 1) * n_pix // steps       # the clean image, then each cut
        self.cuts, self.states = np.unique(cuts, return_inverse=True)

    def probs(self, x: np.ndarray, imap: ImportanceMap) -> np.ndarray:
        """Calibrated probability of the clean image's predicted class at each cut, (steps,)."""
        params = self.params
        rank = imap.ranking()
        starts = self.cuts[:-1]              # the ranking's segments between distinct cuts
        image = np.minimum.reduceat(pixel_mins(params, x)[:, rank], starts, axis=1)
        gray = np.minimum.reduceat(self.at_gray[:, rank], starts, axis=1)
        grayed = np.full((params.n_hidden, self.cuts.size), np.inf)   # segments before each cut
        np.minimum.accumulate(gray, axis=1, out=grayed[:, 1:])
        kept = np.full((params.n_hidden, self.cuts.size), np.inf)     # segments from each cut on
        np.minimum.accumulate(image[:, ::-1], axis=1, out=kept[:, -2::-1])
        hidden = np.minimum(grayed, kept)[:, self.states]             # (H1, steps + 1)
        logits = np.max(hidden.T[:, :, None] + params.maxplus_weights, axis=1)
        target = int(np.argmax(logits[0]))
        return softmax_rows(logits[1:], params.temperature)[:, target]


def fidelity(params: LmmParams, explainer, data: Dataset, steps: int = 28) -> float:
    """Mean calibrated predicted-class probability under ranked deletion.

    Deleting pixels in ranking order walks from the image to the gray
    image; it is read at the cuts k * P // steps for k = 1..steps.  Between
    two distinct cuts the ranking's segment takes one min per neuron for
    each input's ``pixel_mins`` (``np.minimum.reduceat``), and the hidden
    layer at a cut is the min of the gray segments before it and the image
    segments from it on.  Cuts that repeat (steps > P) read one state.  The
    logits are bit-equal to ``batch_logits`` on the partially grayed images.
    """
    steps = require_count(steps, "steps")
    deletion = _Deletion(params, data.n_pixels, steps)
    probs = np.empty((data.n_samples, steps))
    for i, x in enumerate(data.images):
        probs[i] = deletion.probs(x, _explain(params, explainer, x))
    return float(np.mean(probs))


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


def _stability_args(sigma, m, seed) -> tuple[float, int, int]:
    sigma = require_real(sigma, "sigma")
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    return sigma, require_count(m, "m"), require_count(seed, "seed", 0)


def _perturbed_ratio(params: LmmParams, explainer, x: np.ndarray, imap: ImportanceMap,
                     rng: np.random.Generator, sigma: float, ratios: np.ndarray) -> float:
    """Mean over ``ratios.size`` perturbations of the unit map's change over the input's.

    ``imap`` is the map of the clean image ``x``; ``ratios`` is scratch space.
    """
    base = _unit_map(imap.scores)
    for j in range(ratios.size):
        xp = np.clip(x + rng.normal(0.0, sigma, x.size), 0.0, 1.0)
        den = float(np.linalg.norm(xp - x))
        if den == 0.0:
            ratios[j] = 0.0
            continue
        pert = _unit_map(_explain(params, explainer, xp).scores)
        ratios[j] = float(np.linalg.norm(pert - base)) / den
    return float(np.mean(ratios))


def stability(params: LmmParams, explainer, data: Dataset, sigma: float = 0.05,
              m: int = 10, seed: int = 0) -> float:
    """Mean ratio of explanation change to input change under noise.

    Image i's perturbations are drawn from the i-th of
    ``SeedSequence(seed).spawn(n)``: the report's stability lines depend on
    exactly these draws.
    """
    sigma, m, seed = _stability_args(sigma, m, seed)
    seeds = np.random.SeedSequence(seed).spawn(data.n_samples)
    means = np.empty(data.n_samples)
    ratios = np.empty(m)
    for i, x in enumerate(data.images):
        means[i] = _perturbed_ratio(params, explainer, x, _explain(params, explainer, x),
                                    np.random.default_rng(seeds[i]), sigma, ratios)
    return float(np.mean(means))


def timing(params: LmmParams, explainer, data: Dataset, n: int) -> float:
    """Mean wall-clock seconds per importance map, single-threaded; each map is checked."""
    n = require_count(n, "n")
    n = min(n, data.n_samples)
    start = time.perf_counter()
    for i in range(n):
        _explain(params, explainer, data.images[i])
    return (time.perf_counter() - start) / n


def compute_report(params: LmmParams, data: Dataset, explainers: dict,
                   steps: int = 28, sigma: float = 0.05, m: int = 10, seed: int = 0,
                   timing_images: int = 20, workers: int = 1) -> MetricsReport:
    """Run every metric for every explainer over one dataset split, in one thread.

    Each explainer maps each clean image once.  That map feeds both the
    deletion walk of ``fidelity`` and the base map of ``stability``, so both
    values equal those functions' own, and ``seconds_per_image`` is the mean
    wall time of the first ``min(timing_images, n)`` of these calls: no
    call is made for timing alone.  A process's first Shapley call also
    draws its seed's memoized permutations, so it counts that fill.

    Every argument is checked before the first map.  ``workers`` must be 1.
    It is kept only because the benchmark passes ``workers=1``, and goes
    when the benchmark stops (ROADMAP item 6).
    """
    steps = require_count(steps, "steps")
    sigma, m, seed = _stability_args(sigma, m, seed)
    timed = min(require_count(timing_images, "timing_images"), data.n_samples)
    if require_count(workers, "workers") != 1:
        raise ParameterError("workers must be 1: metrics run in one thread")
    confusion = confusion_matrix(params, data)
    report = MetricsReport(confusion, accuracy_from_confusion(confusion))
    deletion = _Deletion(params, data.n_pixels, steps)
    seeds = np.random.SeedSequence(seed).spawn(data.n_samples)     # as in stability
    probs = np.empty((data.n_samples, steps))
    means = np.empty(data.n_samples)
    ratios = np.empty(m)
    for name, explainer in explainers.items():
        seconds = 0.0
        for i, x in enumerate(data.images):
            start = time.perf_counter()
            imap = _explain(params, explainer, x)
            if i < timed:
                seconds += time.perf_counter() - start
            probs[i] = deletion.probs(x, imap)
            means[i] = _perturbed_ratio(params, explainer, x, imap,
                                        np.random.default_rng(seeds[i]), sigma, ratios)
        report.fidelity[name] = float(np.mean(probs))
        report.stability[name] = float(np.mean(means))
        report.seconds_per_image[name] = seconds / timed
    return report
