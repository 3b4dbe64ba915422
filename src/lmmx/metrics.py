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

Timing is the mean wall time of one explainer call on each of the first N
images.  Every metric reads the clean images' maps from one pass,
``_clean_maps``; ``compute_report`` makes one such pass per explainer and
gives each map to all three, so a report maps each clean image once.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ParameterError, require_count, require_positive
from .explain import GRAY, ImportanceMap
# batch_logits is unused here, but benchmarks/spans.py wraps it under this name
from .network import (LmmParams, batch_logits, batch_predict, pixel_mins,  # noqa: F401
                      tempered_softmax)


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
    """The explainer's map of ``x``, checked to be an ``ImportanceMap`` of one score per pixel."""
    imap = explainer(params, x)
    if not isinstance(imap, ImportanceMap):
        raise ParameterError(f"explainer returned a {type(imap).__name__}, not an ImportanceMap")
    if imap.scores.shape != x.shape:
        raise DimensionError(f"explainer returned scores of shape {imap.scores.shape} "
                             f"for an image of shape {x.shape}")
    return imap


def _clean_maps(params: LmmParams, explainer, data: Dataset):
    """Yield ``(x, imap, seconds)`` for each image of ``data``: its checked map and the
    wall time of that one explainer call.  The only place a clean image is mapped."""
    if not callable(explainer):
        raise ParameterError(f"explainer must be callable, got a {type(explainer).__name__}")
    for x in data.images:
        start = time.perf_counter()
        imap = _explain(params, explainer, x)
        yield x, imap, time.perf_counter() - start


class _Deletion:
    """Ranked deletion of one image at a time, evaluated only at its cuts."""

    def __init__(self, params: LmmParams, n_pix: int, steps: int):
        steps = require_count(steps, "steps")
        if n_pix != params.n_pixels:  # pixel_mins trusts its caller
            raise DimensionError(f"images have {n_pix} pixels, the model {params.n_pixels}")
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
        return tempered_softmax(logits[1:], params.temperature)[:, target]


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
    deletion = _Deletion(params, data.n_pixels, steps)
    return float(np.mean([deletion.probs(x, imap)
                          for x, imap, _ in _clean_maps(params, explainer, data)]))


def _unit_map(scores: np.ndarray) -> np.ndarray:
    """L2-normalize; a zero map stays zero.  Infinite scores (degenerate fragility maps
    only) are first replaced by the largest finite score, and a nonzero map whose sum of
    squares is not a normal float64 (inf, subnormal or 0, so its norm would overflow or
    lose bits) is first divided by its largest |score|.  The norm is
    ``np.linalg.norm``'s, the root of ``scores.dot(scores)``, so other maps keep their bits."""
    finite = np.isfinite(scores)
    if not finite.all():
        scores = np.where(finite, scores, scores[finite].max() if finite.any() else 0.0)
    with np.errstate(over="ignore", under="ignore"):
        square = scores.dot(scores)
        if not np.isfinite(square) or (square < np.finfo(float).tiny and scores.any()):
            scores = scores / np.abs(scores).max()
            square = scores.dot(scores)
        norm = np.sqrt(square)
        return scores / norm if norm > 0 else np.zeros_like(scores)


class _Stability:
    """Perturbation ratios of one image at a time; image i draws from the i-th of
    ``SeedSequence(seed).spawn(n)``, so an image's ratio does not depend on the others."""

    def __init__(self, sigma: float, m: int, seed: int, n: int):
        self.sigma = require_positive(sigma, "sigma")
        self.ratios = np.empty(require_count(m, "m"))     # scratch, one entry per perturbation
        self.seeds = np.random.SeedSequence(require_count(seed, "seed", 0)).spawn(n)

    def ratio(self, params: LmmParams, explainer, i: int, x: np.ndarray,
              imap: ImportanceMap) -> float:
        """Mean over m perturbations of image ``i`` of the unit map's change over the
        input's; ``imap`` is the map of the clean image ``x``."""
        rng = np.random.default_rng(self.seeds[i])
        base = _unit_map(imap.scores)
        for j in range(self.ratios.size):
            xp = np.clip(x + rng.normal(0.0, self.sigma, x.size), 0.0, 1.0)
            den = float(np.linalg.norm(xp - x))
            if den == 0.0:
                self.ratios[j] = 0.0
                continue
            pert = _unit_map(_explain(params, explainer, xp).scores)
            self.ratios[j] = float(np.linalg.norm(pert - base)) / den
        return float(np.mean(self.ratios))


def stability(params: LmmParams, explainer, data: Dataset, sigma: float = 0.05,
              m: int = 10, seed: int = 0) -> float:
    """Mean ratio of explanation change to input change under noise (see ``_Stability``)."""
    stable = _Stability(sigma, m, seed, data.n_samples)
    return float(np.mean([stable.ratio(params, explainer, i, x, imap) for i, (x, imap, _)
                          in enumerate(_clean_maps(params, explainer, data))]))


def timing(params: LmmParams, explainer, data: Dataset, n: int) -> float:
    """Mean seconds of one checked explainer call over the first ``min(n, N)`` images."""
    n = min(require_count(n, "n"), data.n_samples)
    maps = itertools.islice(_clean_maps(params, explainer, data), n)
    return sum(seconds for _, _, seconds in maps) / n


def compute_report(params: LmmParams, data: Dataset, explainers: dict,
                   steps: int = 28, sigma: float = 0.05, m: int = 10, seed: int = 0,
                   timing_images: int = 20, workers: int = 1) -> MetricsReport:
    """Run every metric for every explainer over one dataset split, in one thread.

    One ``_clean_maps`` pass per explainer feeds the deletion walk, the
    stability base map and the call times, so the values equal ``fidelity``'s,
    ``stability``'s and ``timing``'s (timing's up to clock noise), and no
    call is made for timing alone.  A process's first Shapley call also
    fills the Shapley memo, and the timing counts that fill.

    Every argument is checked before the first map.  ``workers`` must be 1.
    It is kept only because the benchmark passes ``workers=1``, and goes
    when the benchmark stops (ROADMAP item 6).
    """
    if not isinstance(explainers, Mapping) or not all(map(callable, explainers.values())):
        raise ParameterError("explainers must map method names to callable explainers")
    deletion = _Deletion(params, data.n_pixels, steps)
    stable = _Stability(sigma, m, seed, data.n_samples)
    timed = min(require_count(timing_images, "timing_images"), data.n_samples)
    if require_count(workers, "workers") != 1:
        raise ParameterError("workers must be 1: metrics run in one thread")
    confusion = confusion_matrix(params, data)
    report = MetricsReport(confusion, accuracy_from_confusion(confusion))
    for name, explainer in explainers.items():
        probs, ratios, seconds = zip(*[
            (deletion.probs(x, imap), stable.ratio(params, explainer, i, x, imap), spent)
            for i, (x, imap, spent) in enumerate(_clean_maps(params, explainer, data))])
        report.fidelity[name] = float(np.mean(probs))
        report.stability[name] = float(np.mean(ratios))
        report.seconds_per_image[name] = sum(seconds[:timed]) / timed
    return report
