"""Minibatch sparse subgradient training and temperature calibration.

Both tropical layers are pure selections, so the subgradient of the
cross-entropy touches at most C entries per weight tensor per sample: for
every class d, the chain runs through the winning hidden neuron of logit d
and that neuron's winning linear branch.  The loss is always computed at
temperature 1; calibration is post hoc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (CalibrationError, DataError, DimensionError, NumericError, ParameterError,
                     require_count, require_floats, require_int64, require_real)
# forward is unused here, but benchmarks/spans.py wraps it under this name
from .network import (SCALE_FLOOR, LmmParams, batch_logits, forward,  # noqa: F401
                      tempered_softmax, tropical_pass)


@dataclass
class TrainConfig:
    """Knobs of the subgradient loop.

    The step size follows eta_t = lr0 / sqrt(1 + lr_decay * t) with t the
    global update counter.  After every update the linear scales are
    clamped to ``SCALE_FLOOR``, the floor every ``LmmParams`` enforces.
    """

    epochs: int = 100
    batch_size: int = 32
    lr0: float = 0.05
    lr_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        self.epochs = require_count(self.epochs, "epochs", 0)
        self.batch_size = require_count(self.batch_size, "batch_size")
        self.seed = require_count(self.seed, "seed", 0)
        self.lr0 = require_real(self.lr0, "lr0")
        self.lr_decay = require_real(self.lr_decay, "lr_decay")
        if self.lr0 <= 0 or self.lr_decay < 0:
            raise ParameterError(f"need lr0 > 0 and lr_decay >= 0, got {self.lr0} and "
                                 f"{self.lr_decay}")


def subgradient(params: LmmParams, images, labels) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of rows (N, P) at temperature 1 and its active-path subgradient.

    Returns ``(loss, g_scales, g_w1, g_w2)``, dense and shaped like the parameters.
    Per row, the residual probs_d - [d == y] reaches only the winning neuron h of
    logit d (W2[h, d]), h's winning branch i (W1[i, h]) and scale i (times +/- x_p
    by the parity of i); tied winners go to the lowest index.
    """
    images = require_floats(images, "images", NumericError)
    labels = require_int64(labels, "labels")
    n = labels.size
    if n == 0 or images.shape != (n, params.n_pixels) or labels.shape != (n,):
        raise DimensionError(f"expected rows (N >= 1, {params.n_pixels}) and labels (N,), "
                             f"got shapes {images.shape} and {labels.shape}")
    if np.any((labels < 0) | (labels >= params.n_classes)):
        raise ParameterError(f"labels outside 0..{params.n_classes - 1}")
    _, _, hidden_argmin, logits, logit_argmax = tropical_pass(params, images)

    with np.errstate(invalid="ignore", over="ignore"):  # caught right below
        m = np.max(logits, axis=1)
        lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
        loss = float(np.mean(lse - logits[np.arange(n), labels]))
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")

    residuals = tempered_softmax(logits, 1.0)
    residuals[np.arange(n), labels] -= 1.0
    residuals /= n  # minibatch mean

    branch = np.take_along_axis(hidden_argmin, logit_argmax, axis=1)    # (n, C)
    sign = np.where(branch % 2 == 0, 1.0, -1.0)
    xsel = np.take_along_axis(images, branch // 2, axis=1)          # the branches' pixels

    g_scales = np.zeros_like(params.scales)
    g_w1 = np.zeros_like(params.minplus_weights)
    g_w2 = np.zeros_like(params.maxplus_weights)
    classes = np.broadcast_to(np.arange(params.n_classes), logit_argmax.shape)
    np.add.at(g_w2, (logit_argmax, classes), residuals)
    np.add.at(g_w1, (branch, logit_argmax), residuals)
    np.add.at(g_scales, branch, residuals * sign * xsel)
    return loss, g_scales, g_w1, g_w2


def _apply_batch(params: LmmParams, images: np.ndarray, labels: np.ndarray, lr: float) -> float:
    """One subgradient step on a minibatch; returns the batch mean loss."""
    loss, g_scales, g_w1, g_w2 = subgradient(params, images, labels)
    params.maxplus_weights -= lr * g_w2
    params.minplus_weights -= lr * g_w1
    params.scales -= lr * g_scales
    np.maximum(params.scales, SCALE_FLOOR, out=params.scales)
    return loss


def _accuracy(params: LmmParams, data: Dataset) -> float:
    pred = np.argmax(batch_logits(params, data.images), axis=1)
    return float(np.mean(pred == data.labels))


def train(params: LmmParams, train_data: Dataset, val_data: Dataset,
          config: TrainConfig) -> tuple[LmmParams, dict]:
    """Run the subgradient loop and keep the best-validation parameters.

    Returns the parameters with the highest validation accuracy seen
    (the initial ones included) and a history dict with per-epoch
    ``train_loss`` (the mean of the epoch's minibatch losses) and
    ``val_accuracy`` lists; the validation split is the only one evaluated.
    """
    for name, data in (("train", train_data), ("val", val_data)):
        if data.n_pixels != params.n_pixels:
            raise DimensionError(f"{name} data has {data.n_pixels} pixels, network expects {params.n_pixels}")
        if data.labels.max() >= params.n_classes:
            raise DataError(f"{name} data has labels >= {params.n_classes}")

    params = params.copy()
    best = params.copy()
    best_acc = _accuracy(params, val_data)
    history = {"train_loss": [], "val_accuracy": []}

    rng = np.random.default_rng(config.seed)
    step = 0
    n = train_data.n_samples
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            lr = config.lr0 / np.sqrt(1.0 + config.lr_decay * step)
            try:
                loss = _apply_batch(params, train_data.images[rows],
                                    train_data.labels[rows], lr)
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, batch {start // config.batch_size})") from exc
            loss_sum += loss * rows.size
            step += 1
        history["train_loss"].append(loss_sum / n)
        val_acc = _accuracy(params, val_data)
        history["val_accuracy"].append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best = params.copy()
    return best, history


def require_target(target, n_classes: int) -> float:
    """``target`` as a float, or ``ParameterError`` unless it lies in (1/n_classes, 1)."""
    if not 1.0 / n_classes < require_real(target, "target") < 1.0:
        raise ParameterError(f"target must lie in (1/{n_classes}, 1), got {target}")
    return float(target)


def calibrate_temperature(params: LmmParams, data: Dataset, target: float = 0.8) -> float:
    """Find T so the mean predicted-class probability hits ``target``.

    Mean confidence is monotone decreasing in T, so bisection on log T over
    [-20, 20] is valid; the result is stored in ``params.temperature``.
    """
    target = require_target(target, params.n_classes)
    logits = batch_logits(params, data.images)

    def mean_confidence(log_t: float) -> float:
        # softmax is monotone, so the row max is the predicted class's probability
        return float(np.mean(np.max(tempered_softmax(logits, float(np.exp(log_t))), axis=1)))

    lo, hi = -20.0, 20.0
    tol = 1e-4
    if mean_confidence(lo) < target - tol:
        raise CalibrationError(
            f"target {target} unreachable: confidence tops out at {mean_confidence(lo):.6f}")
    if mean_confidence(hi) > target + tol:
        raise CalibrationError(
            f"target {target} unreachable: confidence bottoms out at {mean_confidence(hi):.6f}")

    log_t = 0.0
    for _ in range(200):
        log_t = 0.5 * (lo + hi)
        conf = mean_confidence(log_t)
        if abs(conf - target) <= tol:
            break
        if conf > target:
            lo = log_t  # too sharp: raise the temperature
        else:
            hi = log_t
    else:
        raise CalibrationError("bisection failed to reach the target confidence")
    temperature = float(np.exp(log_t))
    params.temperature = temperature
    return temperature
