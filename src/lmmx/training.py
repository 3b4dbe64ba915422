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
from .errors import CalibrationError, DataError, DimensionError, NumericError, ParameterError
from .network import (LmmParams, batch_logits, forward, softmax_rows, softmax_with_temperature,
                      tropical_pass)


@dataclass
class TrainConfig:
    """Knobs of the subgradient loop.

    The step size follows eta_t = lr0 / sqrt(1 + lr_decay * t) with t the
    global update counter.  ``k_min`` is the positive floor the linear
    scales are clamped to after every update.
    """

    epochs: int = 100
    batch_size: int = 32
    lr0: float = 0.05
    lr_decay: float = 1e-3
    seed: int = 0
    k_min: float = 1e-6
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.lr0 <= 0:
            raise ParameterError("lr0 must be > 0")
        if self.lr_decay < 0:
            raise ParameterError("lr_decay must be >= 0")
        if self.k_min <= 0:
            raise ParameterError("k_min must be > 0")


@dataclass
class SparseGrad:
    """Subgradient of the cross-entropy at one sample.

    Per class d: ``residuals[d]`` (= probs_d - [d == y]) is the coefficient
    on max-plus entry (hidden_winner[d], d) and on min-plus entry
    (branch_winner[d], hidden_winner[d]); ``scale_coeff[d]`` (= residual
    times +/- x_p, sign by branch parity) is the coefficient on the scale
    entry branch_winner[d].  Everything else is zero.
    """

    hidden_winner: np.ndarray  # (C,) int
    branch_winner: np.ndarray  # (C,) int
    residuals: np.ndarray      # (C,) float
    scale_coeff: np.ndarray    # (C,) float

    def add_to(self, g_scales: np.ndarray, g_w1: np.ndarray, g_w2: np.ndarray) -> None:
        """Accumulate into dense gradient buffers."""
        classes = np.arange(self.residuals.size)
        np.add.at(g_w2, (self.hidden_winner, classes), self.residuals)
        np.add.at(g_w1, (self.branch_winner, self.hidden_winner), self.residuals)
        np.add.at(g_scales, self.branch_winner, self.scale_coeff)

    def as_dense(self, params: LmmParams):
        """Dense (g_scales, g_w1, g_w2) arrays, mostly zeros."""
        g_scales = np.zeros_like(params.scales)
        g_w1 = np.zeros_like(params.minplus_weights)
        g_w2 = np.zeros_like(params.maxplus_weights)
        self.add_to(g_scales, g_w1, g_w2)
        return g_scales, g_w1, g_w2


def cross_entropy(params: LmmParams, x, y: int) -> float:
    """Negative log-probability of class y at temperature 1."""
    y = int(y)
    if not 0 <= y < params.n_classes:
        raise ParameterError(f"label {y} outside 0..{params.n_classes - 1}")
    z = forward(params, x).logits
    m = np.max(z)
    return float(m + np.log(np.sum(np.exp(z - m))) - z[y])


def sparse_subgradient(params: LmmParams, x, y: int) -> SparseGrad:
    """Subgradient of ``cross_entropy`` through the active paths.

    At kinks (tied winners) the lowest-index winner recorded by ``forward``
    defines the subgradient.
    """
    y = int(y)
    if not 0 <= y < params.n_classes:
        raise ParameterError(f"label {y} outside 0..{params.n_classes - 1}")
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x)
    residuals = softmax_with_temperature(trace.logits, 1.0)
    residuals[y] -= 1.0

    hidden_winner = trace.logit_argmax.copy()
    branch_winner = trace.hidden_argmin[hidden_winner]
    pixel = branch_winner // 2
    sign = np.where(branch_winner % 2 == 0, 1.0, -1.0)
    scale_coeff = residuals * sign * x[pixel]
    return SparseGrad(hidden_winner, branch_winner, residuals, scale_coeff)


def _apply_batch(params: LmmParams, images: np.ndarray, labels: np.ndarray,
                 lr: float, k_min: float) -> float:
    """One subgradient step on a minibatch; returns the batch mean loss."""
    n = images.shape[0]
    _, _, hidden_argmin, logits, logit_argmax = tropical_pass(params, images)

    with np.errstate(invalid="ignore", over="ignore"):  # caught right below
        m = np.max(logits, axis=1)
        lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
        loss = float(np.mean(lse - logits[np.arange(n), labels]))
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")

    residuals = softmax_rows(logits, 1.0)
    residuals[np.arange(n), labels] -= 1.0
    residuals /= n  # minibatch mean

    branch = np.take_along_axis(hidden_argmin, logit_argmax, axis=1)    # (n, C)
    pixel = branch // 2
    sign = np.where(branch % 2 == 0, 1.0, -1.0)
    xsel = np.take_along_axis(images, pixel, axis=1)

    g_scales = np.zeros_like(params.scales)
    g_w1 = np.zeros_like(params.minplus_weights)
    g_w2 = np.zeros_like(params.maxplus_weights)
    classes = np.broadcast_to(np.arange(params.n_classes), logit_argmax.shape)
    np.add.at(g_w2, (logit_argmax, classes), residuals)
    np.add.at(g_w1, (branch, logit_argmax), residuals)
    np.add.at(g_scales, branch, residuals * sign * xsel)

    params.maxplus_weights -= lr * g_w2
    params.minplus_weights -= lr * g_w1
    params.scales -= lr * g_scales
    np.maximum(params.scales, k_min, out=params.scales)
    return loss


def _accuracy(params: LmmParams, data: Dataset) -> float:
    pred = np.argmax(batch_logits(params, data.images), axis=1)
    return float(np.mean(pred == data.labels))


def train(params: LmmParams, train_data: Dataset, val_data: Dataset,
          config: TrainConfig) -> tuple[LmmParams, dict]:
    """Run the subgradient loop and keep the best-validation parameters.

    Returns the parameters with the highest validation accuracy seen
    (the initial ones included) and a history dict with per-epoch
    ``train_loss``, ``train_accuracy`` and ``val_accuracy`` lists.
    """
    for name, data in (("train", train_data), ("val", val_data)):
        if data.n_pixels != params.n_pixels:
            raise DimensionError(f"{name} data has {data.n_pixels} pixels, network expects {params.n_pixels}")
        if data.labels.max() >= params.n_classes:
            raise DataError(f"{name} data has labels >= {params.n_classes}")

    params = params.copy()
    best = params.copy()
    best_acc = _accuracy(params, val_data)
    history = {"train_loss": [], "train_accuracy": [], "val_accuracy": []}

    rng = np.random.default_rng(config.seed)
    step = 0
    n = train_data.n_samples
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            lr = config.lr0 / np.sqrt(1.0 + config.lr_decay * step)
            try:
                loss = _apply_batch(params, train_data.images[rows],
                                    train_data.labels[rows], lr, config.k_min)
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, batch {start // config.batch_size})") from exc
            loss_sum += loss * rows.size
            step += 1
        history["train_loss"].append(loss_sum / n)
        history["train_accuracy"].append(_accuracy(params, train_data))
        val_acc = _accuracy(params, val_data)
        history["val_accuracy"].append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best = params.copy()
    return best, history


def calibrate_temperature(params: LmmParams, data: Dataset, target: float = 0.8) -> float:
    """Find T so the mean predicted-class probability hits ``target``.

    Mean confidence is monotone decreasing in T, so bisection on log T over
    [-20, 20] is valid; the result is stored in ``params.temperature``.
    """
    n_cls = params.n_classes
    if not 1.0 / n_cls < target < 1.0:
        raise ParameterError(f"target must lie in (1/{n_cls}, 1), got {target}")
    logits = batch_logits(params, data.images)
    predicted = np.argmax(logits, axis=1)
    rows = np.arange(logits.shape[0])

    def mean_confidence(log_t: float) -> float:
        probs = softmax_rows(logits, float(np.exp(log_t)))
        return float(np.mean(probs[rows, predicted]))

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
