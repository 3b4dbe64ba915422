"""The argument contract: a malformed argument ends in a typed ``LmmError``.

One fixed list of junk values goes to every scalar argument of the public
API (and ``softmax_rows``), and junk built from a valid value (strings, a
ragged list, a NaN entry, a wrong rank, ...) to every public array
argument.  Each call may succeed, where the value happens to be valid, or
raise an ``LmmError`` subclass; any other exception is an escape.
"""

import math

import numpy as np

from lmmx import (Dataset, ImportanceMap, LmmError, LmmParams, MedoidSet, TrainConfig,
                  batch_logits, batch_predict, calibrate_temperature, compute_report, export_map,
                  fidelity, forward, init_params, integrated_gradients, linear_layer,
                  nearest_medoid_predict, pixel_fragility, select_medoids, shapley_sampling,
                  stability, subgradient, synth_dataset, timing)
from lmmx.network import softmax_rows

JUNK = (0, -1, 2.5, 3.0, math.nan, math.inf, True, "3", None)

_PARAMS = LmmParams(np.array([1.0, 0.5, 0.75, 1.0]), np.array([[0.0, 0.25], [0.5, -0.25],
                                                               [0.25, 0.0], [-0.5, 0.5]]),
                    np.array([[1.0, -1.0], [-1.0, 1.0]]))
# pixels on the k/255 grid, so the greedy medoid build accepts them
_DATA = Dataset(np.array([[64, 191], [128, 0], [255, 64], [191, 255]]) / 255,
                np.array([0, 0, 1, 1]), "test")
_MEDOIDS = MedoidSet(_DATA.images[[0, 2]], np.array([0, 1]), np.array([0, 2]))
_CENTERS = np.array([[0.25, 0.75], [0.75, 0.25]])
_X = _DATA.images[0]


def _report(**junk):
    settings = {"steps": 2, "m": 1, "timing_images": 1, **junk}
    return compute_report(_PARAMS, _DATA, {"fragility": pixel_fragility}, **settings)


# argument -> call with the junk value there and small valid values elsewhere
ARGUMENTS = {
    "LmmParams.temperature": lambda v: LmmParams(_PARAMS.scales, _PARAMS.minplus_weights,
                                                 _PARAMS.maxplus_weights, v),
    "Dataset.split": lambda v: Dataset(_DATA.images, _DATA.labels, v),
    "ImportanceMap.ordering": lambda v: ImportanceMap(np.zeros(2), v),
    "TrainConfig.epochs": lambda v: TrainConfig(epochs=v),
    "TrainConfig.batch_size": lambda v: TrainConfig(batch_size=v),
    "TrainConfig.lr0": lambda v: TrainConfig(lr0=v),
    "TrainConfig.lr_decay": lambda v: TrainConfig(lr_decay=v),
    "TrainConfig.seed": lambda v: TrainConfig(seed=v),
    "synth_dataset.n_pixels": lambda v: synth_dataset(v, 2, _CENTERS, 0.1, 0),
    "synth_dataset.n_per_class": lambda v: synth_dataset(2, v, _CENTERS, 0.1, 0),
    "synth_dataset.noise_sigma": lambda v: synth_dataset(2, 2, _CENTERS, v, 0),
    "synth_dataset.seed": lambda v: synth_dataset(2, 2, _CENTERS, 0.1, v),
    "export_map.fmt": lambda v: export_map(ImportanceMap(np.zeros(4), "ascending"), "unused", v),
    "select_medoids.n_medoids": lambda v: select_medoids(_DATA, v),
    "select_medoids.strategy": lambda v: select_medoids(_DATA, 2, v),
    "select_medoids.seed": lambda v: select_medoids(_DATA, 2, "random", v),
    "init_params.k0": lambda v: init_params(_MEDOIDS, v),
    "calibrate_temperature.target": lambda v: calibrate_temperature(_PARAMS.copy(), _DATA, v),
    "softmax_rows.temperature": lambda v: softmax_rows(np.array([[1.0, 0.0]]), v),
    "integrated_gradients.steps": lambda v: integrated_gradients(_PARAMS, _X, steps=v),
    "shapley_sampling.permutations": lambda v: shapley_sampling(_PARAMS, _X, permutations=v),
    "shapley_sampling.seed": lambda v: shapley_sampling(_PARAMS, _X, permutations=2, seed=v),
    "fidelity.steps": lambda v: fidelity(_PARAMS, pixel_fragility, _DATA, steps=v),
    "stability.sigma": lambda v: stability(_PARAMS, pixel_fragility, _DATA, sigma=v, m=1),
    "stability.m": lambda v: stability(_PARAMS, pixel_fragility, _DATA, m=v),
    "stability.seed": lambda v: stability(_PARAMS, pixel_fragility, _DATA, m=1, seed=v),
    "timing.n": lambda v: timing(_PARAMS, pixel_fragility, _DATA, v),
    "compute_report.steps": lambda v: _report(steps=v),
    "compute_report.sigma": lambda v: _report(sigma=v),
    "compute_report.m": lambda v: _report(m=v),
    "compute_report.seed": lambda v: _report(seed=v),
    "compute_report.timing_images": lambda v: _report(timing_images=v),
    "compute_report.workers": lambda v: _report(workers=v),
}


def test_junk_scalars_end_in_typed_errors():
    escapes = []
    for argument, call in ARGUMENTS.items():
        for value in JUNK:
            try:
                call(value)
            except LmmError:
                pass
            except Exception as exc:  # the escape this test looks for
                escapes.append(f"{argument}={value!r}: {type(exc).__name__}: {exc}")
    assert escapes == [], "\n".join(escapes)


def _array_junk(valid):
    """Malformed stand-ins for the array argument ``valid``."""
    valid = np.asarray(valid, dtype=np.float64)
    with_nan = valid.copy()
    with_nan.flat[0] = math.nan
    return ("ab", ["0.5", "x"], [[0.5, 0.5], [0.5]], [None] * valid.size, with_nan,
            valid[None], valid.ravel()[0], np.zeros(valid.shape + (2,)), None)


def _params(**arrays):
    weights = {"scales": _PARAMS.scales, "minplus_weights": _PARAMS.minplus_weights,
               "maxplus_weights": _PARAMS.maxplus_weights, **arrays}
    return LmmParams(**weights)


# argument -> (a valid value, call with the junk value there and valid values elsewhere)
ARRAY_ARGUMENTS = {
    "LmmParams.scales": (_PARAMS.scales, lambda v: _params(scales=v)),
    "LmmParams.minplus_weights": (_PARAMS.minplus_weights,
                                  lambda v: _params(minplus_weights=v)),
    "LmmParams.maxplus_weights": (_PARAMS.maxplus_weights,
                                  lambda v: _params(maxplus_weights=v)),
    "Dataset.images": (_DATA.images, lambda v: Dataset(v, _DATA.labels)),
    "Dataset.labels": (_DATA.labels, lambda v: Dataset(_DATA.images, v)),
    "MedoidSet.vectors": (_MEDOIDS.vectors,
                          lambda v: MedoidSet(v, _MEDOIDS.labels, _MEDOIDS.source_indices)),
    "MedoidSet.labels": (_MEDOIDS.labels,
                         lambda v: MedoidSet(_MEDOIDS.vectors, v, _MEDOIDS.source_indices)),
    "MedoidSet.source_indices": (_MEDOIDS.source_indices,
                                 lambda v: MedoidSet(_MEDOIDS.vectors, _MEDOIDS.labels, v)),
    "ImportanceMap.scores": (np.zeros(2), lambda v: ImportanceMap(v, "ascending")),
    "linear_layer.x": (_X, lambda v: linear_layer(_PARAMS, v)),
    "forward.x": (_X, lambda v: forward(_PARAMS, v)),
    "batch_logits.images": (_DATA.images, lambda v: batch_logits(_PARAMS, v)),
    "batch_predict.images": (_DATA.images, lambda v: batch_predict(_PARAMS, v)),
    "nearest_medoid_predict.x": (_X, lambda v: nearest_medoid_predict(_MEDOIDS, v)),
    "pixel_fragility.x": (_X, lambda v: pixel_fragility(_PARAMS, v)),
    "integrated_gradients.x": (_X, lambda v: integrated_gradients(_PARAMS, v, steps=2)),
    "shapley_sampling.x": (_X, lambda v: shapley_sampling(_PARAMS, v, permutations=2)),
    "subgradient.images": (_DATA.images, lambda v: subgradient(_PARAMS, v, _DATA.labels)),
    "subgradient.labels": (_DATA.labels, lambda v: subgradient(_PARAMS, _DATA.images, v)),
    "synth_dataset.centers": (_CENTERS, lambda v: synth_dataset(2, 2, v, 0.1, 0)),
}


def test_junk_arrays_end_in_typed_errors():
    escapes = []
    for argument, (valid, call) in ARRAY_ARGUMENTS.items():
        for value in _array_junk(valid):
            try:
                call(value)
            except LmmError:
                pass
            except Exception as exc:  # the escape this test looks for
                escapes.append(f"{argument}={value!r}: {type(exc).__name__}: {exc}")
    assert escapes == [], "\n".join(escapes)


def test_nan_entries_are_rejected():
    # a NaN must never pass as a value: every array argument refuses it
    accepted = []
    for argument, (valid, call) in ARRAY_ARGUMENTS.items():
        with_nan = np.asarray(valid, dtype=np.float64).copy()
        with_nan.flat[0] = math.nan
        try:
            call(with_nan)
        except LmmError:
            continue
        accepted.append(argument)
    assert accepted == []
