"""The argument contract: a malformed scalar argument ends in a typed ``LmmError``.

One fixed list of junk values goes to every scalar argument of the public
API (and ``softmax_rows``).  Each call may succeed, where the value happens
to be valid, or raise an ``LmmError`` subclass; any other exception is an
escape.  Worker counts come only from this list, never from a range: a
large count would start that many threads.
"""

import math

import numpy as np

from lmmx import (Dataset, ImportanceMap, LmmError, LmmParams, MedoidSet, TrainConfig,
                  calibrate_temperature, compute_report, export_map, fidelity, init_params,
                  integrated_gradients, pixel_fragility, select_medoids, shapley_sampling,
                  stability, synth_dataset, timing)
from lmmx.network import softmax_rows

JUNK = (0, -1, 2.5, 3.0, math.nan, math.inf, True, "3", None)

_PARAMS = LmmParams(np.array([1.0, 0.5, 0.75, 1.0]), np.array([[0.0, 0.25], [0.5, -0.25],
                                                               [0.25, 0.0], [-0.5, 0.5]]),
                    np.array([[1.0, -1.0], [-1.0, 1.0]]))
_DATA = Dataset(np.array([[0.25, 0.75], [0.5, 0.0], [1.0, 0.25], [0.75, 1.0]]),
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
    "fidelity.workers": lambda v: fidelity(_PARAMS, pixel_fragility, _DATA, steps=2, workers=v),
    "stability.sigma": lambda v: stability(_PARAMS, pixel_fragility, _DATA, sigma=v, m=1),
    "stability.m": lambda v: stability(_PARAMS, pixel_fragility, _DATA, m=v),
    "stability.seed": lambda v: stability(_PARAMS, pixel_fragility, _DATA, m=1, seed=v),
    "stability.workers": lambda v: stability(_PARAMS, pixel_fragility, _DATA, m=1, workers=v),
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
