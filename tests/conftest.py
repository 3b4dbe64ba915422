"""Shared fixtures: synthetic trained models and the optional real dataset.

The chest-X-ray archive is not bundled; tests that need it look for
``$LMMX_PNEUMONIA_NPZ`` or ``data/pneumoniamnist.npz`` under the repo root
and are skipped with a notice when neither exists.
"""

import os
import time

import numpy as np
import pytest

from lmmx import (Dataset, TrainConfig, calibrate_temperature, init_params, load_npz_dataset,
                  select_medoids, synth_dataset, train)
from lmmx.data import PIXEL_LEVELS

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pneumonia_archive_path():
    candidates = []
    env = os.environ.get("LMMX_PNEUMONIA_NPZ")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(_REPO_ROOT, "data", "pneumoniamnist.npz"))
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


@pytest.fixture(scope="session")
def pneumonia_splits():
    path = pneumonia_archive_path()
    if path is None:
        pytest.skip("PneumoniaMNIST archive not found (set LMMX_PNEUMONIA_NPZ "
                    "or place data/pneumoniamnist.npz)")
    return load_npz_dataset(path)


@pytest.fixture(scope="session")
def pneumonia_model(pneumonia_splits):
    """Default-configuration model: 25 hidden neurons, greedy medoid init."""
    medoids = select_medoids(pneumonia_splits["train"], 25, "greedy-kmedoids", seed=0)
    params = init_params(medoids, 1.0)
    start = time.perf_counter()
    params, history = train(params, pneumonia_splits["train"], pneumonia_splits["val"],
                            TrainConfig())
    elapsed = time.perf_counter() - start
    calibrate_temperature(params, pneumonia_splits["val"], 0.8)
    return {"params": params, "history": history, "train_seconds": elapsed}


@pytest.fixture(scope="session")
def gapped_task():
    """Factory of a separable one-pixel task that the medoid init gets wrong.

    ``gapped_task(seed)`` returns (train, val), 100 images per class each:
    class 0 uniform on [0.1, 0.3], class 1 on [0.4, 1.0], rounded to the
    k / PIXEL_LEVELS grid that the greedy medoid build needs.  One medoid per
    class puts the nearest-medoid boundary midway between them, near 0.45,
    so the init misclassifies the class-1 images below it on both splits;
    only training can move the boundary into the gap.
    """
    def make(seed):
        rng = np.random.default_rng(seed)

        def split(name):
            x = np.concatenate([rng.uniform(0.1, 0.3, 100), rng.uniform(0.4, 1.0, 100)])
            x = np.rint(x * PIXEL_LEVELS) / PIXEL_LEVELS
            return Dataset(x[:, None], np.repeat([0, 1], 100), split=name)

        return split("train"), split("val")

    return make


def make_image_task(seed=0, n_pixels=16, n_per_class=80, noise=0.08):
    """Binary blob task on 4x4 images with several informative pixels."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.35, 0.65, n_pixels)
    c0 = base.copy()
    c1 = base.copy()
    informative = rng.choice(n_pixels, size=4, replace=False)
    c0[informative] = 0.15
    c1[informative] = 0.85
    centers = np.stack([c0, c1])
    return {
        "train": synth_dataset(n_pixels, n_per_class, centers, noise, seed=seed + 1, split="train"),
        "val": synth_dataset(n_pixels, n_per_class // 2, centers, noise, seed=seed + 2, split="val"),
        "test": synth_dataset(n_pixels, n_per_class // 2, centers, noise, seed=seed + 3, split="test"),
        "informative": informative,
    }


@pytest.fixture(scope="session")
def synth_model():
    """Small trained and calibrated binary classifier on 4x4 images."""
    task = make_image_task()
    medoids = select_medoids(task["train"], 6, "greedy-kmedoids", seed=0)
    params = init_params(medoids, 1.0)
    config = TrainConfig(epochs=30, batch_size=16, lr0=0.05, seed=0)
    params, history = train(params, task["train"], task["val"], config)
    calibrate_temperature(params, task["val"], 0.8)
    return {"params": params, "task": task, "history": history}
