"""Seeded synthetic chest-X-ray archive in the MedMNIST NPZ layout.

The archive has PneumoniaMNIST's shape and class counts: uint8 images of
shape (N, 28, 28) and uint8 labels of shape (N, 1), split 1214/3494 train,
135/389 val and 234/390 test (class 0 normal, class 1 pneumonia).  Pixels
are rounded to multiples of 1/255, so distance ties occur as on real images.

Each image is a smooth body-and-lungs template with a random exposure
offset and pixel noise.  Pneumonia images add a faint opacity over the lungs
and are noisier.  Under the Chebyshev distance a noisy pneumonia image sits
closer to a clean normal medoid than to a noisy pneumonia one, so the
nearest-medoid initialization misclassifies most pneumonia images; a few
epochs of training shift the per-neuron biases and fix most of them.  The
task is therefore not solved by the initialization, and training moves the
test accuracy.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
PAPER_COUNTS = {"train": (1214, 3494), "val": (135, 389), "test": (234, 390)}
TINY_COUNTS = {"train": (24, 40), "val": (8, 12), "test": (8, 12)}

OPACITY = 0.08        # mean lung brightening of pneumonia images
NOISE = (0.03, 0.08)  # pixel noise sigma per class
EXPOSURE = 0.02       # sigma of the per-image brightness offset


def _template() -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE] / (SIDE - 1)
    body = 0.75 - 0.35 * ((xx - 0.5) ** 2 + (yy - 0.55) ** 2)
    lungs = np.zeros((SIDE, SIDE))
    for cx in (0.3, 0.7):
        ellipse = 1.0 - ((xx - cx) / 0.17) ** 2 - ((yy - 0.5) / 0.3) ** 2
        lungs = np.maximum(lungs, np.sqrt(np.clip(ellipse, 0.0, None)))
    return body - 0.4 * lungs, lungs


def make_split(rng: np.random.Generator, n_normal: int, n_pneumonia: int):
    """Shuffled (images, labels) of one split, uint8, MedMNIST shapes."""
    base, lungs = _template()
    labels = np.repeat(np.array([0, 1], dtype=np.uint8), [n_normal, n_pneumonia])
    labels = labels[rng.permutation(labels.size)]
    n = labels.size
    y = labels[:, None, None].astype(np.float64)
    sigma = np.where(y == 1, NOISE[1], NOISE[0])
    images = (base[None] + rng.normal(0.0, EXPOSURE, (n, 1, 1)) + y * OPACITY * lungs[None]
              + sigma * rng.standard_normal((n, SIDE, SIDE)))
    images = np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    return images, labels[:, None]


def write_archive(path, seed: int, counts=PAPER_COUNTS) -> None:
    """Write the archive for ``seed``; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    members = {}
    for split, (n_normal, n_pneumonia) in counts.items():
        images, labels = make_split(rng, n_normal, n_pneumonia)
        members[f"{split}_images"] = images
        members[f"{split}_labels"] = labels
    np.savez(path, **members)
