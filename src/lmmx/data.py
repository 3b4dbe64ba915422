"""Dataset ingestion, synthetic data, model serialization, map export.

On-disk formats owned by this module:

  * dataset archives: ZIP of NPY members ``{train,val,test}_{images,labels}``
    with uint8 images of shape (N, H, W) and uint8 labels of shape (N, 1)
    (the MedMNIST convention); pixels are scaled to [0, 1] on load;
  * model files (``.lmmp``): little-endian, magic ``LMMP``, u16 version,
    u32 P, u32 H1, u16 C, f64 temperature, then f64 arrays: scales (2P),
    min-plus weights (2P*H1, column-major by neuron), max-plus weights
    (H1*C, row-major by neuron);
  * importance-map exports: binary PGM (P5) heatmaps or CSV of raw scores.
"""

from __future__ import annotations

import math
import struct
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DimensionError, FormatError, LmmError, ParameterError,
                     require_count, require_floats, require_int64, require_real)
from .explain import ImportanceMap
from .network import LmmParams

MODEL_MAGIC = b"LMMP"
MODEL_VERSION = 1
_HEADER = struct.Struct("<4sHIIHd")  # magic, version, P, H1, C, temperature

_SPLITS = ("train", "val", "test")
PIXEL_LEVELS = 255  # a uint8 pixel k loads as k / PIXEL_LEVELS

# What zipfile and numpy raise on a damaged archive: bad headers, members that fail to
# inflate (zlib.error, EOFError) or claim an unsupported method, version or encryption.
_ARCHIVE_ERRORS = (ValueError, OSError, EOFError, RuntimeError, zlib.error, zipfile.BadZipFile)


@dataclass
class Dataset:
    """Flattened images in [0,1]^P with integer class labels."""

    images: np.ndarray  # (N, P) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64, >= 0
    split: str = ""

    def __post_init__(self):
        self.images = require_floats(self.images, "images", DataError)
        self.labels = require_int64(self.labels, "labels").reshape(-1)
        if self.images.ndim != 2 or 0 in self.images.shape:
            raise DataError(f"images must be a non-empty (N, P) matrix, got shape {self.images.shape}")
        if self.labels.shape[0] != self.images.shape[0]:
            raise DataError("images and labels disagree on sample count")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise DataError("pixel values must lie in [0, 1]")
        if self.labels.min() < 0:
            raise DataError("labels must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.images.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.images.shape[1]


def _read_member(archive: zipfile.ZipFile, member: str) -> np.ndarray:
    name = member + ".npy"
    if name not in archive.namelist():
        raise FormatError(f"archive is missing member '{member}'")
    try:
        with archive.open(name) as fh:
            return np.lib.format.read_array(fh, allow_pickle=False)
    except _ARCHIVE_ERRORS as exc:
        raise FormatError(f"member '{member}' is not a valid NPY array: {exc}") from exc


def load_npz_dataset(path) -> dict[str, Dataset]:
    """Load train/val/test splits from a MedMNIST-style NPZ archive.

    Every member is read and validated before any Dataset is built, so a
    bad archive never yields a partial result.
    """
    try:
        archive = zipfile.ZipFile(path)
    except _ARCHIVE_ERRORS as exc:
        raise FormatError(f"cannot open dataset archive {path}: {exc}") from exc

    raw = {}
    with archive:
        for split in _SPLITS:
            for kind in ("images", "labels"):
                member = f"{split}_{kind}"
                arr = _read_member(archive, member)
                if arr.dtype != np.uint8:
                    raise FormatError(f"member '{member}' must be uint8, got {arr.dtype}")
                if kind == "images" and arr.ndim != 3:
                    raise FormatError(f"member '{member}' must have shape (N, H, W), got {arr.shape}")
                if kind == "labels" and (arr.ndim != 2 or arr.shape[1] != 1):
                    raise FormatError(f"member '{member}' must have shape (N, 1), got {arr.shape}")
                raw[member] = arr

    out = {}
    for split in _SPLITS:
        images = raw[f"{split}_images"]
        labels = raw[f"{split}_labels"]
        if images.shape[0] != labels.shape[0]:
            raise FormatError(
                f"members '{split}_images' and '{split}_labels' disagree on sample count"
            )
        flat = images.reshape(images.shape[0], -1).astype(np.float64) / PIXEL_LEVELS
        out[split] = Dataset(flat, labels, split=split)
    return out


def synth_dataset(n_pixels: int, n_per_class: int, centers, noise_sigma: float,
                  seed: int, split: str = "synthetic") -> Dataset:
    """Gaussian blobs around per-class centers, clipped to [0, 1] and rounded to k / PIXEL_LEVELS."""
    n_per_class = require_count(n_per_class, "n_per_class")
    noise_sigma = require_real(noise_sigma, "noise_sigma")
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be >= 0")
    seed = require_count(seed, "seed", 0)
    n_pixels = require_count(n_pixels, "n_pixels")
    centers = require_floats(centers, "centers", ParameterError)
    if centers.ndim != 2 or centers.shape[1] != n_pixels:
        raise DimensionError(f"centers must have shape (C, {n_pixels}), got {centers.shape}")
    if centers.min() < 0.0 or centers.max() > 1.0:
        raise ParameterError("centers must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    images = []
    labels = []
    for c, center in enumerate(centers):
        block = center[None, :] + rng.normal(0.0, noise_sigma, size=(n_per_class, n_pixels))
        images.append(np.rint(np.clip(block, 0.0, 1.0) * PIXEL_LEVELS) / PIXEL_LEVELS)
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.vstack(images), np.concatenate(labels), split=split)


def save_model(params: LmmParams, path) -> None:
    """Write a model file; see the module docstring for the layout."""
    header = _HEADER.pack(
        MODEL_MAGIC,
        MODEL_VERSION,
        params.n_pixels,
        params.n_hidden,
        params.n_classes,
        params.temperature,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(params.scales, dtype="<f8").tobytes())
        fh.write(params.minplus_weights.astype("<f8").tobytes(order="F"))
        fh.write(params.maxplus_weights.astype("<f8").tobytes(order="C"))


def load_model(path) -> LmmParams:
    """Read a model file written by ``save_model``; round-trip is bit-exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("model file truncated: header incomplete")
    magic, version, n_pix, n_hid, n_cls, temperature = _HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r}, not an LMMP model file")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model file version {version} (supported: {MODEL_VERSION})")
    counts = (2 * n_pix, 2 * n_pix * n_hid, n_hid * n_cls)
    expected = _HEADER.size + 8 * sum(counts)
    if len(blob) != expected:
        raise FormatError(f"model file has {len(blob)} bytes, expected {expected}")
    offset = _HEADER.size
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64))
        offset += 8 * count
    scales, w1_flat, w2_flat = arrays
    try:
        return LmmParams(
            scales,
            w1_flat.reshape((2 * n_pix, n_hid), order="F"),
            w2_flat.reshape((n_hid, n_cls), order="C"),
            temperature,
        )
    except LmmError as exc:
        raise FormatError(f"model file holds invalid parameters: {exc}") from exc


def export_map(imap, path, fmt: str) -> None:
    """Export an importance map as a PGM heatmap or a CSV of raw scores.

    PGM: square maps only; the most important pixel renders as 255
    (lighter = more important), non-finite scores as 0, and a constant map
    as mid-gray 128.  CSV: one ``index,score`` row per pixel with scores at
    17 significant digits so float64 values round-trip.  Scores must be one
    non-empty row; anything else is a ``DimensionError``, and no file is
    opened.
    """
    if not isinstance(imap, ImportanceMap):
        raise ParameterError(f"can only export an ImportanceMap, got a {type(imap).__name__}")
    scores = imap.scores
    if scores.ndim != 1 or scores.size == 0:
        raise DimensionError(f"can only export one non-empty row of scores, got shape {scores.shape}")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(scores):
                fh.write(f"{i},{s:.17g}\n")
        return
    if fmt != "pgm":
        raise ParameterError(f"unknown export format '{fmt}' (expected 'pgm' or 'csv')")

    side = math.isqrt(scores.size)
    if side * side != scores.size:
        raise ParameterError(f"PGM export needs a square pixel count, got {scores.size}")
    key = imap.importance()
    finite = np.isfinite(key)
    out = np.zeros(scores.size, dtype=np.uint8)
    if finite.any():
        kf = key[finite]
        lo, hi = kf.min(), kf.max()
        if hi == lo:
            out[finite] = 128
        else:
            with np.errstate(over="ignore"):   # a range beyond the largest float64 is halved
                s = 0.5 if np.isinf(hi - lo) else 1.0
            out[finite] = np.rint((kf * s - lo * s) / (hi * s - lo * s) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{side} {side}\n255\n".encode("ascii"))
        fh.write(out.tobytes())
