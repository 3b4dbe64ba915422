"""File formats: NPZ ingestion, model round-trips, importance-map export."""

import struct

import numpy as np
import pytest

from lmmx import (DataError, Dataset, DimensionError, FormatError, ImportanceMap, LmmError,
                  LmmParams, ParameterError, export_map, load_model, load_npz_dataset, save_model,
                  synth_dataset)
from lmmx.data import PIXEL_LEVELS
from lmmx.selftest import check_model_roundtrip


def write_archive(path, n=(6, 4, 4), side=5, compressed=False, **overrides):
    rng = np.random.default_rng(0)
    members = {}
    for split, count in zip(("train", "val", "test"), n):
        members[f"{split}_images"] = rng.integers(0, 256, (count, side, side)).astype(np.uint8)
        members[f"{split}_labels"] = rng.integers(0, 2, (count, 1)).astype(np.uint8)
    members.update(overrides)
    saver = np.savez_compressed if compressed else np.savez
    saver(path, **members)
    return members


class TestArchiveLoading:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_round_numbers(self, tmp_path, compressed):
        path = tmp_path / "data.npz"
        members = write_archive(path, compressed=compressed)
        splits = load_npz_dataset(path)
        assert set(splits) == {"train", "val", "test"}
        assert splits["train"].n_samples == 6
        assert splits["val"].n_samples == 4
        assert splits["train"].n_pixels == 25
        # uint8 scaling endpoints and row-major flattening
        img = members["train_images"][0]
        np.testing.assert_array_equal(splits["train"].images[0], img.reshape(-1) / 255.0)

    def test_scaling_endpoints(self, tmp_path):
        path = tmp_path / "data.npz"
        imgs = np.zeros((2, 2, 2), dtype=np.uint8)
        imgs[1] = 255
        write_archive(path, n=(2, 2, 2), side=2,
                      train_images=imgs, train_labels=np.array([[0], [1]], dtype=np.uint8))
        train = load_npz_dataset(path)["train"]
        assert train.images[0].max() == 0.0
        assert train.images[1].min() == 1.0

    def test_missing_member_named(self, tmp_path):
        path = tmp_path / "data.npz"
        members = write_archive(path)
        del members["val_labels"]
        np.savez(path, **members)
        with pytest.raises(FormatError, match="val_labels"):
            load_npz_dataset(path)

    def test_wrong_dtype_named(self, tmp_path):
        path = tmp_path / "data.npz"
        write_archive(path, test_images=np.zeros((4, 5, 5), dtype=np.float32))
        with pytest.raises(FormatError, match="test_images"):
            load_npz_dataset(path)

    def test_wrong_shape_named(self, tmp_path):
        path = tmp_path / "data.npz"
        write_archive(path, train_labels=np.zeros(6, dtype=np.uint8))
        with pytest.raises(FormatError, match="train_labels"):
            load_npz_dataset(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "data.npz"
        write_archive(path, train_labels=np.zeros((3, 1), dtype=np.uint8))
        with pytest.raises(FormatError, match="train"):
            load_npz_dataset(path)

    def test_truncated_archive(self, tmp_path):
        path = tmp_path / "data.npz"
        write_archive(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_npz_dataset(path)

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "data.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(FormatError):
            load_npz_dataset(path)


class TestCorruptFiles:
    """Seeded truncations and bit flips; only LmmError subclasses may escape."""

    @pytest.mark.parametrize("kind", ["model", "stored", "deflated"])
    def test_fuzzed_files_raise_only_lmm_errors(self, tmp_path, kind):
        clean = tmp_path / "clean.npz"
        if kind == "model":
            rng = np.random.default_rng(5)
            save_model(LmmParams(rng.uniform(0.5, 2, 6), rng.normal(0, 1, (6, 2)),
                                 rng.normal(0, 1, (2, 2))), clean)
            loader = load_model
        else:
            write_archive(clean, compressed=kind == "deflated")
            loader = load_npz_dataset
        blob = clean.read_bytes()
        bad = tmp_path / "bad.npz"
        rng = np.random.default_rng(6)
        for trial in range(400):
            damaged = bytearray(blob)
            if trial % 2:
                del damaged[int(rng.integers(0, len(blob))):]
            else:
                for pos, bit in zip(rng.integers(0, len(blob), 3), rng.integers(0, 8, 3)):
                    damaged[pos] ^= 1 << int(bit)
            bad.write_bytes(bytes(damaged))
            try:
                loader(bad)
            except LmmError:
                pass
            except Exception as exc:
                pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc}")


class TestSynthDataset:
    def test_zero_noise_hits_centers(self):
        centers = np.array([[0.1, 0.2], [0.9, 0.8]])
        data = synth_dataset(2, 5, centers, 0.0, seed=0)
        snapped = np.rint(centers * PIXEL_LEVELS) / PIXEL_LEVELS  # 0.1 -> 26/255, 0.2 stays 51/255
        assert np.array_equal(data.images[:5], np.tile(snapped[0], (5, 1)))
        assert np.array_equal(data.images[5:], np.tile(snapped[1], (5, 1)))

    def test_images_round_trip_through_uint8_levels(self):
        data = synth_dataset(16, 70, [np.full(16, 0.3), np.full(16, 0.7)], 0.1, seed=1)
        levels = np.rint(data.images * PIXEL_LEVELS).astype(np.uint8)
        assert np.array_equal(levels.astype(np.float64) / PIXEL_LEVELS, data.images)

    def test_separable_margin(self):
        data = synth_dataset(1, 100, np.array([[0.1], [0.9]]), 0.02, seed=1)
        lo = data.images[data.labels == 0].max()
        hi = data.images[data.labels == 1].min()
        assert hi - lo >= 0.6

    def test_deterministic(self):
        centers = np.array([[0.3, 0.7]])
        a = synth_dataset(2, 10, centers, 0.05, seed=4)
        b = synth_dataset(2, 10, centers, 0.05, seed=4)
        assert np.array_equal(a.images, b.images)

    def test_clipped(self):
        data = synth_dataset(1, 200, np.array([[0.99], [0.01]]), 0.2, seed=2)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    @pytest.mark.parametrize("n_pixels, width", [(2.0, 2), (0, 0)])
    def test_n_pixels_must_be_a_count(self, n_pixels, width):
        with pytest.raises(ParameterError, match="n_pixels"):
            synth_dataset(n_pixels, 2, np.full((2, width), 0.5), 0.1, 0)

    def test_true_counts_as_one_pixel(self):
        assert synth_dataset(True, 2, np.full((2, 1), 0.5), 0.1, 0).images.shape == (4, 1)


class TestDatasetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.5]]), np.array([0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((0, 3)), np.zeros(0))

    def test_rejects_negative_labels(self):
        with pytest.raises(DataError):
            Dataset(np.array([[0.5]]), np.array([-1]))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], ["0", "1"], [0, 1e30], [0, np.nan],
                                        [0, 2 ** 70], np.array([0, 2 ** 64 - 1], np.uint64)])
    def test_rejects_labels_that_are_not_int64_integers(self, labels):
        # fractions used to be truncated and strings parsed; 1e30 escaped as OverflowError
        with pytest.raises(DataError, match="labels must be integers"):
            Dataset(np.zeros((2, 3)), labels)

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0, 1], np.uint8),
                                        np.array([0, 1], np.float32), [False, True]])
    def test_integral_labels_of_any_numeric_dtype_load(self, labels):
        data = Dataset(np.zeros((2, 3)), labels)
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 1]
        with pytest.raises(DataError, match="non-empty"):
            Dataset(np.zeros((0, 3)), np.asarray(labels)[:0])


class TestModelFiles:
    def test_roundtrip_bit_exact(self):
        check_model_roundtrip(seed=3)

    def test_file_size_for_full_network(self, tmp_path):
        params = LmmParams(np.ones(1568), np.zeros((1568, 25)), np.zeros((25, 2)))
        path = tmp_path / "model.lmmp"
        save_model(params, path)
        assert path.stat().st_size == 326568

    def test_unsupported_version(self, tmp_path):
        params = LmmParams(np.ones(2), np.zeros((2, 1)), np.zeros((1, 2)))
        path = tmp_path / "model.lmmp"
        save_model(params, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 2)  # bump the version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 2"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.lmmp"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_truncation(self, tmp_path):
        params = LmmParams(np.ones(4), np.zeros((4, 2)), np.zeros((2, 2)))
        path = tmp_path / "model.lmmp"
        save_model(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_model(path)
        path.write_bytes(blob[:10])
        with pytest.raises(FormatError):
            load_model(path)

    def test_weight_layout(self, tmp_path):
        # column-major by neuron for the min-plus block, row-major for max-plus
        params = LmmParams(
            np.ones(4),
            np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]]),
            np.array([[10.0, 11.0], [12.0, 13.0]]),
        )
        path = tmp_path / "model.lmmp"
        save_model(params, path)
        blob = path.read_bytes()
        w1_bytes = np.frombuffer(blob, dtype="<f8", count=8, offset=24 + 4 * 8)
        assert w1_bytes.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        w2_bytes = np.frombuffer(blob, dtype="<f8", count=4, offset=24 + 12 * 8)
        assert w2_bytes.tolist() == [10.0, 11.0, 12.0, 13.0]


class TestExportMap:
    def read_pgm(self, path):
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        rest = blob[3:]
        header, pixels = rest.split(b"\n255\n", 1)
        w, h = (int(v) for v in header.split())
        return w, h, np.frombuffer(pixels, dtype=np.uint8)

    def test_constant_map_is_midgray(self, tmp_path):
        imap = ImportanceMap(np.full(9, 2.5), "ascending")
        path = tmp_path / "map.pgm"
        export_map(imap, path, "pgm")
        w, h, pix = self.read_pgm(path)
        assert (w, h) == (3, 3)
        assert np.all(pix == 128)

    def test_ascending_minimum_is_brightest(self, tmp_path):
        scores = np.full(9, 4.0)
        scores[4] = 0.5  # most fragile pixel
        imap = ImportanceMap(scores, "ascending")
        path = tmp_path / "map.pgm"
        export_map(imap, path, "pgm")
        _, _, pix = self.read_pgm(path)
        assert pix[4] == 255
        assert np.all(pix[np.arange(9) != 4] == 0)

    def test_descending_uses_magnitude(self, tmp_path):
        imap = ImportanceMap(np.array([-5.0, 3.0, 0.0, 1.0]), "descending")
        path = tmp_path / "map.pgm"
        export_map(imap, path, "pgm")
        _, _, pix = self.read_pgm(path)
        assert pix[0] == 255 and pix[2] == 0

    def test_infinite_scores_map_to_zero(self, tmp_path):
        scores = np.array([np.inf, 1.0, 2.0, np.inf])
        imap = ImportanceMap(scores, "ascending")
        path = tmp_path / "map.pgm"
        export_map(imap, path, "pgm")
        _, _, pix = self.read_pgm(path)
        assert pix[0] == 0 and pix[3] == 0
        assert pix[1] == 255 and pix[2] == 0

    def test_range_beyond_largest_float_keeps_its_ends(self, tmp_path):
        imap = ImportanceMap(np.array([1e308, -1e308, 0.0, 5.0]), "ascending")
        path = tmp_path / "map.pgm"
        export_map(imap, path, "pgm")             # an overflow would fail the suite
        _, _, pix = self.read_pgm(path)
        assert pix.tolist() == [0, 255, 128, 128]

    @pytest.mark.parametrize("scale", [1.0, 1e-310, 8e307])
    def test_finite_range_keeps_the_plain_scaling(self, tmp_path, scale):
        scores = np.random.default_rng(7).uniform(-1, 1, 16) * scale
        path = tmp_path / "map.pgm"
        export_map(ImportanceMap(scores, "ascending"), path, "pgm")
        key = -scores                             # at 8e307 the range is near the largest float
        expected = np.rint((key - key.min()) / (key.max() - key.min()) * 255.0)
        assert self.read_pgm(path)[2].tolist() == expected.astype(np.uint8).tolist()

    def test_non_square_rejected(self, tmp_path):
        imap = ImportanceMap(np.zeros(10), "ascending")
        with pytest.raises(ParameterError):
            export_map(imap, tmp_path / "map.pgm", "pgm")

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    @pytest.mark.parametrize("scores", [3.0, np.zeros((2, 2)), np.zeros(0)],
                             ids=["scalar", "2x2", "empty"])
    def test_scores_not_one_nonempty_row_rejected_before_writing(self, tmp_path, fmt, scores):
        path = tmp_path / f"map.{fmt}"
        with pytest.raises(DimensionError):
            export_map(ImportanceMap(scores, "ascending"), path, fmt)
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        imap = ImportanceMap(np.zeros(4), "ascending")
        with pytest.raises(ParameterError):
            export_map(imap, tmp_path / "map.bin", "png")

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 1, 7)
        scores[3] = np.inf
        imap = ImportanceMap(scores, "ascending")
        path = tmp_path / "map.csv"
        export_map(imap, path, "csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 7
        for i, line in enumerate(lines):
            idx, value = line.split(",")
            assert int(idx) == i
            assert float(value) == scores[i] or (np.isinf(scores[i]) and np.isinf(float(value)))
