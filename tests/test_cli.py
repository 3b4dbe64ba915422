"""End-to-end CLI runs on a tiny archive: subcommands, exit codes, determinism."""

import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmmx
from lmmx import _native, selftest
from lmmx.cli import METHODS, _make_explainer, run
from lmmx import (TrainConfig, confusion_matrix, init_params, select_medoids, synth_dataset,
                  train)
from lmmx.data import _HEADER, load_model, load_npz_dataset
from lmmx.medoids import _chebyshev_matrix
from lmmx.metrics import accuracy_from_confusion, compute_report


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory):
    """Two-class 6x6 image task, sized for fast CLI end-to-end runs."""
    rng = np.random.default_rng(0)
    side = 6
    base = rng.integers(80, 120, (side, side))
    dark = base.copy()
    dark[1:3, 1:5] = 20
    bright = base.copy()
    bright[1:3, 1:5] = 230

    def split(n, seed):
        r = np.random.default_rng(seed)
        images = np.empty((2 * n, side, side), dtype=np.uint8)
        labels = np.empty((2 * n, 1), dtype=np.uint8)
        for i in range(2 * n):
            c = i % 2
            noisy = (dark if c == 0 else bright) + r.integers(-15, 16, (side, side))
            images[i] = np.clip(noisy, 0, 255).astype(np.uint8)
            labels[i] = c
        return images, labels

    path = tmp_path_factory.mktemp("cli") / "tiny.npz"
    members = {}
    for name, n, seed in (("train", 40, 1), ("val", 10, 2), ("test", 10, 3)):
        members[f"{name}_images"], members[f"{name}_labels"] = split(n, seed)
    np.savez(path, **members)
    return str(path)


@pytest.fixture(scope="module")
def trained_model(tiny_archive, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("model") / "tiny.lmmp")
    code = run(["train", "--data", tiny_archive, "--h1", "4", "--epochs", "8",
                "--batch", "16", "--lr0", "0.05", "--seed", "0", "--out", out])
    assert code == 0
    return out


def command_args(command, model, archive, out):
    """Shortest valid argument list of a subcommand on the tiny archive."""
    if command == "train":
        return ["train", "--data", archive, "--h1", "4", "--epochs", "1", "--out", out]
    if command == "explain":
        return ["explain", "--model", model, "--data", archive, "--index", "0",
                "--method", "shapley", "--permutations", "2", "--out", out]
    return ["metrics", "--model", model, "--data", archive, "--methods", "fragility",
            "--steps", "2", "--m", "1", "--out", out]


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lmmx.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def strip_timing(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("seconds_per_image."))


class TestTrain:
    def test_deterministic_model_bytes(self, tiny_archive, tmp_path):
        outs = []
        for name in ("a.lmmp", "b.lmmp"):
            out = str(tmp_path / name)
            code = run(["train", "--data", tiny_archive, "--h1", "4", "--epochs", "3",
                        "--batch", "16", "--lr0", "0.05", "--seed", "7", "--out", out])
            assert code == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("strategy", ["random", "greedy-kmedoids"])
    def test_medoid_quota_fits_small_classes(self, tmp_path, strategy):
        # 7 medoids over class sizes 1/1/5: every sample becomes a distinct neuron
        rng = np.random.default_rng(3)
        path = tmp_path / "skewed.npz"
        labels = np.array([[0], [1], [2], [2], [2], [2], [2]], dtype=np.uint8)
        np.savez(path, **{f"{name}_{kind}": member
                          for name in ("train", "val", "test")
                          for kind, member in (("images", rng.integers(0, 256, (7, 3, 3),
                                                                        dtype=np.uint8)),
                                               ("labels", labels))})
        out = tmp_path / "m.lmmp"
        code = run(["train", "--data", str(path), "--h1", "7", "--strategy", strategy,
                    "--epochs", "1", "--seed", "0", "--out", str(out)])
        assert code == 0
        hidden = load_model(str(out)).minplus_weights.T
        assert len(np.unique(hidden, axis=0)) == 7

    @pytest.mark.parametrize("epochs", ["2", "0"])
    def test_prints_the_saved_models_val_accuracy(self, tmp_path, capsys, epochs):
        # at lr0 = 50 both epochs score 0.5 on val, so train keeps the initial
        # medoid model, which scores 1.0
        centers = np.array([np.full(16, 0.2), np.full(16, 0.8)])
        members = {}
        for name, seed in (("train", 1), ("val", 2), ("test", 3)):
            data = synth_dataset(16, 40 if name == "train" else 20, centers, 0.2, seed, name)
            members[f"{name}_images"] = np.rint(data.images * 255).astype(np.uint8).reshape(-1, 4, 4)
            members[f"{name}_labels"] = data.labels[:, None].astype(np.uint8)
        path, out = tmp_path / "blobs.npz", tmp_path / "m.lmmp"
        np.savez(path, **members)
        splits = load_npz_dataset(path)
        medoids = select_medoids(splits["train"], 4, "greedy-kmedoids", 0)
        history = train(init_params(medoids, 1.0), splits["train"], splits["val"],
                        TrainConfig(epochs=2, lr0=50.0))[1]
        assert history["val_accuracy"] == [0.5, 0.5]
        code = run(["train", "--data", str(path), "--h1", "4", "--k0", "1", "--lr0", "50",
                    "--epochs", epochs, "--seed", "0", "--out", str(out)])
        assert code == 0
        saved = accuracy_from_confusion(confusion_matrix(load_model(str(out)), splits["val"]))
        assert saved == 1.0
        assert f"trained {epochs} epochs; best val accuracy 1.0000\n" in capsys.readouterr().out

    def test_missing_archive_is_data_error(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "nope.npz"), "--out",
                    str(tmp_path / "m.lmmp")])
        assert code == 2


class TestEvaluate:
    def test_prints_all_splits(self, trained_model, tiny_archive, capsys):
        assert run(["evaluate", "--model", trained_model, "--data", tiny_archive]) == 0
        out = capsys.readouterr().out
        for split in ("train", "val", "test"):
            assert f"{split}: accuracy" in out

    def test_accuracy_is_high_on_separable_task(self, trained_model, tiny_archive, capsys):
        run(["evaluate", "--model", trained_model, "--data", tiny_archive])
        out = capsys.readouterr().out
        test_line = [l for l in out.splitlines() if l.startswith("test:")][0]
        assert float(test_line.split()[-1]) >= 0.9

    def test_corrupt_model_is_format_error(self, tiny_archive, tmp_path):
        bad = tmp_path / "bad.lmmp"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert run(["evaluate", "--model", str(bad), "--data", tiny_archive]) == 2

    @pytest.mark.parametrize("defect", ["nan-temperature", "scale-below-floor", "no-hidden"])
    def test_invalid_parameters_are_format_errors(self, trained_model, tiny_archive, tmp_path,
                                                  defect):
        blob = bytearray(Path(trained_model).read_bytes())
        magic, version, n_pix, n_hid, n_cls, temperature = _HEADER.unpack_from(blob)
        if defect == "nan-temperature":
            _HEADER.pack_into(blob, 0, magic, version, n_pix, n_hid, n_cls, float("nan"))
        elif defect == "scale-below-floor":
            blob[_HEADER.size:_HEADER.size + 8] = np.float64(0.0).tobytes()
        else:  # H1 = 0: the file ends after the scales
            blob = blob[:_HEADER.size + 8 * 2 * n_pix]
            _HEADER.pack_into(blob, 0, magic, version, n_pix, 0, n_cls, temperature)
        bad = tmp_path / "bad.lmmp"
        bad.write_bytes(bytes(blob))
        assert run(["evaluate", "--model", str(bad), "--data", tiny_archive]) == 2

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    def test_labels_beyond_model_classes_are_data_errors(self, trained_model, tiny_archive,
                                                         tmp_path, command):
        with np.load(tiny_archive) as archive:
            members = dict(archive)
        members["test_labels"][0] = 2
        data = str(tmp_path / "three_labels.npz")
        np.savez(data, **members)
        args = [command, "--model", trained_model, "--data", data]
        if command == "metrics":
            args += ["--methods", "fragility", "--out", str(tmp_path / "report.txt")]
        assert run(args) == 2

    def test_zero_pixel_images_are_data_errors(self, trained_model, tiny_archive, tmp_path,
                                               capsys):
        with np.load(tiny_archive) as archive:
            members = dict(archive)
        members["test_images"] = members["test_images"][:, :0]    # (N, 0, W)
        data = str(tmp_path / "zero_pixels.npz")
        np.savez(data, **members)
        assert run(["evaluate", "--model", trained_model, "--data", data]) == 2
        assert capsys.readouterr().err.count("error:") == 1

    def test_damaged_deflate_member_is_format_error(self, trained_model, tiny_archive, tmp_path):
        with np.load(tiny_archive) as archive:
            members = dict(archive)
        data = tmp_path / "deflated.npz"
        np.savez_compressed(data, **members)
        blob = bytearray(data.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", blob, 26)  # first local file header
        blob[30 + name_len + extra_len] ^= 0xFF  # first byte of that member's deflate stream
        data.write_bytes(bytes(blob))
        assert run(["evaluate", "--model", trained_model, "--data", str(data)]) == 2


class TestExplain:
    @pytest.mark.parametrize("method", ["fragility", "intgrad", "shapley"])
    def test_writes_square_pgm(self, trained_model, tiny_archive, tmp_path, method):
        out = tmp_path / f"{method}.pgm"
        code = run(["explain", "--model", trained_model, "--data", tiny_archive,
                    "--index", "0", "--method", method, "--permutations", "20",
                    "--out", str(out)])
        assert code == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n6 6\n255\n")
        assert len(blob) == len(b"P5\n6 6\n255\n") + 36

    def test_csv_sidecar(self, trained_model, tiny_archive, tmp_path):
        out = tmp_path / "map.pgm"
        csv = tmp_path / "map.csv"
        code = run(["explain", "--model", trained_model, "--data", tiny_archive,
                    "--index", "1", "--method", "fragility", "--out", str(out),
                    "--csv", str(csv)])
        assert code == 0
        assert len(csv.read_text().strip().splitlines()) == 36

    def test_out_of_range_index_is_usage_error(self, trained_model, tiny_archive, tmp_path):
        code = run(["explain", "--model", trained_model, "--data", tiny_archive,
                    "--index", "999", "--method", "fragility",
                    "--out", str(tmp_path / "x.pgm")])
        assert code == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_explainers_survive_pickling(self, method):
        # worker processes under any start method receive their explainer pickled
        rng = np.random.default_rng(12)
        params = selftest.random_params(rng, 9, 4, 2)
        x = rng.uniform(0.0, 1.0, 9)
        explainer = _make_explainer(method, seed=3, ig_steps=7, permutations=11)
        clone = pickle.loads(pickle.dumps(explainer))
        assert clone(params, x).scores.tobytes() == explainer(params, x).scores.tobytes()


class TestMetrics:
    def test_report_written_and_deterministic(self, trained_model, tiny_archive, tmp_path):
        reports = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            code = run(["metrics", "--model", trained_model, "--data", tiny_archive,
                        "--methods", "fragility,intgrad", "--steps", "6", "--m", "2",
                        "--seed", "5", "--out", str(out)])
            assert code == 0
            reports.append(out.read_text())
        assert strip_timing(reports[0]) == strip_timing(reports[1])
        assert "fidelity.fragility = " in reports[0]
        assert "stability.intgrad = " in reports[0]
        assert "accuracy = " in reports[0]

    def test_limit_caps_images(self, trained_model, tiny_archive, tmp_path):
        out = tmp_path / "lim.txt"
        code = run(["metrics", "--model", trained_model, "--data", tiny_archive,
                    "--methods", "fragility", "--steps", "4", "--m", "1",
                    "--limit", "4", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        counts = [int(line.split(" = ")[1]) for line in text.splitlines()
                  if line.startswith("confusion.")]
        assert sum(counts) == 4

    def test_timing_averages_every_clean_map(self, trained_model, tiny_archive, tmp_path,
                                             monkeypatch):
        timed = []

        def spy(*args, **kwargs):
            timed.append(kwargs["timing_images"])
            return compute_report(*args, **kwargs)

        monkeypatch.setattr("lmmx.cli.compute_report", spy)
        args = command_args("metrics", trained_model, tiny_archive, str(tmp_path / "r.txt"))
        assert run(args + ["--split", "train"]) == 0
        assert timed == [80]     # every train image, not a default prefix

    def test_unknown_method_is_usage_error(self, trained_model, tiny_archive, tmp_path):
        code = run(["metrics", "--model", trained_model, "--data", tiny_archive,
                    "--methods", "gradcam", "--out", str(tmp_path / "r.txt")])
        assert code == 1

    def test_unknown_method_is_usage_error_before_loading(self, tiny_archive, tmp_path):
        code = run(["metrics", "--model", str(tmp_path / "missing.lmmp"), "--data", tiny_archive,
                    "--methods", "gradcam", "--out", str(tmp_path / "r.txt")])
        assert code == 1     # not 2 for the missing model

    @pytest.mark.parametrize("methods", ["", " , ", "fragility,fragility",
                                         "fragility, intgrad,fragility"])
    def test_empty_or_repeated_methods_are_usage_errors_before_loading(
            self, trained_model, tiny_archive, tmp_path, monkeypatch, methods):
        def no_load(*args, **kwargs):
            pytest.fail("the model was loaded before --methods was checked")

        monkeypatch.setattr("lmmx.cli.load_model", no_load)
        out = tmp_path / "r.txt"
        args = command_args("metrics", trained_model, tiny_archive, str(out))
        args[args.index("--methods") + 1] = methods
        assert run(args) == 1
        assert not out.exists()


class TestDeterminism:
    def test_train_then_metrics_repeat_byte_for_byte(self, tiny_archive, tmp_path):
        # the tiny archive is uint8, so the greedy build takes the exact pixel-level path
        assert _chebyshev_matrix(load_npz_dataset(tiny_archive)["train"].images).dtype == np.uint8
        runs = []
        for name in ("a", "b"):
            model, report = tmp_path / f"{name}.lmmp", tmp_path / f"{name}.txt"
            assert run(["train", "--data", tiny_archive, "--h1", "4",
                        "--strategy", "greedy-kmedoids", "--epochs", "3", "--batch", "16",
                        "--seed", "7", "--out", str(model)]) == 0
            assert run(["metrics", "--model", str(model), "--data", tiny_archive,
                        "--methods", "fragility,intgrad,shapley", "--steps", "4", "--m", "2",
                        "--permutations", "5", "--seed", "5", "--out", str(report)]) == 0
            runs.append((model.read_bytes(), strip_timing(report.read_text())))
        assert runs[0] == runs[1]


# Perturbs the forward oracle, then expects both the check and ``lmmx selftest`` to fail.
_PERTURBED_SELFTEST = """
import sys
import lmmx.selftest as selftest
from lmmx import selftest
from lmmx.cli import run

if not sys.flags.optimize:
    sys.exit("expected python -O")
exact = selftest.brute_forward

def off_by_one(*args):
    trace = exact(*args)
    return trace._replace(logits=trace.logits + 1.0)

selftest.brute_forward = off_by_one
try:
    selftest.check_forward_oracle(trials=2)
except AssertionError:
    sys.exit(run(["selftest"]))
sys.exit("check_forward_oracle accepted a perturbed oracle")
"""


class TestUsageAndSelftest:
    def test_unknown_flag(self):
        assert run(["train", "--bogus", "x"]) == 1

    def test_unknown_subcommand(self):
        assert run(["paint"]) == 1

    def test_no_arguments(self):
        assert run([]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("command", ["train", "explain", "metrics"])
    def test_negative_seed_is_usage_error(self, trained_model, tiny_archive, tmp_path, command):
        args = command_args(command, trained_model, tiny_archive, str(tmp_path / "out"))
        assert run(args + ["--seed", "-1"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--k0", "nan"), ("train", "--k0", "inf"), ("train", "--lr0", "nan"),
        ("train", "--lr0", "inf"), ("train", "--lr-decay", "nan"), ("metrics", "--sigma", "nan")])
    def test_non_finite_flag_is_usage_error(self, trained_model, tiny_archive, tmp_path,
                                            command, flag, value):
        args = command_args(command, trained_model, tiny_archive, str(tmp_path / "out"))
        assert run(args + [flag, value]) == 1

    @pytest.mark.parametrize("command, flag", [("train", "--out"), ("metrics", "--out"),
                                               ("metrics", "--model")])
    def test_directory_path_is_data_error(self, trained_model, tiny_archive, tmp_path,
                                          command, flag):
        args = command_args(command, trained_model, tiny_archive, str(tmp_path / "out"))
        args[args.index(flag) + 1] = str(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "lmmx.cli", *args], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    @pytest.mark.parametrize("command", ["train", "metrics"])
    def test_unwritable_out_fails_before_any_work(self, trained_model, tiny_archive, tmp_path,
                                                  monkeypatch, capsys, command, where):
        def no_work(*args, **kwargs):
            pytest.fail("work started before --out was checked")

        monkeypatch.setattr("lmmx.cli.select_medoids", no_work)
        monkeypatch.setattr("lmmx.cli.compute_report", no_work)
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out"
        assert run(command_args(command, trained_model, tiny_archive, str(out))) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_csv_fails_before_any_work(self, trained_model, tiny_archive, tmp_path,
                                                  monkeypatch, where):
        def no_work(*args, **kwargs):
            pytest.fail("the map was computed before --csv was checked")

        monkeypatch.setattr("lmmx.cli.shapley_sampling", no_work)
        out = tmp_path / "map.pgm"
        kept = tmp_path / "kept.pgm"
        kept.write_bytes(b"old map")
        csv = tmp_path if where == "directory" else tmp_path / "missing" / "map.csv"
        for path in (out, kept):
            args = command_args("explain", trained_model, tiny_archive, str(path))
            assert run(args + ["--csv", str(csv)]) == 2
        assert not out.exists()
        assert kept.read_bytes() == b"old map"

    @pytest.mark.parametrize("command, flag, value", [
        ("metrics", "--permutations", "0"), ("metrics", "--ig-steps", "0"),
        ("metrics", "--seed", "-1"), ("explain", "--permutations", "0"),
        ("explain", "--ig-steps", "-1"), ("explain", "--seed", "-1"),
        ("metrics", "--steps", "0"), ("metrics", "--m", "0"), ("metrics", "--sigma", "-1"),
        ("train", "--h1", "0")])
    def test_bad_count_is_usage_error_before_loading(self, trained_model, tiny_archive,
                                                     tmp_path, monkeypatch, capsys,
                                                     command, flag, value):
        # metrics runs fragility and explain shapley: every count is checked
        def no_load(*args, **kwargs):
            pytest.fail(f"a file was loaded before {flag} was checked")

        monkeypatch.setattr("lmmx.cli.load_model", no_load)
        monkeypatch.setattr("lmmx.cli.load_npz_dataset", no_load)
        out = tmp_path / "out"
        args = command_args(command, trained_model, tiny_archive, str(out))
        assert run(args + [flag, value]) == 1
        named = "sigma must be > 0" if flag == "--sigma" else f"{flag} must be an integer"
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-1"), ("--batch", "0"), ("--lr0", "0"), ("--lr-decay", "-1"),
        ("--k0", "0"), ("--target", "0.3"), ("--target", "1.5")])
    def test_bad_train_value_is_usage_error_before_the_medoid_build(
            self, tiny_archive, tmp_path, monkeypatch, capsys, flag, value):
        def no_work(*args, **kwargs):
            pytest.fail(f"work started before {flag} was checked")

        monkeypatch.setattr("lmmx.cli.select_medoids", no_work)
        monkeypatch.setattr("lmmx.cli.train", no_work)
        out = tmp_path / "model.lmmp"
        args = command_args("train", None, tiny_archive, str(out))
        assert run(args + [flag, value]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["-1", "-3"])
    def test_negative_limit_is_usage_error_before_loading(self, trained_model, tiny_archive,
                                                         tmp_path, monkeypatch, limit):
        def no_load(*args, **kwargs):
            pytest.fail("the model was loaded before --limit was checked")

        monkeypatch.setattr("lmmx.cli.load_model", no_load)
        out = tmp_path / "r.txt"
        args = command_args("metrics", trained_model, tiny_archive, str(out))
        assert run(args + ["--limit", limit]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("metrics", "--m"), ("metrics", "--steps"),
                                               ("explain", "--ig-steps")])
    def test_size_too_large_to_allocate_is_one_error_line(self, trained_model, tiny_archive,
                                                           tmp_path, capsys, command, flag):
        # 10**14 entries of 8 bytes exceed any address space, so numpy's
        # allocation fails at once instead of reserving memory
        out = tmp_path / "out"
        args = command_args(command, trained_model, tiny_archive, str(out))
        if command == "explain":
            args[args.index("--method") + 1] = "intgrad"
            args += [flag, "1"]
        args[args.index(flag) + 1] = str(10 ** 14)
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_run_leaves_out_as_it_was(self, trained_model, tiny_archive, tmp_path):
        args = command_args("metrics", trained_model, tiny_archive, "")
        args[args.index("--model") + 1] = str(tmp_path)   # fails after the --out check
        kept = tmp_path / "kept.txt"
        kept.write_text("old report\n")
        fresh = tmp_path / "fresh.txt"
        for out in (kept, fresh):
            args[args.index("--out") + 1] = str(out)
            assert run(args) == 2
        assert kept.read_text() == "old report\n"
        assert not fresh.exists()

    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 7
        assert out.splitlines()[0] == f"selftest native-path: {_native.status()}"

    def test_selftest_passes_on_the_numpy_path(self, monkeypatch, capsys):
        monkeypatch.setattr(_native, "_load", lambda: (None, "numpy (no compiler)"))
        assert run(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "selftest native-path: numpy (no compiler)"
        assert sum(line.endswith(": ok") for line in lines) == 7

    def test_selftest_reports_any_exception_and_runs_every_suite(self, monkeypatch, capsys):
        def broken():
            raise ValueError("zero-size array to reduction operation maximum")

        suites = list(selftest.SUITES)
        suites[4] = (suites[4][0], broken)    # shapley-efficiency, the fifth of seven
        monkeypatch.setattr(selftest, "SUITES", tuple(suites))
        assert run(["selftest"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == (
            ["selftest native-path"] + [f"selftest {name}" for name, _ in suites])
        assert lines[5] == ("selftest shapley-efficiency: FAIL (ValueError: zero-size array "
                            "to reduction operation maximum)")
        assert sum(line.endswith(": ok") for line in lines) == 6

    def test_perturbed_oracle_fails_under_python_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", _PERTURBED_SELFTEST],
                              env=package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "selftest forward-vs-bruteforce: FAIL" in proc.stdout

    def test_closed_stdout_exits_one_quietly(self):
        # the reader takes one line and closes the pipe, as `lmmx selftest | head -1` does
        with subprocess.Popen([sys.executable, "-m", "lmmx.cli", "selftest"], env=package_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.startswith("selftest native-path: ")
        assert (code, stderr) == (1, "")

    def test_console_entry_point_under_a_minute(self):
        import time
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "lmmx.cli", "selftest"],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert "selftest" in proc.stdout
        assert elapsed < 60.0
