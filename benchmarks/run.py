#!/usr/bin/env python3
"""Paper-shape benchmark of the lmmx pipeline.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 12 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, in-process, and driven only through its public functions.
Inputs are a synthetic archive of PneumoniaMNIST's shape written from
``--seed`` (see ``synth.py``): P = 784, H1 = 25, C = 2, minibatch 32, splits
of 4708/524/624 images.  Everything runs in one thread (``workers=1``).

Every workload builds a calibrated model with the ``lmmx train`` path
(greedy medoids, ``init_params``, ``train``, ``calibrate_temperature``,
``save_model``) and scores it with the ``lmmx metrics`` path
(``compute_report``) and a closed loop of single explainer calls:

  train                the model build is the measured work; it repeats
                       until ``--seconds`` is used.  A small fragility
                       report and latency loop follow it.
  explain_closed_form  the model is built during set-up; reports with
                       fragility and integrated gradients at CLI defaults
                       fill the window, then a closed loop of single
                       ``pixel_fragility`` calls.
  explain_shapley      as above with Shapley sampling (200 permutations)
                       alone, and a closed loop of ``shapley_sampling``.

End-to-end metrics (``--trace 0``), printed for every workload:

  setup_s          write and load the archive (median of several rounds);
                   for explain_* plus the model build (median of two)
  time_to_model_s  loaded splits to calibrated model file on disk, median
                   of the run's builds (explain_*: the two set-up builds)
  test_accuracy    that model's accuracy on the test split
  images_per_s     test images fully scored per second (fidelity, stability
                   and timing for every method), median over reports
  explain_ms_p50   latency of one explainer call on one image, closed loop
  explain_ms_p90   (the sample count is in the provenance line)
  fidelity         deletion fidelity of fragility, the paper's headline
                   method, on the first 200 test images
  peak_rss_mb      peak resident memory of the process

Times are wall times scaled by an interleaved speed probe (``Clock``), which
cancels most of the slowdown co-tenants cause on a shared machine; the raw
medians are in the provenance line.

``--trace 1`` runs the minimum plan of the workload with every package
function wrapped (``spans.py``), replays the same plan untraced to state the
tracing overhead, and prints per-layer metrics instead.  Every operation's
outputs are checked; ``ops`` and ``failed`` count them, and any failure
makes the exit code 1.  The last stdout line is the result JSON; the line
before it holds provenance and determinism digests.  Spans and results are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "lmmx" / "__init__.py").is_file():
    sys.exit(f"error: package source {SRC / 'lmmx'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import lmmx  # noqa: E402
import lmmx.data  # noqa: E402
import lmmx.explain  # noqa: E402
import lmmx.medoids  # noqa: E402
import lmmx.metrics  # noqa: E402
import lmmx.training  # noqa: E402

# Checks call these direct bindings, which tracing never replaces, so their
# work is not attributed to the layers; operations go through the module
# attributes (lmmx.training.train, ...), which tracing wraps.
from lmmx.data import load_model  # noqa: E402
from lmmx.medoids import nearest_medoid_predict  # noqa: E402
from lmmx.metrics import accuracy_from_confusion  # noqa: E402
from lmmx.network import batch_logits, forward, softmax_rows  # noqa: E402

import spans  # noqa: E402
import synth  # noqa: E402

WORKLOADS = ("train", "explain_closed_form", "explain_shapley")

# Paper shape and the CLI defaults of `lmmx train` / `lmmx metrics`, except
# k0 and lr0 (`--k0 5 --lr0 0.02`): at k0 = 1 the logits are so flat that a
# few epochs drift every prediction to the majority class, and at lr0 = 0.05
# the second epoch overshoots, so the accuracy reached varies widely by seed.
H1 = 25
K0 = 5.0
LR0 = 0.02
BATCH = 32
TARGET = 0.8
CAL_TOL = 1e-4          # calibrate_temperature's tolerance
STEPS, SIGMA, M, IG_STEPS, PERMUTATIONS, TIMING_N, METRICS_SEED = 28, 0.05, 10, 50, 200, 20, 0
INIT_SAMPLES = 64       # test images checked against nearest_medoid_predict


@dataclass(frozen=True)
class Plan:
    """Minimum work of one run; ``--seconds`` extends it to fill the window.

    The window is shared out in order: model builds until ``build_share`` of
    it has passed, reports until ``report_share``, then the headline
    fidelity and latency calls until the end; each phase does at least its
    minimum.
    """

    counts: dict            # images per class and split
    epochs: int
    setup_builds: int       # model builds during set-up (explain_*)
    builds: int             # model builds in the window (train)
    build_share: float
    methods: tuple          # explainers in each metrics report
    report_images: int
    reports: int
    report_share: float
    fidelity_images: int    # first test images behind the fidelity metric
    latency_method: str
    latency_calls: int      # >= 100 leaves ten samples above p90
    probe_every: int        # latency calls between speed probes
    archive_rounds: int
    report_probe: str       # Clock kind for reports: "large" where big temporaries dominate


_PAPER = dict(counts=synth.PAPER_COUNTS, epochs=2, archive_rounds=5, fidelity_images=200)
_TINY = dict(counts=synth.TINY_COUNTS, epochs=1, archive_rounds=2, fidelity_images=4,
             reports=1, report_images=2, latency_calls=4, probe_every=2, report_probe="small")
PLANS = {
    "paper": {
        "train": Plan(**_PAPER, setup_builds=0, builds=1, build_share=1.0, methods=("fragility",),
                      report_images=16, reports=6, report_share=1.0, latency_method="fragility",
                      latency_calls=5000, probe_every=1000, report_probe="small"),
        "explain_closed_form": Plan(**_PAPER, setup_builds=2, builds=0, build_share=0.0,
                                    methods=("fragility", "intgrad"), report_images=10, reports=6,
                                    report_share=0.75, latency_method="fragility",
                                    latency_calls=2000, probe_every=1000, report_probe="large"),
        "explain_shapley": Plan(**_PAPER, setup_builds=2, builds=0, build_share=0.0,
                                methods=("shapley",), report_images=1, reports=5, report_share=0.5,
                                latency_method="shapley", latency_calls=100, probe_every=3,
                                report_probe="small"),
    },
    "tiny": {
        "train": Plan(**_TINY, setup_builds=0, builds=1, build_share=1.0, methods=("fragility",),
                      report_share=1.0, latency_method="fragility"),
        "explain_closed_form": Plan(**_TINY, setup_builds=2, builds=0, build_share=0.0,
                                    methods=("fragility", "intgrad"), report_share=0.5,
                                    latency_method="fragility"),
        "explain_shapley": Plan(**_TINY, setup_builds=2, builds=0, build_share=0.0,
                                methods=("shapley",), report_share=0.5, latency_method="shapley"),
    },
}

PER_LAYER = {  # name -> (unit, better)
    "medoids.select_medoids.s": ("s", "lower"), "medoids.cdist.s": ("s", "lower"),
    "medoids.greedy.self_s": ("s", "lower"), "medoids.distance_pairs": ("count", "lower"),
    "training.train.s": ("s", "lower"), "training.step.self_s": ("s", "lower"),
    "training.eval.s": ("s", "lower"), "training.steps": ("count", "lower"),
    "training.calibrate_temperature.s": ("s", "lower"),
    "network.batch_logits.s": ("s", "lower"), "network.batch_logits.calls": ("count", "lower"),
    "network.batch_logits.rows": ("count", "lower"), "network.minplus_cells": ("count", "lower"),
    "network.forward.s": ("s", "lower"), "network.forward.calls": ("count", "lower"),
    "explain.pixel_fragility.s": ("s", "lower"), "explain.pixel_fragility.calls": ("count", "lower"),
    "explain.integrated_gradients.self_s": ("s", "lower"),
    "explain.integrated_gradients.calls": ("count", "lower"),
    "explain.shapley_sampling.self_s": ("s", "lower"),
    "explain.shapley_sampling.calls": ("count", "lower"),
    "explain.shapley.walk_cells": ("count", "lower"),
    "metrics.compute_report.s": ("s", "lower"), "metrics.fidelity.self_s": ("s", "lower"),
    "metrics.stability.self_s": ("s", "lower"), "metrics.timing.s": ("s", "lower"),
    "metrics.confusion_matrix.s": ("s", "lower"),
    "data.load_npz_dataset.s": ("s", "lower"), "data.save_model.s": ("s", "lower"),
    "ops": ("count", "higher"), "failed": ("count", "lower"),
    "trace.wall_s": ("s", "lower"), "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"), "trace.bench_self_s": ("s", "lower"),
    "trace.layer_self_s": ("s", "lower"), "trace.spans": ("count", "lower"),
}


class Checks:
    """Counts checked operations; an operation fails if any of its checks fails."""

    def __init__(self):
        self.ops = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.ops += 1
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def explainer(name: str):
    """The explainer `lmmx metrics --methods <name>` builds, at CLI defaults.

    It looks the function up in ``lmmx.explain`` at call time, so tracing
    sees each call; the CLI's own lambdas bind ``lmmx.cli``'s names.
    """
    if name == "fragility":
        return lambda params, x: lmmx.explain.pixel_fragility(params, x)
    if name == "intgrad":
        return lambda params, x: lmmx.explain.integrated_gradients(params, x, steps=IG_STEPS)
    return lambda params, x: lmmx.explain.shapley_sampling(params, x, permutations=PERMUTATIONS,
                                                           seed=METRICS_SEED)


class Clock:
    """Wall time scaled to a nominal machine speed.

    Co-tenants on a shared machine slow this process for seconds to minutes
    at a time, so raw timings of one workload spread by a fifth between
    runs.  A probe is timed at the ends of each measured interval, and the
    interval's wall time is scaled by the nominal probe time over the mean
    of those two probes.  Probes are plain NumPy and Python, so package
    changes never move them.  The "small" probe is a kernel shaped like the
    network's min-plus pass plus touching every page of a fresh 4 MiB
    mapping, since page faults slow differently from arithmetic under
    contention.  The "large" probe builds one fresh (50, 2P, H1) temporary
    like intgrad's path loop; it scales the closed-form reports, whose time
    goes to such temporaries and which the small probe tracked poorly.  The
    raw times are kept in the provenance line.
    """

    NOMINAL_S = {"small": 3.5e-3, "large": 9.0e-3}  # uncontended 2-core x86-64 box
    FAULT_BYTES = 1 << 22

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._lin = rng.random(2 * 784)
        self._path = rng.random((50, 2 * 784))
        self._weights = rng.random((2 * 784, H1))
        self._parts = (self._compute, self._fault) if kind == "small" else (self._large,)
        self.nominal = self.NOMINAL_S[kind]
        self.probes: list[float] = []
        self.mark()

    def _compute(self) -> None:
        for _ in range(20):
            np.min(self._lin[:, None] + self._weights, axis=0)

    def _large(self) -> None:
        # a fresh (50, 2P, H1) temporary, like intgrad's path loop
        np.argmin(self._path[:, :, None] + self._weights[None, :, :], axis=1)

    def _fault(self) -> None:
        with mmap.mmap(-1, self.FAULT_BYTES) as pages:
            for offset in range(0, self.FAULT_BYTES, mmap.PAGESIZE):
                pages[offset] = 1

    def _probe(self) -> float:
        total = 0.0
        for part in self._parts:
            times = []
            for _ in range(5):  # the fastest of five ignores a single interruption
                start = time.perf_counter()
                part()
                times.append(time.perf_counter() - start)
            total += min(times)
        self.probes.append(total)
        return total

    def mark(self) -> None:
        """Probe the speed at the start of the next interval."""
        self._last = self._probe()

    def lap(self) -> float:
        """Scale factor for the interval since the last mark or lap."""
        previous, self._last = self._last, self._probe()
        return 2.0 * self.nominal / (previous + self._last)


class Run:
    """One workload run: set-up, the measured plan and its checks."""

    def __init__(self, seed: int, plan: Plan, workdir: Path, tracer=None):
        self.seed, self.plan, self.workdir = seed, plan, workdir
        self.tracer = tracer
        self.clock = Clock("small")
        self.report_clock = Clock("large") if plan.report_probe == "large" else self.clock
        self.checks = Checks()
        self.model_digests: list[str] = []
        self.report_lines: list[str] = []
        self.timings = {name: [] for name in ("setup_s", "time_to_model_s", "images_per_s",
                                              "explain_ms")}  # (raw, scaled) pairs
        self.test_accuracy = float("nan")
        self.fidelity = float("nan")
        self.init_tie_disagreements: set[int] = set()
        self.params = None

    def _op(self):
        if self.tracer is not None:
            self.tracer.op += 1

    def _timed(self, fn, clock=None):
        """(result, raw seconds, scaled seconds) of ``fn()``."""
        clock = clock or self.clock
        clock.mark()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, raw * clock.lap()

    # -- set-up -------------------------------------------------------------
    def setup(self) -> None:
        archive = self.workdir / "archive.npz"

        def write_and_load():
            synth.write_archive(archive, self.seed, self.plan.counts)
            return lmmx.data.load_npz_dataset(archive)

        rounds = []
        for _ in range(self.plan.archive_rounds):
            splits, raw, scaled = self._timed(write_and_load)
            rounds.append((raw, scaled))
        self.splits = splits
        problems = [f"{name} has {splits[name].n_samples} images, expected {sum(n)}"
                    for name, n in self.plan.counts.items() if splits[name].n_samples != sum(n)]
        self.checks.record("archive", problems)
        raw, scaled = (statistics.median(column) for column in zip(*rounds))
        if self.plan.setup_builds:
            builds = [self.build_model() for _ in range(self.plan.setup_builds)]
            build_raw, build_scaled = (statistics.median(column) for column in zip(*builds))
            raw, scaled = raw + build_raw, scaled + build_scaled
        self.timings["setup_s"].append((raw, scaled))

    # -- operations ---------------------------------------------------------
    def build_model(self) -> tuple[float, float]:
        """The `lmmx train` path; (raw, scaled) seconds from splits to model file."""
        self._op()
        train, val, test = self.splits["train"], self.splits["val"], self.splits["test"]
        path = self.workdir / "model.lmmp"
        config = lmmx.training.TrainConfig(epochs=self.plan.epochs, batch_size=BATCH, lr0=LR0,
                                           seed=self.seed)

        def trained():
            return lmmx.training.train(init, train, val, config)[0]

        def calibrated_and_saved():
            lmmx.training.calibrate_temperature(params, val, TARGET)
            lmmx.data.save_model(params, path)

        # one interval per stage, so the speed probes track the machine closely
        medoids, raw1, scaled1 = self._timed(
            lambda: lmmx.medoids.select_medoids(train, H1, "greedy-kmedoids", self.seed))
        init = lmmx.medoids.init_params(medoids, K0)
        params, raw2, scaled2 = self._timed(trained)
        _, raw3, scaled3 = self._timed(calibrated_and_saved)
        elapsed = (raw1 + raw2 + raw3, scaled1 + scaled2 + scaled3)

        problems = []
        rows = np.random.default_rng(self.seed).choice(
            test.n_samples, min(INIT_SAMPLES, test.n_samples), replace=False)
        mismatched = [int(i) for i in rows
                      if forward(init, test.images[i]).predicted
                      != nearest_medoid_predict(medoids, test.images[i])]
        # Known defect: when two medoids of different classes are exactly
        # equally far from an image, forward and nearest_medoid_predict break
        # the tie by rounding noise, not by the lowest index.  Pixels are
        # multiples of 1/255, so exact distances are integers in those units.
        units = np.rint(medoids.vectors * 255.0)
        for i in list(mismatched):
            dist = np.max(np.abs(units - np.rint(test.images[i] * 255.0)), axis=1)
            if np.unique(medoids.labels[dist == dist.min()]).size > 1:
                mismatched.remove(i)
                self.init_tie_disagreements.add(int(i))
        if mismatched:
            problems.append(f"init disagrees with nearest_medoid_predict on test images {mismatched}")
        logits = batch_logits(params, val.images)
        probs = softmax_rows(logits, params.temperature)
        confidence = float(np.mean(probs[np.arange(val.n_samples), np.argmax(logits, axis=1)]))
        if abs(confidence - TARGET) > CAL_TOL:
            problems.append(f"calibrated val confidence {confidence} is not within {CAL_TOL} of {TARGET}")
        back = load_model(path)
        if not (back.scales.tobytes() == params.scales.tobytes()
                and back.minplus_weights.tobytes() == params.minplus_weights.tobytes()
                and back.maxplus_weights.tobytes() == params.maxplus_weights.tobytes()
                and back.temperature == params.temperature):
            problems.append("save_model -> load_model is not bit-exact")
        digest = sha256_file(path)
        if self.model_digests and digest != self.model_digests[0]:
            problems.append("model file differs from the first build of this run")
        self.model_digests.append(digest)
        self.checks.record("build", problems)

        self.params = back  # what `lmmx metrics` loads
        predicted = np.argmax(batch_logits(back, test.images), axis=1)
        self.test_accuracy = float(np.mean(predicted == test.labels))
        self.timings["time_to_model_s"].append(elapsed)
        return elapsed

    def report(self, index: int) -> None:
        """The `lmmx metrics` path over the index-th subset of the test split."""
        self._op()
        test, n = self.splits["test"], self.plan.report_images
        rows = (index * n + np.arange(n)) % test.n_samples
        data = lmmx.Dataset(test.images[rows], test.labels[rows], "test")
        methods = {name: explainer(name) for name in self.plan.methods}
        report, raw, scaled = self._timed(lambda: lmmx.metrics.compute_report(
            self.params, data, methods, steps=STEPS, sigma=SIGMA, m=M, seed=METRICS_SEED,
            timing_images=TIMING_N, workers=1), self.report_clock)
        self.timings["images_per_s"].append((n / raw, n / scaled))

        problems = []
        if report.confusion.sum() != n:
            problems.append(f"confusion counts {report.confusion.sum()} images, expected {n}")
        if report.accuracy != accuracy_from_confusion(report.confusion):
            problems.append("accuracy does not match the confusion matrix")
        for name in self.plan.methods:
            if not 0.0 <= report.fidelity[name] <= 1.0:
                problems.append(f"fidelity.{name} = {report.fidelity[name]} outside [0, 1]")
            if not (np.isfinite(report.stability[name]) and report.stability[name] >= 0):
                problems.append(f"stability.{name} = {report.stability[name]}")
            if not report.seconds_per_image[name] > 0:
                problems.append(f"seconds_per_image.{name} = {report.seconds_per_image[name]}")
        self.checks.record(f"report {index}", problems)
        if index < self.plan.reports:  # fixed images, so the digest repeats
            self.report_lines += [line for line in report.key_value_lines()
                                  if not line.startswith("seconds_per_image.")]

    def explain_once(self, index: int) -> float:
        """One closed-loop explainer call on one test image; returns its seconds."""
        self._op()
        test = self.splits["test"]
        x = test.images[index % test.n_samples]
        call = explainer(self.plan.latency_method)
        start = time.perf_counter()
        imap = call(self.params, x)
        elapsed = time.perf_counter() - start

        problems = []
        if self.plan.latency_method == "fragility":
            if not np.all(np.isfinite(imap.scores)):
                problems.append("fragility scores are not all finite")
        else:
            c = forward(self.params, x).predicted
            gap = (forward(self.params, x).logits[c]
                   - forward(self.params, np.full(x.size, 0.5)).logits[c])
            if not np.isclose(imap.scores.sum(), gap, rtol=1e-9, atol=1e-12):
                problems.append(f"Shapley scores sum to {imap.scores.sum()!r}, "
                                f"not z_c(x) - z_c(baseline) = {gap!r}")
        self.checks.record(f"explain {index}", problems)
        return elapsed

    def headline_fidelity(self) -> None:
        """Deletion fidelity of the paper's headline method, fragility.

        Every workload scores the same fixed images with it, so the metric
        guards what the model learned.  Shapley's fidelity is too costly
        for enough images to be steady across seeds; its quality is guarded
        by the telescoping check and the report digest.
        """
        self._op()
        test, n = self.splits["test"], min(self.plan.fidelity_images, self.splits["test"].n_samples)
        data = lmmx.Dataset(test.images[:n], test.labels[:n], "test")
        self.fidelity = lmmx.metrics.fidelity(self.params, explainer("fragility"), data,
                                              steps=STEPS)
        self.report_lines.append(f"headline_fidelity = {self.fidelity!r}")
        problems = [] if 0.0 < self.fidelity <= 1.0 else [f"fidelity {self.fidelity} outside (0, 1]"]
        self.checks.record("fidelity", problems)

    # -- the measured plan ----------------------------------------------------
    def measure(self, seconds: float | None) -> dict:
        """Run the plan; with ``seconds`` extend it to fill the window.

        Returns the counts done, so the plan can be replayed exactly.
        """
        plan = self.plan
        start = time.perf_counter()

        def more(done: int, minimum: int, share: float) -> bool:
            if done < minimum:
                return True
            return seconds is not None and time.perf_counter() - start < share * seconds

        done = {"builds": 0, "reports": 0, "calls": 0}
        while plan.builds and more(done["builds"], plan.builds, plan.build_share):
            self.build_model()
            done["builds"] += 1
        while more(done["reports"], plan.reports, plan.report_share):
            self.report(done["reports"])
            done["reports"] += 1
        self.headline_fidelity()
        block: list[float] = []
        self.clock.mark()
        while more(done["calls"], plan.latency_calls, 1.0):
            block.append(self.explain_once(done["calls"]))
            done["calls"] += 1
            if len(block) == plan.probe_every or not more(done["calls"], plan.latency_calls, 1.0):
                factor = self.clock.lap()
                self.timings["explain_ms"] += [(1e3 * t, 1e3 * t * factor) for t in block]
                block = []
        return done


def end_to_end(run: Run) -> dict:
    scaled = {name: [pair[1] for pair in pairs] for name, pairs in run.timings.items()}
    p50, p90 = np.percentile(scaled["explain_ms"], [50, 90])
    values = {
        "setup_s": (scaled["setup_s"][0], "s"),
        "time_to_model_s": (statistics.median(scaled["time_to_model_s"]), "s"),
        "test_accuracy": (run.test_accuracy, "fraction"),
        "images_per_s": (statistics.median(scaled["images_per_s"]), "1/s"),
        "explain_ms_p50": (float(p50), "ms"),
        "explain_ms_p90": (float(p90), "ms"),
        "fidelity": (run.fidelity, "probability"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer: spans.Tracer, setup_root: int, measure_root: int,
              untraced_wall: float, checks: Checks) -> dict:
    summary = tracer.summary(measure_root)
    layers = summary["layers"]
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "by_parent": {}}

    def get(name: str, key: str):
        return layers.get(name, empty).get(key, 0)

    values = {
        "medoids.select_medoids.s": get("medoids.select_medoids", "s"),
        "medoids.cdist.s": get("medoids.cdist", "s"),
        "medoids.greedy.self_s": get("medoids.select_medoids", "self_s"),
        "medoids.distance_pairs": get("medoids.cdist", "distance_pairs"),
        "training.train.s": get("training.train", "s"),
        "training.step.self_s": get("training.train", "self_s"),
        "training.eval.s": layers.get("network.batch_logits", empty)["by_parent"].get("training.train", 0.0),
        "training.steps": get("training.train", "steps"),
        "training.calibrate_temperature.s": get("training.calibrate_temperature", "s"),
        "network.batch_logits.s": get("network.batch_logits", "s"),
        "network.batch_logits.calls": get("network.batch_logits", "calls"),
        "network.batch_logits.rows": get("network.batch_logits", "rows"),
        "network.minplus_cells": get("network.batch_logits", "minplus_cells"),
        "network.forward.s": get("network.forward", "s"),
        "network.forward.calls": get("network.forward", "calls"),
        "explain.pixel_fragility.s": get("explain.pixel_fragility", "s"),
        "explain.pixel_fragility.calls": get("explain.pixel_fragility", "calls"),
        "explain.integrated_gradients.self_s": get("explain.integrated_gradients", "self_s"),
        "explain.integrated_gradients.calls": get("explain.integrated_gradients", "calls"),
        "explain.shapley_sampling.self_s": get("explain.shapley_sampling", "self_s"),
        "explain.shapley_sampling.calls": get("explain.shapley_sampling", "calls"),
        "explain.shapley.walk_cells": get("explain.shapley_sampling", "walk_cells"),
        "metrics.compute_report.s": get("metrics.compute_report", "s"),
        "metrics.fidelity.self_s": get("metrics.fidelity", "self_s"),
        "metrics.stability.self_s": get("metrics.stability", "self_s"),
        "metrics.timing.s": get("metrics.timing", "s"),
        "metrics.confusion_matrix.s": get("metrics.confusion_matrix", "s"),
        "data.load_npz_dataset.s": tracer.summary(setup_root)["layers"].get(
            "data.load_npz_dataset", empty)["s"],
        "data.save_model.s": get("data.save_model", "s"),
        "ops": checks.ops,
        "failed": checks.failed,
        "trace.wall_s": summary["wall_s"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": summary["wall_s"] - untraced_wall,
        "trace.bench_self_s": summary["root_self_s"],
        "trace.layer_self_s": sum(entry["self_s"] for entry in layers.values()),
        "trace.spans": summary["spans"],
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def provenance(args, run: Run, done: dict) -> dict:
    import scipy
    latency = np.asarray([pair[1] for pair in run.timings["explain_ms"]])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "plan": {k: v for k, v in vars(run.plan).items() if k != "counts"},
        "split_counts": run.plan.counts, "done": done,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "lmmx": lmmx.__version__, "git_commit": git_commit(), "machine": platform.machine(),
        "samples": {name: len(pairs) for name, pairs in run.timings.items()},
        "explain_ms_above_p90": int(np.sum(latency > np.percentile(latency, 90))),
        "raw_medians": {name: statistics.median(pair[0] for pair in pairs)
                        for name, pairs in run.timings.items()},
        "speed_probe_ms": {"median": 1e3 * statistics.median(run.clock.probes),
                           "min": 1e3 * min(run.clock.probes), "max": 1e3 * max(run.clock.probes),
                           "nominal": 1e3 * run.clock.nominal, "count": len(run.clock.probes)},
        "init_tie_disagreements": sorted(run.init_tie_disagreements),
        "digests": {
            "model_sha256": run.model_digests[0],
            "report_sha256": hashlib.sha256("\n".join(run.report_lines).encode()).hexdigest(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(PLANS), default="paper",
                        help="'tiny' shrinks every split and plan for a smoke run")
    args = parser.parse_args(argv)
    plan = PLANS[args.size][args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            tracer = spans.Tracer()
            spans.install_package_tracing(tracer, lmmx)
            run = Run(args.seed, plan, workdir, tracer)
            try:
                with tracer.span("setup") as setup_root:
                    run.setup()
                with tracer.span("measure") as measure_root:
                    done = run.measure(None)
            finally:
                tracer.uninstall()
            replay = Run(args.seed, plan, workdir)
            replay.splits, replay.params = run.splits, run.params
            start = time.perf_counter()
            replay_done = replay.measure(None)
            untraced_wall = time.perf_counter() - start
            assert replay_done == done
            run.checks.ops += replay.checks.ops
            run.checks.failed += replay.checks.failed
            metrics = per_layer(tracer, setup_root, measure_root, untraced_wall, run.checks)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            run = Run(args.seed, plan, workdir)
            run.setup()
            done = run.measure(args.seconds)
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(args, run, done)
    result = {"correct": run.checks.failed == 0, "attempted": run.checks.ops,
              "failed": run.checks.failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": info, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
