"""Command-line interface wiring the library into reproducible runs.

Subcommands: ``train``, ``evaluate``, ``explain``, ``metrics`` and
``selftest``.  Exit codes: 0 success, 1 usage error, 2 data/format error
or a path that cannot be read or written, 3 numeric error; each
``LmmError`` class names its own.  Every run is fully determined by its
flags and seed (timing figures in metrics reports excepted, being
wall-clock).
"""

from __future__ import annotations

import argparse
import os
import sys

from .data import export_map, load_model, load_npz_dataset, save_model
from .errors import LmmError, ParameterError, require_count
from .explain import integrated_gradients, pixel_fragility, shapley_sampling
from .medoids import STRATEGIES, init_params, require_k0, select_medoids
from .metrics import accuracy_from_confusion, compute_report, confusion_matrix, require_sigma
from .selftest import run_selftest
from .training import TrainConfig, calibrate_temperature, require_target, train

METHODS = ("fragility", "intgrad", "shapley")


def _make_explainer(name: str, seed: int, ig_steps: int, permutations: int):
    if name == "fragility":
        return lambda params, x: pixel_fragility(params, x)
    if name == "intgrad":
        return lambda params, x: integrated_gradients(params, x, steps=ig_steps)
    if name == "shapley":
        return lambda params, x: shapley_sampling(params, x, permutations=permutations, seed=seed)
    raise ParameterError(f"unknown method '{name}' (expected one of {METHODS})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmx",
        description="linear-min-max-plus classifiers with pixel-fragility explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on an NPZ dataset archive")
    p.add_argument("--data", required=True, help="dataset archive (train/val/test NPZ)")
    p.add_argument("--h1", type=int, default=25, help="hidden min-plus neurons")
    p.add_argument("--strategy", choices=STRATEGIES, default="greedy-kmedoids")
    p.add_argument("--k0", type=float, default=1.0, help="initialization scale")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr0", type=float, default=0.05)
    p.add_argument("--lr-decay", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=float, default=0.8, help="calibration confidence target")
    p.add_argument("--out", required=True, help="output model file (.lmmp)")

    p = sub.add_parser("evaluate", help="confusion matrices and accuracy on all splits")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("explain", help="export one importance map")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--index", type=int, required=True, help="image index within the split")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ig-steps", type=int, default=50)
    p.add_argument("--permutations", type=int, default=200)
    p.add_argument("--out", required=True, help="output PGM heatmap")
    p.add_argument("--csv", default=None, help="also write raw scores as CSV")

    p = sub.add_parser("metrics", help="fidelity, stability and timing per method")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--methods", default="fragility,intgrad,shapley",
                   help="comma-separated explainer names")
    p.add_argument("--steps", type=int, default=28, help="deletion increments for fidelity")
    p.add_argument("--sigma", type=float, default=0.05, help="stability noise level")
    p.add_argument("--m", type=int, default=10, help="stability perturbations per image")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ig-steps", type=int, default=50)
    p.add_argument("--permutations", type=int, default=200)
    p.add_argument("--limit", type=int, default=0, help="cap images per split (0 = all)")
    p.add_argument("--out", required=True, help="report file (key/value lines)")

    sub.add_parser("selftest", help="run the brute-force oracle suites at small scale")
    return parser


def _cmd_train(args) -> int:
    # every value is checked before the medoid build, the first costly step
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr0=args.lr0,
                         lr_decay=args.lr_decay, seed=args.seed)
    k0 = require_k0(args.k0)
    splits = load_npz_dataset(args.data)
    require_target(args.target, int(splits["train"].labels.max()) + 1)
    medoids = select_medoids(splits["train"], args.h1, args.strategy, args.seed)
    params = init_params(medoids, k0)
    params = train(params, splits["train"], splits["val"], config)[0]
    temperature = calibrate_temperature(params, splits["val"], args.target)
    save_model(params, args.out)
    # the saved model is the initial one when no epoch beats it, so score it
    val_accuracy = accuracy_from_confusion(confusion_matrix(params, splits["val"]))
    print(f"trained {args.epochs} epochs; best val accuracy {val_accuracy:.4f}")
    print(f"calibrated temperature {temperature:.6f}; model written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    params = load_model(args.model)
    splits = load_npz_dataset(args.data)
    for name in ("train", "val", "test"):
        confusion = confusion_matrix(params, splits[name])
        print(f"{name}: accuracy {accuracy_from_confusion(confusion):.4f}")
        for row in confusion:
            print("  " + "  ".join(f"{int(v):6d}" for v in row))
    return 0


def _cmd_explain(args) -> int:
    params = load_model(args.model)
    data = load_npz_dataset(args.data)[args.split]
    if not 0 <= args.index < data.n_samples:
        raise ParameterError(f"--index {args.index} outside the {args.split} split "
                             f"(size {data.n_samples})")
    explainer = _make_explainer(args.method, args.seed, args.ig_steps, args.permutations)
    imap = explainer(params, data.images[args.index])
    export_map(imap, args.out, "pgm")
    print(f"{args.method} map for {args.split}[{args.index}] written to {args.out}")
    if args.csv:
        export_map(imap, args.csv, "csv")
        print(f"raw scores written to {args.csv}")
    return 0


def _cmd_metrics(args) -> int:
    require_sigma(args.sigma)
    if args.limit < 0:
        raise ParameterError(f"--limit must be >= 0 (0 = all images), got {args.limit}")
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        raise ParameterError(f"--methods names no method (expected some of {METHODS})")
    if len(set(names)) < len(names):
        raise ParameterError(f"--methods names a method twice: '{args.methods}'")
    explainers = {name: _make_explainer(name, args.seed, args.ig_steps, args.permutations)
                  for name in names}
    params = load_model(args.model)
    data = load_npz_dataset(args.data)[args.split]
    if 0 < args.limit < data.n_samples:
        data = type(data)(data.images[:args.limit], data.labels[:args.limit], data.split)
    report = compute_report(params, data, explainers, steps=args.steps, sigma=args.sigma,
                            m=args.m, seed=args.seed, timing_images=data.n_samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.key_value_lines()) + "\n")
    print(report.format_table())
    print(f"report written to {args.out}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "metrics": _cmd_metrics,
}


def run(argv) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "selftest":
            return 0 if run_selftest() else 3
        # a bad count is a usage error before anything is opened, whatever the method
        for name, floor in (("seed", 0), ("h1", 1), ("steps", 1), ("m", 1), ("ig_steps", 1),
                            ("permutations", 1)):
            if hasattr(args, name):
                require_count(getattr(args, name), "--" + name.replace("_", "-"), floor)
        # fail on an unwritable --out or --csv before any work
        for path in filter(None, (getattr(args, "out", None), getattr(args, "csv", None))):
            existed = os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()  # append mode truncates nothing
            if not existed:
                os.remove(path)
        return _HANDLERS[args.command](args)
    except LmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
