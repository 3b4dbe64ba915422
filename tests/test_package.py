"""The package's public names and option surface.

``__all__`` lists only names that exist, and the parameters of every public
callable and the flags of every ``lmmx`` subcommand match a literal table, so
a change that adds or removes a knob shows in the diff of this file.
"""

import argparse
import inspect

import lmmx
from lmmx import cli

PARAMETERS = {
    "Dataset": ("images", "labels", "split"),
    "ForwardTrace": ("linear", "hidden", "hidden_argmin", "logits", "logit_argmax"),
    "ImportanceMap": ("scores", "ordering"),
    "LmmParams": ("scales", "minplus_weights", "maxplus_weights", "temperature"),
    "MedoidSet": ("vectors", "labels", "source_indices"),
    "MetricsReport": ("confusion", "accuracy", "fidelity", "stability", "seconds_per_image"),
    "TrainConfig": ("epochs", "batch_size", "lr0", "lr_decay", "seed"),
    "batch_logits": ("params", "images"),
    "batch_predict": ("params", "images"),
    "calibrate_temperature": ("params", "data", "target"),
    "compute_report": ("params", "data", "explainers", "steps", "sigma", "m", "seed",
                       "timing_images", "workers"),
    "confusion_matrix": ("params", "data"),
    "export_map": ("imap", "path", "fmt"),
    "fidelity": ("params", "explainer", "data", "steps"),
    "forward": ("params", "x"),
    "init_params": ("medoids", "k0"),
    "integrated_gradients": ("params", "x", "steps"),
    "load_model": ("path",),
    "load_npz_dataset": ("path",),
    "nearest_medoid_predict": ("medoids", "x"),
    "pixel_fragility": ("params", "x"),
    "save_model": ("params", "path"),
    "select_medoids": ("train", "n_medoids", "strategy", "seed"),
    "shapley_sampling": ("params", "x", "permutations", "seed"),
    "stability": ("params", "explainer", "data", "sigma", "m", "seed"),
    "subgradient": ("params", "images", "labels"),
    "synth_dataset": ("n_pixels", "n_per_class", "centers", "noise_sigma", "seed", "split"),
    "timing": ("params", "explainer", "data", "n"),
    "train": ("params", "train_data", "val_data", "config"),
}

FLAGS = {
    "train": ("--data", "--h1", "--strategy", "--k0", "--epochs", "--batch", "--lr0",
              "--lr-decay", "--seed", "--target", "--out"),
    "evaluate": ("--model", "--data"),
    "explain": ("--model", "--data", "--split", "--index", "--method", "--seed", "--ig-steps",
                "--permutations", "--out", "--csv"),
    "metrics": ("--model", "--data", "--split", "--methods", "--steps", "--sigma", "--m",
                "--seed", "--ig-steps", "--permutations", "--limit", "--out"),
    "selftest": (),
}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lmmx import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(lmmx.__all__) <= namespace.keys()
    assert len(set(lmmx.__all__)) == len(lmmx.__all__)


def test_public_parameters_match_the_table():
    # dataclass signatures list their fields, so TrainConfig's knobs are pinned too
    found = {}
    for name in lmmx.__all__:
        obj = getattr(lmmx, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            found[name] = tuple(inspect.signature(obj).parameters)
    assert found == PARAMETERS


def test_subcommand_flags_match_the_table():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: tuple(flag for action in sub._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
             for name, sub in commands.choices.items()}
    assert found == FLAGS
