#!/usr/bin/env python3
"""Full pipeline on the PneumoniaMNIST chest-X-ray archive, when available.

Looks for the dataset at $LMMX_PNEUMONIA_NPZ or data/pneumoniamnist.npz.
The archive is the standard MedMNIST NPZ (train/val/test images and
labels, 28x28 uint8); see the README for how to obtain it.  The demo runs
these commands through ``lmmx.cli.run``, writing into the current directory:

    lmmx train --data pneumoniamnist.npz --h1 25 --out model.lmmp
    lmmx evaluate --model model.lmmp --data pneumoniamnist.npz
    lmmx explain --model model.lmmp --data pneumoniamnist.npz \
        --index 0 --method fragility --out fragility_test0.pgm   # and 1, 3, 176
    lmmx metrics --model model.lmmp --data pneumoniamnist.npz --out xray_report.txt
"""

import os
import sys

from lmmx.cli import run

path = os.environ.get("LMMX_PNEUMONIA_NPZ", "")
if not path:
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "..", "data", "pneumoniamnist.npz")
if not os.path.exists(path):
    print("chest-X-ray archive not found; set LMMX_PNEUMONIA_NPZ or place "
          "data/pneumoniamnist.npz (see README).")
    sys.exit(0)


def lmmx(*argv):
    """Run one ``lmmx`` command; stop with its exit code if it fails."""
    print("$ lmmx " + " ".join(argv), flush=True)
    code = run(list(argv))
    if code:
        sys.exit(code)


lmmx("train", "--data", path, "--h1", "25", "--out", "model.lmmp")
lmmx("evaluate", "--model", "model.lmmp", "--data", path)
for index in (0, 1, 3, 176):
    lmmx("explain", "--model", "model.lmmp", "--data", path, "--index", str(index),
         "--method", "fragility", "--out", f"fragility_test{index}.pgm")
print("fidelity, stability and timing on the test split take a few minutes; "
      "shapley dominates")
lmmx("metrics", "--model", "model.lmmp", "--data", path, "--out", "xray_report.txt")
