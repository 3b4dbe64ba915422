#!/usr/bin/env python3
"""Full pipeline on the PneumoniaMNIST chest-X-ray archive, when available.

Looks for the dataset at $LMMX_PNEUMONIA_NPZ or data/pneumoniamnist.npz.
The archive is the standard MedMNIST NPZ (train/val/test images and
labels, 28x28 uint8); see the README for how to obtain it.  Equivalent CLI:

    lmmx train --data pneumoniamnist.npz --h1 25 --out model.lmmp
    lmmx evaluate --model model.lmmp --data pneumoniamnist.npz
    lmmx explain --model model.lmmp --data pneumoniamnist.npz \
        --index 0 --method fragility --out map.pgm
    lmmx metrics --model model.lmmp --data pneumoniamnist.npz --out report.txt
"""

import os
import sys
import time

from lmmx import (TrainConfig, calibrate_temperature, confusion_matrix,
                  export_map, init_params, integrated_gradients, pixel_fragility,
                  select_medoids, shapley_sampling, train)
from lmmx.metrics import accuracy_from_confusion, compute_report

path = os.environ.get("LMMX_PNEUMONIA_NPZ", "")
if not path:
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "..", "data", "pneumoniamnist.npz")
if not os.path.exists(path):
    print("chest-X-ray archive not found; set LMMX_PNEUMONIA_NPZ or place "
          "data/pneumoniamnist.npz (see README).")
    sys.exit(0)

from lmmx import load_npz_dataset

splits = load_npz_dataset(path)
print({name: data.n_samples for name, data in splits.items()})

print("selecting 25 medoids (greedy, Chebyshev distance)...")
medoids = select_medoids(splits["train"], 25, "greedy-kmedoids", seed=0)
params = init_params(medoids, 1.0)

start = time.perf_counter()
params = train(params, splits["train"], splits["val"], TrainConfig())[0]
val_accuracy = accuracy_from_confusion(confusion_matrix(params, splits["val"]))
print(f"trained in {time.perf_counter() - start:.0f}s; best val accuracy {val_accuracy:.4f}")

temperature = calibrate_temperature(params, splits["val"], 0.8)
print(f"calibrated temperature: {temperature:.4f}")

for name in ("train", "test"):
    confusion = confusion_matrix(params, splits[name])
    print(f"{name} confusion:\n{confusion}  accuracy "
          f"{accuracy_from_confusion(confusion):.4f}")

for index in (0, 1, 3, 176):
    imap = pixel_fragility(params, splits["test"].images[index])
    out = f"fragility_test{index}.pgm"
    export_map(imap, out, "pgm")
    print(f"fragility map for test[{index}] -> {out}")

explainers = {
    "fragility": lambda p, x: pixel_fragility(p, x),
    "intgrad": lambda p, x: integrated_gradients(p, x, steps=50),
    "shapley": lambda p, x: shapley_sampling(p, x, permutations=200, seed=0),
}
print("computing fidelity/stability/timing on the test split "
      "(a few minutes; shapley dominates)...")
report = compute_report(params, splits["test"], explainers,
                        steps=28, sigma=0.05, m=10, seed=0, timing_images=20)
print(report.format_table())
with open("xray_report.txt", "w", encoding="utf-8") as fh:
    fh.write("\n".join(report.key_value_lines()) + "\n")
print("report written to xray_report.txt")
