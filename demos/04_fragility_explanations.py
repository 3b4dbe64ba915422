#!/usr/bin/env python3
"""Pixel fragility next to integrated gradients and Shapley sampling.

Fragility asks, per pixel: how far must this pixel move before a neuron of
the opposite class can reach the winning activation level?  Small values
mean fragile, decision-critical pixels.  The demo trains a small image
classifier whose signal lives in a known region, renders all three
importance maps as PGM heatmaps, and prints where each method focuses.
"""

import os
import tempfile

import numpy as np

from lmmx import (TrainConfig, export_map, forward, init_params, integrated_gradients,
                  pixel_fragility, select_medoids, shapley_sampling, synth_dataset, train)
from lmmx.oracles import fragility_bruteforce_flip

side = 4
n_pixels = side * side
rng = np.random.default_rng(3)

# class signal planted in pixels 5 and 10
base = rng.uniform(0.4, 0.6, n_pixels)
c0, c1 = base.copy(), base.copy()
c0[[5, 10]] = 0.15
c1[[5, 10]] = 0.85
centers = np.stack([c0, c1])

train_data = synth_dataset(n_pixels, 120, centers, 0.06, seed=4, split="train")
val_data = synth_dataset(n_pixels, 40, centers, 0.06, seed=5, split="val")

params = init_params(select_medoids(train_data, 4, seed=0), 1.0)
params, _ = train(params, train_data, val_data, TrainConfig(epochs=25, seed=0))

x = synth_dataset(n_pixels, 1, centers, 0.06, seed=6).images[0]
print("explaining one class-0 image; planted informative pixels: 5 and 10")
print("predicted class:", forward(params, x).predicted)

maps = {
    "fragility": pixel_fragility(params, x),
    "intgrad": integrated_gradients(params, x, steps=50),
    "shapley": shapley_sampling(params, x, permutations=200, seed=0),
}

with tempfile.TemporaryDirectory(prefix="lmmx_maps_") as out_dir:
    for name, imap in maps.items():
        top = imap.ranking()[:4]
        print(f"\n{name}: top-4 pixels {top.tolist()} (ordering: {imap.ordering})")
        grid = np.array([f"{v: .3f}" for v in imap.scores]).reshape(side, side)
        for row in grid:
            print("   ", "  ".join(row))
        export_map(imap, os.path.join(out_dir, f"{name}.pgm"), "pgm")
        export_map(imap, os.path.join(out_dir, f"{name}.csv"), "csv")
    print(f"\nheatmaps written to {out_dir}: {sorted(os.listdir(out_dir))}"
          " (PGM: lighter = more important; removed when the demo ends)")

# fragility scores hold the winning logit fixed; the brute-force flip scan
# moves it too, so the two are related but not equal
for pixel in (5, 10, 0):
    score = pixel_fragility(params, x).scores[pixel]
    flip = fragility_bruteforce_flip(params, x, pixel, grid=401)
    flip_text = "none in [-2, 2]" if flip is None else f"{flip:.3f}"
    print(f"pixel {pixel:2d}: fragility {score:.3f}   actual flip distance {flip_text}")
