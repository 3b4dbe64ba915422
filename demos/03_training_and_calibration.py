#!/usr/bin/env python3
"""Sparse subgradient training and confidence calibration.

The loss is piecewise smooth; its subgradient touches at most C entries of
each weight tensor per sample, following the winning neuron and branch of
every class.  This demo trains a medoid-initialized model on a separable
two-cluster task, prints the learning curve and the returned model's
training-split accuracy, and then calibrates the softmax temperature so the
mean predicted-class confidence is 0.8.
"""

import numpy as np

from lmmx import (TrainConfig, batch_logits, calibrate_temperature, confusion_matrix, forward,
                  init_params, select_medoids, subgradient, synth_dataset, train)
from lmmx.metrics import accuracy_from_confusion
from lmmx.network import softmax_rows

centers = np.array([[0.1], [0.9]])
train_data = synth_dataset(1, 100, centers, noise_sigma=0.05, seed=0, split="train")
val_data = synth_dataset(1, 30, centers, noise_sigma=0.05, seed=1, split="val")

params = init_params(select_medoids(train_data, 2, "greedy-kmedoids", seed=0), 1.0)

x, y = train_data.images[0], int(train_data.labels[0])
trace = forward(params, x)
loss, *grads = subgradient(params, x[None], [y])
print(f"one sample (label {y}, loss {loss:.4f}), its active path:")
for d, h in enumerate(trace.logit_argmax):
    print(f"  class {d}: winning neuron {h}, whose winning branch is {trace.hidden_argmin[h]}")
print("its non-zero subgradient entries (all others are exactly zero):")
for name, grad in zip(("scales", "minplus_weights", "maxplus_weights"), grads):
    for idx in zip(*np.nonzero(grad)):
        print(f"  {name}[{', '.join(map(str, idx))}] = {grad[idx]:+.4f}")

config = TrainConfig(epochs=15, batch_size=16, lr0=0.05, seed=0)
params, history = train(params, train_data, val_data, config)

print("\nepoch  train_loss  val_acc")
for e, (loss, vacc) in enumerate(zip(history["train_loss"], history["val_accuracy"])):
    if e % 3 == 0 or e == config.epochs - 1:
        print(f"{e:5d}  {loss:10.4f}  {vacc:7.3f}")
train_acc = accuracy_from_confusion(confusion_matrix(params, train_data))
print(f"returned (best-validation) model, training-split accuracy: {train_acc:.3f}")

temperature = calibrate_temperature(params, val_data, target=0.8)
probs = softmax_rows(batch_logits(params, val_data.images), temperature)
print(f"\ncalibrated temperature: {temperature:.4f}")
print(f"mean predicted-class confidence on the calibration split: "
      f"{np.max(probs, axis=1).mean():.4f}")
