#!/usr/bin/env python3
"""Walk through one forward pass and its active path.

A linear-min-max-plus network stacks a signed scaling layer, a min-plus
layer and a max-plus layer.  Because min and max are selections, every
logit is produced by exactly one hidden neuron, and every hidden neuron by
exactly one linear branch.  This demo builds a 3-pixel toy network and
prints that chain of winners.
"""

import numpy as np

from lmmx import LmmParams, forward
from lmmx.network import softmax_rows

rng = np.random.default_rng(0)

n_pixels, n_hidden, n_classes = 3, 4, 2
params = LmmParams(
    scales=rng.uniform(0.5, 1.5, 2 * n_pixels),
    minplus_weights=rng.normal(0.0, 1.0, (2 * n_pixels, n_hidden)),
    maxplus_weights=rng.normal(0.0, 1.0, (n_hidden, n_classes)),
)

x = rng.uniform(0.0, 1.0, n_pixels)
trace = forward(params, x)

print("input x             :", np.round(x, 4))
print("linear layer        :", np.round(trace.linear, 4))
print("  (pairs per pixel: +scale*x then -scale*x)")
print("hidden activations  :", np.round(trace.hidden, 4))
print("hidden winners      :", trace.hidden_argmin,
      "(linear branch feeding each neuron)")
print("logits              :", np.round(trace.logits, 4))
print("logit winners       :", trace.logit_argmax, "(hidden neuron per class)")
print("probabilities       :", np.round(softmax_rows(trace.logits, params.temperature), 4))
print("predicted class     :", trace.predicted)

print("\nactive path per class:")
for d in range(n_classes):
    h = trace.logit_argmax[d]
    i = trace.hidden_argmin[h]
    pixel, branch = divmod(i, 2)
    sign = "+" if branch == 0 else "-"
    print(f"  class {d}: logit {trace.logits[d]: .4f}"
          f" = g[{h}] + W2[{h},{d}]"
          f" ; g[{h}] = {sign}scale*x[{pixel}] + W1[{i},{h}]")

# each recorded winner reproduces its value exactly
for d in range(n_classes):
    h = trace.logit_argmax[d]
    assert trace.logits[d] == trace.hidden[h] + params.maxplus_weights[h, d]
for h in range(n_hidden):
    i = trace.hidden_argmin[h]
    assert trace.hidden[h] == trace.linear[i] + params.minplus_weights[i, h]
print("\nwinner identities verified: every value is exactly its winner's sum")
