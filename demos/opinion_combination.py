"""
Combining noisy expert opinions over a similarity graph
=======================================================

Several experts vote +-1 on every node of a two-cluster point cloud.
Votes are reliable on most nodes but noisy on a hard subset.  Three
ways to merge the votes into one label per node:

  avg           sign of the mean vote (majority, ties toward +1)
  gtvr-denoise  average first, then treat the mean-vote vector as a
                noisy graph signal with sparse errors and run the
                robust recovery before thresholding
  gmcr-denoise  denoise the full node-by-expert opinion matrix with
                the low-rank graph recovery, then average and threshold

The graph step is what fixes the hard nodes: their neighbours are
mostly easy nodes voting correctly.
"""

import numpy as np

from gsrec import SolverConfig, combine_opinions, evaluate, synth_opinion_instance

methods = ("avg", "gtvr-denoise", "gmcr-denoise")
config = SolverConfig(alpha=5.0, beta=1.0)
acc_sum = dict.fromkeys(methods, 0.0)

for seed in range(10):
    shift, truth, opinions, hard = synth_opinion_instance(
        n=120, experts=9, easy_acc=0.9, hard_acc=0.55, hard_fraction=0.3,
        k_neighbors=8, seed=seed)
    scores = {}
    for method in methods:
        merged = combine_opinions(opinions, method, shift=shift, config=config).x
        scores[method] = evaluate(truth, merged, score="classification").acc
        acc_sum[method] += scores[method]
    if seed < 3:
        print(f"seed {seed}: " + "  ".join(
            f"{m} {scores[m]:.3f}" for m in methods))

print("\nmean accuracy over 10 seeds:")
for method in methods:
    print(f"  {method:>13}: {acc_sum[method] / 10:.3f}")
