"""Spike detection in a smooth graph signal.

Plant a handful of large spikes in an otherwise smooth signal and pull
them back out with the sparse-outlier solver.  The second half does the
same job under an explicit smoothness budget instead of a sparsity
weight, which is the knob to reach for when the acceptable residual
roughness is known but the outlier count is not.
"""

import numpy as np

from gsrec import (GraphBuildSpec, SyntheticSpec, anomaly_detect,
                   anomaly_detect_constrained, build_knn_graph,
                   quadratic_variation, random_features, synth_instance)

n = 100
shift = build_knn_graph(random_features(n, 2, 11), GraphBuildSpec(k=8))
inst = synth_instance(shift, SyntheticSpec(n=n, rank=5), 12)
x0 = inst.x0[:, 0]

rng = np.random.default_rng(13)
support = np.sort(rng.choice(n, size=4, replace=False))
t = x0.copy()
t[support] += 8.0 * (x0.max() - x0.min()) * rng.choice([-1.0, 1.0], size=4)
print("planted spikes at nodes:", support.tolist())

res = anomaly_detect(t, shift, beta_reg=1.0)
found = np.flatnonzero(res.outliers)
print("sparsity-weighted detector found:", found.tolist(),
      f"({res.iterations} iterations)")
assert np.array_equal(found, support)

# Same signal, but ask for a cleaned version whose variation is no more
# than a tenth of the spiked signal's.  The solver follows the detector's
# solution path down in the sparsity weight to where the budget is met.
budget = np.sqrt(0.1 * quadratic_variation(t, shift))
con = anomaly_detect_constrained(t, shift, eta_smooth=budget)
print("budgeted detector found: ",
      np.flatnonzero(np.abs(con.outliers) > 1e-6).tolist())
print(f"cleaned-signal variation is "
      f"{quadratic_variation(con.x, shift) / budget**2:.6f} of the budget "
      f"(cap met within the solver's 1e-6 relative slack)")
print(f"largest spike magnitude error: "
      f"{np.max(np.abs(res.outliers[support] - (t - x0)[support])):.3f}")
