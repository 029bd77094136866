"""Each input guard of the library raises its own error on a bad input."""

import numpy as np
import pytest

from gsrec import (
    DimensionMismatch,
    EmptyMask,
    GraphBuildSpec,
    GraphShift,
    InconsistentInputs,
    NegativeThreshold,
    OutlierModel,
    SolverConfig,
    SpectralBasis,
    SyntheticSpec,
    build_knn_graph,
    corrupt_labels,
    cross_validate,
    cycle_shift,
    gmcm,
    gmcr,
    gsr_admm,
    laplacian_baseline,
    pairwise_distances,
    residual_decomposition,
    solve_recovery,
    spectral_decomposition,
    subspace_smoothness_bound,
    svt,
)

SHIFT = cycle_shift(4)
ALL = np.ones(4, dtype=bool)
FEATURES = np.arange(8.0).reshape(4, 2)
DISTANCES = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
VALUES = np.arange(4.0)
# a basis whose inverse is not the inverse of its vectors
WRONG_INVERSE = SpectralBasis(values=np.ones(4), vectors=np.eye(4), inverse=2 * np.eye(4))

GUARDS = {
    "solve_recovery-mask-shape": (DimensionMismatch, "mask shape", lambda: solve_recovery(
        "gtvm", VALUES, ALL[:3], SHIFT)),
    "cross_validate-mask-shape": (DimensionMismatch, "mask shape", lambda: cross_validate(
        "gtvr", VALUES, ALL[:3], SHIFT, [SolverConfig()], 0)),
    "cross_validate-one-entry": (EmptyMask, "two accessible", lambda: cross_validate(
        "gtvr", VALUES, np.arange(4) == 0, SHIFT, [SolverConfig()], 0)),
    "gmcm-mask-not-boolean": (DimensionMismatch, "boolean", lambda: gmcm(
        VALUES, np.ones(4), SHIFT)),
    "gmcr-mask-shape": (DimensionMismatch, "mask shape", lambda: gmcr(
        np.ones((4, 2)), np.ones((4, 3), dtype=bool), SHIFT)),
    "gsr_admm-mask-shape": (DimensionMismatch, "mask shape", lambda: gsr_admm(
        np.ones((4, 2)), ALL, SHIFT)),
    "laplacian-not-square": (DimensionMismatch, "square", lambda: laplacian_baseline(
        VALUES, ALL, np.zeros((4, 3)), 1.0)),
    "svt-negative-threshold": (NegativeThreshold, "nonnegative", lambda: svt(
        np.eye(3), -1.0)),
    "svt-not-a-matrix": (DimensionMismatch, "matrix", lambda: svt(VALUES, 1.0)),
    "knn-unknown-metric": (ValueError, "metric", lambda: GraphBuildSpec(metric="cosine")),
    "knn-unknown-missing": (ValueError, "missing", lambda: GraphBuildSpec(missing="drop")),
    "synthetic-diffusion-steps": (ValueError, "diffusion_steps", lambda: SyntheticSpec(
        n=4, diffusion_steps=0)),
    "synthetic-negative-outliers": (ValueError, "outliers_per_column",
                                    lambda: SyntheticSpec(n=4, outliers_per_column=-1)),
    "features-not-2d": (DimensionMismatch, "2-d", lambda: build_knn_graph(
        VALUES, GraphBuildSpec(k=1))),
    "features-infinite": (ValueError, "infinities", lambda: build_knn_graph(
        np.where(FEATURES == 3.0, np.inf, FEATURES), GraphBuildSpec(k=1))),
    "distances-unknown-metric": (ValueError, "metric", lambda: pairwise_distances(
        FEATURES, "cosine")),
    "precomputed-not-square": (DimensionMismatch, "square", lambda: build_knn_graph(
        DISTANCES[:3], GraphBuildSpec(k=1, metric="precomputed"))),
    "precomputed-nan": (ValueError, "NaN", lambda: build_knn_graph(
        np.where(DISTANCES == 3.0, np.nan, DISTANCES),
        GraphBuildSpec(k=1, metric="precomputed"))),
    "corrupt-fraction": (ValueError, "fraction", lambda: corrupt_labels(
        VALUES, ALL, 1.5, "regression", 0)),
    "corrupt-mask-shape": (DimensionMismatch, "mask", lambda: corrupt_labels(
        VALUES, ALL[:3], 0.5, "regression", 0)),
    "shift-3d": (DimensionMismatch, "square", lambda: GraphShift(np.zeros((2, 2, 2)))),
    "shift-no-nodes": (DimensionMismatch, "one node", lambda: GraphShift(np.zeros((0, 0)))),
    "cycle-no-nodes": (DimensionMismatch, "one node", lambda: cycle_shift(0)),
    "outliers-mismatched": (DimensionMismatch, "matching", lambda: OutlierModel(
        np.arange(2), np.ones(3))),
    "subspace-coefficients": (DimensionMismatch, "basis width", lambda: (
        subspace_smoothness_bound(np.eye(4)[:, :2], np.ones(3), SHIFT))),
    "residual-basis-size": (DimensionMismatch, "basis size", lambda: residual_decomposition(
        VALUES, VALUES, OutlierModel(np.zeros(0, dtype=int), np.zeros(0)),
        spectral_decomposition(cycle_shift(3)))),
    "residual-wrong-inverse": (InconsistentInputs, "identity", lambda: (
        residual_decomposition(VALUES, np.zeros(4), OutlierModel(
            np.zeros(0, dtype=int), np.zeros(0)), WRONG_INVERSE))),
}


@pytest.mark.parametrize("error, match, call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(error, match, call):
    with pytest.raises(error, match=match):
        call()
