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
    anomaly_detect,
    build_knn_graph,
    corrupt_labels,
    cross_validate,
    cycle_shift,
    gmcm,
    gmcr,
    gsr_admm,
    gtvr,
    laplacian_baseline,
    laplacian_from_shift,
    matrix_variation,
    pairwise_distances,
    random_features,
    residual_decomposition,
    shrink,
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
# the one message of graph.check_signal, for a signal of 5 rows on 4 nodes
OTHER_NODE_COUNT = r"signal of 4 rows, got shape \(5,"
# a basis whose inverse is not the inverse of its vectors
WRONG_INVERSE = SpectralBasis(values=np.ones(4), vectors=np.eye(4), inverse=2 * np.eye(4))

GUARDS = {
    "solve_recovery-mask-shape": (DimensionMismatch, "mask shape", lambda: solve_recovery(
        "gtvm", VALUES, ALL[:3], SHIFT)),
    "cross_validate-mask-shape": (DimensionMismatch, "mask shape", lambda: cross_validate(
        "gtvr", VALUES, ALL[:3], SHIFT, [SolverConfig()], 0)),
    "solve_recovery-mask-float": (DimensionMismatch, "boolean", lambda: solve_recovery(
        "gtvm", VALUES, np.ones(4), SHIFT)),
    "cross_validate-mask-float": (DimensionMismatch, "boolean", lambda: cross_validate(
        "gtvr", VALUES, np.ones(4), SHIFT, [SolverConfig()], 0)),
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
    "svt-nan-threshold": (NegativeThreshold, "nonnegative", lambda: svt(np.eye(3), np.nan)),
    "shrink-nan-threshold": (NegativeThreshold, "nonnegative", lambda: shrink(
        np.array([1.0, -2.0]), np.nan)),
    "svt-not-a-matrix": (DimensionMismatch, "matrix", lambda: svt(VALUES, 1.0)),
    "cross_validate-node-count": (DimensionMismatch, OTHER_NODE_COUNT, lambda: cross_validate(
        "gtvr", np.ones(5), np.ones(5, dtype=bool), SHIFT, [SolverConfig()], 0)),
    "gmcr-node-count": (DimensionMismatch, OTHER_NODE_COUNT, lambda: gmcr(
        np.ones((5, 2)), np.ones((5, 2), dtype=bool), SHIFT)),
    "matrix_variation-node-count": (DimensionMismatch, OTHER_NODE_COUNT, lambda: (
        matrix_variation(np.ones((5, 2)), SHIFT))),
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
    "corrupt-mask-float": (DimensionMismatch, "boolean", lambda: corrupt_labels(
        VALUES, np.ones(4), 0.5, "regression", 0)),
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


# an unchecked NaN or inf weight reaches a dense SVD that does not converge,
# LAPACK complaints on stderr, or a lasso path run to its segment cap
KNN = build_knn_graph(random_features(60, 2, 1), GraphBuildSpec(k=8))
SIGNAL = np.sin(np.arange(60.0))
MEASURED = np.arange(60) % 3 != 0
WEIGHT_GUARDS = {
    "gtvr-alpha-nan": ("alpha", lambda: gtvr(SIGNAL, MEASURED, KNN, np.nan)),
    "laplacian-alpha-inf": ("alpha", lambda: laplacian_baseline(
        SIGNAL, MEASURED, laplacian_from_shift(KNN), np.inf)),
    "anomaly_detect-beta-nan": ("beta_reg", lambda: anomaly_detect(SIGNAL, KNN, np.nan)),
    "anomaly_detect-beta-inf": ("beta_reg", lambda: anomaly_detect(SIGNAL, KNN, np.inf)),
}


@pytest.mark.parametrize("name, call", WEIGHT_GUARDS.values(), ids=WEIGHT_GUARDS.keys())
def test_weight_guard_raises_quietly(name, call, capfd):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
        call()
    assert capfd.readouterr().err == ""
