"""Graph signal recovery toolkit.

Recovers signals that vary slowly along the edges of a directed, weighted
graph: inpainting from a subset of nodes, low-rank matrix completion,
outlier-robust variants of both, and anomaly detection, together with
executable error bounds, data generation, and an experiment runner.
"""

from .analysis import (
    BoundCheck,
    BoundReport,
    KNormOperator,
    OutlierModel,
    ResidualParts,
    inpainting_bound,
    nuclear_tv_bound,
    residual_decomposition,
    subspace_smoothness_bound,
    tv_svd_terms,
    verify_inpainting_bound,
)
from .datagen import (
    FeatureTable,
    GraphBuildSpec,
    SyntheticInstance,
    SyntheticSpec,
    build_knn_graph,
    corrupt_labels,
    eigen_basis,
    kernel_weights,
    laplacian_from_shift,
    pairwise_distances,
    random_features,
    sample_mask,
    stream_rng,
    synth_instance,
    synth_opinion_instance,
)
from .errors import (
    BoundNotApplicable,
    ConfigError,
    DataError,
    DegenerateDistances,
    DimensionMismatch,
    EigensolveFailed,
    EmptyAccessibleSet,
    EmptyGrid,
    EmptyMask,
    GsrecError,
    Infeasible,
    InconsistentInputs,
    KTooLarge,
    NegativeThreshold,
    NonBinaryInput,
    NonFiniteObjective,
    NonOrthonormalBasis,
    NonSymmetricLaplacian,
    NotDiagonalizable,
    ZeroSpectralRadius,
)
from .experiments import (
    CvSelection,
    ExperimentSpec,
    MetricReport,
    combine_opinions,
    cross_validate,
    evaluate,
    laplacian_baseline,
    run_experiment,
    solve_recovery,
    threshold_labels,
)
from .graph import (
    GraphShift,
    SpectralBasis,
    cycle_shift,
    gft,
    igft,
    matrix_variation,
    normalize_shift,
    quadratic_variation,
    spectral_decomposition,
    spectral_radius,
    tilde_shift,
)
from .io import (
    load_bundle,
    load_graph,
    load_mask_csv,
    load_signal_csv,
    load_solver_config,
    save_bundle,
    save_graph_dense,
    save_graph_edges,
    save_mask_csv,
    save_result_json,
    save_signal_csv,
    save_solver_config,
)
from .prox import (
    factorized,
    shrink,
    svt,
)
from .solvers import (
    RecoveryResult,
    SolverConfig,
    anomaly_detect,
    anomaly_detect_constrained,
    gmcm,
    gmcr,
    gsr_admm,
    gtvm,
    gtvr,
    rgtvr,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
