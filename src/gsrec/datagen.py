"""Graph construction from feature data and synthetic instance generation.

Every randomized operation takes an explicit seed and derives its generator
from ``(seed, stream tag, extra indices)`` through numpy's SeedSequence, so
distinct operations never share a stream and repeated calls with the same
seed are bit-identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DegenerateDistances,
    DimensionMismatch,
    EmptyMask,
    InconsistentInputs,
    KTooLarge,
)
from .graph import GraphShift, normalize_shift

# Stream tags for seed derivation; never reuse across operations.
STREAM_MASK = 1
STREAM_CORRUPT = 2
STREAM_SYNTH = 3
STREAM_SPLIT = 4
STREAM_GRAPH = 5
STREAM_OPINION = 6


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Generator for one operation: seeded by (seed, tags...)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


@dataclass(frozen=True)
class FeatureTable:
    """Feature rows used to build a similarity graph, one row per node.

    NaN marks a missing value and is only allowed with ``allow_missing``.
    """

    values: np.ndarray
    allow_missing: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch(f"features must be 2-d, got {v.ndim}-d")
        if np.any(np.isinf(v)):
            raise ValueError("features must not contain infinities")
        if not self.allow_missing and np.any(np.isnan(v)):
            raise ValueError("features contain NaN but allow_missing is False")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GraphBuildSpec:
    """How to turn features or distances into a shift operator."""

    k: int = 8
    metric: str = "euclidean"  # euclidean | manhattan | precomputed
    normalization: str = "row"  # row | column
    symmetrize: bool = False
    missing: str = "mean"  # mean | exclude

    def __post_init__(self):
        if self.metric not in ("euclidean", "manhattan", "precomputed"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.normalization not in ("row", "column"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.missing not in ("mean", "exclude"):
            raise ValueError(f"unknown missing policy {self.missing!r}")
        if self.k < 1:
            raise KTooLarge("k must be at least 1")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic smooth-signal instance."""

    n: int
    l: int = 1
    recipe: str = "eigen"  # eigen | diffusion
    rank: int | None = None  # eigen recipe; None means max(2, n // 10)
    diffusion_steps: int = 3
    noise_sigma: float = 0.0
    outliers_per_column: int = 0
    outlier_lo: float = 0.0
    outlier_hi: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise DimensionMismatch("n and l must be at least 1")
        if self.recipe not in ("eigen", "diffusion"):
            raise ValueError(f"unknown recipe {self.recipe!r}")
        if self.rank is not None and not (1 <= self.rank <= self.n):
            raise ValueError("rank must lie in [1, n]")
        if self.diffusion_steps < 1:
            raise ValueError("diffusion_steps must be at least 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.outliers_per_column < 0:
            raise ValueError("outliers_per_column must be nonnegative")
        if self.outliers_per_column > self.n:
            raise KTooLarge(
                f"{self.outliers_per_column} outliers per column exceeds {self.n} nodes"
            )
        if self.outlier_lo < 0 or self.outlier_hi < self.outlier_lo:
            raise ValueError("outlier range needs 0 <= lo <= hi")

    @property
    def effective_rank(self) -> int:
        return self.rank if self.rank is not None else max(2, self.n // 10)


@dataclass(frozen=True)
class SyntheticInstance:
    """Ground truth and observation for one synthetic draw: T = x0 + noise + outliers."""

    x0: np.ndarray
    noise: np.ndarray
    outliers: np.ndarray
    observed: np.ndarray
    spec: SyntheticSpec = field(repr=False)
    seed: int = 0


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def pairwise_distances(features: FeatureTable | np.ndarray,
                       metric: str = "euclidean",
                       missing: str = "mean") -> np.ndarray:
    """Symmetric distance matrix between feature rows.

    Rows with missing values (NaN) are compared over co-observed coordinates
    and the sum is rescaled to the full dimension; pairs with no co-observed
    coordinate get the mean finite distance ("mean") or infinity ("exclude").
    """
    if isinstance(features, FeatureTable):
        values = features.values
    else:
        values = FeatureTable(np.asarray(features, dtype=float),
                              allow_missing=bool(np.any(np.isnan(features)))).values
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(f"unknown metric {metric!r}")
    observed = np.isfinite(values)
    if observed.all():
        kind = "euclidean" if metric == "euclidean" else "cityblock"
        d = cdist(values, values, kind)
        return 0.5 * (d + d.T)

    n, dim = values.shape
    filled = np.where(observed, values, 0.0)
    obs = observed.astype(float)
    counts = obs @ obs.T
    acc = np.zeros((n, n))
    for j in range(dim):
        col = filled[:, j]
        diff = np.abs(col[:, None] - col[None, :]) if metric == "manhattan" \
            else (col[:, None] - col[None, :]) ** 2
        acc += diff * np.outer(obs[:, j], obs[:, j])
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = acc * (dim / counts)
    if metric == "euclidean":
        scaled = np.sqrt(scaled)
    has_pair = counts > 0
    if missing == "exclude":
        scaled[~has_pair] = np.inf
    else:
        off = has_pair & ~np.eye(n, dtype=bool)
        fallback = scaled[off].mean() if off.any() else 0.0
        scaled[~has_pair] = fallback
    np.fill_diagonal(scaled, 0.0)
    return 0.5 * (scaled + scaled.T)


def kernel_weights(distances: np.ndarray) -> np.ndarray:
    """Gaussian-style similarity kernel scaled by the total distance mass.

    ``P[i, j] = exp(-n^2 * d[i, j] / sum(d))`` computed over all pairwise
    distances before any pruning, so the scale reflects the whole point set.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatch(f"distances must be square, got {d.shape}")
    if np.any(np.isnan(d)):
        raise ValueError("distances must not contain NaN")
    n = d.shape[0]
    finite = np.isfinite(d)
    total = float(d[finite].sum())
    if total <= 0.0:
        raise DegenerateDistances("all pairwise distances vanish")
    with np.errstate(over="ignore"):
        p = np.exp(-(n ** 2) * d / total)
    p[~finite] = 0.0
    return p


def build_knn_graph(data: FeatureTable | np.ndarray,
                    spec: GraphBuildSpec = GraphBuildSpec()) -> GraphShift:
    """Directed k-nearest-neighbor graph with kernel weights, as a shift.

    Each node keeps edges from its k nearest others (ties broken toward the
    smaller index), weighted by :func:`kernel_weights` evaluated on the full
    distance matrix. Weights are then normalized per row (default) or per
    column and finally scaled to unit spectral radius.

    Raises :class:`DegenerateDistances`, naming the node, when a node has
    fewer than k other nodes at finite distance (possible with
    ``missing="exclude"``), or when the kernel weights of its k nearest
    neighbors all underflow to zero. A node that is nobody's neighbor keeps
    a zero column; that is legal.
    """
    if spec.metric == "precomputed":
        d = np.asarray(data.values if isinstance(data, FeatureTable) else data,
                       dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"distance matrix must be square, got {d.shape}")
        if np.any(np.isnan(d)):
            raise ValueError("distances must not contain NaN")
        if not np.allclose(d, d.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(d).max())):
            raise InconsistentInputs("distance matrix must be symmetric")
    else:
        d = pairwise_distances(data, metric=spec.metric, missing=spec.missing)
    n = d.shape[0]
    if spec.k >= n:
        raise KTooLarge(f"k={spec.k} needs at least k+1={spec.k + 1} nodes, have {n}")
    kernel = kernel_weights(d)

    ranked = d.copy()
    np.fill_diagonal(ranked, np.inf)
    short = np.flatnonzero(np.isfinite(ranked).sum(axis=1) < spec.k)
    if short.size:
        raise DegenerateDistances(
            f"node {short[0]} has fewer than k={spec.k} other nodes at finite distance")
    order = np.argsort(ranked, axis=1, kind="stable")[:, : spec.k]
    weights = np.zeros_like(kernel)
    rows = np.repeat(np.arange(n), spec.k)
    weights[rows, order.ravel()] = kernel[rows, order.ravel()]
    empty = np.flatnonzero(weights.sum(axis=1) == 0.0)
    if empty.size:
        raise DegenerateDistances(
            f"node {empty[0]}: the kernel weights to its {spec.k} nearest "
            f"neighbors all underflow to zero")

    if spec.symmetrize:
        weights = np.maximum(weights, weights.T)
    if spec.normalization == "row":
        sums = weights.sum(axis=1, keepdims=True)
        weights = np.divide(weights, sums, out=np.zeros_like(weights),
                            where=sums > 0)
    else:
        sums = weights.sum(axis=0, keepdims=True)
        weights = np.divide(weights, sums, out=np.zeros_like(weights),
                            where=sums > 0)
    return normalize_shift(GraphShift(weights))


def random_features(n: int, dim: int, seed: int) -> np.ndarray:
    """Standard normal feature rows, for random test graphs."""
    return stream_rng(seed, STREAM_GRAPH).standard_normal((n, dim))


def synth_instance(shift: GraphShift, spec: SyntheticSpec, seed: int,
                   *subkeys: int) -> SyntheticInstance:
    """Draw a smooth signal matrix with additive noise and sparse outliers.

    The smooth part combines the lowest-variation eigenvectors of
    ``(I - A)^T (I - A)`` (recipe "eigen", rank columns) or repeatedly applies
    the shift to white noise (recipe "diffusion"); either way it is rescaled
    to unit standard deviation. Noise is white Gaussian. Outliers place
    exactly ``outliers_per_column`` entries per column, uniform positions,
    magnitudes uniform in the given range with random sign. The observation
    is the exact sum of the three parts.
    """
    from .graph import tilde_shift

    if shift.n != spec.n:
        raise DimensionMismatch(f"shift has {shift.n} nodes, spec wants {spec.n}")
    rng = stream_rng(seed, STREAM_SYNTH, *subkeys)
    n, l = spec.n, spec.l
    if spec.recipe == "eigen":
        _, vecs = np.linalg.eigh(tilde_shift(shift))
        basis = vecs[:, : spec.effective_rank]
        x0 = basis @ rng.standard_normal((spec.effective_rank, l))
    else:
        x0 = rng.standard_normal((n, l))
        for _ in range(spec.diffusion_steps):
            x0 = shift.weights @ x0
    scale = x0.std()
    if scale > 1e-12:
        x0 = x0 / scale
    noise = spec.noise_sigma * rng.standard_normal((n, l)) \
        if spec.noise_sigma > 0 else np.zeros((n, l))
    outliers = np.zeros((n, l))
    k = spec.outliers_per_column
    if k > 0:
        for col in range(l):
            pos = rng.choice(n, size=k, replace=False)
            mag = rng.uniform(spec.outlier_lo, spec.outlier_hi, size=k)
            sign = rng.choice(np.array([-1.0, 1.0]), size=k)
            outliers[pos, col] = sign * mag
    observed = x0 + noise + outliers
    return SyntheticInstance(x0=x0, noise=noise, outliers=outliers,
                             observed=observed, spec=spec, seed=seed)


def sample_mask(shape: tuple[int, ...], ratio: float, seed: int,
                *subkeys: int) -> np.ndarray:
    """Uniform accessible-set mask covering round(ratio * size) entries.

    Extra subkeys split the random stream, so repeated draws inside one
    experiment stay independent yet reproducible.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    size = int(np.prod(shape))
    count = round_half_up(ratio * size)
    if count == 0:
        raise EmptyMask(f"ratio {ratio} over {size} entries selects nothing")
    flat = np.zeros(size, dtype=bool)
    chosen = stream_rng(seed, STREAM_MASK, *subkeys).choice(size, size=count, replace=False)
    flat[chosen] = True
    return flat.reshape(shape)


def corrupt_labels(values: np.ndarray, mask: np.ndarray, fraction: float,
                   mode: str, seed: int, *subkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt a fraction of the accessible entries.

    mode "classification" flips the sign; mode "regression" adds five
    accessible-set standard deviations with random sign. Returns the
    corrupted copy and a boolean map of the corrupted entries.
    """
    if mode not in ("classification", "regression"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != values.shape:
        raise DimensionMismatch("mask must be boolean and match the values")
    accessible = np.flatnonzero(mask.ravel())
    count = round_half_up(fraction * accessible.size)
    corrupted = values.copy()
    hit = np.zeros_like(mask)
    if count == 0:
        return corrupted, hit
    rng = stream_rng(seed, STREAM_CORRUPT, *subkeys)
    chosen = accessible[rng.choice(accessible.size, size=count, replace=False)]
    flat = corrupted.ravel()
    if mode == "classification":
        flat[chosen] = -flat[chosen]
    else:
        std = values[mask].std()
        sign = rng.choice(np.array([-1.0, 1.0]), size=count)
        flat[chosen] = flat[chosen] + sign * 5.0 * std
    hit.ravel()[chosen] = True
    return corrupted, hit


def synth_opinion_instance(n: int, experts: int, easy_acc: float, hard_acc: float,
                           hard_fraction: float, k_neighbors: int,
                           seed: int, *subkeys: int,
                           ) -> tuple[GraphShift, np.ndarray, np.ndarray, np.ndarray]:
    """Two-community graph with noisy expert opinions on the node labels.

    Half the nodes form each community (labels +1 / -1); features are
    Gaussian blobs, the graph their k-nearest-neighbor kernel graph. Experts
    answer each node correctly with probability easy_acc, except on a random
    hard subset where the probability drops to hard_acc. Returns
    (shift, truth, opinions, hard_node_mask) with opinions shaped
    (n, experts).
    """
    rng = stream_rng(seed, STREAM_OPINION, *subkeys)
    half = n // 2
    centers = np.zeros((n, 2))
    centers[half:, 0] = 4.0
    features = centers + rng.standard_normal((n, 2))
    truth = np.where(np.arange(n) < half, 1.0, -1.0)
    shift = build_knn_graph(features, GraphBuildSpec(k=k_neighbors))
    hard = np.zeros(n, dtype=bool)
    n_hard = round_half_up(hard_fraction * n)
    if n_hard:
        hard[rng.choice(n, size=n_hard, replace=False)] = True
    acc = np.where(hard, hard_acc, easy_acc)
    correct = rng.uniform(size=(n, experts)) < acc[:, None]
    opinions = np.where(correct, truth[:, None], -truth[:, None])
    return shift, truth, opinions, hard


def laplacian_from_shift(shift: GraphShift) -> np.ndarray:
    """Combinatorial Laplacian of the symmetrized nonnegative weights."""
    w = np.maximum(shift.weights, shift.weights.T)
    w = np.maximum(w, 0.0)
    return np.diag(w.sum(axis=1)) - w
