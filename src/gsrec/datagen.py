"""Graph construction from feature data and synthetic instance generation.

Every randomized operation takes an explicit seed and derives its generator
from ``(seed, stream tag, extra indices)`` through numpy's SeedSequence, so
distinct operations never share a stream and repeated calls with the same
seed are bit-identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateDistances,
    DimensionMismatch,
    EmptyMask,
    InconsistentInputs,
    KTooLarge,
    TooManyNodes,
)
from .graph import DENSE_MAX_NODES, GraphShift, _lowest_eigenpairs

# Stream tags for seed derivation; never reuse across operations.
STREAM_MASK = 1
STREAM_CORRUPT = 2
STREAM_SYNTH = 3
STREAM_SPLIT = 4
STREAM_GRAPH = 5
STREAM_OPINION = 6

# DENSE_MAX_NODES (from graph) caps the feature rows with missing values
# that build_knn_graph accepts: their distance matrix is compared over
# co-observed coordinates in a dense pass whose peak holds about 5.3 (n, n)
# float arrays, 1.1 GB at that n.

# cdist's name for each feature metric
_CDIST_METRIC = {"euclidean": "euclidean", "manhattan": "cityblock"}
# entries of one block of distances (1 MiB of float64, small enough to stay in
# a core's L2 cache): the distance mass, every exact ranking of full distance
# rows, and the symmetry check of precomputed distances go block by block
_BLOCK_ENTRIES = 2 ** 17


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Generator for one operation: seeded by (seed, tags...)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


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
        if self.outliers_per_column > 0 and self.outlier_hi == 0:
            raise ValueError("outliers need outlier_hi > 0; a zero range plants zeros")

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


def _feature_values(features) -> np.ndarray:
    """Feature rows as a 2-d float array, one row per node; NaN marks a
    missing value."""
    v = np.asarray(features, dtype=float)
    if v.ndim != 2:
        raise DimensionMismatch(f"features must be 2-d, got {v.ndim}-d")
    if v.shape[1] == 0:
        raise DimensionMismatch("features need at least one column")
    if np.any(np.isinf(v)):
        raise ValueError("features must not contain infinities")
    return v


def pairwise_distances(features: np.ndarray,
                       metric: str = "euclidean",
                       missing: str = "mean") -> np.ndarray:
    """Symmetric distance matrix between feature rows.

    Rows with missing values (NaN) are compared over co-observed coordinates
    and the sum is rescaled to the full dimension; pairs with no co-observed
    coordinate get the mean finite distance ("mean") or infinity ("exclude").
    That comparison holds several (n, n) arrays at once, so with missing
    values more than :data:`DENSE_MAX_NODES` rows raise
    :class:`TooManyNodes` before anything is allocated.
    """
    values = _feature_values(features)
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(f"unknown metric {metric!r}")
    observed = np.isfinite(values)
    if observed.all():
        # imported on first use: scipy.spatial adds 100 modules to start-up
        from scipy.spatial.distance import cdist

        d = cdist(values, values, _CDIST_METRIC[metric])
        return 0.5 * (d + d.T)

    n, dim = values.shape
    if n > DENSE_MAX_NODES:
        raise TooManyNodes(
            f"{n} feature rows with missing values; their dense distance "
            f"matrix allows at most {DENSE_MAX_NODES}")
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


def _kernel(distances: np.ndarray, n: int, total: float) -> np.ndarray:
    """Gaussian-style similarity kernel scaled by the total distance mass.

    ``P[i, j] = exp(-n^2 * d[i, j] / total)`` elementwise, where ``total``
    is the sum of all finite pairwise distances of the n points before any
    pruning (:func:`_finite_mass`, :func:`_distance_mass`), so the scale
    reflects the whole point set. Infinite distances get weight zero. Raises
    :class:`DegenerateDistances` unless ``total`` is positive and finite.
    """
    if not 0.0 < total < np.inf:
        raise DegenerateDistances(
            f"the total pairwise distance is {total}, not a positive finite scale")
    p = -(n ** 2) * distances
    p /= total
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p[~np.isfinite(distances)] = 0.0
    return p


def _finite_mass(d: np.ndarray) -> float:
    """Sum of the finite entries of d, summed in place: no copy of them."""
    return float(np.sum(d, where=np.isfinite(d)))


def _nearest(ranked: np.ndarray, nodes: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, sorted.

    ``ranked`` holds the distances of ``nodes`` to every node, each node's
    own entry set to infinity. Ties go to the smaller index.
    ``np.argpartition`` places the k-th and (k+1)-th smallest values; where
    they differ the first k positions hold the unique answer. A row where
    they are equal (an exact tie across the cut) sorts only its entries at
    or below the k-th value, by value and then column: the k columns a
    stable sort of the whole row would put first, without its O(n log n)
    cost. Raises :class:`DegenerateDistances`, naming the node, for a row
    with fewer than k finite entries.
    """
    short = np.flatnonzero(np.isfinite(ranked).sum(axis=1) < k)
    if short.size:
        raise DegenerateDistances(
            f"node {nodes[short[0]]} has fewer than k={k} other nodes at finite distance")
    part = np.argpartition(ranked, (k - 1, k), axis=1)
    rows = np.arange(ranked.shape[0])
    kth = ranked[rows, part[:, k - 1]]
    tied = np.flatnonzero(kth == ranked[rows, part[:, k]])
    nearest = part[:, :k]
    if tied.size:
        # rank only the entries at or below the k-th value: by row, value, column
        cut = ranked[tied]
        row, col = np.nonzero(cut <= kth[tied, None])
        col = col[np.lexsort((col, cut[row, col], row))]
        first = np.searchsorted(row, np.arange(tied.size))
        nearest[tied] = col[first[:, None] + np.arange(k)]
    return np.sort(nearest, axis=1)


def _rank_exactly(distance_rows, nodes: np.ndarray, k: int,
                  cols: np.ndarray, dists: np.ndarray) -> None:
    """Write the k nearest of each of ``nodes`` into ``cols`` and ``dists``.

    ``distance_rows(block)`` returns a new array of the full distance rows
    of the nodes in ``block``. A block holds at most ``_BLOCK_ENTRIES``
    distances, or one row where a row is longer, and is dropped before the
    next one is made; each row is ranked by :func:`_nearest` with its own
    entry set to infinity.
    """
    step = max(1, _BLOCK_ENTRIES // cols.shape[0])
    for lo in range(0, nodes.size, step):
        block = nodes[lo:lo + step]
        ranked = distance_rows(block)
        ranked[np.arange(block.size), block] = np.inf
        cols[block] = _nearest(ranked, block, k)
        dists[block] = np.take_along_axis(ranked, cols[block], axis=1)
        del ranked


def _dense_neighbors(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(columns, distances, distance mass) of each node's k nearest, from (n, n) d."""
    n = d.shape[0]
    cols, dists = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    _rank_exactly(lambda block: d[block], np.arange(n), k, cols, dists)
    return cols, dists, _finite_mass(d)


def _symmetric(d: np.ndarray, atol: float) -> bool:
    """Whether (n, n) d equals its transpose within atol, one block of rows at a time."""
    n = d.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    return all(np.allclose(d[lo:lo + step], d[:, lo:lo + step].T, rtol=0.0, atol=atol)
               for lo in range(0, n, step))


def _distance_mass(x: np.ndarray, metric: str) -> float:
    """Sum of all n^2 entries of ``cdist(x, x)``, each unordered pair computed once.

    Row blocks ``[lo, hi)`` meet the columns ``[lo, n)`` only: the block's
    square part on the diagonal counts once, the part to its right twice,
    which is exact because cdist is symmetric bit for bit and its diagonal
    is zero. Each block holds at most ``_BLOCK_ENTRIES`` distances, or one
    row where a row is longer, and is dropped before the next one is made.
    """
    # imported on first use: scipy.spatial adds 100 modules to start-up
    from scipy.spatial.distance import cdist

    n = x.shape[0]
    total = 0.0
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_ENTRIES // (n - lo)))
        block = cdist(x[lo:hi], x[lo:], _CDIST_METRIC[metric])
        total += float(block[:, :hi - lo].sum()) + 2.0 * float(block[:, hi - lo:].sum())
        del block
        lo = hi
    return total


def _tree_neighbors(x: np.ndarray, k: int,
                    metric: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(columns, distances, distance mass) of each row's k nearest, in O(n k) memory.

    A k-d tree returns k + 2 candidates per row: the row itself, k
    neighbors and one past the cut. Their distances are recomputed with
    cdist's arithmetic (coordinate by coordinate, in order), so they equal
    the dense matrix's bit for bit. A row goes through :func:`_nearest` on
    its full cdist row instead when the tree did not return the row itself
    (more than k + 1 points at distance zero) or when its k-th and (k+1)-th
    distances lie within 1e-12 relative, where the tree's own rounding could
    have swapped them; those rows get cdist in blocks of at most
    ``_BLOCK_ENTRIES`` distances (1 MiB). The distance mass comes from
    :func:`_distance_mass`, which computes each pair once in blocks of the
    same size.
    """
    # imported on first use: scipy.spatial adds 100 modules to start-up
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist

    n = x.shape[0]
    m = min(k + 2, n)  # with k = n - 1 there is nothing past the cut
    found = cKDTree(x).query(x, k=m, p=2 if metric == "euclidean" else 1)[1]
    rows = np.arange(n)
    own = found == rows[:, None]
    clear = own.any(axis=1)
    # drop each row's own point, or its farthest candidate where the tree
    # did not return the row (such a row is decided in full below)
    keep = np.ones_like(own)
    keep[rows, np.where(clear, own.argmax(axis=1), m - 1)] = False
    cols = found[keep].reshape(n, m - 1)
    acc = np.zeros(cols.shape)
    for j in range(x.shape[1]):
        diff = x[:, j, None] - x[cols, j]
        acc += diff * diff if metric == "euclidean" else np.abs(diff)
    dists = np.sqrt(acc) if metric == "euclidean" else acc
    order = np.lexsort((cols, dists))
    cols = np.take_along_axis(cols, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    if m - 1 > k:
        cut = dists[:, k]
        clear &= cut - dists[:, k - 1] > 1e-12 * cut
    cols, dists = cols[:, :k].copy(), dists[:, :k].copy()

    _rank_exactly(lambda block: cdist(x[block], x, _CDIST_METRIC[metric]),
                  np.flatnonzero(~clear), k, cols, dists)
    order = np.argsort(cols, axis=1)
    return (np.take_along_axis(cols, order, axis=1),
            np.take_along_axis(dists, order, axis=1), _distance_mass(x, metric))


def build_knn_graph(data: np.ndarray,
                    spec: GraphBuildSpec = GraphBuildSpec()) -> GraphShift:
    """Directed k-nearest-neighbor graph with kernel weights, as a shift.

    Each node keeps edges from its k nearest others (ties broken toward the
    smaller index), weighted by the kernel of :func:`_kernel` evaluated on
    those n k pairs only, and the weights go straight into a
    CSR matrix. They are then normalized per row (default) or per column and
    finally scaled to unit spectral radius.

    Complete feature rows (metric ``euclidean`` or ``manhattan``) take their
    neighbors from a k-d tree and sum the kernel's distance mass over 1 MiB
    blocks of the upper triangle, each pair once, O(n k) memory in all (see
    :func:`_tree_neighbors`): at n = 20 000, k = 8 the build peaks at 14 MB
    (tracemalloc) and takes about 0.6 s on one core of a Xeon guest.
    Precomputed distances and features with missing values go through the
    dense (n, n) distance matrix, ranked in 1 MiB blocks of rows, which with
    missing values allows at most :data:`DENSE_MAX_NODES` nodes.

    Raises :class:`DegenerateDistances`, naming the node, when a node has
    fewer than k other nodes at finite distance (possible with
    ``missing="exclude"``), or when the kernel weights of its k nearest
    neighbors all underflow to zero; and when the total distance mass is
    zero or overflows. A node that is nobody's neighbor keeps a zero column;
    that is legal.
    """
    k = spec.k
    if spec.metric == "precomputed":
        d = np.asarray(data, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"distance matrix must be square, got {d.shape}")
        if np.any(np.isnan(d)):
            raise ValueError("distances must not contain NaN")
        if not _symmetric(d, 1e-8 * (1.0 + max(d.max(), -d.min()))):
            raise InconsistentInputs("distance matrix must be symmetric")
        x = None
    else:
        x = _feature_values(data)
        d = None if np.isfinite(x).all() else pairwise_distances(
            x, metric=spec.metric, missing=spec.missing)
    n = (x if d is None else d).shape[0]
    if k >= n:
        raise KTooLarge(f"k={k} needs at least k+1={k + 1} nodes, have {n}")

    cols, dists, total = _tree_neighbors(x, k, spec.metric) if d is None \
        else _dense_neighbors(d, k)
    values = _kernel(dists.ravel(), n, total)
    empty = np.flatnonzero(values.reshape(n, k).sum(axis=1) == 0.0)
    if empty.size:
        raise DegenerateDistances(
            f"node {empty[0]}: the kernel weights to its {k} nearest "
            f"neighbors all underflow to zero")
    weights = sp.csr_array((values, cols.ravel(), np.arange(0, n * k + 1, k)),
                           shape=(n, n))
    weights.eliminate_zeros()  # an underflowed weight is no edge, nor a 0/0 below

    if spec.symmetrize:
        weights = weights.maximum(weights.T).tocsr()
    # divide each weight by its row (or column) sum; empty lines stay empty
    if spec.normalization == "row":
        lines = np.repeat(np.arange(n), np.diff(weights.indptr))
        sums = weights.sum(axis=1)
    else:
        lines, sums = weights.indices, weights.sum(axis=0)
    weights.data /= sums[lines]
    return GraphShift(weights)


def random_features(n: int, dim: int, seed: int) -> np.ndarray:
    """Standard normal feature rows, for random test graphs."""
    return stream_rng(seed, STREAM_GRAPH).standard_normal((n, dim))


def eigen_basis(shift: GraphShift, rank: int) -> np.ndarray:
    """The ``rank`` lowest-variation eigenvectors of ``(I - A)^T (I - A)``.

    The basis of the "eigen" synthetic recipe, as a new (N, rank) array with
    columns by ascending eigenvalue. It comes from a sparse shift-invert
    Lanczos solve (ARPACK), O(N rank) memory; only ``rank >= N - 1`` makes a
    dense ``eigh``. The shift keeps the eigenpairs, so repeated calls on one
    shift make one solve. Each column's sign is fixed: its largest-magnitude
    entry is positive, ties going to the first index, so a draw does not
    depend on which routine produced the vectors (except inside a cluster of
    equal eigenvalues, where any orthonormal basis of the cluster is valid).
    Draws made with this basis differ from those of the earlier full dense
    ``eigh`` basis, whose signs LAPACK chose.
    """
    vectors = _lowest_eigenpairs(shift, rank)[1]
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(rank)]
    return vectors * np.where(peak < 0.0, -1.0, 1.0)


def synth_instance(shift: GraphShift, spec: SyntheticSpec, seed: int,
                   *subkeys: int) -> SyntheticInstance:
    """Draw a smooth signal matrix with additive noise and sparse outliers.

    The smooth part combines the ``rank`` lowest-variation eigenvectors of
    ``(I - A)^T (I - A)`` (recipe "eigen": :func:`eigen_basis`, a sparse
    solve with fixed signs, made once per shift however many draws use it)
    or repeatedly applies the shift to white noise (recipe "diffusion");
    either way it is rescaled to unit standard deviation. Noise is white
    Gaussian.
    Outliers place exactly ``outliers_per_column`` entries per column, uniform
    positions, magnitudes uniform in the given range with random sign. The
    observation is the exact sum of the three parts.
    """
    if shift.n != spec.n:
        raise DimensionMismatch(f"shift has {shift.n} nodes, spec wants {spec.n}")
    rng = stream_rng(seed, STREAM_SYNTH, *subkeys)
    n, l = spec.n, spec.l
    if spec.recipe == "eigen":
        x0 = eigen_basis(shift, spec.effective_rank) @ rng.standard_normal(
            (spec.effective_rank, l))
    else:
        x0 = rng.standard_normal((n, l))
        for _ in range(spec.diffusion_steps):
            x0 = shift.matrix @ x0
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


def laplacian_from_shift(shift: GraphShift) -> sp.csr_array:
    """Combinatorial Laplacian of the symmetrized nonnegative weights, as CSR."""
    w = shift.matrix.maximum(shift.matrix.T).maximum(0.0)
    return (sp.diags_array(w.sum(axis=1)) - w).tocsr()
