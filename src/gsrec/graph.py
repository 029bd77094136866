"""Graph shift operators, total variation, and graph spectral transforms.

A graph on N nodes is represented by its weighted adjacency matrix acting as a
shift operator, scaled to unit spectral radius when its :class:`GraphShift` is
made. The orientation convention used throughout the package:
``weights[n, m]`` is the weight of the edge from node ``m`` into node ``n``, so
``weights @ x`` replaces the value at each node by a weighted aggregate over its
in-neighbors. Directed graphs and non-symmetric weights are fully supported.

The weights are stored once, as a ``scipy.sparse.csr_array``; every operator
derived from them (``tilde_shift``, the Laplacian) is sparse too, so a kNN
graph costs O(N k) memory. A :class:`GraphShift` builds each operator derived
from its weights (``tilde_shift``, the CSR transpose, the lowest eigenpairs
of ``tilde_shift``) on first use and keeps it, so every solver and draw on
one shift shares it; the sparse LU that the eigensolve factors lives only
while that eigensolve runs. Dense copies are made only where the theory
needs a full eigendecomposition or SVD (:func:`spectral_decomposition`, the
block norms of :func:`~gsrec.analysis.inpainting_bound`), and each such
place calls ``.toarray()`` itself.

Signals are plain numpy arrays: a vector signal has shape ``(N,)`` and a signal
matrix (one signal per column) has shape ``(N, L)``. Masks of accessible entries
are boolean arrays of the same shape; :func:`check_node_mask` validates a
node mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    EigensolveFailed,
    NotDiagonalizable,
    TooManyNodes,
    ZeroSpectralRadius,
)
from .prox import factorized

# Relative spread of row (or column) sums below which a nonnegative matrix's
# spectral radius is read off its sums instead of an eigensolve.
_SUM_RTOL = 1e-12

# Most nodes of a dense (n, n) pass: the co-observed distance matrix of
# features with missing values (:func:`gsrec.datagen.pairwise_distances`),
# and the dense ``eigvals`` of :func:`spectral_radius` on a signed operator or
# where ARPACK fails on a nonnegative one. One (n, n) float array is 200 MB.
DENSE_MAX_NODES = 5000

# Largest residual ``||W v - lambda v|| / ||v||`` accepted from the ARPACK
# eigenpair of :func:`spectral_radius`, relative to ``||W||_F >= |lambda|``.
_RADIUS_RESIDUAL = 1e-8

# Relative conditioning limit beyond which an eigenvector matrix is rejected.
_DIAG_COND_LIMIT = 1e10
_DIAG_RECON_TOL = 1e-8

# Shift of the shift-invert eigensolve for the lowest eigenpairs of the PSD
# ``tilde_shift`` T, as a fraction of T's largest absolute row sum (a bound
# on its spectrum). Negative, so ``T - sigma I`` is positive definite and its
# LU never meets a singular pivot, even on an exact null space: its smallest
# pivot ratio is at least about this fraction (2e-6 to 4e-4 on the graphs
# below), a thousand times ``prox.PINV_CUTOFF``, so the solve is never the
# dense ``lstsq`` one. Small, because shift-invert Lanczos converges fast
# only when the shift is close to the wanted eigenvalues against their
# spread (Ericsson & Ruhe, Math. Comp. 1980), and the 10 lowest of the
# n = 20 000 kNN graph lie within 1.2e-7 of its row sum.
# For the 10 lowest pairs (one BLAS thread, 2-vCPU Xeon guest, factorization
# included), fractions of -1e-9, -1e-8, -1e-7, -1e-6 and -1e-5 take 34, 34,
# 34, 34-35 and 45-49 solves (0.023-0.029 s) on the n = 2000, k = 8 kNN
# graphs of seeds 1-3. On the n = 20 000 one of seed 1, -1e-9, -1e-8, -1e-7
# and -1e-6 take 34, 35, 55 and 114 solves (0.45, 0.44, 0.63 and 0.78 s),
# and the earlier absolute shift of -1e-5 (a fraction of -2.7e-6 there) 187
# solves (1.13 s). On ``random_features(297, 2, 136)`` with k = 3, whose zero
# eigenvalue repeats 13 times, -1e-7 converges at ranks 2, 3 and 5 in 73,
# 129 and 174 solves, where the absolute -1e-5 stalled for some 40 000
# solves before the retry. Residuals stay below 1e-14 of the row sum on
# every graph named here.
_EIGSH_SIGMA = -1e-7


def _csr(weights) -> sp.csr_array:
    """Canonical float CSR copy of a dense or sparse square matrix."""
    if sp.issparse(weights):
        w = sp.csr_array(weights, dtype=float, copy=True)
    else:
        dense = np.asarray(weights, dtype=float)
        if dense.ndim != 2:
            raise DimensionMismatch(
                f"shift weights must be square, got shape {dense.shape}")
        w = sp.csr_array(dense)
    w.sum_duplicates()
    w.eliminate_zeros()
    return w


@dataclass(frozen=True, eq=False)
class GraphShift:
    """Weighted adjacency matrix acting as the shift operator of a graph.

    Parameters
    ----------
    matrix : csr_array or array_like, shape (N, N)
        Edge weights, dense or sparse; ``matrix[n, m]`` is the weight from
        node m into node n. Stored as a canonical ``csr_array``.
    normalized : bool
        False divides the weights by :func:`spectral_radius`; True keeps
        weights of unit radius as given, but nonnegative ones whose row (or
        column) sums agree must sum to 1 (else ``ValueError``). True once made.
    spectral_radius : float or None
        The radius the weights were divided by, as passed when ``normalized``;
        a numerically zero one (zero or nilpotent weights) raises
        :class:`ZeroSpectralRadius`.

    Notes
    -----
    The shift keeps what it derives from its weights, each built on first
    use: ``tilde_shift`` (``_tilde``), the CSR transpose (``_transpose``)
    and the lowest eigenpairs of ``tilde_shift`` by rank (``_eigenpairs``).
    It keeps no factorization: the shift-invert LU of an eigen draw is
    freed when the draw returns, so it holds no memory for the rest of a
    job.
    """

    matrix: sp.csr_array
    normalized: bool = False
    spectral_radius: float | None = None

    def __post_init__(self):
        w = _csr(self.matrix)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatch(
                f"shift weights must be square, got shape {w.shape}"
            )
        if w.shape[0] < 1:
            raise DimensionMismatch("shift needs at least one node")
        if not np.all(np.isfinite(w.data)):
            raise ValueError("shift weights must be finite")
        if not self.normalized:
            radius = spectral_radius(w)
            if radius <= 1e-12 * (1.0 + np.max(np.abs(w.data), initial=0.0)):
                raise ZeroSpectralRadius(f"spectral radius {radius:.3e} is numerically zero")
            w = _csr(w / radius)
            object.__setattr__(self, "normalized", True)
            object.__setattr__(self, "spectral_radius", radius)
        elif (radius := _sums_radius(w)) is not None and abs(radius - 1.0) > _SUM_RTOL:
            raise ValueError(f"weights marked normalized sum to {radius:.17g}, not 1")
        object.__setattr__(self, "matrix", w)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """A new dense ``(N, N)`` copy of the weights: O(N^2) time and memory.

        For inspection and tests; no solver or experiment reads it.
        """
        return self.matrix.toarray()

    # Derived operators, built on first use and kept for the life of the
    # shift; ``cached_property`` writes ``__dict__``, as a frozen dataclass allows.

    @cached_property
    def _tilde(self) -> sp.csr_array:
        d = sp.eye_array(self.n, format="csr") - self.matrix
        return (d.T @ d).tocsr()

    @cached_property
    def _transpose(self) -> sp.csr_array:
        return self.matrix.T.tocsr()

    @cached_property
    def _eigenpairs(self) -> dict:  # k -> (values, vectors)
        return {}


@dataclass(frozen=True)
class SpectralBasis:
    """Eigendecomposition of a shift: ``weights = vectors @ diag(values) @ inverse``."""

    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _start_vector(n: int) -> np.ndarray:
    """Fixed ARPACK start vector, so no eigensolve draws from a random stream.

    Never the constant vector: for a row-stochastic A that is an exact null
    vector of ``tilde_shift``, and a Lanczos basis started there finds
    nothing else. ARPACK draws a new start vector whenever its Krylov space
    closes (as at a repeated eigenvalue), from OS entropy unless it is given
    a generator, so every call also passes ``rng=np.random.default_rng(0)``.
    """
    return 1.0 + 0.5 * np.cos(0.618 * np.arange(n))


def cycle_shift(n: int) -> GraphShift:
    """Directed cycle on n nodes: the classical time-shift operator.

    ``(A x)[k] = x[k-1 mod n]``; already has unit spectral radius.
    """
    if n < 1:
        raise DimensionMismatch("cycle needs at least one node")
    w = sp.csr_array((np.ones(n), (np.arange(n), np.arange(-1, n - 1) % n)),
                     shape=(n, n))
    return GraphShift(w, normalized=True, spectral_radius=1.0)


def spectral_radius(weights) -> float:
    """Largest eigenvalue magnitude of a square matrix, dense or sparse.

    A nonnegative matrix whose row sums (or column sums) all equal r to 1e-12
    relative has radius r (Perron-Frobenius); that covers row- or
    column-normalized kNN graphs, cycles and opinion graphs at any size
    without an eigensolve, in O(nnz). Any other nonnegative matrix of three
    or more nodes gets one sparse ARPACK solve (``eigs``, k = 1, largest
    magnitude) from a fixed start vector, in O(nnz) memory, and its eigenpair
    must pass a residual check: the Perron root is an eigenvalue that no
    other outgrows. ARPACK does not converge where every eigenvalue shares
    one magnitude, as for a nilpotent matrix or a weighted directed cycle;
    where it fails or its eigenpair fails the check, a matrix of at most
    :data:`DENSE_MAX_NODES` nodes gets one dense ``eigvals``, and a larger
    one raises :class:`EigensolveFailed`. A matrix with a negative entry is
    densified for one dense ``eigvals`` at once, since ARPACK can settle on
    a smaller eigenvalue where many crowd the spectral circle, as in a
    random signed matrix; above :data:`DENSE_MAX_NODES` nodes it raises
    :class:`TooManyNodes` before anything is allocated.
    """
    w = _csr(weights)
    if (r := _sums_radius(w)) is not None:
        return r
    n = w.shape[0]
    if np.any(w.data < 0) or n <= 2:  # ARPACK needs k < n - 1
        if n > DENSE_MAX_NODES:
            raise TooManyNodes(f"a signed {n}-node operator needs a dense eigensolve, "
                               f"which allows at most {DENSE_MAX_NODES} nodes")
        return _dense_radius(w)
    # imported on first use: scipy.sparse.linalg adds 35 modules to start-up
    from scipy.sparse.linalg import ArpackError, eigs

    try:
        values, vectors = eigs(w, 1, which="LM", v0=_start_vector(n),
                               rng=np.random.default_rng(0))
    except ArpackError as exc:
        failure = (f"ARPACK found no largest-magnitude eigenvalue of an "
                   f"{n}-node operator: {exc}")
    else:
        value, vector = values[0], vectors[:, 0]
        residual = np.linalg.norm(w @ vector - value * vector) / np.linalg.norm(vector)
        if residual <= _RADIUS_RESIDUAL * np.linalg.norm(w.data):
            return float(abs(value))
        failure = (f"ARPACK's largest-magnitude eigenpair of an {n}-node "
                   f"operator has residual {residual:.3e}")
    if n <= DENSE_MAX_NODES:
        return _dense_radius(w)
    raise EigensolveFailed(f"{failure}; a dense eigensolve allows at most "
                           f"{DENSE_MAX_NODES} nodes")


def _sums_radius(w: sp.csr_array) -> float | None:
    """Nonnegative w's row (or column) sum where all agree, so its radius; else None."""
    if np.all(w.data >= 0):
        for sums in (w.sum(axis=1), w.sum(axis=0)):
            r = float(sums.max())
            if r - float(sums.min()) <= _SUM_RTOL * r:
                return r
    return None


def _dense_radius(w: sp.csr_array) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(w.toarray()))))


def normalize_shift(shift: GraphShift) -> GraphShift:
    """The shift itself: every :class:`GraphShift` is normalized when it is made."""
    return shift


def _vector_signal(t, n: int) -> np.ndarray:
    """``t`` as a float vector of length n; anything else is a DimensionMismatch."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] != n:
        raise DimensionMismatch(f"expected vector of length {n}, got shape {t.shape}")
    return t


def _residual_variation(X: np.ndarray, shift: GraphShift) -> tuple[float, np.ndarray]:
    """``||X - A X||_F^2`` and the residual ``d = X - A X`` it sums, unchecked."""
    d = X - shift.matrix @ X
    return float(np.sum(d * d)), d


def quadratic_variation(x: np.ndarray, shift: GraphShift) -> float:
    """Quadratic total variation of a vector signal: ``||x - A x||_2^2``."""
    return _residual_variation(_vector_signal(x, shift.n), shift)[0]


def matrix_variation(X: np.ndarray, shift: GraphShift) -> float:
    """Quadratic total variation of a signal matrix: ``||X - A X||_F^2``.

    Equals the sum of :func:`quadratic_variation` over columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != shift.n:
        raise DimensionMismatch(
            f"expected a matrix of {shift.n} rows, got shape {X.shape}")
    return _residual_variation(X, shift)[0]


def tilde_shift(shift: GraphShift) -> sp.csr_array:
    """The symmetric PSD matrix ``D^T D``, ``D = I - A``, as a ``csr_array``.

    Quadratic variation is the quadratic form of this matrix:
    ``x^T tilde_shift x = ||x - A x||_2^2``. A kNN shift with k in-neighbors
    per node gives O(N k^2) nonzeros. Formed once per shift and kept on it:
    every call returns the same matrix, which callers must not modify.
    """
    return shift._tilde


def _lowest_eigenpairs(shift: GraphShift, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of ``tilde_shift``.

    Returns read-only ``(values, vectors)`` sorted by ascending eigenvalue,
    computed once per k and kept on the shift. Uses ARPACK's shift-invert
    Lanczos (``eigsh``) at ``sigma = _EIGSH_SIGMA`` times the largest
    absolute row sum of T, on one sparse LU of ``T - sigma I`` that this
    call makes and frees on return, O(n k) memory besides the LU, started
    from one fixed vector, so no random stream is drawn from. A draw at a
    new k factors again. Where ARPACK does not converge in its default
    Krylov space of ``ncv = min(n, max(2 k + 1, 20))`` vectors, one retry
    triples that space; none of the graphs measured at ``_EIGSH_SIGMA``
    reaches it, 13 closed classes included. ARPACK needs ``k < n - 1``; for
    ``k >= n - 1`` this makes one dense ``np.linalg.eigh``, the only dense
    eigensolve on the ``gsrec run`` path. Raises :class:`EigensolveFailed`
    when the retry does not converge either, without a dense retry.
    """
    if k in shift._eigenpairs:
        return shift._eigenpairs[k]
    matrix, n = tilde_shift(shift), shift.n
    if k >= n - 1:
        values, vectors = np.linalg.eigh(matrix.toarray())
        values, vectors = values[:k], vectors[:, :k]
    else:
        # imported on first use: scipy.sparse.linalg adds 35 modules to start-up
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        # T = 0 (A = I) has no scale of its own; any positive one will do
        sigma = _EIGSH_SIGMA * (float(abs(matrix).sum(axis=1).max()) or 1.0)
        inverse = LinearOperator(
            (n, n), matvec=factorized(matrix - sigma * sp.eye_array(n)), dtype=float)
        attempts = (None, min(n, 3 * max(2 * k + 1, 20)))
        for ncv in attempts:
            try:
                values, vectors = eigsh(matrix, k, sigma=sigma, which="LM",
                                        OPinv=inverse, v0=_start_vector(n),
                                        ncv=ncv, rng=np.random.default_rng(0))
                break
            except ArpackError as exc:
                # raised here, not kept past the handler: its traceback holds
                # this frame, and so the LU, in a cycle only gc would break
                if ncv == attempts[-1]:
                    raise EigensolveFailed(
                        f"ARPACK found no {k} lowest eigenpairs of an {n}-node "
                        f"operator: {exc}") from exc
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    values.flags.writeable = vectors.flags.writeable = False
    shift._eigenpairs[k] = values, vectors
    return values, vectors


def spectral_decomposition(shift: GraphShift) -> SpectralBasis:
    """Eigendecompose a shift into its graph Fourier basis.

    Symmetric shifts use a Hermitian eigensolve (real orthonormal basis);
    general shifts use the dense nonsymmetric solver and may return a complex
    basis. Raises :class:`NotDiagonalizable` when the eigenvector matrix is
    ill-conditioned (relative condition number above 1e10) or does not
    reconstruct the shift to within 1e-8 relative Frobenius error. Works on
    a dense copy of the weights: O(N^2) memory, O(N^3) time.
    """
    w = shift.matrix.toarray()
    if np.allclose(w, w.T, rtol=0.0, atol=1e-12):
        values, vectors = np.linalg.eigh(w)
        inverse = vectors.T.copy()
        return SpectralBasis(values=values, vectors=vectors, inverse=inverse)
    values, vectors = np.linalg.eig(w)
    cond = np.linalg.cond(vectors)
    if not np.isfinite(cond) or cond > _DIAG_COND_LIMIT:
        raise NotDiagonalizable(
            f"eigenvector condition number {cond:.3e} exceeds {_DIAG_COND_LIMIT:.0e}"
        )
    inverse = np.linalg.inv(vectors)
    recon = (vectors * values) @ inverse
    err = np.linalg.norm(recon - w) / max(1.0, np.linalg.norm(w))
    if err > _DIAG_RECON_TOL:
        raise NotDiagonalizable(
            f"eigendecomposition reconstruction error {err:.3e}"
        )
    return SpectralBasis(values=values, vectors=vectors, inverse=inverse)


def gft(x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Graph Fourier transform: expansion coefficients ``basis.inverse @ x``."""
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[0] != basis.n:
        raise DimensionMismatch(
            f"signal has shape {x.shape}, basis has {basis.n} rows"
        )
    return basis.inverse @ x


def igft(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Inverse graph Fourier transform: ``basis.vectors @ coeffs``."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim == 0 or coeffs.shape[0] != basis.n:
        raise DimensionMismatch(
            f"coefficients have shape {coeffs.shape}, basis has {basis.n} rows"
        )
    return basis.vectors @ coeffs


def check_node_mask(mask: np.ndarray, n: int) -> np.ndarray:
    """Validate a boolean node mask of accessible entries."""
    m = np.asarray(mask)
    if m.dtype != np.bool_:
        raise DimensionMismatch("mask must be a boolean array")
    if m.shape != (n,):
        raise DimensionMismatch(f"node mask shape {m.shape} != ({n},)")
    return m
