"""Graph shift operators, total variation, and graph spectral transforms.

A graph on N nodes is represented by its weighted adjacency matrix acting as a
shift operator. The orientation convention used throughout the package:
``weights[n, m]`` is the weight of the edge from node ``m`` into node ``n``, so
``weights @ x`` replaces the value at each node by a weighted aggregate over its
in-neighbors. Directed graphs and non-symmetric weights are fully supported.

The weights are stored once, as a ``scipy.sparse.csr_array``; every operator
derived from them (``tilde_shift``, the Laplacian) is sparse too, so a kNN
graph costs O(N k) memory. A :class:`GraphShift` builds each operator derived
from its weights (``tilde_shift``, the CSR transpose, the sparse LU of the
shift-invert eigensolve, the extreme eigenpairs of ``tilde_shift``) on first
use and keeps it, so every solver and draw on one shift shares it. Dense
copies are made only where the theory needs a full eigendecomposition or
SVD (:func:`spectral_decomposition`, the block norms of
:func:`~gsrec.analysis.inpainting_bound`), and each such place calls
``.toarray()`` itself.

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
    ZeroSpectralRadius,
)
from .prox import factorized

# Relative spread of row (or column) sums below which a nonnegative matrix's
# spectral radius is read off its sums instead of an eigensolve.
_SUM_RTOL = 1e-12

# Relative conditioning limit beyond which an eigenvector matrix is rejected.
_DIAG_COND_LIMIT = 1e10
_DIAG_RECON_TOL = 1e-8

# Shift of the shift-invert eigensolve for the lowest eigenpairs of the PSD
# ``tilde_shift``. Negative, so ``T - sigma I`` is positive definite and its
# LU never meets a singular pivot, even on an exact null space; small, so the
# wanted eigenvalues (0 and just above) still map to the largest, best
# separated ones of ``(T - sigma I)^{-1}``. For the 10 lowest pairs of the
# n = 2000, k = 8 kNN graphs of seeds 1-3 (2-vCPU Xeon guest, one BLAS
# thread), factorization included, sigma = -1e-5 took 0.037-0.041 s, -1e-4
# 0.041-0.052 s, -1e-3 0.095-0.112 s and -1e-2 0.21-0.35 s.
# The condition number it allows, ``lambda_max / 1e-5`` (at most 4e5), costs
# no visible accuracy: the null vector of a row-stochastic shift came out
# closer to the constant vector than a dense ``eigh`` puts it.
_EIGSH_SIGMA = -1e-5


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
        True once the matrix has been scaled to unit spectral radius.
    spectral_radius : float or None
        The pre-scaling spectral radius, recorded by :func:`normalize_shift`.
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
    def _tilde_inverse(self):
        # ``(T - sigma I)^{-1}``, sigma = _EIGSH_SIGMA, from the one sparse LU
        # path, ``prox.factorized``
        from scipy.sparse.linalg import LinearOperator

        solve = factorized(self._tilde - _EIGSH_SIGMA * sp.eye_array(self.n))
        return LinearOperator((self.n, self.n), matvec=solve, dtype=float)

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
    without an eigensolve, in O(nnz). Every other matrix is densified for one
    dense eigensolve.
    """
    w = _csr(weights)
    if np.all(w.data >= 0):
        for sums in (w.sum(axis=1), w.sum(axis=0)):
            r = float(sums.max())
            if r - float(sums.min()) <= _SUM_RTOL * r:
                return r
    return float(np.max(np.abs(np.linalg.eigvals(w.toarray()))))


def normalize_shift(shift: GraphShift) -> GraphShift:
    """Scale a shift to unit spectral radius.

    Returns a new :class:`GraphShift` with ``normalized=True`` and the
    pre-scaling radius recorded in ``spectral_radius``. Raises
    :class:`ZeroSpectralRadius` when the radius is numerically zero (zero or
    nilpotent weights), since no scaling can fix that.
    """
    if shift.normalized:
        return shift
    w = shift.matrix
    radius = spectral_radius(w)
    if radius <= 1e-12 * (1.0 + np.max(np.abs(w.data), initial=0.0)):
        raise ZeroSpectralRadius(
            f"spectral radius {radius:.3e} is numerically zero"
        )
    return GraphShift(w / radius, normalized=True, spectral_radius=radius)


def _require_normalized(shift: GraphShift) -> None:
    if not shift.normalized:
        raise ValueError(
            "shift must be normalized to unit spectral radius first "
            "(use normalize_shift)"
        )


def _check_signal(x: np.ndarray, n: int, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[0] != n:
        raise DimensionMismatch(
            f"signal has {arr.shape[0]} rows, shift has {n} nodes"
        )
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatch(f"expected {ndim}-d signal, got {arr.ndim}-d")
    return arr


def quadratic_variation(x: np.ndarray, shift: GraphShift) -> float:
    """Quadratic total variation of a vector signal: ``||x - A x||_2^2``.

    The shift must be normalized so the difference is scale-free.
    """
    _require_normalized(shift)
    x = _check_signal(x, shift.n, ndim=1)
    d = x - shift.matrix @ x
    return float(d @ d)


def matrix_variation(X: np.ndarray, shift: GraphShift) -> float:
    """Quadratic total variation of a signal matrix: ``||X - A X||_F^2``.

    Equals the sum of :func:`quadratic_variation` over columns.
    """
    _require_normalized(shift)
    X = _check_signal(X, shift.n, ndim=2)
    d = X - shift.matrix @ X
    return float(np.sum(d * d))


def tilde_shift(shift: GraphShift) -> sp.csr_array:
    """The symmetric PSD matrix ``D^T D``, ``D = I - A``, as a ``csr_array``.

    Quadratic variation is the quadratic form of this matrix:
    ``x^T tilde_shift x = ||x - A x||_2^2``. A kNN shift with k in-neighbors
    per node gives O(N k^2) nonzeros. Formed once per shift and kept on it:
    every call returns the same matrix, which callers must not modify.
    """
    _require_normalized(shift)
    return shift._tilde


def _lowest_eigenpairs(shift: GraphShift, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of ``tilde_shift``.

    Returns read-only ``(values, vectors)`` sorted by ascending eigenvalue,
    computed once per k and kept on the shift. Uses ARPACK's shift-invert
    Lanczos (``eigsh`` with ``sigma=_EIGSH_SIGMA``) on the shift's one sparse
    LU of ``T - sigma I``, O(n k) memory, started from one fixed vector, so
    no random stream is drawn from. ARPACK needs ``k < n - 1``; for
    ``k >= n - 1`` this makes one dense ``np.linalg.eigh``, the only dense
    eigensolve on the ``gsrec run`` path. Raises :class:`EigensolveFailed`
    when ARPACK does not converge, without a dense retry.
    """
    if k in shift._eigenpairs:
        return shift._eigenpairs[k]
    matrix, n = tilde_shift(shift), shift.n
    if k >= n - 1:
        values, vectors = np.linalg.eigh(matrix.toarray())
        values, vectors = values[:k], vectors[:, :k]
    else:
        # imported on first use: scipy.sparse.linalg adds 35 modules to start-up
        from scipy.sparse.linalg import ArpackError, eigsh

        # never the constant vector: for a row-stochastic A that is an exact
        # null vector of T, and a Lanczos basis started there finds nothing else
        start = 1.0 + 0.5 * np.cos(0.618 * np.arange(n))
        try:
            values, vectors = eigsh(sp.csc_array(matrix, dtype=float), k,
                                    sigma=_EIGSH_SIGMA, which="LM",
                                    OPinv=shift._tilde_inverse, v0=start)
        except ArpackError as exc:
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
    if x.shape[0] != basis.n:
        raise DimensionMismatch(
            f"signal has {x.shape[0]} rows, basis has {basis.n}"
        )
    return basis.inverse @ x


def igft(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Inverse graph Fourier transform: ``basis.vectors @ coeffs``."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != basis.n:
        raise DimensionMismatch(
            f"coefficients have {coeffs.shape[0]} rows, basis has {basis.n}"
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
