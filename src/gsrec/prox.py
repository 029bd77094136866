"""Proximal operators and small numerical utilities shared by the solvers."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NegativeThreshold

# Singular values below this fraction of the largest are treated as zero.
PINV_CUTOFF = 1e-10


def shrink(x: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise soft threshold: shrink magnitudes by tau, zero below tau.

    The proximal operator of ``tau * || . ||_1``. Entries with magnitude
    exactly tau map to zero.
    """
    if tau < 0:
        raise NegativeThreshold(f"threshold must be nonnegative, got {tau}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


# Smallest singular value, relative to the largest, that svt and the nuclear
# norm take from the Gram matrix X^T X; the svt docstring derives it.
GRAM_FLOOR = 1e-3


def _gram_spectrum(X: np.ndarray, tau: float | None = None
                   ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Singular values of X (descending) from ``eigh(X^T X)``, or None.

    The one place that decides between the Gram matrix and the SVD. With
    ``tau`` it returns the values and the matching right singular vectors
    (columns, same order), for thresholding at tau; without it the values
    alone, for the nuclear norm. It returns None, so the caller takes the
    SVD, unless X is tall (n >= 4 L, where the L x L eigenproblem is the
    cheaper one), X^T X is finite (no overflow) and well above underflow, and
    every value the caller needs is at least ``GRAM_FLOOR`` times the
    largest: those above tau, or all of them without tau. Raises
    ``LinAlgError`` for a non-finite X, as the SVD does for NaN (an inf
    would make LAPACK's SVD loop without end).
    """
    n, l = X.shape
    if 0 < 4 * l <= n:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = X.T @ X
        if np.all(np.isfinite(gram)):
            if tau is None:
                w, v = np.linalg.eigvalsh(gram), None
            else:
                w, v = np.linalg.eigh(gram)
                v = v[:, ::-1]
            s = np.sqrt(np.maximum(w[::-1], 0.0))
            least = s[-1] if tau is None else tau
            # below tiny / eps the products in X^T X may have lost accuracy
            # to underflow
            if (s[0] ** 2 >= np.finfo(float).tiny / np.finfo(float).eps
                    and least >= GRAM_FLOOR * s[0]):
                return s, v
            return None
    if not np.all(np.isfinite(X)):
        raise np.linalg.LinAlgError("singular values of a non-finite matrix")
    return None


def svt(X: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding: soft threshold the spectrum of X.

    The proximal operator of ``tau * || . ||_*`` (nuclear norm). Returns the
    thresholded matrix together with its singular values ``max(s - tau, 0)``
    (s the singular values of X, in descending order), whose sum is the
    nuclear norm of that matrix.

    For a tall X (n >= 4 L) the spectrum comes from the L x L Gram matrix:
    ``X^T X = V diag(s^2) V^T`` by ``np.linalg.eigh``, s = sqrt(max(w, 0)),
    and the result is ``X V_k diag(1 - tau / s_k) V_k^T`` over the k values
    above tau, which equals ``U_k diag(s_k - tau) V_k^T`` since
    ``X V_k = U_k diag(s_k)``. Squaring loses relative accuracy in the small
    values: ``eigh`` returns each eigenvalue of ``X^T X`` to an absolute
    error of about ``eps s_max^2``, so a value s_k comes out to about
    ``eps (s_max / s_k)^2 / 2`` relative (Golub & Van Loan, section 8.6).
    Every kept value is above tau, so the Gram route is taken only for
    ``tau >= GRAM_FLOOR * s_max`` (GRAM_FLOOR = 1e-3), which bounds that
    error by ``eps / (2 GRAM_FLOOR^2)``, about 1.1e-10, per kept value; the
    matrix itself is off by about ``eps s_max / tau`` relative, near 1e-13.
    Below that floor (tau = 0 included), for a square or wide X, or when
    ``X^T X`` overflows or underflows, the result comes from one thin
    ``np.linalg.svd`` as ``u diag(max(s - tau, 0)) v^T``. Neither route
    depends on the signs LAPACK picks for the singular vectors. A non-finite
    X raises ``np.linalg.LinAlgError``.
    """
    if tau < 0:
        raise NegativeThreshold(f"threshold must be nonnegative, got {tau}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"svt expects a matrix, got {X.ndim}-d input")
    gram = _gram_spectrum(X, tau)
    if gram is None:
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        s = np.maximum(s - tau, 0.0)
        return (u * s) @ vt, s
    s, v = gram
    k = int(np.count_nonzero(s > tau))
    vk = v[:, :k]
    return (X @ (vk * (1.0 - tau / s[:k]))) @ vk.T, np.maximum(s - tau, 0.0)


def _nuclear_norm(X: np.ndarray) -> float:
    """Sum of the singular values of the matrix X.

    From ``sqrt(eigvalsh(X^T X))`` when X is tall and its smallest singular
    value is at least ``GRAM_FLOOR`` times its largest (each value then to
    about 1.1e-10 relative), otherwise from the values-only SVD.
    """
    gram = _gram_spectrum(X)
    s = np.linalg.svd(X, compute_uv=False) if gram is None else gram[0]
    return float(np.sum(s))


def _min_norm_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(H, b, rcond=PINV_CUTOFF)[0]


def factorized(H) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for ``H y = b`` from one sparse LU factorization of square H.

    H (sparse or dense) is factored once by ``scipy.sparse.linalg.splu``; the
    returned function solves for a vector or a matrix of right-hand sides.
    H counts as singular when ``splu`` raises (an exactly zero pivot) or when
    some pivot ``|U_ii|`` is at most ``PINV_CUTOFF`` times the largest. For
    a singular H the function instead applies the pseudo-inverse of the dense
    form of H, by one ``np.linalg.lstsq`` (LAPACK gelsd) with singular values
    at or below ``PINV_CUTOFF`` times the largest counted as zero, so the
    system keeps its minimum-norm least-squares solution.
    """
    # imported on first use: scipy.sparse.linalg adds 35 modules to start-up
    from scipy.sparse.linalg import splu

    H = sp.csc_array(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected square system, got {H.shape}")
    try:
        lu = splu(H)
    except RuntimeError:  # exactly singular
        lu = None
    if lu is not None:
        pivots = np.abs(lu.U.diagonal())
        if pivots.min() > PINV_CUTOFF * pivots.max():
            return lu.solve
    dense = H.toarray()
    return lambda b: _min_norm_solve(dense, b)
