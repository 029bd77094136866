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


def svt(X: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding: soft threshold the spectrum of X.

    The proximal operator of ``tau * || . ||_*`` (nuclear norm), from one thin
    ``np.linalg.svd``. Returns the thresholded matrix together with its
    singular values ``max(s - tau, 0)`` (s the singular values of X, in
    descending order), whose sum is the nuclear norm of that matrix. The
    result does not depend on the signs LAPACK picks for the singular
    vectors: they cancel in ``u diag(s) v^T``.
    """
    if tau < 0:
        raise NegativeThreshold(f"threshold must be nonnegative, got {tau}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"svt expects a matrix, got {X.ndim}-d input")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, s


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
