"""Proximal operators and small numerical utilities shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NegativeThreshold

# Singular values below this fraction of the largest are treated as zero.
PINV_CUTOFF = 1e-10


@dataclass(frozen=True)
class StepSearchConfig:
    """Step-size backtracking parameters of the proximal-gradient solvers.

    t0 is the initial (and largest) step, rho the shrink factor per halving,
    max_halvings the cap on shrink steps per iteration.
    """

    t0: float = 1.0
    rho: float = 0.5
    max_halvings: int = 50

    def __post_init__(self):
        if self.t0 <= 0 or not (0 < self.rho < 1):
            raise ValueError("step search needs t0 > 0 and 0 < rho < 1")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


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


def regularized_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``H y = b``.

    Applies the pseudo-inverse of H: singular values at or below
    ``PINV_CUTOFF`` times the largest are treated as zero, so a singular
    system gets the minimum-norm solution instead of an error. One
    ``np.linalg.lstsq`` call (LAPACK gelsd); b may be a vector or a matrix of
    right-hand sides.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected square system, got {H.shape}")
    if b.shape[0] != H.shape[0]:
        raise DimensionMismatch(
            f"right-hand side has {b.shape[0]} rows, system has {H.shape[0]}"
        )
    return np.linalg.lstsq(H, b, rcond=PINV_CUTOFF)[0]


def factorized(H) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for ``H y = b`` from one sparse LU factorization of square H.

    H (sparse or dense) is factored once by ``scipy.sparse.linalg.splu``; the
    returned function solves for a vector or a matrix of right-hand sides.
    H counts as singular when ``splu`` raises (an exactly zero pivot) or when
    some pivot ``|U_ii|`` is at most ``PINV_CUTOFF`` times the largest. For
    a singular H the function applies :func:`regularized_solve` to the dense
    form of H instead, so the system keeps its minimum-norm least-squares
    solution.
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
    return lambda b: regularized_solve(dense, b)
