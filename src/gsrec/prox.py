"""Proximal operators and small numerical utilities shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeThreshold, SingularMatrix

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


def deterministic_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD with a fixed sign convention.

    The first nonzero component of each left singular vector is made
    nonnegative (the matching right vector is flipped along with it), so
    repeated calls on equal inputs produce bit-identical factors.
    """
    u, s, vt = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]
    return u, s, vt


def svt(X: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding: soft threshold the spectrum of X.

    The proximal operator of ``tau * || . ||_*`` (nuclear norm). Returns the
    thresholded matrix together with its singular values ``max(s - tau, 0)``
    (s the singular values of X, in descending order), whose sum is the
    nuclear norm of that matrix.
    """
    if tau < 0:
        raise NegativeThreshold(f"threshold must be nonnegative, got {tau}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"svt expects a matrix, got {X.ndim}-d input")
    u, s, vt = deterministic_svd(X)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, s


def regularized_solve(
    H: np.ndarray,
    b: np.ndarray,
    mode: str = "pseudo",
    cutoff: float = PINV_CUTOFF,
) -> np.ndarray:
    """Solve ``H y = b`` through the SVD.

    mode "pseudo" inverts only singular values above ``cutoff`` times the
    largest (minimum-norm least-squares solution); mode "exact" demands a
    numerically invertible H and raises :class:`SingularMatrix` otherwise.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected square system, got {H.shape}")
    if b.shape[0] != H.shape[0]:
        raise DimensionMismatch(
            f"right-hand side has {b.shape[0]} rows, system has {H.shape[0]}"
        )
    if mode not in ("pseudo", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    u, s, vt = np.linalg.svd(H)
    top = s[0] if s.size else 0.0
    keep = s > cutoff * top
    if mode == "exact" and not np.all(keep):
        raise SingularMatrix(
            "matrix is singular to working precision "
            f"(smallest/largest singular value = {s[-1]:.3e}/{top:.3e})"
        )
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    ub = u.T @ b
    scaled = inv * ub if ub.ndim == 1 else inv[:, None] * ub
    return vt.T @ scaled
