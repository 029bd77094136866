"""Executable recovery bounds and structural identities.

These functions turn the theory behind the solvers into checks that run on
concrete instances: worst-case inpainting error bounds from the block
structure of the shift, the link between nuclear norm and quadratic
variation through the singular vectors, and the exact decomposition of an
anomaly-detection residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundNotApplicable,
    DimensionMismatch,
    InconsistentInputs,
    NonOrthonormalBasis,
)
from .graph import (
    GraphShift,
    SpectralBasis,
    check_mask,
    check_signal,
    gft,
    igft,
    matrix_variation,
    quadratic_variation,
)

# Relative cutoff below which singular values count as zero rank.
_RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Worst-case inpainting error bound for one shift/mask pair.

    p and q are spectral norms of the stacked accessible/inaccessible column
    blocks of (I + A). The bounds are None when q >= 2, where the derivation
    gives no information. degenerate_mask flags an empty hidden set.
    """

    p: float
    q: float
    epsilon: float
    eta_smooth: float
    inaccessible_bound: float | None
    full_bound: float | None
    degenerate_mask: bool


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    lhs: float
    rhs: float
    report: BoundReport


@dataclass(frozen=True)
class OutlierModel:
    """Sparse corruption: magnitudes placed at given node indices."""

    indices: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        mag = np.asarray(self.magnitudes, dtype=float)
        if idx.ndim != 1 or mag.ndim != 1 or idx.shape != mag.shape:
            raise DimensionMismatch("indices and magnitudes must be matching 1-d arrays")
        if idx.size and np.unique(idx).size != idx.size:
            raise InconsistentInputs("outlier indices must be unique")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "magnitudes", mag)

    def to_vector(self, n: int) -> np.ndarray:
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise DimensionMismatch("outlier index out of range")
        e = np.zeros(n)
        e[self.indices] = self.magnitudes
        return e


@dataclass(frozen=True)
class ResidualParts:
    """Split of an anomaly-detection residual into smooth and outlier terms."""

    residual: np.ndarray
    smooth: np.ndarray
    outlier: np.ndarray
    deviation: float


def _spectral_norm(block: np.ndarray) -> float:
    if block.size == 0:
        return 0.0
    return float(np.linalg.norm(block, 2))


def inpainting_bound(shift: GraphShift, node_mask: np.ndarray,
                     epsilon: float, eta_smooth: float) -> BoundReport:
    """Worst-case error bound for inpainting from the block norms of I + A.

    p measures how strongly the accessible nodes couple into the whole graph,
    q the same for hidden nodes. When q < 2 the hidden-node error is bounded
    by ``(2 p |epsilon| + 2 |eta_smooth|) / (2 - q)`` and the full error by
    ``q/2`` times that plus ``p |epsilon| + |eta_smooth|``.

    p is the 2-norm of ``[I + A_MM; A_UM]``, which is the columns of
    ``I + A`` at the accessible nodes with their rows reordered, and q that
    of ``[A_MU; I + A_UU]``, the columns at the hidden nodes. Reordering rows
    leaves a 2-norm unchanged, so both come from column slices of one dense
    copy of ``I + A``: O(N^2) memory, O(N^3) time.
    """
    mask = check_mask(node_mask, (shift.n,))
    b = shift.matrix.toarray() + np.eye(shift.n)
    p = _spectral_norm(b[:, mask])
    q = _spectral_norm(b[:, ~mask])
    degenerate = bool(mask.all())
    if q < 2.0:
        inaccessible = (2.0 * p * abs(epsilon) + 2.0 * abs(eta_smooth)) / (2.0 - q)
        full = 0.5 * q * inaccessible + p * abs(epsilon) + abs(eta_smooth)
    else:
        inaccessible = None
        full = None
    return BoundReport(
        p=p,
        q=q,
        epsilon=float(epsilon),
        eta_smooth=float(eta_smooth),
        inaccessible_bound=inaccessible,
        full_bound=full,
        degenerate_mask=degenerate,
    )


def verify_inpainting_bound(shift: GraphShift, node_mask: np.ndarray,
                            x0: np.ndarray, t: np.ndarray, x_hat: np.ndarray,
                            epsilon: float | None = None,
                            eta_smooth: float | None = None) -> BoundCheck:
    """Check the hidden-node error bound on one concrete recovery.

    By default epsilon is the accessible-set residual of the ground truth and
    eta_smooth its variation square root; callers wanting the unconditional
    (certified) form should pass constants that also dominate the recovered
    signal. Raises :class:`BoundNotApplicable` when q >= 2.
    """
    mask = check_mask(node_mask, (shift.n,))
    x0, t, x_hat = (check_signal(v, shift.n, (1,)) for v in (x0, t, x_hat))
    if epsilon is None:
        epsilon = float(np.linalg.norm((x0 - t)[mask]))
    if eta_smooth is None:
        eta_smooth = float(np.sqrt(quadratic_variation(x0, shift)))
    report = inpainting_bound(shift, mask, epsilon, eta_smooth)
    if report.inaccessible_bound is None:
        raise BoundNotApplicable(f"q = {report.q:.6f} >= 2, bound carries no information")
    lhs = float(np.linalg.norm((x0 - x_hat)[~mask]))
    rhs = report.inaccessible_bound
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return BoundCheck(holds=holds, lhs=lhs, rhs=rhs, report=report)


def _thin_svd(X: np.ndarray, shift: GraphShift
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X as a float matrix with its left singular vectors and values.

    Raises ``np.linalg.LinAlgError`` for a non-finite X before the SVD, as
    :func:`~gsrec.prox.svt` does: an inf makes LAPACK's SVD loop without end.
    """
    X = check_signal(X, shift.n, (2,))
    if not np.all(np.isfinite(X)):
        raise np.linalg.LinAlgError("singular values of a non-finite matrix")
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    return X, u, s


def tv_svd_terms(X: np.ndarray, shift: GraphShift) -> np.ndarray:
    """Per-singular-triplet variation terms ``sigma_i^2 ||u_i - A u_i||^2``.

    Their sum equals the matrix variation of X exactly, which ties the
    spectrum of X to the smoothness of its column space. A non-finite X
    raises ``np.linalg.LinAlgError``.
    """
    _, u, s = _thin_svd(X, shift)
    d = u - shift.matrix @ u
    return s ** 2 * np.sum(d * d, axis=0)


def nuclear_tv_bound(X: np.ndarray, shift: GraphShift) -> tuple[float, float]:
    """Variation of X versus its nuclear-norm upper bound.

    Returns ``(lhs, rhs)`` with ``lhs = ||X - A X||_F^2`` and
    ``rhs = ||U - A U||_F^2 * ||X||_*^2`` over the rank-revealing left
    singular vectors U. Always ``lhs <= rhs``. A non-finite X raises
    ``np.linalg.LinAlgError``.
    """
    X, u, s = _thin_svd(X, shift)
    lhs = matrix_variation(X, shift)
    if s.size == 0 or s[0] <= 0.0:
        return lhs, 0.0
    keep = s > _RANK_CUTOFF * s[0]
    rhs = matrix_variation(u[:, keep], shift) * float(np.sum(s)) ** 2
    return lhs, rhs


def subspace_smoothness_bound(U: np.ndarray, a: np.ndarray,
                              shift: GraphShift) -> tuple[float, float]:
    """Variation of ``U a`` versus its subspace bound.

    For U with orthonormal columns, ``||Ua - A Ua||^2`` is at most
    ``||U - A U||_F^2 ||a||^2``. Raises :class:`NonOrthonormalBasis` when the
    columns are not orthonormal within 1e-8.
    """
    U, a = check_signal(U, shift.n, (2,)), np.asarray(a, dtype=float)
    if a.shape != (U.shape[1],):
        raise DimensionMismatch(
            f"coefficients shape {a.shape} does not match basis width {U.shape[1]}"
        )
    r = U.shape[1]
    gram_err = np.linalg.norm(U.T @ U - np.eye(r))
    if gram_err > 1e-8 * max(1.0, np.sqrt(r)):
        raise NonOrthonormalBasis(f"||U^T U - I||_F = {gram_err:.3e}")
    lhs = quadratic_variation(U @ a, shift)
    rhs = matrix_variation(U, shift) * float(a @ a)
    return lhs, rhs


def residual_decomposition(x0: np.ndarray, x_hat: np.ndarray,
                           outliers: OutlierModel, basis: SpectralBasis,
                           tol: float = 1e-8) -> ResidualParts:
    """Split the detection residual into spectral-mismatch and outlier parts.

    With measurements ``t = x0 + outliers`` and a cleaned estimate
    ``x_hat``, the residual ``t - x_hat`` equals the basis expansion of the
    coefficient mismatch plus the outlier vector, exactly. Raises
    :class:`InconsistentInputs` when the identity fails beyond tol, which
    signals inputs that do not come from the stated model.
    """
    x0 = np.asarray(x0, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x0.ndim != 1 or x0.shape != x_hat.shape:
        raise DimensionMismatch("x0 and x_hat must be matching vectors")
    n = x0.shape[0]
    if basis.n != n:
        raise DimensionMismatch(f"basis size {basis.n} != signal length {n}")
    e0 = outliers.to_vector(n)
    residual = (x0 + e0) - x_hat
    mismatch = igft(gft(x0, basis) - gft(x_hat, basis), basis)
    recon = mismatch + e0
    deviation = float(np.linalg.norm(residual - recon))
    if deviation > tol * (1.0 + np.linalg.norm(residual)):
        raise InconsistentInputs(
            f"residual identity fails by {deviation:.3e}"
        )
    return ResidualParts(
        residual=residual,
        smooth=np.real(mismatch),
        outlier=e0,
        deviation=deviation,
    )
