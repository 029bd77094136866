"""Proximal operators and small numerical utilities shared by the solvers."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NegativeThreshold, TooManyNodes

# Pivots and singular values of a graph system at or below this fraction of
# its largest entry are treated as zero (see factorized).
PINV_CUTOFF = 1e-10

# Most nodes of a dense (n, n) pass: the co-observed distance matrix of
# features with missing values (:func:`gsrec.datagen.pairwise_distances`),
# the dense ``eigvals`` of :func:`gsrec.graph.spectral_radius` on a signed
# operator or where ARPACK fails on a nonnegative one, and the dense
# pseudo-inverse of a singular component in :func:`factorized`. One (n, n)
# float array is 200 MB.
DENSE_MAX_NODES = 5000


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


def _min_norm_solve(H: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """Minimum-norm least-squares solution of ``H y = b`` from the SVD of the
    dense H, with the singular values at or below ``floor`` counted as zero."""
    u, s, vt = np.linalg.svd(H)
    rank = int(np.count_nonzero(s > floor))
    c = (u[:, :rank].T @ b) / s[:rank].reshape((rank,) + (1,) * (b.ndim - 1))
    return vt[:rank].T @ c


def _lu(H: sp.csc_array):
    """SuperLU factorization of H in symmetric mode, or None when ``splu``
    meets an exactly zero pivot."""
    # imported on first use: scipy.sparse.linalg adds 35 modules to start-up
    from scipy.sparse.linalg import splu

    try:
        return splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                    options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None


def _regular(lu, floor: float) -> bool:
    """Whether every pivot of a SuperLU factorization is above ``floor``.

    ``SuperLU.U`` copies the whole U factor to hand back its diagonal (about
    43 MiB at n = 20 000), so only systems not known to be nonsingular come
    here."""
    return lu is not None and float(np.abs(lu.U.diagonal()).min()) > floor


def factorized(H, definite: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for ``H y = b`` from one sparse LU factorization of square H.

    H (sparse or dense) is factored once by ``scipy.sparse.linalg.splu``; the
    returned function solves for a vector or a matrix of right-hand sides and
    gives a singular H its minimum-norm least-squares solution.

    ``definite=True`` is the caller's statement that H is symmetric positive
    definite, as ``I + c T`` (c >= 0, every eigenvalue at least 1) and
    ``T - sigma I`` (sigma < 0, every eigenvalue at least ``|sigma|``) are
    for the PSD ``T = (I - A)^T (I - A)``. Such an H is nonsingular, so its
    minimum-norm solution is its only one, and the pivot test below could
    only pass. A diagonal pivot is a diagonal entry of a Schur complement of
    H, whose eigenvalues lie between the smallest and the largest of H
    (Cauchy interlacing), while every ``|H_ij|`` is at most the largest; so
    each pivot is at least ``1 / cond(H)`` times the largest ``|H_ij|``:
    ``1 / (1 + c ||T||)`` for ``I + c T``, and about ``|sigma| / ||T||``,
    1e-7, for the eigen draw's shift, both far above ``PINV_CUTOFF``. A
    pivot taken off the diagonal is the largest entry of its column, which
    is nonzero, since every Schur complement of a nonsingular H is
    nonsingular. The function is then the LU's own solve, with no pivot
    read.

    Otherwise H counts as singular when ``splu`` raises (an exactly zero
    pivot) or when some pivot ``|U_ii|`` is at most ``PINV_CUTOFF`` times
    the largest entry ``|H_ij|``. A singular H is split into the weakly
    connected components of its nonzero pattern (stored zeros dropped), on
    which it is block diagonal, so its pseudo-inverse is the pseudo-inverse
    of each block and each component's solution depends on its own
    right-hand side alone. A solve then gives every component whose
    right-hand side is zero its minimum-norm value, 0, with no work;
    factors the components the right-hand side reaches, together, once more
    with ``splu``; and where that too fails the pivot test, factors each of
    them alone. A component that is singular by itself gets the
    pseudo-inverse of its dense block from one SVD, with singular values at
    or below ``PINV_CUTOFF`` times the largest ``|H_ij|`` counted as zero;
    above :data:`DENSE_MAX_NODES` nodes it raises :class:`TooManyNodes`
    instead. For ``gtvr`` on two disjoint kNN clusters (k = 8) of 2000
    nodes each, the second with no measured node, the solve factors the
    first cluster alone and returns 0 on the second: about 0.1 s, where the
    dense pseudo-inverse of the whole system took 22 to 30 s (one thread,
    2-vCPU Xeon guest).

    Every system the package factors is symmetric positive (semi)definite,
    so ``splu`` runs in SuperLU's symmetric mode (Li, "An overview of
    SuperLU", ACM TOMS 2005): a minimum degree ordering of the structure of
    ``H + H^T`` (George & Liu, SIAM Rev. 1989), applied to rows and columns
    alike, and a pivot taken from the diagonal whenever its magnitude is at
    least ``diag_pivot_thresh`` = 0.1 times the largest in its column. For
    ``I + 2 T`` on the kNN graph (k = 8) of ``random_features(2000, 2, 1)``
    every pivot stays on the diagonal, and the fill ``nnz(L) + nnz(U)``
    drops from 391 980 (scipy's default: a COLAMD ordering of ``H^T H``
    with partial pivoting) to 217 390; the factorization takes 11 ms
    instead of 39 ms (median of 7, one thread, 2-vCPU Xeon guest). The
    threshold is 0.1 and not 0, so a general square H keeps a stable
    factorization: on 200 random Gaussian 30 x 30 matrices with a 1e-5
    diagonal, threshold 0 kept those tiny diagonal pivots and left normwise
    backward errors ``||H y - b|| / (||H|| ||y|| + ||b||)`` of up to 3.3e-11
    (median 4.6e-12) where the ``PINV_CUTOFF`` pivot test let the LU stand;
    0.1 gave at most 8.1e-15.
    """
    H = sp.csc_array(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected square system, got {H.shape}")
    lu = _lu(H)
    if lu is not None and definite:
        return lu.solve
    floor = PINV_CUTOFF * float(max(H.max(), -H.min()))
    if _regular(lu, floor):
        return lu.solve
    return _by_components(H, floor)


def _by_components(H: sp.csc_array, floor: float) -> Callable[[np.ndarray], np.ndarray]:
    """Minimum-norm solver of a singular H, one weakly connected component
    of its nonzero pattern at a time (see :func:`factorized`)."""
    # imported on the singular path only: the import adds 1.1 MB of RSS
    from scipy.sparse.csgraph import connected_components

    H = H.copy()
    H.eliminate_zeros()
    labels = connected_components(H, connection="weak")[1]

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        y = np.zeros(b.shape)
        reached = np.unique(labels[np.any(b.reshape(len(b), -1) != 0, axis=1)])
        nodes = np.flatnonzero(np.isin(labels, reached))
        if not nodes.size:
            return y
        lu = _lu(H[nodes][:, nodes])
        if _regular(lu, floor):
            y[nodes] = lu.solve(b[nodes])
            return y
        for label in reached:
            part = np.flatnonzero(labels == label)
            block = H[part][:, part]
            lu = _lu(block)
            if _regular(lu, floor):
                y[part] = lu.solve(b[part])
            elif part.size > DENSE_MAX_NODES:
                raise TooManyNodes(
                    f"a singular {part.size}-node component needs a dense "
                    f"pseudo-inverse, which allows at most {DENSE_MAX_NODES} nodes")
            else:
                y[part] = _min_norm_solve(block.toarray(), b[part], floor)
        return y

    return solve
