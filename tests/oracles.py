"""Independent reference computations the tests compare the library against.

Everything here is deliberately written from the problem definitions using
plain numpy/scipy primitives (grids, brute force, generic optimizers), not by
calling the library's own solution paths, so that agreement is evidence and
not tautology.
"""

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.spatial.distance import cdist


def shrink_grid_oracle(x, tau, half_width=3.0, step=1e-4):
    """Scalar soft-threshold by brute force.

    Minimizes 0.5 (z - x)^2 + tau |z| over a dense grid around x that always
    contains zero (the kink, and often the minimizer).
    """
    lo = min(0.0, x - half_width)
    hi = max(0.0, x + half_width)
    grid = np.arange(lo, hi + step, step)
    grid = np.append(grid, 0.0)
    values = 0.5 * (grid - x) ** 2 + tau * np.abs(grid)
    return float(grid[np.argmin(values)])


def two_by_two_singular_values(a, b, c, d):
    """Closed-form singular values of [[a, b], [c, d]], vectorized.

    Eigenvalues of Z^T Z via trace and determinant; returns (s_max, s_min).
    """
    q1 = a * a + b * b + c * c + d * d
    q2 = np.sqrt((a * a + b * b - c * c - d * d) ** 2 + 4.0 * (a * c + b * d) ** 2)
    s_max = np.sqrt(np.maximum((q1 + q2) / 2.0, 0.0))
    s_min = np.sqrt(np.maximum((q1 - q2) / 2.0, 0.0))
    return s_max, s_min


def svt_grid_oracle(X, tau, half_width=2.0, steps=(0.25, 0.05, 0.01)):
    """2x2 singular-value threshold by staged brute force.

    Minimizes 0.5 ||Z - X||_F^2 + tau ||Z||_* over a 4-d grid around X,
    re-centering a tighter grid on each stage's winner.  The objective is
    strongly convex, so every stage's winner lies within a few grid steps of
    the true minimizer and refinement cannot lose the basin.  The result is
    accurate to about the final step.
    """
    X = np.asarray(X, dtype=float)
    assert X.shape == (2, 2)

    def search(center, width, step):
        axes = [np.arange(center[i] - width, center[i] + width + step / 2, step)
                for i in range(4)]
        a, b, c, d = np.meshgrid(*axes, indexing="ij", sparse=True)
        s_max, s_min = two_by_two_singular_values(a, b, c, d)
        misfit = ((a - X[0, 0]) ** 2 + (b - X[0, 1]) ** 2
                  + (c - X[1, 0]) ** 2 + (d - X[1, 1]) ** 2)
        values = 0.5 * misfit + tau * (s_max + s_min)
        flat = np.argmin(values)
        idx = np.unravel_index(flat, values.shape)
        return np.array([axes[i][idx[i]] for i in range(4)])

    center = X.ravel()
    width = half_width
    best = center
    for i, step in enumerate(steps):
        best = search(center, width, step)
        center = best
        width = 4.0 * step
    return best.reshape(2, 2)


def numpy_svt(X, tau):
    """Singular-value soft threshold via numpy's SVD, written out directly."""
    u, s, vt = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def quadratic_inpaint_oracle(t, mask, weights, alpha, laplacian=None):
    """Generic numeric minimizer of the inpainting objective.

    Minimizes ||(x - t)_M||^2 + alpha * penalty(x) where the penalty is
    ||x - A x||^2 for a shift's weight matrix, or x' L x when a Laplacian is
    given.  Uses scipy's L-BFGS from several starts, run to tight tolerance.
    """
    t = np.asarray(t, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    n = t.shape[0]

    if laplacian is None:
        a = np.asarray(weights, dtype=float)

        def objective(x):
            d = x - a @ x
            r = np.where(mask, x - t, 0.0)
            return float(r @ r + alpha * (d @ d))

        def gradient(x):
            d = x - a @ x
            return 2.0 * np.where(mask, x - t, 0.0) + 2.0 * alpha * (d - a.T @ d)
    else:
        lap = np.asarray(laplacian, dtype=float)

        def objective(x):
            r = np.where(mask, x - t, 0.0)
            return float(r @ r + alpha * (x @ (lap @ x)))

        def gradient(x):
            return 2.0 * np.where(mask, x - t, 0.0) + 2.0 * alpha * (lap @ x)

    best = None
    rng = np.random.default_rng(0)
    starts = [np.zeros(n), np.where(mask, t, 0.0)]
    starts += [rng.normal(size=n) for _ in range(3)]
    for x0 in starts:
        res = minimize(objective, x0, jac=gradient, method="L-BFGS-B",
                       options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(best.fun)


def anomaly_support_oracle(t, tilde, beta, max_support=2):
    """Brute-force minimizer of S2(t - e) + beta ||e||_1 over sparse supports.

    For every support of size <= max_support and every sign pattern, solves
    the stationarity system restricted to the support, keeps sign-consistent
    candidates, and returns the best (support, e, objective).  The empty
    support (e = 0) always competes.
    """
    t = np.asarray(t, dtype=float)
    tilde = np.asarray(tilde, dtype=float)
    n = t.shape[0]

    def smooth(e):
        d = t - e
        return float(d @ (tilde @ d))

    best_support = ()
    best_e = np.zeros(n)
    best_obj = smooth(best_e)
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(n), size):
            idx = np.array(support)
            sub = tilde[np.ix_(idx, idx)]
            rhs_base = (tilde @ t)[idx]
            for signs in itertools.product((-1.0, 1.0), repeat=size):
                sigma = np.array(signs)
                # stationarity of the smooth part plus a fixed-sign l1 term:
                # 2 tilde[S,S] e_S = 2 (tilde t)[S] - beta sigma
                e_s, *_ = np.linalg.lstsq(2.0 * sub,
                                          2.0 * rhs_base - beta * sigma,
                                          rcond=None)
                if np.any(np.sign(e_s) != sigma):
                    continue
                e = np.zeros(n)
                e[idx] = e_s
                obj = smooth(e) + beta * float(np.abs(e_s).sum())
                if obj < best_obj - 1e-12:
                    best_support = support
                    best_e = e
                    best_obj = obj
    return best_support, best_e, best_obj


def bisection_weight_search(excess, beta_hi, max_bisect=40):
    """The critical l1 weight by plain bisection of ``[0, beta_hi]``.

    A reference for the weight ``anomaly_detect_constrained`` returns:
    ``excess(beta)`` solves at a weight and returns how far its variation
    lies above the cap; the result is the final bracket ``(lo, hi)``, lo the
    largest feasible weight (0 when none was), and the number of weights
    solved. Every weight is the midpoint of the bracket the earlier ones
    left, ``max_bisect`` of them, so the bracket ends ``beta_hi *
    2^-max_bisect`` wide.
    """
    lo, hi = 0.0, beta_hi
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, max_bisect


def lasso_kkt_violation(weights, t, e, beta):
    """Largest KKT violation of e for ``min ||D (t - e)||^2 + beta ||e||_1``.

    D = I - weights, dense. The correlations ``c = 2 D^T D (t - e)`` must
    equal ``beta sign(e_i)`` where e is nonzero and be at most beta in
    absolute value elsewhere; returns the largest violation over beta.
    """
    d = np.eye(len(t)) - np.asarray(weights, dtype=float)
    c = 2.0 * d.T @ (d @ (t - e))
    on = e != 0
    active = np.max(np.abs(c[on] - beta * np.sign(e[on])), initial=0.0)
    inactive = np.max(np.abs(c[~on]), initial=0.0) - beta
    return max(active, inactive) / beta


def lasso_coordinate_descent(weights, t, beta, kkt_tol=1e-12, max_sweeps=200000):
    """Minimizer of ``||D (t - e)||^2 + beta ||e||_1`` by cyclic coordinate descent.

    D = I - weights, dense, for n <= 40: slow, and apart from the homotopy
    ``anomaly_detect`` follows. With ``T = D^T D`` and the others fixed, the
    objective in e_i is ``T_ii e_i^2 - 2 c_i e_i + beta |e_i|`` for the
    partial correlation ``c_i = (T (t - e))_i + T_ii e_i``, so each update
    is the soft threshold ``e_i = sign(c_i) max(|c_i| - beta / 2, 0) /
    T_ii`` (e_i = 0 where ``T_ii = 0``: the objective does not depend on
    it). Cyclic descent on this smooth-plus-separable objective converges to
    a minimizer (Tseng 2001). Sweeps until ``lasso_kkt_violation`` is at
    most ``kkt_tol`` or ``max_sweeps`` sweeps have run; returns e.
    """
    n = len(t)
    d = np.eye(n) - np.asarray(weights, dtype=float)
    tilde = d.T @ d
    e = np.zeros(n)
    for _ in range(max_sweeps):
        r = tilde @ (t - e)  # kept up to date by one column per move
        for i in range(n):
            if tilde[i, i] <= 0.0:
                continue
            c = r[i] + tilde[i, i] * e[i]
            new = np.sign(c) * max(abs(c) - 0.5 * beta, 0.0) / tilde[i, i]
            if new != e[i]:
                r -= tilde[:, i] * (new - e[i])
                e[i] = new
        if lasso_kkt_violation(weights, t, e, beta) <= kkt_tol:
            break
    return e


def l1_polish_oracle(e, basis, passes=4):
    """Cyclic l1 line search along the columns of basis, by enumeration.

    Along each column v, evaluates ``sum |e + c v|`` directly at every
    breakpoint ``c = -e_i / v_i`` (|v_i| > 1e-14), one row of an (n, n) cost
    matrix each, takes the first cheapest one and moves there when that
    lowers the norm by more than 1e-15 relative. Passes repeat until one
    makes no move. O(n^2) time and memory per column.
    """
    if basis.size == 0:
        return e
    e = e.copy()
    for _ in range(passes):
        improved = False
        for j in range(basis.shape[1]):
            v = basis[:, j]
            nz = np.abs(v) > 1e-14
            if not np.any(nz):
                continue
            candidates = -e[nz] / v[nz]
            costs = np.abs(e[None, :] + candidates[:, None] * v[None, :]).sum(axis=1)
            k = int(np.argmin(costs))
            current = float(np.abs(e).sum())
            if costs[k] < current - 1e-15 * (1.0 + current):
                e = e + candidates[k] * v
                improved = True
        if not improved:
            break
    return e


def median_shift_oracle(t, resolution=1e-4):
    """Best constant c minimizing ||t - c 1||_1 by a dense 1-d scan."""
    t = np.asarray(t, dtype=float)
    grid = np.arange(t.min(), t.max() + resolution, resolution)
    costs = np.abs(t[None, :] - grid[:, None]).sum(axis=1)
    return float(grid[np.argmin(costs)])


def nuclear_completion_fixed_point(T, mask, beta, tol=1e-12, maxit=50000):
    """Proximal-gradient reference for ||(X - T)_M||^2 + beta ||X||_*.

    Fixed step 1/2 (the data term's Lipschitz constant is 2), thresholding
    through numpy's SVD.  Run far past the tolerance under test.
    """
    T = np.asarray(T, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    X = np.zeros_like(T)
    for _ in range(maxit):
        Z = X - np.where(mask, X - T, 0.0)
        nxt = numpy_svt(Z, beta / 2.0)
        if np.max(np.abs(nxt - X)) <= tol:
            return nxt
        X = nxt
    return X


def block_stacked_norms(weights, mask):
    """p and q of the inpainting bound from the four blocks of a dense A.

    With M the accessible and U the hidden nodes, p is the 2-norm of
    ``[I + A_MM; A_UM]`` and q that of ``[A_MU; I + A_UU]``, each stacked
    from its blocks as the bound's derivation writes it; an empty block
    column has norm 0.
    """
    A = np.asarray(weights, dtype=float)
    m, u = np.flatnonzero(mask), np.flatnonzero(~np.asarray(mask))

    def norm(top, bottom):
        stacked = np.vstack([top, bottom])
        return float(np.linalg.norm(stacked, 2)) if stacked.size else 0.0

    return (norm(np.eye(m.size) + A[np.ix_(m, m)], A[np.ix_(u, m)]),
            norm(A[np.ix_(m, u)], np.eye(u.size) + A[np.ix_(u, u)]))


def dense_knn_weights(features, k, metric="euclidean", normalization="row",
                      symmetrize=False):
    """Normalized kNN kernel weights from the full (n, n) distance matrix.

    Ranks each row of ``cdist`` by a stable sort with the row's own entry
    set to infinity, so ties go to the smaller index; weights the k nearest
    by ``exp(-n^2 d / sum(d))`` with the sum over the whole matrix; then
    optionally keeps the larger of each weight pair, divides by row or
    column sums and scales to unit spectral radius (a dense eigensolve).
    Returns the weights as CSR. O(n^2) memory.
    """
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    d = cdist(x, x, "euclidean" if metric == "euclidean" else "cityblock")
    ranked = d.copy()
    np.fill_diagonal(ranked, np.inf)
    cols = np.argsort(ranked, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    w = np.zeros((n, n))
    w[rows, cols.ravel()] = np.exp(-(n ** 2) * d[rows, cols.ravel()] / d.sum())
    if symmetrize:
        w = np.maximum(w, w.T)
    sums = w.sum(axis=1, keepdims=True) if normalization == "row" \
        else w.sum(axis=0, keepdims=True)
    w = w / np.where(sums > 0, sums, 1.0)
    return sp.csr_array(w / np.max(np.abs(np.linalg.eigvals(w))))
