"""Signal recovery solvers: inpainting, matrix completion, anomaly detection.

All solvers share one measurement model. A smooth ground-truth signal is
observed through ``T = X0 + noise + outliers`` on an accessible index set M;
everything outside M is hidden. Smoothness is measured by quadratic total
variation ``||X - A X||_F^2`` for a normalized shift A.

Closed forms
    gtvm   equality-constrained variation minimization (noiseless inpainting)
    gtvr   variation-regularized least squares (noisy inpainting)

Proximal gradient
    gmcm   matrix completion, measured entries pinned exactly
    gmcr   matrix completion, measured entries fitted in least squares
    anomaly_detect            sparse-outlier detection, penalized form
    anomaly_detect_constrained  bisection wrapper enforcing a smoothness cap

ADMM
    gsr_admm  the full model: smoothness + low rank + sparse outliers + noise
    rgtvr     gsr_admm on one column at beta = 0: inpainting robust to
              sparse corruption of the measurements

The three proximal-gradient solvers run one shared driver,
:func:`_prox_gradient`; each supplies only its smooth part, that part's
gradient and a proximal step (``svt`` or ``shrink``) that also returns the
nonsmooth value of its result. The driver backtracks the step until the
smooth part lies below its quadratic model at the candidate (Beck & Teboulle
2009). ``gmcm`` instead accepts a candidate when the full objective does not
increase, because re-pinning the measured entries after the thresholding makes
its step something other than a proximal map. ``gsr_admm`` is the one ADMM
loop, and every block update in it is one closed form: a solve with a sparse
LU factorization made once per call, an ``svt`` or a ``shrink``. With a
nuclear-norm weight the svt acts on X and the solve on a duplicate of X; at
beta = 0 there is no duplicate and the solve is the X-step itself.

The shift enters through its CSR matrix A and the operators the
:class:`~gsrec.graph.GraphShift` derives from A once and keeps: the closed
forms factor sparse systems built from ``(I - A)^T (I - A)`` with
:func:`~gsrec.prox.factorized`, the iterative solvers apply A and the
shift's CSR A^T as sparse products, O(nnz) each, and
``anomaly_detect_constrained`` reads the few extreme eigenpairs it needs.

``anomaly_detect_constrained`` bisects over the l1 weight, each weight's
solve warm-started from the outliers at the weight solved before it, and
polishes each solve along the variation-free subspace by an exact l1 line
search: the weighted median of the breakpoints, found from one sort and
prefix sums, O(n log n) time and O(n) memory per direction.

Iterative solvers stop when the objective changes by less than
``config.tol_outer`` between consecutive iterations; ``gsr_admm`` (so also
``rgtvr``) additionally requires the split ``T = X + W + E + slack`` and, with
beta > 0, the duplicate ``X = Z`` to hold to 1e-6 relative. Hitting
``config.max_outer`` first returns the last iterate with ``converged=False``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    EmptyAccessibleSet,
    Infeasible,
    NonFiniteObjective,
)
from .graph import (
    GraphShift,
    _extreme_eigenpairs,
    _require_normalized,
    tilde_shift,
)
from .prox import factorized, shrink, svt

# Relative feasibility tolerance for the ADMM coupling constraints.
FEAS_RTOL = 1e-6

# Bisection steps of anomaly_detect_constrained after its halving search:
# each halves the bracket of the critical l1 weight.
MAX_BISECT = 40

# Step search of the proximal-gradient driver: each iteration starts at most
# at STEP_T0 and shrinks the step by STEP_RHO, at most STEP_HALVINGS times.
STEP_T0 = 1.0
STEP_RHO = 0.5
STEP_HALVINGS = 50


@dataclass(frozen=True)
class SolverConfig:
    """Weights and iteration controls shared by every solver.

    alpha weights quadratic variation, beta the nuclear norm, gamma the
    outlier l1 norm, penalty is the ADMM penalty parameter. tol_outer and
    max_outer control the stop of every iterative solver. The step search of
    the proximal-gradient solvers is fixed by the module constants
    ``STEP_T0``, ``STEP_RHO`` and ``STEP_HALVINGS``.
    """

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    penalty: float = 1.0
    tol_outer: float = 1e-8
    max_outer: int = 2000

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if self.tol_outer <= 0:
            raise ValueError("tol_outer must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")

    def replace(self, **changes) -> "SolverConfig":
        return dataclass_replace(self, **changes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RecoveryResult:
    """Output of a recovery solver.

    x is the recovered signal (vector or matrix matching the input),
    outliers/noise the sparse and dense error estimates where the solver
    separates them, aux holds the ADMM internals: ``slack`` (the split's
    part off the accessible set) and ``multiplier_split``, plus
    ``duplicate`` and ``multiplier_duplicate`` when beta > 0. The objective
    trace has one entry per iteration.
    """

    x: np.ndarray
    outliers: np.ndarray | None = None
    noise: np.ndarray | None = None
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    converged: bool = False
    meta: dict[str, Any] = field(default_factory=dict)


def _matrix_inputs(T, mask, shift: GraphShift) -> tuple[np.ndarray, np.ndarray, bool]:
    """The signal as an (n, L) matrix, its mask, and whether it was a vector."""
    _require_normalized(shift)
    T2, m = np.asarray(T, dtype=float), np.asarray(mask)
    was_vec = T2.ndim == 1
    if was_vec:
        T2, m = T2[:, None], (m[:, None] if m.ndim == 1 else m)
    if T2.ndim != 2:
        raise DimensionMismatch(f"signal must be 1-d or 2-d, got {T2.ndim}-d")
    if T2.shape[0] != shift.n:
        raise DimensionMismatch(f"signal rows {T2.shape[0]} != nodes {shift.n}")
    if m.dtype != np.bool_:
        raise DimensionMismatch("mask must be a boolean array")
    if m.shape != T2.shape:
        raise DimensionMismatch(f"mask shape {m.shape} != signal shape {T2.shape}")
    if not m.any():
        raise EmptyAccessibleSet("mask marks no entry as accessible")
    return T2, m, was_vec


def _vector_signal(t, shift: GraphShift) -> np.ndarray:
    _require_normalized(shift)
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] != shift.n:
        raise DimensionMismatch(
            f"expected vector of length {shift.n}, got shape {t.shape}"
        )
    return t


def _vector_inputs(t, mask, shift: GraphShift) -> tuple[np.ndarray, np.ndarray]:
    t = _vector_signal(t, shift)
    m = np.asarray(mask)
    if m.dtype != np.bool_ or m.shape != t.shape:
        raise DimensionMismatch("mask must be a boolean array matching the signal")
    if not m.any():
        raise EmptyAccessibleSet("mask marks no entry as accessible")
    return t, m


def _nuclear_norm(X: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(X, compute_uv=False)))


def _variation(X: np.ndarray, shift: GraphShift) -> float:
    d = X - shift.matrix @ X
    return float(np.sum(d * d))


def _variation_grad(X: np.ndarray, shift: GraphShift) -> np.ndarray:
    # gradient of ||X - A X||_F^2: 2 (I - A)^T (I - A) X, with the shift's
    # own CSR transpose: ``A.T @ d`` would build a CSC transpose on every
    # gradient
    d = X - shift.matrix @ X
    return 2.0 * (d - shift._transpose @ d)


# ---------------------------------------------------------------------------
# closed-form inpainting
# ---------------------------------------------------------------------------

def _regularized_fit(t: np.ndarray, m: np.ndarray, quadratic,
                     alpha: float) -> tuple[np.ndarray, float]:
    """Minimizer of ``||(x - t)_M||_2^2 + alpha x^T Q x`` and its objective.

    One sparse factorization of ``diag(M) + alpha Q`` (Q sparse, symmetric
    PSD) by :func:`~gsrec.prox.factorized`, so a singular system gets the
    minimum-norm solution. The callers check their own inputs.
    """
    x = factorized(sp.diags_array(m.astype(float)) + alpha * quadratic)(
        np.where(m, t, 0.0))
    r = (x - t)[m]
    return x, float(r @ r) + alpha * float(x @ (quadratic @ x))


def gtvm(t: np.ndarray, mask: np.ndarray, shift: GraphShift) -> RecoveryResult:
    """Noiseless graph signal inpainting.

    Keeps the measured values and fills the hidden nodes with the unique
    minimum-variation extension: minimize ``||x - A x||_2^2`` subject to
    ``x_M = t_M``. The hidden block of ``(I - A)^T (I - A)`` is factored
    once by :func:`~gsrec.prox.factorized`; it is singular when a closed
    class of the graph holds no measured node, and the hidden values are
    then the minimum-norm solution.
    """
    t, m = _vector_inputs(t, mask, shift)
    at = tilde_shift(shift)
    x = np.where(m, t, 0.0)
    hidden = np.flatnonzero(~m)
    if hidden.size:
        rows = at[hidden]
        x[hidden] = -factorized(rows[:, hidden])(rows[:, np.flatnonzero(m)] @ t[m])
    obj = _variation(x[:, None], shift)
    return RecoveryResult(
        x=x,
        objective_trace=np.array([obj]),
        iterations=1,
        converged=True,
        meta={"solver": "gtvm"},
    )


def gtvr(t: np.ndarray, mask: np.ndarray, shift: GraphShift, alpha: float) -> RecoveryResult:
    """Noisy graph signal inpainting.

    Minimizes ``||(x - t)_M||_2^2 + alpha * ||x - A x||_2^2`` in closed form:
    one sparse factorization of ``diag(M) + alpha (I - A)^T (I - A)`` by
    :func:`~gsrec.prox.factorized`. A singular system (alpha = 0 with hidden
    nodes, or a closed class of the graph without a measured node) gets the
    minimum-norm solution.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    t, m = _vector_inputs(t, mask, shift)
    x, obj = _regularized_fit(t, m, tilde_shift(shift), alpha)
    return RecoveryResult(
        x=x,
        objective_trace=np.array([obj]),
        iterations=1,
        converged=True,
        meta={"solver": "gtvr", "alpha": alpha},
    )


# ---------------------------------------------------------------------------
# proximal gradient
# ---------------------------------------------------------------------------

class _ProxGradientRun(NamedTuple):
    x: np.ndarray
    trace: np.ndarray
    iterations: int
    converged: bool
    step: float
    fixed_point_residual: float | None


def _prox_gradient(x: np.ndarray,
                   smooth: Callable[[np.ndarray], float],
                   grad: Callable[[np.ndarray], np.ndarray],
                   prox: Callable[[np.ndarray, float], tuple[np.ndarray, float]],
                   nonsmooth: float,
                   config: SolverConfig,
                   descent: bool = False,
                   fixed_point_tol: float | None = None) -> _ProxGradientRun:
    """Minimize ``f + g`` by proximal gradient with a backtracked step.

    ``smooth`` and ``grad`` evaluate f and its gradient; g is reached only
    through ``prox(v, t)``, which returns ``prox_{t g}(v)`` together with g
    at that point, and ``nonsmooth`` is g at the start point x. The step
    search reads the module constants: each iteration first lets the step t
    grow back to ``min(t / STEP_RHO, STEP_T0)``, then shrinks it by
    ``STEP_RHO`` (at most ``STEP_HALVINGS`` times) until the candidate is
    accepted: when f lies below its quadratic model at the candidate, which
    keeps the objective from increasing, or, with ``descent=True``, when the
    objective ``f + g`` itself does not increase. Without an accepted
    candidate the iterate stays where it is.

    The run stops once the objective changes by less than
    ``config.tol_outer``. With ``fixed_point_tol`` the stop also needs the
    fixed-point residual ``max |x - prox(x - t grad(x), t)|`` to be at most
    that tolerance, and the residual at the returned point is reported.
    """

    def residual(xc, t):
        d = xc - prox(xc - t * grad(xc), t)[0]
        return float(np.max(np.abs(d))) if d.size else 0.0

    f_val = smooth(x)
    F = f_val + nonsmooth
    trace = []
    t = STEP_T0
    converged = False
    it = 0
    for it in range(1, config.max_outer + 1):
        g = grad(x)
        t = min(t / STEP_RHO, STEP_T0)
        moved = False
        for _ in range(STEP_HALVINGS + 1):
            cand, g_cand = prox(x - t * g, t)
            f_cand = smooth(cand)
            if descent:
                moved = f_cand + g_cand <= F
            else:
                diff = cand - x
                moved = f_cand <= (f_val + float(np.vdot(g, diff))
                                   + float(np.vdot(diff, diff)) / (2.0 * t))
            if moved:
                break
            t *= STEP_RHO
        if moved:
            x, f_val = cand, f_cand
            F_new = f_val + g_cand
        else:
            F_new = F
        if not np.isfinite(F_new):
            raise NonFiniteObjective(f"objective became {F_new} at iteration {it}")
        trace.append(F_new)
        if abs(F_new - F) < config.tol_outer and (
                fixed_point_tol is None or residual(x, t) <= fixed_point_tol):
            converged = True
            break
        F = F_new
    return _ProxGradientRun(x, np.array(trace), it, converged, t,
                            None if fixed_point_tol is None else residual(x, t))


# ---------------------------------------------------------------------------
# matrix completion by proximal gradient
# ---------------------------------------------------------------------------

def gmcm(T: np.ndarray, mask: np.ndarray, shift: GraphShift,
         config: SolverConfig | None = None) -> RecoveryResult:
    """Graph-regularized matrix completion with measured entries pinned.

    Minimizes ``||X - A X||_F^2 + beta * ||X||_*`` subject to ``X_M = T_M``
    by projected proximal gradient: a variation gradient step, singular value
    thresholding, then re-pinning the measured entries. The step is halved
    until the objective does not increase.
    """
    config = config or SolverConfig()
    T2, m, was_vec = _matrix_inputs(T, mask, shift)
    beta = config.beta

    def pinned_svt(V, t):
        if beta > 0:
            V = svt(V, t * beta)[0]
        V = np.where(m, T2, V)
        return V, (beta * _nuclear_norm(V) if beta > 0 else 0.0)

    X = np.where(m, T2, 0.0)
    run = _prox_gradient(X, lambda Xc: _variation(Xc, shift),
                         lambda Xc: _variation_grad(Xc, shift), pinned_svt,
                         beta * _nuclear_norm(X) if beta > 0 else 0.0,
                         config, descent=True)
    return RecoveryResult(
        x=run.x[:, 0] if was_vec else run.x,
        objective_trace=run.trace,
        iterations=run.iterations,
        converged=run.converged,
        meta={"solver": "gmcm", "step": run.step},
    )


def gmcr(T: np.ndarray, mask: np.ndarray, shift: GraphShift,
         config: SolverConfig | None = None) -> RecoveryResult:
    """Graph-regularized matrix completion with a least-squares data term.

    Minimizes ``||(X - T)_M||_F^2 + alpha * ||X - A X||_F^2 + beta * ||X||_*``
    by proximal gradient with backtracking on the smooth part (accept the step
    when the local quadratic model is an upper bound, which guarantees the
    composite objective never increases).
    """
    config = config or SolverConfig()
    T2, m, was_vec = _matrix_inputs(T, mask, shift)
    alpha, beta = config.alpha, config.beta

    def smooth(Xc):
        r = Xc[m] - T2[m]
        return float(r @ r) + alpha * _variation(Xc, shift)

    def smooth_grad(Xc):
        g = np.zeros_like(Xc)
        g[m] = 2.0 * (Xc[m] - T2[m])
        return g + alpha * _variation_grad(Xc, shift)

    def nuclear_prox(V, t):
        if beta > 0:
            V, s = svt(V, t * beta)
            return V, beta * float(np.sum(s))
        return V, 0.0

    X = np.where(m, T2, 0.0)
    run = _prox_gradient(X, smooth, smooth_grad, nuclear_prox,
                         beta * _nuclear_norm(X) if beta > 0 else 0.0, config)
    return RecoveryResult(
        x=run.x[:, 0] if was_vec else run.x,
        objective_trace=run.trace,
        iterations=run.iterations,
        converged=run.converged,
        meta={"solver": "gmcr", "step": run.step},
    )


# ---------------------------------------------------------------------------
# anomaly detection
# ---------------------------------------------------------------------------

def anomaly_detect(t: np.ndarray, shift: GraphShift, beta_reg: float,
                   config: SolverConfig | None = None,
                   e0: np.ndarray | None = None) -> RecoveryResult:
    """Sparse outlier detection on a fully observed signal.

    Minimizes ``||(t - e) - A (t - e)||_2^2 + beta_reg * ||e||_1`` over the
    outlier vector e by proximal gradient (soft threshold after a variation
    gradient step, backtracking on the smooth part). Returns the cleaned
    signal ``x = t - e`` and the outlier estimate. ``e0`` warm-starts the
    iteration; the default start is zero.

    ``converged`` means a genuine fixed point of the prox map (residual at
    most 1e-6), not just a plateau of the objective.
    """
    if beta_reg < 0:
        raise ValueError("beta_reg must be nonnegative")
    config = config or SolverConfig()
    t = _vector_signal(t, shift)

    def smooth(ec):
        d = (t - ec)[:, None]
        return _variation(d, shift)

    def smooth_grad(ec):
        d = (t - ec)[:, None]
        return -_variation_grad(d, shift)[:, 0]

    def l1_prox(v, step):
        ec = shrink(v, step * beta_reg)
        return ec, beta_reg * float(np.sum(np.abs(ec)))

    if e0 is None:
        e = np.zeros_like(t)
    else:
        e = np.asarray(e0, dtype=float).copy()
        if e.shape != t.shape:
            raise DimensionMismatch(
                f"warm start shape {e.shape} does not match signal {t.shape}"
            )
    run = _prox_gradient(e, smooth, smooth_grad, l1_prox,
                         beta_reg * float(np.sum(np.abs(e))), config,
                         fixed_point_tol=1e-6)
    return RecoveryResult(
        x=t - run.x,
        outliers=run.x,
        objective_trace=run.trace,
        iterations=run.iterations,
        converged=run.converged,
        meta={
            "solver": "anomaly_detect",
            "beta_reg": beta_reg,
            "step": run.step,
            "fixed_point_residual": run.fixed_point_residual,
        },
    )


def _l1_line_search(e: np.ndarray, v: np.ndarray,
                    nz: np.ndarray) -> tuple[float, float]:
    """The breakpoint c minimizing ``sum |e + c v|``, and that exact cost.

    The breakpoints are ``b_i = -e_i / v_i`` over the entries ``nz`` where v
    is not negligible. Off ``nz`` the entries are nearly constant in c; on
    it the cost is ``sum |v_i| |c - b_i|``, a piecewise linear function
    whose minimum sits at the weighted median of the breakpoints. Sorting
    them once gives the cost at every breakpoint from prefix sums, O(n log n)
    time and O(n) memory. Those costs carry rounding and the off-``nz``
    drift, bounded by ``1e-10`` of the sums' magnitude plus ``|c| sum
    |v_off|``; only the distinct breakpoints that this bound cannot rule out
    get the exact cost ``sum |e + c v|``. The lowest exact cost wins, ties
    going to the first breakpoint in entry order: the one an exact
    evaluation at every breakpoint would pick.
    """
    candidates = -e[nz] / v[nz]
    w = np.abs(v[nz])
    order = np.argsort(candidates, kind="stable")
    b = candidates[order]
    wb = w[order]
    weight_left = np.cumsum(wb)
    moment_left = np.cumsum(wb * b)
    weight, moment = weight_left[-1], moment_left[-1]
    off_cost = float(np.abs(e[~nz]).sum())
    off_weight = float(np.abs(v[~nz]).sum())
    # sum_j w_j |b_i - b_j|, split at i: left b_i W_i - M_i, right the rest
    cost = b * (2.0 * weight_left - weight) - (2.0 * moment_left - moment) + off_cost
    bound = (1e-10 * (np.abs(b) * weight + float(np.abs(wb * b).sum()) + off_cost)
             + np.abs(b) * off_weight)
    kept = np.flatnonzero(cost - bound <= np.min(cost + bound))
    values, which = np.unique(b[kept], return_inverse=True)
    exact = np.array([np.abs(e + c * v).sum() for c in values])
    best = exact[which] == exact.min()
    return candidates[order[kept[best]].min()], exact.min()


def _l1_polish_along(e: np.ndarray, basis: np.ndarray, passes: int = 4) -> np.ndarray:
    """Exact l1 minimization of ``e + basis @ c`` one direction at a time.

    Along each direction v the l1 norm is piecewise linear in the
    coefficient, so the optimum sits at a breakpoint where one entry crosses
    zero: the weighted median of ``-e_i / v_i`` with weights ``|v_i|``.
    :func:`_l1_line_search` finds it from one sort and prefix sums, O(n log n)
    time and O(n) memory per direction. A move is taken only when it lowers
    the norm by more than ``1e-15`` relative. Multiple directions are handled
    by cyclic passes, which never increase the norm.
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
            c, cost = _l1_line_search(e, v, nz)
            current = float(np.abs(e).sum())
            if cost < current - 1e-15 * (1.0 + current):
                e = e + c * v
                improved = True
        if not improved:
            break
    return e


def _variation_free(shift: GraphShift) -> tuple[np.ndarray, float]:
    """Null space basis of ``tilde_shift(shift)`` and its largest eigenvalue.

    The null space holds the signals with zero variation (one vector per
    closed class of a row-stochastic shift). An eigenvalue counts as zero at
    or below ``1e-12 * max(lambda_max, 1)``. Both ends come from the shift's
    sparse Lanczos solves: ``lambda_max`` from one, the null space from the
    lowest k = 2, 4, 8, ... eigenpairs (sharing one sparse LU) until the
    largest of them is nonzero; k starts at 2, the least that shows a
    connected graph's one null vector is the only one.
    """
    lambda_max = float(_extreme_eigenpairs(shift, 1, lowest=False)[0][-1])
    cutoff = 1e-12 * max(lambda_max, 1.0)
    n, k = shift.n, min(2, shift.n)
    while True:
        values, vectors = _extreme_eigenpairs(shift, k)
        if values[-1] > cutoff or k == n:
            return vectors[:, values <= cutoff], lambda_max
        k = min(2 * k, n)


def anomaly_detect_constrained(t: np.ndarray, shift: GraphShift, eta_smooth: float,
                               config: SolverConfig | None = None,
                               ) -> RecoveryResult:
    """Outlier detection under an explicit smoothness cap.

    Finds the critical l1 weight by bisection so the cleaned signal satisfies
    ``||x - A x||_2^2 <= eta_smooth^2`` (with 1e-6 relative slack) while the
    outlier estimate stays as small as possible, then returns the solution at
    that weight. The bisection is warm-started: the first penalized solve at
    each weight, those of the initial halving search included, starts from
    the outliers at the weight solved just before it. Each penalized solve is
    polished by an exact l1 line search over the variation-free subspace
    (directions the cap cannot see), a weighted median of O(n log n) time
    and O(n) memory per direction, which removes the slow drift the plain
    proximal iteration suffers there. Raises :class:`Infeasible` when no
    weight in the search range satisfies the cap.

    ``converged`` certifies the constrained problem: the returned point meets
    the cap and is stationary for the final weight (up to variation-free
    directions, which the polish handles exactly). ``iterations`` sums the
    iterations (and polish steps) of every weight the bisection tried; the
    objective trace is that of the returned weight alone.
    """
    if eta_smooth < 0:
        raise ValueError("eta_smooth must be nonnegative")
    config = config or SolverConfig()
    t = _vector_signal(t, shift)
    target = eta_smooth ** 2
    base_variation = _variation(t[:, None], shift)
    slack = target * 1e-6 + 1e-9 * (1.0 + base_variation)

    def feasible(value: float) -> bool:
        return value <= target + slack

    if feasible(base_variation):
        return RecoveryResult(
            x=t.copy(),
            outliers=np.zeros_like(t),
            objective_trace=np.array([0.0]),
            iterations=1,
            converged=True,
            meta={
                "solver": "anomaly_detect_constrained",
                "beta_reg": float("inf"),
                "smoothness": base_variation,
                "target": target,
                "bisections": 0,
            },
        )

    # sparse Lanczos solves: the variation-free subspace and the Lipschitz
    # constant, without a dense copy of the operator
    at = tilde_shift(shift)
    null_basis, lambda_max = _variation_free(shift)
    lipschitz = 2.0 * max(lambda_max, 0.0)

    last = None  # outliers at the weight solved last

    def solve_at(beta: float) -> RecoveryResult:
        # start from the outliers at the weight solved last, then alternate
        # the penalized solve with the exact subspace polish; the polish
        # jumps over the flat directions, the re-solve cleans up the rest
        # from that much better starting point
        nonlocal last
        warm = last
        traces = []
        iterations = 0
        sol = None
        for _ in range(3):
            sol = anomaly_detect(t, shift, beta, config, e0=warm)
            traces.append(sol.objective_trace)
            iterations += sol.iterations
            polished = _l1_polish_along(sol.outliers, null_basis)
            if np.array_equal(polished, sol.outliers):
                break
            x = t - polished
            objective = (_variation(x[:, None], shift)
                         + beta * float(np.abs(polished).sum()))
            traces.append(np.array([objective]))
            iterations += 1
            sol = dataclass_replace(sol, x=x, outliers=polished,
                                    meta=dict(sol.meta, polished=True))
            warm = polished
        last = sol.outliers
        return dataclass_replace(sol, objective_trace=np.concatenate(traces),
                                 iterations=iterations)

    beta_hi = 1.001 * 2.0 * float(np.max(np.abs(at @ t)))
    if beta_hi <= 0:
        beta_hi = 1.0
    best = None
    beta_lo = beta_hi
    iterations = 0
    for _ in range(80):
        beta_lo *= 0.5
        sol = solve_at(beta_lo)
        iterations += sol.iterations
        if feasible(_variation(sol.x[:, None], shift)):
            best = (beta_lo, sol)
            break
    if best is None:
        raise Infeasible(
            f"no l1 weight down to {beta_lo:.3e} meets the smoothness cap "
            f"{target:.3e}"
        )
    lo, hi = best[0], beta_hi
    steps = 0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        sol = solve_at(mid)
        iterations += sol.iterations
        steps += 1
        if feasible(_variation(sol.x[:, None], shift)):
            lo = mid
            best = (mid, sol)
        else:
            hi = mid
    beta_star, sol = best

    # stationarity certificate at the returned point, ignoring displacement
    # along the variation-free subspace the polish already optimized
    e = sol.outliers
    step_fp = 1.0 / max(lipschitz, 1e-12)
    grad = -2.0 * (at @ (t - e))
    disp = e - shrink(e - step_fp * grad, step_fp * beta_star)
    if null_basis.size:
        disp = disp - null_basis @ (null_basis.T @ disp)
    stationarity = float(np.max(np.abs(disp))) if disp.size else 0.0
    stationary = stationarity <= 1e-6 * (1.0 + float(np.max(np.abs(e))))
    return dataclass_replace(
        sol, iterations=iterations, converged=sol.converged or stationary,
        meta=dict(sol.meta, solver="anomaly_detect_constrained",
                  beta_reg=beta_star, smoothness=_variation(sol.x[:, None], shift),
                  target=target, bisections=steps, stationarity=stationarity))


# ---------------------------------------------------------------------------
# ADMM solvers
# ---------------------------------------------------------------------------

def gsr_admm(T: np.ndarray, mask: np.ndarray, shift: GraphShift,
             config: SolverConfig | None = None) -> RecoveryResult:
    """General recovery: smooth + low-rank signal, sparse outliers, noise.

    Minimizes ``alpha ||X - A X||_F^2 + beta ||X||_* + gamma ||E||_1 +
    ||W||_F^2`` subject to the measurements splitting as
    ``T = X + W + E + slack`` (W the noise) with the slack supported off the
    accessible set; the objective trace records that whole sum. Solved by
    ADMM. With beta > 0 a duplicate Z of X carries the smoothness term, so
    the X-step is one svt and the Z-step one solve with
    ``I + (2 alpha / eta) (I - A)^T (I - A)``; with beta = 0 there is no
    duplicate and the X-step is that solve itself. With gamma = 0 the
    outlier variable is dropped from the model (held at zero).

    Specializations: :func:`rgtvr` is one column with beta = 0; one column
    with beta = gamma = 0 reproduces :func:`gtvr`; alpha = 0 with gamma = 0
    is nuclear-norm completion; one column with beta = 0 and a full mask is
    robust denoising.
    """
    config = config or SolverConfig()
    T2, m, was_vec = _matrix_inputs(T, mask, shift)
    alpha, beta, gamma, eta = config.alpha, config.beta, config.gamma, config.penalty
    solve = factorized(sp.eye_array(shift.n) + (2.0 * alpha / eta) * tilde_shift(shift))

    X = np.where(m, T2, 0.0)
    W = np.zeros_like(T2)
    E = np.zeros_like(T2)
    Z = np.zeros_like(T2)
    C = np.zeros_like(T2)
    Y1 = np.zeros_like(T2)
    Y2 = np.zeros_like(T2)

    def objective(Xc, Wc, Ec, nuclear):
        val = alpha * _variation(Xc, shift) + float(np.sum(Wc * Wc))
        if beta > 0:
            val += beta * nuclear
        if gamma > 0:
            val += gamma * float(np.sum(np.abs(Ec)))
        return val

    F = objective(X, W, E, _nuclear_norm(X) if beta > 0 else 0.0)
    t_norm = float(np.linalg.norm(T2))
    trace = []
    nuclear = 0.0
    converged = False
    it = 0
    for it in range(1, config.max_outer + 1):
        if beta > 0:
            # X minimizes beta ||X||_* + eta/2 (||X - P||^2 + ||X - Q||^2) for
            # P = T - W - E - C - Y1/eta and Q = Z + Y2/eta: one svt of their mean
            R = 0.5 * ((T2 - W - E - C - Y1 / eta) + (Z + Y2 / eta))
            X, s = svt(R, beta / (2.0 * eta))
            nuclear = float(np.sum(s))
        else:
            # X minimizes alpha ||X - A X||^2 + eta/2 ||X - P||^2 directly
            X = solve(T2 - W - E - C - Y1 / eta)
        W = (eta / (eta + 2.0)) * (T2 - X - E - C - Y1 / eta)
        if gamma > 0:
            E = shrink(T2 - X - W - C - Y1 / eta, gamma / eta)
        C = np.where(m, 0.0, T2 - X - W - E - Y1 / eta)
        Y1 = Y1 - eta * (T2 - X - W - E - C)
        if beta > 0:
            Z = solve(X - Y2 / eta)
            Y2 = Y2 - eta * (X - Z)
        F_new = objective(X, W, E, nuclear)
        if not np.isfinite(F_new):
            raise NonFiniteObjective(f"objective became {F_new} at iteration {it}")
        trace.append(F_new)
        feasible = (
            np.linalg.norm(T2 - X - W - E - C) <= FEAS_RTOL * (1.0 + t_norm)
            and (beta == 0
                 or np.linalg.norm(X - Z) <= FEAS_RTOL * (1.0 + np.linalg.norm(X)))
        )
        if abs(F_new - F) < config.tol_outer and feasible:
            converged = True
            break
        F = F_new

    def out(arr):
        return arr[:, 0] if was_vec else arr

    aux = {"slack": out(C), "multiplier_split": out(Y1)}
    if beta > 0:
        aux.update(duplicate=out(Z), multiplier_duplicate=out(Y2))
    return RecoveryResult(
        x=out(X),
        outliers=out(E),
        noise=out(W),
        aux=aux,
        objective_trace=np.array(trace),
        iterations=it,
        converged=converged,
        meta={"solver": "gsr_admm", "penalty": eta},
    )


def rgtvr(t: np.ndarray, mask: np.ndarray, shift: GraphShift,
          config: SolverConfig | None = None) -> RecoveryResult:
    """Inpainting robust to sparse corruption of the measured values.

    Minimizes ``||(t - x - e)_M||_2^2 + alpha ||x - A x||_2^2 + gamma ||e||_1``,
    separating the signal x from a sparse measurement-error vector e. This is
    :func:`gsr_admm` on one column at beta = 0 (``config.beta`` is ignored).
    The misfit is the least noise ``||w||^2`` over the split, and the
    objective trace records that noise term in its place. With gamma = 0 the
    outlier variable is dropped and the solution matches :func:`gtvr`.
    """
    t, m = _vector_inputs(t, mask, shift)
    result = gsr_admm(t, m, shift, (config or SolverConfig()).replace(beta=0.0))
    result.meta["solver"] = "rgtvr"
    return result
