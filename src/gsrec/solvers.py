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
    anomaly_detect_constrained  weight search enforcing a smoothness cap

ADMM
    gsr_admm  the full model: smoothness + low rank + sparse outliers + noise
    rgtvr     gsr_admm on one column at beta = 0: inpainting robust to
              sparse corruption of the measurements

The three proximal-gradient solvers run one shared driver,
:func:`_prox_gradient`; each supplies only its smooth part, that part's
gradient and a proximal step (``svt`` or ``shrink``) that also returns the
nonsmooth value of its result. The smooth part also returns the shift
residual ``X - A X`` of the point it evaluated, and the driver hands the
accepted candidate's residual to the next gradient, which then costs one
sparse product (with A^T). The driver backtracks the step until the
smooth part lies below its quadratic model at the candidate (Beck & Teboulle
2009). ``gmcm`` instead accepts a candidate when the full objective does not
increase, because re-pinning the measured entries after the thresholding makes
its step something other than a proximal map. Each step search starts at the
step accepted last and tries a doubled one (capped at ``STEP_T0``) only after
``STEP_GROW_AFTER`` iterations in a row were accepted at their first
candidate, so a run whose step has settled spends about one proximal map
per iteration instead of two.

``gsr_admm`` is the one ADMM loop, and every block update in it is one
closed form: a solve with a sparse LU factorization made once per call, an
``svt`` or a ``shrink``. With a nuclear-norm weight the svt acts on X and
the solve on a duplicate of X; at beta = 0 there is no duplicate and the
solve is the X-step itself. The loop is over-relaxed by the fixed factor
``ADMM_RELAX`` (Eckstein & Bertsekas 1992; Boyd et al. 2011, section
3.4.3): the blocks after the X-step and the multipliers read X mixed with
the values it is coupled to, which saves about a third of the iterations
on the benchmark's completion and inpainting instances.

Every nuclear-norm step (``svt``) and nuclear-norm value (``gmcm``'s
re-pinned candidates and the start values of ``gmcm``, ``gmcr`` and
``gsr_admm``) comes from :mod:`gsrec.prox`. For a tall n x L iterate
(n >= 4 L) both read the spectrum off the L x L Gram matrix ``X^T X`` by one
``eigh`` or ``eigvalsh``, O(n L^2), and use the SVD only where squaring the
matrix would cost accuracy (see :func:`~gsrec.prox.svt`).

The shift enters through its CSR matrix A and the operators the
:class:`~gsrec.graph.GraphShift` derives from A once and keeps: the closed
forms factor sparse systems built from ``(I - A)^T (I - A)`` with
:func:`~gsrec.prox.factorized`, the iterative solvers apply A and the
shift's CSR A^T as sparse products, O(nnz) each, and
``anomaly_detect_constrained`` reads the few lowest eigenpairs it needs.

``anomaly_detect_constrained`` searches the l1 weight at which the
variation meets the cap: halvings up to the first feasible weight, then
safeguarded regula falsi (Anderson-Bjorck) down to the width of a
``MAX_BISECT``-step bisection, in at most ``MAX_BISECT`` weights. Each
weight's solve is warm-started from the outliers at the weight solved
before it and polished along the variation-free subspace by an exact l1
line search: the weighted median of the breakpoints, found from one sort
and prefix sums, O(n log n) time and O(n) memory per direction.

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
    _lowest_eigenpairs,
    _require_normalized,
    tilde_shift,
)
from .prox import _nuclear_norm, factorized, shrink, svt

# Relative feasibility tolerance for the ADMM coupling constraints.
FEAS_RTOL = 1e-6

# Most weights anomaly_detect_constrained solves, and the width its search
# stops at: beta_hi * 2^-MAX_BISECT, where MAX_BISECT halvings of the first
# bracket [0, beta_hi] would leave it. The halvings that look for the first
# feasible weight count against it too.
MAX_BISECT = 40

# Step search of the proximal-gradient driver: each iteration starts at the
# step accepted last, grown by 1 / STEP_RHO (up to STEP_T0) only after
# STEP_GROW_AFTER iterations in a row were accepted at their first candidate,
# and shrinks the step by STEP_RHO, at most STEP_HALVINGS times.
STEP_T0 = 1.0
STEP_RHO = 0.5
STEP_HALVINGS = 50
STEP_GROW_AFTER = 4

# Over-relaxation factor of the ADMM loop (Boyd et al. 2011, section 3.4.3)
ADMM_RELAX = 1.6


@dataclass(frozen=True)
class SolverConfig:
    """Weights and iteration controls shared by every solver.

    alpha weights quadratic variation, beta the nuclear norm, gamma the
    outlier l1 norm, penalty is the ADMM penalty parameter. tol_outer and
    max_outer control the stop of every iterative solver. The step search of
    the proximal-gradient solvers is fixed by the module constants
    ``STEP_T0``, ``STEP_RHO``, ``STEP_HALVINGS`` and ``STEP_GROW_AFTER``,
    the ADMM over-relaxation by ``ADMM_RELAX`` (Boyd et al. 2011, section
    3.4.3).
    """

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    penalty: float = 1.0
    tol_outer: float = 1e-8
    max_outer: int = 2000

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        for name in ("penalty", "tol_outer"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # bool is an int subclass, and a float would end in range()
        if (isinstance(self.max_outer, bool)
                or not isinstance(self.max_outer, (int, np.integer))
                or self.max_outer < 1):
            raise ValueError("max_outer must be an integer of at least 1, "
                             f"got {self.max_outer!r}")

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


def _residual_variation(X: np.ndarray, shift: GraphShift) -> tuple[float, np.ndarray]:
    """``||X - A X||_F^2`` and the residual ``d = X - A X`` it sums."""
    d = X - shift.matrix @ X
    return float(np.sum(d * d)), d


def _variation(X: np.ndarray, shift: GraphShift) -> float:
    return _residual_variation(X, shift)[0]


def _variation_grad(d: np.ndarray, shift: GraphShift) -> np.ndarray:
    # gradient of ||X - A X||_F^2, 2 (I - A)^T (I - A) X, from the residual
    # d = X - A X, with the shift's own CSR transpose: ``A.T @ d`` would
    # build a CSC transpose on every gradient
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
    backtracks: int


def _prox_gradient(x: np.ndarray,
                   smooth: Callable[[np.ndarray], tuple[float, np.ndarray]],
                   grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   prox: Callable[[np.ndarray, float], tuple[np.ndarray, float]],
                   nonsmooth: float,
                   config: SolverConfig,
                   descent: bool = False,
                   fixed_point_tol: float | None = None) -> _ProxGradientRun:
    """Minimize ``f + g`` by proximal gradient with a backtracked step.

    ``smooth(x)`` returns f at x together with the shift residual
    ``d = X - A X`` it was built from, and ``grad(x, d)`` the gradient of f
    at x from that residual: the accepted candidate's residual serves the
    next gradient, so no iteration forms ``A X`` twice. g is reached only
    through ``prox(v, t)``, which returns ``prox_{t g}(v)`` together with g
    at that point, and ``nonsmooth`` is g at the start point x. The step
    search reads the module constants: the first iteration starts at
    ``STEP_T0`` and each later one at the step the search before it ended
    on, grown to ``min(t / STEP_RHO, STEP_T0)`` only after
    ``STEP_GROW_AFTER`` iterations in a row were accepted at their first
    candidate. It shrinks the step by ``STEP_RHO`` (at most
    ``STEP_HALVINGS`` times) until the candidate is accepted: when f lies
    below its quadratic model at the candidate, which keeps the objective
    from increasing, or, with ``descent=True``, when the objective ``f + g``
    itself does not increase. Without an accepted candidate the iterate
    stays where it is. ``backtracks`` counts the rejected candidates.

    The run stops once the objective changes by less than
    ``config.tol_outer``. With ``fixed_point_tol`` the stop also needs the
    fixed-point residual ``max |x - prox(x - t grad(x), t)|`` to be at most
    that tolerance, and the residual at the returned point is reported; it
    is computed only where the objective test passed, and once more at the
    end of a run that did not converge.
    """

    def residual(xc, dc, t):
        r = xc - prox(xc - t * grad(xc, dc), t)[0]
        return float(np.max(np.abs(r))) if r.size else 0.0

    f_val, d = smooth(x)
    F = f_val + nonsmooth
    trace = []
    t = STEP_T0
    streak = 0  # iterations in a row accepted at their first candidate
    backtracks = 0
    converged = False
    fixed_point = None
    it = 0
    for it in range(1, config.max_outer + 1):
        g = grad(x, d)
        if streak >= STEP_GROW_AFTER:
            t = min(t / STEP_RHO, STEP_T0)
            streak = 0
        moved = False
        for tries in range(STEP_HALVINGS + 1):
            cand, g_cand = prox(x - t * g, t)
            f_cand, d_cand = smooth(cand)
            if descent:
                moved = f_cand + g_cand <= F
            else:
                diff = cand - x
                moved = f_cand <= (f_val + float(np.vdot(g, diff))
                                   + float(np.vdot(diff, diff)) / (2.0 * t))
            if moved:
                break
            t *= STEP_RHO
        backtracks += tries + (not moved)
        streak = streak + 1 if moved and tries == 0 else 0
        if moved:
            x, f_val, d = cand, f_cand, d_cand
            F_new = f_val + g_cand
        else:
            F_new = F
        if not np.isfinite(F_new):
            raise NonFiniteObjective(f"objective became {F_new} at iteration {it}")
        trace.append(F_new)
        if abs(F_new - F) < config.tol_outer:
            if fixed_point_tol is not None:
                fixed_point = residual(x, d, t)
            if fixed_point_tol is None or fixed_point <= fixed_point_tol:
                converged = True
                break
        F = F_new
    if fixed_point_tol is not None and not converged:
        fixed_point = residual(x, d, t)
    return _ProxGradientRun(x, np.array(trace), it, converged, t, fixed_point,
                            backtracks)


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
    run = _prox_gradient(X, lambda Xc: _residual_variation(Xc, shift),
                         lambda Xc, d: _variation_grad(d, shift), pinned_svt,
                         beta * _nuclear_norm(X) if beta > 0 else 0.0,
                         config, descent=True)
    return RecoveryResult(
        x=run.x[:, 0] if was_vec else run.x,
        objective_trace=run.trace,
        iterations=run.iterations,
        converged=run.converged,
        meta={"solver": "gmcm", "step": run.step,
              "backtracks": run.backtracks},
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
        variation, d = _residual_variation(Xc, shift)
        return float(r @ r) + alpha * variation, d

    def smooth_grad(Xc, d):
        g = np.zeros_like(Xc)
        g[m] = 2.0 * (Xc[m] - T2[m])
        return g + alpha * _variation_grad(d, shift)

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
        meta={"solver": "gmcr", "step": run.step,
              "backtracks": run.backtracks},
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
        return _residual_variation((t - ec)[:, None], shift)

    def smooth_grad(ec, d):
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
            "backtracks": run.backtracks,
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


def _variation_free(shift: GraphShift) -> np.ndarray:
    """Null space basis of ``tilde_shift(shift)``.

    The null space holds the signals with zero variation (one vector per
    closed class of a row-stochastic shift). An eigenvalue counts as zero at
    or below ``1e-12 * max(||T||_inf, 1)``: the largest absolute row sum of
    T bounds its largest eigenvalue and costs O(nnz). The basis comes from
    the lowest k = 2, 4, 8, ... eigenpairs (sharing one sparse LU) until the
    largest of them is nonzero; k starts at 2, the least that shows a
    connected graph's one null vector is the only one.
    """
    cutoff = 1e-12 * max(float(abs(tilde_shift(shift)).sum(axis=1).max()), 1.0)
    n, k = shift.n, min(2, shift.n)
    while True:
        values, vectors = _lowest_eigenpairs(shift, k)
        if values[-1] > cutoff or k == n:
            return vectors[:, values <= cutoff]
        k = min(2 * k, n)


def _weight_search(excess: Callable[[float], float], beta_hi: float,
                   excess_hi: float) -> tuple[float, float, int]:
    """Bracket the largest weight beta with ``excess(beta) <= 0``.

    ``excess`` solves at a weight and returns how far its variation lies
    above the cap; it is nondecreasing in beta, and ``excess_hi > 0`` is its
    value at ``beta_hi``. The weights ``beta_hi / 2, beta_hi / 4, ...`` are
    tried until one is feasible; that weight ``lo`` and the one before it
    leave the bracket ``[lo, 2 lo]``. Regula falsi with the Anderson-Bjorck
    rule (1973) shrinks it: the next weight is where the chord between the
    bracket's ends crosses zero, and when the same end moves twice in a row
    the excess kept at the other end is scaled down by
    ``1 - excess_new / excess_old`` (by 1/2 where that is not positive), so
    both ends close in on the critical weight. As in Brent's method (1973,
    ch. 4), a chord point is kept at least half the final width inside the
    bracket, so one weight just past the critical one closes it, and a
    point outside the bracket's interior (a NaN) is replaced by the
    midpoint. The search stops once the bracket is at most
    ``beta_hi * 2^-MAX_BISECT`` wide, the width of a ``MAX_BISECT``-step
    bisection, or after ``MAX_BISECT`` weights. Returns the final bracket
    ``(lo, hi)`` and the number of weights solved; ``lo`` is the largest
    feasible weight solved, 0 when none was.
    """
    lo, hi = 0.0, beta_hi
    excess_lo = None
    solves = 0
    while excess_lo is None and solves < MAX_BISECT:
        beta = 0.5 * hi
        value = excess(beta)
        solves += 1
        if value <= 0:
            lo, excess_lo = beta, value
        else:
            hi, excess_hi = beta, value
    width = beta_hi * 2.0 ** -MAX_BISECT
    moved = None  # the end the last weight replaced
    while hi - lo > width and solves < MAX_BISECT:
        beta = lo + (hi - lo) * excess_lo / (excess_lo - excess_hi)
        beta = min(max(beta, lo + 0.5 * width), hi - 0.5 * width)
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        value = excess(beta)
        solves += 1
        if value <= 0:
            if moved == "lo":
                excess_hi *= _anderson_bjorck(value, excess_lo)
            lo, excess_lo, moved = beta, value, "lo"
        else:
            if moved == "hi":
                excess_lo *= _anderson_bjorck(value, excess_hi)
            hi, excess_hi, moved = beta, value, "hi"
    return lo, hi, solves


def _anderson_bjorck(new: float, old: float) -> float:
    """Scale for the kept end's excess when the other end moved twice."""
    scale = 1.0 - new / old
    return scale if scale > 0 else 0.5


def anomaly_detect_constrained(t: np.ndarray, shift: GraphShift, eta_smooth: float,
                               config: SolverConfig | None = None,
                               ) -> RecoveryResult:
    """Outlier detection under an explicit smoothness cap.

    Finds the critical l1 weight so the cleaned signal satisfies
    ``||x - A x||_2^2 <= eta_smooth^2`` (with 1e-6 relative slack) while the
    outlier estimate stays as small as possible, then returns the solution at
    that weight. The variation of the penalized solution grows with the
    weight, piecewise quadratically, from 0 at weight 0 to the signal's own
    variation at ``beta_hi``, a weight above the one at which the outliers
    vanish. :func:`_weight_search` brackets the crossing:
    halvings of ``beta_hi`` until a weight is feasible, then regula falsi
    with the Anderson-Bjorck rule inside the bracket ``[lo, 2 lo]`` they
    leave, each weight strictly inside the bracket the earlier ones left,
    until it is as narrow as a ``MAX_BISECT``-step bisection's, ``beta_hi *
    2^-MAX_BISECT``, or ``MAX_BISECT`` weights were solved. The largest
    feasible weight solved is returned. The first penalized solve at each
    weight starts from the outliers at the weight solved just before it.
    Each penalized solve is polished by an exact l1 line search over the
    variation-free subspace (directions the cap cannot see), a weighted
    median of O(n log n) time and O(n) memory per direction, which removes
    the slow drift the plain proximal iteration suffers there. Raises
    :class:`Infeasible` when none of ``MAX_BISECT`` halvings, down to
    ``beta_hi * 2^-MAX_BISECT``, satisfies the cap.

    Feasibility is decided at the solver's resolution: a solve that stops
    with fixed-point residual r (at most 1e-6) at step t is exact for entry
    weights within ``r / t`` of its weight. So the weight returned depends
    on the path of weights solved by about that much: another search, such
    as plain bisection, finds the same support and a weight within the
    ``r / t`` of the solves at both ends of both final brackets (times a
    first-order factor of the support, 1 where ``T_SS^-1 s`` keeps the
    signs s), plus the two brackets' widths.

    ``converged`` certifies the constrained problem: the returned point meets
    the cap and is stationary for the final weight at the step of the final
    solve (up to variation-free directions, which the polish handles
    exactly). ``iterations`` sums the iterations (and polish steps) of every
    weight the search tried, ``meta["backtracks"]`` the rejected step
    candidates of those solves; the objective trace is that of the returned
    weight alone. ``meta`` records the returned weight (``beta_reg``), the
    number of weights solved (``bisections``) and the final bracket
    (``bracket``, its feasible end first).
    """
    if not eta_smooth >= 0:
        raise ValueError(f"eta_smooth must be nonnegative, got {eta_smooth}")
    config = config or SolverConfig()
    t = _vector_signal(t, shift)
    target = eta_smooth ** 2
    base_variation = _variation(t[:, None], shift)
    cap = target + (target * 1e-6 + 1e-9 * (1.0 + base_variation))  # with slack
    if base_variation <= cap:
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
                "bracket": (float("inf"), float("inf")),
            },
        )

    at = tilde_shift(shift)
    null_basis = _variation_free(shift)

    last = None  # outliers at the weight solved last
    kept = None  # the solve at the largest feasible weight so far
    iterations = backtracks = 0  # over every weight solved

    def excess(beta: float) -> float:
        # start from the outliers at the weight solved last, then alternate
        # the penalized solve with the exact subspace polish; the polish
        # jumps over the flat directions, the re-solve cleans up the rest
        # from that much better starting point
        nonlocal last, kept, iterations, backtracks
        warm = last
        traces = []
        sol = None
        for _ in range(3):
            sol = anomaly_detect(t, shift, beta, config, e0=warm)
            traces.append(sol.objective_trace)
            iterations += sol.iterations
            backtracks += sol.meta["backtracks"]
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
        value = _variation(sol.x[:, None], shift) - cap
        if value <= 0:
            kept = dataclass_replace(sol, objective_trace=np.concatenate(traces))
        return value

    beta_hi = 1.001 * 2.0 * float(np.max(np.abs(at @ t)))
    if beta_hi <= 0:
        beta_hi = 1.0
    # at beta_hi the outliers vanish, so its variation needs no solve
    lo, hi, solves = _weight_search(excess, beta_hi, base_variation - cap)
    if kept is None:
        raise Infeasible(
            f"no l1 weight down to {hi:.3e} meets the smoothness cap "
            f"{target:.3e}"
        )
    beta_star, sol = lo, kept

    # stationarity certificate at the returned point, ignoring displacement
    # along the variation-free subspace the polish already optimized
    e, step_fp = sol.outliers, sol.meta["step"]
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
                  target=target, bisections=solves, bracket=(lo, hi),
                  backtracks=backtracks, stationarity=stationarity))


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

    The loop is over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011,
    section 3.4.3) with ``rho = ADMM_RELAX``: after the X-step, the W, E
    and C steps and the split's multiplier read ``rho X + (1 - rho) (T - W
    - E - C)`` (W, E, C from the iteration before), and the duplicate's
    solve and multiplier read ``rho X + (1 - rho) Z``. The stop test reads
    X itself: objective change below ``tol_outer`` and both constraints
    met to ``FEAS_RTOL``.

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
        # the other blocks and the multipliers see X over-relaxed against
        # the values it is coupled to, the split's rest and the duplicate
        Xr = ADMM_RELAX * X + (1.0 - ADMM_RELAX) * (T2 - W - E - C)
        W = (eta / (eta + 2.0)) * (T2 - Xr - E - C - Y1 / eta)
        if gamma > 0:
            E = shrink(T2 - Xr - W - C - Y1 / eta, gamma / eta)
        C = np.where(m, 0.0, T2 - Xr - W - E - Y1 / eta)
        Y1 = Y1 - eta * (T2 - Xr - W - E - C)
        if beta > 0:
            Xr = ADMM_RELAX * X + (1.0 - ADMM_RELAX) * Z
            Z = solve(Xr - Y2 / eta)
            Y2 = Y2 - eta * (Xr - Z)
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
