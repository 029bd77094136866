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

Lasso homotopy
    anomaly_detect              sparse-outlier detection, penalized form
    anomaly_detect_constrained  the least l1 outliers under a smoothness cap

ADMM
    gsr_admm  the full model: smoothness + low rank + sparse outliers + noise
    rgtvr     gsr_admm on one column at beta = 0: inpainting robust to
              sparse corruption of the measurements

The two proximal-gradient solvers run one shared loop,
:func:`_prox_gradient`, on their one smooth part ``||w X - T_M||_F^2 +
alpha ||X - A X||_F^2`` (w ``gmcr``'s float mask; ``gmcm`` has no data
term and alpha 1). Each passes that data and a proximal step (an ``svt``)
that also returns the nonsmooth value of its result, then names itself and
shapes ``x``. The loop backtracks the step until the smooth part lies below
its quadratic model (Beck & Teboulle 2009), tested by its exact curvature
along the move, so no difference of two nearly equal objectives lets
rounding shrink the step; ``gmcm``, whose re-pinned step is no proximal
map, accepts a candidate when the objective does not increase. The
accepted candidate's shift residual ``X - A X`` serves the next gradient.

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
shift's CSR A^T as sparse products, O(nnz) each. No solver needs an
eigenpair of ``(I - A)^T (I - A)``.

Both detection solvers follow one exact path: the minimizer of
``anomaly_detect``'s objective is piecewise linear in its l1 weight, and
:func:`_lasso_path` follows it down from e = 0, one dense solve on the
support per segment, to the caller's weight or to the point where the
variation meets the cap. It stops there or after ``config.max_outer``
segments, and both certify the point by its lasso KKT violation relative to
its weight (:func:`_lasso_kkt`; ``meta["stationarity"]``): ``converged``
needs the violation at most 1e-8 of the weight plus a rounding floor of 4
eps times the largest correlation at e = 0.

The other iterative solvers stop when the objective changes by less than
``config.tol_outer`` between consecutive iterations; ``gsr_admm`` (so also
``rgtvr``) additionally requires ``||T_M - X - W - E|| <= 1e-6 (1 +
||T_M||)``, T_M being T zeroed off the accessible set, and with beta > 0
the duplicate ``X = Z`` to 1e-6 relative. Hitting ``config.max_outer``
first returns the last iterate with ``converged=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyAccessibleSet,
    Infeasible,
    NonFiniteObjective,
)
from .graph import (
    GraphShift,
    _residual_variation,
    check_mask,
    check_signal,
    tilde_shift,
)
from .prox import _nuclear_norm, factorized, shrink, svt

# Relative feasibility tolerance for the ADMM coupling constraints.
FEAS_RTOL = 1e-6

# Step search of the proximal-gradient loop: the first iteration starts at
# STEP_T0, each later one at the step accepted last, grown by 1 / STEP_RHO
# (up to STEP_T0) only after STEP_GROW_AFTER iterations in a row were accepted
# at their first candidate, and shrinks the step by STEP_RHO, at most
# STEP_HALVINGS times.
STEP_T0 = 1.0
STEP_RHO = 0.5
STEP_HALVINGS = 50
STEP_GROW_AFTER = 4

# Over-relaxation factor of the ADMM loop (Boyd et al. 2011, section 3.4.3)
ADMM_RELAX = 1.6


def _weight(name: str, value: float) -> None:
    """Refuse a weight that is not a nonnegative finite number: a NaN or an
    inf one would reach a factorization or a path segment."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Weights and iteration controls shared by every solver.

    alpha weights quadratic variation, beta the nuclear norm, gamma the
    outlier l1 norm, penalty is the ADMM penalty parameter; tol_outer and
    max_outer stop the iterative solvers. The fields each method reads are
    declared in ``gsrec.experiments.METHODS``. The step search of the
    proximal-gradient solvers is fixed by the module constants ``STEP_T0``,
    ``STEP_RHO``, ``STEP_HALVINGS`` and ``STEP_GROW_AFTER``, the ADMM
    over-relaxation by ``ADMM_RELAX`` (Boyd et al. 2011, section 3.4.3).
    """

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    penalty: float = 1.0
    tol_outer: float = 1e-8
    max_outer: int = 2000

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            _weight(name, getattr(self, name))
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


@dataclass
class RecoveryResult:
    """Output of a recovery solver.

    x is the recovered signal (vector or matrix matching the input),
    outliers/noise the sparse and dense error estimates where the solver
    separates them (the ADMM's are 0 off the accessible set), aux holds the
    ADMM internals: ``slack`` (the split's part off the accessible set,
    ``T - x`` there) and ``multiplier_split``, plus
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


def _closed_form(x: np.ndarray, objective: float, **meta) -> RecoveryResult:
    """The result of a solve made in one step: converged, its objective traced once."""
    return RecoveryResult(x=x, objective_trace=np.array([objective]), iterations=1,
                          converged=True, meta=meta)


def _inputs(T, mask, n: int, ndim: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A signal of n rows and one of the ranks ``ndim``, and its mask, which
    must mark an entry."""
    T = check_signal(T, n, ndim)
    m = check_mask(mask, T.shape)
    if not m.any():
        raise EmptyAccessibleSet("mask marks no entry as accessible")
    return T, m


def _variation_grad(d: np.ndarray, shift: GraphShift, scale: float = 2.0) -> np.ndarray:
    # scale (I - A)^T (I - A) X, at scale 2 the gradient of ||X - A X||_F^2,
    # from the residual d = X - A X, with the shift's own CSR transpose:
    # ``A.T @ d`` would build a CSC transpose on every gradient
    return scale * (d - shift._transpose @ d)


# ---------------------------------------------------------------------------
# closed-form inpainting
# ---------------------------------------------------------------------------

def _finite(value: float) -> float:
    """``value``, computed from the measured values, if it is finite."""
    if not np.isfinite(value):
        raise NonFiniteObjective(f"got {value}: a measured value is not finite")
    return value


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
    return x, _finite(float(r @ r) + alpha * float(x @ (quadratic @ x)))


def gtvm(t: np.ndarray, mask: np.ndarray, shift: GraphShift) -> RecoveryResult:
    """Noiseless graph signal inpainting.

    Keeps the measured values and fills the hidden nodes with the unique
    minimum-variation extension: minimize ``||x - A x||_2^2`` subject to
    ``x_M = t_M``. The hidden block of ``(I - A)^T (I - A)`` is factored
    once by :func:`~gsrec.prox.factorized`; it is singular when a closed
    class of the graph holds no measured node, and the hidden values are
    then the minimum-norm solution.
    """
    t, m = _inputs(t, mask, shift.n, (1,))
    at = tilde_shift(shift)
    x = np.where(m, t, 0.0)
    hidden = np.flatnonzero(~m)
    if hidden.size:
        rows = at[hidden]
        x[hidden] = -factorized(rows[:, hidden])(rows[:, np.flatnonzero(m)] @ t[m])
    return _closed_form(x, _finite(_residual_variation(x, shift)[0]),
                        solver="gtvm")


def gtvr(t: np.ndarray, mask: np.ndarray, shift: GraphShift, alpha: float) -> RecoveryResult:
    """Noisy graph signal inpainting.

    Minimizes ``||(x - t)_M||_2^2 + alpha * ||x - A x||_2^2`` in closed form:
    one sparse factorization of ``diag(M) + alpha (I - A)^T (I - A)`` by
    :func:`~gsrec.prox.factorized`. A singular system (alpha = 0 with hidden
    nodes, or a closed class of the graph without a measured node) gets the
    minimum-norm solution.
    """
    _weight("alpha", alpha)
    t, m = _inputs(t, mask, shift.n, (1,))
    return _closed_form(*_regularized_fit(t, m, tilde_shift(shift), alpha),
                        solver="gtvr", alpha=alpha)


# ---------------------------------------------------------------------------
# proximal gradient
# ---------------------------------------------------------------------------

def _prox_gradient(x: np.ndarray, shift: GraphShift,
                   prox: Callable[[np.ndarray, float], tuple[np.ndarray, float]],
                   nonsmooth: float, config: SolverConfig, alpha: float = 1.0,
                   w: np.ndarray | None = None, target: np.ndarray | None = None,
                   descent: bool = False) -> RecoveryResult:
    """Minimize ``f + g``, ``f(X) = ||w X - target||_F^2 + alpha ||X - A X||_F^2``
    (without ``w`` no data term), by proximal gradient with a backtracked step.

    The loop carries the shift residual ``d = X - A X`` of its iterate and
    takes f, the gradient and the step test from it: the accepted
    candidate's residual serves the next gradient, so no iteration forms
    ``A X`` twice. g is reached only through ``prox(v, t)``, which returns
    ``prox_{t g}(v)`` together with g at that point, and ``nonsmooth`` is g
    at the start point x. The step search follows the module constants
    ``STEP_*`` (see there) until a candidate is accepted: the move s to it
    when its exact curvature ``||w s||^2 + alpha ||s - A s||^2`` is at most
    ``||s||^2 / (2 t)``, so f lies below its quadratic model there, which
    keeps the objective from increasing; with ``descent`` when the objective
    ``f + g`` itself does not increase. Without an accepted candidate the
    iterate stays where it is.

    The run stops, with ``converged`` set, once the objective changes by
    less than ``config.tol_outer``. The result's ``meta`` holds the final
    ``step``, the rejected candidates (``backtracks``) and f at the
    returned point (``smooth``).
    """
    def smooth(xc):  # f at xc, and the residual it was built from
        variation, d = _residual_variation(xc, shift)
        if w is None:
            return alpha * variation, d
        r = w * xc - target
        return float(np.vdot(r, r)) + alpha * variation, d

    f_val, d = smooth(x)
    F = f_val + nonsmooth
    trace = []
    t = STEP_T0
    streak = 0  # iterations in a row accepted at their first candidate
    backtracks = 0
    converged = False
    it = 0
    for it in range(1, config.max_outer + 1):
        g = _variation_grad(d, shift, 2.0 * alpha)
        if w is not None:
            g += 2.0 * (w * x - target)
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
                s, ds = cand - x, d_cand - d
                curvature = alpha * float(np.vdot(ds, ds))
                if w is not None:
                    curvature = float(np.vdot(s * w, s)) + curvature
                moved = curvature <= float(np.vdot(s, s)) / (2.0 * t)
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
            converged = True
            break
        F = F_new
    return RecoveryResult(x=x, objective_trace=np.array(trace), iterations=it,
                          converged=converged,
                          meta=dict(step=t, backtracks=backtracks, smooth=f_val))


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
    T, m = _inputs(T, mask, shift.n, (1, 2))
    T2, m = T.reshape(shift.n, -1), m.reshape(shift.n, -1)
    beta = config.beta

    def pinned_svt(V, t):
        if beta > 0:
            V = svt(V, t * beta)[0]
        V = np.where(m, T2, V)
        return V, (beta * _nuclear_norm(V) if beta > 0 else 0.0)

    X = np.where(m, T2, 0.0)
    res = _prox_gradient(X, shift, pinned_svt, beta * _nuclear_norm(X) if beta > 0 else 0.0,
                         config, descent=True)
    res.x, res.meta["solver"] = res.x.reshape(T.shape), "gmcm"
    return res


def gmcr(T: np.ndarray, mask: np.ndarray, shift: GraphShift,
         config: SolverConfig | None = None) -> RecoveryResult:
    """Graph-regularized matrix completion with a least-squares data term.

    Minimizes ``||(X - T)_M||_F^2 + alpha * ||X - A X||_F^2 + beta * ||X||_*``
    by proximal gradient with backtracking on the smooth part (accept the step
    when the local quadratic model is an upper bound, which guarantees the
    composite objective never increases).
    """
    config = config or SolverConfig()
    T, m = _inputs(T, mask, shift.n, (1, 2))
    T2, m = T.reshape(shift.n, -1), m.reshape(shift.n, -1)
    beta = config.beta

    def nuclear_prox(V, t):
        if beta > 0:
            V, s = svt(V, t * beta)
            return V, beta * float(np.sum(s))
        return V, 0.0

    # products with the float mask w are cheaper than masked gathers and
    # scatters; Tm is T on M and 0 off it, so a NaN off M never enters
    Tm = np.where(m, T2, 0.0)
    res = _prox_gradient(Tm, shift, nuclear_prox,
                         beta * _nuclear_norm(Tm) if beta > 0 else 0.0, config,
                         alpha=config.alpha, w=m.astype(float), target=Tm)
    res.x, res.meta["solver"] = res.x.reshape(T.shape), "gmcr"
    return res


# ---------------------------------------------------------------------------
# anomaly detection
# ---------------------------------------------------------------------------

def _lasso_kkt(t: np.ndarray, e: np.ndarray, beta: float, shift: GraphShift,
               c0: float) -> tuple[float, float, bool]:
    """The variation of ``x = t - e``, the lasso KKT violation of e, and its verdict.

    e minimizes ``||D (t - e)||^2 + beta ||e||_1`` (D = I - A) exactly when
    ``c = 2 D^T D (t - e)`` is ``beta sign(e_i)`` where e is nonzero and at
    most beta in absolute value elsewhere. The violation is the largest miss
    over beta, at beta = 0 over ``c0 = max |c|`` at e = 0, the start weight
    :func:`_lasso_path` returns (0 if that is 0 too). e is certified when
    the miss is at most ``1e-8 beta`` (``1e-8 c0`` at beta = 0) plus the
    rounding floor ``4 eps c0``: rounding e to doubles moves the
    correlations by about that much, more than 1e-8 of a tiny weight.
    """
    variation, d = _residual_variation(t - e, shift)
    c = _variation_grad(d, shift)
    violation = np.where(e != 0, np.abs(c - beta * np.sign(e)), np.abs(c) - beta)
    worst = float(np.max(violation, initial=0.0))
    scale = beta or c0
    certified = (scale == 0 or worst <= 1e-8 * scale
                 or worst <= 1e-8 * scale + 4.0 * np.finfo(float).eps * c0)
    return variation, (worst / scale if scale > 0 else 0.0), certified


def anomaly_detect(t: np.ndarray, shift: GraphShift, beta_reg: float,
                   config: SolverConfig | None = None) -> RecoveryResult:
    """Sparse outlier detection on a fully observed signal.

    Minimizes ``||(t - e) - A (t - e)||_2^2 + beta_reg * ||e||_1`` over the
    outlier vector e exactly: :func:`_lasso_path` follows the minimizer down
    from e = 0 to ``beta_reg`` in at most ``config.max_outer`` segments
    (``meta["segments"]``; a cut run returns its last point). Returns ``x =
    t - e`` and e. The trace holds the path's objective at ``beta_reg``,
    which never rises, then one confirming proximal-gradient step's from e
    at ``meta["step"] = 1 / (2 ||T||_inf) <= 1 / L`` (T = ``tilde_shift``),
    of which a minimizer is a fixed point; ``iterations`` counts both.
    ``meta["stationarity"]`` is e's KKT violation relative to the weight,
    and ``converged`` says :func:`_lasso_kkt` certified it: at most 1e-8
    but for a rounding floor; ``meta["smooth"]`` is the variation.
    """
    _weight("beta_reg", beta_reg)
    config = config or SolverConfig()
    t = check_signal(t, shift.n, (1,))
    e, _, segments, trace, c0 = _lasso_path(t, shift, config.max_outer, weight=beta_reg)
    variation, stationarity, certified = _lasso_kkt(t, e, beta_reg, shift, c0)
    T = tilde_shift(shift)
    # ||T||_inf bounds its largest eigenvalue; T = 0 (A = I) takes any step
    step = 0.5 / (float(abs(T).sum(axis=1).max()) or 1.0)
    moved = shrink(e + 2.0 * step * (T @ (t - e)), step * beta_reg)
    trace.append(_residual_variation(t - moved, shift)[0]
                 + beta_reg * float(np.sum(np.abs(moved))))
    return RecoveryResult(
        x=t - e, outliers=e, objective_trace=np.array(trace),
        iterations=segments + 1, converged=certified,
        meta=dict(solver="anomaly_detect", beta_reg=beta_reg, smooth=variation,
                  stationarity=stationarity, step=step, segments=segments))


def _csr_row(M: sp.csr_array, i: int) -> np.ndarray:
    """Row i of a CSR matrix without duplicates, dense, read off its arrays."""
    row, lo, hi = np.zeros(M.shape[1]), M.indptr[i], M.indptr[i + 1]
    row[M.indices[lo:hi]] = M.data[lo:hi]
    return row


def _lasso_path(t: np.ndarray, shift: GraphShift, max_segments: int,
                weight: float = 0.0, budget: float | None = None
                ) -> tuple[np.ndarray, float, int, list[float], float]:
    """The point of :func:`anomaly_detect`'s solution path at a weight or a variation.

    With ``D = I - A``, ``T = D^T D`` and ``b = T t``, the minimizer e of
    ``||D (t - e)||^2 + beta ||e||_1`` is piecewise linear in beta (the
    lasso homotopy: Osborne, Presnell & Turlach 2000; Efron et al. 2004,
    section 3.1). On a support S with signs s the correlations ``c = 2 T
    (t - e)`` equal ``beta s`` on S, so ``e_S = u - beta v`` with ``T_SS
    [u, v] = [b_S, s / 2]``, one dense solve on the kept block ``T_SS``
    (grown by a row of T per join); ``D (t - e) = r0 + beta r1`` and ``c =
    p + beta q``. From ``beta = max |2 b|`` and e = 0 a segment runs down
    to the largest weight, at most beta, where an entry of e_S shrinking
    toward 0 reaches it (it leaves S) or a correlation off S moving out at
    a rate ``1 -+ q_j`` above 1e-9 reaches ``+-beta`` (it joins). One
    already there ends the segment at once, so ties go one per segment; an
    entry that just joined grows and one that just left moves in, so
    neither comes back above the rounding floor ``4 eps c0`` of
    :func:`_lasso_kkt` (c0 the start weight); the path ends at ``weight``
    once within that floor of it. A correlation the support holds at
    ``+-beta`` (S and j carry a variation-free vector, a closed class of the
    graph) moves at rate 0 and stays out, where joining would make ``T_SS``
    singular.

    The path stops at ``weight`` or, given a ``budget``, at the larger root
    of ``||r0 + beta r1||^2 = budget`` on the first segment whose lower end
    meets it; a run cut at ``max_segments`` stops at its last point.
    Returns e, its weight, the segment count, the objective at ``weight`` at
    each segment's lower end, and the start weight c0.
    """
    T, n = tilde_shift(shift), t.shape[0]
    b = T @ t
    c0, trace = _finite(2.0 * float(np.max(np.abs(b)))), []
    if c0 <= weight:
        return np.zeros(n), weight, 0, trace, c0
    beta, end = c0, weight + 4.0 * np.finfo(float).eps * c0
    # s on the support, 0 off it; S lists the support in the order of the
    # block's rows. The largest correlation joins first
    signs, S, block = np.zeros(n), np.zeros(0, dtype=int), np.zeros((0, 0))
    i = int(np.argmax(np.abs(b)))
    kind = 1 if b[i] > 0 else 2
    for segment in range(1, max_segments + 1):
        if kind == 0:
            k = int(np.flatnonzero(S == i)[0])
            S, block = np.delete(S, k), np.delete(np.delete(block, k, 0), k, 1)
        else:
            S, joined, old = np.append(S, i), _csr_row(T, i), block
            block = np.empty((S.size, S.size))
            block[:-1, :-1], block[-1], block[:-1, -1] = old, joined[S], joined[S[:-1]]
        signs[i] = (0.0, 1.0, -1.0)[kind]
        s = signs[S]
        u, v = np.linalg.solve(block, np.column_stack([b[S], 0.5 * s])).T
        X = np.column_stack([t, np.zeros(n)])  # t - e = X @ (1, beta)
        X[S] += np.column_stack([-u, v])
        R = X - shift.matrix @ X
        p, q = _variation_grad(R, shift).T
        # weights where an entry of e_S shrinking toward 0 reaches it (row 0)
        # or a correlation off S reaches +-beta (rows 1, 2) at a rate 1 -+ q
        # above 1e-9; one there now counts at beta
        events = np.full((3, n), -np.inf)
        shrinking = s * v < 0
        events[0, S[shrinking]] = u[shrinking] / v[shrinking]
        rates = np.stack([1.0 - q, 1.0 + q])
        np.divide(np.stack([p, -p]), rates, out=events[1:],
                  where=(rates > 1e-9) & (signs == 0))
        kind, i = divmod(int(np.argmax(events)), n)
        low = min(max(float(events[kind, i]), 0.0), beta)
        r0, r1 = R.T
        if budget is not None and float(np.sum((r0 + low * r1) ** 2)) <= budget:
            a, h, c = float(r1 @ r1), float(r0 @ r1), float(r0 @ r0) - budget
            sq = np.sqrt(max(h * h - a * c, 0.0))
            root = (sq - h) / a if h < 0 else -c / (h + sq)
            beta = min(max(root, low), beta)
            break
        beta = weight if low <= end else low
        trace.append(float(np.sum((r0 + beta * r1) ** 2))
                     + weight * float(np.sum(np.maximum(s * (u - beta * v), 0.0))))
        if low <= end:
            break
    e = np.zeros(n)
    e[S] = s * np.maximum(s * (u - beta * v), 0.0)  # none rounded past 0
    return e, beta, segment, trace, c0


def anomaly_detect_constrained(t: np.ndarray, shift: GraphShift, eta_smooth: float,
                               config: SolverConfig | None = None,
                               ) -> RecoveryResult:
    """Outlier detection under an explicit smoothness cap.

    Minimizes ``||e||_1`` subject to ``||x - A x||_2^2 <= eta_smooth^2`` for
    the cleaned signal ``x = t - e``, with a slack of ``1e-6 eta_smooth^2 +
    1e-9 (1 + V(t))`` on the cap (V the variation). A signal within the cap
    is returned as it is. Otherwise :func:`_lasso_path` follows the solution
    of :func:`anomaly_detect` down in its weight, for at most
    ``config.max_outer`` segments, to the point whose variation is
    ``eta_smooth^2`` plus half the slack, so rounding never lifts it over
    the cap and a zero cap has a root; a path that ends above the cap, at
    weight 0 or cut, raises :class:`Infeasible`.

    The point is certified as :func:`anomaly_detect`'s is, by its KKT
    violation (:func:`_lasso_kkt`, ``meta["stationarity"]``) at its weight
    beta (``meta["beta_reg"]``): ``converged`` means it was certified and
    the variation (``meta["smoothness"]``) meets the cap. Exact KKT at a
    point whose variation is the budget proves e has the least l1 norm
    within it: a smaller one would lower the penalized objective at beta.
    ``iterations`` counts the path's segments (``meta["segments"]``); the
    trace holds the penalized objective ``V + beta ||e||_1`` at the point.
    """
    if not eta_smooth >= 0:
        raise ValueError(f"eta_smooth must be nonnegative, got {eta_smooth}")
    config = config or SolverConfig()
    t = check_signal(t, shift.n, (1,))
    target = eta_smooth ** 2
    base_variation = _residual_variation(t, shift)[0]
    slack = target * 1e-6 + 1e-9 * (1.0 + base_variation)
    meta = {"solver": "anomaly_detect_constrained", "target": target}
    if base_variation <= target + slack:
        return RecoveryResult(x=t.copy(), outliers=np.zeros_like(t),
                              objective_trace=np.array([base_variation]), converged=True,
                              meta=dict(meta, beta_reg=float("inf"), segments=0,
                                        smoothness=base_variation, stationarity=0.0))

    e, beta, segments, _, c0 = _lasso_path(t, shift, config.max_outer,
                                           budget=target + 0.5 * slack)
    smoothness, stationarity, certified = _lasso_kkt(t, e, beta, shift, c0)
    if smoothness > target + slack:
        end = f"ran out of segments at weight {beta:.3e}" if beta else "reaches weight 0"
        raise Infeasible(f"the lasso path {end} after {segments} segments, still above "
                         f"the smoothness budget {target:.3e}"
                         + ("; a larger max_outer may meet it" if beta else ""))
    return RecoveryResult(
        x=t - e, outliers=e, iterations=segments,
        objective_trace=np.array([smoothness + beta * float(np.sum(np.abs(e)))]),
        converged=bool(certified and smoothness <= target + slack),
        meta=dict(meta, beta_reg=beta, smoothness=smoothness,
                  stationarity=stationarity, segments=segments))


# ---------------------------------------------------------------------------
# ADMM solvers
# ---------------------------------------------------------------------------

def gsr_admm(T: np.ndarray, mask: np.ndarray, shift: GraphShift,
             config: SolverConfig | None = None) -> RecoveryResult:
    """General recovery: smooth + low-rank signal, sparse outliers, noise.

    Minimizes ``alpha ||X - A X||_F^2 + beta ||X||_* + gamma ||E||_1 +
    ||W_M||_F^2`` subject to ``T = X + W + E`` on the accessible set M (W
    the noise), by ADMM on T's values on M alone. Off M, W is free and takes
    up the split's rest, E and the split's multiplier stay 0, and the result
    reports ``noise`` 0 and ``aux["slack"]`` ``T - X`` there. The trace is
    that objective, whose last term at a feasible split is the misfit
    ``||(T - X - E)_M||^2``. With beta > 0 a duplicate Z of X carries the
    smoothness term, so the X-step is one svt and the Z-step one solve with
    ``I + (2 alpha / eta) (I - A)^T (I - A)``; with beta = 0 there is no
    duplicate and the X-step is that solve itself. With gamma = 0 the
    outlier variable is dropped from the model (held at zero).

    The loop is over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011,
    section 3.4.3) with ``rho = ADMM_RELAX``: after the X-step, the W and E
    steps and the split's multiplier read ``rho X + (1 - rho) (T - W - E)``
    (W, E from the iteration before), and the duplicate's solve and
    multiplier read ``rho X + (1 - rho) Z``. The stop test reads X itself:
    objective change below ``tol_outer`` and both constraints met to
    ``FEAS_RTOL``.

    Specializations: :func:`rgtvr` is one column with beta = 0; one column
    with beta = gamma = 0 reproduces :func:`gtvr`; alpha = 0 with gamma = 0
    is nuclear-norm completion; one column with beta = 0 and a full mask is
    robust denoising.
    """
    config = config or SolverConfig()
    T, m = _inputs(T, mask, shift.n, (1, 2))
    T2, m = T.reshape(shift.n, -1), m.reshape(shift.n, -1)
    alpha, beta, gamma, eta = config.alpha, config.beta, config.gamma, config.penalty
    solve = factorized(sp.eye_array(shift.n) + (2.0 * alpha / eta) * tilde_shift(shift),
                       definite=True)

    # the W-step's weight is eta / (eta + 2) where W costs ||W||^2, 1 off M
    Tm, weight = np.where(m, T2, 0.0), np.where(m, eta / (eta + 2.0), 1.0)
    X = Tm
    W, E, Z, Y1, Y2 = (np.zeros_like(T2) for _ in range(5))

    def objective(Xc, Wc, Ec, nuclear):
        val = alpha * _residual_variation(Xc, shift)[0] + float(np.sum(Wc[m] ** 2))
        if beta > 0:
            val += beta * nuclear
        if gamma > 0:
            val += gamma * float(np.sum(np.abs(Ec)))
        return val

    F = objective(X, W, E, _nuclear_norm(X) if beta > 0 else 0.0)
    t_norm = float(np.linalg.norm(Tm))
    trace = []
    nuclear = 0.0
    converged = False
    it = 0
    for it in range(1, config.max_outer + 1):
        if beta > 0:
            # X minimizes beta ||X||_* + eta/2 (||X - P||^2 + ||X - Q||^2) for
            # P = T - W - E - Y1/eta and Q = Z + Y2/eta: one svt of their mean
            R = 0.5 * ((Tm - W - E - Y1 / eta) + (Z + Y2 / eta))
            X, s = svt(R, beta / (2.0 * eta))
            nuclear = float(np.sum(s))
        else:
            # X minimizes alpha ||X - A X||^2 + eta/2 ||X - P||^2 directly
            X = solve(Tm - W - E - Y1 / eta)
        # the other blocks and the multipliers see X over-relaxed against
        # the values it is coupled to, the split's rest and the duplicate
        Xr = ADMM_RELAX * X + (1.0 - ADMM_RELAX) * (Tm - W - E)
        W = weight * (Tm - Xr - E - Y1 / eta)
        if gamma > 0:
            E = shrink(Tm - Xr - W - Y1 / eta, gamma / eta)
        Y1 = Y1 - eta * (Tm - Xr - W - E)
        if beta > 0:
            Xr = ADMM_RELAX * X + (1.0 - ADMM_RELAX) * Z
            Z = solve(Xr - Y2 / eta)
            Y2 = Y2 - eta * (Xr - Z)
        F_new = objective(X, W, E, nuclear)
        if not np.isfinite(F_new):
            raise NonFiniteObjective(f"objective became {F_new} at iteration {it}")
        trace.append(F_new)
        feasible = (np.linalg.norm(Tm - X - W - E) <= FEAS_RTOL * (1.0 + t_norm)
                    and (beta == 0 or np.linalg.norm(X - Z)
                         <= FEAS_RTOL * (1.0 + np.linalg.norm(X))))
        if abs(F_new - F) < config.tol_outer and feasible:
            converged = True
            break
        F = F_new
    aux = {"slack": np.where(m, 0.0, T2 - X), "multiplier_split": Y1}
    if beta > 0:
        aux.update(duplicate=Z, multiplier_duplicate=Y2)
    return RecoveryResult(
        x=X.reshape(T.shape),
        outliers=E.reshape(T.shape),
        noise=np.where(m, W, 0.0).reshape(T.shape),
        aux={key: value.reshape(T.shape) for key, value in aux.items()},
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
    Like :func:`gsr_admm` it reads t only on the mask. With gamma = 0 the
    outlier variable is dropped and the solution matches :func:`gtvr`.
    """
    t, m = _inputs(t, mask, shift.n, (1,))
    result = gsr_admm(t, m, shift, (config or SolverConfig()).replace(beta=0.0))
    result.meta["solver"] = "rgtvr"
    return result
