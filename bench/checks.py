"""Correctness checks on the solver inputs and outputs captured in a job.

Every check recomputes what it needs with the benchmark's own numpy/scipy
code (variation products, Laplacian, soft threshold, SVD) or tests a
property the method must have. Nothing is compared against a stored copy of
an earlier output. The README derives each tolerance from the solver's own
stopping rule.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Closed forms (gtvm, gtvr, laplacian) solve through an SVD pseudo-inverse
# with cutoff 1e-10: a backward-stable solve leaves a residual of a few
# N * eps * ||H|| * ||x||, far below this relative bound.
TOL_CLOSED = 1e-9
# rgtvr stops on |dF| < 1e-8 with primal feasibility r <= 1e-6 (1 + ||t||).
# At that point its x-step residual is O(r); bounded here relative.
TOL_ADMM = 1e-4
# Two solvers of one problem, each stopped on |dF| < 1e-8: their objectives
# agree to the accuracy the slower one reaches.
TOL_OBJ = 1e-6
# The ADMM solvers' own feasibility rule: ||T - X - W - E - C|| <= 1e-6 (1 + ||T||).
FEAS_RTOL = 1e-6
# anomaly_detect reports converged only when max |e - prox(e - t grad)| <= 1e-6.
TOL_PROX = 1e-6
# Floating-point slack for recomputing a quantity the solver computed.
ROUND = 1e-12


@dataclass
class Call:
    """One ``solve_recovery`` call: the inputs a trials.csv row came from."""

    name: str  # solver entry name of the row
    method: str
    t: np.ndarray
    mask: np.ndarray | None
    weights: np.ndarray
    config: object
    eta_smooth: float | None
    result: object


def calls_from_capture(captured, solve_recovery, names) -> list[Call]:
    """Pair captured ``solve_recovery`` calls with the row names, in order.

    ``solve_recovery`` (wrapped or not) supplies the signature to bind to.
    """
    signature = inspect.signature(solve_recovery)
    calls = []
    records = [c for c in captured if c[0] == "experiments.solve_recovery"]
    for name, (_, args, kwargs, result) in zip(names, records):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        mask = None if a["mask"] is None else np.asarray(a["mask"], dtype=bool)
        calls.append(Call(name, a["method"], np.asarray(a["observed"], dtype=float),
                          mask, a["shift"].weights, a["config"], a["eta_smooth"],
                          result))
    return calls


def _vary(A, X):
    return X - A @ X


def _tilde(A, X):
    d = _vary(A, X)
    return d - A.T @ d


def _soft(x, tau):
    return np.where(np.abs(x) > tau, x - tau * np.sign(x), 0.0)


def _nuclear(X):
    return float(np.sum(scipy.linalg.svdvals(X)))


def _svt(X, tau):
    u, s, vt = scipy.linalg.svd(X, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def _verdict(name, value, limit):
    return {"check": name, "ok": bool(np.isfinite(value) and value <= limit),
            "value": float(value), "limit": float(limit)}


def _exact(name, ok):
    return {"check": name, "ok": bool(ok), "value": 0.0 if ok else 1.0,
            "limit": 0.0}


def check_graph(weights: np.ndarray, k: int) -> list[dict]:
    """Row-stochastic kNN shift: <= k positive entries per row, rows sum to 1.

    Such a matrix has spectral radius exactly 1 (Perron-Frobenius), so no
    eigensolve is needed to confirm it is normalized.
    """
    nonzero = weights != 0
    return [
        _verdict("graph.max_row_nonzeros", nonzero.sum(axis=1).max(), k),
        _exact("graph.positive_weights", np.all(weights[nonzero] > 0)),
        _verdict("graph.row_sum_error",
                 np.max(np.abs(weights.sum(axis=1) - 1.0)), 1e-9),
    ]


def _check_gtvm(c: Call) -> list[dict]:
    x, m, A = c.result.x, c.mask, c.weights
    g = _tilde(A, x)
    scale = 4.0 * np.linalg.norm(x) + 1e-300
    return [_exact("gtvm.pins_measured", np.array_equal(x[m], c.t[m])),
            _verdict("gtvm.hidden_stationarity",
                     np.linalg.norm(g[~m]) / scale, TOL_CLOSED)]


def _normal_residual(c: Call, x, target, apply, norm_bound):
    """Relative residual of ``(diag M + alpha Op) x = M target``."""
    m, alpha = c.mask.astype(float), c.config.alpha
    r = m * (x - target) + alpha * apply(x)
    scale = np.linalg.norm(m * target) + (1.0 + alpha * norm_bound) * np.linalg.norm(x)
    return np.linalg.norm(r) / scale


def _check_gtvr(c: Call) -> list[dict]:
    value = _normal_residual(c, c.result.x, c.t, lambda v: _tilde(c.weights, v), 4.0)
    return [_verdict("gtvr.normal_equations", value, TOL_CLOSED)]


def _check_laplacian(c: Call) -> list[dict]:
    W = np.maximum(np.maximum(c.weights, c.weights.T), 0.0)
    degree = W.sum(axis=1)
    value = _normal_residual(c, c.result.x, c.t, lambda v: degree * v - W @ v,
                             2.0 * degree.max())
    return [_verdict("laplacian.normal_equations", value, TOL_CLOSED)]


def _check_rgtvr(c: Call) -> list[dict]:
    x, e, m = c.result.x, c.result.outliers, c.mask
    gamma = c.config.gamma
    normal = _normal_residual(c, x, c.t - e, lambda v: _tilde(c.weights, v), 4.0)
    # optimality in e: 2 (t - x - e) lies in gamma * subgradient(|e|) on M.
    # ADMM's e-step meets this up to penalty times the primal residual, once
    # for the step and once for the multiplier lag.
    g = 2.0 * (c.t - x - e)
    on, off = m & (e != 0), m & (e == 0)
    active = np.max(np.abs(g[on] - gamma * np.sign(e[on])), initial=0.0)
    inactive = max(np.max(np.abs(g[off]), initial=0.0) - gamma, 0.0)
    limit = 2.0 * c.config.penalty * FEAS_RTOL * (1.0 + np.linalg.norm(c.t))
    return [_verdict("rgtvr.normal_equations", normal, TOL_ADMM),
            _verdict("rgtvr.l1_active", active, limit),
            _verdict("rgtvr.l1_inactive", inactive, limit),
            _verdict("rgtvr.hidden_outliers", np.max(np.abs(e[~m]), initial=0.0),
                     limit)]


def _completion_objective(c: Call, X) -> float:
    cfg = c.config
    r = (X - c.t)[c.mask]
    d = _vary(c.weights, X)
    return float(r @ r) + cfg.alpha * float(np.sum(d * d)) + cfg.beta * _nuclear(X)


def _check_gmcm(c: Call) -> list[dict]:
    X, T, m, A = c.result.x, c.t, c.mask, c.weights
    # gmcm stops on |dF| < tol_outer. A proximal step of length t that lowers
    # F by at most that moves X by at most sqrt(2 t tol_outer) (Frobenius).
    step = c.result.meta["step"]
    cand = _svt(X - step * 2.0 * _tilde(A, X), step * c.config.beta)
    cand = np.where(m, T, cand)
    return [_exact("gmcm.pins_measured", np.array_equal(X[m], T[m])),
            _verdict("gmcm.fixed_point", np.linalg.norm(cand - X),
                     np.sqrt(2.0 * step * c.config.tol_outer))]


def _check_admm_pair(gmcr: Call, admm: Call) -> dict:
    f1 = _completion_objective(gmcr, gmcr.result.x)
    f2 = _completion_objective(admm, admm.result.x)
    return _verdict("gmcr_admm.objective_gap", abs(f1 - f2) / (1.0 + abs(f1)), TOL_OBJ)


def _check_admm_robust(c: Call, gmcr: Call) -> list[dict]:
    res, T, m, cfg = c.result, c.t, c.mask, c.config
    X, W, E, C = res.x, res.noise, res.outliers, res.aux["slack"]
    split = np.linalg.norm(T - X - W - E - C) / (1.0 + np.linalg.norm(T))
    d = _vary(c.weights, X)
    own = (cfg.alpha * float(np.sum(d * d)) + cfg.beta * _nuclear(X)
           + cfg.gamma * float(np.sum(np.abs(E))) + float(np.sum(W * W)))
    # gmcr's point is feasible here with E = 0 and W = (T - X)_M
    reference = _completion_objective(gmcr, gmcr.result.x)
    excess = (own - reference) / (1.0 + abs(reference))
    return [_exact("admm_robust.slack_off_mask", np.all(C[m] == 0.0)),
            _verdict("admm_robust.split", split, FEAS_RTOL * (1.0 + ROUND)),
            _verdict("admm_robust.objective_excess", max(excess, 0.0), TOL_OBJ)]


def _check_anomaly(c: Call) -> list[dict]:
    res, t, A = c.result, c.t, c.weights
    e, step, beta = res.outliers, res.meta["step"], c.config.gamma
    grad = -2.0 * _tilde(A, t - e)
    fixed = np.max(np.abs(e - _soft(e - step * grad, step * beta)), initial=0.0)
    return [_verdict("anomaly.prox_fixed_point", fixed, TOL_PROX + ROUND)]


def _check_anomaly_constrained(c: Call, planted: np.ndarray) -> list[dict]:
    res, t, A = c.result, c.t, c.weights
    x, e = res.x, res.outliers
    split = np.max(np.abs(x + e - t)) / (1.0 + np.max(np.abs(t)))
    d = _vary(A, x)
    d0 = _vary(A, t)
    target = c.eta_smooth ** 2
    cap = target * (1.0 + 1e-6) + 1e-9 * (1.0 + float(d0 @ d0))
    found = e != 0
    return [_verdict("anomaly_constrained.split", split, 4 * np.finfo(float).eps),
            _verdict("anomaly_constrained.smoothness_cap",
                     float(d @ d) / cap, 1.0 + ROUND),
            _exact("anomaly_constrained.spikes_found", np.all(found[planted])),
            _verdict("anomaly_constrained.false_spikes",
                     np.sum(found & ~planted), np.sum(planted))]


def check_job(calls: list[Call], rows: list[dict], k: int,
              planted: np.ndarray | None) -> tuple[list[list[dict]], list[dict]]:
    """Run every check; returns (verdicts per row, job-level verdicts)."""
    by_name = {c.name: c for c in calls}
    per_row: list[list[dict]] = []
    for c in calls:
        if c.method == "gtvm":
            verdicts = _check_gtvm(c)
        elif c.method == "gtvr":
            verdicts = _check_gtvr(c)
        elif c.method == "laplacian":
            verdicts = _check_laplacian(c)
        elif c.method == "rgtvr":
            verdicts = _check_rgtvr(c)
            rmse = {row["method"]: float(row["rmse"]) for row in rows}
            verdicts.append(_exact("rgtvr.beats_gtvr_rmse",
                                   rmse[c.name] < rmse["gtvr"]))
        elif c.method == "gmcm":
            verdicts = _check_gmcm(c)
        elif c.name in ("gmcr", "admm"):
            verdicts = [_check_admm_pair(by_name["gmcr"], by_name["admm"])]
        elif c.name == "admm-robust":
            verdicts = _check_admm_robust(c, by_name["gmcr"])
        elif c.method == "anomaly":
            verdicts = _check_anomaly(c)
        elif c.method == "anomaly-constrained":
            verdicts = _check_anomaly_constrained(c, planted)
        else:
            verdicts = [_exact(f"{c.name}.has_check", False)]
        per_row.append(verdicts)
    job = check_graph(calls[0].weights, k) if calls else []
    job.append(_exact("job.one_call_per_row", len(calls) == len(rows)))
    return per_row, job
