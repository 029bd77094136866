"""Evaluation metrics, model selection, baselines, and the experiment runner.

The runner consumes a plain-dict experiment description (usually parsed from a
JSON config), executes a deterministic grid of trials, and writes two files
into the output directory:

* ``trials.csv``: one row per (ratio, trial, method) with fixed column order
  and ``%.17g`` float formatting.  Re-running the same description with the
  same seed reproduces this file byte for byte, so it doubles as a regression
  fixture.  Wall-clock timing is deliberately kept out of it.
* ``report.json``: the echoed description, library versions, per-method
  aggregates, parameter-selection modes, and timing.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .datagen import (
    STREAM_GRAPH,
    STREAM_SPLIT,
    GraphBuildSpec,
    SyntheticInstance,
    SyntheticSpec,
    build_knn_graph,
    corrupt_labels,
    laplacian_from_shift,
    random_features,
    round_half_up,
    sample_mask,
    stream_rng,
    synth_instance,
    synth_opinion_instance,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyGrid,
    EmptyMask,
    NonBinaryInput,
    NonSymmetricLaplacian,
)
from .graph import GraphShift, cycle_shift
from .io import config_values, json_value, load_bundle, load_graph, spec_from_dict
from .solvers import (
    RecoveryResult,
    SolverConfig,
    _regularized_fit,
    _vector_inputs,
    anomaly_detect,
    anomaly_detect_constrained,
    gmcm,
    gmcr,
    gsr_admm,
    gtvm,
    gtvr,
    rgtvr,
)

VECTOR_METHODS = ("gtvm", "gtvr", "rgtvr", "laplacian")
MATRIX_METHODS = ("gmcm", "gmcr", "admm")
DETECT_METHODS = ("anomaly", "anomaly-constrained")
COMBINE_METHODS = ("avg", "gtvr-denoise", "gmcr-denoise")

TRIALS_HEADER = "task,method,ratio,trial,seed,acc,mse,rmse,mae,iterations,converged"


@dataclass(frozen=True)
class MetricReport:
    """Point-estimate quality summary; ``acc`` only for classification."""

    mse: float
    rmse: float
    mae: float
    count: int
    acc: float | None = None


def threshold_labels(estimate: np.ndarray) -> np.ndarray:
    """Map real scores to +/-1 labels.  Exact zeros go to -1."""
    return np.where(np.asarray(estimate, dtype=float) > 0.0, 1.0, -1.0)


def evaluate(truth: np.ndarray, estimate: np.ndarray,
             score: str = "regression") -> MetricReport:
    """Compare an estimate against ground truth.

    ``score="classification"`` additionally thresholds the estimate at zero
    and reports label accuracy against +/-1 truth.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise DimensionMismatch(
            f"truth shape {truth.shape} vs estimate shape {estimate.shape}")
    if truth.size == 0:
        raise EmptyMask("cannot evaluate on an empty selection")
    if score not in ("regression", "classification"):
        raise ConfigError(f"unknown score mode {score!r}")
    err = estimate - truth
    mse = float(np.mean(err * err))
    acc = None
    if score == "classification":
        acc = float(np.mean(threshold_labels(estimate) == truth))
    return MetricReport(
        mse=mse,
        rmse=float(np.sqrt(mse)),
        mae=float(np.mean(np.abs(err))),
        count=int(truth.size),
        acc=acc,
    )


def laplacian_baseline(t: np.ndarray, mask: np.ndarray, laplacian,
                       alpha: float) -> RecoveryResult:
    """Classic Laplacian-regularized inpainting, solved in closed form.

    Minimizes the squared misfit on accessible nodes plus ``alpha * x' L x``
    with one sparse factorization of ``diag(M) + alpha L`` (L dense or
    sparse), the closed form :func:`~gsrec.solvers.gtvr` solves with
    ``(I - A)^T (I - A)`` in place of L; a singular system gets the
    minimum-norm solution. The Laplacian must be symmetric; this is
    the reference point the shift-based solvers are compared against.
    """
    laplacian = sp.csr_array(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise DimensionMismatch(f"laplacian must be square, got shape {laplacian.shape}")
    t, mask = _vector_inputs(t, mask, laplacian.shape[0])
    if alpha < 0:
        raise ConfigError(f"alpha must be nonnegative, got {alpha}")
    # Frobenius norms, from the stored entries
    asym = float(np.linalg.norm((laplacian - laplacian.T).data))
    if asym > 1e-10 * (1.0 + float(np.linalg.norm(laplacian.data))):
        raise NonSymmetricLaplacian(
            f"laplacian asymmetry {asym:.3e} exceeds tolerance")
    x, objective = _regularized_fit(t, mask, laplacian, alpha)
    return RecoveryResult(
        x=x,
        objective_trace=np.asarray([objective]),
        iterations=1,
        converged=True,
        meta={"solver": "laplacian", "alpha": float(alpha)},
    )


@dataclass(frozen=True)
class CvSelection:
    """Outcome of a holdout search over a configuration grid."""

    index: int
    config: SolverConfig
    val_mse: tuple[float, ...]
    train_count: int
    val_count: int


def cross_validate(method: str, observed: np.ndarray, mask: np.ndarray,
                   shift: GraphShift, grid: Sequence[SolverConfig], seed: int,
                   *subkeys: int) -> CvSelection:
    """Pick a configuration by an 80/20 holdout on the accessible entries.

    The split is drawn from a dedicated seeded stream, so repeated calls with
    the same arguments select the same configuration.  Validation score is
    mean squared error against the held-out observed values; ties resolve to
    the earliest grid entry, and non-finite scores are treated as infinitely
    bad.
    """
    grid = list(grid)
    if not grid:
        raise EmptyGrid("empty configuration grid")
    observed = np.asarray(observed, dtype=float)
    if observed.ndim not in (1, 2) or observed.shape[0] != shift.n:
        raise DimensionMismatch(
            f"expected {shift.n} signal rows, got shape {observed.shape}")
    mask = np.asarray(mask, dtype=bool)
    if observed.shape != mask.shape:
        raise DimensionMismatch(
            f"observed shape {observed.shape} vs mask shape {mask.shape}")
    flat = np.flatnonzero(mask.ravel())
    if flat.size < 2:
        raise EmptyMask("holdout selection needs at least two accessible entries")
    train_count = round_half_up(0.8 * flat.size)
    train_count = min(max(train_count, 1), flat.size - 1)
    perm = stream_rng(seed, STREAM_SPLIT, *subkeys).permutation(flat.size)
    train_idx = flat[perm[:train_count]]
    val_idx = flat[perm[train_count:]]
    train_mask = np.zeros(mask.size, dtype=bool)
    train_mask[train_idx] = True
    train_mask = train_mask.reshape(mask.shape)
    target = observed.ravel()[val_idx]
    scores = []
    for config in grid:
        result = solve_recovery(method, observed, train_mask, shift, config)
        pred = np.asarray(result.x, dtype=float).ravel()[val_idx]
        mse = float(np.mean((pred - target) ** 2))
        scores.append(mse if np.isfinite(mse) else np.inf)
    best = int(np.argmin(scores))
    return CvSelection(
        index=best,
        config=grid[best],
        val_mse=tuple(scores),
        train_count=int(train_count),
        val_count=int(flat.size - train_count),
    )


def combine_opinions(opinions: np.ndarray, method: str,
                     shift: GraphShift | None = None,
                     config: SolverConfig | None = None) -> np.ndarray:
    """Fuse per-expert +/-1 opinions into one +/-1 label per node.

    ``avg`` takes the sign of the mean opinion.  The denoise variants treat
    scores as a graph signal and smooth them before thresholding:
    ``gtvr-denoise`` smooths the mean-score vector, ``gmcr-denoise`` runs the
    low-rank recovery on the full opinion matrix and averages afterwards.
    Ties threshold to +1.
    """
    return _combine(opinions, method, shift, config).x


def _combine(opinions: np.ndarray, method: str, shift: GraphShift | None,
             config: SolverConfig | None) -> RecoveryResult:
    """:func:`combine_opinions`' solve, its ``x`` thresholded to the labels.

    ``avg`` solves nothing: one iteration, converged. The denoise variants
    keep their solver's iterations, convergence and trace.
    """
    opinions = np.asarray(opinions, dtype=float)
    if opinions.ndim != 2:
        raise DimensionMismatch(
            f"expected an (n, experts) matrix, got shape {opinions.shape}")
    if not np.all(np.isin(opinions, (-1.0, 1.0))):
        raise NonBinaryInput("opinions must be +/-1 valued")
    if method not in COMBINE_METHODS:
        raise ConfigError(f"unknown combination method {method!r}")
    config = config if config is not None else SolverConfig()
    scores = opinions.mean(axis=1)
    if method == "avg":
        result = RecoveryResult(x=scores, objective_trace=np.asarray([0.0]),
                                iterations=1, converged=True)
    elif shift is None:
        raise ConfigError(f"method {method!r} needs a graph shift")
    elif shift.n != opinions.shape[0]:
        raise DimensionMismatch(
            f"shift has {shift.n} nodes, opinions have {opinions.shape[0]} rows")
    elif method == "gtvr-denoise":
        result = gtvr(scores, np.ones(opinions.shape[0], dtype=bool), shift, config.alpha)
    else:
        result = gmcr(opinions, np.ones(opinions.shape, dtype=bool), shift, config)
        result.x = result.x.mean(axis=1)
    result.x = np.where(result.x >= 0.0, 1.0, -1.0)
    return result


def solve_recovery(method: str, observed: np.ndarray, mask: np.ndarray | None,
                   shift: GraphShift, config: SolverConfig | None = None,
                   eta_smooth: float | None = None) -> RecoveryResult:
    """Dispatch one recovery method by name against uniform array handling.

    Vector-only methods accept an (n, 1) matrix and squeeze it; matrix
    methods take a vector as it is and return a vector.  The anomaly methods
    ignore the mask.  ``config.gamma`` doubles as the sparsity weight for
    ``anomaly``.
    """
    config = config if config is not None else SolverConfig()
    observed = np.asarray(observed, dtype=float)
    if method in DETECT_METHODS:
        t = observed[:, 0] if observed.ndim == 2 and observed.shape[1] == 1 else observed
        if method == "anomaly":
            return anomaly_detect(t, shift, config.gamma, config)
        if eta_smooth is None:
            raise ConfigError("anomaly-constrained needs an eta_smooth value")
        return anomaly_detect_constrained(t, shift, eta_smooth, config)
    if mask is None:
        raise ConfigError(f"method {method!r} needs an accessibility mask")
    mask = np.asarray(mask, dtype=bool)
    if observed.shape != mask.shape:
        raise DimensionMismatch(
            f"observed shape {observed.shape} vs mask shape {mask.shape}")
    if method in VECTOR_METHODS:
        if observed.ndim == 2:
            if observed.shape[1] != 1:
                raise ConfigError(
                    f"method {method!r} handles single signals, got shape {observed.shape}")
            observed = observed[:, 0]
            mask = mask[:, 0]
        if method == "gtvm":
            return gtvm(observed, mask, shift)
        if method == "gtvr":
            return gtvr(observed, mask, shift, config.alpha)
        if method == "rgtvr":
            return rgtvr(observed, mask, shift, config)
        return laplacian_baseline(observed, mask, laplacian_from_shift(shift),
                                  config.alpha)
    if method in MATRIX_METHODS:
        if method == "gmcm":
            return gmcm(observed, mask, shift, config)
        if method == "gmcr":
            return gmcr(observed, mask, shift, config)
        return gsr_admm(observed, mask, shift, config)
    raise ConfigError(f"unknown recovery method {method!r}")


@dataclass(frozen=True)
class SolverEntry:
    """One method to run inside an experiment, with its parameter policy.

    ``selection_mode`` is ``fixed`` (run ``config``), ``holdout`` (tune
    ``grid`` on held-out observed entries) or ``oracle`` (tune ``grid``
    against ground truth).
    """

    name: str
    method: str
    config: SolverConfig
    grid: tuple[SolverConfig, ...] = ()
    eta_smooth: float | None = None
    selection_mode: str = "fixed"


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description.

    ``from_dict`` checks every block before any graph is built, and rejects
    any key the task does not read.  ``raw`` keeps the original dict for
    echoing into the report.  ``graph`` is None or a typed block (a knn
    block carries its ``GraphBuildSpec`` under ``build``).  ``signal`` holds
    one block: ``synthetic`` as a ``SyntheticSpec``, ``bundle`` as a
    directory path, or ``opinions`` as a dict of typed values.  ``ratios``
    are accessible-entry fractions and collapse to a single dummy value for
    the detect and combine tasks.
    """

    task: str
    seed: int
    trials: int
    ratios: tuple[float, ...]
    solvers: tuple[SolverEntry, ...]
    graph: dict | None
    signal: dict
    corrupt: dict | None
    score: str
    eval_on: str
    oracle_select: bool
    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError("experiment description must be an object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown experiment keys {sorted(unknown)}")
        task = data.get("task")
        if task == "combine-opinions":
            task = "combine"
        if task not in _TASKS:
            raise ConfigError(f"task must be one of {list(_TASKS)}, got {task!r}")
        recovery = task in _RECOVERY_TASKS
        seed = json_value(data.get("seed", 0), int, "seed")
        trials = json_value(data.get("trials", 1), int, "trials")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        if trials < 1:
            raise ConfigError(f"trials must be positive, got {trials}")
        ratios_raw = data.get("ratios")
        if not recovery:
            if ratios_raw not in (None, [1.0]):
                raise ConfigError(f"task {task!r} does not sweep accessibility ratios")
            ratios = (1.0,)
        else:
            if ratios_raw is None:
                ratios_raw = [0.5]
            if not isinstance(ratios_raw, list) or not ratios_raw:
                raise ConfigError("ratios must be a nonempty list of fractions")
            ratios = tuple(json_value(r, float, "ratios") for r in ratios_raw)
            for r in ratios:
                if not 0.0 < r <= 1.0:
                    raise ConfigError(f"ratios must lie in (0, 1], got {r}")
        oracle_select = json_value(data.get("oracle_select", False), bool, "oracle_select")
        solvers_raw = data.get("solvers")
        if not isinstance(solvers_raw, list) or not solvers_raw:
            raise ConfigError("solvers must be a nonempty list")
        solvers = tuple(_solver_entry(s, i, task, oracle_select)
                        for i, s in enumerate(solvers_raw))
        names = [s.name for s in solvers]
        if len(set(names)) != len(names):
            raise ConfigError(f"solver names must be unique, got {names}")
        graph, signal = _graph_and_signal(task, data.get("graph"), data.get("signal"))
        corrupt = data.get("corrupt")
        if corrupt is not None:
            if not recovery:
                raise ConfigError(f"task {task!r} does not take a corrupt block")
            if not isinstance(corrupt, dict):
                raise ConfigError("corrupt must be an object")
            unknown = set(corrupt) - {"fraction", "mode"}
            if unknown:
                raise ConfigError(f"corrupt: unknown keys {sorted(unknown)}")
            fraction = json_value(corrupt.get("fraction", 0.0), float, "corrupt.fraction")
            mode = corrupt.get("mode", "regression")
            if not 0.0 <= fraction <= 1.0:
                raise ConfigError(f"corrupt.fraction must lie in [0, 1], got {fraction}")
            if mode not in ("classification", "regression"):
                raise ConfigError("corrupt.mode must be classification or regression")
            corrupt = {"fraction": fraction, "mode": mode}
        scores = _TASK_SCORES.get(task, ("regression", "classification"))
        score = data.get("score", scores[0] if scores else "regression")
        if "score" in data and score not in scores:
            raise ConfigError(f"task {task!r} takes score in {list(scores)}, got {score!r}")
        if score == "classification" and "synthetic" in signal:
            raise ConfigError("score 'classification' compares +/-1 labels with the "
                              "truth, and a synthetic signal is real-valued")
        eval_on = data.get("eval_on", "hidden" if recovery else "all")
        if eval_on not in (("hidden", "all") if recovery else ("all",)):
            raise ConfigError(f"eval_on {eval_on!r} is not valid for task {task!r}")
        return ExperimentSpec(
            task=task, seed=seed, trials=trials, ratios=ratios, solvers=solvers,
            graph=graph, signal=signal, corrupt=corrupt, score=score,
            eval_on=eval_on, oracle_select=oracle_select, raw=dict(data),
        )


_RECOVERY_TASKS = ("inpaint", "robust-inpaint", "complete")
_TASKS = _RECOVERY_TASKS + ("detect", "combine")
_TASK_METHODS = {
    "inpaint": VECTOR_METHODS + MATRIX_METHODS,
    "robust-inpaint": VECTOR_METHODS + MATRIX_METHODS,
    "complete": VECTOR_METHODS + MATRIX_METHODS,
    "detect": DETECT_METHODS,
    "combine": COMBINE_METHODS,
}
_TASK_SIGNALS = {"detect": ("synthetic",), "combine": ("opinions",)}
_TASK_SCORES = {"detect": (), "combine": ("classification",)}
_SPEC_KEYS = {"task", "seed", "trials", "ratios", "solvers", "graph", "signal",
              "corrupt", "score", "eval_on", "oracle_select"}
_GRAPH_KEYS = {"cycle": {"kind", "n"},
               "knn": {"kind", "n", "dim", "k", "symmetrize", "normalization"},
               "file": {"kind", "path"}}
_OPINION_DEFAULTS = {"n": 200, "experts": 20, "easy_acc": 0.9, "hard_acc": 0.3,
                     "hard_fraction": 0.25, "k": 8}


def _solver_entry(data: dict, index: int, task: str,
                  oracle_select: bool) -> SolverEntry:
    if not isinstance(data, dict):
        raise ConfigError(f"solvers[{index}]: expected an object")
    allowed = {"name", "method", "config", "grid", "eta_smooth"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"solvers[{index}]: unknown keys {sorted(unknown)}")
    method = data.get("method")
    if method not in _TASK_METHODS[task]:
        raise ConfigError(
            f"solvers[{index}]: method {method!r} is not valid for task {task!r} "
            f"(choose from {list(_TASK_METHODS[task])})")
    name = data.get("name", method)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"solvers[{index}]: name must be a nonempty string")
    grid_raw = data.get("grid", [])
    if not isinstance(grid_raw, list):
        raise ConfigError(f"solvers[{index}]: grid must be a list of config objects")
    # null stands for the default config
    grid = tuple(spec_from_dict(SolverConfig, {} if g is None else g,
                                f"solvers[{index}].grid[{j}]")
                 for j, g in enumerate(grid_raw))
    mode = "fixed" if not grid else "oracle" if oracle_select else "holdout"
    if mode == "holdout" and task not in _RECOVERY_TASKS:
        raise ConfigError(
            f"task {task!r} has no holdout to tune on; "
            f"set oracle_select to search a grid")
    eta_smooth = data.get("eta_smooth")
    if eta_smooth is not None:
        eta_smooth = json_value(eta_smooth, float, f"solvers[{index}].eta_smooth")
        if not eta_smooth >= 0:
            raise ConfigError(f"solvers[{index}]: eta_smooth must be nonnegative, "
                              f"got {eta_smooth}")
    if method == "anomaly-constrained" and eta_smooth is None:
        raise ConfigError(f"solvers[{index}]: anomaly-constrained needs eta_smooth")
    config = data.get("config")
    return SolverEntry(
        name=name,
        method=method,
        config=spec_from_dict(SolverConfig, {} if config is None else config,
                              f"solvers[{index}].config"),
        grid=grid,
        eta_smooth=eta_smooth,
        selection_mode=mode,
    )


def _graph_and_signal(task: str, graph, signal) -> tuple[dict | None, dict]:
    """Typed graph and signal blocks; the graph is read only by a synthetic signal."""
    kinds = _TASK_SIGNALS.get(task, ("synthetic", "bundle"))
    if not isinstance(signal, dict) or len(signal) != 1 or next(iter(signal)) not in kinds:
        raise ConfigError(f"task {task!r} needs a signal object holding exactly one "
                          f"of {list(kinds)}, got {signal!r}")
    (kind, block), = signal.items()
    if kind != "synthetic":
        if graph is not None:
            raise ConfigError(f"signal.{kind} brings its own graph; drop the graph block")
    elif graph is None:
        raise ConfigError(f"task {task!r} needs a graph block")
    else:
        graph = _graph_block(graph)
    if kind == "bundle":
        if not isinstance(block, str) or not block:
            raise ConfigError("signal.bundle must be a directory path")
        return None, signal
    if not isinstance(block, dict):
        raise ConfigError(f"signal.{kind} must be an object")
    if kind == "opinions":
        unknown = set(block) - set(_OPINION_DEFAULTS)
        if unknown:
            raise ConfigError(f"signal.opinions: unknown keys {sorted(unknown)}")
        opinions = {key: json_value(block.get(key, default), type(default),
                                    f"signal.opinions.{key}")
                    for key, default in _OPINION_DEFAULTS.items()}
        if not (1 <= opinions["k"] < opinions["n"] and opinions["experts"] >= 1 and all(
                0 <= opinions[p] <= 1 for p in ("easy_acc", "hard_acc", "hard_fraction"))):
            raise ConfigError("signal.opinions needs 1 <= k < n, experts >= 1, and "
                              "easy_acc, hard_acc and hard_fraction in [0, 1], "
                              f"got {opinions}")
        return None, {"opinions": opinions}
    # a file graph's size is known once the file is read; until then n puts
    # no bound on rank or outliers_per_column, which are checked again then
    synthetic = spec_from_dict(SyntheticSpec, block, "signal.synthetic",
                               n=graph.get("n", sys.maxsize))
    if task != "complete" and synthetic.l != 1:
        raise ConfigError(f"task {task!r} needs a single-column signal, "
                          f"got signal.synthetic.l = {synthetic.l}")
    if task == "detect" and synthetic.outliers_per_column < 1:
        raise ConfigError("detect needs signal.synthetic.outliers_per_column >= 1")
    return graph, {"synthetic": synthetic}


def _graph_block(graph) -> dict:
    if not isinstance(graph, dict):
        raise ConfigError("graph must be an object")
    kind = graph.get("kind")
    if not isinstance(kind, str) or kind not in _GRAPH_KEYS:
        raise ConfigError(f"graph.kind must be cycle, knn, or file, got {kind!r}")
    unknown = set(graph) - _GRAPH_KEYS[kind]
    if unknown:
        raise ConfigError(f"graph: unknown keys {sorted(unknown)} for a {kind} graph")
    if kind == "file":
        path = graph.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("graph kind 'file' needs a path")
        return {"kind": kind, "path": path}
    n = json_value(graph.get("n", 0), int, "graph.n")
    if kind == "cycle":
        if n < 2:
            raise ConfigError(f"cycle graph needs n >= 2, got {n}")
        return {"kind": kind, "n": n}
    dim = json_value(graph.get("dim", 2), int, "graph.dim")
    build = spec_from_dict(GraphBuildSpec, {key: value for key, value in graph.items()
                                            if key not in ("kind", "n", "dim")}, "graph")
    if n < 2 or dim < 1 or build.k >= n:
        raise ConfigError(f"knn graph needs n >= 2, dim >= 1 and 1 <= k < n, "
                          f"got n={n}, dim={dim}, k={build.k}")
    return {"kind": kind, "n": n, "dim": dim, "build": build}


def _resolve_graph(graph: dict, seed: int) -> GraphShift:
    if graph["kind"] == "cycle":
        return cycle_shift(graph["n"])
    if graph["kind"] == "knn":
        features = random_features(graph["n"], graph["dim"],
                                   stream_rng(seed, STREAM_GRAPH).integers(2**31))
        return build_knn_graph(features, graph["build"])
    return load_graph(graph["path"])


class _Cell(NamedTuple):
    """One (ratio, trial) draw: how to solve, score and tune on it.

    ``holdout(entry)`` returns the config a holdout search picks; it is None
    for tasks without a holdout.
    """

    ratio: float
    trial: int
    solve: Callable[[SolverEntry, SolverConfig], RecoveryResult]
    score: Callable[[RecoveryResult], MetricReport]
    holdout: Callable[[SolverEntry], SolverConfig] | None


def _synthetic_draws(spec: ExperimentSpec, shift: GraphShift):
    """``draw(*subkeys)``: one synthetic instance on ``shift``."""
    with config_values("signal.synthetic"):
        synthetic = replace(spec.signal["synthetic"], n=shift.n)
    return lambda *subkeys: synth_instance(shift, synthetic, spec.seed, *subkeys)


def _recovery_cells(spec: ExperimentSpec) -> Iterator[_Cell]:
    fixed = None
    if "bundle" in spec.signal:
        shift, fixed, _ = load_bundle(spec.signal["bundle"])
        if spec.task != "complete" and fixed.x0.shape[1] != 1:
            raise ConfigError(f"task {spec.task!r} needs a single-column signal, "
                              f"got a bundle with {fixed.x0.shape[1]} columns")
        if spec.score == "classification" and not np.all(np.isin(fixed.x0, (-1.0, 1.0))):
            raise ConfigError("score 'classification' needs a +/-1 truth; the "
                              f"bundle {spec.signal['bundle']} holds other values")
    else:
        shift = _resolve_graph(spec.graph, spec.seed)
        draw = _synthetic_draws(spec, shift)
    for ratio_index, ratio in enumerate(spec.ratios):
        for trial in range(spec.trials):
            instance = fixed if fixed is not None else draw(ratio_index, trial)
            yield _recovery_cell(spec, shift, instance, ratio, ratio_index, trial)


def _recovery_cell(spec: ExperimentSpec, shift: GraphShift,
                   instance: SyntheticInstance, ratio: float, ratio_index: int,
                   trial: int) -> _Cell:
    truth, observed = instance.x0, instance.observed
    if spec.task != "complete":
        truth, observed = truth[:, 0], observed[:, 0]
    mask = sample_mask(observed.shape, ratio, spec.seed, ratio_index, trial)
    if spec.corrupt is not None and spec.corrupt["fraction"] > 0:
        observed, _ = corrupt_labels(observed, mask, spec.corrupt["fraction"],
                                     spec.corrupt["mode"], spec.seed,
                                     ratio_index, trial)
    eval_mask = ~mask if spec.eval_on == "hidden" else np.ones_like(mask)
    if not np.any(eval_mask):
        raise EmptyMask("nothing to evaluate: mask covers every entry and "
                        "eval_on is 'hidden'")

    def solve(entry: SolverEntry, config: SolverConfig) -> RecoveryResult:
        return solve_recovery(entry.method, observed, mask, shift, config,
                              entry.eta_smooth)

    def score(result: RecoveryResult) -> MetricReport:
        est = np.asarray(result.x, dtype=float)
        return evaluate(truth[eval_mask], est[eval_mask], spec.score)

    def holdout(entry: SolverEntry) -> SolverConfig:
        return cross_validate(entry.method, observed, mask, shift, entry.grid,
                              spec.seed, ratio_index, trial).config

    return _Cell(ratio, trial, solve, score, holdout)


def _detect_cells(spec: ExperimentSpec) -> Iterator[_Cell]:
    shift = _resolve_graph(spec.graph, spec.seed)
    draw = _synthetic_draws(spec, shift)
    for trial in range(spec.trials):
        yield _detect_cell(shift, draw(trial), trial)


def _detect_cell(shift: GraphShift, instance: SyntheticInstance, trial: int) -> _Cell:
    t = instance.observed[:, 0]
    clean = instance.x0[:, 0] + instance.noise[:, 0]
    true_support = instance.outliers[:, 0] != 0.0

    def solve(entry: SolverEntry, config: SolverConfig) -> RecoveryResult:
        return solve_recovery(entry.method, t, None, shift, config, entry.eta_smooth)

    def score(result: RecoveryResult) -> MetricReport:
        found = np.asarray(result.outliers, dtype=float) != 0.0
        return replace(evaluate(clean, result.x),
                       acc=float(np.mean(found == true_support)))

    return _Cell(1.0, trial, solve, score, None)


def _combine_cells(spec: ExperimentSpec) -> Iterator[_Cell]:
    o = spec.signal["opinions"]
    for trial in range(spec.trials):
        shift, truth, opinions, _ = synth_opinion_instance(
            o["n"], o["experts"], o["easy_acc"], o["hard_acc"],
            o["hard_fraction"], o["k"], spec.seed, trial)
        yield _combine_cell(shift, truth, opinions, trial)


def _combine_cell(shift: GraphShift, truth: np.ndarray, opinions: np.ndarray,
                  trial: int) -> _Cell:
    def solve(entry: SolverEntry, config: SolverConfig) -> RecoveryResult:
        return _combine(opinions, entry.method, shift, config)

    def score(result: RecoveryResult) -> MetricReport:
        return evaluate(truth, result.x, "classification")

    return _Cell(1.0, trial, solve, score, None)


def _oracle_pick(entry: SolverEntry, cell: _Cell) -> tuple[RecoveryResult, MetricReport]:
    """Search the grid with access to ground truth; used for ceiling studies.

    Ranks by accuracy when the score has one, by mean squared error otherwise;
    ties and non-finite scores go to the earliest grid entry.
    """
    best = None
    for config in entry.grid:
        result = cell.solve(entry, config)
        report = cell.score(result)
        key = -report.acc if report.acc is not None else report.mse
        if not np.isfinite(key):
            key = np.inf
        if best is None or key < best[0]:
            best = (key, result, report)
    return best[1], best[2]


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple[str, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["ratio"]), []).append(row)
    out = []
    for (method, ratio), members in sorted(groups.items()):
        accs = [m["acc"] for m in members if m["acc"] is not None]
        out.append({
            "method": method,
            "ratio": ratio,
            "trials": len(members),
            "converged": sum(1 for m in members if m["converged"]),
            "mean_mse": float(np.mean([m["mse"] for m in members])),
            "mean_rmse": float(np.mean([m["rmse"] for m in members])),
            "mean_mae": float(np.mean([m["mae"] for m in members])),
            "mean_acc": float(np.mean(accs)) if accs else None,
            "mean_iterations": float(np.mean([m["iterations"] for m in members])),
        })
    return out


def _versions() -> dict:
    import scipy

    from . import __version__

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "gsrec": __version__}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Execute every (ratio, trial, method) cell and write the two outputs.

    Returns the report dict.  The trial grid is fully determined by the seed:
    masks, corruption, and synthetic draws all come from per-cell seeded
    streams, and methods never share random state.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    per_method_ms = {entry.name: 0.0 for entry in spec.solvers}
    rows: list[dict] = []
    cells = {"detect": _detect_cells, "combine": _combine_cells}.get(
        spec.task, _recovery_cells)
    for cell in cells(spec):
        for entry in spec.solvers:
            tick = time.perf_counter()
            if entry.selection_mode == "oracle":
                result, report = _oracle_pick(entry, cell)
            else:
                config = (cell.holdout(entry) if entry.selection_mode == "holdout"
                          else entry.config)
                result = cell.solve(entry, config)
                report = cell.score(result)
            per_method_ms[entry.name] += (time.perf_counter() - tick) * 1000.0
            rows.append({
                "task": spec.task, "method": entry.name, "ratio": cell.ratio,
                "trial": cell.trial, "seed": spec.seed, "acc": report.acc,
                "mse": report.mse, "rmse": report.rmse, "mae": report.mae,
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
            })

    total_ms = (time.perf_counter() - started) * 1000.0
    columns = TRIALS_HEADER.split(",")
    lines = [TRIALS_HEADER] + [",".join(_csv_field(row[c]) for c in columns)
                               for row in rows]
    trials_path = out_dir / "trials.csv"
    trials_path.write_text("\n".join(lines) + "\n", newline="\n")
    report = {
        "spec": spec.raw,
        "task": spec.task,
        "seed": spec.seed,
        "versions": _versions(),
        "selection": {entry.name: entry.selection_mode for entry in spec.solvers},
        "aggregates": _aggregate(rows),
        "all_converged": all(row["converged"] for row in rows),
        "rows": len(rows),
        "timing_ms": {"total": total_ms, "per_method": per_method_ms},
        "trials_csv": trials_path.name,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           newline="\n")
    return report
