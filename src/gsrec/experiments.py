"""Evaluation metrics, model selection, baselines, and the experiment runner.

The runner consumes a plain-dict experiment description (usually parsed from a
JSON config), executes a deterministic grid of trials, and writes two files
into the output directory:

* ``trials.csv``: one row per (ratio, trial, method) with fixed column order
  and ``%.17g`` float formatting.  Re-running the same description with the
  same seed reproduces this file byte for byte, so it doubles as a regression
  fixture.  Wall-clock timing is deliberately kept out of it.
* ``report.json``: the description as parsed, every default filled in,
  library versions, per-method aggregates, parameter-selection modes, and
  timing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .datagen import (
    STREAM_GRAPH,
    STREAM_SPLIT,
    GraphBuildSpec,
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
from .io import (_jsonable, config_values, json_value, load_bundle, load_graph,
                 spec_from_dict)
from .solvers import (
    RecoveryResult,
    SolverConfig,
    _closed_form,
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

# Every method by name: its signal kind (vector, matrix, detect or opinions; the
# last two ignore the mask), the settings it reads (SolverConfig fields and
# eta_smooth), the CLI commands that list it, and whether it takes a shift. No
# row holds its solver: solve_recovery looks each one up when called.
Method = namedtuple("Method", "kind reads commands shift", defaults=(True,))
_LOOP = ("tol_outer", "max_outer")
METHODS = {
    "gtvm": Method("vector", (), ("inpaint",)),
    "gtvr": Method("vector", ("alpha",), ("inpaint",)),
    "rgtvr": Method("vector", ("alpha", "gamma", "penalty", *_LOOP), ("robust",)),
    "laplacian": Method("vector", ("alpha",), ("inpaint",)),
    "gmcm": Method("matrix", ("beta", *_LOOP), ("complete",)),
    "gmcr": Method("matrix", ("alpha", "beta", *_LOOP), ("complete",)),
    "admm": Method("matrix", ("alpha", "beta", "gamma", "penalty", *_LOOP),
                   ("complete", "robust")),
    "anomaly": Method("detect", ("gamma", "max_outer"), ("detect",)),
    "anomaly-constrained": Method("detect", ("max_outer", "eta_smooth"), ("detect",)),
    "avg": Method("opinions", (), ("combine",), shift=False),
    "gtvr-denoise": Method("opinions", ("alpha",), ("combine",)),
    "gmcr-denoise": Method("opinions", ("alpha", "beta", *_LOOP), ("combine",)),
}


def check_reads(where: str, method: str, config: SolverConfig,
                eta_smooth: float | None = None) -> None:
    """Raise a ConfigError at ``where`` naming each setting that ``config`` or
    ``eta_smooth`` moves off its default (``SolverConfig()``'s, None) and
    that ``method`` does not read."""
    moved = [f.name for f in fields(config) if getattr(config, f.name) != f.default]
    moved += ["eta_smooth"] if eta_smooth is not None else []
    unread = [name for name in moved if name not in METHODS[method].reads]
    if unread:
        raise ConfigError(f"{where}: method {method!r} does not read {', '.join(unread)}")


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
    return _closed_form(*_regularized_fit(t, mask, laplacian, alpha),
                        solver="laplacian", alpha=float(alpha))


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
    mean squared error against the held-out observed values, ranked by
    :func:`_first_least`. A method that ignores the mask is a ConfigError.
    """
    if method in METHODS and METHODS[method].kind in ("detect", "opinions"):
        raise ConfigError(f"method {method!r} ignores the mask: nothing to hold out")
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
        scores.append(float(np.mean((pred - target) ** 2)))
    best = _first_least(scores)
    return CvSelection(
        index=best,
        config=grid[best],
        val_mse=tuple(scores),
        train_count=int(train_count),
        val_count=int(flat.size - train_count),
    )


def _first_least(keys: Sequence[float]) -> int:
    """Index of the first least key, a non-finite key ranking last."""
    return int(np.argmin([key if np.isfinite(key) else np.inf for key in keys]))


def combine_opinions(opinions: np.ndarray, method: str,
                     shift: GraphShift | None = None,
                     config: SolverConfig | None = None) -> RecoveryResult:
    """Fuse per-expert +/-1 opinions into one +/-1 label per node.

    ``avg`` takes the sign of the mean opinion.  The denoise variants treat
    scores as a graph signal and smooth them before thresholding:
    ``gtvr-denoise`` smooths the mean-score vector, ``gmcr-denoise`` runs the
    low-rank recovery on the full opinion matrix and averages afterwards.
    Ties threshold to +1. Returns the solve's :class:`RecoveryResult` with
    the labels in ``x``: ``avg`` solves nothing (one iteration, converged),
    the denoise variants keep their solver's iterations, convergence and
    trace.
    """
    opinions = np.asarray(opinions, dtype=float)
    if opinions.ndim != 2:
        raise DimensionMismatch(
            f"expected an (n, experts) matrix, got shape {opinions.shape}")
    if not np.all(np.isin(opinions, (-1.0, 1.0))):
        raise NonBinaryInput("opinions must be +/-1 valued")
    if method not in METHODS or METHODS[method].kind != "opinions":
        raise ConfigError(f"unknown combination method {method!r}")
    config = config if config is not None else SolverConfig()
    scores = opinions.mean(axis=1)
    if method == "avg":
        result = _closed_form(scores, 0.0)
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
                   shift: GraphShift | None, config: SolverConfig | None = None,
                   eta_smooth: float | None = None) -> RecoveryResult:
    """Dispatch one recovery method by its :data:`METHODS` row, not checking
    the settings against its ``reads``. Vector methods accept an (n, 1)
    matrix and squeeze it; matrix methods take a vector as it is and return
    one. ``opinions`` methods read ``observed`` as the (n, experts) opinions
    of :func:`combine_opinions`; ``config.gamma`` is ``anomaly``'s sparsity weight.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown recovery method {method!r}")
    row = METHODS[method]
    config = config if config is not None else SolverConfig()
    observed = np.asarray(observed, dtype=float)
    if row.kind == "opinions":
        return combine_opinions(observed, method, shift, config)
    if row.kind == "detect":
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
    if row.kind == "vector":
        if observed.ndim == 2:
            if observed.shape[1] != 1:
                raise ConfigError(
                    f"method {method!r} handles single signals, got shape {observed.shape}")
            observed, mask = observed[:, 0], mask[:, 0]
        if method == "gtvm":
            return gtvm(observed, mask, shift)
        if method == "gtvr":
            return gtvr(observed, mask, shift, config.alpha)
        if method == "laplacian":
            return laplacian_baseline(observed, mask, laplacian_from_shift(shift),
                                      config.alpha)
    # the solvers that read the whole config, looked up when called
    solver = {"rgtvr": rgtvr, "gmcm": gmcm, "gmcr": gmcr, "admm": gsr_admm}[method]
    return solver(observed, mask, shift, config)


@dataclass(frozen=True)
class SolverEntry:
    """One method to run inside an experiment, with its parameter policy.

    ``name`` defaults to the method. Without a ``grid`` the entry runs
    ``config``; :meth:`ExperimentSpec.selection_mode` says how it tunes one.
    """

    method: str
    name: str | None = None
    config: SolverConfig = field(default_factory=SolverConfig)
    grid: tuple[SolverConfig, ...] = ()
    eta_smooth: float | None = None

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.method)
        if not self.name:
            raise ValueError("name must be a nonempty string")
        if self.eta_smooth is not None and not self.eta_smooth >= 0:
            raise ValueError(f"eta_smooth must be nonnegative, got {self.eta_smooth}")
        if self.method == "anomaly-constrained" and self.eta_smooth is None:
            raise ValueError("anomaly-constrained needs eta_smooth")


@dataclass(frozen=True)
class Corruption:
    """How many measured entries :func:`~gsrec.datagen.corrupt_labels` spoils, and how."""

    fraction: float = 0.0
    mode: str = "regression"

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.mode not in ("classification", "regression"):
            raise ValueError(f"mode must be classification or regression, got {self.mode!r}")


@dataclass(frozen=True)
class Opinions:
    """A :func:`~gsrec.datagen.synth_opinion_instance` draw's sizes and accuracies."""

    n: int = 200
    experts: int = 20
    easy_acc: float = 0.9
    hard_acc: float = 0.3
    hard_fraction: float = 0.25
    k: int = 8

    def __post_init__(self):
        if not (1 <= self.k < self.n and self.experts >= 1 and all(
                0 <= p <= 1 for p in (self.easy_acc, self.hard_acc, self.hard_fraction))):
            raise ValueError("needs 1 <= k < n, experts >= 1, and easy_acc, hard_acc "
                             f"and hard_fraction in [0, 1], got {self}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description.

    ``from_dict`` reads every block before any graph is built, and rejects
    any key the task does not read; a null block or setting means its
    defaults. ``graph`` is None or a typed block (a knn block keeps its
    ``GraphBuildSpec`` keys flat, defaults filled in). ``signal`` holds one block:
    ``synthetic`` as a ``SyntheticSpec``, ``bundle`` as a directory path, or
    ``opinions`` as :class:`Opinions`. ``ratios`` are accessible-entry
    fractions and collapse to a single dummy value for the detect and
    combine tasks. Parsing a parsed spec again (``dataclasses.replace``)
    changes nothing.
    """

    task: str | None = None
    seed: int = 0
    trials: int = 1
    ratios: tuple[float, ...] | None = None
    solvers: tuple[SolverEntry, ...] = ()
    graph: dict | None = None
    signal: dict | None = None
    corrupt: Corruption | None = None
    score: str | None = None
    eval_on: str | None = None
    oracle_select: bool = False

    @staticmethod
    def from_dict(data) -> "ExperimentSpec":
        return spec_from_dict(ExperimentSpec, data, "")

    def selection_mode(self, entry: SolverEntry) -> str:
        """``fixed`` (run ``entry.config``), or tune ``entry.grid`` on held-out
        observed entries (``holdout``) or against ground truth (``oracle``)."""
        return "fixed" if not entry.grid else "oracle" if self.oracle_select else "holdout"

    def __post_init__(self):
        task = "combine" if self.task == "combine-opinions" else self.task
        if task not in _TASKS:
            raise ConfigError(f"task must be one of {list(_TASKS)}, got {self.task!r}")
        recovery = task in _RECOVERY_TASKS
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        ratios = ((0.5,) if recovery else (1.0,)) if self.ratios is None else self.ratios
        if not recovery and ratios != (1.0,):
            raise ConfigError(f"task {task!r} does not sweep accessibility ratios")
        if not ratios or not all(0.0 < r <= 1.0 for r in ratios):
            raise ConfigError(f"ratios must be a nonempty list of fractions in (0, 1], "
                              f"got {list(ratios)}")
        if not self.solvers:
            raise ConfigError("solvers must be a nonempty list")
        graph, signal = _graph_and_signal(task, self.graph, self.signal)
        columns = signal["synthetic"].l if "synthetic" in signal else 1
        kinds = _TASK_KINDS.get(task, ("vector", "matrix"))
        methods = [name for name, row in METHODS.items() if row.kind in kinds]
        for index, entry in enumerate(self.solvers):
            if entry.method not in methods:
                raise ConfigError(
                    f"solvers[{index}]: method {entry.method!r} is not valid for task "
                    f"{task!r} (choose from {methods})")
            if METHODS[entry.method].kind == "vector" and columns != 1:
                raise ConfigError(f"solvers[{index}]: method {entry.method!r} handles "
                                  f"single signals, got signal.synthetic.l = {columns}")
            check_reads(f"solvers[{index}]", entry.method, entry.config, entry.eta_smooth)
            for i, config in enumerate(entry.grid):
                check_reads(f"solvers[{index}].grid[{i}]", entry.method, config)
            if self.selection_mode(entry) == "holdout" and not recovery:
                raise ConfigError(f"solvers[{index}]: task {task!r} has no holdout to "
                                  "tune on; set oracle_select to search a grid")
        names = [entry.name for entry in self.solvers]
        if len(set(names)) != len(names):
            raise ConfigError(f"solver names must be unique, got {names}")
        if self.corrupt is not None and not recovery:
            raise ConfigError(f"task {task!r} does not take a corrupt block")
        scores = _TASK_SCORES.get(task, ("regression", "classification"))
        score = self.score
        if score is None:
            score = scores[0] if scores else None
        elif score not in scores:
            raise ConfigError(f"task {task!r} takes score in {list(scores)}, got {score!r}")
        if score == "classification" and "synthetic" in signal:
            raise ConfigError("score 'classification' compares +/-1 labels with the "
                              "truth, and a synthetic signal is real-valued")
        eval_on = ("hidden" if recovery else "all") if self.eval_on is None else self.eval_on
        if eval_on not in (("hidden", "all") if recovery else ("all",)):
            raise ConfigError(f"eval_on {eval_on!r} is not valid for task {task!r}")
        for key, value in dict(task=task, ratios=ratios, graph=graph, signal=signal,
                               score=score, eval_on=eval_on).items():
            object.__setattr__(self, key, value)


_RECOVERY_TASKS = ("inpaint", "robust-inpaint", "complete")
_TASKS = _RECOVERY_TASKS + ("detect", "combine")
_TASK_KINDS = {"detect": ("detect",), "combine": ("opinions",)}
_TASK_SIGNALS = {"detect": ("synthetic",), "combine": ("opinions",)}
_TASK_SCORES = {"detect": (), "combine": ("classification",)}
_GRAPH_KEYS = {"cycle": {"kind", "n"},
               "knn": {"kind", "n", "dim", "k", "symmetrize", "normalization"},
               "file": {"kind", "path"}}


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
    if kind == "opinions":
        return None, {"opinions": spec_from_dict(Opinions, block, "signal.opinions")}
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
    return {"kind": kind, "n": n, "dim": dim, "k": build.k,
            "symmetrize": build.symmetrize, "normalization": build.normalization}


def _resolve_graph(graph: dict, seed: int) -> GraphShift:
    if graph["kind"] == "cycle":
        return cycle_shift(graph["n"])
    if graph["kind"] == "knn":
        features = random_features(graph["n"], graph["dim"],
                                   stream_rng(seed, STREAM_GRAPH).integers(2**31))
        build = {key: graph[key] for key in graph.keys() - {"kind", "n", "dim"}}
        return build_knn_graph(features, GraphBuildSpec(**build))
    return load_graph(graph["path"])


class _Cell(NamedTuple):
    """One (ratio, trial) draw, as data: what :func:`solve_recovery` takes,
    the truth, the entries :func:`_score` scores (every entry when None) and
    detection's planted outlier support. A holdout split's subkeys are
    ``(ratio_index, trial)``."""

    ratio: float
    ratio_index: int
    trial: int
    shift: GraphShift
    observed: np.ndarray
    mask: np.ndarray | None
    truth: np.ndarray
    scored: np.ndarray | None = None
    support: np.ndarray | None = None


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
            truth, observed = instance.x0, instance.observed
            if spec.task != "complete":
                truth, observed = truth[:, 0], observed[:, 0]
            mask = sample_mask(observed.shape, ratio, spec.seed, ratio_index, trial)
            if spec.corrupt is not None and spec.corrupt.fraction > 0:
                observed, _ = corrupt_labels(observed, mask, spec.corrupt.fraction,
                                             spec.corrupt.mode, spec.seed, ratio_index,
                                             trial)
            scored = ~mask if spec.eval_on == "hidden" else np.ones_like(mask)
            if not np.any(scored):
                raise EmptyMask("nothing to evaluate: mask covers every entry and "
                                "eval_on is 'hidden'")
            yield _Cell(ratio, ratio_index, trial, shift, observed, mask, truth, scored)


def _detect_cells(spec: ExperimentSpec) -> Iterator[_Cell]:
    shift = _resolve_graph(spec.graph, spec.seed)
    draw = _synthetic_draws(spec, shift)
    for trial in range(spec.trials):
        instance = draw(trial)
        yield _Cell(1.0, 0, trial, shift, instance.observed[:, 0], None,
                    instance.x0[:, 0] + instance.noise[:, 0],
                    support=instance.outliers[:, 0] != 0.0)


def _combine_cells(spec: ExperimentSpec) -> Iterator[_Cell]:
    o = spec.signal["opinions"]
    for trial in range(spec.trials):
        shift, truth, opinions, _ = synth_opinion_instance(
            o.n, o.experts, o.easy_acc, o.hard_acc, o.hard_fraction, o.k,
            spec.seed, trial)
        yield _Cell(1.0, 0, trial, shift, opinions, None, truth)


def _score(spec: ExperimentSpec, cell: _Cell, result: RecoveryResult) -> MetricReport:
    """``result`` against the cell's truth by the task's score; for detection
    ``acc`` is the share of nodes whose outlier support it finds."""
    truth, est = cell.truth, np.asarray(result.x, dtype=float)
    if cell.scored is not None:
        truth, est = truth[cell.scored], est[cell.scored]
    report = evaluate(truth, est, spec.score or "regression")
    if cell.support is None:
        return report
    found = np.asarray(result.outliers, dtype=float) != 0.0
    return replace(report, acc=float(np.mean(found == cell.support)))


def _solve_row(spec: ExperimentSpec, entry: SolverEntry,
               cell: _Cell) -> tuple[RecoveryResult, MetricReport]:
    """One row's result and score: ``entry.config``'s, the holdout pick's,
    or (``oracle``, for ceiling studies) the best grid entry's against the
    truth, by accuracy when the score has one, by mean squared error
    otherwise, ranked by :func:`_first_least`."""
    mode = spec.selection_mode(entry)
    configs = entry.grid if mode == "oracle" else (entry.config,)
    if mode == "holdout":
        configs = (cross_validate(entry.method, cell.observed, cell.mask, cell.shift,
                                  entry.grid, spec.seed, cell.ratio_index,
                                  cell.trial).config,)
    tried = []
    for config in configs:
        result = solve_recovery(entry.method, cell.observed, cell.mask, cell.shift,
                                config, entry.eta_smooth)
        tried.append((result, _score(spec, cell, result)))
    return tried[_first_least([-report.acc if report.acc is not None else report.mse
                               for _, report in tried])]


def _echo(spec: ExperimentSpec) -> dict:
    """The description ``spec`` parses from, every default filled in. A
    synthetic signal's ``n`` is the graph's node count, no key of it."""
    echo = _jsonable(asdict(spec))
    echo["signal"].get("synthetic", {}).pop("n", None)
    return echo


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
            result, report = _solve_row(spec, entry, cell)
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
        "spec": _echo(spec),
        "task": spec.task,
        "seed": spec.seed,
        "versions": _versions(),
        "selection": {entry.name: spec.selection_mode(entry) for entry in spec.solvers},
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
