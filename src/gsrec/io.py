"""CSV and JSON formats for graphs, signals, masks, configs, and results.

Graphs travel as an edge-list CSV (``src,dst,weight`` per line, meaning an
edge from src into dst, stored at ``weights[dst, src]``) or as a dense N x N
CSV; either carries a JSON sidecar ``{"n": ..., "normalized": ...,
"spectral_radius": ..., "format": ...}`` next to it; bundles use the edge
list. Signals are plain numeric CSVs with one row per node; masks list
accessible entries as ``row,col`` pairs. All parsers reject NaN and
infinity, and name a bad row by its line number in the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import GraphShift
from .solvers import RecoveryResult, SolverConfig

FLOAT_FMT = "%.17g"


def _read_rows(path: Path) -> list[tuple[int, list[str]]]:
    """(file line number, cells) of each line that is not blank or a ``#``."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return [(number, [cell.strip() for cell in line.split(",")])
            for number, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#")]


def _parse_float_rows(rows: list[tuple[int, list[str]]], path: Path,
                      allow_nan: bool = False) -> np.ndarray:
    if not rows:
        raise DataError(f"{path} is empty")
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path} line {line}: expected {width} columns, got {len(row)}"
            )
        try:
            data[i] = [float(cell) for cell in row]
        except ValueError as exc:
            raise DataError(f"{path} line {line}: {exc}") from exc
    if allow_nan:
        if np.any(np.isinf(data)):
            raise DataError(f"{path} contains infinite values")
    elif not np.all(np.isfinite(data)):
        raise DataError(f"{path} contains NaN or infinite values")
    return data


def save_signal_csv(path, signal: np.ndarray) -> None:
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    np.savetxt(path, arr, fmt=FLOAT_FMT, delimiter=",")


def load_signal_csv(path, allow_nan: bool = False) -> np.ndarray:
    """Signal matrix with one row per node; always returns shape (N, L).

    allow_nan admits NaN cells for feature tables with missing
    coordinates; infinities are always rejected.
    """
    return _parse_float_rows(_read_rows(Path(path)), Path(path), allow_nan)


def save_mask_csv(path, mask: np.ndarray) -> None:
    m = np.asarray(mask)
    if m.ndim == 1:
        m = m[:, None]
    rows, cols = np.nonzero(m)
    lines = [f"{r},{c}" for r, c in zip(rows, cols)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_mask_csv(path, shape: tuple[int, ...]) -> np.ndarray:
    """Boolean accessible-entry mask from row,col pairs."""
    mask2 = np.zeros(shape if len(shape) == 2 else (shape[0], 1), dtype=bool)
    for line, row in _read_rows(Path(path)):
        try:
            r, c = map(int, row)
        except ValueError as exc:  # a bad cell or a count other than two
            raise DataError(f"{path} line {line}: expected row,col: {exc}") from exc
        if not (0 <= r < mask2.shape[0] and 0 <= c < mask2.shape[1]):
            raise DataError(
                f"{path} line {line}: index ({r}, {c}) outside shape {mask2.shape}"
            )
        mask2[r, c] = True
    return mask2[:, 0] if len(shape) == 1 else mask2


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def _write_sidecar(csv_path: Path, shift: GraphShift, fmt: str) -> None:
    _sidecar_path(csv_path).write_text(json.dumps({
        "n": shift.n,
        "normalized": shift.normalized,
        "spectral_radius": shift.spectral_radius,
        "format": fmt,
    }, indent=2) + "\n")


def save_graph_edges(path, shift: GraphShift) -> None:
    """Edge-list CSV plus sidecar; src,dst,weight means weights[dst, src].

    One line per stored nonzero of the CSR matrix, by destination then source.
    """
    path = Path(path)
    edges = shift.matrix.tocoo()
    lines = [
        f"{s},{d},{FLOAT_FMT % w}"
        for d, s, w in zip(edges.row, edges.col, edges.data)
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    _write_sidecar(path, shift, "edges")


def save_graph_dense(path, shift: GraphShift) -> None:
    path = Path(path)
    np.savetxt(path, shift.matrix.toarray(), fmt=FLOAT_FMT, delimiter=",")
    _write_sidecar(path, shift, "dense")


def load_graph(path) -> GraphShift:
    """Graph from CSV; the sidecar picks the format, dense assumed without one."""
    path = Path(path)
    sidecar = _sidecar_path(path)
    meta = {}
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read sidecar {sidecar}: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataError(f"{sidecar}: the sidecar must be a JSON object")
    fmt = meta.get("format", "dense")
    normalized = meta.get("normalized", False)
    if not isinstance(normalized, bool):  # bool("false") would be True
        raise DataError(f"{sidecar}: 'normalized' must be true or false")
    radius = meta.get("spectral_radius")
    if radius is not None and not (
            isinstance(radius, (int, float)) and not isinstance(radius, bool)
            and 0.0 < radius <= sys.float_info.max):
        raise DataError(f"{sidecar}: 'spectral_radius' must be null or a "
                        f"positive finite number, got {radius!r}")
    if fmt == "dense":
        weights = _parse_float_rows(_read_rows(path), path)
        if weights.shape[0] != weights.shape[1]:
            raise DataError(f"{path}: dense graph must be square, got {weights.shape}")
        if "n" in meta and meta["n"] != weights.shape[0]:
            raise DataError(
                f"{path}: sidecar says n={meta['n']} but file has {weights.shape[0]} rows"
            )
    elif fmt == "edges":
        try:
            n = int(meta["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{sidecar}: edge-list graphs need an integer 'n' "
                            f"in the sidecar: {exc!r}") from exc
        edges = {}  # (dst, src) -> weight; a repeated edge keeps its last weight
        for line, row in _read_rows(path):
            if len(row) != 3:
                raise DataError(f"{path} line {line}: expected src,dst,weight")
            try:
                s, d, w = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise DataError(f"{path} line {line}: {exc}") from exc
            if not np.isfinite(w):
                raise DataError(f"{path} line {line}: non-finite weight")
            if not (0 <= s < n and 0 <= d < n):
                raise DataError(f"{path} line {line}: node index outside [0, {n})")
            edges[d, s] = w
        ends = np.array(list(edges), dtype=int).reshape(-1, 2)
        weights = sp.csr_array((np.fromiter(edges.values(), float, len(edges)),
                                (ends[:, 0], ends[:, 1])), shape=(n, n))
    else:
        raise DataError(f"{sidecar}: unknown graph format {fmt!r}")
    try:
        return GraphShift(weights, normalized=normalized,
                          spectral_radius=None if radius is None else float(radius))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def save_solver_config(path, config: SolverConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


def load_solver_config(path) -> SolverConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return solver_config_from_dict(data)


def solver_config_from_dict(data) -> SolverConfig:
    if not isinstance(data, dict):
        raise ConfigError("solver config must be a JSON object")
    try:
        return SolverConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    # bool before int: Python bools are ints and would serialize as 0/1
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def result_to_dict(result: RecoveryResult) -> dict:
    return _jsonable({
        "x": result.x,
        "outliers": result.outliers,
        "noise": result.noise,
        "aux": result.aux,
        "objective_trace": result.objective_trace,
        "iterations": result.iterations,
        "converged": result.converged,
        "meta": result.meta,
    })


def save_result_json(path, result: RecoveryResult) -> None:
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n")


def save_bundle(directory, shift: GraphShift, instance, mask: np.ndarray) -> None:
    """Write a synthetic instance as a directory of CSVs plus spec.json.

    The graph goes out as an edge list, ``graph.csv`` plus its sidecar.
    """
    from dataclasses import asdict

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_graph_edges(directory / "graph.csv", shift)
    save_signal_csv(directory / "X0.csv", instance.x0)
    save_signal_csv(directory / "W.csv", instance.noise)
    save_signal_csv(directory / "E.csv", instance.outliers)
    save_signal_csv(directory / "T.csv", instance.observed)
    save_mask_csv(directory / "mask.csv", mask)
    (directory / "spec.json").write_text(json.dumps({
        "synthetic": asdict(instance.spec),
        "seed": instance.seed,
    }, indent=2) + "\n")


def load_bundle(directory):
    """Read back a bundle directory; returns (shift, instance, mask)."""
    from .datagen import SyntheticInstance, SyntheticSpec

    directory = Path(directory)
    shift = load_graph(directory / "graph.csv")
    x0 = load_signal_csv(directory / "X0.csv")
    noise = load_signal_csv(directory / "W.csv")
    outliers = load_signal_csv(directory / "E.csv")
    observed = load_signal_csv(directory / "T.csv")
    try:
        meta = json.loads((directory / "spec.json").read_text())
        spec = SyntheticSpec(**meta["synthetic"])
        seed = int(meta["seed"])
    except (OSError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise DataError(f"cannot read {directory / 'spec.json'}: {exc}") from exc
    if x0.shape != (spec.n, spec.l) or shift.n != spec.n:
        raise DataError(f"{directory}: X0.csv shape {x0.shape} and the {shift.n}-node "
                        f"graph must match spec ({spec.n}, {spec.l})")
    for name, part in (("W", noise), ("E", outliers), ("T", observed)):
        if part.shape != x0.shape:
            raise DataError(f"{directory}: {name}.csv shape {part.shape} != "
                            f"X0.csv shape {x0.shape}")
    mask = load_mask_csv(directory / "mask.csv", observed.shape)
    instance = SyntheticInstance(x0=x0, noise=noise, outliers=outliers,
                                 observed=observed, spec=spec, seed=seed)
    return shift, instance, mask
