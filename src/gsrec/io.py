"""CSV and JSON formats for graphs, signals, masks, configs, and results.

Graphs travel as an edge-list CSV (``src,dst,weight`` per line, meaning an
edge from src into dst, stored at ``weights[dst, src]``) or as a dense N x N
CSV, with a JSON sidecar ``{"n": ..., "normalized": ..., "spectral_radius":
..., "format": ...}``; bundles use the edge list. Weights a sidecar marks
``normalized`` are taken as already of unit radius, checked where that is
cheap (:class:`~gsrec.graph.GraphShift`); any others are scaled on load.
Signals are plain numeric CSVs with one row per node; masks list accessible
entries as ``row,col`` pairs. One reader parses every CSV with a single
``np.loadtxt`` and the writers use ``np.savetxt``, so cells follow numpy's
number syntax: no ``1_0`` digit separators, and indices must be integers.
The readers reject NaN and infinity, and name a bad row by its line number.

:func:`read_json` opens and decodes every JSON file. :func:`spec_from_dict`
builds a dataclass from a JSON object as its field annotations say, nested
blocks, lists and nulls included; :func:`json_value` takes a value only if
JSON holds it with the setting's type. Any error there, a range check
included, names its key: a ConfigError for configs and experiment
descriptions, a DataError for graph sidecars and a bundle's ``spec.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import typing
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, GsrecError
from .graph import GraphShift
from .solvers import RecoveryResult, SolverConfig

FLOAT_FMT = "%.17g"

# Rows of the integer-indexed CSVs; error messages name the fields
_MASK_ROW = np.dtype([("row", np.int64), ("col", np.int64)])
_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", float)])


def _read_table(path, dtype: np.dtype) -> tuple[np.ndarray, list[int]]:
    """One ``np.loadtxt`` of the lines of a CSV that are not blank or ``#``.

    Returns the table (2-D for a plain dtype, one record per row for a record
    dtype; empty for a file with no such line) and each row's line number.
    """
    try:
        text = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    numbers = [i for i, line in enumerate(text, 1)
               if (s := line.lstrip()) and s[0] != "#"]
    kept = [text[i - 1] for i in numbers]
    ndmin = 1 if dtype.names else 2

    def parse(rows):
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)

    if not kept:  # loadtxt warns on empty input
        return np.empty((0,) * ndmin, dtype), numbers
    try:
        return parse(kept), numbers
    except ValueError:
        # numpy's message names no line in a stable form: bisect for the first
        # line that fails alongside the first one (a ragged row parses alone)
        lo, hi = 0, len(kept)  # kept[:lo] parse, kept[lo:hi] holds a bad line
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(kept[:1] + kept[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
    want = ",".join(dtype.names) if dtype.names else f"{kept[0].count(',') + 1} numbers"
    raise DataError(f"{path} line {numbers[lo]}: expected {want}, got {kept[lo].strip()!r}")


def _check_rows(path, lines: list[int], bad: np.ndarray, describe) -> None:
    """Raise a DataError naming the file line of the first row flagged in bad."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"{path} line {lines[i]}: {describe(i)}")


def save_signal_csv(path, signal: np.ndarray) -> None:
    arr = np.asarray(signal, dtype=float)
    np.savetxt(path, arr[:, None] if arr.ndim == 1 else arr, fmt=FLOAT_FMT,
               delimiter=",")


def load_signal_csv(path, allow_nan: bool = False) -> np.ndarray:
    """Signal matrix with one row per node; always returns shape (N, L).

    allow_nan admits NaN cells for feature tables with missing
    coordinates; infinities are always rejected.
    """
    data, lines = _read_table(path, np.dtype(float))
    if not data.size:
        raise DataError(f"{path} is empty")
    bad = np.isinf(data) if allow_nan else ~np.isfinite(data)
    _check_rows(path, lines, bad.any(axis=1),
                lambda i: "infinite value" if allow_nan else "NaN or infinite value")
    return data


def save_mask_csv(path, mask: np.ndarray) -> None:
    m = np.asarray(mask)
    np.savetxt(path, np.argwhere(m[:, None] if m.ndim == 1 else m),
               fmt="%d", delimiter=",")


def load_mask_csv(path, shape: tuple[int, ...]) -> np.ndarray:
    """Boolean accessible-entry mask from row,col pairs."""
    mask2 = np.zeros(shape if len(shape) == 2 else (shape[0], 1), dtype=bool)
    pairs, lines = _read_table(path, _MASK_ROW)
    rows, cols = pairs["row"], pairs["col"]
    _check_rows(path, lines, (rows < 0) | (rows >= mask2.shape[0])
                | (cols < 0) | (cols >= mask2.shape[1]),
                lambda i: f"index ({rows[i]}, {cols[i]}) outside shape {mask2.shape}")
    mask2[rows, cols] = True
    return mask2[:, 0] if len(shape) == 1 else mask2


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def _write_sidecar(csv_path: Path, shift: GraphShift, fmt: str) -> None:
    _sidecar_path(csv_path).write_text(json.dumps({
        "n": shift.n, "normalized": shift.normalized,
        "spectral_radius": shift.spectral_radius, "format": fmt,
    }, indent=2) + "\n")


def save_graph_edges(path, shift: GraphShift) -> None:
    """Edge-list CSV plus sidecar; src,dst,weight means weights[dst, src].

    One line per stored nonzero of the CSR matrix, by destination then source.
    """
    path = Path(path)
    edges = shift.matrix.tocoo()
    np.savetxt(path, np.column_stack((edges.col, edges.row, edges.data)),
               fmt="%d,%d," + FLOAT_FMT)
    _write_sidecar(path, shift, "edges")


def save_graph_dense(path, shift: GraphShift) -> None:
    path = Path(path)
    np.savetxt(path, shift.matrix.toarray(), fmt=FLOAT_FMT, delimiter=",")
    _write_sidecar(path, shift, "dense")


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types


def json_value(value, kind: type, where: str, error: type = ConfigError):
    """``value`` if JSON holds it as ``kind`` (bool, int, float or str), else
    ``error``. Nothing is converted: a JSON boolean is no integer, though a
    float setting also takes a JSON integer."""
    if isinstance(value, (int, float) if kind is float else kind) and (
            kind is bool or not isinstance(value, bool)):
        return value
    raise error(f"{where} must be {_JSON_KINDS[kind]}, got {value!r}")


@contextlib.contextmanager
def config_values(where: str, error: type = ConfigError):
    """Report a GsrecError, TypeError or ValueError raised inside as ``error``."""
    try:
        yield
    except error:
        raise
    except (GsrecError, TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from exc


def spec_from_dict(cls, data, where: str, error: type = ConfigError, **fixed):
    """``cls(**data, **fixed)``, each key of the JSON object ``data`` (null for
    {}) a field of the dataclass ``cls`` not in ``fixed``, read as annotated:
    a dataclass from an object, ``tuple[X, ...]`` from a list, ``X | None``
    also from null, bool, int, float and str by :func:`json_value`, and any
    other type as it is. ``where`` names ``data``; "" is the description. An
    instance of ``cls``, which no JSON value is, is returned as it is."""
    if isinstance(data, cls):
        return data
    data = {} if data is None else data
    block = where or "the description"
    if not isinstance(data, dict):
        raise error(f"{block} must be an object, got {data!r}")
    hints = _type_hints(cls)
    unknown = set(data) - (set(hints) - set(fixed))
    if unknown:
        raise error(f"{block}: unknown keys {sorted(unknown)}")
    values = {key: _typed(value, hints[key], f"{where}.{key}" if where else key, error)
              for key, value in data.items()}
    with config_values(block, error):
        return cls(**values, **fixed)


def _typed(value, hint, where: str, error: type):
    """``value`` read as the annotation ``hint`` (see :func:`spec_from_dict`)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise error(f"{where} must be a list, got {value!r}")
        return tuple(_typed(v, args[0], f"{where}[{i}]", error)
                     for i, v in enumerate(value))
    if args:  # X | None
        return None if value is None else _typed(value, args[0], where, error)
    if is_dataclass(hint):
        return spec_from_dict(hint, value, where, error)
    return json_value(value, hint, where, error) if hint in _JSON_KINDS else value


def read_json(path, error: type = ConfigError):
    """The JSON value a file holds; an unreadable or malformed file is ``error``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError too
        raise error(f"cannot read {path}: {exc}") from exc


def load_graph(path) -> GraphShift:
    """Graph from CSV; the sidecar picks the format, dense assumed without one."""
    path = Path(path)
    sidecar = _sidecar_path(path)
    meta = read_json(sidecar, DataError) if sidecar.exists() else {}
    if not isinstance(meta, dict):
        raise DataError(f"{sidecar}: the sidecar must be a JSON object")
    fmt = meta.get("format", "dense")
    normalized = json_value(meta.get("normalized", False), bool,
                            f"{sidecar}: 'normalized'", DataError)
    radius = meta.get("spectral_radius")
    if radius is not None and not 0.0 < json_value(
            radius, float, f"{sidecar}: 'spectral_radius'", DataError) <= sys.float_info.max:
        raise DataError(f"{sidecar}: 'spectral_radius' must be null or a "
                        f"positive finite number, got {radius!r}")
    n = meta.get("n")
    if "n" in meta and json_value(n, int, f"{sidecar}: 'n'", DataError) < 1:
        raise DataError(f"{sidecar}: 'n' must be an integer >= 1, got {n!r}")
    if fmt == "dense":
        weights = load_signal_csv(path)
        if weights.shape[0] != weights.shape[1]:
            raise DataError(f"{path}: dense graph must be square, got {weights.shape}")
        if n is not None and n != weights.shape[0]:
            raise DataError(f"{path}: sidecar says n={n} but file has "
                            f"{weights.shape[0]} rows")
    elif fmt == "edges":
        if n is None:
            raise DataError(f"{sidecar}: edge-list graphs need an integer 'n' "
                            "in the sidecar")
        edges, lines = _read_table(path, _EDGE_ROW)
        src, dst, w = edges["src"], edges["dst"], edges["weight"]
        infinite = ~np.isfinite(w)
        _check_rows(path, lines, infinite | (np.minimum(src, dst) < 0)
                    | (np.maximum(src, dst) >= n),
                    lambda i: "non-finite weight" if infinite[i]
                    else f"node index outside [0, {n})")
        # a repeated edge keeps its last weight, the first of the reversed keys
        _, last = np.unique((dst * n + src)[::-1], return_index=True)
        keep = len(w) - 1 - last
        weights = sp.csr_array((w[keep], (dst[keep], src[keep])), shape=(n, n))
    else:
        raise DataError(f"{sidecar}: unknown graph format {fmt!r}")
    try:
        return GraphShift(weights, normalized=normalized,
                          spectral_radius=None if radius is None else float(radius))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def load_solver_config(path) -> SolverConfig:
    """The solver config a JSON file holds; the defaults when path is None."""
    if path is None:
        return SolverConfig()
    return spec_from_dict(SolverConfig, read_json(path), str(path))


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
    return _jsonable({f.name: getattr(result, f.name) for f in fields(result)})


def save_result_json(path, result: RecoveryResult) -> None:
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n")


def save_bundle(directory, shift: GraphShift, instance, mask: np.ndarray) -> None:
    """Write a synthetic instance as a directory of CSVs plus spec.json.

    The graph goes out as an edge list, ``graph.csv`` plus its sidecar.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_graph_edges(directory / "graph.csv", shift)
    for name, part in (("X0", instance.x0), ("W", instance.noise),
                       ("E", instance.outliers), ("T", instance.observed)):
        save_signal_csv(directory / f"{name}.csv", part)
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
    x0, noise, outliers, observed = (load_signal_csv(directory / f"{name}.csv")
                                     for name in ("X0", "W", "E", "T"))
    path = directory / "spec.json"
    meta = read_json(path, DataError)
    if not isinstance(meta, dict) or not {"synthetic", "seed"} <= meta.keys():
        raise DataError(f"{path} must be an object with keys 'synthetic' and 'seed'")
    spec = spec_from_dict(SyntheticSpec, meta["synthetic"], f"{path}: synthetic", DataError)
    seed = meta["seed"]
    if json_value(seed, int, f"{path}: seed", DataError) < 0:
        raise DataError(f"{path}: seed must be an integer >= 0, got {seed!r}")
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
