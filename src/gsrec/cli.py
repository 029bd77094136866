"""Command-line front end.

Every subcommand exits 0 on success, 2 on a configuration problem (bad flags
or config files), 3 on a data problem (unreadable or malformed inputs), and 4
when a solver finishes without meeting its convergence test; in the last case
the outputs are still written so the run can be inspected.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .datagen import (
    GraphBuildSpec,
    SyntheticSpec,
    build_knn_graph,
    sample_mask,
    synth_instance,
)
from .errors import ConfigError, DataError, GsrecError
from .experiments import (
    METHODS,
    ExperimentSpec,
    check_reads,
    evaluate,
    run_experiment,
    solve_recovery,
)
from .io import (
    config_values,
    load_graph,
    load_mask_csv,
    load_signal_csv,
    load_solver_config,
    read_json,
    save_bundle,
    save_graph_dense,
    save_graph_edges,
    save_result_json,
    save_signal_csv,
)


# BLAS threads of every command unless --threads says otherwise. The solvers
# work on small dense blocks and sparse products, where a second thread costs
# more than it gains: on a 2-vCPU machine the completion solvers ran about
# 3x slower with two threads (BENCH_7.json).
DEFAULT_THREADS = 1


def _add_common(parser: argparse.ArgumentParser, seed: bool = False,
                config: bool = False) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="base seed for every random draw (default 0; "
                                 "for run, the description's seed)")
    if config:
        parser.add_argument("--config", type=str, default=None,
                            help="JSON file with solver parameters")
    parser.add_argument("--out", type=str, default=None,
                        help="output file or directory")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"BLAS thread count while the command runs "
                             f"(default {DEFAULT_THREADS})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsrec",
        description="Graph signal recovery: inpainting, matrix completion, "
                    "anomaly detection, and opinion combination.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a kNN graph from features")
    _add_common(p)
    p.add_argument("--features", required=True, help="CSV of node features")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--metric", choices=("euclidean", "manhattan", "precomputed"),
                   default="euclidean")
    p.add_argument("--normalization", choices=("row", "column"), default="row")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--missing", choices=("mean", "exclude"), default="mean")
    p.add_argument("--format", choices=("dense", "edges"), default="dense")

    p = sub.add_parser("synth", help="generate a synthetic problem bundle")
    _add_common(p, seed=True)
    p.add_argument("--graph", required=True, help="graph CSV (with sidecar)")
    p.add_argument("--l", type=int, default=1, help="number of signal columns")
    p.add_argument("--recipe", choices=("eigen", "diffusion"), default="eigen")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--outliers-per-column", type=int, default=0)
    p.add_argument("--outlier-lo", type=float, default=5.0)
    p.add_argument("--outlier-hi", type=float, default=10.0)
    p.add_argument("--ratio", type=float, default=0.5,
                   help="accessible-entry fraction for the bundled mask")

    # the commands that solve with one --method
    for name, text in (
            ("inpaint", "recover a single signal from a subset of nodes"),
            ("complete", "recover a signal matrix from observed entries"),
            ("detect", "split a signal into smooth part and outliers"),
            ("robust", "inpaint while rejecting outliers"),
            ("combine", "fuse per-expert opinion columns into labels")):
        p = sub.add_parser(name, help=text)
        _add_common(p, config=True)
        if name == "combine":
            p.add_argument("--opinions", required=True, help="CSV of +/-1 opinions")
            p.add_argument("--graph", default=None,
                           help="graph CSV; required for the denoise methods")
        else:
            p.add_argument("--graph", required=True)
            p.add_argument("--signal", required=True)
        if name not in ("detect", "combine"):
            p.add_argument("--mask", required=True)
        methods = [method for method, row in METHODS.items() if name in row.commands]
        p.add_argument("--method", choices=methods, default=methods[0])
        if name == "detect":
            p.add_argument("--beta", type=float, default=None,
                           help="sparsity weight for method 'anomaly'")
            p.add_argument("--eta-smooth", type=float, default=None,
                           help="variation budget for method 'anomaly-constrained'")

    p = sub.add_parser("eval", help="score an estimate against ground truth")
    _add_common(p)
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--score", choices=("regression", "classification"),
                   default="regression")
    p.add_argument("--mask", default=None,
                   help="accessibility mask whose hidden entries --on hidden scores")
    p.add_argument("--on", choices=("hidden", "all"), default="all")

    p = sub.add_parser("run", help="run a full experiment description")
    _add_common(p, seed=True, config=True)
    # without --seed the description's own seed stays
    p.set_defaults(seed=None)

    return parser


# The OpenBLAS builds numpy and scipy wheels vendor, one per package, and the
# symbol suffixes of their (getter, setter) pair: 64-bit-integer or plain.
_OPENBLAS_GLOB = "libscipy_openblas*"
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of numpy's and scipy's OpenBLAS.

    Each library is opened from its package's own ``<package>.libs``
    folder, the copy that package's extension modules link to, whether or
    not it is loaded yet. scipy's is loaded only by the first
    ``scipy.linalg`` or ``scipy.sparse.linalg`` import, inside the command,
    and kept its own default thread count from then on: a fresh
    ``gsrec run`` of the ``inpaint-large`` benchmark description took
    0.42 s with it at two threads and 0.27 s capped from the start (median
    of 5, 2-vCPU Xeon guest). Opening it at start takes about 2 ms.
    """
    import ctypes
    import os

    import scipy

    controls = []
    if os.name != "posix":  # the .libs folders are the manylinux wheels' layout
        return controls
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob(_OPENBLAS_GLOB)):
            try:
                library = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in _OPENBLAS_SUFFIXES:
                get = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    controls.append((get, put))
                    break
    return controls


@contextlib.contextmanager
def _limit_threads(threads: int | None):
    """Cap the BLAS thread count of numpy's and scipy's OpenBLAS.

    Sets the count through each library's
    ``scipy_openblas_set_num_threads[64_]`` for the whole command, scipy's
    too before anything loads it, and restores the previous counts on exit.
    ``None`` means :data:`DEFAULT_THREADS`. With no known library found the
    cap is ignored, with a warning when it was asked for.
    """
    asked = threads is not None
    threads = threads if asked else DEFAULT_THREADS
    if threads < 1:
        raise ConfigError(f"--threads must be positive, got {threads}")
    controls = _openblas_thread_controls()
    if not controls and asked:
        warnings.warn("no scipy-openblas library found; --threads ignored",
                      stacklevel=3)
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(threads)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_result(out: Path, result) -> None:
    save_signal_csv(out / "estimate.csv", result.x)
    if result.outliers is not None:
        save_signal_csv(out / "outliers.csv", result.outliers)
    save_result_json(out / "result.json", result)


def _finish(result) -> int:
    if not result.converged:
        print("warning: solver stopped before meeting its convergence test",
              file=sys.stderr)
        return 4
    return 0


def _cmd_build_graph(args) -> int:
    features = load_signal_csv(args.features, allow_nan=True)
    with config_values("build-graph"):
        spec = GraphBuildSpec(k=args.k, metric=args.metric,
                              normalization=args.normalization,
                              symmetrize=args.symmetrize, missing=args.missing)
    shift = build_knn_graph(features, spec)
    if args.format == "edges":
        save_graph_edges(args.out, shift)
    else:
        save_graph_dense(args.out, shift)
    print(f"wrote graph with {shift.n} nodes to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    shift = load_graph(args.graph)
    with config_values("synth"):
        spec = SyntheticSpec(
            n=shift.n, l=args.l, recipe=args.recipe, rank=args.rank,
            noise_sigma=args.noise_sigma,
            outliers_per_column=args.outliers_per_column,
            outlier_lo=args.outlier_lo, outlier_hi=args.outlier_hi)
        mask = sample_mask((spec.n, spec.l), args.ratio, args.seed)
    instance = synth_instance(shift, spec, args.seed)
    out = _out_dir(args)
    save_bundle(out, shift, instance, mask)
    print(f"wrote bundle to {out}")
    return 0


def _cmd_solve(args) -> int:
    config = load_solver_config(args.config)
    check_reads(str(args.config), args.method, config)
    beta, eta_smooth = getattr(args, "beta", None), getattr(args, "eta_smooth", None)
    if eta_smooth is not None and not eta_smooth >= 0:
        raise ConfigError(f"--eta-smooth must be nonnegative, got {eta_smooth}")
    check_reads("--eta-smooth", args.method, config, eta_smooth)
    if beta is not None:
        with config_values(f"--beta {beta}"):
            config = config.replace(gamma=beta)
        check_reads("--beta", args.method, config)
    if args.method == "anomaly" and config.gamma <= 0:
        raise ConfigError("method 'anomaly' needs --beta > 0")
    if bool(args.graph) != METHODS[args.method].shift:
        raise ConfigError(f"method {args.method!r} "
                          + ("does not read --graph" if args.graph else "needs --graph"))
    shift = load_graph(args.graph) if args.graph else None
    if args.command == "combine":
        observed, mask = load_signal_csv(args.opinions), None
    else:
        observed = load_signal_csv(args.signal)
        mask = None if args.command == "detect" else load_mask_csv(args.mask, observed.shape)
    result = solve_recovery(args.method, observed, mask, shift, config, eta_smooth)
    out = _out_dir(args)
    if args.command == "combine":
        save_signal_csv(out / "labels.csv", result.x)
        print(f"wrote labels for {result.x.shape[0]} nodes to {out / 'labels.csv'}")
    else:
        _write_result(out, result)
        print(f"{args.method}: {result.iterations} iterations, converged={result.converged}")
    return _finish(result)


def _cmd_eval(args) -> int:
    if (args.on == "hidden") != (args.mask is not None):
        raise ConfigError("eval takes --mask exactly with --on hidden: the mask "
                          "names the hidden entries, which only --on hidden scores")
    truth = load_signal_csv(args.truth)
    estimate = load_signal_csv(args.estimate)
    if truth.shape != estimate.shape:
        raise DataError(
            f"truth shape {truth.shape} vs estimate shape {estimate.shape}")
    if args.mask is not None:
        hidden = ~load_mask_csv(args.mask, truth.shape)
        truth, estimate = truth[hidden], estimate[hidden]
    report = evaluate(truth, estimate, args.score)
    payload = {"mse": report.mse, "rmse": report.rmse, "mae": report.mae,
               "count": report.count}
    if report.acc is not None:
        payload["acc"] = report.acc
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_run(args) -> int:
    if not args.config:
        raise ConfigError("run needs --config with an experiment description")
    data = read_json(args.config)
    if args.seed is not None and isinstance(data, dict):
        data["seed"] = args.seed
    spec = ExperimentSpec.from_dict(data)
    report = run_experiment(spec, _out_dir(args))
    print(f"wrote {report['rows']} trial rows to {args.out}")
    if not report["all_converged"]:
        print("warning: some trials stopped before convergence", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build-graph": _cmd_build_graph,
        "synth": _cmd_synth,
        **dict.fromkeys(("inpaint", "complete", "detect", "robust", "combine"), _cmd_solve),
        "eval": _cmd_eval,
        "run": _cmd_run,
    }
    try:
        # every command but eval writes its output there: say so before any work
        if not args.out and args.command != "eval":
            raise ConfigError(f"{args.command} needs --out")
        with _limit_threads(args.threads):
            return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GsrecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
