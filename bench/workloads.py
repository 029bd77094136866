"""The benchmark's workloads: one ``gsrec run`` experiment description each.

``write_inputs`` turns a workload name and a seed into the files the job
reads (the description and, for ``complete-bundle``, a bundle directory).
The seed reaches the program only inside those files. Sizes are keyword
arguments so the benchmark's tests can run the same make-up small.
"""

from __future__ import annotations

import json
from pathlib import Path


# kNN degree of every graph the solvers receive
KNN_K = 8

# Solver entry names of each workload, in trials.csv row order. Why each
# workload is in the benchmark is stated in BENCHMARK.json and the README.
WORKLOADS = {
    "inpaint-large": ("gtvm", "gtvr", "rgtvr", "laplacian"),
    "complete-bundle": ("gmcm", "gmcr", "admm", "admm-robust"),
    "detect-bisect": ("anomaly", "anomaly-constrained"),
}


def _inpaint_large(seed: int, directory: Path, n: int = 2000) -> dict:
    return {
        "task": "robust-inpaint", "seed": seed, "trials": 1, "ratios": [0.6],
        "graph": {"kind": "knn", "n": n, "k": KNN_K},
        "signal": {"synthetic": {"rank": 10, "noise_sigma": 0.05}},
        "corrupt": {"fraction": 0.1, "mode": "regression"},
        # rmse over every node, the corrupted measured ones too: over hidden
        # nodes only it rests on where ~120 corruptions fall and spread 12 %
        # across seeds, against 3.5 % here
        "eval_on": "all",
        "solvers": [
            {"name": "gtvm", "method": "gtvm"},
            {"name": "gtvr", "method": "gtvr", "config": {"alpha": 1.0}},
            {"name": "rgtvr", "method": "rgtvr",
             "config": {"alpha": 1.0, "gamma": 0.5}},
            {"name": "laplacian", "method": "laplacian",
             "config": {"alpha": 1.0}},
        ],
    }


def _complete_bundle(seed: int, directory: Path, n: int = 300,
                     columns: int = 40) -> dict:
    from gsrec.datagen import (GraphBuildSpec, SyntheticSpec, build_knn_graph,
                               random_features, sample_mask, synth_instance)
    from gsrec.io import save_bundle

    shift = build_knn_graph(random_features(n, 2, seed), GraphBuildSpec(k=KNN_K))
    instance = synth_instance(
        shift, SyntheticSpec(n=n, l=columns, rank=4, noise_sigma=0.05), seed)
    bundle = directory / "bundle"
    save_bundle(bundle, shift, instance,
                sample_mask(instance.observed.shape, 0.5, seed))
    nuclear = {"alpha": 1.0, "beta": 2.0}
    return {
        "task": "complete", "seed": seed, "trials": 1, "ratios": [0.5],
        "signal": {"bundle": str(bundle.resolve())},
        "solvers": [
            {"name": "gmcm", "method": "gmcm", "config": {"beta": 2.0}},
            {"name": "gmcr", "method": "gmcr", "config": nuclear},
            {"name": "admm", "method": "admm", "config": nuclear},
            {"name": "admm-robust", "method": "admm",
             "config": dict(nuclear, gamma=0.5)},
        ],
    }


def _detect_bisect(seed: int, directory: Path, n: int = 1000) -> dict:
    return {
        "task": "detect", "seed": seed, "trials": 1,
        "graph": {"kind": "knn", "n": n, "k": KNN_K},
        "signal": {"synthetic": {"rank": 5, "outliers_per_column": 10,
                                 "outlier_lo": 3.0, "outlier_hi": 5.0}},
        "solvers": [
            {"name": "anomaly", "method": "anomaly", "config": {"gamma": 1.0}},
            {"name": "anomaly-constrained", "method": "anomaly-constrained",
             "eta_smooth": 2.0 ** 0.5},
        ],
    }


_MAKERS = {"inpaint-large": _inpaint_large, "complete-bundle": _complete_bundle,
           "detect-bisect": _detect_bisect}


def write_inputs(name: str, seed: int, directory: Path, **sizes) -> Path:
    """Write the workload's inputs under ``directory``; returns the description."""
    directory.mkdir(parents=True, exist_ok=True)
    description = _MAKERS[name](seed, directory, **sizes)
    path = directory / "experiment.json"
    path.write_text(json.dumps(description, indent=2) + "\n")
    return path
