"""Benchmark of ``gsrec run``: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload inpaint-large --seed 1 --seconds 20 --trace 0

Each run starts, one after another:

1. ``SETUP_SAMPLES`` processes that only import gsrec and write the inputs
   (set-up time is the median over these and the two below);
2. one timed process: set-up, then jobs with tracing off for ``--seconds``
   (half of them with ``--trace 1``, as the untraced reference);
3. one checked process: tracing wrappers on, one job (jobs for the other
   half of ``--seconds`` with ``--trace 1``), then every correctness check.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. One solver row of trials.csv is one operation; a
row fails when its job raised, when it reports ``converged=false``, when it
differs from the checked run's row, or when the checked run's row failed a
check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 2
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"),
              ("rmse", "1"))

SOLVERS = ("gtvm", "gtvr", "rgtvr", "gmcm", "gmcr", "gsr_admm",
           "anomaly_detect", "anomaly_detect_constrained")
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("experiments.run_experiment.s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.laplacian_baseline.s", "s"),
    ("io.load_bundle.s", "s"),
    ("datagen.build_knn_graph.self_s", "s"),
    ("datagen.synth_instance.s", "s"),
    ("datagen.synth_instance.calls", "count"),
    ("graph.spectral_radius.s", "s"),
    ("graph.spectral_radius.calls", "count"),
    ("graph.tilde_shift.s", "s"),
    ("graph.tilde_shift.calls", "count"),
    ("prox.regularized_solve.s", "s"),
    ("prox.regularized_solve.calls", "count"),
    ("prox.svt.s", "s"),
    ("prox.svt.calls", "count"),
    ("prox.shrink.s", "s"),
    ("prox.shrink.calls", "count"),
    *((f"solvers.{fn}.{field}", unit) for fn in SOLVERS
      for field, unit in (("s", "s"), ("calls", "count"),
                          ("iterations", "count"))),
    *((f"lapack.{fn}.{field}", unit)
      for fn in ("svd", "eigvals", "eigh", "cho_factor", "cho_solve")
      for field, unit in (("calls", "count"), ("s", "s"))),
    ("lapack.svd.per_iteration", "calls/iter"),
    ("prox.svt.per_iteration", "calls/iter"),
    ("trace.overhead_s", "s"),
)


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the machine so far, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


class RunError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


def _spawn(role: str, args, workdir: Path, deadline: float, seconds: float = 0.0,
           trace_file: Path | None = None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    command = [sys.executable, str(HERE / "job.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--workdir", str(workdir),
               "--result", str(result)]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command + ["--spawned", repr(spawned)], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{role} process passed the run's deadline") from exc
    if done.returncode != 0 or not result.exists():
        raise RunError(f"{role} process exited with code {done.returncode}")
    return json.loads(result.read_text())


def _count_failures(solvers, timed_jobs, checked) -> tuple[int, int]:
    reference = checked["trials"].strip().split("\n") if checked["trials"] else []
    row_ok = [all(v["ok"] for v in verdicts) for verdicts in checked["row_checks"]]
    expected = len(solvers)
    attempted = failed = 0
    for job in timed_jobs:
        lines = job["trials"].strip().split("\n") if job["trials"] else []
        for i in range(expected):
            attempted += 1
            line = lines[i + 1] if i + 1 < len(lines) else None
            ok = (line is not None and i + 1 < len(reference)
                  and line == reference[i + 1]
                  and line.endswith(",true")
                  and i < len(row_ok) and row_ok[i])
            failed += not ok
    return attempted, failed


def _rmse(trials: str) -> float:
    lines = trials.strip().split("\n")
    column = lines[0].split(",").index("rmse")
    return statistics.fmean(float(line.split(",")[column]) for line in lines[1:])


def _layer_metrics(checked: dict, job_s: float) -> dict:
    layers = checked["layers"]

    def figure(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0))

    values = {}
    for metric, _ in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        if field in ("s", "self_s", "calls", "iterations"):
            values[metric] = figure(name, field)
    completion_iterations = sum(figure(f"solvers.{fn}", "iterations")
                                for fn in ("gmcm", "gmcr", "gsr_admm"))
    pg_iterations = sum(figure(f"solvers.{fn}", "iterations")
                        for fn in ("gmcm", "gmcr"))
    values["lapack.svd.per_iteration"] = (
        figure("lapack.svd", "calls") / completion_iterations
        if completion_iterations else 0.0)
    values["prox.svt.per_iteration"] = (
        checked["svt_in_prox_gradient"] / pg_iterations if pg_iterations else 0.0)
    values["trace.overhead_s"] = figure("cli.main", "s") - job_s
    return values


def run(args) -> dict:
    solvers = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = RUNS / stamp
    trace_file = RUNS / f"trace-{stamp}.json" if args.trace else None
    try:
        setups = [_spawn("setup", args, workdir / f"setup{i}", deadline)["setup_s"]
                  for i in range(SETUP_SAMPLES)]
        before = _cpu_jiffies()
        # with --trace 1 the run's seconds are split between untraced and
        # traced jobs, so the overhead compares medians of each
        timed = _spawn("timed", args, workdir / "timed", deadline,
                       args.seconds / 2 if args.trace else args.seconds)
        steal, total = (b - a for a, b in zip(before, _cpu_jiffies()))
        checked = _spawn("checked", args, workdir / "checked", deadline,
                         args.seconds / 2 if args.trace else 0.0, trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not checked["trials"]:
        raise RunError("the checked job wrote no trials.csv")
    setups += [timed["setup_s"], checked["setup_s"]]
    job_s = statistics.median(job["s"] for job in timed["jobs"])
    attempted, failed = _count_failures(solvers, timed["jobs"], checked)
    correct = (all(v["ok"] for v in checked["job_checks"])
               and [r.split(",")[1] for r in checked["trials"].strip().split("\n")[1:]]
               == list(solvers))
    if args.trace:
        correct = correct and checked["svt_counts_repeat"] and all(
            layer["counts_repeat"] for layer in checked["layers"].values())
        values = _layer_metrics(checked, job_s)
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(setups), "job_s": job_s,
                  "peak_rss_mb": timed["peak_rss_mb"],
                  "rmse": _rmse(checked["trials"])}
        units = dict(END_TO_END)
    failures = sorted({v["check"] for verdicts in checked["row_checks"]
                       for v in verdicts + checked["job_checks"] if not v["ok"]})
    print(json.dumps({"blas_threads": timed["blas_threads"],
                      "timed_jobs": len(timed["jobs"]),
                      "job_s_each": [job["s"] for job in timed["jobs"]],
                      "setup_s_each": setups, "failed_checks": failures,
                      # CPU time the hypervisor gave to other guests while
                      # the timed jobs ran; it moves job_s from run to run
                      "steal_share_timed": steal / total if total else 0.0,
                      "trace_file": str(trace_file) if trace_file else None}))
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gsrec" / "__init__.py").is_file():
        print(f"no gsrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
