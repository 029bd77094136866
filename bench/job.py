"""One benchmark process: set up a workload, then run ``gsrec run`` jobs.

Roles:

* ``setup``: import gsrec and write the workload's inputs, nothing else.
* ``timed``: set up, then run jobs with tracing off until ``--seconds`` have
  passed (at least one); reports each job's wall time, its trials.csv, and
  the process's peak RSS.
* ``checked``: install the tracing wrappers, run jobs the same way, check
  the first job's captured solver inputs and outputs, and report per-layer
  figures.

The process writes one JSON object to ``--result``. Set-up time runs from
``--spawned`` (the parent's monotonic clock just before it started this
process) to the moment the first job could start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _import_gsrec():
    import gsrec.cli

    if Path(gsrec.cli.__file__).resolve().parent != ROOT / "src" / "gsrec":
        raise ImportError(f"gsrec imported from {gsrec.cli.__file__}, "
                          f"not from {ROOT / 'src'}")
    return gsrec.cli


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                counts[Path(path).name] = getter()
                break
    return counts


def run_job(cli, description: Path, out: Path) -> dict:
    """One ``gsrec run``; returns wall time, exit code and trials.csv text."""
    trials = out / "trials.csv"
    if trials.exists():
        trials.unlink()
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(["run", "--config", str(description), "--out", str(out)])
    except Exception:  # a crashing job is a failed operation, not a crash here
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    if error:
        print(error, file=sys.stderr)
    return {"s": seconds, "code": code,
            "trials": trials.read_text() if trials.exists() else None}


def _jobs(cli, description, out, seconds, on_job=None) -> list[dict]:
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(run_job(cli, description, out))
        if on_job:
            on_job(len(jobs))
        if time.monotonic() - start >= seconds:
            return jobs


def parse_rows(text: str | None) -> list[dict]:
    if not text:
        return []
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _layer_figures(summaries: list[dict]) -> dict:
    """Median inclusive/self seconds and exact counts over the traced jobs."""
    names = sorted(set().union(*summaries))
    figures = {}
    for name in names:
        entries = [s.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                "iterations": 0}) for s in summaries]
        figures[name] = {
            "s": statistics.median(e["s"] for e in entries),
            "self_s": statistics.median(e["self_s"] for e in entries),
            "calls": entries[0]["calls"],
            "iterations": entries[0]["iterations"],
            "counts_repeat": all((e["calls"], e["iterations"])
                                 == (entries[0]["calls"], entries[0]["iterations"])
                                 for e in entries),
        }
    return figures


def checked(cli, workload, description, out, seconds, trace_file) -> dict:
    """Traced jobs for ``seconds`` (at least one); checks on the first."""
    import checks
    import gsrec.experiments
    import tracing
    import workloads

    tracer = tracing.Tracer(capture=("experiments.solve_recovery",
                                     "datagen.synth_instance"))
    tracing.install(tracer)
    summaries, svt_in_pg = [], []

    def on_job(count):
        if count == 1:
            tracer.capturing = False
            if trace_file:
                Path(trace_file).write_text(json.dumps(
                    {"workload": workload, "blas_threads": blas_threads(),
                     "spans": tracer.dump()}) + "\n")
        summaries.append(tracer.summary())
        svt_in_pg.append(tracer.count_under("prox.svt",
                                            ("solvers.gmcm", "solvers.gmcr")))
        tracer.reset()

    tracer.capturing = True
    jobs = _jobs(cli, description, out, seconds, on_job)
    first = jobs[0]
    rows = parse_rows(first["trials"])
    planted = None
    synth = [c for c in tracer.captured if c[0] == "datagen.synth_instance"]
    if synth:
        planted = synth[0][3].outliers[:, 0] != 0.0
    calls = checks.calls_from_capture(tracer.captured,
                                      gsrec.experiments.solve_recovery,
                                      [row["method"] for row in rows])
    per_row, job_checks = checks.check_job(calls, rows, workloads.KNN_K, planted)
    return {"jobs": [{k: v for k, v in j.items() if k != "trials"} for j in jobs],
            "trials": first["trials"], "row_checks": per_row,
            "job_checks": job_checks, "layers": _layer_figures(summaries),
            "svt_in_prox_gradient": svt_in_pg[0],
            "svt_counts_repeat": len(set(svt_in_pg)) == 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", choices=("setup", "timed", "checked"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    cli = _import_gsrec()
    import workloads

    workdir = Path(args.workdir)
    description = workloads.write_inputs(args.workload, args.seed,
                                         workdir / "inputs")
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "blas_threads": blas_threads()}
    out = workdir / "out"
    if args.role == "timed":
        jobs = _jobs(cli, description, out, args.seconds)
        result["jobs"] = jobs
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.role == "checked":
        result.update(checked(cli, args.workload, description, out,
                              args.seconds, args.trace_file))
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
