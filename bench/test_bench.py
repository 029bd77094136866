"""Tests of the benchmark itself: its checks catch wrong outputs.

Run from the repository root with ``python3 -m pytest bench``. Each case
runs the checked job on a small copy of a workload in a fresh interpreter,
because the tracing wrappers replace module attributes for the rest of the
process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = {"inpaint-large": {"n": 200}, "complete-bundle": {"n": 60, "columns": 10},
         "detect-bisect": {"n": 150}}

_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
import job, run, workloads
cli = job._import_gsrec()
import gsrec.experiments as experiments
target, field, delta = {perturb!r}
if target:
    original = getattr(experiments, target)
    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        setattr(result, field, getattr(result, field) + delta)
        return result
    setattr(experiments, target, perturbed)
description = workloads.write_inputs({name!r}, 3, Path({tmp!r}), **{sizes!r})
checked = job.checked(cli, {name!r}, description, Path({out!r}), {seconds!r}, None)
attempted, failed = run._count_failures(workloads.WORKLOADS[{name!r}],
                                        [{{"trials": checked["trials"]}}], checked)
print(json.dumps(dict(checked, attempted=attempted, failed=failed)))
"""


def _checked(tmp_path, name, perturb=(None, None, 0.0), seconds=0.0) -> dict:
    script = _SCRIPT.format(here=str(HERE), perturb=perturb, name=name,
                            tmp=str(tmp_path / "inputs"), sizes=SMALL[name],
                            out=str(tmp_path / "out"), seconds=seconds)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().split("\n")[-1])


def _failed_checks(checked) -> list[list[str]]:
    return [[v["check"] for v in verdicts if not v["ok"]]
            for verdicts in checked["row_checks"]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_unperturbed_outputs(tmp_path, name):
    checked = _checked(tmp_path, name)
    assert _failed_checks(checked) == [[] for _ in checked["row_checks"]]
    assert all(v["ok"] for v in checked["job_checks"])
    assert checked["failed"] == 0
    assert checked["attempted"] == len(checked["row_checks"])


@pytest.mark.parametrize("name, perturb, row", [
    ("inpaint-large", ("gtvm", "x", 1e-3), 0),
    ("inpaint-large", ("gtvr", "x", 1e-3), 1),
    ("inpaint-large", ("rgtvr", "outliers", 1e-3), 2),
    ("inpaint-large", ("laplacian_baseline", "x", 1e-3), 3),
    ("complete-bundle", ("gmcm", "x", 1e-3), 0),
    ("complete-bundle", ("gsr_admm", "noise", 1e-3), 3),
    ("detect-bisect", ("anomaly_detect", "outliers", 1e-3), 0),
    ("detect-bisect", ("anomaly_detect_constrained", "x", 1e-3), 1),
])
def test_perturbed_output_is_a_failed_operation(tmp_path, name, perturb, row):
    checked = _checked(tmp_path, name, perturb)
    failing = [i for i, checks in enumerate(_failed_checks(checked)) if checks]
    assert row in failing
    assert checked["failed"] == len(failing) >= 1


def test_gmcr_and_admm_objectives_must_agree(tmp_path):
    # a worse gmcr solution breaks the agreement with admm on both rows
    checked = _checked(tmp_path, "complete-bundle", ("gmcr", "x", 1e-2))
    failing = [i for i, checks in enumerate(_failed_checks(checked)) if checks]
    assert failing == [1, 2]


def test_counts_repeat_between_traced_jobs(tmp_path):
    checked = _checked(tmp_path, "complete-bundle", seconds=2.0)
    assert len(checked["jobs"]) >= 2
    assert all(layer["counts_repeat"] for layer in checked["layers"].values())
    assert checked["svt_counts_repeat"]
    assert checked["layers"]["prox.svt"]["calls"] > 0
    assert "graph.spectral_radius" not in checked["layers"]


def test_benchmark_json_names_every_reported_metric():
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "detect-bisect", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
