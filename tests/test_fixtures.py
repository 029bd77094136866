"""The paper's tasks, pinned by committed regression fixtures.

Each directory under ``tests/fixtures`` holds an experiment description
(``experiment.json``, n <= 100) and the ``trials.csv`` that
:func:`~gsrec.experiments.run_experiment` wrote for it. The test reruns each
description through the same call and compares the two tables cell by cell.
After a change meant to move results, ``tests/fixtures/rewrite.py`` rewrites
the tables and prints the cells that moved.

The key columns (task, method, ratio, trial, seed), ``iterations`` and
``converged`` must match exactly, so a row passes only when its solver took
the same path. Its floats (acc, mse, rmse, mae) can then move only by
rounding, as another BLAS build, thread count or CPU reorders sums. Their
tolerance is relative, one per method, and is derived as follows, with
eps = 2.2e-16 and the fixture figures measured when the tables were written:

* A metric compares the estimate x with the truth on the scored entries. A
  relative change rho in x moves it by at most 2 rho ||x|| / ||x - truth||
  relative. Over the fixtures that ratio is at most 42, so a metric moves by
  at most 84 rho.
* A closed form (``gtvm``, ``gtvr``, ``laplacian``, and the combiners
  ``avg`` and ``gtvr-denoise``) is one backward-stable sparse solve, so
  rho <= c cond eps. The fixture systems have cond <= 30; with a pessimistic
  growth c <= n = 100, rho <= 7e-13 and a metric moves by less than 6e-11.
  The tolerance is 1e-10.
* An iterative solver (``rgtvr`` and ``admm`` by relaxed ADMM; ``gmcm``,
  ``gmcr``, ``gmcr-denoise`` and ``anomaly`` by proximal gradient;
  ``anomaly-constrained`` by bisection over ``anomaly`` solves) applies a
  nonexpansive step, so a rounding error is never amplified by later steps
  and the errors add up at most linearly. One step rounds by at most about
  1e-13 relative (sparse products of degree <= 12 and a backward-stable SVD
  of <= 100 rows), and the fixtures take at most 210 steps, so
  rho <= 2.1e-11 and a metric moves by less than 1.8e-9. The tolerance is
  1e-8.
"""

import csv
import io
from pathlib import Path

import pytest

from gsrec.experiments import METHODS, ExperimentSpec, run_experiment
from gsrec.io import read_json

FIXTURES = Path(__file__).parent / "fixtures"
FLOATS = ("acc", "mse", "rmse", "mae")
RTOL = {
    **dict.fromkeys(("gtvm", "gtvr", "laplacian", "avg", "gtvr-denoise"), 1e-10),
    **dict.fromkeys(("rgtvr", "admm", "gmcm", "gmcr", "gmcr-denoise", "anomaly",
                     "anomaly-constrained"), 1e-8),
}


def descriptions() -> list[Path]:
    """Every fixture directory, by name."""
    return sorted(path.parent for path in FIXTURES.glob("*/experiment.json"))


def load_spec(directory: Path) -> ExperimentSpec:
    return ExperimentSpec.from_dict(read_json(directory / "experiment.json"))


def rerun(directory: Path, out_dir: Path) -> str:
    """The ``trials.csv`` text that the directory's description writes now."""
    run_experiment(load_spec(directory), out_dir)
    return (out_dir / "trials.csv").read_text()


def _close(was: str, now: str, rtol: float) -> bool:
    return bool(was and now) and abs(float(now) - float(was)) <= rtol * abs(float(was))


def moved_cells(directory: Path, text: str) -> list[tuple[str, str, str, str]]:
    """``(row, column, was, now)`` for each cell of the ``trials.csv`` text
    ``text`` that differs from the fixture's table beyond its tolerance."""
    methods = {entry.name: entry.method for entry in load_spec(directory).solvers}
    table = directory / "trials.csv"
    was = list(csv.DictReader(io.StringIO(table.read_text()))) if table.exists() else []
    now = list(csv.DictReader(io.StringIO(text)))
    moved = [("table", "rows", str(len(was)), str(len(now)))] if len(was) != len(now) else []
    for old, new in zip(was, now):
        row = f"{new['method']} ratio={new['ratio']} trial={new['trial']}"
        rtol = RTOL[methods[new["method"]]]
        moved += [(row, column, old[column], new[column]) for column in old
                  if old[column] != new[column]
                  and not (column in FLOATS and _close(old[column], new[column], rtol))]
    return moved


@pytest.mark.parametrize("directory", descriptions(), ids=lambda path: path.name)
def test_fixture_reruns_unmoved(directory, tmp_path):
    assert moved_cells(directory, rerun(directory, tmp_path)) == []


def test_fixtures_cover_every_method():
    used = {entry.method for directory in descriptions()
            for entry in load_spec(directory).solvers}
    assert len(descriptions()) <= 6
    assert used == set(METHODS) == set(RTOL)
