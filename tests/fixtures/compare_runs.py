"""Check that a change leaves the benchmark workloads' results byte for byte.

Run from the repository root with two source trees, each a directory that
holds the ``gsrec`` package (a checkout's ``src``):

    python tests/fixtures/compare_runs.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]

For each workload of ``bench/workloads.py`` and each seed, the inputs are
written once by ``bench/workloads.write_inputs`` under the parent tree, then
``gsrec run`` reads them under each tree in its own process, and the two
``trials.csv`` files are compared byte for byte. Prints one line per
workload and seed, ``identical`` or ``moved``, and exits 1 if any moved or
a run failed.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def gsrec_run(source: Path, description: Path, out: Path) -> bytes | None:
    """``trials.csv`` of ``gsrec run`` under ``source``, or None if the run failed."""
    env = dict(os.environ, PYTHONPATH=str(source))
    code = subprocess.run([sys.executable, "-m", "gsrec.cli", "run", "--config",
                           str(description), "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL).returncode
    trials = out / "trials.csv"
    return trials.read_bytes() if code in (0, 4) and trials.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent source tree")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    sys.path[:0] = [str(ROOT / "bench"), str(parent)]
    import workloads

    same = True
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                directory = Path(scratch) / f"{name}-{seed}"
                description = workloads.write_inputs(name, seed, directory)
                before = gsrec_run(parent, description, directory / "parent")
                after = gsrec_run(change, description, directory / "change")
                verdict = ("failed" if before is None or after is None
                           else "identical" if before == after else "moved")
                same = same and verdict == "identical"
                print(f"{name} seed {seed}: {verdict}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
