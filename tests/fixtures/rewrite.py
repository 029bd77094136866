"""Rewrite the regression fixtures' tables and print the cells that moved.

Run from the repository root after a change that is meant to move results:

    PYTHONPATH=src python tests/fixtures/rewrite.py [fixture ...]

Each named fixture directory (all of them by default) is rerun through
``run_experiment``, and its ``trials.csv`` is replaced by the new table. Each
cell beyond its tolerance in ``tests/test_fixtures.py`` is printed as a row
of a Markdown table, ready for CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_fixtures import FIXTURES, descriptions, moved_cells, rerun  # noqa: E402


def main(names: list[str]) -> None:
    print("| fixture | row | column | was | now |")
    print("| --- | --- | --- | --- | --- |")
    for directory in [FIXTURES / name for name in names] or descriptions():
        with tempfile.TemporaryDirectory() as out:
            text = rerun(directory, Path(out))
        for row, column, was, now in moved_cells(directory, text):
            print(f"| {directory.name} | {row} | {column} | {was} | {now} |")
        (directory / "trials.csv").write_text(text, newline="\n")


if __name__ == "__main__":
    main(sys.argv[1:])
