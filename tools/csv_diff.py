"""Compare the CSV and text files of two output directories, file by file and column by column.

    python tools/csv_diff.py DIR_A DIR_B

For each ``*.csv`` and ``*.txt`` in either directory it prints whether the
two files are byte-identical; text files are compared as bytes only.
Where two CSV files are not, it prints for each column whether its
cells are equal and, for float cells, the largest relative move
``|a - b| / max(|a|, |b|)`` with its row (rows count from 1 after the
header; a NaN against a number, or an infinity against anything else,
moves by ``inf``).  Wall-time cells are ignored: a column whose name starts
with ``wall_time``, and in a long-format summary (a ``metric`` column) a
row whose metric does.

A float cell is one that parses as a float but not as an integer.  The exit
status is 1 if an ``indices`` or ``locations`` cell or any other cell that
is not a float differs, if two text files differ, if a file is in one
directory only, or if two files differ in header or row count; else 0,
whatever the float moves.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _float(cell: str) -> float | None:
    """The cell's value if it is a float cell, else None."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a / scale - b / scale)  # a - b itself may overflow


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def compare_file(a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for one pair of files, and whether no cell other than a float differs."""
    if a.read_bytes() == b.read_bytes():
        return [f"{a.name}: byte-identical"], True
    rows_a, rows_b = _rows(a), _rows(b)
    header = rows_a[0] if rows_a else []
    if rows_b[:1] != [header] or len(rows_a) != len(rows_b) or any(
        len(row) != len(header) for row in rows_a + rows_b
    ):
        return [f"{a.name}: header, row count or row length differs"], False
    wall = set()
    if "metric" in header:
        m = header.index("metric")
        wall = {i for i, row in enumerate(rows_a[1:], start=1) if row[m].startswith("wall_time")}
    lines, same = [f"{a.name}: bytes differ"], True
    for j, name in enumerate(header):
        if name.startswith("wall_time"):
            continue
        worst, worst_row, differ = -1.0, 0, []  # worst >= 0 once a float cell differs
        for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            if i in wall or row_a[j] == row_b[j]:
                continue
            fa, fb = _float(row_a[j]), _float(row_b[j])
            if fa is None or fb is None:
                differ.append(i)
            elif _move(fa, fb) > worst:
                worst, worst_row = _move(fa, fb), i
        if differ:
            lines.append(f"  {name}: {len(differ)} cells differ, first at row {differ[0]}")
            same = False
        elif worst >= 0.0:
            lines.append(f"  {name}: largest relative move {worst:.3g} at row {worst_row}")
        else:
            lines.append(f"  {name}: equal")
    return lines, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    dirs, patterns = (args.dir_a, args.dir_b), ("*.csv", "*.txt")
    names = sorted({path.name for d in dirs for pattern in patterns for path in d.glob(pattern)})
    if not names:
        print("no CSV or text files to compare")
        return 1
    ok = True
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {a.parent if a.is_file() else b.parent}")
            ok = False
            continue
        if name.endswith(".txt"):
            same = a.read_bytes() == b.read_bytes()
            lines = [f"{name}: {'byte-identical' if same else 'bytes differ'}"]
        else:
            lines, same = compare_file(a, b)
        print("\n".join(lines))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
