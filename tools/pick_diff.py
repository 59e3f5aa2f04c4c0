"""Compare the greedy picks of two source trees on a fixed corpus of candidate matrices.

    python tools/pick_diff.py DIR_A DIR_B [--seeds K] [--max-n N]

Each tree's ``src/`` is imported in its own child process, with
``OPENBLAS_NUM_THREADS=1``, which runs ``greedy_steps`` for ``dg``, ``ag``
and ``eg`` on every matrix of the corpus and records the picks and, for a
run that ends in an exception, its type and text.  The corpus holds, for
each of seeds 0..K-1 (16 by default), Gaussian 500 x 10 rows to p = 20 and
1000 x 15 rows to p = 30, orthonormal 4500 x 20 columns to p = 40, and, to
all n, Gaussian 60 x 4 rows, duplicated rows, integer rows, rows scaled by
1e150, 1e-150, 2^600 and 2^-600, and rows with graded columns.
``--max-n`` leaves out the matrices of more rows.

The first run whose picks or ending differ is printed as (family, seed,
method, step) with both sides; the exit status is 1 if any run differs,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: family: (rows, p, the matrix from a generator), p None for all n
FAMILIES = {
    "gauss500x10": (500, 20, lambda g: g.standard_normal((500, 10))),
    "gauss1000x15": (1000, 30, lambda g: g.standard_normal((1000, 15))),
    "orth4500x20": (4500, 40, lambda g: np.linalg.qr(g.standard_normal((4500, 20)))[0]),
    "gauss60x4": (60, None, lambda g: g.standard_normal((60, 4))),
    "duplicated": (48, None, lambda g: np.tile(g.standard_normal((24, 4)), (2, 1))),
    "integer": (40, None, lambda g: g.integers(-2, 3, size=(40, 4)).astype(float)),
    "x1e150": (40, None, lambda g: 1e150 * g.standard_normal((40, 4))),
    "x1e-150": (40, None, lambda g: 1e-150 * g.standard_normal((40, 4))),
    "x2^600": (40, None, lambda g: 2.0**600 * g.standard_normal((40, 4))),
    "x2^-600": (40, None, lambda g: 2.0**-600 * g.standard_normal((40, 4))),
    "graded": (40, None, lambda g: g.standard_normal((40, 5)) * 10.0 ** -(1.25 * g.permutation(5))),
}

METHODS = ("dg", "ag", "eg")


def _child(src: str, seeds: int, max_n: int) -> None:
    """Print one JSON record per run: the picks of the last step and how the run ended."""
    sys.path.insert(0, src)
    from sensorsel import CandidateMatrix, Method
    from sensorsel.selectors import greedy_steps

    for family, (n, p, make) in FAMILIES.items():
        if n > max_n:
            continue
        for seed in range(seeds):
            cand = CandidateMatrix(make(np.random.default_rng([seed, n])))
            for method in METHODS:
                picks, error = [], None
                try:
                    for k, res in enumerate(greedy_steps(cand, Method(method)), start=1):
                        picks = list(res.indices)
                        if k == p:
                            break
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                print(json.dumps([family, seed, method, picks, error]))


def _runs(tree: Path, seeds: int, max_n: int) -> list[list]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", str(tree / "src")]
    argv += ["--seeds", str(seeds), "--max-n", str(max_n)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def _first_difference(a: list, b: list) -> str | None:
    """``None`` if two runs pick and end alike, else where they part."""
    family, seed, method, picks_a, error_a = a
    picks_b, error_b = b[3:]
    if picks_a == picks_b and error_a == error_b:
        return None
    step = next((k for k, (i, j) in enumerate(zip(picks_a, picks_b), start=1) if i != j), None)
    step = step or min(len(picks_a), len(picks_b)) + 1

    def side(picks: list, error: str | None) -> str:
        return f"picks {picks[step - 1]}" if step <= len(picks) else f"ends ({error})"

    a_side, b_side = side(picks_a, error_a), side(picks_b, error_b)
    return f"family={family} seed={seed} method={method} step={step}: A {a_side}, B {b_side}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, nargs="?")
    parser.add_argument("dir_b", type=Path, nargs="?")
    parser.add_argument("--seeds", type=int, default=16)
    parser.add_argument("--max-n", type=int, default=sys.maxsize)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.seeds, args.max_n)
        return 0
    if args.dir_a is None or args.dir_b is None:
        parser.error("DIR_A and DIR_B are required")
    runs_a, runs_b = (_runs(d, args.seeds, args.max_n) for d in (args.dir_a, args.dir_b))
    if len(runs_a) != len(runs_b):
        print(f"run counts differ: {len(runs_a)} against {len(runs_b)}")
        return 1
    differ = [d for d in map(_first_difference, runs_a, runs_b) if d]
    picks = sum(len(run[3]) for run in runs_a)
    if differ:
        print(f"{len(differ)} of {len(runs_a)} runs differ; first: {differ[0]}")
        return 1
    print(f"{len(runs_a)} runs, {picks} picks: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
