"""A seeded stand-in for the paper's global climate field, and a timed ``cv`` on it.

    python tools/paper_field.py FIELD.raw                       # 360 x 180 grid, 1,500 snapshots
    python tools/paper_field.py FIELD.raw --width 200 --height 100 --snapshots 1000
    python tools/paper_field.py FIELD.raw --cv OUT_DIR          # then time cv on it

The field is ``X = modes @ diag(scales) @ latent + 0.05 * noise`` at
n = width * height locations and m snapshots: rank 30 with geometric scales
``0.8**j``, and standard normal modes, latent amplitudes and noise.  A
location is valid with probability 0.68 (the ocean's share of a 1° grid is
about that); masked locations hold NaN, as land does in a sea-surface
field.  Everything is drawn from PCG64(seed), in a fixed order, so a seed
pins the file byte for byte.  The defaults give a 1° global grid, 64,800 x
1,500, a 742 MiB RAW_F64 file; the second line above gives the 20,000 x
1,000 one (153 MiB).  The file is written ``BLOCK`` snapshots at a time, so
the generator holds about 2 * BLOCK * n doubles at once.

With ``--cv`` it then runs, in a child process on one BLAS thread,

    sensorsel cv --r 20 --k 5 --p-min 1 --p-max 40 --methods dg,ag,eg,random

and prints the child's wall time and peak resident memory (``ru_maxrss``).
"""

from __future__ import annotations

import argparse
import os
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RANK, DECAY, NOISE, VALID = 30, 0.8, 0.05, 0.68
BLOCK = 64  # snapshots drawn and written at a time; part of the draw order
ROOT = Path(__file__).resolve().parent.parent


def write_field(path: Path, width: int, height: int, m: int, seed: int) -> None:
    n = width * height
    rng = np.random.Generator(np.random.PCG64(seed))
    valid = rng.random(n) < VALID
    modes = rng.standard_normal((n, RANK)) * DECAY ** np.arange(RANK)
    with open(path, "wb") as f:
        # RAW_F64 (see sensorsel.data): magic, version 1, n, m, flags (bit 0: mask present)
        f.write(struct.pack("<4sIQQI4x", b"SNAP", 1, n, m, 1))
        f.write(valid.astype(np.uint8).tobytes())
        for start in range(0, m, BLOCK):
            k = min(BLOCK, m - start)
            block = rng.standard_normal((k, RANK)) @ modes.T  # one snapshot per row
            block += NOISE * rng.standard_normal((k, n))
            block[:, ~valid] = np.nan
            f.write(block.astype("<f8", copy=False).tobytes())  # rows in turn: column-major X


def time_cv(path: Path, out: Path) -> tuple[float, float]:
    """Wall seconds and peak resident MiB of one ``cv`` run on ``path`` in a child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "sensorsel.cli", "cv", "--data", str(path), "--format", "raw",
        "--r", "20", "--k", "5", "--p-min", "1", "--p-max", "40",
        "--methods", "dg,ag,eg,random", "--out", str(out),
    ]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path, help="RAW_F64 file to write")
    parser.add_argument("--width", type=int, default=360)
    parser.add_argument("--height", type=int, default=180)
    parser.add_argument("--snapshots", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cv", type=Path, metavar="OUT_DIR", help="then time cv, writing here")
    args = parser.parse_args()
    write_field(args.path, args.width, args.height, args.snapshots, args.seed)
    print(f"wrote {args.path} ({args.path.stat().st_size / 2**20:.0f} MiB)")
    if args.cv is not None:
        wall, peak = time_cv(args.path, args.cv)
        print(f"cv: {wall:.2f} s wall, peak ru_maxrss {peak:,.0f} MiB")


if __name__ == "__main__":
    main()
