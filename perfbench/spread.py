"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads sweep,cv5k,oneshot] [--seeds 1-10] [--trace 0] [--out DIR]

Runs are made one after another, each in a fresh process, with BENCHMARK.json's
command and run length.  Each run prints its metrics by name with their units.
For every workload with more than one run, it prints each metric's median,
quartiles (``statistics.quantiles(n=4)``) and spread ``(q3 - q1) / median``
next to the metric's bound.  With ``--out`` the runs are written to
``DIR/<workload>.json`` (``DIR/<workload>_traced.json`` with ``--trace 1``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(spec: dict, workload: str, seeds: list[int], trace: int) -> list[dict] | None:
    runs = []
    for seed in seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "detail": json.loads(lines[-2]), "result": result})
        shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    return runs


def print_spreads(runs: list[dict], bounds: dict) -> None:
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound else '':>6}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,cv5k,oneshot")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = run_seeds(spec, workload, seeds_of(args.seeds), args.trace)
        if runs is None:
            return 1
        if len(runs) > 1:
            print_spreads(runs, bounds)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{workload}{'_traced' if args.trace else ''}.json"
            path.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
