"""Write the default-seed outputs every later run must reproduce.

    python3 perfbench/make_reference.py [workload ...]

Runs one unit of each named workload (all by default) at ``run.DEFAULT_SEED``
and writes its op outputs (selected indices, and digests of the ``submod``
files) to ``perfbench/reference/<workload>.json``.  Regenerate only for a
change that is meant to alter outputs.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before NumPy loads


def main(names: list[str]) -> int:
    for name in names or run.WORKLOADS:
        work = run.WORK / f"reference-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            units, _ = run.run_workload(name, run.DEFAULT_SEED, 0.0, False, work, None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        unit = units[0]
        if unit.failed:
            print(f"{name}: {unit.failed} of {unit.attempted} operations failed: {unit.failures}", file=sys.stderr)
            return 1
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(dict(sorted(unit.outputs.items())), indent=0) + "\n")
        print(f"wrote {path} ({len(unit.outputs)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
