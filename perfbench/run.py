"""Benchmark of sensorsel: one workload, one seed, one run in a fresh process.

    python3 perfbench/run.py --workload sweep|cv5k|oneshot --seed N --seconds S --trace 0|1

Sets up the workload's inputs from the seed, then repeats its unit of work
(a fixed list of ``sensorsel.cli.main`` requests) until ``--seconds`` of
measured time have passed, and checks every output.  Between pieces of
measured work it times a fixed NumPy probe kernel, and reports times scaled
to the probe's reference speed (see ``HostSpeed``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it holds the details: samples, labels and the environment.
"""

import os

# OpenBLAS reads its thread count once, when NumPy loads it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sweep", "cv5k", "oneshot")
DEFAULT_SEED = 0  # outputs at this seed must equal reference/<workload>.json
SETUP_REPEATS = 5  # each repeat: an import of the package, then the workload's set-up
PROBE_CALLS = 5  # kernel calls per speed probe; a probe reads their median
PROBE_EVERY_S = 0.5  # request time between two probes within a unit, at least
#: A round figure within the probe times seen on a 2-vCPU Intel Xeon VM
#: (8.5-13.8 ms, OpenBLAS on one thread).  Only a scale: it makes
#: speed-normalised times read as seconds on such a host.
PROBE_REFERENCE_S = 0.010
SCALED = dict.fromkeys(("wall_s", "setup_s"), "measured, scaled to the probe's reference speed (HostSpeed)")


class MissingPackage(RuntimeError):
    pass


def load_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sensorsel" / "__init__.py").is_file():
        raise MissingPackage(f"no sensorsel package under {src}")
    sys.path.insert(0, str(src))
    import sensorsel

    if not Path(sensorsel.__file__).resolve().is_relative_to(src):
        raise MissingPackage(f"sensorsel imported from {sensorsel.__file__}, not from {src}")
    import tracing
    import workloads

    return workloads, tracing


class HostSpeed:
    """Times a fixed NumPy kernel that never calls ``sensorsel``, between pieces of measured work.

    On a shared host the time of fixed work drifts by up to 1.5x within
    minutes, while the process runs the whole time (its CPU time drifts
    with it), so a plain wall time measures the neighbours as much as the
    program.  The probe runs the mix that dominates ``sweep`` and
    ``oneshot`` (Gram matrices of a dozen rows with their eigenvalues,
    determinants and inverses, and one 192 x 192 product and SVD), so its
    time moves with theirs; ``cv5k``'s large arrays move less with it.  A
    piece of work's wall time times ``PROBE_REFERENCE_S`` over the mean of
    the probes just before and just after it is its time at the reference
    speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        self.np = np
        self.rows = rng.standard_normal((132, 12))
        self.square = rng.standard_normal((192, 192))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        np, total = self.np, 0.0
        for i in range(120):
            g = self.rows[i : i + 12].T @ self.rows[i : i + 12]
            total += np.linalg.eigvalsh(g)[0] + np.linalg.slogdet(g)[1] + np.trace(np.linalg.inv(g))
        return total + np.linalg.svd(self.square @ self.square, compute_uv=False)[0]

    def probe(self) -> float:
        times = []
        for _ in range(PROBE_CALLS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def normalise(self, seconds: float) -> float:
        """Probe now, and scale ``seconds`` of work done since the last probe to the reference speed."""
        around = self.samples[-1:] + [self.probe()]
        return seconds * PROBE_REFERENCE_S / statistics.mean(around)


@dataclass
class Unit:
    """One pass over the workload's requests, and what the gate found."""

    wall_s: float  # request time, probes excluded
    norm_wall_s: float  # wall_s at the probe's reference speed
    elapsed_s: float  # wall_s plus the unit's probes
    probe_s: float  # mean of the unit's probes
    latencies: list = field(default_factory=list)  # (kind, seconds) per request
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    records: int = 0
    bytes_written: int = 0
    outputs: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def invoke(cli, req, tracer):
    """Run one request; returns (ok, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    span = tracer.op() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            rc = cli.main(req.argv)
    except (Exception, SystemExit) as exc:  # a request that raises is a failed operation
        rc, error = None, repr(exc)
    seconds = time.perf_counter() - start
    if rc != 0 and error is None:
        error = f"exit {rc}: {err.getvalue().strip()}"
    return rc == 0, out.getvalue(), seconds, error


def run_unit(wl, reqs, tracer, reference, speed: HostSpeed) -> Unit:
    """One pass over ``reqs``, probed first, after every ``PROBE_EVERY_S`` of requests and last.

    Each stretch of requests between two probes is scaled to the reference
    speed by those two probes.  The first probe is fresh: the previous
    unit's last one is as old as that unit's gate.
    """
    from sensorsel import cli

    start, first_probe = time.perf_counter(), len(speed.samples)
    speed.probe()
    results, norm_wall, stretch = [], 0.0, 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for req in reqs:
            if stretch >= PROBE_EVERY_S:
                norm_wall += speed.normalise(stretch)
                stretch = 0.0
            results.append(invoke(cli, req, tracer))
            stretch += results[-1][2]
    norm_wall += speed.normalise(stretch)
    wall = sum(seconds for _, _, seconds, _ in results)
    elapsed = time.perf_counter() - start
    unit = Unit(wall, norm_wall, elapsed, statistics.mean(speed.samples[first_probe:]), tracer=tracer)
    # The gate runs outside the timed region.
    for req, (ok, stdout, seconds, error) in zip(reqs, results):
        unit.latencies.append((req.kind, seconds))
        unit.attempted += req.ops
        outputs, bad = {}, set()
        if ok:
            try:
                outputs, bad = wl.check(req, stdout)
            except Exception as exc:  # unreadable output fails the whole request
                error = f"check raised {exc!r}"
        if reference is not None:
            bad |= {key for key, value in outputs.items() if reference.get(key) != value}
        good = len(outputs.keys() - bad)
        unit.failed += req.ops - good
        if error or good < req.ops:
            unit.failures.append(f"{req.key}: {error or sorted(bad)[:3]}")
        unit.outputs.update(outputs)
        unit.records += len(outputs)
        unit.bytes_written += len(stdout.encode())
        if req.out is not None and req.out.is_dir():
            unit.bytes_written += sum(f.stat().st_size for f in req.out.rglob("*") if f.is_file())
    return unit


@dataclass
class Setup:
    """Set-up repeats: raw seconds, the same at the probe's reference speed, and the probes."""

    raw_s: list = field(default_factory=list)
    norm_s: list = field(default_factory=list)
    probes: list = field(default_factory=list)


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path, reference):
    """Set up, then repeat units until ``seconds`` of measured time have passed.

    Each set-up repeat is one import of the package (the first in this
    process, the others in a fresh interpreter) plus the workload's set-up;
    a speed probe follows each.  A traced run alternates plain and traced
    units, starting plain, so the tracing overhead is measured within one
    process.
    """
    t0 = time.perf_counter()
    workloads, tracing = load_package()
    first_import = time.perf_counter() - t0
    speed = HostSpeed()
    wl = workloads.WORKLOADS[name](work, seed)
    setup = Setup()
    for i in range(SETUP_REPEATS):
        imported = first_import if i == 0 else import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setup.raw_s.append(imported + time.perf_counter() - t0)
        setup.norm_s.append(speed.normalise(setup.raw_s[-1]))
    setup.probes = list(speed.samples)
    wl.prepare_gate()
    reqs = wl.requests()
    units: list[Unit] = []
    measured = 0.0
    while not units or measured < seconds or (traced and len(units) < 2):
        tracer = tracing.Tracer() if traced and len(units) % 2 == 1 else None
        units.append(run_unit(wl, reqs, tracer, reference, speed))
        measured += units[-1].elapsed_s
    return units, setup


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as the first import is measured."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import sensorsel.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True, timeout=60
    )
    return float(proc.stdout)


def latency_ms(units: list[Unit]) -> dict:
    """Median per request kind, and p90 where ten samples lie beyond it."""
    out = {}
    for kind in sorted({kind for u in units for kind, _ in u.latencies}):
        samples = [1e3 * s for u in units for k, s in u.latencies if k == kind]
        entry = {"n": len(samples), "p50": statistics.median(samples)}
        if len(samples) >= 100:
            entry["p90"] = statistics.quantiles(samples, n=10)[-1]
        out[kind] = entry
    return out


def end_to_end(units, setup: Setup) -> dict:
    return {
        "wall_s": statistics.median(u.norm_wall_s for u in units),
        "setup_s": statistics.median(setup.norm_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(units) -> dict:
    import tracing

    traced = [u for u in units if u.tracer]
    plain = [u for u in units if not u.tracer]
    each = [tracing.unit_metrics(u.tracer.spans, u.tracer.counts, u.records, u.bytes_written) for u in traced]
    # All numbers come from one unit, the one with the median traced wall, so
    # that the layer self times still sum to trace.wall_s.
    each.sort(key=lambda m: m["trace.wall_s"])
    metrics = dict(each[(len(each) - 1) // 2])
    metrics.update(tracing.step_times_ms([s for u in traced for s in u.tracer.spans]))
    plain_wall = statistics.median(u.norm_wall_s for u in plain)
    metrics["trace.overhead_frac"] = statistics.median(u.norm_wall_s for u in traced) / plain_wall - 1.0
    lat = latency_ms(plain)
    for kind in tracing.LATENCY_KINDS:
        metrics[f"{kind}_p50_ms"] = lat[kind]["p50"] if kind in lat else 0.0
    return metrics


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")), "unknown")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = None
    if args.seed == DEFAULT_SEED:
        ref_path = HERE / "reference" / f"{args.workload}.json"
        reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        units, setup = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work, reference
        )
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import tracing

    if args.trace:
        values, wanted = per_layer(units), spec["per_layer"]
        spans = [
            {"unit": i, "id": s[0], "op": s[1], "name": s[2], "start": s[3], "end": s[4], "parent": s[5]}
            for i, u in enumerate(units) if u.tracer for s in u.tracer.spans
        ]
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    else:
        values, wanted = end_to_end(units, setup), spec["end_to_end"]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "workload": args.workload,
        "units": len(units),
        "traced_units": sum(1 for u in units if u.tracer),
        "unit_wall_s": [u.norm_wall_s for u in units],
        "unit_raw_wall_s": [u.wall_s for u in units],
        "setup_repeats_s": setup.norm_s,
        "setup_raw_s": setup.raw_s,
        "probe_s": {
            "reference": PROBE_REFERENCE_S,
            "setup": setup.probes,
            "units": [u.probe_s for u in units],
        },
        "latency_ms": latency_ms([u for u in units if not u.tracer]),
        "reference_checked": reference is not None,
        "failures": [f for u in units for f in u.failures][:10],
        "labels": {m["name"]: {**tracing.LABELS, **SCALED}.get(m["name"], "measured") for m in wanted},
        "environment": environment(args.seed),
    }
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
