"""The benchmark's workloads: inputs made from a seed, the requests, and their checks.

Each workload is a closed loop with one caller.  Its unit of work is a fixed
list of ``sensorsel.cli.main`` requests built from the workload seed; the
benchmark repeats the unit until its time is up.  ``check`` turns one
request's output into ``{op_key: output}`` for the reference comparison and
the set of op keys that failed the independent check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from sensorsel import cli, data


@dataclass(frozen=True)
class Request:
    key: str  # stable name of the request within its unit
    kind: str  # latency class the request is reported under
    argv: list[str]
    ops: int  # operations the request must produce
    out: Path | None = None  # directory the request writes, if any
    params: dict = field(default_factory=dict)


def _quiet_main(argv: list[str]) -> None:
    """Warm-up call; the unit of work is timed elsewhere."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"warm-up request failed: {argv}")


class Sweep:
    """The paper's random-system sweep: ``random`` at n=500, r=10, p=1..20.

    The unit's trials are separate one-trial requests, so the benchmark can
    probe the host's speed between them.
    """

    name = "sweep"
    N, R, P_MAX, TRIALS = 500, 10, 20, 4
    METHODS = ("dg", "ag", "eg", "random")

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def trial_seed(self, trial: int) -> int:
        """``--seed`` of the request that runs ``trial``; distinct across workload seeds."""
        return self.seed * self.TRIALS + trial

    def _argv(self, seed: int, trials: int, p_max: int, out: Path) -> list[str]:
        return [
            "random", "--n", str(self.N), "--r", str(self.R), "--p-min", "1",
            "--p-max", str(p_max), "--trials", str(trials), "--seed", str(seed),
            "--methods", ",".join(self.METHODS), "--sigma", "0", "--out", str(out),
        ]

    def setup(self) -> None:
        # Warm-up: one short trial of every method in both regimes.
        _quiet_main(self._argv(self.trial_seed(self.TRIALS), 1, self.R + 2, self.work / "warm"))

    def prepare_gate(self) -> None:
        # The CLI draws trial 0 of ``--seed s`` from child seed (s, 0, 0).
        self.cands = [
            gate.normal_matrix(self.N, self.R, gate.child_seed(self.trial_seed(t), 0, 0))
            for t in range(self.TRIALS)
        ]
        self.greedy = [gate.GreedyOracle(cand) for cand in self.cands]

    def requests(self) -> list[Request]:
        ops = len(self.METHODS) * self.P_MAX
        return [
            Request(f"random trial={t}", "sweep", self._argv(self.trial_seed(t), 1, self.P_MAX, out), ops, out, {"trial": t})
            for t in range(self.TRIALS)
            for out in [self.work / f"sweep{t}"]
        ]

    def expected_keys(self) -> set[str]:
        """Record keys of one one-trial request."""
        return {f"{m} p={p} trial=0" for m in self.METHODS for p in range(1, self.P_MAX + 1)}

    def check(self, req: Request, stdout: str) -> tuple[dict[str, str], set[str]]:
        """Records of the request's trial, keyed by the trial's place in the unit."""
        trial = req.params["trial"]

        def oracle(rec):
            return self.cands[trial], None, self.greedy[trial]

        outputs, bad = check_records(req.out / "random.csv", self.expected_keys(), oracle)

        def key(k: str) -> str:
            return k.replace("trial=0", f"trial={trial}")

        return {key(k): v for k, v in outputs.items()}, {key(k) for k in bad}


class Cv5k:
    """K-fold cross-validation on a 5000 x 1000 RAW_F64 snapshot file with a mask."""

    name = "cv5k"
    N, M, RANK, NOISE, MASKED = 5000, 1000, 40, 1e-3, 0.1
    R, K, P_MAX = 20, 5, 40
    METHODS = ("dg", "ag", "random")

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.path = work / "snap.raw"

    def _snapshots(self, n: int, m: int, rank: int, seed: int) -> data.SnapshotData:
        """Low rank with geometric decay plus small noise, 10% of locations masked."""
        modes = data.gen_random_system(n, rank, gate.child_seed(seed, 1)).rows
        latent = data.gen_latent(rank, m, gate.child_seed(seed, 2))
        decay = 0.85 ** np.arange(rank)
        x = modes @ (decay[:, None] * latent)
        x += self.NOISE * data.gen_latent(n, m, gate.child_seed(seed, 3))
        rng = np.random.Generator(np.random.PCG64(gate.child_seed(seed, 4)))
        mask = rng.random(n) >= self.MASKED
        return data.SnapshotData(x, mask=mask)

    def _argv(self, path: Path, r: int, k: int, p_max: int, seed: int, out: Path) -> list[str]:
        return [
            "cv", "--data", str(path), "--format", "raw", "--r", str(r), "--k", str(k),
            "--p-min", "1", "--p-max", str(p_max), "--methods", ",".join(self.METHODS),
            "--seed", str(seed), "--out", str(out),
        ]

    def setup(self) -> None:
        self.snap = self._snapshots(self.N, self.M, self.RANK, self.seed)
        data.save_snapshots(self.snap, self.path, data.SnapshotFormat.RAW_F64)
        warm = self.work / "warm.raw"
        data.save_snapshots(self._snapshots(400, 60, 8, self.seed + 1), warm, data.SnapshotFormat.RAW_F64)
        _quiet_main(self._argv(warm, 5, 2, 10, self.seed, self.work / "warm"))

    def prepare_gate(self) -> None:
        """POD modes of each fold from the eigenvectors of X^T X, then drop the data."""
        x = np.where(self.snap.mask[:, None], self.snap.X, 0.0)
        self.locations = np.flatnonzero(self.snap.mask) + 1
        self.cands = {}
        for fold, test in enumerate(np.array_split(np.arange(self.M), self.K), start=1):
            train = np.delete(x, test, axis=1)
            evals, evecs = np.linalg.eigh(train.T @ train)
            top = np.argsort(evals)[::-1][: self.R]
            modes = train @ (evecs[:, top] / np.sqrt(evals[top]))
            self.cands[fold] = modes[self.snap.mask]
        self.greedy = {fold: gate.GreedyOracle(cand) for fold, cand in self.cands.items()}
        del self.snap

    def requests(self) -> list[Request]:
        out = self.work / "cv"
        ops = len(self.METHODS) * self.P_MAX * self.K
        return [Request("cv", "cv5k", self._argv(self.path, self.R, self.K, self.P_MAX, self.seed, out), ops, out)]

    def expected_keys(self) -> set[str]:
        return {
            f"{m} p={p} trial={f}"
            for m in self.METHODS for p in range(1, self.P_MAX + 1) for f in range(1, self.K + 1)
        }

    def check(self, req: Request, stdout: str) -> tuple[dict[str, str], set[str]]:
        def oracle(rec):
            fold = int(rec["trial"])
            return self.cands[fold], self.locations, self.greedy[fold]

        return check_records(req.out / "cv.csv", self.expected_keys(), oracle)


class Oneshot:
    """Independent single requests: ``select`` (greedy and brute force) and ``submod``."""

    name = "oneshot"
    N, R = 1000, 15
    STRATA = 10  # one p per stratum of [1, 2r], so every seed does the same amount of work
    BRUTE_N, BRUTE_R, BRUTE_P = (16, 17, 18), 4, 5
    SUBMOD_REQUESTS = 2
    # What ``sensorsel submod`` checks the greedy bound on: five 12 x 3
    # instances, p = 3, epsilon at the CLI default.
    BOUND_INSTANCES, BOUND_N, BOUND_R, BOUND_P, BOUND_EPSILON = 5, 12, 3, 3, 1e-3

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.cand_path = work / "cand.csv"

    def _brute_path(self, n: int) -> Path:
        return self.work / f"brute{n}.csv"

    def setup(self) -> None:
        cand = data.gen_random_system(self.N, self.R, gate.child_seed(self.seed, 5))
        data.save_snapshots(data.SnapshotData(cand.rows), self.cand_path, data.SnapshotFormat.CSV)
        for n in self.BRUTE_N:
            small = data.gen_random_system(n, self.BRUTE_R, gate.child_seed(self.seed, 6, n))
            data.save_snapshots(data.SnapshotData(small.rows), self._brute_path(n), data.SnapshotFormat.CSV)
        for method in ("dg", "ag", "eg"):
            _quiet_main(["select", "--data", str(self.cand_path), "--method", method, "--p", str(self.R + 1)])
        _quiet_main(["select", "--data", str(self._brute_path(self.BRUTE_N[0])), "--method", "brute", "--p", "3"])

    def prepare_gate(self) -> None:
        self.greedy = gate.GreedyOracle(gate.normal_matrix(self.N, self.R, gate.child_seed(self.seed, 5)))
        self.brute = {n: gate.normal_matrix(n, self.BRUTE_R, gate.child_seed(self.seed, 6, n)) for n in self.BRUTE_N}

    def requests(self) -> list[Request]:
        rng = np.random.Generator(np.random.PCG64(gate.child_seed(self.seed, 7)))
        width = 2 * self.R // self.STRATA
        reqs = []
        for method in ("dg", "ag", "eg"):
            for stratum in range(self.STRATA):
                p = stratum * width + 1 + int(rng.integers(width))
                argv = ["select", "--data", str(self.cand_path), "--method", method, "--p", str(p)]
                reqs.append(Request(f"select {method} p={p}", f"select_{method}", argv, 1, params={"p": p, "method": method}))
        for n in self.BRUTE_N:
            for crit in ("d", "a", "e"):
                argv = [
                    "select", "--data", str(self._brute_path(n)), "--method", "brute",
                    "--criterion", crit, "--p", str(self.BRUTE_P),
                ]
                reqs.append(Request(f"brute {crit} n={n}", "brute", argv, 1, params={"n": n, "criterion": crit}))
        for _ in range(self.SUBMOD_REQUESTS):
            s = int(rng.integers(2**31))
            out = self.work / f"submod{s}"
            reqs.append(Request(f"submod seed={s}", "submod", ["submod", "--seed", str(s), "--out", str(out)], 1, out, {"seed": s}))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def check(self, req: Request, stdout: str) -> tuple[dict[str, str], set[str]]:
        if req.kind == "submod":
            return self._check_submod(req)
        indices = [int(tok) for tok in stdout.split()]
        if req.kind == "brute":
            problems = gate.brute_problems(self.brute[req.params["n"]], self.BRUTE_P, req.params["criterion"], indices)
        else:
            problems = gate.index_problems(indices, req.params["p"], self.N)
            problems = problems or self.greedy.problems(indices, gate.GREEDY_CRITERION[req.params["method"]])
        return {req.key: " ".join(map(str, indices))}, {req.key} if problems else set()

    def _check_submod(self, req: Request) -> tuple[dict[str, str], set[str]]:
        """Greedy-bound rows against an independent brute force, plus file digests."""
        names = ("submod_report.txt", "submod_witnesses.csv", "submod_nemhauser.csv")
        digests = " ".join(hashlib.sha256((req.out / name).read_bytes()).hexdigest()[:16] for name in names)
        bound_rows = gate.read_records(req.out / "submod_nemhauser.csv")
        bad = [int(row["instance"]) for row in bound_rows] != list(range(self.BOUND_INSTANCES))
        for row in bound_rows:
            seed = gate.child_seed(req.params["seed"], 20, int(row["instance"]))
            rows = gate.normal_matrix(self.BOUND_N, self.BOUND_R, seed)
            opt = gate.a_eps_optimum(rows, self.BOUND_P, self.BOUND_EPSILON)
            greedy, got = float(row["greedy_value"]), float(row["opt_value"])
            bad |= not np.isclose(got, opt, rtol=gate.RTOL, atol=0.0)
            bad |= greedy > got * (1 + gate.RTOL)
            bad |= not np.isclose(float(row["ratio"]), greedy / got, rtol=1e-12, atol=0.0)
        return {req.key: digests}, {req.key} if bad else set()


def check_records(path: Path, expected: set[str], oracle) -> tuple[dict[str, str], set[str]]:
    """Check a record CSV.

    ``oracle(rec)`` gives the candidate rows, the location map (or None) and
    the greedy-step oracle of the record's matrix.
    """
    outputs: dict[str, str] = {}
    bad: set[str] = set()
    for rec in gate.read_records(path):
        key = f"{rec['method']} p={rec['p']} trial={rec['trial']}"
        if key in outputs or key not in expected:
            bad.add(key)
            continue
        outputs[key] = f"{rec['indices']} @ {rec['locations']}"
        cand, locations, greedy = oracle(rec)
        problems = gate.record_problems(cand, rec, locations)
        criterion = gate.GREEDY_CRITERION.get(rec["method"])
        if not problems and criterion:
            problems = greedy.problems([int(tok) for tok in rec["indices"].split()], criterion)
        if problems:
            bad.add(key)
    return outputs, bad


WORKLOADS = {wl.name: wl for wl in (Sweep, Cv5k, Oneshot)}
