"""End-to-end acceptance suite.

Every test prints one ``[criterion N] label: PASS/FAIL`` line (run with
``pytest -s`` to see them) and then asserts the same condition at its
stated tolerance.

Criterion 2 is expected to fail: the offset-regularized trace objective
is monotone increasing (that half passes) but it is NOT submodular, and
the exhaustive checker finds genuine diminishing-returns violations on
the embedded matrix and on Gaussian instances.  The violations are real
mathematics, reproducible in exact rational arithmetic, with magnitudes
around 1e1 against the 1e-9 check tolerance, so the zero-violation
expectation cannot be met by any correct implementation.  The test states
the expectation as given and stays red rather than weakening the check.
"""

import csv
import math
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import sensorsel as ss
from sensorsel import Method
from sensorsel.cli import (
    ExperimentConfig,
    derive_seed,
    evaluate_fold,
    run_cv,
    run_random,
    run_submod_report,
)
from sensorsel.selectors import greedy_steps


def _criterion(num: int, label: str, ok: bool) -> None:
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")


def ordered_or_tie(hi: float, lo: float, rel: float = 0.02, floor: float = 1e-12) -> bool:
    """True when ``hi >= lo`` up to a relative tie band and absolute floor."""
    return hi >= lo - rel * max(abs(hi), abs(lo)) - floor


# ---------------------------------------------------------------------------
# criterion 1: embedded-counterexample gain comparisons


def test_criterion_1_counterexample_inequalities():
    t0 = time.perf_counter()
    report = ss.counterexample_report()
    elapsed = time.perf_counter() - t0
    ok = (
        report.submodularity_violated
        and report.supermodularity_violated
        and elapsed < 1.0
    )
    _criterion(1, "counterexample gain inequalities", ok)
    assert report.submodularity_violated, report.to_text()
    assert report.supermodularity_violated, report.to_text()
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: exhaustive structure checks of the regularized trace objective


def test_criterion_2_regularized_trace_structure():
    t0 = time.perf_counter()
    eps, tol, max_size = 1e-3, 1e-9, 5
    matrices = [ss.counterexample_matrix()] + [
        ss.gen_random_system(7, 3, seed=derive_seed(202, 100 + j)) for j in range(20)
    ]
    submodular_violations = 0
    monotone_violations = 0
    first_witness = None
    for cand in matrices:
        obj = ss.SetObjective(ss.ObjectiveKind.A_EPS, cand, eps)
        rep_sub = ss.check_submodular(obj, max_set_size=max_size, tol=tol)
        rep_mon = ss.check_monotone(obj, max_set_size=max_size, tol=tol)
        submodular_violations += len(rep_sub.violations_submodular)
        monotone_violations += len(rep_mon.violations_monotone)
        if first_witness is None and rep_sub.violations_submodular:
            first_witness = rep_sub.violations_submodular[0]
    elapsed = time.perf_counter() - t0
    ok = submodular_violations == 0 and monotone_violations == 0 and elapsed < 30.0
    _criterion(2, "regularized trace objective submodular and monotone", ok)
    assert elapsed < 30.0
    assert monotone_violations == 0
    assert submodular_violations == 0, (
        f"{submodular_violations} genuine diminishing-returns violations found "
        f"(first witness {first_witness}); the objective is monotone but not "
        "submodular, so the zero-violation expectation is unattainable"
    )


# ---------------------------------------------------------------------------
# criterion 3: greedy guarantee against brute force


def test_criterion_3_nemhauser_bound():
    t0 = time.perf_counter()
    bound = 1.0 - 1.0 / math.e - 1e-9
    worst = 1.0
    for j in range(50):
        n = 10 + (j % 5)
        p = 2 + (j % 3)
        cand = ss.gen_random_system(n, 3, seed=derive_seed(202, j))
        res = ss.nemhauser_check(cand, p, epsilon=1e-3)
        worst = min(worst, res.ratio)
    elapsed = time.perf_counter() - t0
    ok = worst >= bound and elapsed < 60.0
    _criterion(3, "greedy-to-optimal ratio above 1 - 1/e", ok)
    assert worst >= bound, f"worst ratio {worst}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: incremental greedy steps equal direct recomputation


def _direct_step_values(cand, selected, kind):
    values = np.full(cand.n, np.nan)
    for i in range(1, cand.n + 1):
        if i in selected:
            continue
        info = ss.fisher_info(ss.build_measurement(cand, list(selected) + [i]))
        if kind == "A":
            try:
                values[i - 1] = ss.trace_inv_index(info)
            except ss.SingularInformationError:
                values[i - 1] = np.inf
        elif kind == "E":
            values[i - 1] = ss.min_eig_index(info)
        else:
            values[i - 1] = ss.det_index(info)
    return values


def test_criterion_4_greedy_oracle_step_equivalence():
    from sensorsel.selectors import _argbest

    n, r, p = 15, 3, 8
    mismatches = []
    for j in range(20):
        cand = ss.gen_random_system(n, r, seed=derive_seed(204, j))
        for selector, kind in [(ss.select_ag, "A"), (ss.select_eg, "E")]:
            result = selector(cand, p)
            selected = []
            for step, idx in enumerate(result.indices):
                expected = (
                    _argbest(_direct_step_values(cand, selected, kind), minimize=(kind == "A"))
                    + 1
                )
                if idx != expected:
                    mismatches.append((j, kind, step, idx, expected))
                selected.append(idx)
        result = ss.select_dg(cand, p)
        selected = list(result.indices[:r])
        for step, idx in enumerate(result.indices[r:], start=r):
            expected = _argbest(_direct_step_values(cand, selected, "D")) + 1
            if idx != expected:
                mismatches.append((j, "D", step, idx, expected))
            selected.append(idx)
    ok = not mismatches
    _criterion(4, "incremental steps equal direct recomputation", ok)
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# criterion 5: Monte-Carlo validation of the observable-space covariance


def test_criterion_5_monte_carlo_observable_covariance():
    t0 = time.perf_counter()
    p, r, sigma, draws = 3, 5, 1.0, 10**5
    cand = ss.gen_random_system(9, r, seed=derive_seed(205, 0))
    s = ss.build_measurement(cand, [2, 5, 9])
    analytic = ss.observable_error_covariance(s, ss.NoiseModel(sigma))
    _, _, v = ss.observable_transform(s)
    vtil = v[:, :p]
    rng = np.random.Generator(np.random.PCG64(derive_seed(205, 1)))
    z = rng.standard_normal((r, draws))
    noise = sigma * rng.standard_normal((p, draws))
    z_hat = ss.estimate(s, s.measurement @ z + noise)
    zeta_err = vtil.T @ (z - z_hat)
    empirical = (zeta_err @ zeta_err.T) / draws
    tol = 5.0 * 10 ** (-5 / 2) * np.abs(analytic).max()
    deviation = np.abs(empirical - analytic).max()
    elapsed = time.perf_counter() - t0
    ok = deviation <= tol and elapsed < 10.0
    _criterion(5, "observable-space covariance versus 1e5-draw Monte Carlo", ok)
    assert deviation <= tol, f"max deviation {deviation} > {tol}"
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criteria 6 and 7: random-system trends and the min-eigenvalue tail


P_SWEEP = (5, 10, 15, 20)


@pytest.fixture(scope="module")
def random_system_sweep():
    """Means over 200 trials at n=500, r=10 for p in {5, 10, 15, 20}."""
    n, r, trials = 500, 10, 200
    methods = {"dg": Method.DG, "ag": Method.AG, "eg": Method.EG}
    sums = {(m, p): np.zeros(4) for m in methods for p in P_SWEEP}
    eg_steps: list[tuple[float, ...]] = []
    t0 = time.perf_counter()
    for trial in range(trials):
        cand = ss.gen_random_system(n, r, derive_seed(206, trial, 0))
        z = ss.gen_latent(r, 1, derive_seed(206, trial, 1))
        for name, method in methods.items():
            # one stepwise run serves every p: its p-th result is select_<name>(cand, p)
            steps = islice(greedy_steps(cand, method), max(P_SWEEP))
            for p, result in enumerate(steps, start=1):
                if p not in P_SWEEP:
                    continue
                s = ss.build_measurement(cand, result.indices)
                info = ss.fisher_info(s)
                z_hat = ss.estimate(s, s.measurement @ z)
                sums[(name, p)] += [
                    ss.det_index(info),
                    ss.trace_inv_index(info),
                    ss.min_eig_index(info),
                    ss.reconstruction_error(z, z_hat),
                ]
                if name == "eg" and p > r:
                    eg_steps.append(result.per_step_objective)
    elapsed = time.perf_counter() - t0
    means = {
        key: dict(zip(["det", "trinv", "lmin", "err"], vec / trials))
        for key, vec in sums.items()
    }
    return {"means": means, "eg_steps": eg_steps, "elapsed": elapsed, "r": r}


def test_criterion_6_random_system_trends(random_system_sweep):
    means = random_system_sweep["means"]
    checks = []
    for p in P_SWEEP:  # determinant ordering
        checks.append(ordered_or_tie(means[("dg", p)]["det"], means[("ag", p)]["det"]))
        checks.append(ordered_or_tie(means[("ag", p)]["det"], means[("eg", p)]["det"]))
    # trace of the inverse at p=20: the min-eigenvalue greedy is clearly worse
    eg_tr = means[("eg", 20)]["trinv"]
    checks.append(eg_tr > means[("ag", 20)]["trinv"] + 0.02 * eg_tr)
    checks.append(eg_tr > means[("dg", 20)]["trinv"] + 0.02 * eg_tr)
    # minimum eigenvalue at p=20: the trace greedy at least ties the eig greedy
    checks.append(ordered_or_tie(means[("ag", 20)]["lmin"], means[("eg", 20)]["lmin"]))
    # reconstruction error nonincreasing in p for every method
    for name in ("dg", "ag", "eg"):
        errs = [means[(name, p)]["err"] for p in P_SWEEP]
        for a, b in zip(errs, errs[1:]):
            checks.append(ordered_or_tie(a, b))
    elapsed_ok = random_system_sweep["elapsed"] < 600.0
    ok = all(checks) and elapsed_ok
    _criterion(6, "random-system index and error trends", ok)
    assert all(checks), [i for i, c in enumerate(checks) if not c]
    assert elapsed_ok, f"sweep took {random_system_sweep['elapsed']:.0f}s"


def test_criterion_7_min_eig_objective_monotone_tail(random_system_sweep):
    r = random_system_sweep["r"]
    worst = 0.0
    for steps in random_system_sweep["eg_steps"]:
        for k in range(r, len(steps)):
            worst = min(worst, steps[k] - steps[k - 1])
    ok = worst >= -1e-12
    _criterion(7, "min-eigenvalue objective nondecreasing past r", ok)
    assert worst >= -1e-12, f"worst step decrease {worst}"


# ---------------------------------------------------------------------------
# criterion 8: cross-validation harness on a frozen synthetic dataset


def _synthetic_cv_matrix(with_noise: bool) -> np.ndarray:
    n, m, rank = 1000, 520, 10
    spatial = ss.gen_random_system(n, rank, seed=10).rows
    temporal = ss.gen_latent(rank, m, seed=11)
    scales = np.geomspace(10.0, 1.0, rank)
    signal = (spatial * scales) @ temporal / np.sqrt(n)
    if not with_noise:
        return signal
    noise = np.random.Generator(np.random.PCG64(12)).standard_normal((n, m))
    return signal + 0.4 * noise


def test_criterion_8_cross_validation_harness(tmp_path):
    t0 = time.perf_counter()
    plan = ss.kfold(520, 5)
    folds_ok = plan.segments == (
        (1, 104), (105, 208), (209, 312), (313, 416), (417, 520)
    )

    # self-test: exact-rank data, test = training, p = r
    clean = ss.SnapshotData(_synthetic_cv_matrix(with_noise=False))
    cols = np.arange(clean.m)
    self_rec = evaluate_fold(
        clean, cols, cols, r=10, p_values=[10], methods=[Method.DG], seed=0
    )[0]
    self_ok = self_rec.recon_error <= 1e-8

    # full 5-fold run on the noisy dataset through the file interface
    noisy_path = tmp_path / "synthetic.raw"
    ss.save_snapshots(
        ss.SnapshotData(_synthetic_cv_matrix(with_noise=True)),
        noisy_path,
        ss.SnapshotFormat.RAW_F64,
    )
    cfg = ExperimentConfig(
        mode="cv",
        r=10,
        k=5,
        p_min=15,
        p_max=15,
        seed=0,
        methods=[Method.DG, Method.AG, Method.EG],
        data_path=str(noisy_path),
        data_format=ss.SnapshotFormat.RAW_F64,
        out_dir=str(tmp_path / "cv"),
    )
    _, sum_path = run_cv(cfg)
    with open(sum_path, newline="") as fh:
        rows = list(csv.reader(fh))
    err = {row[0]: float(row[3]) for row in rows[1:] if row[2] == "recon_error_mean"}
    trend_ok = ordered_or_tie(err["eg"], err["ag"]) and ordered_or_tie(
        err["dg"], err["ag"]
    )
    elapsed = time.perf_counter() - t0
    ok = folds_ok and self_ok and trend_ok and elapsed < 300.0
    _criterion(8, "cross-validation folds, self-test, and error trend", ok)
    assert folds_ok
    assert self_ok, f"self-test error {self_rec.recon_error}"
    assert trend_ok, f"fold-averaged errors {err}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns modulo wall time


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _strip_wall_time(rows: list[list[str]]) -> list[list[str]]:
    header = rows[0]
    if "wall_time_s" in header:
        keep = [i for i, name in enumerate(header) if name != "wall_time_s"]
        return [[row[i] for i in keep] for row in rows]
    return [row for row in rows if not (len(row) == 4 and row[2] == "wall_time_s_mean")]


def test_criterion_9_determinism(tmp_path):
    random_cfgs = [
        ExperimentConfig(
            mode="random",
            n=40,
            r=4,
            p_min=2,
            p_max=6,
            trials=3,
            seed=11,
            sigma=0.3,
            methods=[Method.DG, Method.AG, Method.EG, Method.RANDOM],
            out_dir=str(tmp_path / f"rand{tag}"),
        )
        for tag in "ab"
    ]
    pairs = [tuple(run_random(cfg) for cfg in random_cfgs)]

    snap = tmp_path / "snap.raw"
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 30))
    x += 0.05 * rng.standard_normal((60, 30))
    ss.save_snapshots(ss.SnapshotData(x), snap, ss.SnapshotFormat.RAW_F64)
    cv_cfgs = [
        ExperimentConfig(
            mode="cv",
            r=3,
            k=5,
            p_min=2,
            p_max=4,
            seed=5,
            methods=[Method.DG, Method.AG, Method.EG],
            data_path=str(snap),
            data_format=ss.SnapshotFormat.RAW_F64,
            out_dir=str(tmp_path / f"cv{tag}"),
        )
        for tag in "ab"
    ]
    pairs.append(tuple(run_cv(cfg) for cfg in cv_cfgs))

    matched = True
    for (paths_a, paths_b) in pairs:
        for pa, pb in zip(paths_a, paths_b):
            if _strip_wall_time(_read_rows(pa)) != _strip_wall_time(_read_rows(pb)):
                matched = False

    submod_paths = [
        run_submod_report(
            ExperimentConfig(mode="submod", seed=3, out_dir=str(tmp_path / f"sub{tag}"))
        )
        for tag in "ab"
    ]
    for pa, pb in zip(*submod_paths):
        if pa.read_bytes() != pb.read_bytes():
            matched = False

    _criterion(9, "byte-identical reruns modulo wall time", matched)
    assert matched
