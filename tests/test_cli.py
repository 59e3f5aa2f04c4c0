import csv
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import count
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import sensorsel

from sensorsel import (
    CandidateMatrix,
    ConfigError,
    Criterion,
    DataError,
    EigenSolverError,
    Method,
    NumericalError,
    SelectionResult,
    SensorSelError,
    SingularInformationError,
    SnapshotData,
    SnapshotFormat,
    build_measurement,
    det_index,
    estimate,
    fisher_info,
    gen_latent,
    gen_random_system,
    kfold,
    load_snapshots,
    min_eig_index,
    pod_truncate,
    reconstruction_error,
    save_snapshots,
    sensor_candidates,
    trace_inv_index,
)
from sensorsel import cli, fisher, selectors
from sensorsel.cli import (
    ExperimentConfig,
    build_config,
    derive_seed,
    evaluate_fold,
    main,
    run_cv,
    run_random,
    run_submod_report,
)

from conftest import assert_pod_close, tiny_row_candidates


#: Exit code and stderr prefix of each error category.
CATEGORY_EXIT = {
    ConfigError: (2, "config error:"),
    DataError: (3, "data error:"),
    NumericalError: (4, "numerical failure:"),
}


def error_classes(base=SensorSelError):
    """Every class below ``base``, found by walking ``__subclasses__``."""
    for cls in base.__subclasses__():
        yield cls
        yield from error_classes(cls)


#: A ``random`` run that takes well under a second when a setting is wrongly accepted.
SMALL_RANDOM = ["random", "--n", "6", "--r", "2", "--p-max", "2", "--trials", "1"]


def exit_code(argv):
    """Exit code of ``main``, including argparse's ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall_time(rows):
    header = rows[0]
    if "wall_time_s" in header:
        keep = [i for i, name in enumerate(header) if name != "wall_time_s"]
        return [[row[i] for i in keep] for row in rows]
    # summary format: drop wall-time metric rows
    return [row for row in rows if not (len(row) == 4 and row[2] == "wall_time_s_mean")]


def small_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        mode="random",
        n=25,
        r=3,
        p_min=2,
        p_max=5,
        trials=4,
        seed=7,
        methods=[Method.DG, Method.AG, Method.EG, Method.RANDOM],
        out_dir=str(tmp_path / "out"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            small_config_bad = ExperimentConfig(mode="nope")
            small_config_bad.validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(p_min=5, p_max=2).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=[]).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="cv").validate()  # no data path
        with pytest.raises(ConfigError):
            ExperimentConfig(n=10, p_max=11).validate()

    @pytest.mark.parametrize(
        "runner, mode",
        [
            (run_submod_report, "random"),
            (run_submod_report, "cv"),
            (run_random, "cv"),
            (run_cv, "submod"),
        ],
    )
    def test_runner_refuses_other_mode(self, tmp_path, runner, mode):
        cfg = ExperimentConfig(mode=mode, out_dir=str(tmp_path / "s"))
        with pytest.raises(ConfigError, match=f"{runner.__name__} called with mode '{mode}'"):
            runner(cfg)
        assert not (tmp_path / "s").exists()

    def test_config_file_merge_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n=40\nr=4\np-min=2\np_max=6\nmethods=dg,eg\nseed=3\n")
        import argparse

        args = argparse.Namespace(
            config=str(cfg_file),
            n=None,
            r=None,
            p_min=None,
            p_max=4,
            trials=None,
            seed=None,
            k=None,
            methods=None,
            epsilon=None,
            sigma=None,
            data=None,
            format=None,
            out=str(tmp_path),
        )
        cfg = build_config("random", args)
        assert cfg.n == 40 and cfg.r == 4
        assert cfg.p_min == 2 and cfg.p_max == 4  # flag overrides file
        assert cfg.methods == [Method.DG, Method.EG]
        assert cfg.seed == 3

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("wat=1\n")
        import argparse

        args = argparse.Namespace(config=str(cfg_file))
        with pytest.raises(ConfigError):
            build_config("random", args)


class TestRunRandom:
    def test_record_layout_and_sorting(self, tmp_path):
        cfg = small_config(tmp_path)
        rec_path, sum_path = run_random(cfg)
        rows = read_csv(rec_path)
        assert rows[0] == [
            "method", "p", "trial", "indices", "locations",
            "det_index", "trace_inv_index", "min_eig_index",
            "recon_error", "wall_time_s",
        ]
        body = rows[1:]
        assert len(body) == 4 * 4 * 4  # methods * p values * trials
        keys = [(row[0], int(row[1]), int(row[2])) for row in body]
        assert keys == sorted(keys)

    def test_records_reevaluate_through_fisher(self, tmp_path):
        cfg = small_config(tmp_path)
        rec_path, _ = run_random(cfg)
        for row in read_csv(rec_path)[1:]:
            trial = int(row[2])
            cand = gen_random_system(cfg.n, cfg.r, derive_seed(cfg.seed, trial, 0))
            indices = tuple(int(t) for t in row[3].split())
            info = fisher_info(build_measurement(cand, indices))
            assert float(row[5]) == pytest.approx(det_index(info), rel=1e-12)
            assert float(row[6]) == pytest.approx(trace_inv_index(info), rel=1e-12)
            assert float(row[7]) == pytest.approx(min_eig_index(info), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 5])
    def test_record_forms_one_gram_and_one_eigensolve(self, monkeypatch, p):
        """Each p forms its stack of Grams once, and each group of one Gram
        shape (one per p <= r, one for all p > r) runs one eigensolve and one solve."""
        grams, eigensolves, solves = [], [], []
        gram, eigvalsh, solve = fisher._gram, fisher._eigvalsh, np.linalg.solve
        monkeypatch.setattr(fisher, "_gram", lambda c: grams.append(c.shape) or gram(c))
        monkeypatch.setattr(fisher, "_eigvalsh", lambda m: eigensolves.append(m.shape) or eigvalsh(m))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        cand = gen_random_system(8, 3, 0)
        z = gen_latent(3, 1, 1)
        sizes = [p, 1, p, 4]
        records = cli._unit_records(
            cand, np.arange(1, 9), [Method.RANDOM], sizes, "trial", 0, (0,), z,
            lambda sels, rows, locs: rows @ z,
        )
        assert [rec.p for rec in records] == sizes
        assert sorted(grams) == sorted((sizes.count(q), q, 3) for q in set(sizes))
        groups = Counter(min(q, 4) for q in sizes)  # p, or 4 for every p > r = 3
        shapes = sorted((count, min(g, 3), min(g, 3)) for g, count in groups.items())
        assert sorted(eigensolves) == sorted(solves) == shapes

    def test_dg_normalized_rows_are_exactly_one(self, tmp_path):
        cfg = small_config(tmp_path)
        _, sum_path = run_random(cfg)
        dg_norm = [
            row for row in read_csv(sum_path)[1:]
            if row[0] == "dg" and row[2].endswith("_dgnorm")
        ]
        assert dg_norm, "summary must contain normalized DG rows"
        assert all(float(row[3]) == 1.0 for row in dg_norm)

    def test_deterministic_modulo_wall_time(self, tmp_path):
        cfg_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, out_dir=str(tmp_path / "b"))
        rec_a, sum_a = run_random(cfg_a)
        rec_b, sum_b = run_random(cfg_b)
        assert strip_wall_time(read_csv(rec_a)) == strip_wall_time(read_csv(rec_b))
        assert strip_wall_time(read_csv(sum_a)) == strip_wall_time(read_csv(sum_b))

    def test_sigma_noise_changes_reconstruction_error_only(self, tmp_path):
        clean = run_random(small_config(tmp_path, out_dir=str(tmp_path / "c")))
        noisy = run_random(
            small_config(tmp_path, sigma=0.5, out_dir=str(tmp_path / "n"))
        )
        rows_c = read_csv(clean[0])[1:]
        rows_n = read_csv(noisy[0])[1:]
        assert [r[3] for r in rows_c] == [r[3] for r in rows_n]  # same selections
        err_c = np.array([float(r[8]) for r in rows_c])
        err_n = np.array([float(r[8]) for r in rows_n])
        assert err_n.mean() > err_c.mean()

    def test_optimized_interpreter_writes_the_same_csvs(self, tmp_path):
        src = str(Path(sensorsel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [
            "-m", "sensorsel.cli", "random", "--n", "40", "--r", "4", "--p-min", "1",
            "--p-max", "10", "--trials", "2", "--seed", "11",
        ]
        outs = []
        for flags in ([], ["-O"]):
            out = tmp_path / ("optimized" if flags else "plain")
            subprocess.run(
                [sys.executable, *flags, *argv, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outs.append(out)
        for name in ("random.csv", "random_summary.csv"):
            plain, optimized = (strip_wall_time(read_csv(out / name)) for out in outs)
            assert plain == optimized


def fail_at_step(monkeypatch, score, step):
    """Make the greedy score ``score`` raise a singular-Gram error at ``step``."""
    real = getattr(selectors, score)

    def failing(state):
        if len(state.selected) == step - 1:
            raise SingularInformationError("Gram matrix is singular")
        return real(state)

    monkeypatch.setattr(selectors, score, failing)


def make_snapshot_file(tmp_path, n=40, m=25, rank=3, noise=0.0, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    if noise:
        x = x + noise * rng.standard_normal((n, m))
    data = SnapshotData(x, mask=mask)
    path = tmp_path / "snap.raw"
    save_snapshots(data, path, SnapshotFormat.RAW_F64)
    return path, data


class TestRunCv:
    def test_fold_records_and_determinism(self, tmp_path):
        path, _ = make_snapshot_file(tmp_path, noise=0.1)
        cfg = ExperimentConfig(
            mode="cv",
            r=3,
            k=5,
            p_min=3,
            p_max=4,
            seed=2,
            methods=[Method.DG, Method.AG, Method.EG],
            data_path=str(path),
            data_format=SnapshotFormat.RAW_F64,
            out_dir=str(tmp_path / "cv1"),
        )
        rec_path, sum_path = run_cv(cfg)
        rows = read_csv(rec_path)[1:]
        assert len(rows) == 3 * 2 * 5  # methods * p values * folds
        assert {int(r[2]) for r in rows} == {1, 2, 3, 4, 5}
        cfg.out_dir = str(tmp_path / "cv2")
        rec2, _ = run_cv(cfg)
        assert strip_wall_time(read_csv(rec_path)) == strip_wall_time(read_csv(rec2))

    def test_self_consistent_fold_reconstructs_exactly(self, tmp_path):
        # rank-r data, test = training, p = r: estimates reproduce the
        # projected amplitudes
        _, data = make_snapshot_file(tmp_path, n=30, m=20, rank=3)
        cols = np.arange(20)
        records = evaluate_fold(
            data, cols, cols, r=3, p_values=[3], methods=[Method.DG], seed=0
        )
        assert records[0].recon_error <= 1e-8

    def test_masked_locations_never_selected(self, tmp_path):
        mask = np.ones(40, dtype=bool)
        mask[[0, 7, 19, 33]] = False
        path, _ = make_snapshot_file(tmp_path, noise=0.05, mask=mask)
        cfg = ExperimentConfig(
            mode="cv",
            r=3,
            k=4,
            p_min=4,
            p_max=4,
            methods=[Method.DG, Method.EG],
            data_path=str(path),
            data_format=SnapshotFormat.RAW_F64,
            out_dir=str(tmp_path / "cvm"),
        )
        rec_path, _ = run_cv(cfg)
        for row in read_csv(rec_path)[1:]:
            locations = [int(t) for t in row[4].split()]
            assert all(mask[loc - 1] for loc in locations)

    def test_nan_at_masked_locations_reads_as_zero(self, tmp_path):
        mask = np.ones(60, dtype=bool)
        mask[[4, 41]] = False
        x = np.random.default_rng(5).standard_normal((60, 30))
        outputs = []
        for fill in (0.0, np.nan):
            x[~mask] = fill
            path = tmp_path / f"snap_{fill}.raw"
            save_snapshots(SnapshotData(x, mask=mask), path, SnapshotFormat.RAW_F64)
            cfg = ExperimentConfig(
                mode="cv",
                r=3,
                k=3,
                p_min=2,
                p_max=5,
                data_path=str(path),
                data_format=SnapshotFormat.RAW_F64,
                out_dir=str(tmp_path / f"cv_{fill}"),
            )
            rec_path, _ = run_cv(cfg)
            outputs.append(strip_wall_time(read_csv(rec_path)))
        assert outputs[0] == outputs[1]
        col = outputs[1][0].index("recon_error")
        assert all(np.isfinite(float(row[col])) for row in outputs[1][1:])

    def test_rank_larger_than_training_fails_cleanly(self, tmp_path):
        path, _ = make_snapshot_file(tmp_path, n=10, m=6)
        cfg = ExperimentConfig(
            mode="cv",
            r=6,  # training folds have fewer than 6 columns
            k=3,
            p_min=2,
            p_max=2,
            methods=[Method.DG],
            data_path=str(path),
            data_format=SnapshotFormat.RAW_F64,
            out_dir=str(tmp_path / "cvr"),
        )
        from sensorsel import RankOutOfRangeError

        with pytest.raises(RankOutOfRangeError):
            run_cv(cfg)


    def test_unsorted_training_columns_fit_the_pod_of_those_columns(self, tmp_path, monkeypatch):
        path, _ = make_snapshot_file(tmp_path, n=300, m=120, rank=8, noise=0.05, seed=1)
        snapshots = load_snapshots(path, SnapshotFormat.RAW_F64)
        plan = kfold(snapshots.m, 4)
        train, test = plan.train_columns(2), plan.test_columns(2)
        shuffled = np.random.Generator(np.random.PCG64(1)).permutation(train)
        pods = []
        fold_records = cli._fold_records

        def spy(snapshots, pod, *args):
            pods.append(pod)
            return fold_records(snapshots, pod, *args)

        monkeypatch.setattr(cli, "_fold_records", spy)
        args = (5, list(range(1, 9)), [Method.DG, Method.AG, Method.EG], 2, 0)
        unsorted, ordered = (evaluate_fold(snapshots, cols, test, *args) for cols in (shuffled, train))
        assert_pod_close(pods[0], pod_truncate(SnapshotData(snapshots.X[:, shuffled]), 5))
        assert [(a.method, a.p, a.indices, a.locations) for a in unsorted] == [
            (b.method, b.p, b.indices, b.locations) for b in ordered
        ]


def test_cv_copies_no_fold_s_training_columns(tmp_path):
    n, m = 4000, 300
    mask = np.random.default_rng(8).random(n) >= 0.3
    path, _ = make_snapshot_file(tmp_path, n=n, m=m, rank=8, noise=0.05, seed=2, mask=mask)
    cfg = ExperimentConfig(
        mode="cv", r=5, k=5, p_min=1, p_max=10, methods=[Method.DG, Method.AG],
        data_path=str(path), data_format=SnapshotFormat.RAW_F64, out_dir=str(tmp_path / "cv"),
    )
    tracemalloc.start()  # NumPy reports its buffers to tracemalloc
    try:
        run_cv(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the loaded X (1.0), its XᵀX and the folds' n x kr products (0.35 together);
    # a copy of one fold's training columns would add 0.8
    assert peak <= 1.5 * n * m * 8


def per_p_steps(cand, method):
    """Reference for ``cli.greedy_steps``: one ``run_selector`` call per p."""
    return (cli.run_selector(cand, p, method) for p in count(1))


def reference_cells(cand, indices, z_true, y):
    """Float cells of one record by the per-record path: one sensor set at a time."""
    s = build_measurement(cand, indices)
    info = fisher_info(s)
    values = (det_index(info), trace_inv_index(info), min_eig_index(info))
    return [repr(v) for v in (*values, reconstruction_error(z_true, estimate(s, y)))]


def test_cv_on_snapshots_whose_squares_overflow(tmp_path, capfd):
    # entries around 1e200: the normal matrix and the squared norms overflow
    x = np.random.Generator(np.random.PCG64(0)).standard_normal((300, 100)) * 1e200
    path = tmp_path / "big.raw"
    save_snapshots(SnapshotData(x), path, SnapshotFormat.RAW_F64)
    out = tmp_path / "out"
    argv = ["cv", "--data", str(path), "--format", "raw", "--r", "3", "--k", "2"]
    assert main([*argv, "--p-max", "4", "--methods", "dg,ag", "--out", str(out)]) == 0
    assert capfd.readouterr() == (f"wrote {out / 'cv.csv'}, {out / 'cv_summary.csv'}\n", "")
    rows = read_csv(out / "cv.csv")
    column = rows[0].index("recon_error")
    assert len(rows) == 17 and all(np.isfinite(float(row[column])) for row in rows[1:])


class TestBatchEvaluation:
    """The stacked evaluation gives every record the bits of the per-record path."""

    @pytest.mark.parametrize(
        "shape",
        [{}, {"r": 1}, {"p_min": 6, "p_max": 6}, {"methods": [Method.EG]}],
        ids=["r4", "1x1-grams", "one-p", "one-method"],
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_random_records_equal_the_per_record_path(self, tmp_path, sigma, shape):
        cfg = small_config(tmp_path, **{"n": 30, "r": 4, "p_min": 1, "p_max": 9, "trials": 3, **shape})
        cfg.sigma = sigma
        rows = read_csv(run_random(cfg)[0])[1:]
        assert {int(row[1]) for row in rows} == set(range(cfg.p_min, cfg.p_max + 1))
        assert {row[0] for row in rows} == {method.value for method in cfg.methods}
        for method, p, trial, indices, _, *cells, _ in rows:
            trial, indices = int(trial), tuple(int(i) for i in indices.split())
            cand = gen_random_system(cfg.n, cfg.r, derive_seed(cfg.seed, trial, 0))
            z = gen_latent(cfg.r, 1, derive_seed(cfg.seed, trial, 1))
            y = cand.take(indices) @ z
            if sigma > 0:
                code = cli._METHOD_CODE[Method(method)]
                rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, trial, 3, code, int(p))))
                y = y + sigma * rng.standard_normal(y.shape)
            assert cells == reference_cells(cand, indices, z, y)

    def test_cv_records_equal_the_per_record_path(self, tmp_path):
        mask = np.ones(40, dtype=bool)
        mask[[4, 11, 30]] = False
        path, _ = make_snapshot_file(tmp_path, n=40, m=25, rank=5, noise=0.1, mask=mask)
        snapshots = load_snapshots(path, SnapshotFormat.RAW_F64)
        plan = kfold(snapshots.m, 3)
        methods = [Method.DG, Method.AG, Method.EG, Method.RANDOM]
        for fold in range(1, 4):
            train, test = plan.train_columns(fold), plan.test_columns(fold)
            records = evaluate_fold(snapshots, train, test, 4, list(range(1, 10)), methods, fold, 3)
            assert {rec.p for rec in records} == set(range(1, 10))
            pod = pod_truncate(SnapshotData(snapshots.X[:, train], mask=snapshots.mask), 4)
            cand, _ = sensor_candidates(pod, snapshots.mask)
            x_test = snapshots.X[:, test]
            z_true = pod.modes.T @ x_test
            for rec in records:
                y = x_test[np.array(rec.locations) - 1, :]
                cells = [repr(rec.det_index), repr(rec.trace_inv_index)]
                cells += [repr(rec.min_eig_index), repr(rec.recon_error)]
                assert cells == reference_cells(cand, rec.indices, z_true, y)

    def test_the_first_failing_record_in_run_order_is_named_across_groups(self, monkeypatch):
        """At r = 3 with p in the order 4, 2, 5, the p=2 and p=5 records are
        singular; p=5 shares the p > r group with p=4, evaluated before p=2's."""
        e1, e2, e3 = np.eye(3)
        cand = CandidateMatrix([e1, 2.0 * e1, e2, e3, e1 + e2, e1 - e2])
        picks = {4: (1, 3, 4, 5), 2: (1, 2), 5: (1, 2, 3, 5, 6)}  # rank 3, 1 and 2

        def fixed(cand, p, method, seed):
            return SelectionResult(method, picks[p], (np.nan,) * p, 0.0)

        monkeypatch.setattr(cli, "run_selector", fixed)
        z = gen_latent(3, 1, 1)
        with pytest.raises(SingularInformationError, match="^method=random p=2 trial=0: Gram matrix is singular"):
            cli._unit_records(
                cand, np.arange(1, 7), [Method.RANDOM], [4, 2, 5], "trial", 0, (0,), z,
                lambda sels, rows, locs: rows @ z,
            )

    def test_an_error_whose_squares_overflow_equals_the_per_record_path(self):
        """Past r the estimate is exact to rounding, so the error is about 1e-16
        of a reference whose squares overflow: both paths read it at the scale
        of ``z``."""
        cand = gen_random_system(12, 3, 0)
        z = 1e160 * gen_latent(3, 1, 1)
        records = cli._unit_records(
            cand, np.arange(1, 13), [Method.DG, Method.RANDOM], range(1, 7), "trial", 0, (0,), z,
            lambda sels, rows, locs: rows @ z,
        )
        for rec in records:
            cells = [repr(rec.det_index), repr(rec.trace_inv_index), repr(rec.min_eig_index)]
            cells.append(repr(rec.recon_error))
            assert cells == reference_cells(cand, rec.indices, z, cand.take(rec.indices) @ z)
        assert all(0.0 < rec.recon_error < 1e-12 for rec in records if rec.p > 3)
        with pytest.raises(NumericalError, match="^method=dg p=1 trial=0: true latent matrix has zero norm"):
            cli._unit_records(
                cand, np.arange(1, 13), [Method.DG], [1, 2], "trial", 0, (0,), 0.0 * z,
                lambda sels, rows, locs: rows @ z,
            )

    @pytest.mark.parametrize("k", [-520, -510, 531])
    def test_errors_keep_their_bits_at_any_scale_of_z(self, monkeypatch, k):
        """Squares of z * 2^k leave the float range, those at k = -520 and -510
        as subnormals; the stacked pass settles every record with the bits of
        k = 0."""
        cand = gen_random_system(12, 3, 0)
        z = gen_latent(3, 1, 1)

        def errors(z):
            records = cli._unit_records(
                cand, np.arange(1, 13), [Method.DG, Method.RANDOM], range(1, 7), "trial", 0, (0,), z,
                lambda sels, rows, locs: rows @ z,
            )
            return [rec.recon_error for rec in records]

        calls, info = [], fisher.fisher_info
        monkeypatch.setattr(fisher, "fisher_info", lambda s: calls.append(s.indices) or info(s))
        assert errors(np.ldexp(z, k)) == errors(z)
        assert calls == []

    def test_records_are_solved_alone_when_every_stacked_eigensolve_fails(self, tmp_path, monkeypatch):
        plain = run_random(small_config(tmp_path, out_dir=str(tmp_path / "plain")))
        eigvalsh = fisher._eigvalsh
        stacks = []

        def failing_on_stacks(m):
            if m.ndim == 3:
                stacks.append(m.shape)
                raise EigenSolverError("Eigenvalues did not converge")
            return eigvalsh(m)

        monkeypatch.setattr(fisher, "_eigvalsh", failing_on_stacks)
        alone = run_random(small_config(tmp_path, out_dir=str(tmp_path / "alone")))
        assert stacks
        for path_plain, path_alone in zip(plain, alone):
            assert strip_wall_time(read_csv(path_alone)) == strip_wall_time(read_csv(path_plain))

    def test_a_record_whose_own_eigensolve_fails_is_named(self, tmp_path, monkeypatch, capsys):
        """Every stacked solve fails, and so does ag's p=3 Gram of trial 0 when
        solved alone: the records before it evaluate, and the failure names it."""
        cand = gen_random_system(15, 3, derive_seed(5, 0, 0))
        picks = selectors.select_ag(cand, 3).indices
        assert picks != selectors.select_dg(cand, 3).indices  # no earlier record shares its Gram
        target = fisher._gram(cand.take(picks))
        eigvalsh = fisher._eigvalsh
        solved = []

        def failing(m):
            if m.ndim == 3 or np.array_equal(m, target):
                raise EigenSolverError("Eigenvalues did not converge")
            solved.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(fisher, "_eigvalsh", failing)
        argv = ["random", "--n", "15", "--r", "3", "--p-min", "2", "--p-max", "4", "--trials", "2"]
        assert main([*argv, "--seed", "5", "--methods", "dg,ag", "--out", str(tmp_path)]) == 4
        assert "method=ag p=3 trial=0: Eigenvalues did not converge" in capsys.readouterr().err
        assert solved == [(2, 2), (3, 3), (3, 3), (2, 2)]  # dg p=2..4 and ag p=2 of trial 0

    def test_only_flagged_records_take_the_per_record_path(self, monkeypatch):
        """The stacked pass settles ordinary records; the per-record path runs
        once for each record it leaves, in run order, up to the first failure."""
        calls = []
        info = fisher.fisher_info
        monkeypatch.setattr(fisher, "fisher_info", lambda s: calls.append(s.indices) or info(s))
        cand = gen_random_system(12, 3, 0)

        def evaluated(cand, z, methods, sizes):
            records = cli._unit_records(
                cand, np.arange(1, cand.n + 1), methods, sizes, "trial", 0, (0,), z,
                lambda sels, rows, locs: rows @ z,
            )
            return [rec.indices for rec in records]

        evaluated(cand, gen_latent(3, 1, 1), [Method.DG, Method.RANDOM], range(1, 7))
        assert calls == []
        evaluated(cand, 1e160 * gen_latent(3, 1, 1), [Method.DG, Method.RANDOM], range(1, 7))
        assert calls == []

        calls.clear()  # the singular fixture of the run-order test above
        e1, e2, e3 = np.eye(3)
        singular = CandidateMatrix([e1, 2.0 * e1, e2, e3, e1 + e2, e1 - e2])
        picks = {4: (1, 3, 4, 5), 2: (1, 2), 5: (1, 2, 3, 5, 6)}
        monkeypatch.setattr(
            cli, "run_selector", lambda cand, p, method, seed: SelectionResult(method, picks[p], (), 0.0)
        )
        with pytest.raises(SingularInformationError, match="^method=random p=2 trial=0: "):
            evaluated(singular, gen_latent(3, 1, 1), [Method.RANDOM], [4, 2, 5])
        assert calls == [(1, 2)]


class TestCvNormalMatrix:
    """A cv run's folds take their Lanczos normal matrix from one XᵀX of the file."""

    R, K, P_MAX = 5, 4, 8
    METHODS = [Method.DG, Method.AG, Method.EG, Method.RANDOM]

    @pytest.fixture
    def spies(self, monkeypatch, lanczos_normals):
        """Snapshot sets whose ``gram`` is computed, and the normal matrices of the
        operators passed to eigsh, each scaled to a largest diagonal entry in [1/2, 1)."""
        grams = []
        gram_func, eigsh = SnapshotData.gram.func, scipy.sparse.linalg.eigsh

        def gram(self):
            grams.append(self)
            return gram_func(self)

        def checking_eigsh(a, *args, **kwargs):
            assert kwargs["v0"].shape == a.shape[:1]  # else ARPACK reads past the start vector
            return eigsh(a, *args, **kwargs)

        monkeypatch.setattr(SnapshotData.gram, "func", gram)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", checking_eigsh)
        return grams, lanczos_normals

    def masked_file(self, tmp_path, n, m):
        mask = np.random.default_rng(7).random(n) >= 0.1
        path, _ = make_snapshot_file(tmp_path, n=n, m=m, rank=8, noise=0.05, seed=4, mask=mask)
        return path

    def cv_rows(self, path, out):
        cfg = ExperimentConfig(
            mode="cv", r=self.R, k=self.K, p_min=1, p_max=self.P_MAX, seed=3, methods=self.METHODS,
            data_path=str(path), data_format=SnapshotFormat.RAW_F64, out_dir=str(out),
        )
        return read_csv(run_cv(cfg)[0])

    def test_tall_folds_share_one_gram_and_match_their_own(self, tmp_path, spies, monkeypatch):
        grams, normals = spies
        path = self.masked_file(tmp_path, n=400, m=120)
        shared = self.cv_rows(path, tmp_path / "shared")
        (snapshots,) = grams  # XᵀX of the file, formed once
        plan = kfold(snapshots.m, self.K)
        assert len(normals) == self.K
        for fold, normal in enumerate(normals, start=1):
            train = plan.train_columns(fold)
            np.testing.assert_array_equal(normal, snapshots.gram[np.ix_(train, train)])

        fused = cli.data_mod.fold_pods

        def own_gram_pods(data, r, folds):  # each fold forms the Gram of its training columns
            return [fused(SnapshotData(data.X[:, cols], mask=data.mask), r, [None])[0] for cols in folds]

        monkeypatch.setattr(cli.data_mod, "fold_pods", own_gram_pods)
        own = self.cv_rows(path, tmp_path / "own")
        assert shared[0] == own[0]
        assert len(shared) == len(own) == 1 + self.K * len(self.METHODS) * self.P_MAX
        names = ("det_index", "trace_inv_index", "min_eig_index", "recon_error")
        columns = [shared[0].index(name) for name in names]
        for a, b in zip(shared[1:], own[1:]):
            assert a[:5] == b[:5]  # method, p, fold, indices, locations
            for c in columns:
                assert float(a[c]) == pytest.approx(float(b[c]), rel=1e-12, abs=0)

    def test_wide_folds_form_their_own_normal_matrix(self, tmp_path, spies):
        grams, normals = spies
        path = self.masked_file(tmp_path, n=60, m=400)
        self.cv_rows(path, tmp_path / "cv")
        assert grams == []
        assert [a.shape for a in normals] == [(60, 60)] * self.K
        snapshots = load_snapshots(path, SnapshotFormat.RAW_F64)
        plan = kfold(snapshots.m, self.K)
        for fold, normal in enumerate(normals, start=1):
            x = snapshots.X[:, plan.train_columns(fold)]
            np.testing.assert_allclose(normal, x @ x.T, rtol=1e-13, atol=0)


def reference_summary_rows(records):
    """``_summary_rows`` as one ``np.mean`` per list of values and one division per ratio."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.method, rec.p), []).append(rec)
    names = ["det_index", "trace_inv_index", "min_eig_index", "recon_error"]
    means = {
        key: {name: float(np.mean([getattr(rec, name) for rec in recs])) for name in [*names, "wall_time_s"]}
        for key, recs in groups.items()
    }
    rows = []
    for method, p in sorted(means):
        stats = means[(method, p)]
        for name in names:
            rows.append([method, str(p), f"{name}_mean", repr(stats[name])])
            if ("dg", p) in means:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = float(np.float64(stats[name]) / means[("dg", p)][name])
                rows.append([method, str(p), f"{name}_mean_dgnorm", repr(ratio)])
        rows.append([method, str(p), "wall_time_s_mean", repr(stats["wall_time_s"])])
    return rows


class TestSummaryRows:
    """The array summary writes the rows of one ``np.mean`` per list, byte for byte."""

    def records(self, methods, count, zero_dg=False, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for method in methods:
            for p in (1, 2, 3):
                for trial in range(count):
                    # magnitudes spread over 16 decades, so the order of summation shows
                    values = rng.standard_normal(5) * 10.0 ** rng.integers(-8, 8, 5)
                    if zero_dg and method == "dg":
                        values[3] = 0.0  # recon_error: the dg mean is 0
                        values[2] = 0.0 if p == 1 else values[2]
                    out.append(cli.ExperimentRecord(method, p, trial, (1,), (1,), *values.tolist()))
        order = rng.permutation(len(out))
        return [out[k] for k in order]

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 200])
    @pytest.mark.parametrize("methods", [("dg", "ag", "random"), ("ag", "eg")], ids=["dg", "no-dg"])
    def test_equals_a_mean_per_list(self, count, methods):
        records = self.records(methods, count, seed=count)
        rows = cli._summary_rows(records)
        assert rows == reference_summary_rows(records)
        assert any(row[2].endswith("_dgnorm") for row in rows) == ("dg" in methods)

    @pytest.mark.parametrize("count", [1, 9])
    def test_a_dg_mean_of_zero(self, count):
        records = self.records(("dg", "ag", "eg"), count, zero_dg=True)
        rows = cli._summary_rows(records)
        assert rows == reference_summary_rows(records)
        ratios = {row[3] for row in rows if row[2] == "recon_error_mean_dgnorm"}
        assert "nan" in ratios and ratios & {"inf", "-inf"}


class TestSelectOnce:
    """Each greedy method runs once per trial or fold and serves every p."""

    def cv_config(self, tmp_path, out):
        path, _ = make_snapshot_file(tmp_path, n=40, m=25, rank=4, noise=0.1)
        return ExperimentConfig(
            mode="cv", r=4, k=3, p_min=1, p_max=9, seed=3,
            methods=[Method.DG, Method.AG, Method.EG, Method.RANDOM],
            data_path=str(path), data_format=SnapshotFormat.RAW_F64,
            out_dir=str(tmp_path / out),
        )

    @pytest.mark.parametrize("mode", ["random", "cv"])
    def test_csvs_equal_one_run_per_p(self, tmp_path, monkeypatch, mode):
        if mode == "random":
            configs = [small_config(tmp_path, sigma=0.2, out_dir=str(tmp_path / out)) for out in "ab"]
            runner = run_random
        else:
            configs = [self.cv_config(tmp_path, out) for out in "ab"]
            runner = run_cv
        once = runner(configs[0])
        monkeypatch.setattr(cli, "greedy_steps", per_p_steps)
        per_p = runner(configs[1])
        for a, b in zip(once, per_p):
            assert strip_wall_time(read_csv(a)) == strip_wall_time(read_csv(b))

    def test_random_runs_each_greedy_method_once_per_trial(self, tmp_path, monkeypatch):
        real = selectors._greedy
        runs = []

        def counted(cand, method, *args, **kwargs):
            runs.append((float(cand.rows[0, 0]), method))
            return real(cand, method, *args, **kwargs)

        monkeypatch.setattr(selectors, "_greedy", counted)
        cfg = small_config(tmp_path)
        run_random(cfg)
        assert len(runs) == len(set(runs)) == 3 * cfg.trials

    def test_wall_time_grows_with_p(self, tmp_path):
        rows = read_csv(run_random(small_config(tmp_path, trials=1, sigma=0.2))[0])[1:]
        for method in ("dg", "ag", "eg"):
            times = [float(row[9]) for row in rows if row[0] == method]
            assert times == sorted(times) and times[0] > 0.0


class TestSubmodReport:
    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig(mode="submod", seed=0, out_dir=str(tmp_path / "s"))
        text_path, wit_path, bound_path = run_submod_report(cfg)
        text = text_path.read_text()
        assert "neither submodular nor supermodular" in text
        assert "greedy bound instance" in text
        ratios = [float(r[3]) for r in read_csv(bound_path)[1:]]
        assert all(r >= 1 - 1 / np.e - 1e-9 for r in ratios)
        wit_rows = read_csv(wit_path)
        assert wit_rows[0] == ["objective", "check", "S", "T", "i"]
        assert any(r[0] == "e_raw embedded" for r in wit_rows[1:])

    def test_deterministic(self, tmp_path):
        cfg_a = ExperimentConfig(mode="submod", seed=5, out_dir=str(tmp_path / "a"))
        cfg_b = ExperimentConfig(mode="submod", seed=5, out_dir=str(tmp_path / "b"))
        paths_a = run_submod_report(cfg_a)
        paths_b = run_submod_report(cfg_b)
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()


class TestWriteCsv:
    def test_files_equal_the_csv_writer_bytes(self, tmp_path, monkeypatch):
        written = {}
        write_csv = cli._write_csv

        def recording(path, header, rows):
            written[path.name] = [header, *rows]
            write_csv(path, header, written[path.name][1:])

        monkeypatch.setattr(cli, "_write_csv", recording)
        run_random(small_config(tmp_path, sigma=0.1))
        run_submod_report(ExperimentConfig(mode="submod", seed=3, out_dir=str(tmp_path / "out")))
        assert sorted(written) == [
            "random.csv", "random_summary.csv", "submod_nemhauser.csv", "submod_witnesses.csv"
        ]
        for name, rows in written.items():
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_a_cell_that_needs_quoting_raises(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            cli._write_csv(path, ["a", "b"], [["1", cell]])
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("row", [["1"], ["1", "2", "3"]], ids=["short", "long"])
    def test_a_row_with_another_cell_count_raises(self, tmp_path, row):
        with pytest.raises(TypeError):
            cli._write_csv(tmp_path / "x.csv", ["a", "b"], [row])


class TestMainExitCodes:
    def test_success_random(self, tmp_path, capsys):
        rc = main(
            [
                "random", "--n", "15", "--r", "3", "--p-min", "2", "--p-max", "3",
                "--trials", "2", "--seed", "1", "--methods", "dg",
                "--out", str(tmp_path / "ok"),
            ]
        )
        assert rc == 0
        assert "random.csv" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path):
        rc = main(
            ["random", "--p-min", "9", "--p-max", "2", "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_dc_method_exit_2(self, tmp_path):
        # an unknown method, and a method listed twice, which would repeat its records
        for methods in ("dc", "dg,dg", "random,ag,random"):
            rc = main(
                ["random", "--methods", methods, "--out", str(tmp_path / "x")]
            )
            assert rc == 2

    def test_data_error_exit_3(self, tmp_path):
        rc = main(
            [
                "cv", "--data", str(tmp_path / "missing.raw"), "--format", "raw",
                "--r", "3", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("mode", [SMALL_RANDOM, ["submod"]], ids=["random", "submod"])
    def test_an_unwritable_out_is_a_data_error(self, tmp_path, capsys, mode):
        existing = tmp_path / "file"
        existing.write_text("")
        for out in (existing, existing / "sub"):  # FileExistsError, NotADirectoryError
            assert main([*mode, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "Traceback" not in err

    def test_numerical_error_exit_4(self, tmp_path):
        # two identical candidate rows: the A-greedy runs out of admissible rows
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        path = tmp_path / "dup.csv"
        save_snapshots(SnapshotData(x), path, SnapshotFormat.CSV)
        rc = main(
            [
                "select", "--data", str(path), "--format", "csv",
                "--method", "ag", "--p", "2",
            ]
        )
        assert rc == 4

    def test_select_prints_indices(self, tmp_path, capsys):
        cand = gen_random_system(12, 3, seed=4)
        path = tmp_path / "cand.csv"
        save_snapshots(SnapshotData(cand.rows), path, SnapshotFormat.CSV)
        rc = main(
            ["select", "--data", str(path), "--format", "csv", "--method", "dg", "--p", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().split()
        assert len(out) == 4
        assert all(1 <= int(tok) <= 12 for tok in out)

    def test_select_leaves_scipy_linalg_unloaded(self, tmp_path):
        path = tmp_path / "cand.csv"
        save_snapshots(SnapshotData(gen_random_system(12, 3, seed=4).rows), path, SnapshotFormat.CSV)
        script = (
            "import sys\n"
            "from sensorsel import cli\n"
            "for method in ('dg', 'ag', 'eg', 'random', 'brute'):\n"
            f"    assert cli.main(['select', '--data', {str(path)!r}, '--p', '5', '--method', method]) == 0\n"
            "for criterion in ('d', 'a', 'e'):\n"
            f"    assert cli.main(['select', '--data', {str(path)!r}, '--p', '5', '--method', 'brute', '--criterion', criterion]) == 0\n"
            f"assert cli.main({SMALL_RANDOM + ['--out', str(tmp_path / 'rand')]!r}) == 0\n"
            f"assert cli.main(['submod', '--out', {str(tmp_path / 'sub')!r}]) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(sensorsel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True,
            text=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_cv_whose_folds_take_lapack_leaves_scipy_unloaded(self, tmp_path):
        # training folds of 30 columns are below the Lanczos rule at r=5 (4 (2r + 1) = 44)
        path, _ = make_snapshot_file(tmp_path, n=400, m=60, rank=8, noise=0.05)
        argv = ["cv", "--data", str(path), "--format", "raw", "--r", "5", "--k", "2"]
        argv += ["--p-max", "10", "--out", str(tmp_path / "cv")]
        script = (
            "import sys\n"
            "from sensorsel import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(sensorsel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True,
            text=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_random_summary_with_a_zero_dg_mean(self):
        # one trial of every method at p = 2..5, where dg's recon_error at p = 3 is exactly 0.0
        records = [
            cli.ExperimentRecord(
                method, p, 0, tuple(range(1, p + 1)), tuple(range(1, p + 1)),
                2.0, 3.0, 0.5, 0.0 if (method, p) == ("dg", 3) else 0.25, 1e-3,
            )
            for method in ("dg", "ag", "eg", "random")
            for p in range(2, 6)
        ]
        rows = cli._summary_rows(records)
        norm = {(row[0], row[1]): row[3] for row in rows if row[2] == "recon_error_mean_dgnorm"}
        assert norm[("dg", "3")] == "nan"
        assert norm[("random", "3")] == "inf"
        assert norm[("dg", "2")] == "1.0"
        assert len(rows) == 4 * 4 * (2 * 4 + 1)  # methods * p values * rows per (method, p)

    @pytest.mark.parametrize("method", ["dg", "brute"])
    def test_select_picks_only_valid_rows(self, tmp_path, capsys, method):
        x = gen_random_system(6, 2, seed=4).rows.copy()
        x[2] = np.nan
        mask = np.arange(6) != 2
        path = tmp_path / "masked.raw"
        save_snapshots(SnapshotData(x, mask=mask), path, SnapshotFormat.RAW_F64)
        argv = ["select", "--data", str(path), "--format", "raw", "--method", method, "--p", "3"]
        assert main(argv) == 0
        picked = [int(tok) for tok in capsys.readouterr().out.split()]
        assert 3 not in picked
        rows = np.flatnonzero(mask) + 1
        expected = cli.run_selector(CandidateMatrix(x[mask]), 3, Method(method)).indices
        assert picked == [rows[i - 1] for i in expected]

    @pytest.mark.parametrize(
        "argv, config_text",
        [
            pytest.param(["cv", "--data", "snap.raw", "--sigma", "0.1"], None, id="cv-sigma"),
            pytest.param(["random", "--epsilon", "1e-3"], None, id="random-epsilon"),
            pytest.param(["submod", "--p-min", "0"], None, id="submod-p-min"),
            pytest.param(["cv", "--data", "snap.raw"], "sigma=0.1\n", id="cv-file-sigma"),
            pytest.param(["cv", "--data", "snap.raw"], "mode=random\n", id="cv-file-mode"),
            pytest.param(["random", "--n", "abc"], None, id="random-n-abc"),
            pytest.param(["random", "--n", "0"], None, id="random-n-zero"),
            pytest.param(["cv", "--data", "snap.raw", "--r", "2", "--k", "1"], None, id="cv-one-fold"),
            pytest.param(["random"], "n=40\nr 4\n", id="random-file-line-without-equals"),
            pytest.param(["random", "--seed", "-1"], None, id="random-seed-negative"),
            pytest.param(["cv", "--data", "snap.raw", "--format", "bogus"], None, id="cv-format"),
            pytest.param(["select", "--data", "cand.csv", "--p", "0"], None, id="select-p-0"),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "1", "--seed", "-1"], None, id="select-seed"
            ),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "1", "--method", "dc"], None, id="select-dc"
            ),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "3", "--method", "dg", "--criterion", "e"],
                None,
                id="select-dg-criterion",
            ),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "3", "--method", "dg", "--seed", "5"],
                None,
                id="select-dg-seed",
            ),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "3", "--method", "random", "--criterion", "a"],
                None,
                id="select-random-criterion",
            ),
            pytest.param(
                ["select", "--data", "cand.csv", "--p", "3", "--method", "brute", "--seed", "0"],
                None,
                id="select-brute-seed",
            ),
            pytest.param(["submod", "--epsilon", "nan"], None, id="submod-epsilon-nan"),
            pytest.param(["submod", "--epsilon", "inf"], None, id="submod-epsilon-inf"),
            pytest.param([*SMALL_RANDOM, "--sigma", "nan"], None, id="random-sigma-nan"),
            pytest.param([*SMALL_RANDOM, "--sigma", "inf"], None, id="random-sigma-inf"),
        ],
    )
    def test_unused_or_bad_setting_exit_2(self, tmp_path, monkeypatch, argv, config_text):
        monkeypatch.chdir(tmp_path)
        if config_text is not None:
            Path("exp.cfg").write_text(config_text)
            argv = [*argv, "--config", "exp.cfg"]
        assert exit_code(argv) == 2
        assert not Path("out").exists()

    def test_select_takes_criterion_with_brute_and_seed_with_random(self, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        save_snapshots(SnapshotData(gen_random_system(10, 3, seed=4).rows), path, SnapshotFormat.CSV)
        cand = CandidateMatrix(load_snapshots(path, SnapshotFormat.CSV).X)
        cases = [
            (["--method", "brute", "--criterion", "e"], Method.BRUTE, {"criterion": Criterion.E}),
            (["--method", "brute"], Method.BRUTE, {"criterion": Criterion.D}),
            (["--method", "random", "--seed", "5"], Method.RANDOM, {"seed": 5}),
            (["--method", "random"], Method.RANDOM, {"seed": 0}),
        ]
        for flags, method, kwargs in cases:
            assert main(["select", "--data", str(path), "--p", "4", *flags]) == 0
            picks = cli.run_selector(cand, 4, method, **kwargs).indices
            assert capsys.readouterr().out == " ".join(map(str, picks)) + "\n"

    @pytest.mark.parametrize("command", ["select", "cv"])
    def test_raw_file_read_as_csv_exit_3(self, tmp_path, capsys, command):
        path, _ = make_snapshot_file(tmp_path)
        argv = [command, "--data", str(path), "--format", "csv"]
        argv += ["--p", "2"] if command == "select" else ["--r", "3", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "cv"])
    def test_an_oversized_csv_header_exit_3(self, tmp_path, capsys, command):
        # the header's n = 10**17 would size an 800 PB array; the short line refutes it first
        path = tmp_path / "huge.csv"
        path.write_text(f"{10**17},1\n1.0\n")
        argv = [command, "--data", str(path), "--format", "csv"]
        argv += ["--p", "1"] if command == "select" else ["--r", "1", "--out", str(tmp_path / "x")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["select", "cv"])
    def test_every_row_masked_exit_3(self, tmp_path, capsys, command):
        path, _ = make_snapshot_file(tmp_path, n=4, m=10, mask=[True, False, False, False])
        blob = bytearray(path.read_bytes())
        blob[32] = 0  # the mask bytes follow the 32-byte header
        path.write_bytes(bytes(blob))
        argv = [command, "--data", str(path), "--format", "raw"]
        argv += ["--p", "1"] if command == "select" else ["--r", "1", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert "every location invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["random", "cv"])
    def test_numerical_failure_names_the_case(self, tmp_path, monkeypatch, capsys, command):
        fail_at_step(monkeypatch, "_ag_score", 3)
        if command == "random":
            argv = ["random", "--n", "15", "--r", "3", "--trials", "2"]
            case = "method=ag p=3 trial=0"
        else:
            path, _ = make_snapshot_file(tmp_path)
            argv = ["cv", "--data", str(path), "--format", "raw", "--r", "3"]
            case = "method=ag p=3 fold=1"
        argv += ["--p-min", "2", "--p-max", "4", "--methods", "dg,ag", "--out", str(tmp_path)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert case in err and "Gram matrix is singular" in err

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("dg", []), ("ag", []), ("eg", []),
            ("brute", ["--criterion", "a"]), ("brute", ["--criterion", "d"]),
        ],
        ids=["dg", "ag", "eg", "brute", "brute-d"],
    )
    def test_select_failure_names_the_method_and_p(self, tmp_path, capsys, method, flags):
        # the tiny-row rows: every greedy method fails at step 4, and the one 4-subset is singular
        path = tmp_path / "tiny.csv"
        save_snapshots(SnapshotData(tiny_row_candidates().rows), path, SnapshotFormat.CSV)
        assert main(["select", "--data", str(path), "--method", method, "--p", "4", *flags]) == 4
        assert capsys.readouterr().err.startswith(f"numerical failure: method={method} p=4: ")

    def test_submod_failure_names_the_objective(self, tmp_path, capsys):
        argv = ["submod", "--epsilon", "1e-30", "--out", str(tmp_path)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: case=a_eps embedded: Gram matrix is singular (")

    def test_submod_epsilon_far_above_the_gram_exits_4(self, tmp_path, capsys):
        # the offset value cancels to 0.0, so the optimum is not positive
        assert main(["submod", "--epsilon", "1e300", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: bound instance=")
        assert "at epsilon=1e+300 is not positive" in err

    def test_failure_before_p_min_is_named_p_min(self, tmp_path, monkeypatch, capsys):
        fail_at_step(monkeypatch, "_ag_score", 2)
        argv = ["random", "--n", "15", "--r", "3", "--p-min", "4", "--p-max", "5", "--trials", "1"]
        assert main([*argv, "--methods", "ag", "--out", str(tmp_path)]) == 4
        assert "method=ag p=4 trial=0: Gram matrix is singular" in capsys.readouterr().err

    def test_dg_failure_is_named_before_any_ag_work(self, tmp_path, monkeypatch, capsys):
        fail_at_step(monkeypatch, "_dg_score", 3)
        ag_steps = []
        real_ag = selectors._ag_score

        def counted_ag(state):
            ag_steps.append(len(state.selected) + 1)
            return real_ag(state)

        monkeypatch.setattr(selectors, "_ag_score", counted_ag)
        argv = ["random", "--n", "15", "--r", "3", "--p-min", "2", "--p-max", "4", "--trials", "2"]
        assert main([*argv, "--methods", "dg,ag", "--out", str(tmp_path)]) == 4
        assert "method=dg p=3 trial=0: Gram matrix is singular" in capsys.readouterr().err
        assert ag_steps == []

    @pytest.mark.parametrize(
        "methods, case",
        [
            ("random,dg", "method=random p=2 trial=0: Gram matrix is singular"),
            ("dg,random", "method=dg p=2 trial=0: step 2: every remaining row adds no direction"),
        ],
    )
    def test_evaluation_failure_is_named_in_run_order(self, tmp_path, monkeypatch, capsys, methods, case):
        """With rank-1 rows, random's p=2 record fails in evaluation and dg's step 2 in selection."""

        def rank_one(n, r, seed):
            rng = np.random.default_rng(seed)
            return CandidateMatrix(np.outer(rng.standard_normal(n), rng.standard_normal(r)))

        monkeypatch.setattr(sensorsel.data, "gen_random_system", rank_one)
        argv = ["random", "--n", "15", "--r", "3", "--p-max", "4", "--trials", "2"]
        assert main([*argv, "--methods", methods, "--out", str(tmp_path)]) == 4
        assert case in capsys.readouterr().err

    def test_a_tiny_row_fails_every_greedy_method_at_step_3(self, tmp_path, monkeypatch, capsys):
        """The tiny-row rows: row 3 is below the skip rule's floor, so every
        greedy method selects (4, 1) and finds no third row."""
        monkeypatch.setattr(sensorsel.data, "gen_random_system", lambda n, r, seed: tiny_row_candidates())
        argv = ["random", "--n", "4", "--r", "3", "--p-max", "4", "--methods", "ag"]
        assert main([*argv, "--out", str(tmp_path)]) == 4
        no_direction = "step 3: every remaining row adds no direction"
        assert f"method=ag p=3 trial=0: {no_direction}" in capsys.readouterr().err
        path = tmp_path / "tiny.csv"
        save_snapshots(SnapshotData(tiny_row_candidates().rows), path, SnapshotFormat.CSV)
        for method in ("dg", "ag", "eg"):
            argv = ["select", "--data", str(path), "--format", "csv", "--method", method]
            assert main([*argv, "--p", "2"]) == 0
            assert capsys.readouterr().out == "4 1\n"
            assert main([*argv, "--p", "3"]) == 4
            assert capsys.readouterr() == ("", f"numerical failure: method={method} p=3: {no_direction}\n")

    def test_select_on_rows_whose_squares_overflow(self, tmp_path, capsys):
        """Gaussian rows scaled by 1e200: every method prints the picks of the
        unscaled rows, with no warning."""
        rows = np.random.default_rng(50).standard_normal((15, 3))
        for name, x in (("unit", rows), ("big", 1e200 * rows)):
            save_snapshots(SnapshotData(x), tmp_path / f"{name}.csv", SnapshotFormat.CSV)
        for method in (["dg"], ["ag"], ["eg"], *(["brute", "--criterion", c] for c in "dae")):
            out = []
            for name in ("unit", "big"):
                argv = ["select", "--data", str(tmp_path / f"{name}.csv"), "--p", "7", "--method"]
                assert main([*argv, *method]) == 0
                out.append(capsys.readouterr())
            assert out[1] == out[0] and out[0].err == ""

    def test_cv_p_max_above_the_valid_locations_exits_2(self, tmp_path, capsys):
        mask = np.ones(10, dtype=bool)
        mask[[2, 5]] = False
        path, _ = make_snapshot_file(tmp_path, n=10, mask=mask)
        argv = ["cv", "--data", str(path), "--format", "raw", "--r", "3", "--p-min", "7"]
        assert main([*argv, "--p-max", "9", "--out", str(tmp_path / "out")]) == 2
        assert "requested 9 sensors from 8 candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("error", list(error_classes()), ids=lambda cls: cls.__name__)
    def test_every_error_class_exits_with_its_category_code(self, monkeypatch, capsys, error):
        categories = [base for base in CATEGORY_EXIT if issubclass(error, base)]
        assert len(categories) == 1
        code, prefix = CATEGORY_EXIT[categories[0]]

        def failing(args):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "run_select", failing)
        assert main(["select", "--data", "cand.csv", "--p", "1"]) == code
        assert capsys.readouterr().err == f"{prefix} what went wrong\n"

    def test_value_error_inside_a_run_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in the numerics")

        monkeypatch.setattr(cli, "run_selector", broken)
        with pytest.raises(ValueError, match="bug in the numerics"):
            main(["random", "--n", "15", "--r", "3", "--p-max", "3", "--out", str(tmp_path)])
