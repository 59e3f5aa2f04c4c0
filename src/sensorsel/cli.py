"""Experiment harness and command-line interface.

Subcommands: ``random`` (seeded random-system sweeps), ``cv`` (K-fold
cross-validation on a snapshot file), ``submod`` (set-function reports),
and ``select`` (one-shot selection on a provided matrix).  Runs write
plot-ready CSV files; everything except wall-clock columns is bit-stable
for a fixed seed.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import fisher, submod
from .errors import (
    ConfigError,
    DataError,
    DuplicateSensorError,
    EigenSolverError,
    FoldError,
    FormatError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    NoAdmissibleCandidateError,
    RankDeficientError,
    RankOutOfRangeError,
    SingularInformationError,
    TooManySensorsError,
    ZeroReferenceError,
)
from .selectors import Criterion, Method, SelectionResult, run_selector

_CONFIG_EXIT = (
    ConfigError,
    InstanceTooLargeError,
    TooManySensorsError,
    RankOutOfRangeError,
    FoldError,
    DuplicateSensorError,
    IndexOutOfRangeError,
    ValueError,
    NotImplementedError,
)
_DATA_EXIT = (FormatError, DataError, FileNotFoundError, IsADirectoryError)
_NUMERIC_EXIT = (
    SingularInformationError,
    EigenSolverError,
    NoAdmissibleCandidateError,
    RankDeficientError,
    ZeroReferenceError,
)

_METHOD_CODE = {Method.DG: 0, Method.AG: 1, Method.EG: 2, Method.RANDOM: 3}

_RECORD_HEADER = [
    "method",
    "p",
    "trial",
    "indices",
    "locations",
    "det_index",
    "trace_inv_index",
    "min_eig_index",
    "recon_error",
    "wall_time_s",
]

_NORMALIZED_METRICS = ["det_index", "trace_inv_index", "min_eig_index", "recon_error"]


def derive_seed(*keys: int) -> int:
    """Deterministic child seed for a tuple of integer keys."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    mode: str = "random"
    n: int = 500
    r: int = 10
    p_min: int = 1
    p_max: int = 20
    trials: int = 200
    seed: int = 0
    k: int = 5
    methods: list[Method] = field(
        default_factory=lambda: [Method.DG, Method.AG, Method.EG, Method.RANDOM]
    )
    data_path: str | None = None
    data_format: data_mod.SnapshotFormat = data_mod.SnapshotFormat.CSV
    epsilon: float | None = None
    sigma: float = 0.0
    out_dir: str = "out"

    def validate(self) -> None:
        if self.mode not in ("random", "cv", "submod"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.p_min < 1 or self.p_min > self.p_max:
            raise ConfigError(f"need 1 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.mode == "random":
            if self.n < 1 or self.r < 1:
                raise ConfigError(f"n and r must be >= 1, got n={self.n} r={self.r}")
            if self.p_max > self.n:
                raise ConfigError(f"p_max={self.p_max} exceeds n={self.n}")
        if self.mode == "cv":
            if self.data_path is None:
                raise ConfigError("cv mode requires --data")
            if self.k < 2:
                raise ConfigError(f"k must be >= 2, got {self.k}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class ExperimentRecord:
    """One (method, p, trial-or-fold) result row."""

    method: str
    p: int
    trial: int
    indices: tuple[int, ...]
    locations: tuple[int, ...]
    det_index: float
    trace_inv_index: float
    min_eig_index: float
    recon_error: float
    wall_time_s: float

    def row(self) -> list[str]:
        return [
            self.method,
            str(self.p),
            str(self.trial),
            " ".join(str(i) for i in self.indices),
            " ".join(str(i) for i in self.locations),
            repr(self.det_index),
            repr(self.trace_inv_index),
            repr(self.min_eig_index),
            repr(self.recon_error),
            repr(self.wall_time_s),
        ]


def _evaluate_selection(
    sel: SelectionResult,
    s: fisher.SensorSet,
    trial: int,
    locations: tuple[int, ...],
    z_true: np.ndarray,
    y: np.ndarray,
) -> ExperimentRecord:
    """Record of one selection: Fisher indices of the selected set and the reconstruction error."""
    info = fisher.fisher_info(s)
    return ExperimentRecord(
        method=sel.method.value,
        p=len(sel.indices),
        trial=trial,
        indices=sel.indices,
        locations=locations,
        det_index=fisher.det_index(info),
        trace_inv_index=fisher.trace_inv_index(info),
        min_eig_index=fisher.min_eig_index(info),
        recon_error=fisher.reconstruction_error(z_true, fisher.estimate(s, y)),
        wall_time_s=sel.wall_time,
    )


def run_random(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Random-system sweep; returns the record and summary CSV paths."""
    cfg.validate()
    if cfg.mode != "random":
        raise ConfigError(f"run_random called with mode {cfg.mode!r}")
    records: list[ExperimentRecord] = []
    p_values = range(cfg.p_min, cfg.p_max + 1)
    for trial in range(cfg.trials):
        cand = data_mod.gen_random_system(cfg.n, cfg.r, derive_seed(cfg.seed, trial, 0))
        z = data_mod.gen_latent(cfg.r, 1, derive_seed(cfg.seed, trial, 1))
        for method in cfg.methods:
            code = _METHOD_CODE[method]
            for p in p_values:
                sel = run_selector(
                    cand, p, method, seed=derive_seed(cfg.seed, trial, 2, p)
                )
                s = fisher.build_measurement(cand, sel.indices)
                y = s.measurement @ z
                if cfg.sigma > 0:
                    noise_rng = np.random.Generator(
                        np.random.PCG64(derive_seed(cfg.seed, trial, 3, code, p))
                    )
                    y = y + cfg.sigma * noise_rng.standard_normal(y.shape)
                records.append(_evaluate_selection(sel, s, trial, sel.indices, z, y))
    return _emit(records, Path(cfg.out_dir), "random")


def run_cv(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """K-fold cross-validation on a snapshot file; returns CSV paths."""
    cfg.validate()
    if cfg.mode != "cv":
        raise ConfigError(f"run_cv called with mode {cfg.mode!r}")
    snapshots = data_mod.load_snapshots(cfg.data_path, cfg.data_format)
    plan = data_mod.kfold(snapshots.m, cfg.k)
    records: list[ExperimentRecord] = []
    for fold in range(1, cfg.k + 1):
        rec_fold = evaluate_fold(
            snapshots,
            train_cols=plan.train_columns(fold),
            test_cols=plan.test_columns(fold),
            r=cfg.r,
            p_values=list(range(cfg.p_min, cfg.p_max + 1)),
            methods=cfg.methods,
            fold=fold,
            seed=cfg.seed,
        )
        records.extend(rec_fold)
    return _emit(records, Path(cfg.out_dir), "cv")


def evaluate_fold(
    snapshots: data_mod.SnapshotData,
    train_cols: np.ndarray,
    test_cols: np.ndarray,
    r: int,
    p_values: list[int],
    methods: list[Method],
    fold: int = 1,
    seed: int = 0,
) -> list[ExperimentRecord]:
    """Fit POD on the training columns and score selections on the test columns.

    Sensors are selected from the training modes; observations are rows of
    the raw test snapshots at the selected locations; the reconstruction
    target is the projection of the test snapshots onto the training modes.
    """
    train = data_mod.SnapshotData(
        snapshots.X[:, train_cols], mask=snapshots.mask, grid=snapshots.grid
    )
    pod = data_mod.pod_truncate(train, r)
    cand, locations = data_mod.sensor_candidates(pod, snapshots.mask)
    x_test = snapshots.X[:, test_cols]
    z_true = pod.modes.T @ x_test
    records = []
    for method in methods:
        code = _METHOD_CODE[method]
        for p in p_values:
            sel = run_selector(
                cand, p, method, seed=derive_seed(seed, fold, 2, code, p)
            )
            s = fisher.build_measurement(cand, sel.indices)
            orig = locations[[i - 1 for i in sel.indices]]
            y = x_test[orig - 1, :]
            locs = tuple(int(i) for i in orig)
            records.append(_evaluate_selection(sel, s, fold, locs, z_true, y))
    return records


def _emit(
    records: list[ExperimentRecord], out_dir: Path, stem: str
) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = sorted(records, key=lambda rec: (rec.method, rec.p, rec.trial))
    rec_path = out_dir / f"{stem}.csv"
    with rec_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_HEADER)
        for rec in records:
            writer.writerow(rec.row())
    sum_path = out_dir / f"{stem}_summary.csv"
    with sum_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "p", "metric", "value"])
        for row in _summary_rows(records):
            writer.writerow(row)
    return rec_path, sum_path


def _summary_rows(records: list[ExperimentRecord]) -> list[list[str]]:
    """Per-(method, p) metric means in long format, plus DG-normalized means."""
    groups: dict[tuple[str, int], list[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.p), []).append(rec)
    means: dict[tuple[str, int], dict[str, float]] = {}
    for key, recs in groups.items():
        means[key] = {
            name: float(np.mean([getattr(rec, name) for rec in recs]))
            for name in _NORMALIZED_METRICS + ["wall_time_s"]
        }
    have_dg = any(method == Method.DG.value for method, _ in means)
    rows = []
    for (method, p) in sorted(means):
        stats = means[(method, p)]
        for name in _NORMALIZED_METRICS:
            rows.append([method, str(p), f"{name}_mean", repr(stats[name])])
            if have_dg and (Method.DG.value, p) in means:
                base = means[(Method.DG.value, p)][name]
                rows.append(
                    [method, str(p), f"{name}_mean_dgnorm", repr(stats[name] / base)]
                )
        rows.append([method, str(p), "wall_time_s_mean", repr(stats["wall_time_s"])])
    return rows


def run_submod_report(cfg: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Set-function report: counterexample, exhaustive checks, greedy bound.

    Returns the text report, witness CSV, and bound-check CSV paths.
    """
    cfg.validate()
    eps = cfg.epsilon if cfg.epsilon is not None else 1e-3
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sections: list[str] = []
    witness_rows: list[dict] = []

    report = submod.counterexample_report()
    sections.append(report.to_text())

    cx = submod.counterexample_matrix()
    cases = [
        ("a_eps embedded", submod.SetObjective(submod.ObjectiveKind.A_EPS, cx, eps)),
        ("e_raw embedded", submod.SetObjective(submod.ObjectiveKind.E_RAW, cx)),
        ("modular_norm embedded", submod.SetObjective(submod.ObjectiveKind.MODULAR_NORM, cx)),
    ]
    for j in range(5):
        rnd = data_mod.gen_random_system(7, 3, derive_seed(cfg.seed, 10, j))
        cases.append(
            (f"a_eps random{j}", submod.SetObjective(submod.ObjectiveKind.A_EPS, rnd, eps))
        )
    for label, obj in cases:
        rep_sub = submod.check_submodular(obj, max_set_size=5)
        rep_mon = submod.check_monotone(obj, max_set_size=5)
        sections.append(rep_sub.to_text(label))
        sections.append(rep_mon.to_text(label))
        if label.startswith("e_raw"):
            verdict = (
                "neither submodular nor supermodular"
                if not rep_sub.submodular and not rep_sub.supermodular
                else "unexpectedly structured"
            )
            sections.append(f"  e_raw verdict: {verdict}")
        for row in rep_sub.witness_rows() + rep_mon.witness_rows():
            row["objective"] = label
            witness_rows.append(row)

    bound_rows = []
    for j in range(5):
        cand = data_mod.gen_random_system(12, 3, derive_seed(cfg.seed, 20, j))
        res = submod.nemhauser_check(cand, p=3, epsilon=eps)
        bound_rows.append(res)
        sections.append(
            f"greedy bound instance {j}: greedy={res.greedy_value!r} "
            f"opt={res.opt_value!r} ratio={res.ratio!r}"
        )

    text_path = out_dir / "submod_report.txt"
    text_path.write_text("\n\n".join(sections) + "\n")
    wit_path = out_dir / "submod_witnesses.csv"
    with wit_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective", "check", "S", "T", "i"])
        for row in witness_rows:
            writer.writerow([row["objective"], row["check"], row["S"], row["T"], row["i"]])
    bound_path = out_dir / "submod_nemhauser.csv"
    with bound_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "greedy_value", "opt_value", "ratio"])
        for j, res in enumerate(bound_rows):
            writer.writerow([j, repr(res.greedy_value), repr(res.opt_value), repr(res.ratio)])
    return text_path, wit_path, bound_path


def run_select(args: argparse.Namespace) -> int:
    """One-shot selection on a matrix file; prints 1-based indices."""
    if args.data is None:
        raise ConfigError("select requires --data")
    fmt = data_mod.SnapshotFormat(args.format)
    snapshots = data_mod.load_snapshots(args.data, fmt)
    cand = fisher.CandidateMatrix(snapshots.X)
    method = Method(args.method)
    criterion = Criterion(args.criterion)
    result = run_selector(cand, args.p, method, seed=args.seed, criterion=criterion)
    print(" ".join(str(i) for i in result.indices))
    return 0


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (expected key=value): {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_methods(text: str) -> list[Method]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        try:
            method = Method(tok)
        except ValueError as exc:
            raise ConfigError(f"unknown method {tok!r}") from exc
        if method is Method.DC:
            raise NotImplementedError("convex-relaxation selection (DC) is not implemented")
        if method in (Method.BRUTE,):
            raise ConfigError("brute-force is available via the 'select' subcommand only")
        out.append(method)
    return out


_INT_KEYS = {"n", "r", "p_min", "p_max", "trials", "seed", "k"}
_FLOAT_KEYS = {"epsilon", "sigma"}


def build_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and CLI flags (flags win) into a config."""
    cfg = ExperimentConfig(mode=mode)
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    for key, raw in file_values.items():
        if key in _INT_KEYS:
            setattr(cfg, key, int(raw))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, float(raw))
        elif key == "methods":
            cfg.methods = _parse_methods(raw)
        elif key == "data":
            cfg.data_path = raw
        elif key == "format":
            cfg.data_format = data_mod.SnapshotFormat(raw)
        elif key == "out":
            cfg.out_dir = raw
        elif key == "mode":
            cfg.mode = raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _INT_KEYS | _FLOAT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "methods", None) is not None:
        cfg.methods = _parse_methods(args.methods)
    if getattr(args, "data", None) is not None:
        cfg.data_path = args.data
    if getattr(args, "format", None) is not None:
        cfg.data_format = data_mod.SnapshotFormat(args.format)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorsel",
        description="Greedy sparse sensor selection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="key=value config file; flags override it")
        sp.add_argument("--n", type=int)
        sp.add_argument("--r", type=int)
        sp.add_argument("--p-min", dest="p_min", type=int)
        sp.add_argument("--p-max", dest="p_max", type=int)
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--k", type=int)
        sp.add_argument("--methods", help="comma list from dg,ag,eg,random")
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--sigma", type=float)
        sp.add_argument("--data", help="snapshot file path")
        sp.add_argument("--format", choices=["csv", "raw"])
        sp.add_argument("--out", help="output directory")

    common(sub.add_parser("random", help="random-system sweep"))
    common(sub.add_parser("cv", help="K-fold cross-validation on a snapshot file"))
    common(sub.add_parser("submod", help="set-function structure report"))

    sel = sub.add_parser("select", help="one-shot selection on a matrix file")
    sel.add_argument("--data", required=True, help="matrix file (columns = modes)")
    sel.add_argument("--format", choices=["csv", "raw"], default="csv")
    sel.add_argument("--method", default="dg", choices=[m.value for m in Method])
    sel.add_argument("--p", type=int, required=True)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--criterion", choices=["d", "a", "e"], default="d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "select":
            return run_select(args)
        cfg = build_config(args.command, args)
        if args.command == "random":
            rec, summ = run_random(cfg)
            print(f"wrote {rec} and {summ}")
        elif args.command == "cv":
            rec, summ = run_cv(cfg)
            print(f"wrote {rec} and {summ}")
        else:
            paths = run_submod_report(cfg)
            print("wrote " + ", ".join(str(p) for p in paths))
        return 0
    except _CONFIG_EXIT as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_EXIT as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_EXIT as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
