"""Experiment harness and command-line interface.

Subcommands: ``random`` (seeded random-system sweeps), ``cv`` (K-fold
cross-validation on a snapshot file), ``submod`` (set-function reports),
and ``select`` (one-shot selection on a provided matrix).  Runs write
plot-ready CSV files; everything except wall-clock columns is bit-stable
for a fixed seed.

Exit codes: 0 success, 2 ``ConfigError``, 3 ``DataError`` or a missing
file, 4 ``NumericalError``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import data as data_mod
from . import fisher, submod
from .errors import ConfigError, DataError, NumericalError
from .selectors import Criterion, Method, SelectionResult, _check_p, greedy_steps, run_selector

_METHOD_CODE = {Method.DG: 0, Method.AG: 1, Method.EG: 2, Method.RANDOM: 3}

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
    methods: list[Method] = field(default_factory=lambda: list(_METHOD_CODE))
    data_path: str | None = None
    data_format: data_mod.SnapshotFormat = data_mod.SnapshotFormat.CSV
    epsilon: float | None = None
    sigma: float = 0.0
    out_dir: str = "out"

    def validate(self) -> None:
        """Check the fields the mode uses; the other fields are ignored."""
        if self.mode not in _SUBCOMMANDS:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "submod":
            if self.epsilon is not None and not 0 < self.epsilon < np.inf:
                raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
            return
        if self.p_min < 1 or self.p_min > self.p_max:
            raise ConfigError(f"need 1 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if not self.methods:
            raise ConfigError("at least one method is required")
        if self.mode == "cv":
            if self.data_path is None:
                raise ConfigError("cv mode requires --data")
            if self.k < 2:
                raise ConfigError(f"k must be >= 2, got {self.k}")
            return
        if self.n < 1 or self.r < 1:
            raise ConfigError(f"n and r must be >= 1, got n={self.n} r={self.r}")
        if self.p_max > self.n:
            raise ConfigError(f"p_max={self.p_max} exceeds n={self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be >= 0 and finite, got {self.sigma}")


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
        """CSV cells: floats by ``repr``, tuples space-joined, the rest by ``str``."""
        return [_cell(getattr(self, name)) for name in _RECORD_HEADER]


def _cell(value: object) -> str:
    if isinstance(value, tuple):
        return " ".join(str(i) for i in value)
    return repr(value) if isinstance(value, float) else str(value)


_RECORD_HEADER = [f.name for f in fields(ExperimentRecord)]


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


@contextmanager
def _naming_case(method: Method, p: int, unit: str, number: int) -> Iterator[None]:
    """Re-raise a numerical failure with the method, p and trial or fold it hit."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"method={method.value} p={p} {unit}={number}: {exc}") from exc


def _records_by_p(
    cand: fisher.CandidateMatrix,
    method: Method,
    p_values: Iterable[int],
    unit: str,
    number: int,
    seed_keys: tuple[int, ...],
    record_of: Callable[[SelectionResult], ExperimentRecord],
) -> list[ExperimentRecord]:
    """Records of ``method`` at each p, built in the order of ``p_values``.

    A greedy method runs once: its selection for p is the p-th result of
    one stepwise run, advanced only as far as the largest p so far.  A
    step that fails is therefore raised at the first p that needs it,
    after the records of the smaller p, and named as a run for that p
    alone would be.  ``random`` draws each p with seed
    ``derive_seed(*seed_keys, p)``.
    """
    steps = None if method is Method.RANDOM else greedy_steps(cand, method)
    prefixes: list[SelectionResult] = []
    records = []
    for p in p_values:
        with _naming_case(method, p, unit, number):
            if steps is None:
                sel = run_selector(cand, p, method, seed=derive_seed(*seed_keys, p))
            else:
                _check_p(cand.n, p)
                while len(prefixes) < p:
                    prefixes.append(next(steps))
                sel = prefixes[p - 1]
            records.append(record_of(sel))
    return records


def run_random(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Random-system sweep; returns the record and summary CSV paths."""
    if cfg.mode != "random":
        raise ConfigError(f"run_random called with mode {cfg.mode!r}")
    cfg.validate()
    records: list[ExperimentRecord] = []
    p_values = range(cfg.p_min, cfg.p_max + 1)
    for trial in range(cfg.trials):
        cand = data_mod.gen_random_system(cfg.n, cfg.r, derive_seed(cfg.seed, trial, 0))
        z = data_mod.gen_latent(cfg.r, 1, derive_seed(cfg.seed, trial, 1))

        def record(sel: SelectionResult) -> ExperimentRecord:
            s = fisher.build_measurement(cand, sel.indices)
            y = s.measurement @ z
            if cfg.sigma > 0:
                noise_seed = derive_seed(cfg.seed, trial, 3, _METHOD_CODE[sel.method], s.p)
                noise_rng = np.random.Generator(np.random.PCG64(noise_seed))
                y = y + cfg.sigma * noise_rng.standard_normal(y.shape)
            return _evaluate_selection(sel, s, trial, sel.indices, z, y)

        for method in cfg.methods:
            records += _records_by_p(
                cand, method, p_values, "trial", trial, (cfg.seed, trial, 2), record
            )
    return _emit(records, Path(cfg.out_dir), "random")


def run_cv(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """K-fold cross-validation on a snapshot file; returns CSV paths."""
    if cfg.mode != "cv":
        raise ConfigError(f"run_cv called with mode {cfg.mode!r}")
    cfg.validate()
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
    target is the projection of the test snapshots onto the training modes
    (masked rows read as zero in both; see ``SnapshotData``).
    """
    pod = data_mod.pod_truncate(snapshots.columns(train_cols), r)
    cand, locations = data_mod.sensor_candidates(pod, snapshots.mask)
    x_test = snapshots.X[:, test_cols]
    z_true = pod.modes.T @ x_test

    def record(sel: SelectionResult) -> ExperimentRecord:
        s = fisher.build_measurement(cand, sel.indices)
        orig = locations[[i - 1 for i in sel.indices]]
        y = x_test[orig - 1, :]
        locs = tuple(int(i) for i in orig)
        return _evaluate_selection(sel, s, fold, locs, z_true, y)

    records = []
    for method in methods:
        seed_keys = (seed, fold, 2, _METHOD_CODE[method])
        records += _records_by_p(cand, method, p_values, "fold", fold, seed_keys, record)
    return records


def _emit(
    records: list[ExperimentRecord], out_dir: Path, stem: str
) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = sorted(records, key=lambda rec: (rec.method, rec.p, rec.trial))
    rec_path = out_dir / f"{stem}.csv"
    _write_csv(rec_path, _RECORD_HEADER, [rec.row() for rec in records])
    sum_path = out_dir / f"{stem}_summary.csv"
    _write_csv(sum_path, ["method", "p", "metric", "value"], _summary_rows(records))
    return rec_path, sum_path


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    rows = []
    for (method, p) in sorted(means):
        stats = means[(method, p)]
        for name in _NORMALIZED_METRICS:
            rows.append([method, str(p), f"{name}_mean", repr(stats[name])])
            if (Method.DG.value, p) in means:
                base = means[(Method.DG.value, p)][name]
                # IEEE division: a dg mean of 0 gives inf, or nan for 0/0
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = float(np.float64(stats[name]) / base)
                rows.append([method, str(p), f"{name}_mean_dgnorm", repr(ratio)])
        rows.append([method, str(p), "wall_time_s_mean", repr(stats["wall_time_s"])])
    return rows


def run_submod_report(cfg: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Set-function report: counterexample, exhaustive checks, greedy bound.

    Returns the text report, witness CSV, and bound-check CSV paths.
    """
    if cfg.mode != "submod":
        raise ConfigError(f"run_submod_report called with mode {cfg.mode!r}")
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
        bound_rows.append([j, repr(res.greedy_value), repr(res.opt_value), repr(res.ratio)])
        sections.append(
            f"greedy bound instance {j}: greedy={res.greedy_value!r} "
            f"opt={res.opt_value!r} ratio={res.ratio!r}"
        )

    text_path = out_dir / "submod_report.txt"
    text_path.write_text("\n\n".join(sections) + "\n")
    wit_path = out_dir / "submod_witnesses.csv"
    header = ["objective", "check", "S", "T", "i"]
    _write_csv(wit_path, header, map(itemgetter(*header), witness_rows))
    bound_path = out_dir / "submod_nemhauser.csv"
    _write_csv(bound_path, ["instance", "greedy_value", "opt_value", "ratio"], bound_rows)
    return text_path, wit_path, bound_path


def run_select(args: argparse.Namespace) -> int:
    """One-shot selection among a matrix file's valid rows; prints their 1-based row numbers."""
    if args.p < 1 or args.seed < 0:
        raise ConfigError(f"need p >= 1 and seed >= 0, got p={args.p} seed={args.seed}")
    snapshots = data_mod.load_snapshots(args.data, data_mod.SnapshotFormat(args.format))
    valid = np.ones(snapshots.n, dtype=bool) if snapshots.mask is None else snapshots.mask
    locations = np.flatnonzero(valid) + 1
    cand = fisher.CandidateMatrix(snapshots.X[valid])
    result = run_selector(
        cand, args.p, Method(args.method), seed=args.seed, criterion=Criterion(args.criterion)
    )
    print(" ".join(str(locations[i - 1]) for i in result.indices))
    return 0


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"bad config line (expected key=value): {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_methods(text: str) -> list[Method]:
    """Comma list of the experiment methods (``brute`` is for ``select`` only)."""
    allowed = {m.value: m for m in _METHOD_CODE}
    out = []
    for tok in filter(None, (t.strip().lower() for t in text.split(","))):
        if tok not in allowed:
            raise ConfigError(f"method {tok!r} is not one of {', '.join(allowed)}")
        out.append(allowed[tok])
    return out


#: Settings of the experiment subcommands: flag or config-file key ->
#: (text converter, ExperimentConfig field, subcommands that use it, help).
_SETTINGS: dict[str, tuple[Callable[[str], object], str, tuple[str, ...], str | None]] = {
    "n": (int, "n", ("random",), None),
    "r": (int, "r", ("random", "cv"), None),
    "p_min": (int, "p_min", ("random", "cv"), None),
    "p_max": (int, "p_max", ("random", "cv"), None),
    "trials": (int, "trials", ("random",), None),
    "seed": (int, "seed", ("random", "cv", "submod"), None),
    "k": (int, "k", ("cv",), None),
    "methods": (_parse_methods, "methods", ("random", "cv"), "comma list from dg,ag,eg,random"),
    "sigma": (float, "sigma", ("random",), None),
    "epsilon": (float, "epsilon", ("submod",), None),
    "data": (str, "data_path", ("cv",), "snapshot file path"),
    "format": (data_mod.SnapshotFormat, "data_format", ("cv",), "csv or raw"),
    "out": (str, "out_dir", ("random", "cv", "submod"), "output directory"),
}


def build_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    """Overlay the flags that are set on the config-file values and convert each.

    Raises ``ConfigError`` for a setting the mode does not use and for a
    value its converter rejects.
    """
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = ExperimentConfig(mode=mode)
    for key, raw in values.items():
        convert, name, modes, _ = _SETTINGS.get(key, (str, key, (), None))
        if mode not in modes:
            raise ConfigError(f"{mode} takes no setting {key!r}")
        try:
            setattr(cfg, name, convert(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return cfg


_SUBCOMMANDS = {
    "random": (run_random, "random-system sweep"),
    "cv": (run_cv, "K-fold cross-validation on a snapshot file"),
    "submod": (run_submod_report, "set-function structure report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorsel",
        description="Greedy sparse sensor selection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode, (_, text) in _SUBCOMMANDS.items():
        sp = sub.add_parser(mode, help=text)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key, (_, _, modes, help_text) in _SETTINGS.items():
            if mode in modes:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)

    sel = sub.add_parser("select", help="one-shot selection on a matrix file")
    sel.add_argument("--data", required=True, help="matrix file (columns = modes)")
    sel.add_argument("--format", choices=["csv", "raw"], default="csv")
    sel.add_argument("--method", default="dg", choices=[m.value for m in Method])
    sel.add_argument("--p", type=int, required=True)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--criterion", choices=[c.value for c in Criterion], default="d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "select":
            return run_select(args)
        paths = _SUBCOMMANDS[args.command][0](build_config(args.command, args))
        print("wrote " + ", ".join(str(p) for p in paths))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
