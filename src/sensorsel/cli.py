"""Experiment harness and command-line interface.

Subcommands: ``random`` (seeded random-system sweeps), ``cv`` (K-fold
cross-validation on a snapshot file), ``submod`` (set-function reports),
and ``select`` (one-shot selection on a provided matrix).  Runs write
plot-ready CSV files; everything except wall-clock columns is bit-stable
for a fixed seed.

Exit codes: 0 success, 2 ``ConfigError``, 3 ``DataError`` or a file that
cannot be read or written (any ``OSError``), 4 ``NumericalError``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import data as data_mod
from . import fisher, submod
from .errors import ConfigError, DataError, EigenSolverError, NumericalError, SensorSelError
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
    epsilon: float = 1e-3
    sigma: float = 0.0
    out_dir: str = "out"

    def validate(self) -> None:
        """Check the fields the mode uses; the other fields are ignored."""
        if self.mode not in _SUBCOMMANDS:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "submod":
            if not 0 < self.epsilon < np.inf:
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

    def row(self) -> tuple:
        """CSV cells, tuples space-joined; ``"%s"`` writes a float by its ``repr``."""
        return (
            self.method, self.p, self.trial, " ".join(map(str, self.indices)),
            " ".join(map(str, self.locations)), self.det_index, self.trace_inv_index,
            self.min_eig_index, self.recon_error, self.wall_time_s,
        )


_RECORD_HEADER = [f.name for f in fields(ExperimentRecord)]


@contextmanager
def _naming_case(case: str) -> Iterator[None]:
    """Re-raise a numerical failure with the case it hit (``method=dg p=3
    trial=0``, ``case=a_eps embedded``) in front of its message."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"{case}: {exc}") from exc


def _unit_records(
    cand: fisher.CandidateMatrix,
    locations: np.ndarray,
    methods: Iterable[Method],
    p_values: Sequence[int],
    unit: str,
    number: int,
    seed_keys: tuple[int, ...],
    z_true: np.ndarray,
    observe: Callable[[list[SelectionResult], np.ndarray, np.ndarray], np.ndarray],
) -> list[ExperimentRecord]:
    """Records of one trial or fold, in run order: each method's selection at
    each p, the Fisher indices of its rows of ``cand``, and the error of
    reconstructing ``z_true`` from its observation.  ``observe(sels, rows,
    locs)`` returns the observations (M, p, m) of the M selections ``sels``
    of one p, given their rows (M, p, r) of ``cand`` and their ``locations``
    (M, p; 1-based).

    A greedy method runs once: its selection for p is the p-th result of
    one stepwise run, advanced only as far as the largest p so far, so a
    failing step is named by the first p that needs it.  ``random`` draws
    each p with seed ``derive_seed(*seed_keys, p)``.

    The rows, observations and Grams of one p are formed in one stack.
    The Grams of one shape group (one group per p <= r, one for all p > r)
    get one ``det``, ``fisher._criteria`` and ``fisher._pinv_apply`` (the
    singular ones solved as the identity) and their errors' norms one dot,
    each record getting the bits of a call on it alone, its error taken at
    the scale of ``z_true`` as ``fisher.reconstruction_error`` takes it.  A
    record that this does not settle (its group's eigensolve failed, its
    Gram is singular, or its error is not finite, as all are where
    ``z_true`` is zero) takes the per-record fisher path.

    The failure raised is the one a run that evaluates each selection as
    it is made would hit first: selecting stops at the first failure, the
    selections before it are checked in run order and the first that fails
    is raised, or else the selection failure.
    """
    selected: list[SelectionResult] = []
    by_p: dict[int, list[int]] = {}  # p -> its records
    failure = None
    try:
        for method in methods:
            steps = None if method is Method.RANDOM else greedy_steps(cand, method)
            prefixes: list[SelectionResult] = []
            for p in p_values:
                with _naming_case(f"method={method.value} p={p} {unit}={number}"):
                    if steps is None:
                        sel = run_selector(cand, p, method, seed=derive_seed(*seed_keys, p))
                    else:
                        _check_p(cand.n, p)
                        while len(prefixes) < p:
                            prefixes.append(next(steps))
                        sel = prefixes[p - 1]
                by_p.setdefault(p, []).append(len(selected))
                selected.append(sel)
    except SensorSelError as exc:
        failure = exc
    locs: dict[int, tuple[int, ...]] = {}
    stacks: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # p -> (C, y)
    groups: dict[int, list[int]] = {}  # p, or r + 1 for every p > r -> its p values
    for p, ks in by_p.items():
        rows = np.array([selected[k].indices for k in ks]) - 1
        c, loc = cand.rows[rows], locations[rows]
        locs.update(zip(ks, map(tuple, loc.tolist())))
        stacks[p] = c, observe([selected[k] for k in ks], c, loc)
        groups.setdefault(min(p, cand.r + 1), []).append(p)
    z_unit, ez = fisher._unit_scaled(z_true)
    reference = np.linalg.norm(z_unit)
    det, trace_inv, min_eig, error = np.empty((4, len(selected)))
    for ps in groups.values():
        ks = [k for p in ps for k in by_p[p]]
        cs, ys = zip(*map(stacks.get, ps))
        gram = np.concatenate([fisher._gram(c) for c in cs])
        det[ks] = fisher._det(gram)
        try:
            w, trace_inv[ks], min_eig[ks] = fisher._criteria(gram)
        except EigenSolverError:
            error[ks] = math.nan
            continue
        singular = fisher._singular(w)
        gram[singular] = np.eye(gram.shape[-1])  # so that they are left out of the solve
        z_est = fisher._pinv_apply(cs, gram, ys)
        with np.errstate(all="ignore"):  # such a record is evaluated alone below
            diff = np.ldexp(z_est - z_true, -ez).reshape(len(ks), 1, -1)
            norms = np.sqrt(diff @ np.swapaxes(diff, -1, -2))[:, 0, 0]
            error[ks] = np.where(singular, math.nan, norms / reference)
    for k in np.flatnonzero(~np.isfinite(error)).tolist():  # unsettled, in run order
        sel = selected[k]
        p = len(sel.indices)
        y = stacks[p][1][by_p[p].index(k)]
        with _naming_case(f"method={sel.method.value} p={p} {unit}={number}"):
            s = fisher.build_measurement(cand, sel.indices)
            info = fisher.fisher_info(s)
            indices = fisher.det_index, fisher.trace_inv_index, fisher.min_eig_index
            det[k], trace_inv[k], min_eig[k] = (index(info) for index in indices)
            error[k] = fisher.reconstruction_error(z_true, fisher.estimate(s, y))
    if failure is not None:
        raise failure
    columns = zip(det.tolist(), trace_inv.tolist(), min_eig.tolist(), error.tolist())
    return [
        ExperimentRecord(
            sel.method.value, len(sel.indices), number, sel.indices, locs[k], *cells, sel.wall_time
        )
        for k, (sel, cells) in enumerate(zip(selected, columns))
    ]


def run_random(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Random-system sweep; returns the record and summary CSV paths."""
    if cfg.mode != "random":
        raise ConfigError(f"run_random called with mode {cfg.mode!r}")
    cfg.validate()
    records: list[ExperimentRecord] = []
    for trial in range(cfg.trials):
        cand = data_mod.gen_random_system(cfg.n, cfg.r, derive_seed(cfg.seed, trial, 0))
        z = data_mod.gen_latent(cfg.r, 1, derive_seed(cfg.seed, trial, 1))

        def observe(sels: list[SelectionResult], rows: np.ndarray, locs: np.ndarray) -> np.ndarray:
            y = rows @ z
            if cfg.sigma > 0:
                p, m = y.shape[1:]
                seeds = [derive_seed(cfg.seed, trial, 3, _METHOD_CODE[s.method], p) for s in sels]
                noise = [np.random.default_rng(seed).standard_normal((p, m)) for seed in seeds]
                y = y + cfg.sigma * np.stack(noise)
            return y

        records += _unit_records(
            cand, np.arange(1, cfg.n + 1), cfg.methods, range(cfg.p_min, cfg.p_max + 1),
            "trial", trial, (cfg.seed, trial, 2), z, observe,
        )
    return _emit(records, Path(cfg.out_dir), "random")


def run_cv(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """K-fold cross-validation on a snapshot file; returns CSV paths.  All
    folds' PODs are fitted first, together; each fold's test columns are a view."""
    if cfg.mode != "cv":
        raise ConfigError(f"run_cv called with mode {cfg.mode!r}")
    cfg.validate()
    snapshots = data_mod.load_snapshots(cfg.data_path, cfg.data_format)
    plan = data_mod.kfold(snapshots.m, cfg.k)
    folds = range(1, cfg.k + 1)
    pods = data_mod.fold_pods(snapshots, cfg.r, [plan.train_columns(fold) for fold in folds])
    p_values = list(range(cfg.p_min, cfg.p_max + 1))
    records: list[ExperimentRecord] = []
    for fold, pod, (start, stop) in zip(folds, pods, plan.segments):
        x_test = snapshots.X[:, start - 1 : stop]
        records += _fold_records(snapshots, pod, x_test, p_values, cfg.methods, fold, cfg.seed)
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
    (pod,) = data_mod.fold_pods(snapshots, r, [train_cols])
    return _fold_records(snapshots, pod, snapshots.X[:, test_cols], p_values, methods, fold, seed)


def _fold_records(
    snapshots: data_mod.SnapshotData, pod: data_mod.PodModel, x_test: np.ndarray,
    p_values: list[int], methods: list[Method], fold: int, seed: int,
) -> list[ExperimentRecord]:
    """Records of one fold from its training POD and test snapshots (see evaluate_fold)."""
    cand, locations = data_mod.sensor_candidates(pod, snapshots.mask)
    z_true = pod.modes.T @ x_test
    seed_keys = (seed, fold, 2, _METHOD_CODE[Method.RANDOM])
    return _unit_records(
        cand, locations, methods, p_values, "fold", fold, seed_keys, z_true,
        lambda sels, rows, locs: x_test[locs - 1],
    )


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
    """Write the bytes ``csv.writer`` would: cells by ``"%s"`` (``str``, so a
    float by its ``repr``) joined by commas, lines ended by ``\\r\\n``.  A
    row must have one cell per column and no cell may need quoting: each
    block's text must hold no quote, one comma per cell boundary and one line
    break per line, or it is not written."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    rows = chain([header], rows)
    with path.open("w", newline="") as fh:
        while lines := [line % tuple(row) for row in islice(rows, 2**12)]:
            text = "".join(lines)
            counts = text.count(","), text.count("\n"), text.count("\r")
            if counts != (len(lines) * (len(header) - 1), len(lines), len(lines)) or '"' in text:
                raise ValueError(f"{path}: a CSV cell holds a comma, a quote or a line break")
            fh.write(text)


def _summary_rows(records: list[ExperimentRecord]) -> list[list[str]]:
    """Per-(method, p) metric means in long format, plus DG-normalized means.

    Every (method, p) group must hold the same number of records, one per
    trial or fold.  The means are one ``np.mean`` over the last axis of a
    (metric, group, unit) array, each group's records in input order, so
    each keeps NumPy's pairwise sum of its list.
    """
    names = [*_NORMALIZED_METRICS, "wall_time_s"]
    key_of = attrgetter("method", "p")
    records = sorted(records, key=key_of)
    sizes = Counter(map(key_of, records))  # the (method, p) groups, in sorted order
    if len(set(sizes.values())) > 1:
        raise ValueError(f"(method, p) groups of unequal sizes: {dict(sizes)}")
    values = np.array([np.fromiter(map(attrgetter(name), records), float) for name in names])
    means = np.mean(values.reshape(len(names), len(sizes), -1), axis=-1).T
    keys = list(sizes)
    dg_group = {p: g for g, (method, p) in enumerate(keys) if method == Method.DG.value}
    # IEEE division: a dg mean of 0 gives inf, or nan for 0/0 (a group with
    # no dg group at its p divides by itself, and its ratios are not written)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = means / means[[dg_group.get(p, g) for g, (_, p) in enumerate(keys)]]
    labels = [(f"{name}_mean", f"{name}_mean_dgnorm") for name in _NORMALIZED_METRICS]
    rows = []
    for (method, p), mean, ratio in zip(keys, means.tolist(), ratios.tolist()):
        normalized, p = p in dg_group, str(p)
        for (label, norm_label), value, norm in zip(labels, mean, ratio):
            rows.append([method, p, label, repr(value)])
            if normalized:
                rows.append([method, p, norm_label, repr(norm)])
        rows.append([method, p, "wall_time_s_mean", repr(mean[-1])])
    return rows


def run_submod_report(cfg: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Set-function report: counterexample, exhaustive checks, greedy bound.

    Returns the text report, witness CSV, and bound-check CSV paths.
    """
    if cfg.mode != "submod":
        raise ConfigError(f"run_submod_report called with mode {cfg.mode!r}")
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sections: list[str] = []
    witness_rows: list[tuple] = []

    report = submod.counterexample_report()
    sections.append(report.to_text())

    cx = submod.counterexample_matrix()
    cases = [
        ("a_eps embedded", submod.SetObjective(submod.ObjectiveKind.A_EPS, cx, cfg.epsilon)),
        ("e_raw embedded", submod.SetObjective(submod.ObjectiveKind.E_RAW, cx)),
        ("modular_norm embedded", submod.SetObjective(submod.ObjectiveKind.MODULAR_NORM, cx)),
    ]
    for j in range(5):
        rnd = data_mod.gen_random_system(7, 3, derive_seed(cfg.seed, 10, j))
        cases.append(
            (f"a_eps random{j}", submod.SetObjective(submod.ObjectiveKind.A_EPS, rnd, cfg.epsilon))
        )
    for label, obj in cases:
        with _naming_case(f"case={label}"):
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
        for rep in (rep_sub, rep_mon):
            witness_rows += rep.witness_rows(label)

    bound_rows = []
    for j in range(5):
        cand = data_mod.gen_random_system(12, 3, derive_seed(cfg.seed, 20, j))
        with _naming_case(f"bound instance={j}"):
            res = submod.nemhauser_check(cand, p=3, epsilon=cfg.epsilon)
        bound_rows.append([j, repr(res.greedy_value), repr(res.opt_value), repr(res.ratio)])
        sections.append(
            f"greedy bound instance {j}: greedy={res.greedy_value!r} "
            f"opt={res.opt_value!r} ratio={res.ratio!r}"
        )

    text_path = out_dir / "submod_report.txt"
    text_path.write_text("\n\n".join(sections) + "\n")
    wit_path = out_dir / "submod_witnesses.csv"
    _write_csv(wit_path, ["objective", "check", "S", "T", "i"], witness_rows)
    bound_path = out_dir / "submod_nemhauser.csv"
    _write_csv(bound_path, ["instance", "greedy_value", "opt_value", "ratio"], bound_rows)
    return text_path, wit_path, bound_path


def run_select(args: argparse.Namespace) -> int:
    """One-shot selection among a matrix file's valid rows; prints their 1-based row numbers."""
    method = Method(args.method)
    for flag, user in (("criterion", Method.BRUTE), ("seed", Method.RANDOM)):
        if getattr(args, flag) is not None and method is not user:
            raise ConfigError(f"select --method {method.value} takes no --{flag}")
    seed, criterion = args.seed or 0, Criterion(args.criterion or "d")
    if args.p < 1 or seed < 0:
        raise ConfigError(f"need p >= 1 and seed >= 0, got p={args.p} seed={seed}")
    snapshots = data_mod.load_snapshots(args.data, data_mod.SnapshotFormat(args.format))
    valid = np.ones(snapshots.n, dtype=bool) if snapshots.mask is None else snapshots.mask
    locations = np.flatnonzero(valid) + 1
    cand = fisher.CandidateMatrix(snapshots.X[valid])
    with _naming_case(f"method={method.value} p={args.p}"):
        result = run_selector(cand, args.p, method, seed=seed, criterion=criterion)
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
    """Comma list of distinct experiment methods (``brute`` is for ``select`` only)."""
    allowed = {m.value: m for m in _METHOD_CODE}
    out = []
    for tok in filter(None, (t.strip().lower() for t in text.split(","))):
        if tok not in allowed:
            raise ConfigError(f"method {tok!r} is not one of {', '.join(allowed)}")
        if allowed[tok] in out:
            raise ConfigError(f"method {tok!r} is listed twice")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
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
    sel.add_argument("--seed", type=int, help="random only")
    sel.add_argument("--criterion", choices=[c.value for c in Criterion], help="brute only")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
