"""Spans around the package's public functions, and the per-layer numbers built from them.

The tracer patches the public functions of each module (layer) from the
outside: every module namespace that holds the function gets the wrapper,
so calls through ``from .x import f`` names are seen too.  Private helpers
are not wrapped; their time lands in the public function that calls them.
A span is ``(id, op, name, start, end, parent, attrs)``; the benchmark opens
one root span named ``cli.main`` per request, whose id is the op id.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import sensorsel
from sensorsel import cli, data, fisher, selectors, submod

LAYERS = ("data", "fisher", "selectors", "submod", "cli")

#: Public functions wrapped with a span, per layer module.
SPANNED = {
    data: (
        "load_snapshots",
        "save_snapshots",
        "pod_truncate",
        "sensor_candidates",
        "kfold",
        "gen_random_system",
        "gen_latent",
    ),
    fisher: (
        "build_measurement",
        "fisher_info",
        "det_index",
        "trace_inv_index",
        "min_eig_index",
        "estimate",
        "reconstruction_error",
        "error_covariance",
        "observable_transform",
        "observable_error_covariance",
    ),
    selectors: ("select_dg", "select_ag", "select_eg", "select_random", "select_bruteforce"),
    submod: ("check_submodular", "check_monotone", "nemhauser_check", "counterexample_report"),
}

#: Short selector names used in metric names.
METHOD_OF = {
    "selectors.select_dg": "dg",
    "selectors.select_ag": "ag",
    "selectors.select_eg": "eg",
    "selectors.select_random": "random",
    "selectors.select_bruteforce": "brute",
}
GREEDY = ("dg", "ag", "eg")

#: Request kinds whose latency medians are reported as ``<kind>_p50_ms``.
LATENCY_KINDS = ("select_dg", "select_ag", "select_eg", "brute", "submod")

NAMESPACES = (sensorsel, cli, data, fisher, selectors, submod)


def _selection_attrs(args, kwargs) -> dict:
    named = dict(zip(("cand", "p"), args), **kwargs)
    rows, p = named["cand"].rows, int(named["p"])
    n, r = rows.shape
    # Content fingerprint: calls on the same candidate matrix form one p ladder.
    fp = (n, r, float(rows[0, 0]), float(rows[-1, -1]))
    return {"n": n, "r": r, "p": p, "fp": fp, "subsets": math.comb(n, p)}


def _load_attrs(args, kwargs) -> dict:
    return {"bytes": os.path.getsize(dict(zip(("path",), args), **kwargs)["path"])}


def _pod_attrs(args, kwargs) -> dict:
    snap = dict(zip(("data",), args), **kwargs)["data"]
    return {"n": snap.n, "m": snap.m}


ATTRS = {
    "data.load_snapshots": _load_attrs,
    "data.pod_truncate": _pod_attrs,
    **{name: _selection_attrs for name in METHOD_OF},
}


class Tracer:
    """In-memory span recorder for one traced unit of work."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = attrs_of(args, kwargs) if attrs_of else None
                self.spans[sid] = (sid, self._op, name, start, end, parent, attrs)

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def op(self):
        """Root span ``cli.main`` of one request; its span id is the op id."""
        sid = self._op = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, sid, "cli.main", start, end, None, None)

    @contextmanager
    def installed(self):
        """Wrap every public layer function for the duration of the block."""
        replacements = {}
        for mod, names in SPANNED.items():
            layer = mod.__name__.rsplit(".", 1)[-1]
            for fname in names:
                fn = getattr(mod, fname)
                replacements[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        patched = []
        for ns in NAMESPACES:
            for attr, val in list(vars(ns).items()):
                if id(val) in replacements:
                    patched.append((ns, attr, val))
                    setattr(ns, attr, replacements[id(val)])
        methods = [
            (submod.ModularityReport, "witness_rows", self._wrap("submod.witness_rows", submod.ModularityReport.witness_rows)),
            (submod.SetObjective, "evaluate", self._count("submod.evaluate", submod.SetObjective.evaluate)),
        ]
        for cls, attr, wrapper in methods:
            patched.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)
        try:
            yield
        finally:
            for target, attr, val in reversed(patched):
                setattr(target, attr, val)


def svd_flops(n: int, m: int) -> float:
    """Computed flops of a thin SVD with both factors (R-SVD, 6 M N^2 + 20 N^3)."""
    big, small = max(n, m), min(n, m)
    return 6.0 * big * small**2 + 20.0 * small**3


def layer_self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = defaultdict(float)
    for _sid, _op, _name, start, end, parent, _attrs in spans:
        if parent is not None:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _op, name, start, end, _parent, _attrs in spans:
        out[name.split(".", 1)[0]] += (end - start) - child[sid]
    return out


def unit_metrics(spans: list[tuple], counts: Counter, records: int, bytes_written: int) -> dict[str, float]:
    """Per-layer numbers of one traced unit of work."""
    dur = defaultdict(float)
    calls = Counter()
    for _sid, _op, name, start, end, _parent, _attrs in spans:
        dur[name] += end - start
        calls[name] += 1
    spans_named = defaultdict(list)
    for span in spans:
        spans_named[span[2]].append(span)

    def attr_sum(name: str, key) -> float:
        return sum(key(span[6]) for span in spans_named[name])

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    m["data.load_snapshots.s"] = dur["data.load_snapshots"]
    m["data.load_snapshots.mb_per_s"] = rate(
        attr_sum("data.load_snapshots", lambda a: a["bytes"]) / 1e6, dur["data.load_snapshots"]
    )
    m["data.pod_truncate.s"] = dur["data.pod_truncate"]
    m["data.pod_truncate.calls"] = calls["data.pod_truncate"]
    m["data.pod_truncate.gflop_per_s"] = rate(
        attr_sum("data.pod_truncate", lambda a: svd_flops(a["n"], a["m"])) / 1e9, dur["data.pod_truncate"]
    )
    m["data.sensor_candidates.s"] = dur["data.sensor_candidates"]
    for name, method in METHOD_OF.items():
        m[f"selectors.{method}.calls"] = calls[name]
        m[f"selectors.{method}.s"] = dur[name]
    executed, useful = step_counts(spans)
    m["selectors.steps_executed"] = executed
    m["selectors.steps_useful_ratio"] = useful / executed if executed else 0.0
    brute = "selectors.select_bruteforce"
    m["selectors.brute.subsets_per_s"] = rate(attr_sum(brute, lambda a: a["subsets"]), dur[brute])
    fisher_names = [name for name in dur if name.startswith("fisher.")]
    m["fisher.s"] = sum(dur[name] for name in fisher_names)
    m["fisher.calls"] = sum(calls[name] for name in fisher_names)
    m["fisher.calls_per_record"] = m["fisher.calls"] / records if records else 0.0
    for name in ("check_submodular", "check_monotone", "nemhauser_check", "witness_rows"):
        m[f"submod.{name}.s"] = dur[f"submod.{name}"]
    m["submod.evaluate.calls"] = counts["submod.evaluate"]
    for layer, seconds in layer_self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    m["cli.records"] = records
    m["cli.bytes_written"] = bytes_written
    m["trace.wall_s"] = dur["cli.main"]
    return m


def _ladders(spans: list[tuple]) -> dict[tuple, dict[int, list[float]]]:
    """Greedy selection times keyed by (op, method, candidate matrix), then by p."""
    ladders: dict[tuple, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for _sid, op, name, start, end, _parent, attrs in spans:
        method = METHOD_OF.get(name)
        if method in GREEDY:
            ladders[(op, method, attrs["fp"])][attrs["p"]].append(end - start)
    return ladders


def step_counts(spans: list[tuple]) -> tuple[int, int]:
    """Greedy steps executed, and the useful ones: distinct prefixes per ladder."""
    executed = useful = 0
    for by_p in _ladders(spans).values():
        executed += sum(p * len(times) for p, times in by_p.items())
        useful += max(by_p)
    return executed, useful


def step_times_ms(spans: list[tuple]) -> dict[str, float]:
    """Median t(p) - t(p-1) per greedy method, split at p = r (derived)."""
    diffs = {(m, regime): [] for m in GREEDY for regime in ("under", "over")}
    for (op, method, fp), by_p in _ladders(spans).items():
        r = fp[1]
        for p in by_p:
            if p - 1 in by_p:
                step = statistics.median(by_p[p]) - statistics.median(by_p[p - 1])
                diffs[(method, "under" if p <= r else "over")].append(step)
    return {
        f"selectors.{method}.{regime}_step_ms": 1e3 * statistics.median(vals) if vals else 0.0
        for (method, regime), vals in diffs.items()
    }


#: How each per-layer number is obtained; the rest are measured directly.
LABELS = {
    "data.load_snapshots.mb_per_s": "computed: file bytes / measured time",
    "data.pod_truncate.gflop_per_s": "computed: R-SVD flop model 6MN^2+20N^3 / measured time",
    "selectors.brute.subsets_per_s": "computed: C(n, p) / measured time",
    "cli.bytes_written": "computed: sizes of the files and standard output a unit wrote",
    "selectors.steps_executed": "derived: sum of p over greedy selector calls",
    "selectors.steps_useful_ratio": "derived: distinct prefixes per (op, method, matrix) / steps executed",
    "fisher.calls_per_record": "derived: fisher.calls / cli.records",
    "trace.overhead_frac": "derived: median traced / median plain unit wall, both speed-normalised, - 1",
    **{f"{layer}.self_s": "derived: span durations minus child spans" for layer in LAYERS},
    **{
        f"selectors.{m}.{regime}_step_ms": "derived: median of t(p) - t(p-1) over p ladders"
        for m in GREEDY
        for regime in ("under", "over")
    },
    **{
        f"{kind}_p50_ms": "measured: request latency in the plain units of the traced run"
        for kind in LATENCY_KINDS
    },
}
