"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions by
name, so a renamed or removed public function must fail here, not only in a
traced benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import sensorsel
from sensorsel import build_measurement, cli, data, fisher, gen_random_system, submod

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_exists(tracing):
    missing = [
        f"{mod.__name__}.{name}"
        for mod, names in tracing.SPANNED.items()
        for name in names
        if not callable(getattr(mod, name, None))
    ]
    assert missing == []
    assert callable(submod.ModularityReport.witness_rows)
    assert callable(submod.SetObjective.evaluate)


def test_installed_wraps_and_then_restores_fisher_info(tracing):
    real = fisher.fisher_info
    holders = [ns for ns in tracing.NAMESPACES if getattr(ns, "fisher_info", None) is real]
    assert fisher in holders and sensorsel in holders
    sensors = build_measurement(gen_random_system(6, 2, 0), (1, 2, 3))
    tracer = tracing.Tracer()
    with tracer.installed():
        for ns in holders:
            assert ns.fisher_info is not real
            assert ns.fisher_info.__wrapped__ is real
        info = fisher.fisher_info(sensors)
    np.testing.assert_array_equal(info.matrix, real(sensors).matrix)
    assert [span[2] for span in tracer.spans] == ["fisher.fisher_info"]
    assert all(ns.fisher_info is real for ns in holders)


def test_oneshot_requests_record_the_spans_of_their_layers(tracing, tmp_path):
    # the per-layer metrics of the oneshot workload read these spans; a request
    # that stopped calling a spanned function would read 0 there unnoticed
    path = tmp_path / "cand.csv"
    data.save_snapshots(data.SnapshotData(gen_random_system(12, 3, 0).rows), path, data.SnapshotFormat.CSV)
    select = ["select", "--data", str(path), "--p", "4", "--method"]
    requests = [
        *((select + [m], {f"selectors.select_{m}"}) for m in ("dg", "ag", "eg")),
        *((select + ["brute", "--criterion", c], {"selectors.select_bruteforce"}) for c in "dae"),
        (
            ["submod", "--seed", "0", "--out", str(tmp_path / "submod")],
            {f"submod.{name}" for name in tracing.SPANNED[submod]},
        ),
    ]
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for argv, _names in requests:
            with tracer.op():
                assert cli.main(argv) == 0, argv
    ops = [span[0] for span in tracer.spans if span[2] == "cli.main"]
    for (argv, names), op in zip(requests, ops, strict=True):
        recorded = {span[2] for span in tracer.spans if span[1] == op}
        assert names <= recorded, (argv, names - recorded)
