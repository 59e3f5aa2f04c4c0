"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions by
name, so a renamed or removed public function must fail here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sensorsel
from sensorsel import build_measurement, fisher, gen_random_system, submod

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
