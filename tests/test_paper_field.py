"""tools/paper_field.py writes a seeded RAW_F64 field that sensorsel loads."""

import importlib.util
from pathlib import Path

import numpy as np

from sensorsel import SnapshotFormat, load_snapshots

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paper_field.py"
_SPEC = importlib.util.spec_from_file_location("paper_field", _PATH)
paper_field = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paper_field)


def test_a_two_block_field_is_seeded_and_loads(tmp_path):
    width, height, m = 4, 3, paper_field.BLOCK + 6  # two write blocks, the second partial
    first, second = tmp_path / "a.raw", tmp_path / "b.raw"
    for path in (first, second):
        paper_field.write_field(path, width, height, m, seed=3)
    assert first.read_bytes() == second.read_bytes()
    data = load_snapshots(first, SnapshotFormat.RAW_F64)
    assert (data.n, data.m) == (width * height, m)
    assert data.mask is not None and data.mask.any() and not data.mask.all()
    assert np.all(data.X[~data.mask] == 0.0)
    assert np.all(data.X[data.mask] != 0.0)
