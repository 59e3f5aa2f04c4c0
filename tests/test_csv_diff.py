"""tools/csv_diff.py tells float moves from changed indices, ignores wall time and
compares text files byte for byte."""

import importlib.util
import shutil
from pathlib import Path

from sensorsel.cli import ExperimentConfig, run_random, run_submod_report

_PATH = Path(__file__).resolve().parent.parent / "tools" / "csv_diff.py"
_SPEC = importlib.util.spec_from_file_location("csv_diff", _PATH)
csv_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_diff)


def run(tmp_path, out):
    cfg = ExperimentConfig(mode="random", n=12, r=3, p_max=4, trials=2, seed=4)
    cfg.out_dir = str(tmp_path / out)
    return run_random(cfg)


def edit_cell(path, row, column, edit):
    """Replace one cell of a file of unquoted cells, keeping its line ends."""
    lines = path.read_bytes().decode().split("\r\n")
    cells = lines[row].split(",")
    j = lines[0].split(",").index(column)
    cells[j] = edit(cells[j])
    lines[row] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())


def test_an_a_a_pair_differs_only_in_wall_time(tmp_path, capsys):
    run(tmp_path, "a")
    shutil.copytree(tmp_path / "a", tmp_path / "copy")
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "copy")]) == 0
    assert capsys.readouterr().out == "random.csv: byte-identical\nrandom_summary.csv: byte-identical\n"
    run(tmp_path, "b")  # a second run: only the wall-time cells differ
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "  indices: equal\n  locations: equal\n" in out and "  value: equal\n" in out
    assert "wall_time" not in out


def test_a_moved_float_is_reported_and_a_moved_index_fails(tmp_path, capsys):
    run(tmp_path, "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    edit_cell(tmp_path / "b" / "random.csv", 5, "recon_error", lambda c: repr(float(c) * 2))
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "  recon_error: largest relative move 0.5 at row 5\n" in out
    assert "  indices: equal\n" in out and "random_summary.csv: byte-identical" in out
    # row 3 is ag's p=2 record of trial 0: its two indices swap
    edit_cell(tmp_path / "b" / "random.csv", 3, "indices", lambda c: " ".join(c.split()[::-1]))
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "  indices: 1 cells differ, first at row 3\n" in capsys.readouterr().out


def test_a_move_between_huge_values_of_opposite_sign_is_finite(tmp_path, capsys):
    run(tmp_path, "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    edit_cell(tmp_path / "a" / "random.csv", 5, "recon_error", lambda c: "1e+308")
    edit_cell(tmp_path / "b" / "random.csv", 5, "recon_error", lambda c: "-1e+308")
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "  recon_error: largest relative move 2 at row 5\n" in capsys.readouterr().out


def test_a_file_in_one_directory_only_fails(tmp_path, capsys):
    run(tmp_path, "a")
    (tmp_path / "b").mkdir()
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"random.csv: only in {tmp_path / 'a'}" in capsys.readouterr().out


def test_a_changed_text_file_fails(tmp_path, capsys):
    cfg = ExperimentConfig(mode="submod", seed=3, out_dir=str(tmp_path / "a"))
    run_submod_report(cfg)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "submod_report.txt: byte-identical\n" in capsys.readouterr().out
    report = tmp_path / "b" / "submod_report.txt"
    report.write_bytes(report.read_bytes().replace(b"violations:  ", b"violations: ", 1))
    assert csv_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "submod_report.txt: bytes differ\n" in out and "submod_witnesses.csv: byte-identical\n" in out
