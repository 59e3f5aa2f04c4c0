"""Self-tests of the benchmark: the correctness gate, the tracer's and the speed normalisation's arithmetic, and the output contract.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads
from sensorsel import cli

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def sweep_records(tmp_path_factory):
    """A real ``random`` record CSV (trial 0, p = 1..12) and the sweep workload's oracle."""
    work = tmp_path_factory.mktemp("sweep")
    wl = workloads.Sweep(work, seed=5)
    wl.prepare_gate()
    argv = wl._argv(wl.trial_seed(0), 1, 12, work / "out")
    assert cli.main(argv) == 0
    return wl, work / "out" / "random.csv"


def corrupt(path: Path, tmp: Path, edit) -> Path:
    """Copy of a record CSV with ``edit`` applied to the eg row at p=12."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["method"] == "eg" and row["p"] == "12":
            edit(row)
    out = tmp / "corrupt.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return out


def check(wl, path):
    def oracle(rec):
        return wl.cands[int(rec["trial"])], None, wl.greedy[int(rec["trial"])]

    return workloads.check_records(path, wl.expected_keys(), oracle)


def test_clean_records_pass(sweep_records):
    wl, path = sweep_records
    outputs, bad = check(wl, path)
    assert len(outputs) == 4 * 12 and not bad


def test_swapped_index_fails(sweep_records, tmp_path):
    wl, path = sweep_records

    def swap(row):
        idx = row["indices"].split()
        idx[-1] = next(str(i) for i in range(1, wl.N + 1) if str(i) not in idx)
        row["indices"] = row["locations"] = " ".join(idx)

    _, bad = check(wl, corrupt(path, tmp_path, swap))
    assert bad == {"eg p=12 trial=0"}


def test_perturbed_det_index_fails(sweep_records, tmp_path):
    wl, path = sweep_records

    def perturb(row):
        row["det_index"] = repr(float(row["det_index"]) * (1 + 1e-4))

    _, bad = check(wl, corrupt(path, tmp_path, perturb))
    assert bad == {"eg p=12 trial=0"}


def test_out_of_order_greedy_picks_fail(sweep_records, tmp_path):
    """Valid, consistent indices that are not the greedy choice still fail."""
    wl, path = sweep_records

    def reorder(row):
        idx = row["indices"].split()
        idx[3], idx[4] = idx[4], idx[3]
        row["indices"] = row["locations"] = " ".join(idx)

    _, bad = check(wl, corrupt(path, tmp_path, reorder))
    assert bad == {"eg p=12 trial=0"}


def test_brute_gate_rejects_a_suboptimal_subset():
    rows = gate.normal_matrix(9, 3, 1)
    subsets, values = gate.subset_objectives(rows, 4, "d")
    best = list(subsets[int(values.argmax())])
    worst = list(subsets[int(values.argmin())])
    assert gate.brute_problems(rows, 4, "d", best) == []
    assert gate.brute_problems(rows, 4, "d", worst)


def test_layer_self_times_sum_to_root_spans():
    spans = [
        (0, 0, "cli.main", 0.0, 10.0, None, None),
        (1, 0, "submod.nemhauser_check", 1.0, 5.0, 0, None),
        (2, 0, "selectors.select_ag", 2.0, 3.0, 1, None),
        (3, 0, "fisher.det_index", 6.0, 6.5, 0, None),
    ]
    self_s = tracing.layer_self_times(spans)
    assert self_s == {"data": 0.0, "fisher": 0.5, "selectors": 1.0, "submod": 3.0, "cli": 5.5}
    assert sum(self_s.values()) == 10.0


def test_normalise_scales_by_the_probes_before_and_after(monkeypatch):
    speed = run.HostSpeed()
    speed.samples = [2 * run.PROBE_REFERENCE_S]

    def probe():
        speed.samples.append(4 * run.PROBE_REFERENCE_S)
        return speed.samples[-1]

    monkeypatch.setattr(speed, "probe", probe)
    # The host ran at a third of the reference speed on average, so 6 s read as 2 s.
    assert speed.normalise(6.0) == pytest.approx(2.0)


def test_one_command_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "2", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
