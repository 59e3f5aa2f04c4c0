"""tools/pick_diff.py finds no difference between two copies of a source tree
and finds a changed tie rule."""

import importlib.util
import shutil
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("pick_diff", _ROOT / "tools" / "pick_diff.py")
pick_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pick_diff)

SEEDS, MAX_N = 1, 100  # one seed of the families up to 100 rows
REDUCED = ["--seeds", str(SEEDS), "--max-n", str(MAX_N)]


def tree(tmp_path, name):
    shutil.copytree(_ROOT / "src" / "sensorsel", tmp_path / name / "src" / "sensorsel")
    return tmp_path / name


@pytest.fixture(scope="module")
def unchanged(tmp_path_factory):
    """A copy of the source and its runs on the reduced corpus, run once for the module."""
    a = tree(tmp_path_factory.mktemp("unchanged"), "a")
    return a, pick_diff._runs(a, SEEDS, MAX_N)


@pytest.fixture
def a(unchanged, monkeypatch):
    """The unchanged tree, whose runs ``main`` reads from the module's one run."""
    a, runs_a = unchanged
    runs = pick_diff._runs
    monkeypatch.setattr(pick_diff, "_runs", lambda t, seeds, max_n: runs_a if t == a else runs(t, seeds, max_n))
    return a


def test_two_copies_of_the_source_pick_alike(a, tmp_path, capsys):
    b = tree(tmp_path, "b")
    assert pick_diff.main([str(a), str(b), *REDUCED]) == 0
    runs = 3 * sum(1 for n, _, _ in pick_diff.FAMILIES.values() if n <= 100)
    assert capsys.readouterr().out.startswith(f"{runs} runs, ")


def test_a_changed_tie_rule_is_found(a, tmp_path, capsys):
    b = tree(tmp_path, "b")
    selectors = b / "src" / "sensorsel" / "selectors.py"
    rule = "return int(np.flatnonzero(v >= best - tol)[0])"
    text = selectors.read_text()
    assert rule in text
    selectors.write_text(text.replace(rule, rule.replace("[0]", "[-1]")))  # the highest index
    assert pick_diff.main([str(a), str(b), *REDUCED]) == 1
    out = capsys.readouterr().out
    assert "runs differ; first: family=duplicated seed=0 method=dg step=1: A picks " in out


def test_a_run_that_ends_early_is_reported_with_its_error():
    error = "NoAdmissibleCandidateError: step 3: every remaining row adds no direction"
    a = ["integer", 0, "ag", [4, 2, 7], None]
    b = ["integer", 0, "ag", [4, 2], error]
    assert pick_diff._first_difference(a, a) is None
    expected = f"family=integer seed=0 method=ag step=3: A picks 7, B ends ({error})"
    assert pick_diff._first_difference(a, b) == expected
