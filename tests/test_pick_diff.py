"""tools/pick_diff.py finds no difference between two copies of a source tree
and finds a changed tie rule."""

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("pick_diff", _ROOT / "tools" / "pick_diff.py")
pick_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pick_diff)

REDUCED = ["--seeds", "1", "--max-n", "100"]  # one seed of the families up to 100 rows


def tree(tmp_path, name):
    shutil.copytree(_ROOT / "src" / "sensorsel", tmp_path / name / "src" / "sensorsel")
    return tmp_path / name


def test_two_copies_of_the_source_pick_alike(tmp_path, capsys):
    a, b = tree(tmp_path, "a"), tree(tmp_path, "b")
    assert pick_diff.main([str(a), str(b), *REDUCED]) == 0
    runs = 3 * sum(1 for n, _, _ in pick_diff.FAMILIES.values() if n <= 100)
    assert capsys.readouterr().out.startswith(f"{runs} runs, ")


def test_a_changed_tie_rule_is_found(tmp_path, capsys):
    a, b = tree(tmp_path, "a"), tree(tmp_path, "b")
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
