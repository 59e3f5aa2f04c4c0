"""The command line's input contract under fuzzing: every mutated snapshot
file and every drawn ``select`` or ``cv`` request ends in exit code 0, 2, 3
or 4, with no exception, no ``RuntimeWarning`` and no output on stdout when
it fails; a numerical failure names its method and p, or its fold."""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sensorsel.cli import main
from sensorsel.data import SnapshotData, SnapshotFormat, save_snapshots

N, M = 12, 5  # locations (candidate rows) and snapshots (modes) of the base file

#: The 32-byte RAW_F64 header's integer fields: (offset, struct format).
RAW_FIELDS = {"version": (4, "<I"), "n": (8, "<Q"), "m": (16, "<Q"), "flags": (24, "<I")}


def base_matrix() -> np.ndarray:
    return np.random.default_rng(3).standard_normal((N, M))


def file_bytes(tmp_path, x: np.ndarray, fmt: str, mask: bool) -> bytes:
    """The bytes ``save_snapshots`` writes for ``x``; row 2 is masked if ``mask``."""
    valid = None if not mask else np.arange(N) != 1
    path = tmp_path / "base"
    save_snapshots(SnapshotData(x, valid), path, SnapshotFormat(fmt))
    return path.read_bytes()


@st.composite
def snapshot_files(draw):
    """(format, mask, entry, mutation): the base matrix with at most one entry set
    to ±1e150–1e300 or ±1e-300–1e-150, then at most one mutation of its bytes."""
    fmt = draw(st.sampled_from(["csv", "raw"]))
    mask = fmt == "raw" and draw(st.booleans())
    entry = None
    if draw(st.booleans()):
        exponent = draw(st.integers(150, 300)) * draw(st.sampled_from([1, -1]))
        value = draw(st.sampled_from([1.0, -1.0, 3.7, -6.1])) * 10.0**exponent
        entry = (draw(st.integers(0, N - 1)), draw(st.integers(0, M - 1)), value)
    kind = draw(st.sampled_from(["none", "bytes", "header", "length"]))
    if kind == "bytes":
        mutation = ("bytes", draw(st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 255)), min_size=1, max_size=3)))
    elif kind == "header" and fmt == "csv":
        fields = st.one_of(st.integers(-2, 2 * N).map(str), st.sampled_from(["", "x", "1e13", "10000000000000", "2.5"]))
        mutation = ("csv header", draw(st.lists(fields, min_size=1, max_size=5)))
    elif kind == "header":
        name = draw(st.sampled_from(sorted(RAW_FIELDS)))
        value = draw(st.one_of(st.integers(0, 2 * N), st.sampled_from([2**31, 2**32 - 1, 2**40])))
        mutation = ("raw header", name, value)
    elif kind == "length":
        mutation = ("length", draw(st.integers(-200, 16)))
    else:
        mutation = ("none",)
    return fmt, mask, entry, mutation


def mutated(blob: bytes, mutation) -> bytes:
    data = bytearray(blob)
    if mutation[0] == "bytes":
        for pos, byte in mutation[1]:
            data[pos % len(data)] = byte
    elif mutation[0] == "csv header":
        rest = data.partition(b"\n")[2]
        data = bytearray(",".join(mutation[1]).encode() + b"\n" + rest)
    elif mutation[0] == "raw header":
        offset, fmt = RAW_FIELDS[mutation[1]]
        value = mutation[2] % 2 ** (8 * struct.calcsize(fmt))
        data[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    elif mutation[0] == "length":
        cut = mutation[1]
        data = data[:cut] if cut < 0 else data + bytes(range(65, 65 + cut))
    return bytes(data)


METHODS = ["dg", "ag", "eg", "random"]

select_argv = st.one_of(
    st.tuples(st.sampled_from(["dg", "ag", "eg"]), st.integers(-1, N + 1)).map(
        lambda t: ["select", "--method", t[0], "--p", str(t[1])]
    ),
    st.tuples(st.integers(0, 5), st.integers(-1, N + 1)).map(
        lambda t: ["select", "--method", "random", "--seed", str(t[0]), "--p", str(t[1])]
    ),
    st.tuples(st.sampled_from("dae"), st.integers(1, 6)).map(
        lambda t: ["select", "--method", "brute", "--criterion", t[0], "--p", str(t[1])]
    ),
)

cv_argv = st.tuples(
    st.integers(1, 4),
    st.integers(2, M + 1),
    st.integers(1, 4),
    st.integers(1, N + 1),
    st.lists(st.sampled_from(METHODS), min_size=1, max_size=4, unique=True),
).map(
    lambda t: [
        "cv", "--r", str(t[0]), "--k", str(t[1]), "--p-min", str(t[2]),
        "--p-max", str(t[3]), "--methods", ",".join(t[4]),
    ]
)

#: One entry of 1e163 at row 5, column 3: every raw Gram with that row overflows.
HUGE_ENTRY = ("raw", False, (4, 2, 1e163), ("none",))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(file=snapshot_files(), argv=st.one_of(select_argv, cv_argv))
@example(file=HUGE_ENTRY, argv=["select", "--method", "dg", "--p", "3"])
@example(file=HUGE_ENTRY, argv=["select", "--method", "brute", "--criterion", "a", "--p", "3"])
@example(file=HUGE_ENTRY, argv=["select", "--method", "brute", "--criterion", "e", "--p", "3"])
@example(file=HUGE_ENTRY, argv=["cv", "--r", "3", "--k", "5", "--p-min", "1", "--p-max", "6", "--methods", "dg,ag,eg"])
def test_every_request_ends_in_a_documented_exit_code(tmp_path, file, argv):
    fmt, mask, entry, mutation = file
    x = base_matrix()
    if entry is not None:
        x[entry[0], entry[1]] = entry[2]
    path = tmp_path / f"data.{fmt}"
    path.write_bytes(mutated(file_bytes(tmp_path, x, fmt, mask), mutation))
    argv = [*argv, "--data", str(path), "--format", fmt]
    if argv[0] == "cv":
        argv += ["--out", str(tmp_path / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
    if code == 4:
        case = r"method=\w+ p=\d+" if argv[0] == "select" else r"(method=\w+ p=\d+ )?fold=\d+"
        assert re.match(rf"numerical failure: {case}: ", err.getvalue()), err.getvalue()


@st.composite
def lanczos_requests(draw):
    """(x, mask, cv argv, select argv): a standard normal file just past the Lanczos
    edge, min(n, width) > 4 (2r + 1) for every training width, tall or wide.
    ARPACK keeps 20 Lanczos vectors; past 20 rows of the normal matrix they no
    longer span the whole space, so its convergence test decides where it stops."""
    r, folds = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    edge = 4 * (2 * r + 1)  # 20 or 28
    width = edge + draw(st.integers(1, 6))
    m = -(-width * folds // (folds - 1))  # ceil(width K / (K - 1)): the narrowest fold trains on >= width
    n = m + draw(st.integers(1, 8)) if draw(st.booleans()) else edge + draw(st.integers(1, 6))
    x = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, m))
    mask = np.arange(n) != draw(st.integers(0, n - 1)) if draw(st.booleans()) else None
    cv = ["cv", "--r", str(r), "--k", str(folds), "--p-min", "1", "--p-max", str(draw(st.integers(1, 3 * r)))]
    cv += ["--methods", "dg,ag,eg,random", "--seed", str(draw(st.integers(0, 9)))]
    method = draw(st.sampled_from(["dg", "ag", "eg", "random"]))
    select = ["select", "--method", method, "--p", str(draw(st.integers(1, n)))]
    return x, mask, cv, select


def run(argv, x, mask, tmp_path, name):
    """``main``'s exit code, stdout and stderr, and the bytes of what it wrote,
    with the wall-time cells cut out."""
    path = tmp_path / f"{name}.raw"
    save_snapshots(SnapshotData(x, mask), path, SnapshotFormat.RAW_F64)
    out_dir = tmp_path / name
    argv = [*argv, "--data", str(path), "--format", "raw"] + (["--out", str(out_dir)] if argv[0] == "cv" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for csv_path in sorted(out_dir.glob("*.csv")):
        lines = csv_path.read_text().splitlines()
        if lines[0].endswith(",wall_time_s"):
            files[csv_path.name] = [line.rsplit(",", 1)[0] for line in lines]
        else:  # the long-format summary
            files[csv_path.name] = [line for line in lines if ",wall_time_s_mean," not in line]
    return code, out.getvalue().replace(str(tmp_path / name), ""), err.getvalue(), files


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(request=lanczos_requests(), k=st.integers(-400, 400))
def test_a_power_of_two_scale_changes_no_output(tmp_path, request, k):
    # cv's folds take the Lanczos route here, unlike on the 12 x 5 base file above
    x, mask, cv, select = request
    for argv in (cv, select):
        base = run(argv, x, mask, tmp_path, "base")
        scaled = run(argv, x * 2.0**k, mask, tmp_path, "scaled")
        assert scaled == base
        assert base[0] == 0 or argv[0] == "select"  # a cv request here always succeeds
