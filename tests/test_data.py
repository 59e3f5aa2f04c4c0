import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from sensorsel import (
    DataError,
    FoldError,
    FormatError,
    PodModel,
    RankOutOfRangeError,
    SnapshotData,
    SnapshotFormat,
    gen_latent,
    gen_random_system,
    kfold,
    load_snapshots,
    pod_truncate,
    save_snapshots,
    sensor_candidates,
)
from sensorsel.cli import main
from sensorsel.data import _lanczos, fold_pods

from conftest import assert_pod_close


def raw_header(n, m, flags=0, magic=b"SNAP", version=1):
    return struct.pack("<4sIQQI4x", magic, version, n, m, flags)


class TestCsvFormat:
    def test_identity_payload(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("2,2\n1,0\n0,1\n")
        data = load_snapshots(path, SnapshotFormat.CSV)
        np.testing.assert_array_equal(data.X, np.eye(2))
        assert data.mask is None and data.grid is None

    def test_grid_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("4,1,2,2\n1,2,3,4\n")
        data = load_snapshots(path, SnapshotFormat.CSV)
        assert data.grid == (2, 2)
        np.testing.assert_array_equal(data.X[:, 0], [1, 2, 3, 4])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1\n0\n",
            "a,b\n1,0\n0,1\n",
            "2,2\n1,0\n",          # too few snapshot lines
            "2,2\n1,0\n0,1\n5,5\n",  # too many
            "2,2\n1,0,3\n0,1\n",   # wrong value count
            f"{10**17},1\n1.0\n",  # wrong value count, found before 800 PB are allocated
            "2,2\n1,zz\n0,1\n",    # bad token
            "3,1,2,2\n1,2,3\n",    # grid does not cover n
            "6,1,-2,-3\n1,2,3,4,5,6\n",  # nonpositive grid sides
            "0,2\n\n",             # nonpositive dims
        ],
    )
    def test_malformed_raises(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.CSV)

    def test_snapshot_data_rejects_a_nonpositive_grid_side(self):
        with pytest.raises(ValueError, match="grid sides must be positive, got -1x-6"):
            SnapshotData(np.ones((6, 2)), grid=(-1, -6))
        with pytest.raises(ValueError, match="grid sides must be whole numbers, got 2.5x4"):
            SnapshotData(np.ones((10, 3)), grid=(2.5, 4))

    def test_non_utf8_file_is_format_error_naming_the_path(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"2,1\n\xff\xfe,1\n")
        with pytest.raises(FormatError, match="binary.csv"):
            load_snapshots(path, SnapshotFormat.CSV)

    def test_non_finite_payload_is_data_error(self, tmp_path):
        path = tmp_path / "naughty.csv"
        path.write_text("2,1\nnan,1\n")
        with pytest.raises(DataError):
            load_snapshots(path, SnapshotFormat.CSV)

    def test_round_trip_is_exact(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((7, 5))
        path = tmp_path / "rt.csv"
        save_snapshots(SnapshotData(x, grid=None), path, SnapshotFormat.CSV)
        back = load_snapshots(path, SnapshotFormat.CSV)
        np.testing.assert_array_equal(back.X, x)

    def test_mask_not_representable(self, tmp_path):
        data = SnapshotData(np.ones((2, 2)), mask=np.array([True, False]))
        with pytest.raises(ValueError):
            save_snapshots(data, tmp_path / "m.csv", SnapshotFormat.CSV)

    def test_round_trip_with_a_grid(self, tmp_path):
        x = np.random.default_rng(2).standard_normal((6, 3))
        path = tmp_path / "grid.csv"
        save_snapshots(SnapshotData(x, grid=(2, 3)), path, SnapshotFormat.CSV)
        assert path.read_text().splitlines()[0] == "6,3,2,3"
        back = load_snapshots(path, SnapshotFormat.CSV)
        assert back.grid == (2, 3)
        np.testing.assert_array_equal(back.X, x)


class TestRawFormat:
    def test_single_column(self, tmp_path):
        payload = np.array([1.0, 2.0, 3.0]).tobytes()
        path = tmp_path / "x.raw"
        path.write_bytes(raw_header(3, 1) + payload)
        data = load_snapshots(path, SnapshotFormat.RAW_F64)
        np.testing.assert_array_equal(data.X, [[1.0], [2.0], [3.0]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.raw"
        path.write_bytes(raw_header(3, 2) + b"\0" * 8)
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_one_trailing_byte(self, tmp_path):
        path = tmp_path / "long.raw"
        mask = bytes([1, 0, 1])
        path.write_bytes(raw_header(3, 2, flags=1) + mask + b"\0" * 48 + b"\0")
        with pytest.raises(FormatError, match=r"long\.raw: 84 bytes, but the header implies 83"):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_header_n_too_small_is_not_reshaped(self, tmp_path):
        # A 12x5 payload under a header that says n=10 would load as 10x5,
        # its column 1 starting with the tail of column 0.
        path = tmp_path / "bad_n.raw"
        payload = np.arange(60.0).tobytes(order="F")
        path.write_bytes(raw_header(10, 5) + payload)
        with pytest.raises(FormatError, match=r"bad_n\.raw: 512 bytes, but the header implies 432"):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(raw_header(1, 1, magic=b"SNOP") + b"\0" * 8)
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.RAW_F64)
        path.write_bytes(raw_header(1, 1, version=9) + b"\0" * 8)
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_header_shorter_than_32_bytes(self, tmp_path):
        path = tmp_path / "tiny.raw"
        path.write_bytes(b"SNAP")
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_column_major_payload_order(self, tmp_path):
        # columns are contiguous: payload is col0 then col1
        x = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        path = tmp_path / "cm.raw"
        save_snapshots(SnapshotData(x), path, SnapshotFormat.RAW_F64)
        blob = path.read_bytes()
        flat = np.frombuffer(blob, dtype="<f8", offset=32)
        np.testing.assert_array_equal(flat, [1, 2, 3, 4, 5, 6])

    def test_round_trip_with_mask_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        mask = np.array([True, True, False, True, False, True])
        x[~mask] = np.nan  # masked-out rows may hold junk
        data = SnapshotData(x, mask=mask)
        path = tmp_path / "rt.raw"
        save_snapshots(data, path, SnapshotFormat.RAW_F64)
        back = load_snapshots(path, SnapshotFormat.RAW_F64)
        np.testing.assert_array_equal(back.mask, mask)
        np.testing.assert_array_equal(back.X[mask], x[mask])

    def test_a_masked_file_loads_into_one_payload_sized_array(self, tmp_path):
        n, m = 2000, 300
        x = np.random.default_rng(2).standard_normal((n, m))
        mask = np.random.default_rng(3).random(n) >= 0.3
        path = tmp_path / "big.raw"
        save_snapshots(SnapshotData(x, mask=mask), path, SnapshotFormat.RAW_F64)
        tracemalloc.start()  # NumPy reports its buffers to tracemalloc
        try:
            data = load_snapshots(path, SnapshotFormat.RAW_F64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * m * 8  # the kept array, and no copy of the file beside it
        assert data.X.flags.f_contiguous and not data.X.flags.writeable
        np.testing.assert_array_equal(data.X, np.where(mask[:, None], x, 0.0))

    def test_masked_in_nan_is_data_error(self, tmp_path):
        path = tmp_path / "nan.raw"
        payload = struct.pack("<2d", float("nan"), 1.0)
        path.write_bytes(raw_header(2, 1, flags=1) + b"\x01\x01" + payload)
        with pytest.raises(DataError):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_undefined_header_flag_is_format_error(self, tmp_path):
        path = tmp_path / "flags.raw"
        path.write_bytes(raw_header(2, 1, flags=6) + b"\0" * 16)
        with pytest.raises(FormatError, match=r"flags\.raw: unknown header flags 0x6"):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_grid_not_representable(self, tmp_path):
        data = SnapshotData(np.ones((6, 2)), grid=(2, 3))
        with pytest.raises(ValueError, match="RAW_F64 format cannot carry a grid"):
            save_snapshots(data, tmp_path / "g.raw", SnapshotFormat.RAW_F64)
        assert not (tmp_path / "g.raw").exists()


    @pytest.mark.parametrize("fmt", list(SnapshotFormat))
    def test_save_writes_the_snapshot_file_alone(self, tmp_path, fmt):
        save_snapshots(SnapshotData(np.eye(2)), tmp_path / "only", fmt)
        assert [p.name for p in tmp_path.iterdir()] == ["only"]


class TestMaskedRows:
    """Masked rows read as zero once a snapshot set is built, whatever they held."""

    MASK = np.array([True, False, True, True, False, True])

    @pytest.mark.parametrize("junk", [np.nan, np.inf, 7.5, -1e300])
    def test_read_zero_and_valid_rows_are_unchanged(self, junk):
        x = np.random.default_rng(11).standard_normal((6, 4))
        x[~self.MASK] = junk
        given = x.copy()
        data = SnapshotData(x, mask=self.MASK)
        assert np.all(data.X[~self.MASK] == 0.0)
        assert data.X[self.MASK].tobytes() == x[self.MASK].tobytes()
        np.testing.assert_array_equal(x, given)  # the input is not written

    def test_raw_file_with_nan_in_masked_rows_loads_zeros(self, tmp_path):
        path = tmp_path / "nan.raw"
        payload = struct.pack("<4d", 1.0, float("nan"), 2.0, float("nan"))
        path.write_bytes(raw_header(2, 2, flags=1) + b"\x01\x00" + payload)
        data = load_snapshots(path, SnapshotFormat.RAW_F64)
        np.testing.assert_array_equal(data.X, [[1.0, 2.0], [0.0, 0.0]])

    def test_saved_file_holds_zeros_at_masked_rows(self, tmp_path):
        x = np.random.default_rng(13).standard_normal((6, 3))
        x[~self.MASK] = np.nan
        path = tmp_path / "zeros.raw"
        save_snapshots(SnapshotData(x, mask=self.MASK), path, SnapshotFormat.RAW_F64)
        flat = np.frombuffer(path.read_bytes(), dtype="<f8", offset=32 + 6)
        saved = flat.reshape((6, 3), order="F")
        assert np.all(saved[~self.MASK] == 0.0)
        np.testing.assert_array_equal(saved[self.MASK], x[self.MASK])


class TestPod:
    def test_diagonal_truncation(self):
        pod = pod_truncate(SnapshotData(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(pod.singular_values, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(pod.modes), np.eye(3)[:, :2], atol=1e-12)
        assert pod.modes[0, 0] > 0 and pod.modes[1, 1] > 0

    def test_full_rank_reconstruction(self):
        x = np.random.default_rng(2).standard_normal((8, 6))
        pod = pod_truncate(SnapshotData(x), 6)
        approx = pod.modes @ (pod.modes.T @ x)
        assert np.linalg.norm(x - approx) <= 1e-10 * np.linalg.norm(x)

    def test_truncation_residual_matches_tail_energy_oracle(self):
        x = np.random.default_rng(3).standard_normal((50, 20))
        r = 5
        pod = pod_truncate(SnapshotData(x), r)
        approx = pod.modes @ (pod.modes.T @ x)
        residual = np.linalg.norm(x - approx) ** 2
        # independent route: eigenvalues of XᵀX
        eigs = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
        tail = float(np.sum(eigs[r:]))
        assert residual == pytest.approx(tail, rel=1e-8)

    def test_masked_rows_are_zeroed(self):
        x = np.random.default_rng(5).standard_normal((6, 4))
        mask = np.array([True, False, True, True, False, True])
        pod = pod_truncate(SnapshotData(x, mask=mask), 2)
        assert np.abs(pod.modes[~mask]).max() <= 1e-14

    def test_sign_convention(self):
        x = np.random.default_rng(6).standard_normal((12, 7))
        pod = pod_truncate(SnapshotData(x), 4)
        for j in range(4):
            k = np.argmax(np.abs(pod.modes[:, j]))
            assert pod.modes[k, j] > 0

    @pytest.mark.parametrize("r", [0, 5])
    def test_rank_out_of_range(self, r):
        with pytest.raises(RankOutOfRangeError):
            pod_truncate(SnapshotData(np.ones((4, 4)) + np.eye(4)), r)


def lapack_pod(x, r):
    """Reference: the r leading modes and singular values of the full LAPACK SVD
    under pod_truncate's sign rule."""
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    u, s = u[:, :r], s[:r]
    for j in range(r):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
    return u, s


def steep_snapshots(n, m, r, ratio, seed=0):
    """Rank r + 8 matrix whose singular values fall geometrically, sigma_1 / sigma_r = ratio."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = r + 8
    a = np.linalg.qr(rng.standard_normal((n, k)))[0]
    b = np.linalg.qr(rng.standard_normal((m, k)))[0]
    s = float(ratio) ** (-np.arange(k) / (r - 1))
    return (a * s) @ b.T


def assert_same_pod(pod, x, r):
    u, s = lapack_pod(x, r)
    assert np.array_equal(pod.modes, u)
    assert np.array_equal(pod.singular_values, s)


@pytest.fixture
def arpack_calls(monkeypatch):
    """Shapes of the normal matrices passed to ``scipy.sparse.linalg.eigsh`` while the test runs."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


@pytest.fixture
def full_svd_calls(monkeypatch):
    """Shapes passed to ``np.linalg.svd`` while the test runs: the full LAPACK SVD
    of an n x m snapshot matrix shows up as (n, m), the Rayleigh-Ritz step as (n, r)."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def normal_shape(shape):
    return (min(shape),) * 2


def assert_close_to_lapack(pod, x, r):
    """Each sigma_j, and each mode scaled by sigma_j, within 1e-12 sigma_1."""
    u, s = lapack_pod(x, r)
    tol = 1e-12 * s[0]
    np.testing.assert_allclose(pod.singular_values, s, rtol=0, atol=tol)
    np.testing.assert_allclose(pod.modes * pod.singular_values, u * s, rtol=0, atol=tol)


class TestPodArpack:
    """pod_truncate on matrices large enough for Lanczos: min(n, m) >= 4 (2r + 1)."""

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    def test_matches_lapack_on_a_steep_spectrum(self, arpack_calls, shape):
        # At sigma_1 / sigma_r = 2e6 the r-th mode itself is only determined to
        # about 1e-11 (LAPACK's differs from the exact factors by that much), so
        # modes are compared weighted by their singular value, on sigma_1's scale.
        # The Lanczos solve runs, and its result gives way to LAPACK's: 2e6 is
        # past the ratio rule (sigma_r <= 1e-6 sigma_1).
        r = 4
        x = steep_snapshots(*shape, r, ratio=2e6)
        pod = pod_truncate(SnapshotData(x), r)
        assert arpack_calls == [normal_shape(shape)]
        u, s = lapack_pod(x, r)
        assert s[0] / s[-1] >= 1e6
        tol = 1e-12 * s[0]
        np.testing.assert_allclose(pod.singular_values, s, rtol=0, atol=tol)
        np.testing.assert_allclose(pod.modes * pod.singular_values, u * s, rtol=0, atol=tol)

    def test_too_steep_a_spectrum_falls_back_to_lapack(self, arpack_calls):
        x = steep_snapshots(300, 120, 4, ratio=1e13)
        pod = pod_truncate(SnapshotData(x), 4)
        assert arpack_calls == [normal_shape(x.shape)]
        assert_same_pod(pod, x, 4)

    @pytest.mark.parametrize(
        "error",
        [
            scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], []),
            scipy.sparse.linalg.ArpackError(-9999),
        ],
        ids=["no-convergence", "other-arpack-error"],
    )
    def test_arpack_failure_falls_back_to_lapack(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        x = steep_snapshots(300, 120, 4, ratio=1e3)
        assert_same_pod(pod_truncate(SnapshotData(x), 4), x, 4)

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    def test_masked_rows(self, arpack_calls, shape):
        rng = np.random.Generator(np.random.PCG64(11))
        x = steep_snapshots(*shape, 5, ratio=1e2, seed=1) + 0.1
        mask = rng.random(shape[0]) >= 0.2
        x[~mask] = np.nan
        pod = pod_truncate(SnapshotData(x, mask=mask), 5)
        assert np.abs(pod.modes[~mask]).max() <= 1e-14
        u, s = lapack_pod(np.where(mask[:, None], x, 0.0), 5)
        np.testing.assert_allclose(pod.singular_values, s, rtol=1e-12)
        np.testing.assert_allclose(pod.modes, u, rtol=0, atol=1e-12)
        assert arpack_calls == [normal_shape(shape)]

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    def test_the_normal_matrix_is_the_gram_when_tall(self, lanczos_normals, shape):
        x = steep_snapshots(*shape, 4, ratio=1e3)
        data = SnapshotData(x)
        assert_close_to_lapack(pod_truncate(data, 4), x, 4)
        (normal,) = lanczos_normals
        if shape[0] >= shape[1]:
            assert normal is data.gram  # the set's cached XᵀX, not a second product
        else:
            assert "gram" not in data.__dict__  # a wide X never forms its m x m XᵀX
            np.testing.assert_array_equal(normal, x @ x.T)

    def test_reruns_are_bit_identical(self, arpack_calls):
        x = steep_snapshots(36, 300, 4, ratio=1e3)  # min(n, m) = 4 (2r + 1): the rule's edge
        first, second = (pod_truncate(SnapshotData(x), 4) for _ in range(2))
        assert arpack_calls == [normal_shape(x.shape)] * 2
        for name in ("modes", "singular_values"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    @pytest.mark.parametrize("shape, r", [((300, 35), 4), ((35, 300), 4), ((400, 30), 5)])
    def test_below_the_shape_rule_lapack_runs(self, arpack_calls, shape, r):
        x = steep_snapshots(*shape, r, ratio=1e3)
        pod = pod_truncate(SnapshotData(x), r)
        assert arpack_calls == []
        assert_same_pod(pod, x, r)

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    @pytest.mark.parametrize("r", [2, 4, 8, 12])
    @pytest.mark.parametrize("ratio", [1e2, 1e4, 1e5, 5e5, 9e5])
    def test_accuracy_where_the_lanczos_result_is_kept(
        self, arpack_calls, full_svd_calls, shape, r, ratio
    ):
        # ratios 5e5 and 9e5 are just inside the rule: the steepest spectra whose result is kept
        assert min(shape) >= 4 * (2 * r + 1)
        x = steep_snapshots(*shape, r, ratio=ratio)
        pod = pod_truncate(SnapshotData(x), r)
        assert arpack_calls == [normal_shape(shape)]
        assert shape not in full_svd_calls
        assert_close_to_lapack(pod, x, r)

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    def test_sigma_ratio_of_1e7_falls_back_to_lapack(self, arpack_calls, shape):
        x = steep_snapshots(*shape, 4, ratio=1e7)
        pod = pod_truncate(SnapshotData(x), 4)
        assert arpack_calls == [normal_shape(shape)]
        assert_same_pod(pod, x, 4)


def train_folds(m, k):
    plan = kfold(m, k)
    return [plan.train_columns(fold) for fold in range(1, k + 1)]


class TestFoldPods:
    """The folds' PODs, fitted together, against pod_truncate of a copy of each fold's columns."""

    @staticmethod
    def own(x, folds, r, mask=None):
        return [pod_truncate(SnapshotData(x[:, cols], mask=mask), r) for cols in folds]

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)], ids=["tall", "wide"])
    def test_lanczos_folds_match_their_own(self, arpack_calls, full_svd_calls, shape):
        rng = np.random.Generator(np.random.PCG64(4))
        x = steep_snapshots(*shape, 5, ratio=1e3) + 1e-4 * rng.standard_normal(shape)
        mask = rng.random(shape[0]) >= 0.2
        folds = train_folds(shape[1], 4)
        pods = fold_pods(SnapshotData(x, mask=mask), 5, folds)
        width = len(folds[0])
        assert arpack_calls == [normal_shape((shape[0], width))] * 4
        assert (shape[0], width) not in full_svd_calls  # no fold fell back
        for pod, ref in zip(pods, self.own(x, folds, 5, mask)):
            assert np.abs(pod.modes[~mask]).max() == 0.0
            assert_pod_close(pod, ref)

    def test_a_steep_fold_falls_back_to_lapack_alone(self, arpack_calls, full_svd_calls):
        # fold 1 trains on a spectrum with sigma_1 / sigma_r = 1e7; the other
        # folds also hold its flat test columns, so their Lanczos results stay
        rng = np.random.Generator(np.random.PCG64(5))
        flat = np.linalg.qr(rng.standard_normal((300, 13)))[0] @ rng.standard_normal((13, 30))
        x = np.hstack([flat, steep_snapshots(300, 90, 5, ratio=1e7)])
        folds = train_folds(120, 4)
        pods = fold_pods(SnapshotData(x), 5, folds)
        assert arpack_calls == [(90, 90)] * 4
        assert full_svd_calls.count((300, 90)) == 1
        assert_same_pod(pods[0], x[:, folds[0]], 5)
        for pod, ref in zip(pods[1:], self.own(x, folds[1:], 5)):
            assert_pod_close(pod, ref)

    def test_overflowing_folds_take_lapack(self, arpack_calls):
        x = TestPodOverflow.x
        folds = train_folds(x.shape[1], 2)
        pods = fold_pods(SnapshotData(x), 3, folds)
        assert arpack_calls == []
        for pod, cols in zip(pods, folds):
            assert_same_pod(pod, x[:, cols], 3)

    def test_tall_and_wide_folds_of_one_file(self, arpack_calls):
        x = steep_snapshots(120, 300, 4, ratio=1e2, seed=2)
        folds = [np.arange(100), np.arange(50, 300)]  # 120 x 100 is tall, 120 x 250 wide
        pods = fold_pods(SnapshotData(x), 4, folds)
        assert arpack_calls == [(100, 100), (120, 120)]
        for pod, ref in zip(pods, self.own(x, folds, 4)):
            assert_pod_close(pod, ref)

    def test_unsorted_columns_keep_their_order(self):
        x = steep_snapshots(300, 120, 4, ratio=1e2, seed=3)
        cols = np.random.Generator(np.random.PCG64(6)).permutation(120)[:90]
        (pod,) = fold_pods(SnapshotData(x), 4, [cols])
        assert_pod_close(pod, pod_truncate(SnapshotData(x[:, cols]), 4))

    def test_the_first_fold_too_narrow_for_the_rank_raises(self):
        data = SnapshotData(np.random.default_rng(0).standard_normal((12, 12)))
        with pytest.raises(RankOutOfRangeError, match=r"rank 4 outside \[1, 3\]"):
            fold_pods(data, 4, [np.arange(8), np.arange(3), np.arange(2)])


class TestPodOverflow:
    """Snapshots scaled by 1e200, whose normal matrix overflows."""

    x = np.random.Generator(np.random.PCG64(0)).standard_normal((300, 100)) * 1e200

    def test_lapack_takes_it_without_a_word(self, capfd, arpack_calls):
        # 300 x 100 at r = 3 is Lanczos-sized, but its normal matrix is not finite
        pod = pod_truncate(SnapshotData(self.x), 3)
        assert capfd.readouterr() == ("", "")
        assert arpack_calls == []
        assert np.array_equal(pod.singular_values, np.linalg.svd(self.x, full_matrices=False)[1][:3])


def flat_snapshots():
    """2000 x 300 snapshots with the slowly falling singular values exp(-3j/300)."""
    rng = np.random.Generator(np.random.PCG64(24))
    a = np.linalg.qr(rng.standard_normal((2000, 300)))[0]
    b = np.linalg.qr(rng.standard_normal((300, 300)))[0]
    return (a * np.exp(-3.0 * np.arange(300) / 300)) @ b.T


class TestLanczosScale:
    """The Lanczos route at the file's scale: ARPACK sees the normal matrix scaled
    by a power of two, so a file's power-of-two scale changes no mode."""

    R = 10

    @pytest.fixture(scope="class")
    def flat(self):
        x = flat_snapshots()
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        return x, u[:, : self.R], s[: self.R], pod_truncate(SnapshotData(x), self.R)

    @pytest.mark.parametrize("k", [-40, -60])
    def test_a_small_flat_file_keeps_its_modes(self, flat, arpack_calls, k):
        x, u, s, unscaled = flat
        pod = pod_truncate(SnapshotData(x * 2.0**k), self.R)
        assert arpack_calls == [(300, 300)]
        np.testing.assert_allclose(pod.singular_values * 2.0**-k, s, rtol=0, atol=1e-12 * s[0])
        assert np.array_equal(pod.modes, unscaled.modes)
        # sigma_10 / sigma_11 = e^0.01: the leading subspace is pinned, each mode less so
        assert np.linalg.norm(u - pod.modes @ (pod.modes.T @ u), 2) <= 1e-11

    def test_cv_on_a_small_flat_file_picks_alike(self, flat, tmp_path):
        x = flat[0]
        picks = []
        for k in (0, -60):
            path = tmp_path / f"flat{k}.raw"
            save_snapshots(SnapshotData(x * 2.0**k), path, SnapshotFormat.RAW_F64)
            argv = ["cv", "--data", str(path), "--format", "raw", "--r", str(self.R), "--k", "5"]
            argv += ["--p-max", "20", "--methods", "dg,ag,eg", "--out", str(tmp_path / f"out{k}")]
            assert main(argv) == 0
            rows = (tmp_path / f"out{k}" / "cv.csv").read_text().splitlines()
            picks.append([row.split(",")[:5] for row in rows])  # method, p, fold, indices, locations
        assert len(picks[0]) == 1 + 3 * 20 * 5
        assert picks[0] == picks[1]

    @pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
    @pytest.mark.parametrize(
        "exponent, lanczos",
        [(-960, True), (-962, False), (-1040, False), (1020, True), (1022, False)],
    )
    def test_a_normal_matrix_near_either_end_of_the_float_range_takes_lapack(
        self, arpack_calls, shape, exponent, lanczos
    ):
        # the rule's edges are a largest diagonal entry of 2^-960 and 2^1022; at
        # 2^-1040 the scale factor, about 2^1040, would overflow, and from 2^1022
        # on it would be subnormal
        x = steep_snapshots(*shape, 4, ratio=1e3)
        top = np.diagonal(x.T @ x if shape[0] >= shape[1] else x @ x.T).max()
        x = x * 2.0 ** ((exponent - np.frexp(top)[1]) // 2 + 1)  # top in [2^exponent, 2^(exponent + 2))
        normal = x.T @ x if shape[0] >= shape[1] else x @ x.T
        assert (2.0**-960 <= np.diagonal(normal).max() < 2.0**1022) == lanczos
        pod = pod_truncate(SnapshotData(x), 4)
        assert arpack_calls == ([normal_shape(shape)] if lanczos else [])
        assert_close_to_lapack(pod, x, 4)


class TestNormalOperator:
    """The one-triangle product ARPACK runs on."""

    @pytest.mark.parametrize("cols", [slice(None), np.r_[0:30, 60:120]], ids=["all", "fold"])
    def test_the_unread_triangle_is_never_read(self, cols):
        x = steep_snapshots(300, 120, 4, ratio=1e2)
        clean = _lanczos(SnapshotData(x), 4, cols, tall=True)
        poisoned = {}
        for triangle, (i, j) in (("upper", (3, 70)), ("lower", (70, 3))):
            data = SnapshotData(x)
            gram = data.gram.copy()
            gram[i, j] = np.nan
            data.__dict__["gram"] = gram  # the cached XᵀX the fold reads
            poisoned[triangle] = _lanczos(data, 4, cols, tall=True)
        assert np.array_equal(poisoned["upper"], clean)  # dsymv reads the lower triangle only
        lower = poisoned["lower"]
        assert lower is None or not np.array_equal(lower, clean, equal_nan=True)


class TestKfold:
    def test_520_snapshots_split_into_five_equal_segments(self):
        plan = kfold(520, 5)
        assert plan.segments == ((1, 104), (105, 208), (209, 312), (313, 416), (417, 520))

    def test_even_division(self):
        assert kfold(10, 5).segments == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))

    def test_remainder_rule(self):
        plan = kfold(11, 5)
        sizes = [hi - lo + 1 for lo, hi in plan.segments]
        assert sizes == [3, 2, 2, 2, 2]

    def test_segments_cover_range_exactly(self):
        for m, k in [(17, 3), (100, 7), (8, 8)]:
            plan = kfold(m, k)
            flat = []
            for lo, hi in plan.segments:
                flat.extend(range(lo, hi + 1))
            assert flat == list(range(1, m + 1))

    def test_train_test_complement(self):
        plan = kfold(13, 4)
        for fold in range(1, 5):
            test = plan.test_columns(fold)
            train = plan.train_columns(fold)
            assert sorted(np.concatenate([test, train])) == list(range(13))

    @pytest.mark.parametrize("m,k", [(10, 1), (10, 11), (3, 0)])
    def test_bad_fold_counts(self, m, k):
        with pytest.raises(FoldError):
            kfold(m, k)


class TestGenerators:
    def test_random_system_deterministic(self):
        a = gen_random_system(20, 4, seed=5)
        b = gen_random_system(20, 4, seed=5)
        c = gen_random_system(20, 4, seed=6)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_random_system_moments(self):
        rows = gen_random_system(10**4, 1, seed=0).rows
        assert abs(rows.mean()) <= 0.05
        assert abs(rows.var() - 1.0) <= 0.05

    def test_latent_shape_and_determinism(self):
        z = gen_latent(10, 1, seed=3)
        assert z.shape == (10, 1)
        np.testing.assert_array_equal(z, gen_latent(10, 1, seed=3))
        assert abs(gen_latent(1, 10**4, seed=1).var() - 1.0) <= 0.05

    def test_sensor_candidates_drop_masked_rows(self):
        x = np.random.default_rng(7).standard_normal((6, 5))
        mask = np.array([True, False, True, True, False, True])
        pod = pod_truncate(SnapshotData(x, mask=mask), 3)
        cand, locations = sensor_candidates(pod, mask)
        assert cand.n == 4
        np.testing.assert_array_equal(locations, [1, 3, 4, 6])
        np.testing.assert_array_equal(cand.rows, pod.modes[mask])

    def test_sensor_candidates_without_mask(self):
        x = np.random.default_rng(8).standard_normal((5, 4))
        pod = pod_truncate(SnapshotData(x), 2)
        cand, locations = sensor_candidates(pod)
        assert cand.n == 5
        np.testing.assert_array_equal(locations, [1, 2, 3, 4, 5])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda tmp: SnapshotData(np.ones(3)), ValueError, "2-D and nonempty"),
        (lambda tmp: SnapshotData(np.ones((3, 2)), mask=[True, False]), ValueError, r"shape \(3,\)"),
        (lambda tmp: SnapshotData(np.ones((6, 2)), grid=(2, 2)), ValueError, "does not cover n=6"),
        (
            lambda tmp: PodModel(1, np.ones((2, 1)), np.array([1.0])),
            ValueError,
            "modes columns are not orthonormal",
        ),
        (
            lambda tmp: PodModel(2, np.eye(2), np.array([1.0, 2.0])),
            ValueError,
            "nonincreasing",
        ),
        (lambda tmp: gen_random_system(0, 2, seed=0), ValueError, "n=0"),
        (lambda tmp: gen_latent(2, 0, seed=0), ValueError, "m=0"),
        (
            lambda tmp: load_snapshots(tmp / "x.raw", SnapshotFormat.RAW_F64),
            FormatError,
            "dimensions must be positive, got n=0",
        ),
    ],
    ids=[
        "snapshots-not-2d", "mask-shape", "grid-not-covering", "pod-not-orthonormal",
        "pod-increasing", "random-system-size", "latent-size", "raw-header-n0",
    ],
)
def test_a_malformed_input_raises(tmp_path, call, error, match):
    (tmp_path / "x.raw").write_bytes(raw_header(0, 1))
    with pytest.raises(error, match=match):
        call(tmp_path)
