import struct

import numpy as np
import pytest

from sensorsel import (
    DataError,
    FoldError,
    FormatError,
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
            "2,2\n1,zz\n0,1\n",    # bad token
            "3,1,2,2\n1,2,3\n",    # grid does not cover n
            "0,2\n\n",             # nonpositive dims
        ],
    )
    def test_malformed_raises(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_snapshots(path, SnapshotFormat.CSV)

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

    def test_masked_in_nan_is_data_error(self, tmp_path):
        path = tmp_path / "nan.raw"
        payload = struct.pack("<2d", float("nan"), 1.0)
        path.write_bytes(raw_header(2, 1, flags=1) + b"\x01\x01" + payload)
        with pytest.raises(DataError):
            load_snapshots(path, SnapshotFormat.RAW_F64)

    def test_sidecar_metadata_written_and_ignored(self, tmp_path):
        x = np.ones((2, 2))
        path = tmp_path / "meta.raw"
        save_snapshots(
            SnapshotData(x), path, SnapshotFormat.RAW_F64, meta={"source": "unit"}
        )
        assert (tmp_path / "meta.raw.meta").read_text() == "source=unit\n"
        data = load_snapshots(path, SnapshotFormat.RAW_F64)
        np.testing.assert_array_equal(data.X, x)


class TestPod:
    def test_diagonal_truncation(self):
        pod = pod_truncate(SnapshotData(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(pod.singular_values, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(pod.modes), np.eye(3)[:, :2], atol=1e-12)
        assert pod.modes[0, 0] > 0 and pod.modes[1, 1] > 0

    def test_full_rank_reconstruction(self):
        x = np.random.default_rng(2).standard_normal((8, 6))
        pod = pod_truncate(SnapshotData(x), 6)
        approx = pod.modes @ np.diag(pod.singular_values) @ pod.temporal.T
        assert np.linalg.norm(x - approx) <= 1e-10 * np.linalg.norm(x)

    def test_truncation_residual_matches_tail_energy_oracle(self):
        x = np.random.default_rng(3).standard_normal((50, 20))
        r = 5
        pod = pod_truncate(SnapshotData(x), r)
        approx = pod.modes @ np.diag(pod.singular_values) @ pod.temporal.T
        residual = np.linalg.norm(x - approx) ** 2
        # independent route: eigenvalues of the temporal Gram matrix
        eigs = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
        tail = float(np.sum(eigs[r:]))
        assert residual == pytest.approx(tail, rel=1e-8)

    def test_latent_amplitudes(self):
        x = np.random.default_rng(4).standard_normal((10, 6))
        pod = pod_truncate(SnapshotData(x), 3)
        np.testing.assert_allclose(pod.latent(), np.diag(pod.singular_values) @ pod.temporal.T)

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

    def test_mean_subtraction_flag(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 5)) + 10.0  # large common offset
        centered = pod_truncate(SnapshotData(x), 3, subtract_mean=True)
        oracle = np.linalg.svd(x - x.mean(axis=1, keepdims=True), compute_uv=False)
        np.testing.assert_allclose(centered.singular_values, oracle[:3], rtol=1e-10)
        # default keeps the offset mode
        plain = pod_truncate(SnapshotData(x), 3)
        assert plain.singular_values[0] > centered.singular_values[0]

    def test_mean_subtraction_keeps_masked_rows_zero(self):
        x = np.random.default_rng(10).standard_normal((5, 4)) + 3.0
        mask = np.array([True, False, True, True, True])
        pod = pod_truncate(SnapshotData(x, mask=mask), 2, subtract_mean=True)
        assert np.abs(pod.modes[1]).max() <= 1e-14

    @pytest.mark.parametrize("r", [0, 5])
    def test_rank_out_of_range(self, r):
        with pytest.raises(RankOutOfRangeError):
            pod_truncate(SnapshotData(np.ones((4, 4)) + np.eye(4)), r)


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
