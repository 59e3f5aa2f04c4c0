import numpy as np
import pytest
import scipy.linalg

from sensorsel import (
    CandidateMatrix,
    DuplicateSensorError,
    IndexOutOfRangeError,
    NoiseModel,
    RankDeficientError,
    Regime,
    SensorSet,
    SingularInformationError,
    ZeroReferenceError,
    build_measurement,
    det_index,
    error_covariance,
    estimate,
    fisher_info,
    min_eig_index,
    observable_error_covariance,
    observable_transform,
    reconstruction_error,
    trace_inv_index,
)
from sensorsel.fisher import FisherInfo

from conftest import gaussian_candidates


def info_for(rows, indices=None):
    cand = CandidateMatrix(np.asarray(rows, dtype=float))
    if indices is None:
        indices = range(1, cand.n + 1)
    return fisher_info(build_measurement(cand, indices))


class TestBuildMeasurement:
    def test_identity_row_extraction(self):
        cand = CandidateMatrix(np.eye(3))
        s = build_measurement(cand, [2])
        np.testing.assert_array_equal(s.measurement, [[0.0, 1.0, 0.0]])

    def test_counterexample_rows_bitwise(self, cx):
        s = build_measurement(cx, [1, 2, 3])
        expected = np.array([[0.2, -0.1, -0.2], [-0.5, -0.1, 0.2], [-0.2, 0.3, 0.2]])
        np.testing.assert_array_equal(s.measurement, expected)

    def test_order_preserved(self, cx):
        s = build_measurement(cx, [3, 1])
        np.testing.assert_array_equal(s.measurement[0], cx.rows[2])
        np.testing.assert_array_equal(s.measurement[1], cx.rows[0])
        assert s.indices == (3, 1)

    def test_duplicate_raises(self, cx):
        with pytest.raises(DuplicateSensorError):
            build_measurement(cx, [1, 1])

    @pytest.mark.parametrize("bad", [0, 7, -1])
    def test_out_of_range_raises(self, cx, bad):
        with pytest.raises(IndexOutOfRangeError):
            build_measurement(cx, [bad])


class TestFisherInfo:
    def test_identity_square(self):
        info = info_for(np.eye(2))
        assert info.regime is Regime.UNDER
        np.testing.assert_allclose(info.matrix, np.eye(2))

    def test_oversampled_gram(self):
        info = info_for([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert info.regime is Regime.OVER
        np.testing.assert_allclose(info.matrix, [[2.0, 1.0], [1.0, 2.0]])

    def test_counterexample_matches_dense_multiply_oracle(self, cx):
        info = info_for(cx.rows[:3])
        c = cx.rows[:3]
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    oracle[i, j] += c[i, k] * c[j, k]
        assert info.regime is Regime.UNDER
        np.testing.assert_allclose(info.matrix, oracle, rtol=1e-14)

    def test_matrix_exactly_symmetric(self):
        info = info_for(np.random.default_rng(0).standard_normal((7, 3)))
        np.testing.assert_array_equal(info.matrix, info.matrix.T)

    @pytest.mark.parametrize("indices", [[1, 2], [1, 2, 3, 4, 5]])
    def test_formed_once_from_read_only_arrays(self, cx, indices):
        s = build_measurement(cx, indices)
        info = fisher_info(s)
        assert fisher_info(s) is info
        with pytest.raises(ValueError, match="read-only"):
            s.measurement[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            info.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("p, r, regime", [(50, 200, Regime.UNDER), (500, 20, Regime.OVER)])
    def test_matrix_exactly_symmetric_without_repair(self, p, r, regime, scale, order):
        # large enough that a general matrix product would round asymmetrically
        c = np.asarray(scale * np.random.default_rng(p).standard_normal((p, r)), order=order)
        info = fisher_info(SensorSet(tuple(range(1, p + 1)), c))
        assert info.regime is regime
        np.testing.assert_array_equal(info.matrix, info.matrix.T)
        assert np.all(np.isfinite(info.matrix)) and np.any(info.matrix != 0)


class TestDetIndex:
    def test_identity(self):
        assert det_index(info_for(np.eye(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert det_index(info_for(np.diag([2.0, 3.0]))) == pytest.approx(36.0)

    def test_matches_cofactor_expansion_oracle(self):
        cand = gaussian_candidates(5, 3, seed=11)
        info = info_for(cand.rows)
        m = info.matrix
        cof = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        assert det_index(info) == pytest.approx(cof, rel=1e-10)

    def test_singular_returns_zero(self):
        assert det_index(info_for([[1.0, 0.0], [2.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_the_float_range_reads_inf_without_a_warning(self):
        info = info_for(1e150 * gaussian_candidates(15, 3, seed=50).rows)
        assert det_index(info) == np.inf


class TestTraceInvIndex:
    def test_identity(self):
        assert trace_inv_index(info_for(np.eye(3))) == pytest.approx(3.0)

    def test_diagonal(self):
        assert trace_inv_index(info_for(np.diag([2.0, 4.0]))) == pytest.approx(0.3125)

    def test_matches_lu_solve_oracle(self, cx):
        info = info_for(cx.rows[:3])
        lu, piv = scipy.linalg.lu_factor(info.matrix)
        oracle = sum(
            scipy.linalg.lu_solve((lu, piv), np.eye(3)[:, k])[k] for k in range(3)
        )
        assert trace_inv_index(info) == pytest.approx(oracle, rel=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularInformationError):
            trace_inv_index(info_for([[1.0, 0.0], [1.0, 0.0]]))


class TestMinEigIndex:
    def test_identity(self):
        assert min_eig_index(info_for(np.eye(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eig_index(info_for(np.diag([2.0, 3.0]))) == pytest.approx(4.0)

    def test_matches_characteristic_cubic_oracle(self, cx):
        from conftest import char_cubic_min_root

        info = info_for(cx.rows[:4])
        assert info.regime is Regime.OVER
        assert min_eig_index(info) == pytest.approx(
            char_cubic_min_root(info.matrix), rel=1e-10
        )

    def test_near_zero_clamped(self):
        lam = min_eig_index(FisherInfo(Regime.UNDER, np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert lam == 0.0


class TestEstimate:
    def test_identity(self):
        cand = CandidateMatrix(np.eye(2))
        s = build_measurement(cand, [1, 2])
        np.testing.assert_allclose(estimate(s, np.array([3.0, -1.0])), [3.0, -1.0])

    def test_single_row_least_norm(self):
        s = build_measurement(CandidateMatrix(np.array([[2.0, 0.0]])), [1])
        np.testing.assert_allclose(estimate(s, np.array([4.0])), [2.0, 0.0])

    def test_consistent_overdetermined(self):
        s = build_measurement(
            CandidateMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])), [1, 2, 3]
        )
        np.testing.assert_allclose(
            estimate(s, np.array([1.0, 1.0, 2.0])), [1.0, 1.0], atol=1e-12
        )

    def test_matrix_observations(self):
        cand = gaussian_candidates(6, 3, seed=2)
        s = build_measurement(cand, [1, 4, 5, 6])
        y = np.random.default_rng(3).standard_normal((4, 7))
        z = estimate(s, y)
        assert z.shape == (3, 7)
        col = estimate(s, y[:, 2])
        np.testing.assert_allclose(z[:, 2], col, rtol=1e-12)

    def test_normal_equations_in_oversampled_regime(self):
        cand = gaussian_candidates(8, 3, seed=4)
        s = build_measurement(cand, [1, 2, 3, 4, 5, 6])
        y = np.random.default_rng(5).standard_normal(6)
        z = estimate(s, y)
        resid = s.measurement.T @ (y - s.measurement @ z)
        assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(y)

    def test_interpolation_in_undersampled_regime(self):
        cand = gaussian_candidates(8, 5, seed=6)
        s = build_measurement(cand, [2, 7, 8])
        y = np.random.default_rng(7).standard_normal(3)
        z = estimate(s, y)
        assert np.abs(s.measurement @ z - y).max() <= 1e-10 * np.linalg.norm(y)

    def test_singular_raises(self):
        s = build_measurement(CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])), [1, 2])
        with pytest.raises(SingularInformationError):
            estimate(s, np.array([1.0, 1.0]))


class TestErrorCovariance:
    def test_identity_rows(self):
        s = build_measurement(CandidateMatrix(np.eye(3)), [1, 2, 3])
        cov = error_covariance(s, NoiseModel(1.0))
        np.testing.assert_allclose(cov, np.eye(3), atol=1e-12)

    def test_oversampled(self):
        s = build_measurement(
            CandidateMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])), [1, 2, 3]
        )
        cov = error_covariance(s, NoiseModel(1.0))
        np.testing.assert_allclose(cov, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)

    def test_unobservable_component_keeps_prior_variance(self):
        s = build_measurement(CandidateMatrix(np.array([[1.0, 0.0]])), [1])
        cov = error_covariance(s, NoiseModel(0.0), prior_zz=np.eye(2))
        np.testing.assert_allclose(cov, np.diag([0.0, 1.0]), atol=1e-12)

    def test_regime_branches_coincide_at_p_equal_r(self):
        # at p = r both formulas describe the same full-rank problem
        cand = gaussian_candidates(6, 4, seed=8)
        s = build_measurement(cand, [1, 2, 3, 4])
        under = error_covariance(s, NoiseModel(1.3), prior_zz=np.eye(4))
        c = s.measurement
        over = 1.3**2 * np.linalg.inv(c.T @ c)
        np.testing.assert_allclose(under, over, rtol=1e-8, atol=1e-10)


class TestObservableErrorCovariance:
    def test_identity(self):
        s = build_measurement(CandidateMatrix(np.eye(3)), [1, 2, 3])
        np.testing.assert_allclose(
            observable_error_covariance(s, NoiseModel(1.0)), np.eye(3), atol=1e-12
        )

    def test_scalar_case(self):
        s = build_measurement(CandidateMatrix(np.array([[2.0, 0.0]])), [1])
        np.testing.assert_allclose(
            observable_error_covariance(s, NoiseModel(1.0)), [[0.25]]
        )

    def test_eigenvalues_are_reciprocal_gram_eigenvalues(self, cx):
        s = build_measurement(cx, [1, 2, 3])
        cov = observable_error_covariance(s, NoiseModel(1.0))
        got = np.sort(np.linalg.eigvalsh(cov))
        gram_eigs = np.linalg.eigvalsh(s.measurement @ s.measurement.T)
        np.testing.assert_allclose(got, np.sort(1.0 / gram_eigs), rtol=1e-10)

    def test_rank_deficient_raises(self):
        s = build_measurement(
            CandidateMatrix(np.array([[1.0, 0.0], [2.0, 0.0]])), [1, 2]
        )
        with pytest.raises(RankDeficientError):
            observable_error_covariance(s, NoiseModel(1.0))

    def test_sign_convention_deterministic(self):
        cand = gaussian_candidates(7, 4, seed=9)
        s = build_measurement(cand, [1, 3, 5])
        u1, s1, v1 = observable_transform(s)
        u2, s2, v2 = observable_transform(s)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)
        for j in range(u1.shape[1]):
            nz = np.flatnonzero(np.abs(u1[:, j]) > 1e-12 * np.abs(u1[:, j]).max())
            assert u1[nz[0], j] >= 0.0
        # factors reproduce C
        smat = np.zeros((s.p, s.r))
        np.fill_diagonal(smat, s1)
        np.testing.assert_allclose(u1 @ smat @ v1.T, s.measurement, atol=1e-12)


class TestReconstructionError:
    def test_exact(self):
        assert reconstruction_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_zero_estimate(self):
        assert reconstruction_error(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_unit_residual(self):
        assert reconstruction_error(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReferenceError):
            reconstruction_error(np.zeros(3), np.ones(3))


class TestSpectralInvariants:
    def test_regime_consistency_at_p_equal_r(self):
        cand = gaussian_candidates(9, 4, seed=10)
        c = cand.take([1, 2, 3, 4])
        w_row = np.linalg.eigvalsh(c @ c.T)
        w_col = np.linalg.eigvalsh(c.T @ c)
        np.testing.assert_allclose(w_row, w_col, rtol=1e-10)
        assert np.linalg.det(c @ c.T) == pytest.approx(np.linalg.det(c.T @ c), rel=1e-10)

    def test_indices_invariant_under_row_reordering(self):
        cand = gaussian_candidates(8, 3, seed=12)
        a = fisher_info(build_measurement(cand, [1, 4, 6, 7]))
        b = fisher_info(build_measurement(cand, [7, 1, 6, 4]))
        assert det_index(a) == pytest.approx(det_index(b), rel=1e-12)
        assert trace_inv_index(a) == pytest.approx(trace_inv_index(b), rel=1e-12)
        assert min_eig_index(a) == pytest.approx(min_eig_index(b), rel=1e-12)

    def test_am_hm_bound_oversampled(self):
        for seed in range(5):
            cand = gaussian_candidates(10, 3, seed=20 + seed)
            info = fisher_info(build_measurement(cand, range(1, 9)))
            r = 3
            assert trace_inv_index(info) >= r**2 / np.trace(info.matrix) - 1e-12

    def test_monte_carlo_observable_covariance(self):
        # empirical covariance of the observable-space error vs the formula
        cand = gaussian_candidates(9, 5, seed=30)
        s = build_measurement(cand, [2, 5, 9])
        sigma = 1.0
        analytic = observable_error_covariance(s, NoiseModel(sigma))
        _, _, v = observable_transform(s)
        vtil = v[:, : s.p]
        n_draws = 20000
        rng = np.random.default_rng(777)
        z = rng.standard_normal((s.r, n_draws))
        noise = sigma * rng.standard_normal((s.p, n_draws))
        y = s.measurement @ z + noise
        z_hat = estimate(s, y)
        zeta_err = vtil.T @ (z - z_hat)
        emp = (zeta_err @ zeta_err.T) / n_draws
        tol = 5.0 / np.sqrt(n_draws) * np.abs(analytic).max()
        assert np.abs(emp - analytic).max() <= tol
