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
from sensorsel import fisher
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


class TestCriteriaKernel:
    """``fisher._criteria`` gives each Gram of a stack the values of the scalar indices."""

    def infos(self):
        """Three 4 x 3 OVER sets; the second's rows span only two directions."""
        rows = gaussian_candidates(8, 3, seed=21).rows
        a, b = rows[0], rows[1]
        return [
            info_for(rows, [1, 2, 3, 4]),
            info_for([a, 2.0 * a, b, a + b]),
            info_for(rows, [5, 6, 7, 8]),
        ]

    def test_stack_with_a_singular_member_matches_the_scalar_indices(self):
        infos = self.infos()
        crit = fisher._criteria(np.stack([info.matrix for info in infos]))
        assert crit.eigvals.shape == (3, 3)
        assert crit.trace_inv.shape == crit.min_eig.shape == (3,)
        for j, info in enumerate(infos):
            w = np.linalg.eigvalsh(info.matrix)
            assert crit.eigvals[j].tobytes() == w.tobytes()
            assert crit.min_eig[j] == min_eig_index(info)
            if j == 1:
                assert w[0] != 0.0 and crit.min_eig[j] == 0.0  # clamped
                assert np.isnan(crit.trace_inv[j])
                with pytest.raises(SingularInformationError):
                    trace_inv_index(info)
            else:
                assert crit.trace_inv[j] == trace_inv_index(info) == np.sum(1.0 / w)
                assert crit.min_eig[j] == w[0]

    def test_stack_of_any_leading_shape(self):
        stack = np.stack([info.matrix for info in self.infos()])
        flat = fisher._criteria(stack)
        nested = fisher._criteria(stack.reshape(3, 1, 3, 3))
        for got, want in zip(nested, flat):
            assert got.shape == want.shape[:1] + (1,) + want.shape[1:]
            np.testing.assert_array_equal(got.reshape(want.shape), want)

    def test_one_gram_gives_0d_fields_equal_to_its_row_of_a_stack(self):
        infos = self.infos()
        stacked = fisher._criteria(np.stack([info.matrix for info in infos]))
        for j, info in enumerate(infos):
            crit = fisher._criteria(info.matrix)
            assert crit.eigvals.shape == (3,)
            assert np.ndim(crit.trace_inv) == np.ndim(crit.min_eig) == 0
            assert crit.eigvals.tobytes() == stacked.eigvals[j].tobytes()
            assert crit.min_eig == stacked.min_eig[j]
            assert np.isnan(crit.trace_inv) if j == 1 else crit.trace_inv == stacked.trace_inv[j]


class TestNanEigenvalues:
    """A Gram whose eigenvalues come back NaN fails the singularity test."""

    def test_overflowing_rows_raise_and_their_det_reads_nan(self):
        cand = CandidateMatrix([[1e200, -1e200, 0.0], [1e200, 1e200, 1.0]])
        with np.errstate(over="ignore"):  # the products overflow
            sensors = build_measurement(cand, (1, 2))
            info = fisher_info(sensors)
        assert np.isnan(info._criteria.eigvals).all()
        with pytest.raises(SingularInformationError):
            trace_inv_index(info)
        with pytest.raises(SingularInformationError):
            estimate(sensors, np.ones(2))
        assert np.isnan(det_index(info))  # and no "invalid value" warning

    def test_an_inf_entry_is_singular(self):
        info = FisherInfo(Regime.OVER, np.array([[np.inf, 1.0], [1.0, 1.0]]))
        assert np.isnan(info._criteria.eigvals).all()
        assert fisher._singular(info._criteria.eigvals)
        with pytest.raises(SingularInformationError):
            trace_inv_index(info)

    def test_a_stack_flags_only_its_nan_member(self):
        w = np.array([[1.0, 2.0], [np.nan, np.nan], [0.0, 1.0]])
        assert fisher._singular(w).tolist() == [False, True, True]


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
        cov = error_covariance(s, NoiseModel(0.0))
        np.testing.assert_allclose(cov, np.diag([0.0, 1.0]), atol=1e-12)

    def test_regime_branches_coincide_at_p_equal_r(self):
        # at p = r both formulas describe the same full-rank problem
        cand = gaussian_candidates(6, 4, seed=8)
        s = build_measurement(cand, [1, 2, 3, 4])
        under = error_covariance(s, NoiseModel(1.3))
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scale, want",
        [(1e200, 0.0), (1e-200, np.inf), (2.0**700, 0.0), (2.0**-700, np.inf)],
        ids=["1e200", "1e-200", "2^700", "2^-700"],
    )
    def test_squares_past_the_float_range_pass_the_rank_test(self, scale, want):
        # C has condition number 6.7, but the squares of its singular values
        # overflow or underflow; sigma^2 / s^2 rounds to 0 or inf
        c = scale * np.random.default_rng(0).standard_normal((4, 3))
        s = build_measurement(CandidateMatrix(c), range(1, 5))
        cov = observable_error_covariance(s, NoiseModel(1.0))
        np.testing.assert_array_equal(cov, np.diag([want] * 3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_all_zero_measurement_is_rank_deficient(self):
        s = build_measurement(CandidateMatrix(np.zeros((4, 3))), range(1, 5))
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


class TestCovarianceForms:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_latent_covariance_is_the_regime_formula(self, p):
        # r = 4: UNDER, p = r and OVER, against the textbook formula of each regime
        s = build_measurement(gaussian_candidates(9, 4, seed=40), range(1, p + 1))
        c, sigma = s.measurement, 0.7
        if p <= 4:
            k = np.linalg.inv(c @ c.T) @ c
            residual = np.eye(4) - c.T @ k
            want = residual @ residual + sigma**2 * (k.T @ k)
        else:
            want = sigma**2 * np.linalg.inv(c.T @ c)
        cov = error_covariance(s, NoiseModel(sigma))
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(cov, cov.T)  # symmetric as computed

    def test_latent_covariance_of_a_singular_gram_raises(self):
        s = build_measurement(CandidateMatrix(np.array([[1.0, 0.0], [2.0, 0.0]])), [1, 2])
        with pytest.raises(SingularInformationError):
            error_covariance(s, NoiseModel(1.0))

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_observable_covariance_is_exactly_diagonal(self, p):
        s = build_measurement(gaussian_candidates(9, 4, seed=41), range(1, p + 1))
        cov = observable_error_covariance(s, NoiseModel(0.5))
        assert cov.shape == (min(p, 4),) * 2
        assert np.array_equal(cov, np.diag(np.diagonal(cov)))
        gram_eigs = np.linalg.eigvalsh(fisher_info(s).matrix)[::-1]  # descending, as the svals
        np.testing.assert_allclose(np.diagonal(cov), 0.25 / gram_eigs, rtol=1e-12)


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

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-700], ids=["overflow", "underflow"])
    def test_squares_past_the_float_range_keep_the_bits(self, scale):
        # the squares of 2**700 overflow and those of 2**-700 underflow
        rng = np.random.default_rng(42)
        z = rng.standard_normal((5, 3))
        z_est = z + 0.1 * rng.standard_normal((5, 3))
        assert reconstruction_error(scale * z, scale * z_est) == reconstruction_error(z, z_est)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: CandidateMatrix(np.ones(3)), "must be 2-D"),
        (lambda: CandidateMatrix(np.ones((0, 2))), "at least 1x1"),
        (lambda: CandidateMatrix(np.array([[1.0, np.inf]])), "non-finite"),
        (lambda: NoiseModel(-1.0), "sigma must be >= 0"),
        (lambda: build_measurement(CandidateMatrix(np.eye(2)), ()), "at least one sensor"),
        (
            lambda: estimate(build_measurement(CandidateMatrix(np.eye(2)), [1, 2]), np.ones(3)),
            "expected p=2",
        ),
        (lambda: reconstruction_error(np.ones(2), np.ones(3)), "shape mismatch"),
    ],
    ids=[
        "candidates-not-2d", "candidates-empty", "candidates-non-finite", "negative-sigma",
        "no-sensor", "estimate-y-length", "reconstruction-shapes",
    ],
)
def test_a_malformed_input_is_a_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
