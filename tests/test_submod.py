import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sensorsel import (
    CandidateMatrix,
    DuplicateSensorError,
    FisherInfo,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    ModularityReport,
    ObjectiveKind,
    Regime,
    SetObjective,
    SingularInformationError,
    build_measurement,
    check_monotone,
    check_submodular,
    counterexample_report,
    fisher_info,
    min_eig_index,
    nemhauser_check,
    select_ag,
    trace_inv_index,
)
from sensorsel import selectors, submod
from sensorsel.submod import DEFAULT_CHECK_TOL

from conftest import char_cubic_min_root, gaussian_candidates


def scalar_loop_reports(obj, max_set_size, tol):
    """Reference for the array checkers: one scalar test per (S, T, i) and (S, T).

    Returns the submodularity and the monotonicity report.  The arithmetic
    is the same IEEE operations, so the reports must be equal, not close.
    """
    n = obj.cand.n
    values = {
        sub: obj.evaluate(sub)
        for size in range(min(n, max_set_size + 1) + 1)
        for sub in combinations(range(1, n + 1), size)
    }
    nested = [
        (s, t)
        for size in range(1, min(n, max_set_size) + 1)
        for t in combinations(range(1, n + 1), size)
        for k in range(size)
        for s in combinations(t, k)
    ]
    sub_viol, super_viol, mon_viol = [], [], []
    checked = 0
    for s, t in nested:
        f_s, f_t = values[s], values[t]
        if f_t - f_s < -tol * max(1.0, abs(f_s), abs(f_t)):
            mon_viol.append((s, t))
        for i in range(1, n + 1):
            if i in t:
                continue
            gain_s = values[tuple(sorted(s + (i,)))] - values[s]
            gain_t = values[tuple(sorted(t + (i,)))] - values[t]
            checked += 1
            bound = tol * max(1.0, abs(gain_s), abs(gain_t))
            diff = gain_s - gain_t
            if diff < -bound:
                sub_viol.append((s, t, i))
            if diff > bound:
                super_viol.append((s, t, i))
    sub_rep = ModularityReport(
        checked_pairs=checked,
        tolerance=tol,
        violations_submodular=tuple(sorted(sub_viol)),
        violations_supermodular=tuple(sorted(super_viol)),
    )
    mon_rep = ModularityReport(
        checked_pairs=len(nested), tolerance=tol, violations_monotone=tuple(sorted(mon_viol))
    )
    return sub_rep, mon_rep


class TestEvaluate:
    def test_a_eps_empty_set_is_exactly_zero(self, cx):
        obj = SetObjective(ObjectiveKind.A_EPS, cx, 1e-3)
        assert obj.evaluate(()) == 0.0

    def test_a_eps_identity_rows_analytic(self):
        r, eps = 3, 1e-2
        obj = SetObjective(ObjectiveKind.A_EPS, CandidateMatrix(np.eye(r)), eps)
        expected = -r / (1.0 + eps) + r / eps
        assert obj.evaluate(range(1, r + 1)) == pytest.approx(expected, rel=1e-12)

    def test_e_raw_matches_characteristic_cubic_oracle(self, cx):
        obj = SetObjective(ObjectiveKind.E_RAW, cx)
        c = cx.rows[:4]
        oracle = char_cubic_min_root(c.T @ c)
        assert obj.evaluate((1, 2, 3, 4)) == pytest.approx(oracle, rel=1e-10)

    def test_empty_set_conventions(self, cx):
        assert SetObjective(ObjectiveKind.E_RAW, cx).evaluate(()) == 0.0
        assert SetObjective(ObjectiveKind.MODULAR_NORM, cx).evaluate(()) == 0.0

    def test_epsilon_is_required(self, cx):
        with pytest.raises(ValueError, match="positive and finite, got None"):
            SetObjective(ObjectiveKind.A_EPS, cx)

    def test_epsilon_must_be_positive(self, cx):
        with pytest.raises(ValueError):
            SetObjective(ObjectiveKind.A_EPS, cx, 0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan], ids=["inf", "nan"])
    def test_epsilon_must_be_finite(self, cx, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            SetObjective(ObjectiveKind.A_EPS, cx, eps)

    def test_regularized_values_are_fisher_indices(self, cx):
        eps, subset = 1e-3, (2, 4, 5)
        c = cx.take(subset)
        info = FisherInfo(Regime.OVER, (c.T @ c + (c.T @ c).T) / 2.0 + eps * np.eye(3))
        a_eps = SetObjective(ObjectiveKind.A_EPS, cx, eps).evaluate(subset)
        assert a_eps == 3 / eps - trace_inv_index(info)

    def test_a_eps_at_rounding_level_epsilon_is_singular(self, cx):
        with pytest.raises(SingularInformationError):
            SetObjective(ObjectiveKind.A_EPS, cx, 1e-14).evaluate((1,))

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_out_of_range_index(self, cx, kind):
        with pytest.raises(IndexOutOfRangeError):
            SetObjective(kind, cx, 1e-3).evaluate((1, 7))


class TestMarginalGain:
    def test_zero_row_adds_nothing(self):
        rows = np.array([[1.0, 0.5], [0.0, 0.0], [0.3, -0.2]])
        obj = SetObjective(ObjectiveKind.A_EPS, CandidateMatrix(rows), 1e-3)
        assert obj.marginal_gain((1,), 2) == pytest.approx(0.0, abs=1e-12)

    def test_modular_norm_gain_is_set_independent(self, cx):
        obj = SetObjective(ObjectiveKind.MODULAR_NORM, cx)
        norm4 = float(np.sum(cx.rows[3] ** 2))
        for s in [(), (1,), (2, 5), (1, 2, 3)]:
            assert obj.marginal_gain(s, 4) == pytest.approx(norm4, rel=1e-12)

    def test_a_eps_gain_positive_and_matches_direct_difference(self, cx):
        obj = SetObjective(ObjectiveKind.A_EPS, cx, 1e-3)
        gain = obj.marginal_gain((1, 2), 3)
        assert gain > 0.0
        assert gain == pytest.approx(
            obj.evaluate((1, 2, 3)) - obj.evaluate((1, 2)), rel=1e-12
        )

    def test_a_eps_gain_equals_trace_difference_identity(self, cx):
        # gain must equal tr(A^-1) - tr(B^-1) with B = A + u^T u
        eps = 1e-3
        obj = SetObjective(ObjectiveKind.A_EPS, cx, eps)
        s = (1, 2)
        c = cx.take(s)
        a = c.T @ c + eps * np.eye(3)
        u = cx.rows[2]
        b = a + np.outer(u, u)
        oracle = np.trace(np.linalg.inv(a)) - np.trace(np.linalg.inv(b))
        assert obj.marginal_gain(s, 3) == pytest.approx(oracle, rel=1e-10)

    def test_duplicate_raises(self, cx):
        obj = SetObjective(ObjectiveKind.MODULAR_NORM, cx)
        with pytest.raises(DuplicateSensorError):
            obj.marginal_gain((1, 2), 2)


class TestCheckers:
    def test_modular_fixture_is_exactly_modular(self, cx):
        obj = SetObjective(ObjectiveKind.MODULAR_NORM, cx)
        rep = check_submodular(obj, max_set_size=5)
        assert rep.violations_submodular == ()
        assert rep.violations_supermodular == ()
        mon = check_monotone(obj, max_set_size=5)
        assert mon.violations_monotone == ()

    def test_e_raw_violates_both_directions_on_embedded_matrix(self, cx):
        rep = check_submodular(SetObjective(ObjectiveKind.E_RAW, cx), max_set_size=5)
        assert len(rep.violations_submodular) > 0
        assert len(rep.violations_supermodular) > 0
        assert ((1, 2, 3), (1, 2, 3, 4), 5) in rep.violations_submodular
        assert ((1, 2, 3, 4), (1, 2, 3, 4, 5), 6) in rep.violations_supermodular

    def test_e_raw_monotone_in_oversampled_chains(self, cx):
        rep = check_monotone(SetObjective(ObjectiveKind.E_RAW, cx), max_set_size=5)
        r = cx.r
        oversampled = [(s, t) for s, t in rep.violations_monotone if len(s) > r]
        assert oversampled == []

    def test_a_eps_monotone_everywhere(self, cx):
        rep = check_monotone(SetObjective(ObjectiveKind.A_EPS, cx, 1e-3), max_set_size=5)
        assert rep.violations_monotone == ()
        rnd = gaussian_candidates(7, 3, seed=60)
        rep = check_monotone(SetObjective(ObjectiveKind.A_EPS, rnd, 1e-3), max_set_size=5)
        assert rep.violations_monotone == ()

    def test_witnesses_reproduce_their_inequalities(self, cx):
        for kind, eps in [(ObjectiveKind.E_RAW, None), (ObjectiveKind.A_EPS, 1e-3)]:
            obj = SetObjective(kind, cx, eps)
            rep = check_submodular(obj, max_set_size=5)
            for s, t, i in rep.violations_submodular[:10]:
                gain_s = obj.marginal_gain(s, i)
                gain_t = obj.marginal_gain(t, i)
                scale = max(1.0, abs(gain_s), abs(gain_t))
                assert gain_s - gain_t < -rep.tolerance * scale
            for s, t, i in rep.violations_supermodular[:10]:
                gain_s = obj.marginal_gain(s, i)
                gain_t = obj.marginal_gain(t, i)
                scale = max(1.0, abs(gain_s), abs(gain_t))
                assert gain_s - gain_t > rep.tolerance * scale

    def test_witness_rows_are_the_formatted_violations_in_order(self):
        rep = ModularityReport(
            checked_pairs=4,
            tolerance=0.0,
            violations_submodular=(((), (3,), 1), ((1,), (1, 2), 4)),
            violations_supermodular=(((2,), (2, 3, 5), 1),),
            violations_monotone=(((1,), (1, 10)),),
        )
        assert rep.witness_rows() == [
            ("submodular", "", "3", 1),
            ("submodular", "1", "1 2", 4),
            ("supermodular", "2", "2 3 5", 1),
            ("monotone", "1", "1 10", ""),
        ]

    def test_witnesses_read_as_the_tuples_they_stand_for(self, cx):
        rep = check_submodular(SetObjective(ObjectiveKind.E_RAW, cx), max_set_size=5)
        found = rep.violations_submodular
        tuples = tuple(found)
        assert tuples == tuple(sorted(tuples)) and len(found) == len(tuples) > 3
        assert found == tuples and tuples == found and found != tuples[1:]
        assert (found[0], found[-1], found[1:3]) == (tuples[0], tuples[-1], tuples[1:3])
        rebuilt = ModularityReport(rep.checked_pairs, rep.tolerance, tuples, tuple(rep.violations_supermodular))
        assert rebuilt == rep and hash(rebuilt) == hash(rep)
        rows = rep.witness_rows()
        assert rebuilt.witness_rows("e_raw") == rep.witness_rows("e_raw") == [("e_raw", *row) for row in rows]

    def test_witnesses_take_a_few_bytes_each(self):
        # A_EPS on 10 x 3 rows at max_set_size=10 yields 191,710 witnesses; held as
        # tuples of tuples they took about 105 bytes each at the peak of the scan
        obj = SetObjective(ObjectiveKind.A_EPS, gaussian_candidates(10, 3, seed=0), 1e-3)
        tracemalloc.start()  # NumPy reports its buffers to tracemalloc
        try:
            rep = check_submodular(obj, max_set_size=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = len(rep.violations_submodular) + len(rep.violations_supermodular)
        assert count == 191_710
        assert peak <= 48 * count

    def test_checked_pair_counts_cover_the_domain(self):
        cand = gaussian_candidates(5, 2, seed=61)
        obj = SetObjective(ObjectiveKind.MODULAR_NORM, cand)
        max_size = 3
        rep = check_submodular(obj, max_set_size=max_size)
        expected = sum(
            math.comb(5, t) * (2**t - 1) * (5 - t) for t in range(1, max_size + 1)
        )
        assert rep.checked_pairs == expected
        mon = check_monotone(obj, max_set_size=max_size)
        expected_mon = sum(math.comb(5, t) * (2**t - 1) for t in range(1, max_size + 1))
        assert mon.checked_pairs == expected_mon

    @pytest.mark.parametrize("n,max_set_size", [(40, 12), (15, 1)])
    def test_guard_rejects_large_instances(self, n, max_set_size):
        cand = gaussian_candidates(n, 3, seed=62)
        obj = SetObjective(ObjectiveKind.MODULAR_NORM, cand)
        for check in (check_submodular, check_monotone):
            with pytest.raises(InstanceTooLargeError):
                check(obj, max_set_size=max_set_size)

    @pytest.mark.parametrize("tol", [DEFAULT_CHECK_TOL, 0.05])
    @pytest.mark.parametrize("max_set_size", [0, 1, 3, 5, 8])
    @pytest.mark.parametrize("matrix", ["embedded", "random7x3"])
    @pytest.mark.parametrize(
        "kind", [ObjectiveKind.E_RAW, ObjectiveKind.A_EPS, ObjectiveKind.MODULAR_NORM]
    )
    def test_reports_equal_the_scalar_loops(
        self, cx, monkeypatch, kind, matrix, max_set_size, tol
    ):
        cand = cx if matrix == "embedded" else gaussian_candidates(7, 3, seed=66)
        obj = SetObjective(kind, cand, 1e-3)
        want_sub, want_mon = scalar_loop_reports(obj, max_set_size, tol)
        scored = []
        values = SetObjective.values

        def recording(self, idx):
            scored.extend(map(tuple, idx.tolist()))
            return values(self, idx)

        monkeypatch.setattr(SetObjective, "values", recording)
        assert check_submodular(obj, max_set_size, tol) == want_sub
        assert check_monotone(obj, max_set_size, tol) == want_mon
        # each subset up to the size cap of each scan is scored once
        want_scored = [
            sub
            for cap in (max_set_size + 1, max_set_size)
            for size in range(min(cand.n, cap) + 1)
            for sub in combinations(range(1, cand.n + 1), size)
        ]
        assert sorted(scored) == sorted(want_scored)
        monkeypatch.undo()
        # and the table holds each subset's own evaluate, bit for bit
        for cap in (max_set_size + 1, max_set_size):
            subsets, table = submod._subset_table(obj, min(cand.n, cap))
            want = [obj.evaluate(sub) if len(sub) <= cap else math.nan for sub in subsets]
            assert list(map(repr, table.tolist())) == list(map(repr, want))

    def test_singular_a_eps_is_named_at_the_first_subset_in_size_order(self):
        # {1, 2} (mask 3) is singular only as a pair, {3} (mask 4) alone:
        # the scan by subset size reaches {3} first, though its mask is larger
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1e4, 0.0]])
        obj = SetObjective(ObjectiveKind.A_EPS, CandidateMatrix(rows), 1.5e-12)
        obj.evaluate((1,))  # {1} alone is not singular
        errors = {}
        for subset in [(1, 2), (3,)]:
            with pytest.raises(SingularInformationError) as err:
                obj.evaluate(subset)
            errors[subset] = str(err.value)
        assert errors[(1, 2)] != errors[(3,)]
        for check in (check_submodular, check_monotone):
            with pytest.raises(SingularInformationError) as err:
                check(obj, max_set_size=2)
            assert str(err.value) == errors[(3,)]


class TestValues:
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_values_equal_evaluate_on_each_subset(self, kind):
        # sizes 0..7 of 7 rows of width 3 cover both regimes of E_RAW (k <= r, k > r)
        cand = gaussian_candidates(7, 3, seed=67)
        obj = SetObjective(kind, cand, 1e-3)
        for size in range(cand.n + 1):
            subsets = list(combinations(range(1, cand.n + 1), size))
            got = obj.values(np.array(subsets, dtype=np.intp).reshape(len(subsets), size))
            assert got.shape == (len(subsets),)
            assert list(map(repr, got.tolist())) == [repr(obj.evaluate(sub)) for sub in subsets]

    def test_e_raw_is_the_min_eig_index_of_the_regime_gram(self):
        cand = gaussian_candidates(7, 3, seed=68)
        obj = SetObjective(ObjectiveKind.E_RAW, cand)
        for size in range(1, cand.n + 1):
            subsets = list(combinations(range(1, cand.n + 1), size))
            got = obj.values(np.array(subsets, dtype=np.intp))
            want = [min_eig_index(fisher_info(build_measurement(cand, sub))) for sub in subsets]
            assert list(map(repr, got.tolist())) == list(map(repr, want))


class TestProofIdentities:
    """Numerical checks of the algebra behind the greedy-bound argument.

    The inverse-difference direction A^-1 - B^-1 >= 0 and the Woodbury
    expansion hold; note the squared-inverse difference A^-2 - B^-2 is NOT
    positive semidefinite in general, so it is not asserted here.
    """

    def setup_method(self):
        self.rng = np.random.default_rng(63)

    def _random_nested_pair(self, cand, eps):
        n = cand.n
        size_t = int(self.rng.integers(2, 5))
        t = tuple(sorted(self.rng.choice(n, size=size_t, replace=False) + 1))
        size_s = int(self.rng.integers(1, size_t))
        s = tuple(sorted(self.rng.choice(t, size=size_s, replace=False)))
        rest = tuple(i for i in range(1, n + 1) if i not in t)
        i = int(self.rng.choice(rest))
        cs = cand.take(s)
        cts = cand.take(tuple(j for j in t if j not in s))
        u = cand.rows[i - 1]
        a = cs.T @ cs + eps * np.eye(cand.r)
        b = a + np.outer(u, u)
        return a, b, cts

    def test_woodbury_expansion_matches_direct_inversion(self):
        eps = 1e-3
        for _ in range(10):
            cand = gaussian_candidates(8, 3, seed=int(self.rng.integers(10**6)))
            a, _, cts = self._random_nested_pair(cand, eps)
            direct = np.linalg.inv(a + cts.T @ cts)
            ainv = np.linalg.inv(a)
            inner = np.linalg.inv(np.eye(cts.shape[0]) + cts @ ainv @ cts.T)
            woodbury = ainv - ainv @ cts.T @ inner @ cts @ ainv
            np.testing.assert_allclose(woodbury, direct, rtol=1e-9, atol=1e-12)

    def test_inverse_difference_is_psd(self):
        eps = 1e-3
        for _ in range(10):
            cand = gaussian_candidates(8, 3, seed=int(self.rng.integers(10**6)))
            a, b, _ = self._random_nested_pair(cand, eps)
            diff = np.linalg.inv(a) - np.linalg.inv(b)
            assert np.linalg.eigvalsh((diff + diff.T) / 2)[0] >= -1e-10

    def test_projection_difference_is_psd(self):
        # conjugated resolvent difference, oriented by B >= A
        eps = 1e-3
        for _ in range(10):
            cand = gaussian_candidates(8, 3, seed=int(self.rng.integers(10**6)))
            a, b, cts = self._random_nested_pair(cand, eps)
            k = cts.shape[0]
            term_a = cts.T @ np.linalg.inv(np.eye(k) + cts @ np.linalg.inv(a) @ cts.T) @ cts
            term_b = cts.T @ np.linalg.inv(np.eye(k) + cts @ np.linalg.inv(b) @ cts.T) @ cts
            diff = term_b - term_a
            assert np.linalg.eigvalsh((diff + diff.T) / 2)[0] >= -1e-10


class TestEpsilonConsistency:
    def test_regularized_trace_approaches_plain_trace(self):
        cand = gaussian_candidates(6, 3, seed=64)
        subset = (1, 2, 4, 6)
        c = cand.take(subset)
        gram = c.T @ c
        w = np.linalg.eigvalsh(gram)
        kappa = w[-1] / w[0]
        plain = float(np.sum(1.0 / w))
        for eps in [1e-4, 1e-6, 1e-8]:
            obj = SetObjective(ObjectiveKind.A_EPS, cand, eps)
            regularized = -obj.evaluate(subset) + cand.r / eps
            rel = abs(regularized - plain) / plain
            assert rel <= 10.0 * eps * plain * kappa


class TestAgreementWithSelector:
    def test_a_eps_greedy_matches_ag_for_small_epsilon(self):
        cand = gaussian_candidates(12, 3, seed=65)
        eps = 1e-6 * float(np.einsum("ij,ij->i", cand.rows, cand.rows).max())
        obj = SetObjective(ObjectiveKind.A_EPS, cand, eps)
        p = 6
        ag = select_ag(cand, p).indices
        chosen = []
        for _ in range(p):
            gains = np.full(cand.n, -np.inf)
            for i in range(1, cand.n + 1):
                if i in chosen:
                    continue
                gains[i - 1] = obj.marginal_gain(chosen, i)
            best = np.max(gains)
            pick = int(np.flatnonzero(gains >= best - 1e-12 * abs(best))[0]) + 1
            chosen.append(pick)
        assert tuple(chosen) == ag


class TestCounterexampleReport:
    def test_both_violations_flagged(self):
        rep = counterexample_report()
        assert rep.submodularity_violated is True
        assert rep.supermodularity_violated is True

    def test_gain_orientations(self):
        rep = counterexample_report()
        assert rep.gain5_at_123 < rep.gain5_at_1234
        assert rep.gain6_at_1234 > rep.gain6_at_12345

    def test_eigenvalues_match_characteristic_cubic_oracle(self, cx):
        rep = counterexample_report()
        cases = {
            (1, 2, 3): rep.lam_123,
            (1, 2, 3, 4): rep.lam_1234,
            (1, 2, 3, 4, 5): rep.lam_12345,
            (1, 2, 3, 5): rep.lam_1235,
            (1, 2, 3, 4, 6): rep.lam_12346,
            (1, 2, 3, 4, 5, 6): rep.lam_123456,
        }
        for subset, got in cases.items():
            c = cx.take(subset)
            gram = c @ c.T if len(subset) <= 3 else c.T @ c
            assert got == pytest.approx(char_cubic_min_root(gram), rel=1e-10, abs=1e-12)

    def test_text_rendering_mentions_verdict(self):
        text = counterexample_report().to_text()
        assert "neither submodular nor supermodular: True" in text


class TestNemhauserBound:
    def test_identity_rows_reach_ratio_one(self):
        res = nemhauser_check(CandidateMatrix(np.eye(4)), 2, epsilon=1e-3)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,p,seed", [(12, 3, 70), (14, 4, 71), (10, 2, 72)])
    def test_fixed_seed_instances_meet_the_bound(self, n, p, seed):
        cand = gaussian_candidates(n, 3, seed=seed)
        res = nemhauser_check(cand, p, epsilon=1e-3)
        assert res.ratio >= 1.0 - 1.0 / math.e - 1e-9
        assert res.ratio <= 1.0 + 1e-12

    def test_opt_value_matches_reenumeration(self):
        cand = gaussian_candidates(9, 3, seed=73)
        eps = 1e-3
        res = nemhauser_check(cand, 3, epsilon=eps)
        obj = SetObjective(ObjectiveKind.A_EPS, cand, eps)
        brute = max(
            obj.evaluate(sub) for sub in combinations(range(1, 10), 3)
        )
        assert res.opt_value == pytest.approx(brute, rel=1e-12)

    def test_guard(self):
        cand = gaussian_candidates(80, 3, seed=74)
        with pytest.raises(InstanceTooLargeError):
            nemhauser_check(cand, 10, epsilon=1e-3)

    @pytest.mark.parametrize("subsets", [1, 7, 10**4, None])
    def test_blocked_optimum_is_the_exact_maximum(self, monkeypatch, subsets):
        cand, p, eps = gaussian_candidates(10, 3, seed=75), 3, 1e-3
        if subsets is not None:
            monkeypatch.setattr(selectors, "BRUTE_BLOCK", subsets * p * cand.r)
        res = nemhauser_check(cand, p, epsilon=eps)
        obj = SetObjective(ObjectiveKind.A_EPS, cand, eps)
        values = {sub: obj.evaluate(sub) for sub in combinations(range(1, 11), p)}
        assert res.opt_value == max(values.values())
        assert values[res.opt_indices] == res.opt_value

    @pytest.mark.parametrize("subsets", [1, 7, None])
    def test_singular_epsilon_raises_at_the_first_singular_subset(self, monkeypatch, subsets):
        rows = gaussian_candidates(9, 3, seed=76).rows.copy()
        rows[4] = rows[3]  # (1, 4, 5) is the first singular 3-subset
        cand, eps = CandidateMatrix(rows), 1e-17
        if subsets is not None:
            monkeypatch.setattr(selectors, "BRUTE_BLOCK", subsets * 3 * cand.r)
        with pytest.raises(SingularInformationError) as first:
            SetObjective(ObjectiveKind.A_EPS, cand, eps).evaluate((1, 4, 5))
        with pytest.raises(SingularInformationError) as blocked:
            nemhauser_check(cand, 3, epsilon=eps)
        assert str(blocked.value) == str(first.value)
