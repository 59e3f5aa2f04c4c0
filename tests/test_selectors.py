import math
from itertools import combinations, islice

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorsel import (
    CandidateMatrix,
    Criterion,
    InstanceTooLargeError,
    Method,
    NoAdmissibleCandidateError,
    SensorSet,
    SingularInformationError,
    TooManySensorsError,
    build_measurement,
    det_index,
    fisher_info,
    min_eig_index,
    run_selector,
    select_ag,
    select_bruteforce,
    select_dg,
    select_eg,
    select_random,
    trace_inv_index,
)
from sensorsel import selectors
from sensorsel.fisher import _eigvalsh
from sensorsel.selectors import _argbest, _best_subset, _greedy, greedy_steps

from conftest import gaussian_candidates, tiny_row_candidates

GREEDY = [select_dg, select_ag, select_eg]


def select_brute_d(cand, p):
    return select_bruteforce(cand, p, Criterion.D)


def rank_deficient_candidates(n: int, r: int, rank: int, seed: int) -> CandidateMatrix:
    """n x r Gaussian candidate matrix of the given rank < r."""
    rng = np.random.default_rng(seed)
    return CandidateMatrix(rng.standard_normal((n, rank)) @ rng.standard_normal((rank, r)))


def direct_step_values(cand, selected, kind):
    """Objective of each candidate when appended to ``selected`` (1-based),
    recomputed from scratch through the fisher module."""
    values = np.full(cand.n, np.nan)
    for i in range(1, cand.n + 1):
        if i in selected:
            continue
        info = fisher_info(build_measurement(cand, list(selected) + [i]))
        if kind == "A":
            try:
                values[i - 1] = trace_inv_index(info)
            except SingularInformationError:
                values[i - 1] = np.inf
        elif kind == "E":
            values[i - 1] = min_eig_index(info)
        else:
            values[i - 1] = det_index(info)
    return values


def assert_matches_oracle(cand, result, kind, start_step=0):
    selected = []
    for step, idx in enumerate(result.indices):
        if step >= start_step:
            values = direct_step_values(cand, selected, kind)
            expected = _argbest(values, minimize=(kind == "A")) + 1
            assert idx == expected, f"step {step}: got {idx}, oracle {expected}"
        selected.append(idx)


class TestDG:
    def test_identity_tie_break(self):
        res = select_dg(CandidateMatrix(np.eye(3)), 2)
        assert res.indices == (1, 2)

    def test_counterexample_single_sensor(self, cx):
        res = select_dg(cx, 1)
        assert res.indices == (4,)
        assert res.per_step_objective[0] == pytest.approx(0.43, rel=1e-12)
        assert_matches_oracle(cx, res, "D")

    def test_oversampled_steps_match_exhaustive_argmax(self):
        cand = gaussian_candidates(12, 3, seed=40)
        res = select_dg(cand, 5)
        assert_matches_oracle(cand, res, "D", start_step=3)

    def test_first_r_equal_qr_pivots(self):
        cand = gaussian_candidates(30, 4, seed=41)
        _, _, piv = scipy.linalg.qr(cand.rows.T, pivoting=True)
        res = select_dg(cand, 4)
        assert res.indices == tuple(int(i) + 1 for i in piv[:4])

    def test_per_step_objective_is_running_determinant(self):
        cand = gaussian_candidates(10, 3, seed=42)
        res = select_dg(cand, 6)
        for k in range(6):
            info = fisher_info(build_measurement(cand, res.indices[: k + 1]))
            assert res.per_step_objective[k] == pytest.approx(det_index(info), rel=1e-9)

    def test_too_many_sensors(self):
        with pytest.raises(TooManySensorsError):
            select_dg(gaussian_candidates(4, 2, seed=0), 5)


class TestAG:
    def test_counterexample_single_sensor(self, cx):
        res = select_ag(cx, 1)
        assert res.indices == (4,)

    def test_identity_full_selection(self):
        res = select_ag(CandidateMatrix(np.eye(3)), 3)
        assert res.indices == (1, 2, 3)
        assert res.per_step_objective[-1] == pytest.approx(3.0, rel=1e-12)

    def test_steps_match_direct_objective_oracle(self):
        cand = gaussian_candidates(10, 3, seed=43)
        res = select_ag(cand, 6)
        assert_matches_oracle(cand, res, "A")

    def test_long_run_with_cache_refreshes(self):
        cand = gaussian_candidates(20, 3, seed=44)
        res = select_ag(cand, 11)
        assert_matches_oracle(cand, res, "A")

    def test_redundant_candidate_skipped(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
        res = select_ag(CandidateMatrix(rows), 2)
        assert res.indices == (1, 3)

    def test_no_admissible_candidate(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NoAdmissibleCandidateError):
            select_ag(CandidateMatrix(rows), 2)

    def test_per_step_objective_tracks_trace_inverse(self):
        cand = gaussian_candidates(9, 3, seed=45)
        res = select_ag(cand, 5)
        for k in range(5):
            info = fisher_info(build_measurement(cand, res.indices[: k + 1]))
            assert res.per_step_objective[k] == pytest.approx(
                trace_inv_index(info), rel=1e-8
            )


class TestEG:
    def test_counterexample_single_sensor(self, cx):
        res = select_eg(cx, 1)
        assert res.indices == (4,)

    def test_identity_tie_break_and_objective(self):
        res = select_eg(CandidateMatrix(np.eye(3)), 2)
        assert res.indices == (1, 2)
        assert res.per_step_objective == (1.0, 1.0)

    def test_steps_match_exhaustive_oracle(self):
        cand = gaussian_candidates(10, 3, seed=46)
        res = select_eg(cand, 6)
        assert_matches_oracle(cand, res, "E")

    def test_objective_nondecreasing_past_r(self):
        cand = gaussian_candidates(40, 5, seed=47)
        res = select_eg(cand, 12)
        steps = res.per_step_objective
        for k in range(5, 12):
            assert steps[k] >= steps[k - 1] - 1e-12


def unpruned_eg_score(state):
    """Every candidate's E-greedy score by one stacked eigensolve, none
    pruned: the reference for the bound-pruned ``_eg_score``."""
    u = state.u
    if state.under:
        n, k = u.shape[0], len(state.selected)
        c = u[state.selected]
        border = u @ c.T
        stacked = np.empty((n, k + 1, k + 1))
        stacked[:, :k, :k] = c @ c.T
        stacked[:, :k, k] = border
        stacked[:, k, :k] = border
        stacked[:, k, k] = state.norms2
    else:
        stacked = state.gram()[None, :, :] + u[:, :, None] * u[:, None, :]
    return _eigvalsh(stacked)[:, 0]


def eg_run(steps):
    """Indices and objectives after every pick, then the error that ended the run, if any."""
    out = []
    try:
        for res in steps:
            out.append((res.indices, res.per_step_objective))
    except NoAdmissibleCandidateError as exc:
        out.append(str(exc))
    return out


def assert_eg_equals_unpruned(rows):
    """Pruned E-greedy equals the unpruned run, with the default first block
    and with blocks of 1, 2, 4, ..., which test a bound at every size."""
    cand = CandidateMatrix(rows)
    unpruned = eg_run(
        _greedy(cand, Method.EG, unpruned_eg_score, min_eig_index, minimize=False)
    )
    for first_block in (selectors.EG_FIRST_BLOCK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selectors, "EG_FIRST_BLOCK", first_block)
            assert eg_run(greedy_steps(cand, Method.EG)) == unpruned, first_block
    assert_bounds_hold(cand)
    return unpruned


def assert_bounds_hold(cand):
    """At every step, every unselected candidate's exact score is at or
    below its upper bound, slack included."""
    prune = selectors._scores_that_can_win

    def check(upper, exact, excluded):
        rest = np.flatnonzero(~excluded)
        values, bounds = exact(rest), upper[rest]
        bad = np.isfinite(bounds) & ~(values <= bounds)
        assert not bad.any(), (np.count_nonzero(excluded), rest[bad], values[bad], bounds[bad])
        return prune(upper, exact, excluded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selectors, "_scores_that_can_win", check)
        eg_run(greedy_steps(cand, Method.EG))


class TestEGPruning:
    """Bound-pruned E-greedy steps pick exactly what scoring every candidate picks."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), n=st.integers(2, 40))
    def test_equals_unpruned_scoring(self, seed, r, n):
        # runs go on to all n rows, past r, so both regimes are covered
        rows = gaussian_candidates(max(n, r + 1), r, seed).rows
        assert_eg_equals_unpruned(rows)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["duplicated", "sign-flipped"])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_bounds_pick_the_lowest_index(self, sign, seed):
        base = gaussian_candidates(12, 4, seed=70 + seed).rows
        run = assert_eg_equals_unpruned(np.vstack([base, sign * base]))
        assert len(run) == 24
        order = list(run[-1][0])
        for i in range(1, 13):  # row i and its copy i + 12
            assert order.index(i) < order.index(i + 12)

    def test_integer_rows_with_exact_ties(self):
        rows = np.random.default_rng(71).integers(-2, 3, size=(30, 4)).astype(float)
        assert_eg_equals_unpruned(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_mode(self, seed):
        # r = 1: past the first pick the score is G + u^2 itself
        run = assert_eg_equals_unpruned(gaussian_candidates(9, 1, seed=72 + seed).rows)
        assert len(run) == 9

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("seed", range(3))
    def test_extreme_scales(self, scale, seed):
        # the slack's floor (the least normal float) and squares near the
        # float range
        assert_eg_equals_unpruned(scale * gaussian_candidates(15, 3, seed=73 + seed).rows)

    def test_a_bound_that_is_not_finite_never_prunes(self, monkeypatch):
        monkeypatch.setattr(selectors, "EG_FIRST_BLOCK", 1)
        upper = np.array([5.0, np.nan, np.inf, -np.inf, 0.5, 0.4, 0.3, 0.2, 100.0])
        exact = np.array([4.0, 0.1, 0.2, 0.3, 0.45, 0.35, 0.25, 0.15, 50.0])
        values = selectors._scores_that_can_win(
            upper, lambda idx: exact[idx], np.arange(9) == 8
        )
        # blocks of 1, 2 and 4 rows: the three rows whose bound is not finite
        # are scored first, row 7's bound falls below the best (4.0), and
        # the excluded row 8 is never scored
        np.testing.assert_array_equal(values, [*exact[:7], np.nan, np.nan])

    def test_an_excluded_row_is_never_scored(self, monkeypatch):
        # row 0, excluded though not selected (a row that adds no
        # direction), has the highest finite bound; the other rows are
        # all scored, as no bound falls below the best of the rest (0.45)
        monkeypatch.setattr(selectors, "EG_FIRST_BLOCK", 1)
        upper = np.array([5.0, np.nan, np.inf, -np.inf, 0.5, 0.4, 0.3, 0.2, 100.0])
        exact = np.array([4.0, 0.1, 0.2, 0.3, 0.45, 0.35, 0.25, 0.15, 50.0])
        excluded = np.isin(np.arange(9), [0, 8])
        values = selectors._scores_that_can_win(upper, lambda idx: exact[idx], excluded)
        np.testing.assert_array_equal(values, [np.nan, *exact[1:8], np.nan])


class TestRandom:
    def test_full_draw_is_permutation(self):
        cand = gaussian_candidates(5, 2, seed=0)
        res = select_random(cand, 5, seed=123)
        assert sorted(res.indices) == [1, 2, 3, 4, 5]

    def test_deterministic_per_seed(self):
        cand = gaussian_candidates(20, 3, seed=0)
        a = select_random(cand, 6, seed=9)
        b = select_random(cand, 6, seed=9)
        c = select_random(cand, 6, seed=10)
        assert a.indices == b.indices
        assert a.indices != c.indices

    def test_objective_is_nan(self):
        cand = gaussian_candidates(6, 2, seed=0)
        res = select_random(cand, 3, seed=1)
        assert len(res.per_step_objective) == 3
        assert all(math.isnan(v) for v in res.per_step_objective)

    def test_marginal_frequency_uniform(self):
        # each of 10 indices should appear with frequency p/n = 0.3
        cand = gaussian_candidates(10, 2, seed=0)
        counts = np.zeros(10)
        draws = 10**4
        for seed in range(draws):
            for i in select_random(cand, 3, seed=seed).indices:
                counts[i - 1] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.3) <= 0.015)


class TestBruteForce:
    def test_identity_unique_subset(self):
        res = select_bruteforce(CandidateMatrix(np.eye(3)), 3, Criterion.D)
        assert res.indices == (1, 2, 3)
        assert res.per_step_objective[-1] == pytest.approx(1.0)

    def test_three_by_hand(self):
        cand = CandidateMatrix(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        res = select_bruteforce(cand, 1, Criterion.D)
        assert res.indices == (1,)

    def test_trace_criterion_matches_enumeration_oracle(self):
        from itertools import combinations

        cand = gaussian_candidates(12, 3, seed=48)
        res = select_bruteforce(cand, 4, Criterion.A)
        best, best_val = None, np.inf
        for subset in combinations(range(1, 13), 4):
            val = trace_inv_index(fisher_info(build_measurement(cand, subset)))
            if val < best_val:
                best, best_val = subset, val
        assert res.indices == best
        assert res.per_step_objective[-1] == pytest.approx(best_val, rel=1e-12)

    def test_min_eig_criterion_matches_enumeration_oracle(self):
        from itertools import combinations

        cand = gaussian_candidates(9, 3, seed=49)
        res = select_bruteforce(cand, 3, Criterion.E)
        best, best_val = None, -np.inf
        for subset in combinations(range(1, 10), 3):
            val = min_eig_index(fisher_info(build_measurement(cand, subset)))
            if val > best_val:
                best, best_val = subset, val
        assert res.indices == best

    def test_guard(self):
        cand = gaussian_candidates(100, 3, seed=0)
        with pytest.raises(InstanceTooLargeError):
            select_bruteforce(cand, 10, Criterion.D)

    @pytest.mark.parametrize("minimize", [False, True])
    def test_near_tie_chain_follows_argbest(self, minimize):
        step = -0.9e-12 if minimize else 0.9e-12
        values = np.array([1.0, 1.0 + step, 1.0 + 2 * step])
        k = _argbest(values, minimize)
        subset, value = _best_subset(3, 1, lambda s: values[s[:, 0] - 1], minimize, r=1)
        assert (subset, value) == ((k + 1,), values[k])


def unblocked_brute_value(cand, criterion):
    """The score of one subset as select_bruteforce computed it before it
    scored subsets in stacked blocks: one Fisher information per subset."""
    u = cand.rows

    def value(subset):
        info = fisher_info(SensorSet(subset, u.take([i - 1 for i in subset], axis=0)))
        if criterion is Criterion.D:
            sign, logdet = np.linalg.slogdet(info.matrix)
            return logdet if sign > 0 else -math.inf
        if criterion is Criterion.E:
            return min_eig_index(info)
        try:
            return trace_inv_index(info)
        except SingularInformationError:
            return math.nan

    return value


def candidates_with_singular_subsets(n, r, seed):
    """Gaussian rows where row 2 repeats row 1 and row 4 is twice row 3."""
    rows = gaussian_candidates(n, r, seed).rows.copy()
    rows[1], rows[3] = rows[0], 2.0 * rows[2]
    return CandidateMatrix(rows)


class TestBruteForceBlocks:
    """Brute force scores stacked blocks of subsets; its values, picks and
    tie-breaks equal the per-subset scoring bit for bit at any block size."""

    @staticmethod
    def block_size(monkeypatch, subsets, p, r):
        if subsets is not None:
            monkeypatch.setattr(selectors, "BRUTE_BLOCK", subsets * p * r)

    @staticmethod
    def record_values(monkeypatch):
        seen = []

        def recording_argbest(values, minimize=False):
            seen.append(values.copy())
            return _argbest(values, minimize)

        monkeypatch.setattr(selectors, "_argbest", recording_argbest)
        return seen

    @pytest.mark.parametrize("subsets", [1, 7, 10**4, None])
    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize(
        "n,r,p,singular",
        [(10, 3, 3, False), (10, 3, 3, True), (10, 3, 4, True), (9, 4, 2, True), (8, 1, 3, False)],
    )
    def test_equals_per_subset_scoring(self, monkeypatch, subsets, criterion, n, r, p, singular):
        seed = 80 + n + p
        cand = candidates_with_singular_subsets(n, r, seed) if singular else gaussian_candidates(n, r, seed)
        self.block_size(monkeypatch, subsets, p, r)
        seen = self.record_values(monkeypatch)
        res = select_bruteforce(cand, p, criterion)
        expected = np.array(
            [unblocked_brute_value(cand, criterion)(s) for s in combinations(range(1, n + 1), p)]
        )
        assert np.array_equal(seen[-1], expected, equal_nan=True)
        k = _argbest(expected, criterion is Criterion.A)
        best = next(islice(combinations(range(1, n + 1), p), k, None))
        assert res.indices == best
        if criterion is Criterion.D:
            assert res.per_step_objective[-1] == det_index(fisher_info(build_measurement(cand, best)))
        else:
            assert res.per_step_objective[-1] == expected[k]
        if singular and criterion is not Criterion.D:  # A skips, E clamps to 0
            assert (np.isnan(expected) | (expected == 0.0)).any()

    @pytest.mark.parametrize("subsets", [1, 7, None])
    def test_a_with_every_subset_singular(self, monkeypatch, subsets):
        cand = rank_deficient_candidates(6, 3, 1, seed=61)
        self.block_size(monkeypatch, subsets, 4, 3)
        value = unblocked_brute_value(cand, Criterion.A)
        assert all(math.isnan(value(s)) for s in combinations(range(1, 7), 4))
        with pytest.raises(NoAdmissibleCandidateError, match="every 4-subset"):
            select_bruteforce(cand, 4, Criterion.A)

    @pytest.mark.parametrize("subsets", [1, 7, None])
    @pytest.mark.parametrize("minimize", [False, True])
    def test_near_tie_chain_across_blocks(self, monkeypatch, subsets, minimize):
        step = -0.9e-12 if minimize else 0.9e-12
        values = 1.0 + step * np.arange(20)
        self.block_size(monkeypatch, subsets, 1, 1)
        k = _argbest(values, minimize)
        assert _best_subset(20, 1, lambda s: values[s[:, 0] - 1], minimize, r=1) == ((k + 1,), values[k])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d_past_the_float_range_picks_without_a_warning(self):
        cand = gaussian_candidates(15, 3, seed=50)
        res = select_bruteforce(CandidateMatrix(1e150 * cand.rows), 7, Criterion.D)
        assert res.indices == select_bruteforce(cand, 7, Criterion.D).indices
        assert res.per_step_objective[-1] == np.inf


class TestSharedProperties:
    @pytest.mark.parametrize(
        "selector,scale",
        [
            pytest.param(
                selector,
                scale,
                id=selector.__name__ if scale == 7.3 else f"{selector.__name__}-{scale:g}",
            )
            for selector in [*GREEDY, select_brute_d]
            for scale in (7.3, 1e-150, 1e150)
        ],
    )
    def test_scale_equivariance(self, selector, scale):
        cand = gaussian_candidates(15, 3, seed=50)
        scaled = CandidateMatrix(scale * cand.rows)
        assert selector(cand, 7).indices == selector(scaled, 7).indices

    @pytest.mark.parametrize("selector", [select_dg, select_ag, select_eg])
    def test_permutation_equivariance(self, selector):
        cand = gaussian_candidates(12, 3, seed=51)
        perm = np.random.default_rng(52).permutation(12)
        permuted = CandidateMatrix(cand.rows[perm])
        base = selector(cand, 6).indices
        # permuted matrix row (new position of old row i) must be selected
        # at the same step
        inverse = np.empty(12, dtype=int)
        inverse[perm] = np.arange(12)
        expected = tuple(int(inverse[i - 1]) + 1 for i in base)
        assert selector(permuted, 6).indices == expected

    @pytest.mark.parametrize(
        "method", [Method.DG, Method.AG, Method.EG, Method.RANDOM]
    )
    def test_result_shape(self, method):
        cand = gaussian_candidates(11, 3, seed=53)
        res = run_selector(cand, 5, method, seed=3)
        assert res.method is method
        assert len(res.indices) == 5
        assert len(set(res.indices)) == 5
        assert len(res.per_step_objective) == 5
        assert res.wall_time >= 0.0

    @pytest.mark.parametrize("method", [Method.DG, Method.AG, Method.EG])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), spare=st.integers(1, 8))
    def test_selection_at_p_is_the_prefix_of_one_run(self, method, seed, r, spare):
        # p runs past r, so both regimes are covered
        cand = gaussian_candidates(r + spare, r, seed)
        for p, prefix in enumerate(greedy_steps(cand, method), start=1):
            direct = run_selector(cand, p, method)
            assert prefix.method is method
            assert prefix.indices == direct.indices
            assert prefix.per_step_objective == direct.per_step_objective
        assert p == cand.n

    @pytest.mark.parametrize("method", [Method.DG, Method.AG, Method.EG])
    def test_steps_compute_no_index_until_the_objective_is_read(self, monkeypatch, method):
        calls = {}
        for name in ("fisher_info", "det_index", "trace_inv_index", "min_eig_index"):

            def spy(arg, name=name, real=getattr(selectors, name)):
                calls[name] = calls.get(name, 0) + 1
                return real(arg)

            monkeypatch.setattr(selectors, name, spy)
        cand = gaussian_candidates(12, 3, seed=55)  # p runs past r: both regimes
        results = list(greedy_steps(cand, method))
        assert len(results) == 12
        assert calls == {}
        index = {Method.DG: "det_index", Method.AG: "trace_inv_index", Method.EG: "min_eig_index"}
        results[4].per_step_objective
        assert calls == {"fisher_info": 5, index[method]: 5}
        results[-1].per_step_objective  # the first five are reused
        assert calls == {"fisher_info": 12, index[method]: 12}

    @pytest.mark.parametrize("seed", [56, 57, 58, 59])
    @pytest.mark.parametrize(
        "method, index",
        [(Method.DG, det_index), (Method.AG, trace_inv_index), (Method.EG, min_eig_index)],
    )
    def test_objective_is_the_index_of_each_prefix_bit_for_bit(self, method, index, seed):
        cand = gaussian_candidates(30, 4, seed)
        results = list(islice(greedy_steps(cand, method), 12))
        for res in reversed(results):  # the last read first, so every other reuses its values
            steps = res.per_step_objective
            assert len(steps) == len(res.indices)
            for k, value in enumerate(steps):
                assert value == index(fisher_info(build_measurement(cand, res.indices[: k + 1])))
        for res, longer in zip(results, results[1:]):
            assert longer.indices[:-1] == res.indices
            assert longer.per_step_objective[:-1] == res.per_step_objective

    def test_greedy_steps_refuses_other_methods(self):
        with pytest.raises(ValueError, match="random is not a greedy method"):
            greedy_steps(gaussian_candidates(5, 2, seed=0), Method.RANDOM)

    def test_brute_dispatch(self):
        cand = gaussian_candidates(6, 2, seed=54)
        res = run_selector(cand, 2, Method.BRUTE, criterion=Criterion.E)
        assert res.method is Method.BRUTE
        assert len(res.indices) == 2


@pytest.mark.parametrize("select", [select_dg, select_ag, select_eg], ids=["dg", "ag", "eg"])
def test_zero_sensors_is_a_value_error(select):
    with pytest.raises(ValueError, match="p must be >= 1, got 0"):
        select(gaussian_candidates(6, 3, seed=0), 0)


class TestDegenerateInputs:
    """With at most r rows selected, every greedy selector skips the rows
    that add no direction and raises when no other row is left."""

    @pytest.mark.parametrize("selector", GREEDY)
    def test_skips_a_row_that_adds_no_direction(self, selector):
        # after row 1, row 2 is in its span up to REDUNDANT_REL yet scores
        # best under D and E; row 3 is the only one that adds a direction
        cand = CandidateMatrix(np.array([[1.0, 0.0], [0.9, 5e-6], [0.0, 2e-6]]))
        assert selector(cand, 2).indices == (1, 3)

    @pytest.mark.parametrize("selector", GREEDY)
    def test_rank_deficient_candidates(self, selector):
        cand = rank_deficient_candidates(20, 4, 3, seed=60)
        with pytest.raises(NoAdmissibleCandidateError, match="step 4:"):
            selector(cand, 4)

    def test_brute_a_with_every_subset_singular(self):
        cand = rank_deficient_candidates(6, 3, 1, seed=61)
        with pytest.raises(NoAdmissibleCandidateError, match="every 4-subset"):
            select_bruteforce(cand, 4, Criterion.A)

    @pytest.mark.parametrize("selector", GREEDY)
    def test_entries_whose_squares_underflow(self, selector):
        cand = CandidateMatrix(1e-200 * gaussian_candidates(15, 3, seed=50).rows)
        with pytest.raises(NoAdmissibleCandidateError, match="step 1:"):
            selector(cand, 7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scores_that_overflow_are_not_called_redundant(self):
        rows = gaussian_candidates(15, 3, seed=0).rows
        # at 1e-160 the squares are subnormal but not zero, so not every row
        # is skipped; ag's 1 / res2 overflows at step 1 and dg's inverse Gram
        # at step 4, the first step past r
        cand = CandidateMatrix(1e-160 * rows)
        overflow = "no remaining row has a finite score"
        with pytest.raises(NoAdmissibleCandidateError, match=f"step 1: {overflow}"):
            select_ag(cand, 6)
        with pytest.raises(NoAdmissibleCandidateError, match=f"step 4: {overflow}"):
            select_dg(cand, 6)
        assert select_eg(cand, 6).indices == (5, 3, 8, 9, 7, 13)
        # at 1e-200 the squares are zero, so every row is skipped
        redundant = "step 1: every remaining row adds no direction"
        for selector in GREEDY:
            with pytest.raises(NoAdmissibleCandidateError, match=redundant):
                selector(CandidateMatrix(1e-200 * rows), 6)

    @pytest.mark.parametrize("selector", GREEDY)
    def test_a_tiny_row_passes_the_skip_rule_and_the_gram_turns_singular(self, selector):
        # row 3 is tiny next to the others but adds its own direction; every
        # method picks (4, 1, 3), whose Gram is singular, and fails at step 4,
        # the first past r; ag's A-index of (4, 1, 3) fails when read
        cand = tiny_row_candidates()
        res = selector(cand, 3)
        assert res.indices == (4, 1, 3)
        if selector is select_ag:
            with pytest.raises(SingularInformationError):
                res.per_step_objective
        with pytest.raises(SingularInformationError):
            selector(cand, 4)

    @pytest.mark.parametrize("selector", GREEDY)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        missing=st.integers(1, 3),
        spare=st.integers(1, 8),
    )
    def test_fails_at_the_step_after_the_rank(self, selector, seed, rank, missing, spare):
        r = rank + missing
        cand = rank_deficient_candidates(r + spare, r, rank, seed)
        assert len(selector(cand, rank).indices) == rank
        with pytest.raises(NoAdmissibleCandidateError, match=f"step {rank + 1}:"):
            selector(cand, rank + 1)
