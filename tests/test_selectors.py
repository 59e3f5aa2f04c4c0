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
    gen_random_system,
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
from sensorsel.fisher import _eigvalsh, _unit_scaled
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
    c = u[state.selected]
    if state.under:
        n, k = u.shape[0], len(state.selected)
        border = u @ c.T
        stacked = np.empty((n, k + 1, k + 1))
        stacked[:, :k, :k] = c @ c.T
        stacked[:, :k, k] = border
        stacked[:, k, :k] = border
        stacked[:, k, k] = state.norms2
    else:
        stacked = (c.T @ c)[None, :, :] + u[:, :, None] * u[:, None, :]
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
    """At every step, every candidate the step may pick has a finite upper
    bound, slack included, at or above its exact score."""
    prune = selectors._scores_that_can_win

    def check(upper, exact, excluded):
        rest = np.flatnonzero(~excluded)
        values, bounds = exact(rest), upper[rest]
        bad = ~np.isfinite(bounds) | ~(values <= bounds)
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

    def test_few_rows_are_scored_exactly(self, monkeypatch):
        # exactness alone would pass a bound that never prunes, which scores
        # all 500 rows at every step; the bounds leave about one block of 8
        real = selectors._scores_that_can_win
        scored = []

        def counting(upper, exact, excluded):
            def counted(idx):
                scored[-1] += len(idx)
                return exact(idx)

            scored.append(0)
            return real(upper, counted, excluded)

        monkeypatch.setattr(selectors, "_scores_that_can_win", counting)
        for seed in range(5):
            select_eg(gen_random_system(500, 10, seed), 20)
        assert len(scored) == 5 * 19  # every step after the first
        assert np.mean(scored) <= 16

    def test_blocks_double_until_the_next_bound_is_below_the_best(self, monkeypatch):
        monkeypatch.setattr(selectors, "EG_FIRST_BLOCK", 1)
        upper = np.array([5.0, 0.9, 0.8, 0.7, 0.5, 0.4, 0.3, 0.2, 100.0])
        exact = np.array([0.05, 0.1, 0.2, 0.3, 0.45, 0.35, 0.25, 0.15, 50.0])
        values = selectors._scores_that_can_win(
            upper, lambda idx: exact[idx], np.arange(9) == 8
        )
        # blocks of 1, 2 and 4 rows in descending bound order, after which
        # row 7's bound (0.2) falls below the best (0.45); the excluded
        # row 8 is never scored
        np.testing.assert_array_equal(values, [*exact[:7], np.nan, np.nan])

    def test_an_excluded_row_is_never_scored(self, monkeypatch):
        # row 0, excluded though not selected (a row that adds no
        # direction), has the highest finite bound; the other rows are
        # all scored, as no bound falls below the best of the rest (0.45)
        monkeypatch.setattr(selectors, "EG_FIRST_BLOCK", 1)
        upper = np.array([5.0, 0.9, 0.8, 0.7, 0.5, 0.4, 0.3, 0.2, 100.0])
        exact = np.array([4.0, 0.1, 0.2, 0.3, 0.45, 0.35, 0.25, 0.15, 50.0])
        excluded = np.isin(np.arange(9), [0, 8])
        values = selectors._scores_that_can_win(upper, lambda idx: exact[idx], excluded)
        np.testing.assert_array_equal(values, [np.nan, *exact[1:8], np.nan])


def direct_dg_score(state):
    """The D-greedy score read from the step's eigendecomposition past r."""
    if state.under:
        return state.res2.copy()
    _, lam, vecs = state.gram()
    return 1.0 + (state.u @ vecs) ** 2 @ (1.0 / lam)


def direct_ag_score(state):
    """The A-greedy score from the inverse of L below r and the step's
    eigendecomposition past r."""
    if state.under:
        coords = state.coords[: len(state.selected)]
        y = coords.T @ np.linalg.inv(coords[:, state.selected].T)
        return (np.einsum("ij,ij->i", y, y) + 1.0) / state.res2
    _, lam, vecs = state.gram()
    w2 = (state.u @ vecs) ** 2
    return -(w2 @ (1.0 / lam) ** 2) / (1.0 + w2 @ (1.0 / lam))


GREEDY_RUNS = {
    Method.DG: (selectors._dg_score, direct_dg_score, det_index, False),
    Method.AG: (selectors._ag_score, direct_ag_score, trace_inv_index, True),
    Method.EG: (selectors._eg_score, unpruned_eg_score, min_eig_index, False),
}


def picks_and_end(steps):
    """The picks after the last step, then the error that ended the run, if any."""
    picks = ()
    try:
        for res in steps:
            picks = res.indices
    except (NoAdmissibleCandidateError, SingularInformationError) as exc:
        return picks, f"{type(exc).__name__}: {exc}"
    return picks, None


def carried_rows(kind, seed, r, n):
    """Rows of one family of systems that the carried-score tests run to all n."""
    g = np.random.default_rng(seed)
    if kind == "duplicated":
        return np.tile(g.standard_normal((max(n // 2, r + 1), r)), (2, 1))
    if kind == "integer":
        return g.integers(-2, 3, size=(n, r)).astype(float)
    rows = g.standard_normal((n, r))
    if kind == "graded":  # row norms over five decades
        return rows * 10.0 ** -g.uniform(0, 5, (n, 1))
    return {"gaussian": 1.0, "x2^600": 2.0**600, "x2^-600": 2.0**-600}[kind] * rows


CARRIED_KINDS = st.sampled_from(["gaussian", "duplicated", "integer", "x2^600", "x2^-600", "graded"])


class TestCarriedScores:
    """The rank-one-updated parts of the dg, ag and eg scores match the
    direct formulas at every step, and the picks match a greedy that
    scores every step directly."""

    @pytest.mark.parametrize("method", [Method.DG, Method.AG, Method.EG])
    @settings(max_examples=40, deadline=None)
    @given(kind=CARRIED_KINDS, seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), n=st.integers(8, 40))
    def test_carried_values_match_the_direct_formulas(self, method, kind, seed, r, n):
        score, _, index, minimize = GREEDY_RUNS[method]
        checked = set()

        def checking(state):
            values = score(state)
            k = len(state.selected)
            # the direct formulas are themselves exact only to about eps times the
            # condition number of L or G, which graded rows raise to 1e6 at small n
            if state.under and state.y2 is not None:
                # ||y||^2 relative to 1 + ||y||^2, the term the scores read
                coords = state.coords[:k]
                low = coords[:, state.selected].T
                y = coords.T @ np.linalg.inv(low)
                direct = np.einsum("ij,ij->i", y, y)
                tol = 1e-11 + 1e-15 * np.linalg.cond(low) if k else 0.0
                atol = tol * (1.0 + direct.max(initial=0.0))
                np.testing.assert_allclose(state.y2, direct, rtol=0, atol=atol)
                checked.add("y2")
            elif not state.under:
                lam, vecs = state.eig
                w2 = (state.u @ vecs) ** 2
                tol = 1e-11 + 1e-15 * lam[-1] / lam[0]
                for name, direct in (("q", w2 @ (1.0 / lam)), ("s", w2 @ (1.0 / lam) ** 2)):
                    if getattr(state, name) is not None:
                        np.testing.assert_allclose(getattr(state, name), direct, rtol=tol, atol=0)
                        checked.add(name)
            return values

        cand = CandidateMatrix(carried_rows(kind, seed, r, n))
        picks, _ = picks_and_end(_greedy(cand, method, checking, index, minimize))
        # each score carries only what it reads: dg nothing below r, eg nothing past r
        reads = {Method.DG: {"q"}, Method.AG: {"y2", "q", "s"}, Method.EG: {"y2"}}[method]
        assert checked == reads & ({"y2", "q", "s"} if len(picks) > r else {"y2"})

    @pytest.mark.parametrize("method", [Method.DG, Method.AG])
    @settings(max_examples=40, deadline=None)
    @given(kind=CARRIED_KINDS, seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), n=st.integers(8, 40))
    def test_picks_equal_the_direct_scores(self, method, kind, seed, r, n):
        _, direct, index, minimize = GREEDY_RUNS[method]
        cand = CandidateMatrix(carried_rows(kind, seed, r, n))
        expected = picks_and_end(_greedy(cand, method, direct, index, minimize))
        assert picks_and_end(greedy_steps(cand, method)) == expected

    @pytest.mark.parametrize("method", [Method.DG, Method.AG])
    def test_q_and_s_are_refreshed_every_r_steps_past_r(self, monkeypatch, method):
        # the refresh is the one n x r^2 product of a step past r: at p = 5, 9, 13 of r = 4
        cand = gaussian_candidates(30, 4, seed=62)
        refreshed = []
        real_gram = selectors._Factor.gram

        def gram(state):
            before = state.q
            out = real_gram(state)
            if state.q is not before:
                refreshed.append(len(state.selected) + 1)
            return out

        monkeypatch.setattr(selectors._Factor, "gram", gram)
        list(islice(greedy_steps(cand, method), 14))
        assert refreshed == [5, 9, 13]


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
        score = lambda s: (values[s[:, 0] - 1], 0)  # its own bound
        subset, value = _best_subset(3, 1, score, score, minimize, r=1)
        assert (subset, value) == ((k + 1,), values[k])

    @pytest.mark.parametrize("power", [0, 500, -500, 1000, -1000])
    def test_tie_band_is_free_of_scale(self, power):
        # squared norms 1.5e-12 apart lie outside the 1e-12 tie band at any scale
        rows = np.ldexp([[0.75], [0.75 * math.sqrt(1 + 1.5e-12)]], power)
        cand = CandidateMatrix(rows)
        for criterion in Criterion:
            assert select_bruteforce(cand, 1, criterion).indices == (2,), criterion
        assert select_dg(cand, 1).indices == (2,)

    @pytest.mark.parametrize("power", [0, 300, 700])
    def test_d_tie_band_is_free_of_scale_on_three_rows(self, power):
        # rows 4-6 copy rows 1-3 with entry (4, 1) larger by 2e-12, so the
        # subsets with row 4 in place of row 1, (2, 3, 4) the first, beat
        # (1, 2, 3) by 9e-12 relative, outside the tie band at any scale
        rows = np.random.default_rng(5).standard_normal((3, 3))
        copy = rows.copy()
        copy[0, 0] *= 1 + 2e-12
        cand = CandidateMatrix(np.ldexp(np.vstack([rows, copy]), power))
        assert select_bruteforce(cand, 3, Criterion.D).indices == (2, 3, 4)

    @pytest.mark.parametrize("power", [1000, -1060])
    def test_d_exponent_of_a_wide_gram_keeps_its_range(self, power):
        # a 17 x 17 Gram of rows near 2^±1000 scales back by about 2^±34000,
        # past the range of a 16-bit integer; the value reads inf or 0
        rows = gaussian_candidates(19, 17, seed=54).rows
        res = select_bruteforce(CandidateMatrix(np.ldexp(rows, power)), 17, Criterion.D)
        assert res.indices == select_bruteforce(CandidateMatrix(rows), 17, Criterion.D).indices
        assert res.per_step_objective[-1] == (np.inf if power > 0 else 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d_determinant_past_the_float_range_of_the_scaled_rows(self):
        # the rows scaled to entries of ±1/2 have the Gram 64 I, whose determinant
        # 2^1536 lies past the float range, though the raw rows' 2^512 does not
        cand = CandidateMatrix(np.ldexp(scipy.linalg.hadamard(256), -3))
        res = select_bruteforce(cand, 256, Criterion.D)
        assert res.indices == tuple(range(1, 257))
        assert res.per_step_objective[-1] == 2.0**512
        raw = fisher_info(build_measurement(cand, res.indices))
        assert res.per_step_objective[-1] == pytest.approx(det_index(raw), rel=1e-12)


def unblocked_brute_values(cand, criteria):
    """The scores of one subset under each of ``criteria`` from one Fisher
    information per subset, not from stacked blocks, of the subset's rows
    scaled by the power of two that puts their largest entry in [1/2, 1), as
    brute force scores them: each index, scaled back; A and D score a subset
    that trace_inv_index finds singular as NaN.  The criteria share the
    subset's one Gram and one eigensolve (``FisherInfo._criteria`` is cached)."""

    def values(subset):
        c, e = _unit_scaled(cand.rows.take([i - 1 for i in subset], axis=0))
        info = fisher_info(SensorSet(subset, c))
        try:
            trace_inv = trace_inv_index(info)
        except SingularInformationError:
            trace_inv = None
        scores = []
        for criterion in criteria:
            if criterion is Criterion.E:
                scores.append(np.ldexp(min_eig_index(info), 2 * e))
            elif trace_inv is None:
                scores.append(math.nan)
            elif criterion is Criterion.A:
                scores.append(np.ldexp(trace_inv, -2 * e))
            else:
                with np.errstate(over="ignore"):
                    scores.append(np.ldexp(det_index(info), 2 * info.matrix.shape[0] * e))
        return scores

    return values


def unblocked_brute_value(cand, criterion):
    """:func:`unblocked_brute_values` under one criterion."""
    values = unblocked_brute_values(cand, [criterion])
    return lambda subset: values(subset)[0]


INDEX = {Criterion.D: det_index, Criterion.A: trace_inv_index, Criterion.E: min_eig_index}


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
        k = _argbest(expected, criterion is Criterion.A)
        best_value = expected[k]
        # ranked scaled by one power of two
        expected = np.ldexp(expected, np.frexp(seen[-1][k])[1] - np.frexp(best_value)[1])
        # scored where a bound reaches the tie band; a NaN is singular or outside it
        scored = ~np.isnan(seen[-1])
        assert np.array_equal(seen[-1][scored], expected[scored])
        sign = -1.0 if criterion is Criterion.A else 1.0
        tied = sign * expected >= sign * expected[k] - selectors.TIE_REL * abs(expected[k])
        assert not (tied & ~scored).any()
        best = next(islice(combinations(range(1, n + 1), p), k, None))
        assert res.indices == best
        assert res.per_step_objective[-1] == best_value
        raw = fisher_info(build_measurement(cand, best))
        assert best_value == pytest.approx(INDEX[criterion](raw), rel=1e-14)
        if singular:  # A and D skip, E clamps to 0
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
        score = lambda s: (values[s[:, 0] - 1], 0)  # its own bound
        assert _best_subset(20, 1, score, score, minimize, r=1) == ((k + 1,), values[k])

    @pytest.mark.parametrize("subsets", [1, 7, None])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d_skips_the_subsets_whose_gram_overflows(self, monkeypatch, subsets):
        # row 5 holds one entry of 1e163, so every raw Gram it joins overflows; next to that
        # entry the other rows are 1e-163, so the Gram is singular: D and A skip the subset,
        # E scores it 0, and each picks and scores as if row 5 were not there
        rows = gaussian_candidates(12, 5, seed=3).rows.copy()
        rows[4, 2] = 1e163
        self.block_size(monkeypatch, subsets, 3, 5)
        for criterion in Criterion:
            res = select_bruteforce(CandidateMatrix(rows), 3, criterion)
            rest = select_bruteforce(CandidateMatrix(np.delete(rows, 4, axis=0)), 3, criterion)
            assert res.indices == tuple(i + (i >= 5) for i in rest.indices)
            assert res.per_step_objective[-1] == rest.per_step_objective[-1]
        assert select_bruteforce(CandidateMatrix(rows), 3, Criterion.D).indices == (2, 8, 12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d_past_the_float_range_picks_without_a_warning(self):
        cand = gaussian_candidates(15, 3, seed=50)
        res = select_bruteforce(CandidateMatrix(1e150 * cand.rows), 7, Criterion.D)
        assert res.indices == select_bruteforce(cand, 7, Criterion.D).indices
        assert res.per_step_objective[-1] == np.inf


def pruning_instance(seed):
    """A small instance of one of six kinds: Gaussian rows, duplicated rows,
    small integer rows (exact ties and singular subsets), rows of rank r - 1
    (singular subsets past it), rows that repeat row 1 within and just
    outside the tie band, or 9 or 10 rows of one column, each 1 + k 1e-13 but
    row 1, which is 1: there the bounds are tight, every subset ties, and the
    lexicographically first subset is bounded among the last.  n, r and p
    are drawn, so both regimes occur."""
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(3, 9)), int(rng.integers(1, 5))
    kind = seed % 6
    if kind == 5:
        n, r = int(rng.integers(9, 11)), 1
    p = int(rng.integers(1, n + 1))
    rows = rng.standard_normal((n, r))
    if kind == 1:
        rows[rng.integers(n, size=n // 2)] = rows[rng.integers(n, size=n // 2)]
    elif kind == 2:
        rows = rng.integers(-2, 3, size=(n, r)).astype(float)
    elif kind == 3 and r > 1:
        rows = rows[:, : r - 1] @ rng.standard_normal((r - 1, r))
    elif kind == 4:
        rows[1], rows[2] = rows[0] * (1 + 2e-13), rows[0] * (1 + 2e-12)
    elif kind == 5:
        rows = (1 + 1e-13 * rng.integers(1, 4, size=(n, 1))) * rng.choice([-1.0, 1.0], size=(n, 1))
        rows[0] = 1.0
    return rows, p


def reference_picks(rows, p, criteria):
    """For each of ``criteria``, the subset that the per-subset values
    (unblocked_brute_values, one Fisher information per subset for all the
    criteria) rank first under the greedy tie rule and its value, or the
    NoAdmissibleCandidateError that the ranking raises."""
    subsets = list(combinations(range(1, rows.shape[0] + 1), p))
    value = unblocked_brute_values(CandidateMatrix(rows), criteria)
    table = np.array([value(s) for s in subsets])
    picks = {}
    for criterion, values in zip(criteria, table.T):
        try:
            k = _argbest(values, criterion is Criterion.A)
        except NoAdmissibleCandidateError as exc:
            picks[criterion] = exc
        else:
            picks[criterion] = subsets[k], values[k]
    return picks


class TestBruteForcePruning:
    """D, A and E eigensolve only the subsets whose diagonal bound reaches the
    tie band of the best value so far; picks and values stay those of scoring
    every subset."""

    @pytest.mark.parametrize("chunk", range(10))
    def test_equals_the_per_subset_reference(self, monkeypatch, chunk):
        # 100 instances a chunk, each under D, A and E, at one of five scales and
        # in blocks of 1 or 7 subsets; a power-of-two scale changes only each
        # value's exponent, so its reference is that of the unscaled rows; at
        # 1e±150 the determinants leave the float range, so D is left to
        # test_d_past_the_float_range_picks_without_a_warning there
        for seed in range(100 * chunk, 100 * chunk + 100):
            rows, p = pruning_instance(seed)
            scale = (0, 600, -600, 1e150, 1e-150)[seed // 6 % 5]
            scaled = rows * scale if isinstance(scale, float) else np.ldexp(rows, scale)
            monkeypatch.setattr(selectors, "BRUTE_BLOCK", (1 if seed // 30 % 2 else 7) * p * rows.shape[1])
            exponent = {Criterion.A: -2 * scale, Criterion.E: 2 * scale}
            if isinstance(scale, int):
                exponent[Criterion.D] = 2 * min(p, rows.shape[1]) * scale
            reference = reference_picks(scaled if isinstance(scale, float) else rows, p, list(exponent))
            for criterion, pick in reference.items():
                if isinstance(pick, NoAdmissibleCandidateError):
                    with pytest.raises(NoAdmissibleCandidateError):
                        select_bruteforce(CandidateMatrix(scaled), p, criterion)
                    continue
                best, value = pick
                if isinstance(scale, int):
                    with np.errstate(over="ignore"):
                        value = np.ldexp(value, exponent[criterion])
                res = select_bruteforce(CandidateMatrix(scaled), p, criterion)
                assert res.indices == best, (seed, criterion)
                assert res.per_step_objective[-1] == value, (seed, criterion)

    def test_most_subsets_of_the_oneshot_inputs_go_unsolved(self, monkeypatch):
        # perfbench's oneshot brute requests: seeds 0-10, n = 16, 17, 18, r = 4, p = 5
        # D's share counts its determinants, A's and E's their eigensolves
        solved = {}

        def spy(name):
            def counting(gram):
                solved[name] += len(gram)
                return solve(gram)

            solve = getattr(selectors, name)
            monkeypatch.setattr(selectors, name, counting)

        spy("_det")
        spy("_criteria")
        share = {Criterion.D: [], Criterion.A: [], Criterion.E: []}
        for seed in range(11):
            for n in (16, 17, 18):
                child = int(np.random.SeedSequence([seed, 6, n]).generate_state(1, np.uint64)[0])
                cand = gen_random_system(n, 4, child)
                for criterion, shares in share.items():
                    solved.update(_det=0, _criteria=0)
                    select_bruteforce(cand, 5, criterion)
                    shares.append(solved["_det" if criterion is Criterion.D else "_criteria"] / math.comb(n, 5))
        assert np.median(share[Criterion.D]) <= 0.10
        assert np.median(share[Criterion.A]) <= 0.10
        assert np.median(share[Criterion.E]) <= 0.25


def select_brute_a(cand, p):
    return select_bruteforce(cand, p, Criterion.A)


def select_brute_e(cand, p):
    return select_bruteforce(cand, p, Criterion.E)


class TestSharedProperties:
    @pytest.mark.parametrize(
        "selector,scale",
        [
            pytest.param(
                selector,
                scale,
                id=selector.__name__ if scale == 7.3 else f"{selector.__name__}-{scale:g}",
            )
            for selector in [*GREEDY, select_brute_d, select_brute_a, select_brute_e]
            for scale in (7.3, 1e-150, 1e150, 2.0**1000, 2.0**-1000, 3e153, 1e-160, 1e200, 1e-200)
        ],
    )
    def test_scale_equivariance(self, selector, scale):
        cand = gaussian_candidates(15, 3, seed=50)
        scaled = CandidateMatrix(scale * cand.rows)
        res = selector(scaled, 7)
        assert res.indices == selector(cand, 7).indices
        if selector in (select_brute_d, select_brute_a, select_brute_e):
            # the rows are 2^e times unit rows: D's value (of a 3 x 3 Gram) scales by 2^6e,
            # A's by 2^-2e and E's by 2^2e, reading inf or 0 past the float range
            unit, e = _unit_scaled(scaled.rows)
            value = selector(CandidateMatrix(unit), 7).per_step_objective[-1]
            power = {select_brute_d: 6, select_brute_a: -2, select_brute_e: 2}[selector]
            with np.errstate(over="ignore"):
                assert res.per_step_objective[-1] == np.ldexp(value, power * e)

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

    @pytest.mark.parametrize("method", [Method.DG, Method.AG, Method.EG])
    def test_a_step_past_r_makes_one_eigendecomposition_and_no_inverse(self, monkeypatch, method):
        shapes = {"eigh": [], "inv": []}
        for module, name in ((selectors, "_eigh"), (np.linalg, "inv")):

            def spy(m, name=name, real=getattr(module, name)):
                shapes[name.strip("_")].append(m.shape)
                return real(m)

            monkeypatch.setattr(module, name, spy)
        cand = gaussian_candidates(30, 4, seed=60)
        for p, _ in enumerate(islice(greedy_steps(cand, method), 12), start=1):
            # from p = 5 on, the step that picked row p read the information C^T C
            assert shapes["eigh"].count((4, 4)) == (p > 4)
            assert (4, 4) not in shapes["inv"]
            shapes["eigh"].clear()
            shapes["inv"].clear()

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
        # the raw squares are 0, but the rows are scored scaled by a power of two
        cand = gaussian_candidates(15, 3, seed=50)
        assert selector(CandidateMatrix(1e-200 * cand.rows), 7).indices == selector(cand, 7).indices

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scores_that_overflow_are_not_called_redundant(self):
        # at 1e-160 the raw squares are subnormal and ag's 1 / res2 would
        # overflow, at 1e-200 the raw squares are 0; the scaled rows' scores
        # do neither
        rows = gaussian_candidates(15, 3, seed=0).rows
        for selector in GREEDY:
            picks = selector(CandidateMatrix(rows), 6).indices
            for scale in (1e-160, 1e-200):
                assert selector(CandidateMatrix(scale * rows), 6).indices == picks

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_a_index_of_subnormal_eigenvalues_reads_inf_without_a_warning(self, scale):
        # the Gram eigenvalues are subnormal, so 1 / w leaves the float
        # range; the picks are the unit-scale rows' (tier-1 makes a
        # RuntimeWarning an error)
        res = select_ag(CandidateMatrix(scale * gaussian_candidates(15, 3, seed=50).rows), 7)
        assert res.indices == (8, 5, 12, 15, 6, 2, 13)
        assert res.per_step_objective == (math.inf,) * 7

    @pytest.mark.parametrize("selector", GREEDY)
    def test_a_tiny_row_adds_no_direction(self, selector):
        # row 3 adds its own direction, but its squared norm is below
        # EPS_SINGULAR of the largest; every method picks (4, 1) and finds
        # no third row
        cand = tiny_row_candidates()
        assert selector(cand, 2).indices == (4, 1)
        with pytest.raises(NoAdmissibleCandidateError, match="step 3: every remaining row adds no direction"):
            selector(cand, 3)

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
