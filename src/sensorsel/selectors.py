"""Greedy sensor selectors, a random baseline, and a brute-force oracle.

All selectors consume a :class:`~sensorsel.fisher.CandidateMatrix` and
return 1-based row indices in selection order.  Argmin/argmax ties are
broken toward the lowest candidate index after rounding relative
differences below 1e-12 to zero, so runs are deterministic.

The three greedy selectors share one loop and one factored state of the
selected rows; each differs only in how it scores a candidate against
that state.  They score the rows scaled by a power of two
(:func:`~sensorsel.fisher._unit_scaled`), which is exact, and the
brute-force search each subset's rows; as every tie, skip and
singularity test is relative, no pick depends on the scale of the rows.
For the first r picks a greedy step skips the rows that add no direction
(see :data:`REDUNDANT_REL`), and the step that finds no other row raises
:class:`NoAdmissibleCandidateError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, islice
from typing import Callable, Iterator

import numpy as np

from .errors import (
    InstanceTooLargeError,
    NoAdmissibleCandidateError,
    TooManySensorsError,
)
from .fisher import (
    EPS_SINGULAR,
    CandidateMatrix,
    FisherInfo,
    _criteria,
    _det,
    _eigh,
    _eigvalsh,
    _gram,
    _require_nonsingular,
    _singular,
    _unit_scaled,
    build_measurement,
    det_index,
    fisher_info,
    min_eig_index,
    trace_inv_index,
)

#: Relative tolerance under which competing objective values count as tied.
TIE_REL = 1e-12

#: A row adds no direction when its squared distance from the span of the selected
#: rows is at most this share of its squared norm, or EPS_SINGULAR of the largest.
REDUNDANT_REL = 1e-10

#: Share of ``lambda_max + ||u||^2`` added to each E-greedy upper bound
#: to cover the rounding of the bound and of the exact eigensolve, both
#: O(r eps) of that norm; 1e-10 is about 4.5e5 eps.
EG_BOUND_SLACK = 1e-10

#: Candidates in the first exactly scored block of an E-greedy step; each
#: further block doubles.
EG_FIRST_BLOCK = 8

#: Maximum number of subsets the exhaustive searches will enumerate.
BRUTE_GUARD = 10**7

#: Entries of the stacked p x r measurement matrices that the exhaustive
#: searches score as one block (128 KiB of floats, small enough that a
#: block adds nothing measurable to peak memory); a block holds at least
#: one subset.
BRUTE_BLOCK = 2**14


class Method(Enum):
    DG = "dg"
    AG = "ag"
    EG = "eg"
    RANDOM = "random"
    BRUTE = "brute"


class Criterion(Enum):
    """Objective used by the brute-force search."""

    D = "d"
    A = "a"
    E = "e"


class _Trail:
    """The method's index of each prefix of one greedy run's picks, each
    computed on first read and kept for later reads."""

    def __init__(self, cand: CandidateMatrix, index: Callable[[FisherInfo], float]):
        self.cand = cand
        self.index = index
        self.values: list[float] = []

    def read(self, indices: tuple[int, ...]) -> tuple[float, ...]:
        """The values for the prefixes of ``indices``, a selection of this run."""
        for k in range(len(self.values) + 1, len(indices) + 1):
            self.values.append(self.index(fisher_info(build_measurement(self.cand, indices[:k]))))
        return tuple(self.values[: len(indices)])


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection run.

    ``per_step_objective`` holds the method's own objective evaluated on
    the selected set after each step (NaN for methods without a stepwise
    objective).  For a greedy method it is computed when first read, from
    the picks, by a trail that the results of one stepwise run
    (:func:`greedy_steps`) share, so reading result p after result p - 1
    computes one value.  ``wall_time`` is the selection time in seconds;
    for a greedy method, the cumulative time of the first p picks of one
    stepwise run, which leaves out the objective.
    """

    method: Method
    indices: tuple[int, ...]
    _objective: tuple[float, ...] | _Trail
    wall_time: float

    @property
    def per_step_objective(self) -> tuple[float, ...]:
        if isinstance(self._objective, _Trail):
            return self._objective.read(self.indices)
        return self._objective


def _check_p(n: int, p: int) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p > n:
        raise TooManySensorsError(f"requested {p} sensors from {n} candidates")


def _argbest(values: np.ndarray, minimize: bool = False) -> int:
    """Lowest 0-based index among near-tied optima; NaN entries are excluded."""
    v = np.asarray(values, dtype=float)
    if minimize:
        v = -v
    best = np.fmax.reduce(v)  # NaN only when every entry is NaN
    if not np.isfinite(best):
        raise NoAdmissibleCandidateError("no admissible candidate at this step")
    tol = TIE_REL * abs(best)
    return int(np.flatnonzero(v >= best - tol)[0])


def _quad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two equally shaped matrices."""
    return np.einsum("ij,ij->i", a, b)


class _Factor:
    """Factored Fisher information of the rows selected so far.

    While k < r rows are selected, ``coords[:k]`` holds every candidate's
    coordinates on an orthonormal basis of the selected rows and ``res2``
    its squared distance from their span; ``coords[:k, selected]^T`` is the
    lower-triangular factor L of ``C C^T = L L^T``.  From r rows on, the
    information is ``C^T C``, which :meth:`gram` forms and eigendecomposes
    afresh, once per step for every score.  ``excluded`` marks the rows the
    next step may not pick: the selected rows and, while k < r, the rows
    whose ``res2`` is at most ``floor`` (no new direction).
    """

    def __init__(self, u: np.ndarray):
        self.u = u
        self.norms2 = _quad(u, u)
        self.res2 = self.norms2.copy()
        self.coords = np.empty((u.shape[1], u.shape[0]))
        self.selected: list[int] = []
        self.floor = np.maximum(REDUNDANT_REL * self.norms2, EPS_SINGULAR * self.norms2.max())
        self.excluded = self.res2 <= self.floor

    @property
    def under(self) -> bool:
        """Whether the next row is at most the r-th, so ``C C^T`` carries the information."""
        return len(self.selected) < self.u.shape[1]

    def add(self, i: int) -> None:
        if self.under:
            k = len(self.selected)
            prev = self.coords[:k]
            row = (self.u @ self.u[i] - prev.T @ prev[:, i]) / math.sqrt(self.res2[i])
            self.coords[k] = row
            self.res2 -= row * row
            if k + 1 < self.u.shape[1]:
                self.excluded = self.res2 <= self.floor
            else:  # from r rows on, every row adds information
                self.excluded = np.zeros_like(self.excluded)
            self.excluded[self.selected] = True
        self.selected.append(i)
        self.excluded[i] = True

    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``C^T C`` of the selected rows and its ascending eigenpairs, checked nonsingular."""
        c = self.u[self.selected]
        gram = c.T @ c
        lam, vecs = _eigh(gram)
        _require_nonsingular(lam)
        return gram, lam, vecs


def _greedy(
    cand: CandidateMatrix,
    method: Method,
    score: Callable[[_Factor], np.ndarray],
    index: Callable[[FisherInfo], float],
    minimize: bool,
) -> Iterator[SelectionResult]:
    """Pick rows one at a time, each the best under ``score``, and yield
    the result after every pick, up to all n rows.

    ``score`` rates every candidate against the current state (NaN marks
    one it skips); ``index`` of each selected prefix's Fisher information
    is the results' ``per_step_objective``, computed when read.
    ``wall_time`` counts only the time spent in this generator, not the
    time the caller holds it suspended.
    """
    elapsed, t0 = 0.0, time.perf_counter()
    state = _Factor(_unit_scaled(cand.rows)[0])
    trail = _Trail(cand, index)
    for k in range(cand.n):
        if state.excluded.all():
            raise NoAdmissibleCandidateError(f"step {k + 1}: every remaining row adds no direction")
        with np.errstate(divide="ignore"):  # an excluded row's residual may be 0
            values = score(state)
        values[state.excluded] = np.nan
        state.add(_argbest(values, minimize))
        indices = tuple(j + 1 for j in state.selected)
        elapsed += time.perf_counter() - t0
        yield SelectionResult(method, indices, trail, elapsed)
        t0 = time.perf_counter()


def _dg_score(state: _Factor) -> np.ndarray:
    if state.under:
        return state.res2.copy()
    _, lam, vecs = state.gram()
    return 1.0 + (state.u @ vecs) ** 2 @ (1.0 / lam)


def _ag_score(state: _Factor) -> np.ndarray:
    if state.under:
        coords = state.coords[: len(state.selected)]
        y = coords.T @ np.linalg.inv(coords[:, state.selected].T)
        return (_quad(y, y) + 1.0) / state.res2
    _, lam, vecs = state.gram()
    w2 = (state.u @ vecs) ** 2
    return -(w2 @ (1.0 / lam) ** 2) / (1.0 + w2 @ (1.0 / lam))


def _eg_score(state: _Factor) -> np.ndarray:
    """Smallest eigenvalue of each candidate's information matrix where the
    candidate can still be picked, NaN where its upper bound rules it out
    (the bounds are described in :func:`select_eg`)."""
    u = state.u
    k = len(state.selected)
    if k == 0:
        return state.norms2.copy()  # the 1 x 1 bordered Gram
    if state.under:
        c = u[state.selected]
        gram, border = c @ c.T, u @ c.T
        lam, vecs = _eigh(gram)
        a = border @ ((vecs / lam) @ vecs.T)  # u ~ a C, each row's projection
        bound = np.fmin(
            _least_eig_2x2(lam[0], border @ vecs[:, 0], state.norms2),
            state.res2 / (1.0 + _quad(a, a)),
        )

        def exact(idx: np.ndarray) -> np.ndarray:
            stacked = np.empty((len(idx), k + 1, k + 1))
            stacked[:, :k, :k] = gram
            stacked[:, :k, k] = border[idx]
            stacked[:, k, :k] = border[idx]
            stacked[:, k, k] = state.norms2[idx]
            return _eigvalsh(stacked)[:, 0]

    else:
        gram, lam, vecs = state.gram()
        if u.shape[1] == 1:
            return gram[0, 0] + u[:, 0] * u[:, 0]  # the 1 x 1 information
        w = u @ vecs[:, :2]
        bound = _least_eig_2x2(
            lam[0] + w[:, 0] ** 2, w[:, 0] * w[:, 1], lam[1] + w[:, 1] ** 2
        )

        def exact(idx: np.ndarray) -> np.ndarray:
            return _eigvalsh(gram + u[idx, :, None] * u[idx, None, :])[:, 0]

    slack = EG_BOUND_SLACK * (lam[-1] + state.norms2)
    return _scores_that_can_win(bound + slack, exact, state.excluded)


def _least_eig_2x2(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric ``[[a, b], [b, d]]``."""
    return (a + d) / 2 - np.hypot((a - d) / 2, b)


def _scores_that_can_win(
    upper: np.ndarray, exact: Callable[[np.ndarray], np.ndarray], excluded: np.ndarray
) -> np.ndarray:
    """``exact`` scores of the candidates not ``excluded`` in descending order of
    ``upper``, in doubling blocks, until the next upper bound lies below the
    :func:`_argbest` tie band of the best score so far; NaN for the rest.
    ``upper`` must bound each exact score as computed, so the callers add a
    rounding slack: ``EG_BOUND_SLACK`` times ``lambda_max + ||u||^2`` in an
    E-greedy step (:func:`select_eg`) and times the trace of the scaled Gram
    in brute force (:func:`select_bruteforce`).
    """
    upper = np.where(excluded, -np.inf, upper)
    order = np.argsort(-upper)[: len(upper) - np.count_nonzero(excluded)]
    values = np.full(len(upper), np.nan)
    best = -np.inf
    start, size = 0, EG_FIRST_BLOCK
    while start < len(order):
        idx = order[start : start + size]
        values[idx] = exact(idx)
        best = np.fmax(best, np.fmax.reduce(values[idx]))
        start, size = start + size, 2 * size
        if start < len(order) and upper[order[start]] < best - TIE_REL * abs(best):
            break
    return values


def greedy_steps(cand: CandidateMatrix, method: Method) -> Iterator[SelectionResult]:
    """The stepwise run of a greedy method: yields the selection for p = 1, 2, ..., n.

    A pick never depends on how many picks follow, so the p-th result is
    the selection for p (``select_dg``/``select_ag``/``select_eg`` take it
    from this run) and one run serves every p of a sweep.
    """
    if method is Method.DG:
        return _greedy(cand, method, _dg_score, det_index, minimize=False)
    if method is Method.AG:
        return _greedy(cand, method, _ag_score, trace_inv_index, minimize=True)
    if method is Method.EG:
        return _greedy(cand, method, _eg_score, min_eig_index, minimize=False)
    raise ValueError(f"{method.value} is not a greedy method")


def _take(cand: CandidateMatrix, p: int, method: Method) -> SelectionResult:
    """The p-th result of the stepwise run of ``method``."""
    _check_p(cand.n, p)
    return next(islice(greedy_steps(cand, method), p - 1, None))


def select_dg(cand: CandidateMatrix, p: int) -> SelectionResult:
    """Determinant-greedy selection.

    The first min(p, r) sensors maximize the squared distance from the
    span of the sensors already picked (the column-pivoted-QR pivot
    sequence of U^T); subsequent sensors maximize the determinant via the
    rank-one ratio ``1 + u (C^T C)^-1 u^T = 1 + sum(w^2 / l)``, read from the
    step's one eigendecomposition ``C^T C = V diag(l) V^T`` with ``w = u V``.
    """
    return _take(cand, p, Method.DG)


def select_ag(cand: CandidateMatrix, p: int) -> SelectionResult:
    """Trace-of-inverse greedy selection.

    While p <= r the step objective is the bordered-inverse ratio
    ``(u C^T (C C^T)^-2 C u^T + 1) / (u (I - C^T (C C^T)^-1 C) u^T)``;
    past r it is ``-(u (C^T C)^-2 u^T) / (1 + u (C^T C)^-1 u^T)``, read as
    ``-sum(w^2 / l^2) / (1 + sum(w^2 / l))`` (see :func:`select_dg`).  Both
    are minimized.  Like every greedy selector, it skips the candidates
    whose projection residual vanishes for the current step.
    """
    return _take(cand, p, Method.AG)


def select_eg(cand: CandidateMatrix, p: int) -> SelectionResult:
    """Minimum-eigenvalue greedy selection.

    Step k maximizes the smallest eigenvalue of the bordered row Gram
    matrix while p <= r and of the rank-one-updated ``C^T C`` past r.

    Each step runs one eigendecomposition of ``C C^T`` (or ``C^T C``) and
    bounds every candidate's score from above by Courant-Fischer on two
    directions: with ``C C^T = V L V^T``, the least eigenvalue of
    ``[[l_1, b_1], [b_1, ||u||^2]]`` (``b = V^T C u``) or, if less, the
    Rayleigh quotient ``res2 / (1 + ||a||^2)`` of ``(-a, 1)``, where
    ``a C`` is the candidate's projection on the picked rows; past r, with
    ``C^T C = V L V^T`` and ``w = V^T u``, the least eigenvalue of
    ``[[l_1 + w_1^2, w_1 w_2], [w_1 w_2, l_2 + w_2^2]]``.  Each bound
    gets a rounding slack of ``EG_BOUND_SLACK * (l_max + ||u||^2)``,
    which covers the rounding of the bound and of the exact score.  The
    candidates are then scored exactly, by the eigensolve of the bordered
    Gram or of ``C^T C + u^T u``, in descending bound order, until the
    next bound lies below the tie band of the best score.  A pruned
    candidate can neither win nor tie, so every pick equals the step
    that scores every candidate.  The first pick is the largest
    ``||u||^2`` and, at r = 1, each later score is ``C^T C + u^2``
    itself; neither needs a bound.
    """
    return _take(cand, p, Method.EG)


def select_random(cand: CandidateMatrix, p: int, seed: int) -> SelectionResult:
    """Uniform sampling of p distinct sensors, reproducible per seed.

    Draws come from a PCG64 generator, so identical seeds yield identical
    index sequences on any platform.  No stepwise objective exists, so
    ``per_step_objective`` is all-NaN.
    """
    n = cand.n
    _check_p(n, p)
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = rng.choice(n, size=p, replace=False)
    wall = time.perf_counter() - t0
    return SelectionResult(
        Method.RANDOM,
        tuple(int(i) + 1 for i in picks),
        (float("nan"),) * p,
        wall,
    )


def _best_subset(
    n: int,
    p: int,
    score: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]],
    minimize: bool,
    r: int,
    bound: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[tuple[int, ...], float]:
    """Best p-subset of {1..n} under ``score``, with its value.

    The subsets are listed in lexicographic order (one byte an index up to
    n = 255) and scored in blocks of at most :data:`BRUTE_BLOCK` // (p r)
    subsets (at least one), ``r`` being the width of a candidate row:
    ``score`` takes a block as a (k, p) array of 1-based indices, one
    subset per row, and returns its k values, or arrays v and x of the
    nonnegative values v 2^x, which may lie past the float range and are
    ranked scaled by the power of two that brings the best into [1/2, 1).
    :func:`_argbest` then picks the winner, so near-ties go to the
    lexicographically smallest subset and NaN values are skipped, as in a
    greedy step.  The value returned is the winner's v 2^x, rounded once
    (``inf`` or 0 past the float range).  Guarded by :data:`BRUTE_GUARD`
    on the number of subsets.

    ``bound``, if given, takes a block as ``score`` does and returns, at
    ``score``'s exponents x, a bound on each value that ``score``'s value
    as computed cannot pass: an upper bound when maximizing, a lower one
    when minimizing.  Every subset is bounded first; then
    :func:`_scores_that_can_win` scores the subsets best bound first, the
    :data:`EG_FIRST_BLOCK` best seeding the best value, in doubling rounds
    (each scored a block at a time), while the next bound still reaches the
    tie band of the best value so far.  The others read NaN: none of them
    could have won or tied, so the winner and its value are those of
    scoring every subset.
    """
    total = math.comb(n, p)
    if total > BRUTE_GUARD:
        raise InstanceTooLargeError(f"C({n},{p}) = {total} exceeds guard {BRUTE_GUARD}")
    lexicographic = chain.from_iterable(combinations(range(1, n + 1), p))
    subsets = np.fromiter(lexicographic, np.min_scalar_type(n), total * p).reshape(total, p)
    size = max(1, BRUTE_BLOCK // (p * r))
    values, shifts = np.empty(total), np.zeros(total, np.intc)
    for start in range(0, total, size):
        at = slice(start, start + size)
        scores = (bound or score)(subsets[at])
        if isinstance(scores, tuple):
            scores, shifts[at] = scores
        values[at] = scores
    if bound is not None:  # values holds the bounds
        # upper bounds of sign * v 2^(x - base), one scale for all: a clip only weakens a
        # bound, and a clipped bound never passes a best value that keeps its bits, so a
        # subset is skipped only where the tie band is exact
        sign, base = (-1.0, shifts.min()) if minimize else (1.0, shifts.max())
        upper = sign * np.ldexp(values, np.clip(shifts - base, -960, 960))
        values.fill(np.nan)

        def exact(idx: np.ndarray) -> np.ndarray:
            for start in range(0, len(idx), size):
                at = idx[start : start + size]
                values[at] = score(subsets[at])[0]
            with np.errstate(over="ignore"):  # inf past the float range, outside the tie band
                return sign * np.ldexp(values[idx], shifts[idx] - base)

        _scores_that_can_win(upper, exact, np.zeros(total, bool))
    top = 0
    if shifts.any():  # exact within 2^64 of the best; further off saturates, outside the tie band
        x = np.frexp(values, out=(values, np.empty(total, np.intc)))[1] + shifts
        x_pos = x[values > 0]
        top = (x_pos.min() if minimize else x_pos.max()) if x_pos.size else 0
        np.ldexp(values, np.clip(x - top, -64, 64), out=values)
    best = _argbest(values, minimize)
    with np.errstate(over="ignore"):  # inf past the float range
        value = float(np.ldexp(values[best], top))
    return tuple(subsets[best].tolist()), value


def select_bruteforce(
    cand: CandidateMatrix, p: int, criterion: Criterion
) -> SelectionResult:
    """Exact optimizer over all p-subsets; ties go to the lexicographically
    smallest index set.

    The subsets are scored in blocks (see :func:`_best_subset`), each one's
    rows scaled by the power of two that puts their largest entry in
    [1/2, 1): one stack of regime Gram matrices per block.  Each
    criterion scores a subset by its :mod:`~sensorsel.fisher` index of
    the scaled rows and the power of two that scales it back, and every
    criterion is ranked at the scale of the best.  Subsets singular under
    A or D are skipped; D eigensolves only the Grams whose determinant and
    trace cannot rule out singularity.  A and E eigensolve only the Grams
    whose bound from the diagonal ``d`` of the scaled Gram reaches the tie
    band of the best value so far (see :func:`_best_subset`), with slack
    ``s = EG_BOUND_SLACK * trace``, which covers the rounding of the
    eigensolve: the trace of the inverse is at least ``sum(1 / (d_i + s))``
    (as ``(G^-1)_ii >= 1 / G_ii``) and the least eigenvalue at most
    ``min(d_i) + s`` (Courant-Fischer).  Guarded by :data:`BRUTE_GUARD` on
    the number of subsets.  ``per_step_objective`` is NaN except for the
    final entry, the optimal index value (``inf`` or 0 past the float range).
    """
    u = cand.rows
    _check_p(cand.n, p)

    def score(subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, e = _unit_scaled(u[subsets - 1], axis=(1, 2))
        gram = _gram(c)  # the raw rows' Gram times 2^-2e
        if criterion is Criterion.D:
            k = gram.shape[-1]
            det, x = _det(gram), 2 * k * e
            # only a Gram failing λ_min / λ_max >= det / trace^k is eigensolved; the factor 2
            # covers the rounding of a near-singular determinant (about 1e-4 relative)
            with np.errstate(over="ignore"):  # a trace^k past the float range fails
                unsure = ~(det > 2 * EPS_SINGULAR * np.einsum("...ii->...", gram) ** k)
            if unsure.any():
                w = _eigvalsh(gram[unsure])
                # a determinant past the float range (so is its trace^k) is the product of the
                # eigenvalues, kept as their mantissas' product and their exponents' sum
                (m, xw), over = np.frexp(w), np.isinf(det[unsure])
                det[unsure] = np.where(_singular(w), np.nan, np.where(over, m.prod(-1), det[unsure]))
                x[unsure] += np.where(over, xw.sum(-1), 0)
            return det, x
        crit = _criteria(gram)
        return (crit.min_eig, 2 * e) if criterion is Criterion.E else (crit.trace_inv, -2 * e)

    def bound(subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, e = _unit_scaled(u[subsets - 1], axis=(1, 2))
        d = np.einsum("kij,kij->kj" if p > cand.r else "kij,kij->ki", c, c)  # diagonal of the Gram
        s = EG_BOUND_SLACK * d.sum(-1)
        if criterion is Criterion.E:
            return d.min(-1) + s, 2 * e
        with np.errstate(divide="ignore"):  # an all-zero subset, singular, is bounded by inf
            return (1.0 / (d + s[:, None])).sum(-1), -2 * e

    t0 = time.perf_counter()
    try:
        best_subset, best_value = _best_subset(
            cand.n, p, score, criterion is Criterion.A, cand.r,
            None if criterion is Criterion.D else bound,
        )
    except NoAdmissibleCandidateError:
        raise NoAdmissibleCandidateError(f"every {p}-subset is singular") from None
    wall = time.perf_counter() - t0
    steps = [float("nan")] * (p - 1) + [best_value]
    return SelectionResult(Method.BRUTE, best_subset, tuple(steps), wall)


def run_selector(
    cand: CandidateMatrix,
    p: int,
    method: Method,
    seed: int = 0,
    criterion: Criterion = Criterion.D,
) -> SelectionResult:
    """Dispatch a selection run to the requested method."""
    if method is Method.DG:
        return select_dg(cand, p)
    if method is Method.AG:
        return select_ag(cand, p)
    if method is Method.EG:
        return select_eg(cand, p)
    if method is Method.RANDOM:
        return select_random(cand, p, seed)
    return select_bruteforce(cand, p, criterion)
