"""Linear observation model, least-squares estimation, and optimality indices.

The observation model is ``y = C z`` where the rows of the measurement
matrix ``C`` are rows picked from a candidate matrix ``U`` (n candidate
locations by r latent modes).  All public sensor indices are 1-based, the
index ``i`` referring to row ``i`` of the candidate matrix.

Every quantity switches between two regimes:

* UNDER (``p <= r``): the information matrix is ``C C^T`` (p x p),
* OVER  (``p > r``):  the information matrix is ``C^T C`` (r x r).

The A and E values of every caller come from one kernel, :func:`_criteria`,
the one place that computes the trace of the inverse (NaN where a Gram is
singular) and clamps the least eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateSensorError,
    EigenSolverError,
    IndexOutOfRangeError,
    RankDeficientError,
    SingularInformationError,
    ZeroReferenceError,
)

#: Relative eigenvalue threshold below which a Gram matrix counts as singular.
EPS_SINGULAR = 1e-12


class Regime(Enum):
    """Which Gram matrix carries the information at the current sensor count."""

    UNDER = "under"
    OVER = "over"


@dataclass(frozen=True)
class CandidateMatrix:
    """Candidate sensor matrix; row ``i`` (1-based) is candidate sensor ``i``.

    Parameters
    ----------
    rows : (n, r) array_like
        Mode coefficients of the n candidate locations.  Entries must be
        finite and the array is copied and frozen on construction.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"candidate matrix must be 2-D, got ndim={rows.ndim}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"candidate matrix must be at least 1x1, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("candidate matrix contains non-finite entries")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def r(self) -> int:
        return self.rows.shape[1]

    def take(self, indices: Sequence[int]) -> np.ndarray:
        """Stack rows ``indices`` (1-based, order preserved) into a p x r array."""
        idx = _validated_indices(indices, self.n)
        return self.rows[[i - 1 for i in idx], :]


@dataclass(frozen=True)
class SensorSet:
    """An ordered selection of sensors with its stacked measurement matrix, which
    must not change once ``info`` is formed (:func:`build_measurement` freezes it)."""

    indices: tuple[int, ...]
    measurement: np.ndarray

    @property
    def p(self) -> int:
        return self.measurement.shape[0]

    @property
    def r(self) -> int:
        return self.measurement.shape[1]

    @property
    def regime(self) -> Regime:
        return Regime.UNDER if self.p <= self.r else Regime.OVER

    @cached_property
    def info(self) -> FisherInfo:
        """The regime Gram matrix, read-only (NumPy forms ``C C^T`` exactly symmetric)."""
        gram = _gram(self.measurement)
        gram.setflags(write=False)
        return FisherInfo(self.regime, gram)


@dataclass(frozen=True)
class FisherInfo:
    """The symmetric regime Gram matrix: ``C C^T`` when UNDER, ``C^T C`` when OVER,
    which must not change once ``_criteria`` is read (:func:`fisher_info` freezes it)."""

    regime: Regime
    matrix: np.ndarray

    @cached_property
    def _criteria(self) -> _Criteria:
        """The eigenvalues and A and E values of ``matrix``, solved once."""
        return _criteria(self.matrix)


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. Gaussian observation noise with standard deviation ``sigma``."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def _validated_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    seen = set()
    for i in idx:
        if i < 1 or i > n:
            raise IndexOutOfRangeError(f"sensor index {i} outside [1, {n}]")
        if i in seen:
            raise DuplicateSensorError(f"sensor index {i} selected twice")
        seen.add(i)
    return idx


def _gram(c: np.ndarray) -> np.ndarray:
    """Regime Gram matrix of a measurement ``c`` (p, r), or of each in a stack:
    ``C C^T`` when p <= r, else ``C^T C``."""
    ct = np.swapaxes(c, -1, -2)
    return c @ ct if c.shape[-2] <= c.shape[-1] else ct @ c


def _unit_scaled(a: np.ndarray, axis: tuple[int, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``a`` times 2^-e, and e, the binary exponent of max|a| over ``axis`` (all of ``a`` by
    default; 0 where ``a`` is zero): the largest magnitude then lies in [1/2, 1), and only
    entries below 2^-1022 of it round.  ``e`` lacks the reduced axes."""
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0))[1]
    return np.ldexp(a, -(e if axis is None else np.expand_dims(e, axis))), e


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, wrapping solver failures."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a symmetric matrix, wrapping solver failures."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc


def _singular(w: np.ndarray) -> np.ndarray:
    """Whether a Gram fails the relative singularity test: its least eigenvalue
    is not above ``EPS_SINGULAR`` times its largest (so a non-positive or a NaN
    one fails).  ``w`` holds the ascending eigenvalues of one Gram, or of one per
    row; for one, ``[()]`` reads NumPy scalars, cheaper than 0-d arrays."""
    return ~(w[..., 0][()] > EPS_SINGULAR * w[..., -1][()])


def _require_nonsingular(w: np.ndarray) -> None:
    """Raise ``SingularInformationError`` at the first Gram that :func:`_singular`
    flags in ``w``, the ascending eigenvalues of one Gram, or of one per row."""
    bad = _singular(w)
    if bad.any() if bad.ndim else bad:
        w = w.reshape(-1, w.shape[-1])[np.argmax(bad)]
        raise SingularInformationError(
            f"Gram matrix is singular (min eig {w[0]:.3e}, max eig {w[-1]:.3e})"
        )


def _det(gram: np.ndarray) -> np.ndarray:
    """Determinant of a Gram matrix, or of each in a stack, without a warning:
    ``inf`` past the float range, NaN where overflowed entries leave it undefined."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.det(gram)


class _Criteria(NamedTuple):
    eigvals: np.ndarray
    trace_inv: np.ndarray
    min_eig: np.ndarray


def _criteria(gram: np.ndarray) -> _Criteria:
    """One eigensolve of a Gram (k, k), or of each in a stack (..., k, k): the
    ascending eigenvalues ``w``; the trace of the inverse, ``sum(1 / w)``, NaN
    where :func:`_singular`; and the least eigenvalue, zero where its magnitude
    is at most ``EPS_SINGULAR`` times the largest's (both 0-d for one Gram)."""
    w = _eigvalsh(gram)
    finite = w.copy()
    finite[_singular(w)] = np.nan  # so that no singular Gram divides by zero
    lam, top = w[..., 0][()], w[..., -1][()]  # as in _singular
    min_eig = w[..., 0].copy()
    min_eig[abs(lam) <= EPS_SINGULAR * abs(top)] = 0.0
    return _Criteria(w, np.add.reduce(1.0 / finite, axis=-1), min_eig)


def _pinv_apply(c: np.ndarray, gram: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`estimate`'s arithmetic on a measurement ``c`` and its regime
    Gram ``gram``, which must pass the singularity test: one
    ``np.linalg.solve`` on the Gram."""
    if c.shape[0] <= c.shape[1]:
        return c.T @ np.linalg.solve(gram, y)
    return np.linalg.solve(gram, c.T @ y)


def build_measurement(cand: CandidateMatrix, indices: Sequence[int]) -> SensorSet:
    """Stack candidate rows ``indices`` (1-based, order preserved) into a SensorSet.

    Raises
    ------
    DuplicateSensorError
        If an index repeats.
    IndexOutOfRangeError
        If an index lies outside [1, n].
    """
    idx = tuple(int(i) for i in indices)
    if len(idx) < 1:
        raise ValueError("at least one sensor index is required")
    c = cand.take(idx)
    c.setflags(write=False)
    return SensorSet(indices=idx, measurement=c)


def fisher_info(s: SensorSet) -> FisherInfo:
    """Information matrix of a sensor set, formed once per set (see ``SensorSet.info``)."""
    return s.info


def det_index(f: FisherInfo) -> float:
    """Determinant of the regime Gram matrix (the D-optimality index).

    Reads ``inf`` when the determinant exceeds the float range (entries
    around 1e150).  No selector ranks candidates by it (they score rows
    scaled by a power of two), so picks are unaffected; only the reported
    index (``per_step_objective``, the ``det_index`` CSV column) reads ``inf``.
    """
    return float(_det(f.matrix))


def trace_inv_index(f: FisherInfo) -> float:
    """Trace of the inverse of the regime Gram matrix (the A-optimality index).

    Raises
    ------
    SingularInformationError
        If the smallest eigenvalue is not above ``EPS_SINGULAR`` times the
        largest (a NaN eigenvalue included).
    """
    _require_nonsingular(f._criteria.eigvals)
    return float(f._criteria.trace_inv)


def min_eig_index(f: FisherInfo) -> float:
    """Smallest eigenvalue of the regime Gram matrix (the E-optimality index).

    Values within ``EPS_SINGULAR * ||matrix||`` of zero are clamped to zero.
    """
    return float(f._criteria.min_eig)


def estimate(s: SensorSet, y: np.ndarray) -> np.ndarray:
    """Pseudo-inverse estimate of the latent state from observations ``y``.

    UNDER regime returns the least-norm solution
    ``C^T (C C^T)^-1 y``; OVER regime the least-squares solution
    ``(C^T C)^-1 C^T y``.  ``y`` may be a p-vector or a p x m matrix of
    observation columns.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] != s.p:
        raise ValueError(f"y has leading dimension {y.shape[0]}, expected p={s.p}")
    _require_nonsingular(s.info._criteria.eigvals)
    return _pinv_apply(s.measurement, s.info.matrix, y)


def error_covariance(s: SensorSet, noise: NoiseModel) -> np.ndarray:
    """Covariance of the estimation error ``z - z_hat`` in latent coordinates
    for unit-variance latent states: ``(I - P_C) + sigma^2 C^T (C C^T)^-2 C``,
    ``P_C = C^T (C C^T)^-1 C``, while p <= r, and ``sigma^2 (C^T C)^-1`` past r.

    Both are ``(I - C^+ C)(I - C^+ C)^T + sigma^2 C^+ C^+^T`` for the map
    ``C^+`` of :func:`estimate` (``C^+ C = I`` past r), symmetric as computed.
    A Gram that fails the singularity test raises ``SingularInformationError``.
    """
    pinv = estimate(s, np.eye(s.p))
    residual = np.eye(s.r) - pinv @ s.measurement
    return residual @ residual.T + noise.sigma**2 * (pinv @ pinv.T)


def observable_transform(s: SensorSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD factors ``(U_C, svals, V_C)`` of the measurement matrix.

    Singular values are sorted descending.  Sign convention: the first
    entry of each left singular vector that is nonzero (relatively, above
    1e-12 of the column peak) is made nonnegative; paired right singular
    vectors are flipped along with it so the product is preserved.
    """
    c = s.measurement
    try:
        u, svals, vt = np.linalg.svd(c, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc
    mag = np.abs(u)
    lead = u[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(u.shape[1])]
    signs = np.where(lead < 0.0, -1.0, 1.0)  # a zero column leads with 0 and keeps its sign
    u *= signs
    vt[: min(s.p, s.r)] *= signs[: min(s.p, s.r), None]
    return u, svals, vt.T


def observable_error_covariance(s: SensorSet, noise: NoiseModel) -> np.ndarray:
    """Error covariance in the observable coordinates of :func:`observable_transform`:
    the diagonal ``sigma^2 / s_j^2`` over the singular values ``s_j`` of C,
    descending (p x p while p <= r, r x r past r), the eigenvalues of
    ``sigma^2 (Gram)^-1``, 0 or ``inf`` where they leave the float range.
    Raises ``RankDeficientError`` if the squared singular values, taken
    relative to the largest so that the test is free of scale, fail the
    singularity test of the Gram.
    """
    try:
        svals = np.linalg.svd(s.measurement, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc
    with np.errstate(all="ignore"):  # an all-zero C reads NaN and fails the test
        if _singular((svals[::-1] / svals[0]) ** 2):
            raise RankDeficientError(
                f"measurement matrix is rank deficient (sigma_min {svals[-1]:.3e})"
            )
        return np.diag(noise.sigma**2 / svals**2)


def reconstruction_error(z_true: np.ndarray, z_est: np.ndarray) -> float:
    """Relative Frobenius error ``||z_est - z_true||_F / ||z_true||_F``, also where
    the squares leave the float range; ``ZeroReferenceError`` if ``z_true`` is zero.
    """
    zt = np.asarray(z_true, dtype=float)
    ze = np.asarray(z_est, dtype=float)
    if zt.shape != ze.shape:
        raise ValueError(f"shape mismatch: {zt.shape} vs {ze.shape}")
    with np.errstate(over="ignore"):  # only a ratio past the float range reads inf
        num, denom = float(np.linalg.norm(ze - zt)), float(np.linalg.norm(zt))
        if not (math.isfinite(num) and 0.0 < denom < math.inf):
            # a square left the float range: both norms again on inputs scaled exactly
            zt_unit, ez = _unit_scaled(zt)
            (ze_e, zt_e), e = _unit_scaled(np.stack([ze, zt]))
            num = float(np.ldexp(np.linalg.norm(ze_e - zt_e), e - ez))
            denom = float(np.linalg.norm(zt_unit))
    if denom == 0.0:
        raise ZeroReferenceError("true latent matrix has zero norm")
    return num / denom
