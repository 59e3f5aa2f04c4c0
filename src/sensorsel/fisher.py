"""Linear observation model, least-squares estimation, and optimality indices.

The observation model is ``y = C z`` where the rows of the measurement
matrix ``C`` are rows picked from a candidate matrix ``U`` (n candidate
locations by r latent modes).  All public sensor indices are 1-based, the
index ``i`` referring to row ``i`` of the candidate matrix.

Every quantity switches between two regimes:

* UNDER (``p <= r``): the information matrix is ``C C^T`` (p x p),
* OVER  (``p > r``):  the information matrix is ``C^T C`` (r x r).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

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

    def row_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of each candidate row."""
        return np.einsum("ij,ij->i", self.rows, self.rows)

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
        c = self.measurement
        gram = c @ c.T if self.regime is Regime.UNDER else c.T @ c
        gram.setflags(write=False)
        return FisherInfo(self.regime, gram)


@dataclass(frozen=True)
class FisherInfo:
    """The symmetric regime Gram matrix: ``C C^T`` when UNDER, ``C^T C`` when OVER,
    which must not change once ``_eigvals`` is read (:func:`fisher_info` freezes it)."""

    regime: Regime
    matrix: np.ndarray

    @cached_property
    def _eigvals(self) -> np.ndarray:
        """Ascending eigenvalues of ``matrix``."""
        return _eigvalsh(self.matrix)


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


def _sym(matrix: np.ndarray) -> np.ndarray:
    """Symmetric part of a product whose factors are not each other's transposes."""
    return (matrix + matrix.T) / 2.0


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
    """Whether a Gram matrix fails the relative singularity test: its least
    eigenvalue is at or below ``EPS_SINGULAR`` times its largest, so any
    with a non-positive eigenvalue fails.  ``w`` holds the ascending
    eigenvalues of one Gram matrix, or of one per row."""
    return w.T[0] <= EPS_SINGULAR * w.T[-1]


def _require_nonsingular(w: np.ndarray) -> np.ndarray:
    """``w``, the ascending eigenvalues of a Gram matrix or one row per Gram
    matrix, raising at the first one that :func:`_singular` flags."""
    bad = _singular(w)
    if bad.any() if bad.ndim else bad:
        w = w.reshape(-1, w.shape[-1])[np.argmax(bad)]
        raise SingularInformationError(
            f"Gram matrix is singular (min eig {w[0]:.3e}, max eig {w[-1]:.3e})"
        )
    return w


def _trace_inv(w: np.ndarray) -> np.ndarray:
    """``sum(1 / w)`` over the last axis: the trace of each inverse Gram."""
    return np.sum(1.0 / w, axis=-1)


def _least_eig(w: np.ndarray) -> np.ndarray:
    """Least of the ascending eigenvalues ``w`` (one Gram's, or one row per
    Gram), clamped to zero where its magnitude is at most ``EPS_SINGULAR``
    times that of the largest."""
    lam = w.T[0]
    return np.where(abs(lam) <= EPS_SINGULAR * abs(w.T[-1]), 0.0, lam)


def _solve_gram(info: FisherInfo, rhs: np.ndarray) -> np.ndarray:
    """Solve ``info.matrix @ x = rhs`` by Cholesky.

    The Gram matrix must pass the singularity test, which leaves it safely
    positive definite; inverses are never formed explicitly.  SciPy's
    linear algebra loads its own BLAS, so it is imported here, on first
    use, rather than with the package.
    """
    import scipy.linalg

    _require_nonsingular(info._eigvals)
    factor = scipy.linalg.cho_factor(info.matrix, check_finite=False)
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


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
    around 1e150).  No selector ranks candidates by it (brute force under
    ``Criterion.D`` ranks by the log-determinant), so picks are unaffected;
    only the reported index (``per_step_objective``, the ``det_index`` CSV
    column) reads ``inf``.
    """
    with np.errstate(over="ignore"):
        return float(np.linalg.det(f.matrix))


def trace_inv_index(f: FisherInfo) -> float:
    """Trace of the inverse of the regime Gram matrix (the A-optimality index).

    Raises
    ------
    SingularInformationError
        If the smallest eigenvalue is at or below ``EPS_SINGULAR`` times the
        largest.
    """
    return float(_trace_inv(_require_nonsingular(f._eigvals)))


def min_eig_index(f: FisherInfo) -> float:
    """Smallest eigenvalue of the regime Gram matrix (the E-optimality index).

    Values within ``EPS_SINGULAR * ||matrix||`` of zero are clamped to zero.
    """
    return float(_least_eig(f._eigvals))


def estimate(s: SensorSet, y: np.ndarray) -> np.ndarray:
    """Pseudo-inverse estimate of the latent state from observations ``y``.

    UNDER regime returns the least-norm solution
    ``C^T (C C^T)^-1 y``; OVER regime the least-squares solution
    ``(C^T C)^-1 C^T y``.  ``y`` may be a p-vector or a p x m matrix of
    observation columns.
    """
    c = s.measurement
    y = np.asarray(y, dtype=float)
    if y.shape[0] != s.p:
        raise ValueError(f"y has leading dimension {y.shape[0]}, expected p={s.p}")
    if s.regime is Regime.UNDER:
        return c.T @ _solve_gram(s.info, y)
    return _solve_gram(s.info, c.T @ y)


def error_covariance(
    s: SensorSet,
    noise: NoiseModel,
    prior_zz: np.ndarray | None = None,
) -> np.ndarray:
    """Covariance of the estimation error ``z - z_hat`` in latent coordinates.

    UNDER regime:
    ``(I - P_C) E[z z^T] (I - P_C) + sigma^2 C^T (C C^T)^-2 C`` with
    ``P_C = C^T (C C^T)^-1 C``.  OVER regime: ``sigma^2 (C^T C)^-1``.

    Parameters
    ----------
    prior_zz : (r, r) array_like, optional
        Second-moment matrix of the latent prior, used only in the UNDER
        regime.  Defaults to the identity (unit-variance latent states).
    """
    c = s.measurement
    r = s.r
    sig2 = noise.sigma**2
    if s.regime is Regime.OVER:
        return _sym(sig2 * _solve_gram(s.info, np.eye(r)))
    if prior_zz is None:
        prior = np.eye(r)
    else:
        prior = np.asarray(prior_zz, dtype=float)
        if prior.shape != (r, r):
            raise ValueError(f"prior_zz must be {r}x{r}, got {prior.shape}")
        if not np.allclose(prior, prior.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(prior).max())):
            raise ValueError("prior_zz must be symmetric")
        wp = _eigvalsh(_sym(prior))
        if wp[0] < -EPS_SINGULAR * max(wp[-1], 1.0):
            raise ValueError("prior_zz must be positive semidefinite")
    k = _solve_gram(s.info, c)  # (C C^T)^-1 C, p x r
    proj = c.T @ k
    residual = np.eye(r) - proj
    return _sym(residual @ prior @ residual + sig2 * (k.T @ k))


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
    npair = min(s.p, s.r)
    for j in range(u.shape[1]):
        col = u[:, j]
        peak = np.abs(col).max()
        nz = np.flatnonzero(np.abs(col) > 1e-12 * peak)
        lead = col[nz[0]] if nz.size else 0.0
        if lead < 0.0:
            u[:, j] = -col
            if j < npair:
                vt[j, :] = -vt[j, :]
    return u, svals, vt.T


def observable_error_covariance(s: SensorSet, noise: NoiseModel) -> np.ndarray:
    """Error covariance restricted to the observable subspace.

    UNDER regime returns the p x p matrix ``sigma^2 U_C^T (C C^T)^-1 U_C``;
    OVER regime the r x r matrix ``sigma^2 V_C^T (C^T C)^-1 V_C``.  Either
    way the eigenvalues equal those of ``sigma^2 (Gram)^-1``.

    Raises
    ------
    RankDeficientError
        If C lacks full row rank (UNDER) or full column rank (OVER).
    SingularInformationError
        If the Gram matrix fails the singularity test.
    """
    u, svals, v = observable_transform(s)
    smax = svals[0] if svals.size else 0.0
    smin = svals[-1] if svals.size else 0.0
    if smin**2 <= EPS_SINGULAR * smax**2:
        raise RankDeficientError(
            f"measurement matrix is rank deficient (sigma_min {smin:.3e})"
        )
    w = u if s.regime is Regime.UNDER else v
    return _sym(noise.sigma**2 * (w.T @ _solve_gram(s.info, w)))


def reconstruction_error(z_true: np.ndarray, z_est: np.ndarray) -> float:
    """Relative Frobenius error ``||z_est - z_true||_F / ||z_true||_F``.

    Raises
    ------
    ZeroReferenceError
        If ``z_true`` has zero norm.
    """
    zt = np.asarray(z_true, dtype=float)
    ze = np.asarray(z_est, dtype=float)
    if zt.shape != ze.shape:
        raise ValueError(f"shape mismatch: {zt.shape} vs {ze.shape}")
    denom = float(np.linalg.norm(zt))
    if denom == 0.0:
        raise ZeroReferenceError("true latent matrix has zero norm")
    return float(np.linalg.norm(ze - zt)) / denom
