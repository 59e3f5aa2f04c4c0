"""Snapshot ingestion, truncated SVD, fold planning, and random systems.

Two snapshot file formats are supported, both holding an n x m data
matrix X whose columns are snapshots.

CSV
    First line ``n,m`` or ``n,m,width,height``; then m lines, each with n
    comma-separated decimals (one snapshot per line).  Values are written
    with 17 significant digits, which round-trips float64 exactly.

RAW_F64
    A 32-byte little-endian header::

        bytes 0-3   magic "SNAP"
        bytes 4-7   u32 version, currently 1
        bytes 8-15  u64 n
        bytes 16-23 u64 m
        bytes 24-27 u32 flags, bit 0 = mask present
        bytes 28-31 padding

    followed by n mask bytes when the flag is set (nonzero = valid
    location), then n*m float64 values in column-major order so that each
    snapshot is contiguous, and nothing after them.  Masked values may be
    anything; they load as 0.

An optional sidecar ``<path>.meta`` with ``key=value`` lines (source,
units, grid) may be written next to a file; it is never read back by the
numeric pipeline.

Random draws use NumPy's PCG64 generator; normal variates come from the
ziggurat method of ``Generator.standard_normal``, so a seed pins the
entire stream on every platform.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, FoldError, FormatError, RankOutOfRangeError
from .fisher import CandidateMatrix

_MAGIC = b"SNAP"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQI4x")

# pod_truncate's solver rule.  With OpenBLAS on one thread of a 2-vCPU Xeon
# VM, ARPACK ran at 0.19x LAPACK's speed at 60 x 24 (r=3) and 0.27x at
# 400 x 30 (r=5), but 2.1x at 500 x 100 (r=5), 5.5x at 1000 x 416 (r=10)
# and 6.2x at 5000 x 800 (r=20).  Just above the rule it can still lose
# about a millisecond for r <= 5 (0.34x at 300 x 36, r=4); from r = 10 on
# it is at least as fast from the rule's edge.
_ARPACK_MIN_SIZE_PER_RANK = 4  # ARPACK needs min(n, m) >= this * (2r + 1)
_ARPACK_MIN_RATIO = 1e-8  # ARPACK's result is kept only if sigma_r > this * sigma_1


class SnapshotFormat(Enum):
    CSV = "csv"
    RAW_F64 = "raw"


@dataclass(frozen=True)
class SnapshotData:
    """An n x m snapshot matrix with an optional location mask (masked rows read 0) and grid."""

    X: np.ndarray
    mask: np.ndarray | None = None
    grid: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        x = np.array(self.X, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"snapshot matrix must be 2-D and nonempty, got {x.shape}")
        mask = self.mask
        if mask is not None:
            mask = np.array(mask, dtype=bool)
            if mask.shape != (x.shape[0],):
                raise ValueError(
                    f"mask must have shape ({x.shape[0]},), got {mask.shape}"
                )
            if not mask.any():
                raise DataError("the mask marks every location invalid")
            mask.setflags(write=False)
            x[~mask] = 0.0
        if not np.all(np.isfinite(x)):
            raise DataError("non-finite snapshot entries at valid locations")
        if self.grid is not None:
            w, h = self.grid
            if w * h != x.shape[0]:
                raise ValueError(f"grid {w}x{h} does not cover n={x.shape[0]}")
            object.__setattr__(self, "grid", (int(w), int(h)))
        x.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "mask", mask)

    def columns(self, cols: np.ndarray) -> SnapshotData:
        """The snapshots at the 0-based columns ``cols``, with this set's mask
        and grid; columns of validated snapshots are not checked again."""
        sub = copy.copy(self)
        x = self.X[:, cols]
        x.setflags(write=False)
        object.__setattr__(sub, "X", x)
        return sub

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PodModel:
    """Rank-r truncated SVD of a snapshot matrix.

    ``modes`` (n x r) and ``temporal`` (m x r) have orthonormal columns and
    ``singular_values`` is nonincreasing, so
    ``X ~= modes @ diag(singular_values) @ temporal.T``.
    """

    r: int
    modes: np.ndarray
    singular_values: np.ndarray
    temporal: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.singular_values, dtype=float)
        if np.any(np.diff(s) > 0) or np.any(s < 0):
            raise ValueError("singular values must be nonincreasing and nonnegative")
        for name in ("modes", "temporal"):
            q = getattr(self, name)
            gram = q.T @ q
            if not np.allclose(gram, np.eye(self.r), atol=1e-10):
                raise ValueError(f"{name} columns are not orthonormal")

    def latent(self) -> np.ndarray:
        """Latent amplitude matrix ``diag(S) @ temporal.T`` (r x m)."""
        return self.singular_values[:, None] * self.temporal.T


@dataclass(frozen=True)
class FoldPlan:
    """K contiguous, disjoint segments covering snapshot columns [1, m]."""

    K: int
    segments: tuple[tuple[int, int], ...]  # 1-based inclusive (start, stop)

    def test_columns(self, k: int) -> np.ndarray:
        """0-based column indices of fold ``k`` (folds count from 1)."""
        start, stop = self.segments[k - 1]
        return np.arange(start - 1, stop)

    def train_columns(self, k: int) -> np.ndarray:
        """0-based column indices of all folds except ``k``."""
        m = self.segments[-1][1]
        keep = np.ones(m, dtype=bool)
        keep[self.test_columns(k)] = False
        return np.flatnonzero(keep)


def kfold(m: int, K: int) -> FoldPlan:
    """Split [1, m] into K contiguous segments.

    The first ``m mod K`` segments get the extra snapshot, so sizes are
    ceil(m/K) then floor(m/K).
    """
    if K < 2 or K > m:
        raise FoldError(f"fold count K={K} must satisfy 2 <= K <= m={m}")
    base, extra = divmod(m, K)
    segments = []
    start = 1
    for k in range(K):
        size = base + (1 if k < extra else 0)
        segments.append((start, start + size - 1))
        start += size
    return FoldPlan(K=K, segments=tuple(segments))


def load_snapshots(path: str | Path, fmt: SnapshotFormat) -> SnapshotData:
    """Read a snapshot file in the given format.

    Raises
    ------
    FormatError
        Malformed file, or one whose length does not match its header.
    DataError
        Non-finite values at valid locations, or no valid location.
    """
    path = Path(path)
    if fmt is SnapshotFormat.CSV:
        return _load_csv(path)
    return _load_raw(path)


def _load_csv(path: Path) -> SnapshotData:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 text file") from exc
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) not in (2, 4):
        raise FormatError(f"{path}: header must be 'n,m' or 'n,m,width,height'")
    try:
        dims = [int(tok) for tok in header]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header field") from exc
    n, m = dims[0], dims[1]
    grid = (dims[2], dims[3]) if len(dims) == 4 else None
    if n < 1 or m < 1:
        raise FormatError(f"{path}: dimensions must be positive, got n={n} m={m}")
    if grid is not None and grid[0] * grid[1] != n:
        raise FormatError(f"{path}: grid {grid} does not cover n={n}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"{path}: expected {m} snapshot lines, found {len(body)}")
    x = np.empty((n, m))
    for j, line in enumerate(body):
        toks = line.split(",")
        if len(toks) != n:
            raise FormatError(
                f"{path}: snapshot line {j + 1} has {len(toks)} values, expected {n}"
            )
        try:
            x[:, j] = [float(tok) for tok in toks]
        except ValueError as exc:
            raise FormatError(f"{path}: bad value on snapshot line {j + 1}") from exc
    return SnapshotData(X=x, grid=grid)


def _load_raw(path: Path) -> SnapshotData:
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: shorter than the {_HEADER.size}-byte header")
    magic, version, n, m, flags = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n < 1 or m < 1:
        raise FormatError(f"{path}: dimensions must be positive, got n={n} m={m}")
    offset = _HEADER.size
    need = offset + (n if flags & 1 else 0) + n * m * 8
    if len(blob) != need:
        raise FormatError(f"{path}: {len(blob)} bytes, but the header implies {need}")
    mask = None
    if flags & 1:
        mask = np.frombuffer(blob, dtype=np.uint8, count=n, offset=offset) != 0
        offset += n
    flat = np.frombuffer(blob, dtype="<f8", count=n * m, offset=offset)
    return SnapshotData(X=flat.reshape((n, m), order="F"), mask=mask)


def save_snapshots(
    data: SnapshotData,
    path: str | Path,
    fmt: SnapshotFormat,
    meta: dict[str, str] | None = None,
) -> None:
    """Write a snapshot file; optionally drop a ``<path>.meta`` sidecar."""
    path = Path(path)
    if fmt is SnapshotFormat.CSV:
        if data.mask is not None:
            raise ValueError("the CSV format cannot carry a location mask")
        head = f"{data.n},{data.m}"
        if data.grid is not None:
            head += f",{data.grid[0]},{data.grid[1]}"
        lines = [head]
        for j in range(data.m):
            lines.append(",".join(f"{v:.17g}" for v in data.X[:, j]))
        path.write_text("\n".join(lines) + "\n")
    else:
        flags = 1 if data.mask is not None else 0
        parts = [_HEADER.pack(_MAGIC, _VERSION, data.n, data.m, flags)]
        if data.mask is not None:
            parts.append(data.mask.astype(np.uint8).tobytes())
        parts.append(np.asarray(data.X, dtype="<f8").tobytes(order="F"))
        path.write_bytes(b"".join(parts))
    if meta:
        side = path.with_name(path.name + ".meta")
        side.write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


def pod_truncate(data: SnapshotData, r: int, subtract_mean: bool = False) -> PodModel:
    """Rank-r truncated SVD of the snapshot matrix.

    Masked-out rows are zero (see :class:`SnapshotData`).  With
    ``subtract_mean`` the temporal mean of each row is removed first
    (masked rows stay zero either way).  Singular values are returned in
    nonincreasing order, and mode signs are fixed so the largest-magnitude
    entry of each spatial mode is positive.

    Only the r leading singular triplets are computed when the matrix is
    large enough for that to pay: if ``min(n, m) >= 4 * (2r + 1)``,
    ARPACK's Lanczos iteration (``scipy.sparse.linalg.svds``) runs on
    ``XᵀX`` or ``XXᵀ``, whichever is smaller, from a fixed PCG64-seeded
    start vector, so reruns are bit-identical.  Below that size the full
    LAPACK SVD (``np.linalg.svd``) is faster and is used instead.  It is
    also the fallback when ARPACK fails (``ArpackError``, no convergence
    included) or when the spectrum is too steep for the normal operator,
    ``σ_r <= 1e-8 σ_1``: there ``σ_r²`` is below the rounding of
    ``σ_1²``, and ARPACK's trailing modes can lose accuracy.  Where
    ARPACK's result is kept it equals the full SVD's at rounding level,
    not bit for bit: each ``σ_j`` and each mode scaled by ``σ_j`` within
    about ``1e-12 σ_1``.
    """
    n, m = data.n, data.m
    if r < 1 or r > min(n, m):
        raise RankOutOfRangeError(f"rank {r} outside [1, {min(n, m)}]")
    x = data.X
    if subtract_mean:
        x = x - x.mean(axis=1, keepdims=True)
    u, s, vt = _leading_svd(x, r)
    for j in range(r):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return PodModel(r=r, modes=u, singular_values=s, temporal=vt.T)


def _leading_svd(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The r leading singular triplets of x in nonincreasing order (see pod_truncate)."""
    if min(x.shape) >= _ARPACK_MIN_SIZE_PER_RANK * (2 * r + 1):
        # loaded here, not with the package: only large snapshot matrices need it
        import scipy.sparse.linalg

        v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(min(x.shape))
        try:
            u, s, vt = scipy.sparse.linalg.svds(x, k=r, solver="arpack", v0=v0)
        except scipy.sparse.linalg.ArpackError:
            pass
        else:
            if s[0] > _ARPACK_MIN_RATIO * s[-1]:
                return u[:, ::-1], s[::-1], vt[::-1, :]
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return u[:, :r], s[:r], vt[:r, :]


def sensor_candidates(
    pod: PodModel, mask: np.ndarray | None = None
) -> tuple[CandidateMatrix, np.ndarray]:
    """Candidate matrix from POD modes, dropping masked-out locations.

    Returns the candidate matrix together with ``locations``, the 1-based
    original row index of each candidate row, so selections made on the
    reduced matrix can be mapped back to physical locations.
    """
    if mask is None:
        rows = pod.modes
        locations = np.arange(1, rows.shape[0] + 1)
    else:
        mask = np.asarray(mask, dtype=bool)
        rows = pod.modes[mask, :]
        locations = np.flatnonzero(mask) + 1
    return CandidateMatrix(rows), locations


def gen_random_system(n: int, r: int, seed: int) -> CandidateMatrix:
    """An n x r candidate matrix of i.i.d. standard normal entries (PCG64)."""
    if n < 1 or r < 1:
        raise ValueError(f"n and r must be >= 1, got n={n} r={r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return CandidateMatrix(rng.standard_normal((n, r)))


def gen_latent(r: int, m: int, seed: int) -> np.ndarray:
    """An r x m latent matrix of i.i.d. standard normal entries (PCG64)."""
    if r < 1 or m < 1:
        raise ValueError(f"r and m must be >= 1, got r={r} m={m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((r, m))
