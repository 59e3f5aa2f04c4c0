"""Snapshot ingestion, truncated SVD, fold planning, and random systems.

Two snapshot file formats are supported, both holding an n x m data
matrix X whose columns are snapshots.

CSV
    First line ``n,m`` or ``n,m,width,height`` (positive sides with
    width * height = n); then m lines, each with n comma-separated
    decimals (one snapshot per line).  Values are written with 17
    significant digits, which round-trips float64 exactly.

RAW_F64
    A 32-byte little-endian header::

        bytes 0-3   magic "SNAP"
        bytes 4-7   u32 version, currently 1
        bytes 8-15  u64 n
        bytes 16-23 u64 m
        bytes 24-27 u32 flags, bit 0 = mask present, other bits 0
        bytes 28-31 padding

    followed by n mask bytes when the flag is set (nonzero = valid
    location), then n*m float64 values in column-major order so that each
    snapshot is contiguous, and nothing after them.  Masked values may be
    anything; they load as 0.

Random draws use NumPy's PCG64 generator; normal variates come from the
ziggurat method of ``Generator.standard_normal``, so a seed pins the
entire stream on every platform.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, FoldError, FormatError, RankOutOfRangeError
from .fisher import CandidateMatrix

_MAGIC = b"SNAP"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQI4x")

# pod_truncate's solver rule.  With OpenBLAS on one thread of a 2-vCPU Xeon
# VM, on matrices whose column scales fall from 1 to 1e-2, the Lanczos route
# (normal matrix formed per call, Rayleigh-Ritz step included) ran at
# 0.28-0.35x LAPACK's speed at 60 x 24 (r=3) and 0.63-0.64x at 400 x 30 (r=5),
# but 1.9-3.0x at 500 x 100 (r=5), 4.4-7.2x at 1000 x 416 (r=10) and 5.9-7.5x
# at 5000 x 800 (r=20).  At the rule's edge it can still lose about 0.2 ms
# for small r (0.69-0.75x at 300 x 36, r=4).
_ARPACK_MIN_SIZE_PER_RANK = 4  # Lanczos needs min(n, m) >= this * (2r + 1)
_ARPACK_MIN_RATIO = 1e-6  # the Lanczos result is kept only if sigma_r > this * sigma_1
# a normal matrix takes LAPACK unless its largest diagonal entry lies in [MIN, MAX)
_LANCZOS_MIN_DIAGONAL = 2.0**-960
_LANCZOS_MAX_DIAGONAL = 2.0**1022


class SnapshotFormat(Enum):
    CSV = "csv"
    RAW_F64 = "raw"


@dataclass(frozen=True)
class SnapshotData:
    """An n x m snapshot matrix with an optional location mask (masked rows read 0) and grid."""

    X: np.ndarray
    mask: np.ndarray | None = None
    grid: tuple[int, int] | None = None
    _keep_x: InitVar[bool] = False  # a loader's fresh float array is kept, not copied

    def __post_init__(self, _keep_x: bool) -> None:
        x = self.X if _keep_x else np.array(self.X, dtype=float)
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
        if not np.isfinite([x.min(), x.max()]).all():  # NaN propagates; no n x m temporary
            raise DataError("non-finite snapshot entries at valid locations")
        if self.grid is not None:
            w, h = self.grid
            if not (float(w).is_integer() and float(h).is_integer()):
                raise ValueError(f"grid sides must be whole numbers, got {w}x{h}")
            if w < 1 or h < 1:
                raise ValueError(f"grid sides must be positive, got {w}x{h}")
            if w * h != x.shape[0]:
                raise ValueError(f"grid {w}x{h} does not cover n={x.shape[0]}")
            object.__setattr__(self, "grid", (int(w), int(h)))
        x.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def gram(self) -> np.ndarray:
        """``XᵀX`` (m x m), formed on first use."""
        gram = self.X.T @ self.X
        gram.setflags(write=False)
        return gram

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PodModel:
    """Rank-r truncated POD of a snapshot matrix X.

    ``modes`` (n x r) holds the r leading left singular vectors of X, with
    orthonormal columns, and ``singular_values`` their nonincreasing
    singular values.
    """

    r: int
    modes: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.singular_values, dtype=float)
        if np.any(np.diff(s) > 0) or np.any(s < 0):
            raise ValueError("singular values must be nonincreasing and nonnegative")
        if not np.allclose(self.modes.T @ self.modes, np.eye(self.r), atol=1e-10):
            raise ValueError("modes columns are not orthonormal")


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
    if grid is not None and min(grid) < 1:
        raise FormatError(f"{path}: grid sides must be positive, got {grid}")
    if grid is not None and grid[0] * grid[1] != n:
        raise FormatError(f"{path}: grid {grid} does not cover n={n}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"{path}: expected {m} snapshot lines, found {len(body)}")
    for j, line in enumerate(body):  # n values need 2n - 1 characters, so the text bounds x
        if len(line) < 2 * n - 1:
            raise FormatError(f"{path}: snapshot line {j + 1} is too short for {n} values")
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
    return SnapshotData(x, grid=grid, _keep_x=True)


def _load_raw(path: Path) -> SnapshotData:
    with path.open("rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: shorter than the {_HEADER.size}-byte header")
        magic, version, n, m, flags = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n < 1 or m < 1:
            raise FormatError(f"{path}: dimensions must be positive, got n={n} m={m}")
        if flags & ~1:
            raise FormatError(f"{path}: unknown header flags {flags:#x}; only bit 0 (mask) is defined")
        need = _HEADER.size + (n if flags & 1 else 0) + n * m * 8
        if size != need:
            raise FormatError(f"{path}: {size} bytes, but the header implies {need}")
        mask = np.frombuffer(f.read(n), dtype=np.uint8) != 0 if flags & 1 else None
        x = np.empty((n, m), dtype="<f8", order="F")  # the array the set keeps: no second copy
        if f.readinto(x.T.reshape(-1)) != n * m * 8:
            raise FormatError(f"{path}: shorter than its header implies")
    return SnapshotData(x, mask, _keep_x=True)


def save_snapshots(data: SnapshotData, path: str | Path, fmt: SnapshotFormat) -> None:
    """Write a snapshot file; CSV cannot carry a mask, nor RAW_F64 a grid (``ValueError``)."""
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
        if data.grid is not None:
            raise ValueError("the RAW_F64 format cannot carry a grid")
        flags = 1 if data.mask is not None else 0
        parts = [_HEADER.pack(_MAGIC, _VERSION, data.n, data.m, flags)]
        if data.mask is not None:
            parts.append(data.mask.astype(np.uint8).tobytes())
        parts.append(np.asarray(data.X, dtype="<f8").tobytes(order="F"))
        path.write_bytes(b"".join(parts))


def pod_truncate(data: SnapshotData, r: int) -> PodModel:
    """Rank-r truncated POD of the snapshot matrix: its r leading spatial modes.

    Masked-out rows are zero (see :class:`SnapshotData`).  Singular values
    are returned in nonincreasing order, and mode signs are fixed so the
    largest-magnitude entry of each mode is positive.

    Only the r leading singular pairs are computed when the matrix is large
    enough for that to pay: if ``min(n, m) >= 4 * (2r + 1)``, ARPACK's
    Lanczos iteration (``scipy.sparse.linalg.eigsh``) finds the r leading
    eigenvectors V of the explicit normal matrix, ``XᵀX`` or ``XXᵀ``,
    whichever is smaller, from a fixed PCG64-seeded start vector, so reruns
    are bit-identical.  A tall set's ``XᵀX`` is :attr:`SnapshotData.gram`.
    ARPACK multiplies by one triangle of it, scaled by the power of two
    that puts its largest diagonal entry in [1/2, 1), so a file's
    power-of-two scale changes no mode (see ``_lanczos``).
    The explicit normal matrix loses accuracy in the trailing vectors, so the
    modes come from X itself: Q is an orthonormal basis of the leading right
    singular vectors (``qr(V)`` if tall, ``qr(Xᵀ V)`` if wide), and the
    Rayleigh-Ritz step ``svd(X Q)`` gives the modes and singular values.
    Below that size the full LAPACK SVD (``np.linalg.svd``) is faster and is
    used instead.  It is also the fallback when the normal matrix overflows,
    when its largest diagonal entry lies outside ``[2^-960, 2^1022)``, when
    ARPACK fails (``ArpackError``, no convergence included) or when the
    spectrum is steep, ``σ_r <= 1e-6 σ_1``, where the trailing modes drift
    towards the ``1e-12 σ_1`` bound (about 3e-12 σ_1 was seen at
    ``σ_1/σ_r = 1e7``).
    Where the Lanczos result is kept it equals the full SVD's at rounding
    level, not bit for bit: each ``σ_j`` lies within ``1e-12 σ_1`` of the
    full SVD's, and so does the span of the r modes where ``σ_r`` stands
    apart from ``σ_(r+1)``.  A single mode, scaled by ``σ_j``, agrees within
    ``1e-12 σ_1`` only where ``σ_j`` stands apart from its neighbours: modes
    of equal singular values are any orthonormal basis of their span.

    This is the one-set case of :func:`fold_pods`, which fits the folds of
    a ``cv`` run together: a tall fold's normal matrix is sliced from the
    file's one ``XᵀX``, and all folds' Rayleigh-Ritz steps share one product
    over the whole X (wide folds one more, for ``Xᵀ V``).
    """
    return fold_pods(data, r, [None])[0]


def fold_pods(data: SnapshotData, r: int, folds: Sequence[np.ndarray | None]) -> list[PodModel]:
    """:func:`pod_truncate` of the snapshots at each fold's distinct 0-based
    columns (``None``: all), fitted together.  Each Lanczos fold first gets an
    orthonormal basis Q of its r leading right singular vectors: ``qr(V)`` of
    a tall fold's ARPACK vectors, or ``qr`` of a wide fold's training rows of
    ``Xᵀ V``, one product for all wide folds.  Then all Lanczos folds share
    one product ``X Q̂``, each Q zero at its fold's left-out columns, and each
    fold's modes and singular values are the thin SVD of its block.  The
    products sum over those zeros, so each POD equals pod_truncate of a copy
    of its columns at rounding level.  Ranks are checked first, in fold order
    (kfold's first is narrowest)."""
    x, n = data.X, data.n
    cols = [slice(None) if c is None else c for c in folds]
    widths = [data.m if c is None else len(c) for c in folds]
    for width in widths:
        if r < 1 or r > min(n, width):
            raise RankOutOfRangeError(f"rank {r} outside [1, {min(n, width)}]")
    bases = {}  # fold -> its ARPACK vectors, then an orthonormal basis of its right singular vectors
    for k, width in enumerate(widths):
        if min(n, width) >= _ARPACK_MIN_SIZE_PER_RANK * (2 * r + 1):
            v = _lanczos(data, r, cols[k], tall=n >= width)
            if v is not None:
                bases[k] = v
    wide = [k for k in bases if widths[k] > n]
    if wide:  # a wide fold's vectors are left ones: Xᵀ carries them to the right
        y = x.T @ np.hstack([bases[k] for k in wide])
        for j, k in enumerate(wide):
            bases[k] = y[cols[k], j * r : (j + 1) * r]
    q = np.zeros((data.m, r * len(bases)))
    for j, k in enumerate(bases):
        q[cols[k], j * r : (j + 1) * r] = np.linalg.qr(bases[k])[0]
    z = x @ q
    modes = {}
    for j, k in enumerate(bases):
        u, s, _ = np.linalg.svd(z[:, j * r : (j + 1) * r], full_matrices=False)
        if s[-1] > _ARPACK_MIN_RATIO * s[0]:
            modes[k] = u, s
    pods = []
    for k, c in enumerate(cols):
        if k not in modes:  # small, at the float range's ends, ARPACK failed or steep spectrum
            u, s, _ = np.linalg.svd(x[:, c], full_matrices=False)
            modes[k] = u[:, :r].copy(), s[:r]  # not a view that keeps all of u
        u, s = modes[k]
        u *= np.where(u[np.argmax(np.abs(u), axis=0), np.arange(r)] < 0.0, -1.0, 1.0)
        pods.append(PodModel(r=r, modes=u, singular_values=s))
    return pods


def _lanczos(data: SnapshotData, r: int, cols: np.ndarray | slice, tall: bool) -> np.ndarray | None:
    """The r leading eigenvectors of a fold's normal matrix, leading one first;
    None if the matrix nears either end of the float range, or ARPACK fails.

    ARPACK runs on :func:`_unit_operator`, the normal matrix scaled by a power
    of two.  The scaling is exact, so ARPACK's convergence test, which has an
    absolute floor, never sees a tiny matrix, and a file times a power of two
    gives the same vectors bit for bit wherever no product leaves the normal
    float range.  A largest diagonal entry below ``2^-960`` takes the LAPACK
    route: entries that matter are then near the subnormal range, where they
    lose bits, and below ``2^-1024`` the scale would overflow.  So does one at
    ``2^1022`` or above, where the scale would be subnormal, and one that
    overflows."""
    # loaded here, not with the package: only large snapshot matrices need it
    import scipy.sparse.linalg
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if tall:
            normal = data.gram if isinstance(cols, slice) else data.gram[np.ix_(cols, cols)]
        else:
            xc = data.X[:, cols]
            normal = xc @ xc.T
    # |G_ij| <= sqrt(G_ii G_jj), so a finite diagonal means that no entry overflowed
    top = np.diagonal(normal).max()
    if not _LANCZOS_MIN_DIAGONAL <= top < _LANCZOS_MAX_DIAGONAL:  # NaN fails too
        return None
    v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(normal.shape[0])
    try:
        _, v = scipy.sparse.linalg.eigsh(_unit_operator(normal, top), k=r, v0=v0)
    except scipy.sparse.linalg.ArpackError:
        return None
    return v[:, ::-1]


def _unit_operator(normal: np.ndarray, top: float):
    """The product with ``normal`` times the power of two that puts ``top``, its
    largest diagonal entry, in [1/2, 1).  It reads one triangle (BLAS ``dsymv``)."""
    from scipy.linalg.blas import dsymv
    from scipy.sparse.linalg import LinearOperator
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    # dsymv reads the upper triangle of the Fortran-ordered view normal.T, which
    # it takes without a copy: the lower triangle of normal
    return LinearOperator(normal.shape, matvec=lambda v: dsymv(scale, normal.T, v), dtype=float)


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
