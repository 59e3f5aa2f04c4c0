"""Set-function views of the optimality objectives and exhaustive checkers.

The objectives are the epsilon-offset A objective
``r/eps - tr[(C^T C + eps I)^-1]``, which the regularization makes well
defined on every subset, the raw least eigenvalue of the regime Gram (E)
and a modular fixture; each reads 0 on the empty set.  The checkers
compare all nested pairs S < T at once on one table of subset values, so
they take at most 14 candidates; the table scores the subsets of each
size as one stack (:meth:`SetObjective.values`), bit for bit as one at a
time.  The witnesses stay bit-mask arrays from the scan to the CSV rows
(:class:`Witnesses`, 9 bytes a witness), sorted as Python sorts their
tuples.  The A objective is monotone but not submodular (the checker finds
diminishing-returns violations), so the Nemhauser bound
``f(S_greedy) >= (1 - 1/e) f(S_opt)`` is not guaranteed for it and the
greedy-to-optimal ratio against brute force is an empirical check.  Its
optimum scores every p-subset: the diagonal bounds that spare brute force
most A and E eigensolves (:func:`~sensorsel.selectors.select_bruteforce`)
are not applied to the regularized objective.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import DuplicateSensorError, InstanceTooLargeError, NumericalError
from . import fisher
from .fisher import CandidateMatrix
from .selectors import _best_subset, _check_p, select_ag

#: Largest ``3**n`` (the count of nested pairs S <= T of n candidates) that the
#: exhaustive submodularity and monotonicity scans accept, so n <= 14.
ENUM_GUARD = 10**7

#: Relative check tolerance for the exhaustive submodularity/monotonicity scans.
DEFAULT_CHECK_TOL = 1e-9

#: A 6-row, 3-mode candidate matrix on which the raw minimum-eigenvalue
#: objective exhibits both increasing and diminishing marginal gains, so it
#: is neither submodular nor supermodular.
E_OPT_COUNTEREXAMPLE = np.array(
    [
        [0.2, -0.1, -0.2],
        [-0.5, -0.1, 0.2],
        [-0.2, 0.3, 0.2],
        [-0.5, 0.3, -0.3],
        [-0.4, -0.3, -0.4],
        [0.3, 0.0, 0.0],
    ]
)


def counterexample_matrix() -> CandidateMatrix:
    """The embedded 6x3 counterexample candidate matrix."""
    return CandidateMatrix(E_OPT_COUNTEREXAMPLE)


class ObjectiveKind(Enum):
    A_EPS = "a_eps"  # -tr[(C^T C + eps I)^-1] + r/eps
    E_RAW = "e_raw"  # lambda_min of the regime Gram matrix
    MODULAR_NORM = "modular_norm"  # sum of squared row norms (test fixture)


@dataclass(frozen=True)
class SetObjective:
    """One of the selection objectives viewed as a set function on {1..n};
    ``A_EPS`` needs a positive, finite ``epsilon``, which the others ignore."""

    kind: ObjectiveKind
    cand: CandidateMatrix
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ObjectiveKind.A_EPS:
            if not 0.0 < (self.epsilon or 0.0) < np.inf:
                raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
            object.__setattr__(self, "epsilon", float(self.epsilon))

    def evaluate(self, subset: Iterable[int]) -> float:
        """Set-function value on ``subset`` (1-based indices, order ignored):
        :meth:`values` on that one subset."""
        idx = fisher._validated_indices(sorted(set(map(int, subset))), self.cand.n)
        return float(self.values(np.array([idx], dtype=np.intp))[0])

    def values(self, idx: np.ndarray) -> np.ndarray:
        """Set-function values of a stack of subsets of one size k, given as
        an (N, k) array of 1-based indices, one subset per row.

        The empty set reads 0.  A is ``r/eps`` minus the ``fisher`` A index
        of ``C^T C + eps I``, so it raises ``SingularInformationError`` at
        the first of these matrices that is singular, once eps is at
        rounding level.
        """
        if idx.shape[-1] == 0:
            return np.zeros(len(idx))
        c = self.cand.rows[idx - 1]
        if self.kind is ObjectiveKind.MODULAR_NORM:
            return np.einsum("...ij,...ij->...", c, c)
        if self.kind is ObjectiveKind.E_RAW:
            return fisher._criteria(fisher._gram(c)).min_eig
        crit = fisher._criteria(np.swapaxes(c, -1, -2) @ c + self.epsilon * np.eye(self.cand.r))
        fisher._require_nonsingular(crit.eigvals)
        return self.cand.r / self.epsilon - crit.trace_inv

    def marginal_gain(self, subset: Iterable[int], i: int) -> float:
        """``f(S + {i}) - f(S)``; raises if ``i`` already belongs to ``S``."""
        idx = set(int(j) for j in subset)
        if int(i) in idx:
            raise DuplicateSensorError(f"index {i} already in the set")
        return self.evaluate(idx | {int(i)}) - self.evaluate(idx)


class Witnesses(Sequence):
    """The witnesses of one check as arrays: the bit masks of S and T (bit j
    standing for index j + 1) and, for a diminishing-returns check, i.  A
    read-only sequence of tuples ``(S, T)`` or ``(S, T, i)`` of sorted 1-based
    index tuples, each built when read; it equals any sequence of the same
    tuples.
    """

    def __init__(self, s: np.ndarray, t: np.ndarray, *i: np.ndarray):
        self.columns = (s, t, *i)

    @classmethod
    def of(cls, found: Iterable[tuple]) -> Witnesses:
        """The witnesses given as tuples ``(S, T)`` or ``(S, T, i)``."""
        s, t, *i = list(zip(*found)) or [(), ()]
        return cls(_masks(s), _masks(t), *map(np.array, i))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        s, t, *i = (int(c[k]) for c in self.columns)
        return (_indices(s), _indices(t), *i)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:  # as the tuple it equals, so a report stays hashable
        return hash(tuple(self))


def _masks(subsets: Iterable[tuple[int, ...]]) -> np.ndarray:
    return np.array([sum(1 << (j - 1) for j in x) for x in subsets], np.int64)


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@dataclass(frozen=True)
class ModularityReport:
    """Outcome of an exhaustive diminishing-returns or monotonicity scan.

    ``checked_pairs`` counts the (S, T, i) triples, or the (S, T) pairs,
    that were compared.  The witnesses are :class:`Witnesses` (tuples given
    here are converted), sorted as Python sorts their tuples; each one
    reproduces its violated inequality when re-evaluated.
    """

    checked_pairs: int
    tolerance: float
    violations_submodular: Sequence[tuple] = ()
    violations_supermodular: Sequence[tuple] = ()
    violations_monotone: Sequence[tuple] = ()

    def __post_init__(self) -> None:
        for name in ("violations_submodular", "violations_supermodular", "violations_monotone"):
            found = getattr(self, name)
            if not isinstance(found, Witnesses):
                object.__setattr__(self, name, Witnesses.of(found))

    @property
    def submodular(self) -> bool:
        return not self.violations_submodular

    @property
    def supermodular(self) -> bool:
        return not self.violations_supermodular

    @property
    def monotone(self) -> bool:
        return not self.violations_monotone

    def to_text(self, label: str = "") -> str:
        lines = []
        head = f"modularity report {label}".rstrip()
        lines.append(f"{head}: checked={self.checked_pairs} tol={self.tolerance:g}")
        lines.append(f"  submodularity violations:  {len(self.violations_submodular)}")
        lines.append(f"  supermodularity violations: {len(self.violations_supermodular)}")
        lines.append(f"  monotonicity violations:   {len(self.violations_monotone)}")
        return "\n".join(lines)

    def witness_rows(self, *prefix: str) -> list[tuple]:
        """One ``(*prefix, check, S, T, i)`` CSV row per witness, subsets space-joined,
        each distinct subset formatted once."""
        cell = functools.cache(lambda mask: " ".join(map(str, _indices(mask))))
        rows = []
        for check, found in (
            ("submodular", self.violations_submodular),
            ("supermodular", self.violations_supermodular),
            ("monotone", self.violations_monotone),
        ):
            s, t, *i = found.columns
            i = i[0].tolist() if i else repeat("")
            rows += zip(*map(repeat, (*prefix, check)), map(cell, s.tolist()), map(cell, t.tolist()), i)
        return rows


def _subset_table(obj: SetObjective, max_size: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every subset of {1..n} and its objective value, both indexed by bit mask.

    Bit ``i`` of a mask stands for index ``i + 1``; masks of more than
    ``max_size`` elements are not evaluated and hold NaN.  The subsets of
    each size are scored by one :meth:`SetObjective.values` call, smallest
    size first and in mask order within a size, so the failure raised is
    the first in that order.
    """
    subsets: list[tuple[int, ...]] = [()]
    for i in range(1, obj.cand.n + 1):
        subsets += [s + (i,) for s in subsets]
    sizes = np.fromiter(map(len, subsets), np.intp, len(subsets))
    values = np.full(len(subsets), np.nan)
    for k in range(max_size + 1):
        masks = np.flatnonzero(sizes == k)
        idx = np.array([subsets[m] for m in masks], dtype=np.intp).reshape(len(masks), k)
        values[masks] = obj.values(idx)
    return subsets, values


def _nested_pairs(n: int, max_set_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask arrays ``(S, T)`` of every pair with S a proper subset of T, |T| <= max_set_size.

    Raises ``InstanceTooLargeError`` when ``3**n``, which bounds both the
    pair count and the ``2**n`` subset table, exceeds ``ENUM_GUARD``.
    """
    if 3**n > ENUM_GUARD:
        raise InstanceTooLargeError(f"scan of {n} candidates exceeds the enumeration guard")
    s = t = size = np.zeros(1, dtype=np.int32)
    for i in range(n):
        # element i stays out of T, joins T only, or joins both S and T
        grow = size < max_set_size
        s_in, t_in, size_in = s[grow], t[grow] | (1 << i), size[grow] + 1
        s = np.concatenate([s, s_in, s_in | (1 << i)])
        t = np.concatenate([t, t_in, t_in])
        size = np.concatenate([size, size_in, size_in])
    proper = s != t
    return s[proper], t[proper]


def _witnesses(subsets: list[tuple[int, ...]], parts: list) -> Witnesses:
    """The witnesses ``(S, T)`` or ``(S, T, i)`` in the order Python sorts their tuples.

    ``parts`` is a list of mask arrays ``(s, t)`` or ``(s, t, i)``, which
    this empties.  The subsets are ranked once in tuple order, and the
    witnesses ordered by (rank of S, rank of T, i), so no tuple is built.
    """
    s, t, *i = (np.concatenate(column) for column in zip(*parts))
    parts.clear()
    rank = np.empty(len(subsets), dtype=np.min_scalar_type(len(subsets)))
    rank[sorted(range(len(subsets)), key=subsets.__getitem__)] = np.arange(len(subsets))
    order = np.lexsort((*i, rank[t], rank[s]))
    return Witnesses(s[order], t[order], *(x[order] for x in i))


def check_submodular(
    obj: SetObjective, max_set_size: int, tol: float = DEFAULT_CHECK_TOL
) -> ModularityReport:
    """Exhaustively test diminishing returns over all S < T, |T| <= max_set_size.

    A triple (S, T, i) with i outside T violates submodularity when
    ``gain(i|S) - gain(i|T) < -tol * max(1, |gain_S|, |gain_T|)`` and
    supermodularity when the difference exceeds the same bound upward.
    """
    n = obj.cand.n
    pair_s, pair_t = _nested_pairs(n, max_set_size)
    subsets, values = _subset_table(obj, min(n, max_set_size + 1))
    sub_viol, super_viol, checked = [], [], 0
    for i in range(n):
        bit = 1 << i
        out = (pair_t & bit) == 0
        s, t = pair_s[out], pair_t[out]
        gain_s = values[s | bit] - values[s]
        gain_t = values[t | bit] - values[t]
        bound = tol * np.maximum(np.maximum(1.0, np.abs(gain_s)), np.abs(gain_t))
        diff = gain_s - gain_t
        checked += len(s)
        for viol, hit in ((sub_viol, diff < -bound), (super_viol, diff > bound)):
            viol.append((s[hit], t[hit], np.full(np.count_nonzero(hit), i + 1, dtype=np.int8)))
    return ModularityReport(
        checked_pairs=checked,
        tolerance=tol,
        violations_submodular=_witnesses(subsets, sub_viol),
        violations_supermodular=_witnesses(subsets, super_viol),
    )


def check_monotone(
    obj: SetObjective, max_set_size: int, tol: float = DEFAULT_CHECK_TOL
) -> ModularityReport:
    """Exhaustively test ``f(S) <= f(T)`` over all nested pairs S < T."""
    n = obj.cand.n
    s, t = _nested_pairs(n, max_set_size)
    subsets, values = _subset_table(obj, min(n, max_set_size))
    f_s, f_t = values[s], values[t]
    hit = f_t - f_s < -tol * np.maximum(np.maximum(1.0, np.abs(f_s)), np.abs(f_t))
    return ModularityReport(
        checked_pairs=len(s),
        tolerance=tol,
        violations_monotone=_witnesses(subsets, [(s[hit], t[hit])]),
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """Minimum-eigenvalue gains on the embedded 6x3 matrix.

    Two add-a-sensor scenarios are evaluated on nested prefixes: adding
    row 5 to {1,2,3} versus to {1,2,3,4}, and adding row 6 to {1,2,3,4}
    versus to {1,2,3,4,5}.  The first shows strictly increasing gains
    (submodularity violated), the second strictly diminishing gains
    (supermodularity violated), so the raw minimum-eigenvalue objective is
    neither submodular nor supermodular.
    """

    lam_123: float
    lam_1234: float
    lam_12345: float
    lam_1235: float
    lam_12346: float
    lam_123456: float

    @property
    def gain5_at_123(self) -> float:
        return self.lam_1235 - self.lam_123

    @property
    def gain5_at_1234(self) -> float:
        return self.lam_12345 - self.lam_1234

    @property
    def gain6_at_1234(self) -> float:
        return self.lam_12346 - self.lam_1234

    @property
    def gain6_at_12345(self) -> float:
        return self.lam_123456 - self.lam_12345

    @property
    def submodularity_violated(self) -> bool:
        return self.gain5_at_123 < self.gain5_at_1234

    @property
    def supermodularity_violated(self) -> bool:
        return self.gain6_at_1234 > self.gain6_at_12345

    def to_text(self) -> str:
        lines = [
            "minimum-eigenvalue counterexample (6x3 embedded matrix)",
            f"  lam_min {{1,2,3}}       = {self.lam_123:.12f}",
            f"  lam_min {{1,2,3,4}}     = {self.lam_1234:.12f}",
            f"  lam_min {{1,2,3,4,5}}   = {self.lam_12345:.12f}",
            f"  lam_min {{1,2,3,5}}     = {self.lam_1235:.12f}",
            f"  lam_min {{1,2,3,4,6}}   = {self.lam_12346:.12f}",
            f"  lam_min {{1,2,3,4,5,6}} = {self.lam_123456:.12f}",
            f"  gain of row 5: {self.gain5_at_123:.12f} at {{1,2,3}} < "
            f"{self.gain5_at_1234:.12f} at {{1,2,3,4}} "
            f"-> submodularity violated: {self.submodularity_violated}",
            f"  gain of row 6: {self.gain6_at_1234:.12f} at {{1,2,3,4}} > "
            f"{self.gain6_at_12345:.12f} at {{1,2,3,4,5}} "
            f"-> supermodularity violated: {self.supermodularity_violated}",
            "  verdict: neither submodular nor supermodular: "
            f"{self.submodularity_violated and self.supermodularity_violated}",
        ]
        return "\n".join(lines)


def counterexample_report() -> CounterexampleReport:
    """Evaluate both add-a-sensor scenarios on the embedded matrix."""
    lam = SetObjective(ObjectiveKind.E_RAW, counterexample_matrix()).evaluate
    return CounterexampleReport(
        lam_123=lam((1, 2, 3)),
        lam_1234=lam((1, 2, 3, 4)),
        lam_12345=lam((1, 2, 3, 4, 5)),
        lam_1235=lam((1, 2, 3, 5)),
        lam_12346=lam((1, 2, 3, 4, 6)),
        lam_123456=lam((1, 2, 3, 4, 5, 6)),
    )


@dataclass(frozen=True)
class NemhauserResult:
    """Greedy value versus brute-force optimum of the regularized A objective."""

    greedy_value: float
    opt_value: float
    ratio: float
    greedy_indices: tuple[int, ...]
    opt_indices: tuple[int, ...]


def nemhauser_check(cand: CandidateMatrix, p: int, epsilon: float) -> NemhauserResult:
    """Compare the A-greedy selection against the exact p-subset optimum.

    Both sides are scored with the offset objective
    ``-tr[(C^T C + eps I)^-1] + r/eps``.  It is monotone but not
    submodular, so the Nemhauser bound ``1 - 1/e`` is not guaranteed and
    the returned ratio is an empirical measurement.  The optimum scores
    the p-subsets in blocks (see ``selectors._best_subset``), one
    :meth:`SetObjective.values` call per block; a singular regularized
    Gram raises ``SingularInformationError``.  For eps far above the Gram
    eigenvalues the values are rounding noise, and an optimum that is not
    positive raises ``NumericalError``.
    """
    _check_p(cand.n, p)
    obj = SetObjective(ObjectiveKind.A_EPS, cand, epsilon)
    opt_indices, opt_value = _best_subset(cand.n, p, obj.values, minimize=False, r=cand.r)
    if not opt_value > 0.0:
        raise NumericalError(
            f"the optimum {opt_value!r} at epsilon={obj.epsilon!r} is not positive, "
            "so the greedy ratio is undefined"
        )
    greedy = select_ag(cand, p)
    greedy_value = obj.evaluate(greedy.indices)
    return NemhauserResult(
        greedy_value=greedy_value,
        opt_value=opt_value,
        ratio=greedy_value / opt_value,
        greedy_indices=greedy.indices,
        opt_indices=opt_indices,
    )
