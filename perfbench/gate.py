"""Correctness gate: checks each operation's output with plain NumPy.

Nothing here calls into ``sensorsel``.  Candidate matrices are regenerated
from their seeds (or recomputed from the snapshot data) and every index is
scored again from scratch, so a defect in the package cannot hide behind a
shared helper.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from pathlib import Path

import numpy as np

#: Relative tolerance of a recomputed optimality index, before conditioning.
RTOL = 1e-6

#: Relative error per unit of condition number allowed on top of ``RTOL``.
COND_RTOL = 1e-13

#: Absolute tolerance of the smallest eigenvalue, as a share of the largest.
EIG_ATOL = 1e-10


def child_seed(*keys: int) -> int:
    """Child seed of an integer tuple (NumPy ``SeedSequence``, first 64-bit word)."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])


def normal_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """I.i.d. standard normal matrix from a PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((rows, cols))


def gram_indices(c: np.ndarray) -> tuple[float, float, float, float]:
    """Determinant, trace of inverse, smallest and largest eigenvalue of the regime Gram.

    The Gram is ``C C^T`` while p <= r and ``C^T C`` past r.  A smallest
    eigenvalue within 1e-12 of the largest is reported as zero.
    """
    p, r = c.shape
    g = c @ c.T if p <= r else c.T @ c
    w = np.linalg.eigvalsh((g + g.T) / 2.0)
    lmin, lmax = float(w[0]), float(w[-1])
    if abs(lmin) <= 1e-12 * max(abs(lmin), abs(lmax)):
        lmin = 0.0
    return float(np.prod(w)), float(np.sum(1.0 / w)), lmin, lmax


def index_problems(indices: list[int], p: int, n: int) -> list[str]:
    """Why ``indices`` is not a selection of p distinct 1-based rows of n."""
    problems = []
    if len(indices) != p:
        problems.append(f"{len(indices)} indices for p={p}")
    if len(set(indices)) != len(indices):
        problems.append("repeated index")
    if any(i < 1 or i > n for i in indices):
        problems.append(f"index outside [1, {n}]")
    return problems


def record_problems(cand: np.ndarray, rec: dict, locations: np.ndarray | None = None) -> list[str]:
    """Problems with one experiment record, scored against candidate rows ``cand``.

    ``rec`` is a row of a record CSV.  ``locations`` maps candidate rows to
    1-based physical locations; without it a record's locations must equal
    its indices.
    """
    p = int(rec["p"])
    indices = [int(tok) for tok in rec["indices"].split()]
    problems = index_problems(indices, p, cand.shape[0])
    if problems:
        return problems
    want = indices if locations is None else [int(locations[i - 1]) for i in indices]
    if [int(tok) for tok in rec["locations"].split()] != want:
        problems.append("locations do not match indices")
    det, trinv, lmin, lmax = gram_indices(cand[[i - 1 for i in indices]])
    # Eigenvalues carry an error near eps * lmax, so the relative error of
    # det and trace-of-inverse grows with the condition number.
    rtol = RTOL + COND_RTOL * (lmax / abs(lmin) if lmin else math.inf)
    if not math.isclose(float(rec["det_index"]), det, rel_tol=rtol):
        problems.append(f"det_index {rec['det_index']} != {det!r}")
    if not math.isclose(float(rec["trace_inv_index"]), trinv, rel_tol=rtol):
        problems.append(f"trace_inv_index {rec['trace_inv_index']} != {trinv!r}")
    if not math.isclose(float(rec["min_eig_index"]), lmin, rel_tol=RTOL, abs_tol=EIG_ATOL * lmax):
        problems.append(f"min_eig_index {rec['min_eig_index']} != {lmin!r}")
    return problems


def read_records(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def subset_objectives(rows: np.ndarray, p: int, criterion: str) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Objective of every p-subset of ``rows`` (1-based subsets, lexicographic order)."""
    subsets = list(combinations(range(1, rows.shape[0] + 1), p))
    stacked = rows[np.array(subsets) - 1]
    r = rows.shape[1]
    if p <= r:
        gram = stacked @ stacked.transpose(0, 2, 1)
    else:
        gram = stacked.transpose(0, 2, 1) @ stacked
    w = np.linalg.eigvalsh((gram + gram.transpose(0, 2, 1)) / 2.0)
    if criterion == "d":
        return subsets, np.prod(w, axis=1)
    if criterion == "e":
        return subsets, w[:, 0]
    return subsets, np.sum(1.0 / w, axis=1)


def brute_problems(rows: np.ndarray, p: int, criterion: str, indices: list[int]) -> list[str]:
    """Problems with a brute-force answer: invalid, or not optimal within ``RTOL``."""
    problems = index_problems(indices, p, rows.shape[0])
    if problems:
        return problems
    subsets, values = subset_objectives(rows, p, criterion)
    got = float(values[subsets.index(tuple(sorted(indices)))])
    best = float(values.min() if criterion == "a" else values.max())
    worse = got > best if criterion == "a" else got < best
    if worse and not math.isclose(got, best, rel_tol=RTOL):
        problems.append(f"objective {got!r} is not the optimum {best!r}")
    return problems


def a_eps_optimum(rows: np.ndarray, p: int, eps: float) -> float:
    """Best value of ``-tr[(C^T C + eps I)^-1] + r/eps`` over the p-subsets of ``rows``."""
    subsets = np.array(list(combinations(range(rows.shape[0]), p)))
    stacked = rows[subsets]
    r = rows.shape[1]
    m = stacked.transpose(0, 2, 1) @ stacked + eps * np.eye(r)
    w = np.linalg.eigvalsh((m + m.transpose(0, 2, 1)) / 2.0)
    return float(np.max(-np.sum(1.0 / w, axis=1) + r / eps))


#: Relative slack within which a greedy pick counts as tied with the best.
STEP_RTOL = 1e-6

GREEDY_CRITERION = {"dg": "d", "ag": "a", "eg": "e"}


def step_scores(cand: np.ndarray, chosen: list[int], criterion: str) -> np.ndarray:
    """Score of adding each candidate to ``chosen`` (0-based); higher is better.

    The score orders candidates as the criterion orders the regime Gram of
    the enlarged set: its determinant (d), minus its trace of inverse (a),
    or its smallest eigenvalue (e).  d and a use the bordering and rank-one
    identities, e a batched eigensolve.  Chosen rows score ``-inf``.
    """
    n, r = cand.shape
    k = len(chosen) + 1
    c = cand[chosen]
    norms = np.einsum("ij,ij->i", cand, cand)
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "e":
            rows = np.concatenate([np.broadcast_to(c, (n, k - 1, r)), cand[:, None, :]], axis=1)
            gram = rows @ rows.transpose(0, 2, 1) if k <= r else rows.transpose(0, 2, 1) @ rows
            score = np.linalg.eigvalsh(gram)[:, 0]
        elif k == 1:
            score = norms if criterion == "d" else -1.0 / norms
        elif k <= r:  # Schur complement of the bordered row Gram
            y = np.linalg.solve(c @ c.T, c @ cand.T).T
            schur = norms - np.einsum("ij,ij->i", cand @ c.T, y)
            score = schur if criterion == "d" else -(1.0 + np.einsum("ij,ij->i", y, y)) / schur
        else:  # rank-one update of C^T C
            y = np.linalg.solve(c.T @ c, cand.T).T
            q = np.einsum("ij,ij->i", cand, y)
            score = 1.0 + q if criterion == "d" else np.einsum("ij,ij->i", y, y) / (1.0 + q)
    score = np.where(np.isfinite(score), score, -np.inf)
    score[chosen] = -np.inf
    return score


class GreedyOracle:
    """Checks that every step of a greedy selection picks a best candidate.

    Verified prefixes are remembered, so the p = 1..P ladder of one matrix
    costs P steps, and repeated units cost nothing.
    """

    def __init__(self, cand: np.ndarray):
        self.cand = cand
        self.verified: set[tuple] = set()

    def problems(self, indices: list[int], criterion: str) -> list[str]:
        for k in range(len(indices)):
            prefix = (criterion, *indices[: k + 1])
            if prefix in self.verified:
                continue
            chosen = [i - 1 for i in indices[:k]]
            score = step_scores(self.cand, chosen, criterion)
            best, got = float(score.max()), float(score[indices[k] - 1])
            if not got >= best - STEP_RTOL * abs(best):
                return [f"step {k + 1} picks {indices[k]} scoring {got!r}, best is {best!r}"]
            self.verified.add(prefix)
        return []
