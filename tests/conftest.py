import numpy as np
import pytest

from sensorsel import CandidateMatrix, counterexample_matrix, data


@pytest.fixture
def cx() -> CandidateMatrix:
    """The embedded 6x3 counterexample candidate matrix."""
    return counterexample_matrix()


def gaussian_candidates(n: int, r: int, seed: int) -> CandidateMatrix:
    """Fixed-seed Gaussian candidate matrix used across the suite."""
    return CandidateMatrix(np.random.default_rng(seed).standard_normal((n, r)))


def tiny_row_candidates() -> CandidateMatrix:
    """4 x 3 rows whose row 3 adds its own direction but is tiny next to the
    others, below the greedy skip rule's floor; rows 1 and 2 repeat."""
    return CandidateMatrix(
        np.array(
            [
                [0.30, -0.53, -0.30],
                [0.30, -0.53, -0.30],
                [-2.7e-7, -8.6e-8, -4.0e-8],
                [-0.29, -2.35, -0.67],
            ]
        )
    )


def char_cubic_min_root(m: np.ndarray) -> float:
    """Smallest root of the characteristic polynomial of a symmetric 3x3 matrix.

    Independent of the eigensolver: builds the cubic coefficients from the
    trace, the principal 2x2 minors, and the determinant, then calls
    np.roots on the companion polynomial.
    """
    assert m.shape == (3, 3)
    c2 = -np.trace(m)
    minors = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            minors += m[a, a] * m[b, b] - m[a, b] * m[b, a]
    c0 = -float(np.linalg.det(m))
    roots = np.roots([1.0, c2, minors, c0])
    return float(np.min(np.real(roots)))


def assert_pod_close(pod, ref):
    """pod_truncate's rounding-level contract against ``ref``: each sigma_j, and each
    mode scaled by sigma_j, within 1e-12 sigma_1."""
    tol = 1e-12 * ref.singular_values[0]
    np.testing.assert_allclose(pod.singular_values, ref.singular_values, rtol=0, atol=tol)
    np.testing.assert_allclose(
        pod.modes * pod.singular_values, ref.modes * ref.singular_values, rtol=0, atol=tol
    )


@pytest.fixture
def lanczos_normals(monkeypatch):
    """The normal matrices whose ARPACK operators are built while the test runs.
    Each operator must multiply by its matrix times the power of two that puts
    the largest diagonal entry in [1/2, 1)."""
    normals = []
    unit_operator = data._unit_operator

    def recording(normal, top):
        op = unit_operator(normal, top)
        i = np.argmax(np.diagonal(normal))
        scaled = op.matvec(np.eye(len(normal))[i])[i]
        assert 0.5 <= scaled < 1.0
        assert np.frexp(scaled / normal[i, i])[0] == 0.5  # a power of two
        normals.append(normal)
        return op

    monkeypatch.setattr(data, "_unit_operator", recording)
    return normals
