"""The symmetric-square embedding, the PSL2 predicates and 2x2 minors."""

import numpy as np
import pytest

from qgalois import (
    BadIndexError,
    NotUnimodularError,
    minor2,
    psl2_eigenvalue_check,
    psl2_relation_residual,
    rho,
)


def test_rho_is_homomorphism(rng):
    for _ in range(50):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A /= np.sqrt(np.linalg.det(A))
        B /= np.sqrt(np.linalg.det(B))
        R = rho(A) @ rho(B) - rho(A @ B)
        assert np.max(np.abs(R)) < 1e-10 * np.linalg.norm(rho(A @ B))


def test_rho_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError):
        rho(np.array([[2.0, 0], [0, 1.0]]))


def test_psl2_relation_and_eigenvalues(rng):
    A = np.array([[1.3, 0.4], [0.2, (1 + 0.4 * 0.2) / 1.3]])
    R = rho(A)
    assert psl2_relation_residual(R) < 1e-12
    assert psl2_eigenvalue_check(R)
    # a generic matrix violates both
    M = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10.0]])
    assert psl2_relation_residual(M) > 1e-3
    assert not psl2_eigenvalue_check(M)


def test_minor2_values_and_guards():
    M = np.arange(9, dtype=float).reshape(3, 3) + 1
    assert minor2(M, (1, 2), (1, 2)) == pytest.approx(1 * 5 - 2 * 4)
    assert minor2(M, (2, 3), (1, 3)) == pytest.approx(4 * 9 - 6 * 7)
    with pytest.raises(BadIndexError):
        minor2(M, (1, 1), (1, 2))
    with pytest.raises(BadIndexError):
        minor2(M, (0, 1), (1, 2))
