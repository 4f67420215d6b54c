"""3x3 complex matrix algebra: the symmetric-square embedding of SL2, the
PSL2 membership predicates used by the classification logic, and 2x2 minors.
"""

from __future__ import annotations

import numpy as np

from .errors import BadIndexError, DomainError, NotUnimodularError

__all__ = [
    "rho",
    "psl2_relation_residual",
    "psl2_eigenvalue_check",
    "minor2",
]


def rho(N: np.ndarray) -> np.ndarray:
    """Symmetric square of the standard SL2 representation.

    [[a,b],[c,d]] with ad - bc = 1 maps to
    [[a^2, 2ab, b^2], [ac, ad+bc, bd], [c^2, 2cd, d^2]].
    """
    N = np.asarray(N, dtype=complex)
    if N.shape != (2, 2):
        raise DomainError("rho expects a 2x2 matrix")
    a, b = N[0]
    c, d = N[1]
    det = a * d - b * c
    if abs(det - 1.0) > 1e-10:
        raise NotUnimodularError(f"det = {det}, expected 1")
    return np.array(
        [
            [a * a, 2 * a * b, b * b],
            [a * c, a * d + b * c, b * d],
            [c * c, 2 * c * d, d * d],
        ],
        dtype=complex,
    )


def psl2_relation_residual(M: np.ndarray) -> float:
    """Entry relation satisfied by every image of rho:
    m12^2 = 4 m11 m13 (and symmetrically m32^2 = 4 m31 m33).

    Returns the larger violation, normalized by ||M||_F^2.
    """
    M = np.asarray(M, dtype=complex)
    nrm = float(np.linalg.norm(M)) ** 2
    if nrm == 0.0:
        return 0.0
    top = abs(M[0, 1] ** 2 - 4.0 * M[0, 0] * M[0, 2])
    bot = abs(M[2, 1] ** 2 - 4.0 * M[2, 0] * M[2, 2])
    return max(top, bot) / nrm


def psl2_eigenvalue_check(M: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff the eigenvalues of M are of the form {1, alpha, 1/alpha}.

    The eigenvalue closest to 1 is matched to 1; the remaining pair must
    multiply to 1.
    """
    M = np.asarray(M, dtype=complex)
    w = np.linalg.eigvals(M)
    if np.any(np.abs(w) < 1e-14):
        raise DomainError("psl2_eigenvalue_check requires an invertible matrix")
    scale = max(float(np.max(np.abs(w))), 1.0)
    i1 = int(np.argmin(np.abs(w - 1.0)))
    rest = [w[j] for j in range(3) if j != i1]
    return abs(w[i1] - 1.0) <= tol * scale and abs(rest[0] * rest[1] - 1.0) <= tol * scale


def minor2(M: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> complex:
    """2x2 minor of M for 1-based row/column index pairs (matching the usual
    mathematical indexing of the connection-matrix identities)."""
    M = np.asarray(M, dtype=complex)
    for pair in (rows, cols):
        if len(pair) != 2 or pair[0] == pair[1] or not all(i in (1, 2, 3) for i in pair):
            raise BadIndexError(f"bad index pair {pair}")
    (i1, i2), (j1, j2) = rows, cols
    return complex(
        M[i1 - 1, j1 - 1] * M[i2 - 1, j2 - 1] - M[i1 - 1, j2 - 1] * M[i2 - 1, j1 - 1]
    )
