"""3x3 complex matrix algebra: eigen/Jordan structure, multiplicative Dunford
decomposition, the symmetric-square embedding of SL2, and the membership
predicates used by the classification logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndexError,
    DomainError,
    IllConditionedError,
    NotUnimodularError,
)

_COND_CAP = 1e12

__all__ = [
    "JordanForm",
    "DunfordPair",
    "eig3",
    "dunford",
    "semisimple_apply",
    "rho",
    "psl2_relation_residual",
    "psl2_eigenvalue_check",
    "in_perm_cstar",
    "minor2",
]


@dataclass(frozen=True)
class JordanForm:
    """M = transform @ jordan @ inv(transform) with jordan in Jordan normal form.

    eigenvalues are listed with multiplicity in block order; block_sizes gives
    the Jordan block sizes in the same order.
    """

    eigenvalues: np.ndarray
    transform: np.ndarray
    jordan: np.ndarray
    block_sizes: tuple[int, ...]

    @property
    def diagonalizable(self) -> bool:
        return all(s == 1 for s in self.block_sizes)


@dataclass(frozen=True)
class DunfordPair:
    """Multiplicative Dunford decomposition M = D @ U.

    D is semi-simple, U unipotent ((U-I)^3 = 0), and D, U commute.
    """

    D: np.ndarray
    U: np.ndarray


def _nullspace(A: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of A."""
    _, s, vh = np.linalg.svd(A)
    cutoff = rtol * max(s[0], 1e-300)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose values coincide within tol."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    groups: list[list[int]] = []
    for i, w in enumerate(values):
        for g in groups:
            if abs(w - np.mean(values[g])) < tol * scale:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def eig3(M: np.ndarray, tol: float = 1e-8) -> JordanForm:
    """Eigenvalues with multiplicity and a (generalized) eigenvector transform.

    Eigenvalues closer than tol * max|lambda| are treated as equal; companion-style
    defective blocks are resolved into Jordan chains via SVD null spaces.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise DomainError("eig3 expects a 3x3 matrix")
    w = np.linalg.eigvals(M)
    groups = _cluster(w, tol)
    norm_m = max(float(np.linalg.norm(M)), 1.0)
    if len(groups) == 1:
        lam = complex(np.mean(w))
        if np.linalg.norm(M - lam * np.eye(3)) <= tol * norm_m:
            # scalar matrix: the nullspace machinery has nothing to resolve
            return JordanForm(
                eigenvalues=np.array([lam, lam, lam]),
                transform=np.eye(3, dtype=complex),
                jordan=lam * np.eye(3, dtype=complex),
                block_sizes=(1, 1, 1),
            )

    eigs: list[complex] = []
    cols: list[np.ndarray] = []
    sizes: list[int] = []
    for g in groups:
        lam = complex(np.mean(w[g]))
        m = len(g)
        A = M - lam * np.eye(3)
        if m == 1:
            v = _nullspace(A, tol)
            if v.shape[1] == 0:
                # fall back to the most singular direction
                v = np.linalg.svd(A)[2][-1:].conj().T
            cols.append(v[:, 0])
            eigs.append(lam)
            sizes.append(1)
            continue
        K1 = _nullspace(A, tol * norm_m)
        g1 = K1.shape[1]
        if g1 >= m:
            for j in range(m):
                cols.append(K1[:, j])
                eigs.append(lam)
                sizes.append(1)
        elif m == 2 and g1 == 1:
            K2 = _nullspace(A @ A, (tol * norm_m) ** 1)
            # pick v2 in ker A^2 outside ker A
            proj = K2 - K1 @ (K1.conj().T @ K2)
            j = int(np.argmax(np.linalg.norm(proj, axis=0)))
            v2 = proj[:, j]
            v2 /= np.linalg.norm(v2)
            v1 = A @ v2
            c = np.linalg.norm(v1)
            cols.extend([v1 / c, v2 / c])
            eigs.extend([lam, lam])
            sizes.append(2)
        elif m == 3 and g1 == 1:
            A2 = A @ A
            # v3 maximizing |A^2 v3| heads a length-3 chain
            v3 = np.linalg.svd(A2)[2][0].conj()
            v2 = A @ v3
            v1 = A @ v2
            c = np.linalg.norm(v1)
            cols.extend([v1 / c, v2 / c, v3 / c])
            eigs.extend([lam, lam, lam])
            sizes.append(3)
        elif m == 3 and g1 == 2:
            K2 = _nullspace(A @ A, tol * norm_m)
            proj = K2 - K1 @ (K1.conj().T @ K2)
            j = int(np.argmax(np.linalg.norm(proj, axis=0)))
            v2 = proj[:, j]
            v2 /= np.linalg.norm(v2)
            v1 = A @ v2
            c = np.linalg.norm(v1)
            # independent plain eigenvector
            rest = K1 - np.outer(v1, v1.conj() @ K1) / (np.linalg.norm(v1) ** 2)
            jj = int(np.argmax(np.linalg.norm(rest, axis=0)))
            wvec = rest[:, jj]
            wvec /= np.linalg.norm(wvec)
            cols.extend([v1 / c, v2 / c, wvec])
            eigs.extend([lam, lam, lam])
            sizes.extend([2, 1])
            continue
        else:  # m == 3, g1 == 3 handled above; defensive
            for j in range(m):
                cols.append(K1[:, j % max(g1, 1)])
                eigs.append(lam)
                sizes.append(1)

    P = np.column_stack(cols)
    if np.linalg.cond(P) > _COND_CAP:
        raise IllConditionedError("generalized eigenvector matrix is numerically singular")
    J = np.zeros((3, 3), dtype=complex)
    pos = 0
    out_sizes: list[int] = []
    for s in sizes:
        for r in range(s):
            J[pos + r, pos + r] = eigs[pos + r]
            if r > 0:
                J[pos + r - 1, pos + r] = 1.0
        out_sizes.append(s)
        pos += s
    return JordanForm(
        eigenvalues=np.array(eigs),
        transform=P,
        jordan=J,
        block_sizes=tuple(out_sizes),
    )


def dunford(M: np.ndarray, tol: float = 1e-8) -> DunfordPair:
    """Multiplicative Dunford decomposition M = D U (D semi-simple, U unipotent)."""
    M = np.asarray(M, dtype=complex)
    jf = eig3(M, tol)
    if np.any(np.abs(jf.eigenvalues) < 1e-14):
        raise DomainError("dunford requires an invertible matrix")
    if jf.diagonalizable:
        return DunfordPair(D=M.copy(), U=np.eye(3, dtype=complex))
    P = jf.transform
    Pinv = np.linalg.inv(P)
    Lam = np.diag(jf.eigenvalues)
    D = P @ Lam @ Pinv
    # inv(Lam) @ J is exactly unit upper triangular, so U is exactly unipotent
    U = P @ (np.diag(1.0 / jf.eigenvalues) @ jf.jordan) @ Pinv
    return DunfordPair(D=D, U=U)


def semisimple_apply(D: np.ndarray, f) -> np.ndarray:
    """f(D) for a semi-simple 3x3 D: f applied to each eigenvalue, taken off
    the diagonal when D is diagonal and in the eig3 eigenbasis otherwise."""
    D = np.asarray(D, dtype=complex)
    off = D - np.diag(np.diag(D))
    if np.max(np.abs(off)) < 1e-13 * max(np.max(np.abs(D)), 1e-300):
        return np.diag([f(lam) for lam in np.diag(D)])
    jf = eig3(D)
    S = jf.transform
    return S @ np.diag([f(lam) for lam in jf.eigenvalues]) @ np.linalg.inv(S)


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


def in_perm_cstar(
    M: np.ndarray, tol: float = 1e-10
) -> tuple[bool, tuple[int, ...] | None, tuple[complex, ...] | None]:
    """Is M a permutation matrix scaled by nonzero diagonal factors?

    Returns (verdict, permutation, scales) with permutation[i] = column of the
    single nonzero entry in row i.
    """
    M = np.asarray(M, dtype=complex)
    scale = float(np.max(np.abs(M)))
    if scale == 0.0:
        return False, None, None
    perm = []
    scales = []
    for i in range(3):
        row = np.abs(M[i])
        j = int(np.argmax(row))
        others = [row[k] for k in range(3) if k != j]
        if row[j] <= tol * scale or max(others) > tol * scale:
            return False, None, None
        perm.append(j)
        scales.append(complex(M[i, j]))
    if len(set(perm)) != 3:
        return False, None, None
    return True, tuple(perm), tuple(scales)


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
