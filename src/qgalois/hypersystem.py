"""The order-3 q-hypergeometric system and its local fundamental solutions.

A parameter set (a1,a2,a3; b2,b3) with the implicit normalization b1 = q
defines the companion system Phi(qz) = A(z) Phi(z).  This module builds A,
decides which exponent ratios lie on q^Z (the SpiralPattern that local
solutions, the closed forms' genericity and the case tag all read), and
builds the local solutions Y = F e_J at 0 and at infinity.

F at 0 is one 3phi2 series per column (_f_series); F at infinity is a fixed
transform of F at 0 of the dual equation (_f_infinity).  For b2 = b3 = q, F at
0 is the limit of F times one explicit frame multiplier (_kmult) as the
perturbation eps of b2, b3 goes to 0, taken as the mean of five frames on a
circle around eps = 0 and built once (_f_log_zero); case iv is its own dual,
so that one limit also gives its F at infinity, times a constant matrix.
fmatrix_at continues F beyond the series radius by the functional equation.

Every local exponent matrix is J = diag(exponents) U, read off the
parameters: diag(1, q/b2, q/b3) or the unipotent J_q at 0, diag(1/a_i) or
(1/a) (a J_infinity) at infinity.  LocalData stores J, the exponents and the
unipotent part U, and inverts J once, when fmatrix_at first continues F
toward 0 on the infinity side; e_J is then e_D U^(l_q(z)), with e_D from one
q-character call over the exponents and every point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .context import QContext
from .errors import (
    DomainError,
    ExtrapolationDivergedError,
    PoleChainError,
    PoleError,
    ResonantError,
)
from .qseries import lq, qcharacter, qhyper_series
from .spiral import SpiralVerdict, decompose, in_q_spiral

_Gauge = Callable[[complex], np.ndarray]  # z -> the 3x3 gauge matrix F(z)

__all__ = [
    "HyperParams",
    "LocalData",
    "SpiralPattern",
    "system_matrix",
    "spiral_pattern",
    "local_solution_zero",
    "local_solution_infinity",
    "local_solution_zero_log",
    "local_solution_infinity_log",
    "e_matrix",
    "fmatrix_at",
    "gauge_residual",
]


@dataclass(frozen=True)
class HyperParams:
    """Parameters (a1,a2,a3; b2,b3) of the order-3 system; b1 = q implicitly.

    `_memo` holds data derived from the parameters, keyed by QContext; the
    connection layer fills it, so reusing one instance reuses that data.
    """

    a: tuple[complex, complex, complex]
    b2: complex
    b3: complex
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.a) != 3:
            raise DomainError("need exactly three a-parameters")
        if not all(v != 0 and cmath.isfinite(v) for v in (*self.a, self.b2, self.b3)):
            raise DomainError("parameters must be finite and nonzero")

    @classmethod
    def from_exponents(
        cls,
        ctx: QContext,
        alpha: Sequence[float],
        beta: Sequence[float],
    ) -> "HyperParams":
        """Build q-real parameters a_i = q^alpha_i, b_j = q^beta_j (beta = (beta2, beta3))."""
        if len(alpha) != 3 or len(beta) != 2:
            raise DomainError("need three alpha exponents and two beta exponents")
        a = tuple(ctx.qpow(x) for x in alpha)
        return cls(a=a, b2=ctx.qpow(beta[0]), b3=ctx.qpow(beta[1]))

    def b(self, ctx: QContext) -> tuple[complex, complex, complex]:
        """The full b-triple (q, b2, b3)."""
        return (ctx.q, self.b2, self.b3)

    def exponents(self, ctx: QContext) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Spiral exponents (alpha_1..3), (beta_1..3) with beta_1 = 1."""
        alphas = tuple(decompose(v, ctx).omega for v in self.a)
        betas = tuple(decompose(v, ctx).omega for v in self.b(ctx))
        return alphas, betas

    def units(self, ctx: QContext) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """Unit-circle factors (u_1..3), (v_1..3) of the parameters."""
        us = tuple(decompose(v, ctx).u for v in self.a)
        vs = tuple(decompose(v, ctx).u for v in self.b(ctx))
        return us, vs

    def is_q_real(self, ctx: QContext) -> bool:
        """True iff every parameter lies on the continuous spiral q^R."""
        us, vs = self.units(ctx)
        return all(abs(u - 1.0) < ctx.eps_spiral for u in us + vs)


class SpiralPattern(NamedTuple):
    """The q^Z membership verdicts of the six exponent ratios of an equation:
    a1/a2, a1/a3, a2/a3 at infinity and b2/q, b3/q, b2/b3 at 0."""

    infinity: tuple[SpiralVerdict, SpiralVerdict, SpiralVerdict]
    zero: tuple[SpiralVerdict, SpiralVerdict, SpiralVerdict]

    def merged(self, side: str) -> bool:
        """Some exponent ratio on that side is 1 (k = 0): a repeated exponent
        of a companion matrix, hence a logarithmic (Jordan) block."""
        return any(v.member and v.k == 0 for v in getattr(self, side))

    def resonant(self, side: str) -> bool:
        """Some exponent ratio on that side is q^k with k != 0."""
        return any(v.member and v.k != 0 for v in getattr(self, side))

    def full_block(self, side: str) -> bool:
        """All exponents on that side are equal (k = 0): b2 = b3 = q at 0,
        a1 = a2 = a3 at infinity.  These are the only logarithmic patterns
        the limit constructions build."""
        verdicts = self.zero[:2] if side == "zero" else self.infinity
        return all(v.member and v.k == 0 for v in verdicts)


@dataclass(frozen=True)
class LocalData:
    """A local fundamental solution Y = F e_J at one singular point.

    F is the series evaluator for the gauge matrix, valid for |z| <= radius
    at 0 and |z| >= radius at infinity; beyond that use fmatrix_at, which
    continues it with the functional equation.
    """

    side: str  # "zero" | "infinity"
    J: np.ndarray  # = diag(exponents) U
    U: np.ndarray  # unipotent part, I unless logarithmic
    exponents: tuple[complex, ...]
    F: _Gauge = field(repr=False)
    radius: float

    @property
    def logarithmic(self) -> bool:
        return bool((self.U != np.eye(3)).any())

    @functools.cached_property
    def J_inv(self) -> np.ndarray:
        """J^{-1}, for continuing F toward 0 on the infinity side; computed on
        first use."""
        return np.linalg.inv(self.J)


def _denominator(p: HyperParams, z: complex, ctx: QContext) -> complex:
    a1, a2, a3 = p.a
    return p.b2 * p.b3 / ctx.q ** 2 - z * a1 * a2 * a3


def system_matrix(p: HyperParams, z: complex, ctx: QContext) -> np.ndarray:
    """Companion matrix A(z) with Phi(qz) = A(z) Phi(z), at any finite z."""
    if not cmath.isfinite(z):
        raise DomainError(f"system matrix needs a finite point, got z = {z}")
    q = ctx.q
    a1, a2, a3 = p.a
    b2, b3 = p.b2, p.b3
    den = _denominator(p, z, ctx)
    scale = max(abs(b2 * b3 / q ** 2), abs(z * a1 * a2 * a3), 1e-300)
    if abs(den) < 1e-12 * scale:
        raise PoleError(f"coefficient pole at z = {z}")
    lam = (1.0 - z) / den
    mu = (z * (a1 + a2 + a3) - (1.0 + b2 / q + b3 / q)) / den
    delta = (b2 * b3 / q ** 2 + b2 / q + b3 / q - z * (a1 * a2 + a2 * a3 + a1 * a3)) / den
    return np.array(
        [[0, 1, 0], [0, 0, 1], [lam, mu, delta]],
        dtype=complex,
    )


def spiral_pattern(p: HyperParams, ctx: QContext) -> SpiralPattern:
    """The exponents are {1/a1, 1/a2, 1/a3} at infinity and {1, q/b2, q/b3}
    at 0; their pairwise ratios, up to inversion, are tested against q^Z."""
    a1, a2, a3 = p.a
    q, b2, b3 = ctx.q, p.b2, p.b3
    return SpiralPattern(
        infinity=tuple(in_q_spiral(c, ctx) for c in (a1 / a2, a1 / a3, a2 / a3)),
        zero=tuple(in_q_spiral(c, ctx) for c in (b2 / q, b3 / q, b2 / b3)),
    )


def _series_ctx(ctx: QContext) -> QContext:
    """Tighten the truncation tolerance of every gauge series to at most 1e-14,
    the generic ones and the perturbed ones of the logarithmic limits alike."""
    if ctx.eps_trunc <= 1e-14:
        return ctx
    return replace(ctx, eps_trunc=1e-14)


def _f_series(p: HyperParams, ctx: QContext) -> _Gauge:
    """The gauge matrix F at 0: entry (r, k) is s_k^r 3phi2(s_k a; s_k b; q^r z)
    with s_k = q/b_k, the column parameters built once here."""
    q = ctx.q
    b = p.b(ctx)
    sctx = _series_ctx(ctx)
    columns = [
        (tuple(s * ai for ai in p.a), tuple(s * bk for bk in b), s)
        for s in (q / bj for bj in b)
    ]

    def F(z: complex) -> np.ndarray:
        out = np.empty((3, 3), dtype=complex)
        for k, (num, den, pre) in enumerate(columns):
            for r in range(3):
                out[r, k] = pre ** r * qhyper_series(num, den, q ** r * z, sctx)[0]
        return out

    return F


def _dual(p: HyperParams, ctx: QContext) -> HyperParams:
    """The dual equation: z -> c0/(q z) with c0 = b2 b3/(a1 a2 a3), gauged by
    a1, gives a' = (a1, q a1/b2, q a1/b3) and b' = (q, q a1/a2, q a1/a3)."""
    q = ctx.q
    a1, a2, a3 = p.a
    return HyperParams(a=(a1, q * a1 / p.b2, q * a1 / p.b3), b2=q * a1 / a2, b3=q * a1 / a3)


def _f_infinity(p: HyperParams, F_dual: _Gauge, ctx: QContext) -> _Gauge:
    """F at infinity up to column scalings: G(z) = diag(a1^2, a1, 1) R F'(c0/(q z))
    with F' the dual's F at 0 and R reversing the rows.  Times diag(a_k^-2),
    entry (r, k) is a_k^-r 3phi2(a_k q/b; a_k q/a; q^(1-r) c0/z)."""
    a1, a2, a3 = p.a
    c0 = p.b2 * p.b3 / (a1 * a2 * a3)
    q = ctx.q
    rows = np.array([a1 * a1, a1, 1.0], dtype=complex)[:, None]

    def G(z: complex) -> np.ndarray:
        return rows * F_dual(c0 / (q * z))[::-1]

    return G


def local_solution_zero(p: HyperParams, ctx: QContext) -> LocalData:
    """Generic local solution at 0 (non-resonant, non-logarithmic)."""
    pattern = spiral_pattern(p, ctx)
    if pattern.resonant("zero"):
        raise ResonantError("system is resonant at 0; shift parameters first")
    if pattern.merged("zero"):
        raise ResonantError(
            "logarithmic at 0; use local_solution_zero_log for b2 = b3 = q"
        )
    q = ctx.q
    exps = (1.0 + 0j, q / p.b2, q / p.b3)
    J = np.diag(np.array(exps, dtype=complex))
    return LocalData(
        side="zero",
        J=J,
        U=np.eye(3, dtype=complex),
        exponents=exps,
        F=_f_series(p, ctx),
        radius=0.5,
    )


def local_solution_infinity(p: HyperParams, ctx: QContext) -> LocalData:
    """Generic local solution at infinity (non-resonant, non-logarithmic)."""
    pattern = spiral_pattern(p, ctx)
    if pattern.resonant("infinity"):
        raise ResonantError("system is resonant at infinity; shift parameters first")
    if pattern.merged("infinity"):
        raise ResonantError(
            "logarithmic at infinity; use local_solution_infinity_log for a = (a,a,a)"
        )
    a1, a2, a3 = p.a
    exps = tuple(1.0 / v for v in p.a)
    J = np.diag(np.array(exps, dtype=complex))
    c0 = p.b2 * p.b3 / (a1 * a2 * a3)
    radius = 2.0 * abs(c0 / ctx.q)  # |w| <= 0.5 in the dual's w = c0/(q z)
    G = _f_infinity(p, _f_series(_dual(p, ctx), ctx), ctx)
    cols = 1.0 / np.array(p.a, dtype=complex) ** 2
    return LocalData(
        side="infinity",
        J=J,
        U=np.eye(3, dtype=complex),
        exponents=exps,
        F=lambda z: G(z) * cols,
        radius=radius,
    )


def _unipotent_power(U: np.ndarray, ell) -> np.ndarray:
    """U^ell = I + ell N + ell (ell - 1)/2 N^2 for a unipotent U = I + N
    (N^3 = 0), at a complex ell or over an array, shape ell.shape + (3, 3).
    Since U^ell = exp(ell log U), U^(-ell) is its exact inverse."""
    ell = np.asarray(ell, dtype=complex)[..., None, None]
    N = U - np.eye(3, dtype=complex)
    return np.eye(3, dtype=complex) + ell * N + (ell * (ell - 1.0) / 2.0) * (N @ N)


def _check_point(z) -> None:
    """Evaluation points, a complex or an array, must be finite and nonzero:
    0 and infinity are the singular points of the system.  A scalar skips
    numpy: the check runs several times per point of every evaluation."""
    if isinstance(z, (complex, float, int)):
        ok = z != 0 and cmath.isfinite(z)
    else:
        zs = np.asarray(z, dtype=complex)
        ok = zs.all() and np.isfinite(zs).all()
    if not ok:
        raise DomainError("evaluation points must be finite and nonzero")


def e_matrix(local: LocalData, z, ctx: QContext) -> np.ndarray:
    """Character matrix e_J(z) = e_D(z) U^(l_q(z)) with e_J(qz) = J e_J(z),
    for the local exponent matrix J = diag(exponents) U of a local solution,
    at a complex z or over an array, shape z.shape + (3, 3).

    e_D holds the q-characters of the exponents, from one qcharacter call
    over z and the exponents (via 1/z and 1/lambda on the infinity side).
    The q-logarithm polynomial of the unipotent part satisfies the required
    shift law on both sides; l_q is evaluated only when U != I.
    """
    _check_point(z)
    lam = np.array(local.exponents, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if local.side == "zero":
        eD = qcharacter(lam, z[..., None], ctx)
    else:
        eD = qcharacter(1.0 / lam, 1.0 / z[..., None], ctx)
    if not local.logarithmic:
        return eD[..., :, None] * np.eye(3, dtype=complex)
    return eD[..., :, None] * _unipotent_power(local.U, lq(z, ctx))


def fmatrix_at(local: LocalData, p: HyperParams, z: complex, ctx: QContext) -> np.ndarray:
    """Gauge matrix F at z, continued with F(qz) J = A(z) F(z) beyond the
    radius: along the q-shift chain from z q^m at 0, from z q^-m at infinity,
    applying the exponent matrix J once per step.  F at 0 is the constant
    term of its series; every other z must be finite and nonzero."""
    absq = abs(ctx.q)
    if local.side == "zero":
        if abs(z) <= local.radius:
            return local.F(z)
        _check_point(z)
        m = max(1, math.ceil(math.log(abs(z) / local.radius) / math.log(1.0 / absq)))
        val = local.F(z * ctx.q ** m)
        for j in range(m - 1, -1, -1):
            point = z * ctx.q ** j
            if abs(point - 1.0) < 1e-8:
                raise PoleChainError(f"chain point {point} hits the singular point 1")
            A = system_matrix(p, point, ctx)
            val = np.linalg.solve(A, val) @ local.J
        return val
    _check_point(z)
    if abs(z) >= local.radius:
        return local.F(z)
    m = max(1, math.ceil(math.log(local.radius / abs(z)) / math.log(1.0 / absq)))
    val = local.F(z / ctx.q ** m)
    for j in range(m - 1, -1, -1):
        prev = z / ctx.q ** (j + 1)
        A = system_matrix(p, prev, ctx)
        val = A @ val @ local.J_inv
    return val


def gauge_residual(local: LocalData, p: HyperParams, z: complex, ctx: QContext) -> float:
    """Relative residual of F(qz) J - A(z) F(z) at one point."""
    Fz = fmatrix_at(local, p, z, ctx)
    Fqz = fmatrix_at(local, p, ctx.q * z, ctx)
    A = system_matrix(p, z, ctx)
    return float(
        np.linalg.norm(Fqz @ local.J - A @ Fz) / max(np.linalg.norm(Fz), 1e-300)
    )


# --- logarithmic degenerations -------------------------------------------------

_CIRCLE = 0.004  # radius of the epsilon-circle, in units of 1 - |q|


def _kmult(r2: complex, r3: complex) -> np.ndarray:
    """Frame multiplier of the logarithmic limit: the explicit form of
    V(1, r2, r3)^{-1} K0 with K0 = [[1,-1,1],[1,0,0],[1,1,0]], V the
    Vandermonde matrix with rows (1,1,1), (1,r2,r3), (1,r2^2,r3^2)."""
    d1 = (r2 - 1.0) * (r3 - 1.0)
    d2 = (r3 - r2) * (r2 - 1.0)
    d3 = (r2 - r3) * (r3 - 1.0)
    return np.array(
        [
            [1.0, (1.0 - r2 * r3) / d1, r2 * r3 / d1],
            [0.0, (r3 - 1.0) / d2, -r3 / d2],
            [0.0, (r2 - 1.0) / d3, -r2 / d3],
        ],
        dtype=complex,
    )


def _perturbed_b(p: HyperParams, eps: complex, ctx: QContext) -> HyperParams:
    # distinct perturbations: the limit multiplier needs b2 != b3
    return HyperParams(a=p.a, b2=ctx.q * (1.0 + eps), b3=ctx.q * (1.0 + 2.0 * eps))


def _f_log_zero(p: HyperParams, ctx: QContext) -> _Gauge:
    """F at 0 for b2 = b3 = q: the eps -> 0 limit of F(a, b(eps); z)
    _kmult(q/b2(eps), q/b3(eps)), as the mean of five frames, built once here,
    at eps = r e^(2 pi i k/5) with r = _CIRCLE (1 - |q|).

    The product is analytic in eps with a removable singularity at 0, so the
    mean over five equispaced points of a circle is its limit up to the
    Taylor terms of order 5, 10, ... (the trapezoidal rule on a circle).  The
    nearest pole of the perturbed denominators is about 1 - |q| away, hence
    the radius; rounding grows only as 1/r^2, through the multipliers."""
    r = _CIRCLE * (1.0 - abs(ctx.q))
    frames = []
    for k in range(5):
        pe = _perturbed_b(p, r * cmath.exp(0.4j * math.pi * k), ctx)
        frames.append((_f_series(pe, ctx), _kmult(ctx.q / pe.b2, ctx.q / pe.b3)))

    def F(z: complex) -> np.ndarray:
        out = sum(F_eps(z) @ M_eps for F_eps, M_eps in frames) / len(frames)
        if not np.all(np.isfinite(out)):
            raise ExtrapolationDivergedError("logarithmic limit diverged")
        return out

    return F


def _check_log_zero_params(pattern: SpiralPattern) -> None:
    for j, v in zip((2, 3), pattern.zero):
        if not (v.member and v.k == 0):
            raise DomainError(f"b{j} must equal q for the logarithmic limit at 0")


def local_solution_zero_log(p: HyperParams, ctx: QContext) -> LocalData:
    """Local solution at 0 for b2 = b3 = q (logarithmic case).

    F is the eps -> 0 limit of F(a, b(eps); z) times the frame multiplier,
    the mean of five frames on a circle around eps = 0 (_f_log_zero); the
    exponent matrix is the unipotent J_q."""
    _check_log_zero_params(spiral_pattern(p, ctx))
    Jq = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)
    return LocalData(
        side="zero",
        J=Jq,
        U=Jq.copy(),
        exponents=(1.0 + 0j, 1.0 + 0j, 1.0 + 0j),
        F=_f_log_zero(p, ctx),
        radius=0.5,
    )


def _check_log_infinity_params(pattern: SpiralPattern) -> None:
    if not pattern.full_block("infinity"):
        raise DomainError("a must be a constant triple for the logarithmic limit at infinity")
    for j, v in zip((2, 3), pattern.zero):
        if not (v.member and v.k == 0):
            raise DomainError(f"b{j} must equal q in the doubly logarithmic case")


def local_solution_infinity_log(p: HyperParams, ctx: QContext) -> LocalData:
    """Local solution at infinity for a = (a,a,a), b = (q,q,q).

    The equation is its own dual, so F = G X with G the transform
    (_f_infinity) of the dual's logarithmic F at 0, the same circle mean of
    five perturbed frames as in local_solution_zero_log (_f_log_zero), and
    X = a^-4 [[1,0,0],[0,-a,a^2],[0,0,a^2]].  X is constant because G and F
    are analytic at infinity with the one exponent 1/a: M = G^-1 F solves
    M(qz) = J1 M J2^-1, which leaves only its constant term G(inf)^-1 F(inf),
    with G(inf) = diag(a^2, a, 1) R K0 and F(inf) = diag(a^-2, a^-3, a^-4)
    K0 diag(1, a, a^2), K0 as in _kmult."""
    _check_log_infinity_params(spiral_pattern(p, ctx))
    a = p.a[0]
    Jinf = np.array([[1.0 / a, 1, 0], [0, 1.0 / a, 1], [0, 0, 1.0 / a]], dtype=complex)
    X = np.array([[1, 0, 0], [0, -a, a * a], [0, 0, a * a]], dtype=complex) / a ** 4
    G = _f_infinity(p, _f_log_zero(_dual(p, ctx), ctx), ctx)
    return LocalData(
        side="infinity",
        J=Jinf,
        # J_inf = (1/a) (a J_inf): U unipotent with a above the diagonal
        U=np.array([[1, a, 0], [0, 1, a], [0, 0, 1]], dtype=complex),
        exponents=(1.0 / a, 1.0 / a, 1.0 / a),
        F=lambda z: G(z) @ X,
        radius=2.0 * abs(p.b2 * p.b3 / (a ** 3 * ctx.q)),
    )
