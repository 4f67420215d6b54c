"""Birkhoff and twisted connection matrices.

The Birkhoff matrix P = Y_infinity^{-1} Y_zero has elliptic entries; its core
F_infinity^{-1} F_zero comes numerically from the local fundamental solutions
or in closed form from the Barnes-Mellin-Watson summation as a matrix of
theta quotients, and connection_eval forms P from either.  The twisted matrix
(formed only in _Equation.twisted) multiplies the core by the spiral-power
weights (1/z)^(-alpha_i) and z^(-beta_j); its determinant and all nine 2x2
minors have closed forms implemented here as independent oracles.

Every q-Pochhammer factor in these closed forms depends on the parameters
only, as do the local solutions.  That data is computed once per equation and
memoized on the HyperParams instance, one record per QContext: the spiral
pattern, the local pair and the genericity verdict read from it, the 31
distinct (x;q)_infinity values, the p_ij matrix built from them, the
determinant prefactor, the z-independent factor of each minor, and the
spiral exponents of a and (q, b2, b3) behind the twist weights.  The
record lives as long as the instance, so reuse one instance across
evaluation points; an equal but distinct instance computes its own.  A
computation that raises stores nothing.

The z-dependent side is evaluated over arrays of z by one implementation on
that record: the twist weights exp(-omega log_q(z) log q) from one log_q call
over z and 1/z, and the core from one theta call over z and the nine
q a_i z / b_j.  The closed-form core, the twisted matrix, the determinant and
minor formulas (all ten at a point from one theta call) and connection_eval
take their thetas and weights from it; a single point is a batch of one.
In the logarithmic cases (b = (q,q,q), possibly a = (a,a,a)), which have
no closed form here, twisted_birkhoff forms the numeric core point by point
and twists the batch with one q-logarithm call over z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import (
    DomainError,
    SingularSolutionError,
    SpiralCollisionError,
)
from .mat3 import _check_index_pairs, minor2
from .hypersystem import (
    HyperParams,
    LocalData,
    SpiralPattern,
    _check_point,
    _unipotent_power,
    e_matrix,
    fmatrix_at,
    local_solution_infinity,
    local_solution_infinity_log,
    local_solution_zero,
    local_solution_zero_log,
    spiral_pattern,
)
from .qseries import lq, qpochhammer_infinite, theta
from .spiral import log_q

__all__ = [
    "ConnectionEval",
    "DetMinorCheck",
    "pochhammer_coefficient",
    "core_closed_form",
    "core_numeric",
    "twisted_birkhoff",
    "det_formula",
    "minor_formula",
    "check_det_minors",
    "connection_eval",
    "local_pair",
]


@dataclass(frozen=True)
class ConnectionEval:
    """Connection matrices at one point, by one or both methods."""

    P: np.ndarray
    P_twisted: np.ndarray
    residual_cross: float | None = None


# The ratios of SpiralPattern, infinity side then zero side; b2/q and b3/q
# lie on q^Z exactly when b2 and b3 do.
_RATIO_LABELS = ("a1/a2", "a1/a3", "a2/a3", "b2", "b3", "b2/b3")


def _others(k: int) -> list[int]:
    """The two 0-based indices other than k."""
    return [m for m in range(3) if m != k]


class _Equation:
    """The z-independent data of one equation at one q, each part computed
    on first use.  A part whose computation raises is not stored, so the
    error is raised again on the next use."""

    def __init__(self, p: HyperParams, ctx: QContext):
        self.p = p
        self.ctx = ctx
        self.minors: dict[tuple, complex] = {}

    @functools.cached_property
    def pattern(self) -> SpiralPattern:
        return spiral_pattern(self.p, self.ctx)

    @functools.cached_property
    def local_pair(self) -> tuple[LocalData, LocalData]:
        p, ctx = self.p, self.ctx
        if self.pattern.merged("zero"):
            loc0 = local_solution_zero_log(p, ctx)
        else:
            loc0 = local_solution_zero(p, ctx)
        if self.pattern.merged("infinity"):
            locinf = local_solution_infinity_log(p, ctx)
        else:
            locinf = local_solution_infinity(p, ctx)
        return loc0, locinf

    @functools.cached_property
    def logarithmic(self) -> bool:
        """The exponents on one side form a full Jordan block, the pattern
        the logarithmic limit constructions build."""
        return self.pattern.full_block("zero") or self.pattern.full_block("infinity")

    @functools.cached_property
    def collision(self) -> str | None:
        """The genericity hypothesis behind the closed forms that fails, if
        any: all a-ratios and b2, b3, b2/b3 must lie off the discrete spiral."""
        verdicts = self.pattern.infinity + self.pattern.zero
        for label, v in zip(_RATIO_LABELS, verdicts):
            if v.member:
                return f"{label} lies on q^Z"
        return None

    @functools.cached_property
    def pochhammer(self) -> tuple[list, list, list, list, complex]:
        """The 31 distinct (x;q)_inf of the closed forms, with 0-based indices:
        qa[j][i] = ((q/b_j) a_i), ba[j][i] = (b_j/a_i), qb[j][k] = ((q/b_j) b_k)
        for k != j, aa[k][i] = (a_k/a_i) for k != i, and qq = (q;q)_inf."""
        ctx = self.ctx
        a, b = self.p.a, self.p.b(ctx)

        def qp(x: complex) -> complex:
            return qpochhammer_infinite(x, ctx)[0]

        s = [ctx.q / bj for bj in b]
        qa = [[qp(s[j] * ai) for ai in a] for j in range(3)]
        ba = [[qp(bj / ai) for ai in a] for bj in b]
        qb = [[qp(s[j] * b[k]) if k != j else None for k in range(3)] for j in range(3)]
        aa = [[qp(a[k] / a[i]) if k != i else None for i in range(3)] for k in range(3)]
        return qa, ba, qb, aa, qp(ctx.q)

    def coefficient_factors(self, i: int, j: int) -> tuple[list, list]:
        """Numerator and denominator factors of p_{i+1,j+1} (0-based i, j)."""
        qa, ba, qb, aa, _ = self.pochhammer
        num = [qa[j][k] for k in _others(i)] + [ba[k][i] for k in _others(j)]
        den = [qb[j][k] for k in _others(j)] + [aa[k][i] for k in _others(i)]
        return num, den

    @functools.cached_property
    def p_matrix(self) -> np.ndarray:
        """p_ij as a 3x3 array, 0-based."""
        return np.array(
            [[pochhammer_coefficient(self.p, i, j, self.ctx) for j in (1, 2, 3)] for i in (1, 2, 3)]
        )

    @functools.cached_property
    def exponents(self) -> tuple[np.ndarray, np.ndarray]:
        """Spiral exponents (alpha_1..3) of a and (beta_1..3) of (q, b2, b3)."""
        return tuple(np.array(v) for v in self.p.exponents(self.ctx))

    @functools.cached_property
    def det_prefactor(self) -> complex:
        q = self.ctx.q
        a1, a2, a3 = self.p.a
        b2, b3 = self.p.b2, self.p.b3
        return (
            q
            * ((1 - q / b2) * (1 - q / b3) * (1 / b2 - 1 / b3))
            / ((1 / a2 - 1 / a1) * (1 / a3 - 1 / a1) * (1 / a2 - 1 / a3))
        )

    def minor_constant(self, rows: tuple[int, int], cols: tuple[int, int]) -> complex:
        """The z-independent factor pref * num * theta(a_i1/a_i2) *
        theta(b_j1/b_j2) / den of the (rows) x (cols) minor."""
        key = (tuple(rows), tuple(cols))
        if key not in self.minors:
            q = self.ctx.q
            a, b = self.p.a, self.p.b(self.ctx)
            qa, ba, _, _, qq = self.pochhammer
            i1, i2 = (k - 1 for k in rows)
            j1, j2 = (k - 1 for k in cols)
            i3, j3 = 3 - i1 - i2, 3 - j1 - j2
            num = qa[j1][i3] * ba[j3][i1] * qa[j2][i3] * ba[j3][i2]
            den = math.prod(
                self.coefficient_factors(i1, j1)[1] + self.coefficient_factors(i2, j2)[1]
            )
            pref = (-q / qq ** 2) * (a[i2] / b[j1])
            thetas = theta(a[i1] / a[i2], self.ctx) * theta(b[j1] / b[j2], self.ctx)
            self.minors[key] = pref * num * thetas / den
        return self.minors[key]

    def weights(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Row weights (1/z)^(-alpha_i) and column weights z^(-beta_j) of the
        twisted matrix at z (a complex or an array), each of shape
        z.shape + (3,).  They are 1/g_{1/z}(a_i) and 1/g_z(b_j), where the
        twisting endomorphism g_w is the continuous endomorphism of C* that
        kills the unit circle and sends q to w: g_w(u q^omega) = w^omega,
        computed as exp(omega log_q(w) log q) from one log_q at w = 1/z and
        w = z."""
        z = np.asarray(z, dtype=complex)
        logs = -self.ctx.log_q * np.asarray(log_q(np.stack((1.0 / z, z)), self.ctx))
        alphas, betas = self.exponents
        return np.exp(logs[0][..., None] * alphas), np.exp(logs[1][..., None] * betas)

    def twisted(self, z, core: np.ndarray) -> np.ndarray:
        """diag((1/z)^(-alpha)) core diag(z^(-beta)), for cores of shape
        z.shape + (3, 3).  In the logarithmic cases, where the character
        matrices are e_J = e_D U^(l_q(z)), the unipotent parts stay explicit:
        diag((1/z)^(-alpha)) U_inf^(-l_q(z)) core U_0^(l_q(z)), from one lq
        call over z (D_0 = I, and U_inf = I in case iii)."""
        rows, cols = self.weights(z)
        if not self.logarithmic:
            return rows[..., :, None] * core * cols[..., None, :]
        loc0, locinf = self.local_pair
        ell = lq(z, self.ctx)
        left = rows[..., :, None] * _unipotent_power(locinf.U, -ell)
        return left @ core @ _unipotent_power(loc0.U, ell)

    def det_and_minors(self, z: complex, pairs) -> tuple[complex, list[complex]]:
        """Closed forms at one z of the twisted determinant and of the minors
        with (rows, cols) in pairs, from one weights and one theta call.

        Each is its z-independent factor, times the weights of its rows and
        columns, times theta_q(q^2 prod(a) z / prod(b)) / theta_q(z) over the
        a's of its rows and the b's of its columns.  The genericity check is
        the caller's."""
        q = self.ctx.q
        a, b = self.p.a, self.p.b(self.ctx)
        wr, wc = self.weights(z)
        args = [z, q * q * a[0] * a[1] * a[2] * z / (b[1] * b[2])]
        args += [
            q * q * a[i1 - 1] * a[i2 - 1] * z / (b[j1 - 1] * b[j2 - 1])
            for (i1, i2), (j1, j2) in pairs
        ]
        th = theta(np.array(args), self.ctx)
        det = self.det_prefactor * np.prod(wr) * np.prod(wc) * th[1] / th[0]
        minors = [
            self.minor_constant(rows, cols)
            * (wr[rows[0] - 1] * wr[rows[1] - 1] * wc[cols[0] - 1] * wc[cols[1] - 1])
            * th[k] / th[0]
            for k, (rows, cols) in enumerate(pairs, start=2)
        ]
        return complex(det), [complex(m) for m in minors]

    def core(self, z) -> np.ndarray:
        """The theta-quotient core p_ij theta_q(q a_i z/b_j)/theta_q(z) at z
        (a complex or an array), shape z.shape + (3, 3), from one theta call.
        The genericity check is the caller's."""
        z = np.asarray(z, dtype=complex)
        q = self.ctx.q
        shifts = np.array([q * ai / bj for ai in self.p.a for bj in self.p.b(self.ctx)])
        th = theta(np.concatenate((z[..., None], z[..., None] * shifts), axis=-1), self.ctx)
        return self.p_matrix * (th[..., 1:].reshape(z.shape + (3, 3)) / th[..., 0, None, None])


def _equation(p: HyperParams, ctx: QContext) -> _Equation:
    """The memo of p at ctx, created on first use and kept on p."""
    eq = p._memo.get(ctx)
    if eq is None:
        eq = p._memo[ctx] = _Equation(p, ctx)
    return eq


def _generic(p: HyperParams, ctx: QContext) -> _Equation:
    """The memo of p at ctx, after checking the genericity hypotheses."""
    eq = _equation(p, ctx)
    if eq.collision is not None:
        raise SpiralCollisionError(eq.collision)
    return eq


def pochhammer_coefficient(p: HyperParams, i: int, j: int, ctx: QContext) -> complex:
    """The constant p_{i,j} multiplying theta_q(q a_i z / b_j)/theta_q(z).

    With i', i'' (j', j'') the complementary indices, this is
    ((q/b_j) a_i', (q/b_j) a_i'', b_j'/a_i, b_j''/a_i ; q)_inf over
    ((q/b_j) b_j', (q/b_j) b_j'', a_i'/a_i, a_i''/a_i ; q)_inf.
    """
    num, den = _equation(p, ctx).coefficient_factors(i - 1, j - 1)
    return math.prod(num) / math.prod(den)


def core_closed_form(p: HyperParams, z, ctx: QContext) -> np.ndarray:
    """The theta-quotient core M with M_ij = p_ij theta_q(q a_i z/b_j)/theta_q(z);
    z may be an array, giving shape z.shape + (3, 3)."""
    _check_point(z)
    return _generic(p, ctx).core(z)


def local_pair(p: HyperParams, ctx: QContext) -> tuple[LocalData, LocalData]:
    """Local solutions at 0 and infinity, choosing the logarithmic limit
    constructions when the parameters demand them."""
    return _equation(p, ctx).local_pair


def core_numeric(p: HyperParams, z: complex, ctx: QContext) -> np.ndarray:
    """F_infinity(z)^{-1} F_zero(z), both gauge matrices continued to z."""
    _check_point(z)
    loc0, locinf = local_pair(p, ctx)
    Fi = fmatrix_at(locinf, p, z, ctx)
    if abs(np.linalg.det(Fi)) < 1e-13 * np.linalg.norm(Fi) ** 3:
        raise SingularSolutionError(f"solution at infinity singular at z = {z}")
    return np.linalg.solve(Fi, fmatrix_at(loc0, p, z, ctx))


def _e_pair(p: HyperParams, z: complex, ctx: QContext) -> tuple[np.ndarray, np.ndarray]:
    """Character matrices e_J(z) of the local solutions at infinity and at 0."""
    loc0, locinf = local_pair(p, ctx)
    return e_matrix(locinf, z, ctx), e_matrix(loc0, z, ctx)


def twisted_birkhoff(p: HyperParams, z, ctx: QContext) -> np.ndarray:
    """Twisted connection matrix
    diag((1/z)^(-alpha)) [p_ij theta_q(q a_i z/b_j)/theta_q(z)] diag(z^(-beta)).

    z may be an array, giving shape z.shape + (3, 3): one batched closed-form
    evaluation.  In the logarithmic cases the numeric core of the
    epsilon-ladder limit gauge matrices is formed point by point and twisted
    as one batch (see _Equation.twisted)."""
    _check_point(z)
    eq = _equation(p, ctx)
    if eq.logarithmic:
        cores = [core_numeric(p, w, ctx) for w in map(complex, np.ravel(z))]
        return eq.twisted(z, np.reshape(cores, np.shape(z) + (3, 3)))
    eq = _generic(p, ctx)
    return eq.twisted(z, eq.core(z))


def det_formula(p: HyperParams, z: complex, ctx: QContext) -> complex:
    """Closed form of det of the twisted connection matrix."""
    _check_point(z)
    return _generic(p, ctx).det_and_minors(z, ())[0]


def minor_formula(
    p: HyperParams,
    rows: tuple[int, int],
    cols: tuple[int, int],
    z: complex,
    ctx: QContext,
) -> complex:
    """Closed form of the (i1,i2) x (j1,j2) minor of the twisted matrix;
    BadIndexError unless rows and cols are each two distinct indices in
    {1, 2, 3}, as in minor2."""
    _check_index_pairs(rows, cols)
    _check_point(z)
    return _generic(p, ctx).det_and_minors(z, [(rows, cols)])[1][0]


@dataclass(frozen=True)
class DetMinorCheck:
    """A twisted matrix against the determinant and minor closed forms; the
    mismatches are relative, the minor one the worst of all nine."""

    det_numeric: complex
    det_closed_form: complex
    det_mismatch: float
    max_minor_mismatch: float


_PAIRS = ((1, 2), (1, 3), (2, 3))


def check_det_minors(p: HyperParams, B: np.ndarray, z: complex, ctx: QContext) -> DetMinorCheck:
    """Check the twisted matrix B at z against the closed forms of its
    determinant and all nine minors (det_formula and minor_formula, here from
    one evaluation)."""
    _check_point(z)
    det_n = complex(np.linalg.det(B))
    pairs = [(rows, cols) for rows in _PAIRS for cols in _PAIRS]
    det_c, minors = _generic(p, ctx).det_and_minors(z, pairs)
    worst = 0.0
    for (rows, cols), mf in zip(pairs, minors):
        worst = max(worst, abs(minor2(B, rows, cols) - mf) / max(abs(mf), 1e-300))
    return DetMinorCheck(
        det_numeric=det_n,
        det_closed_form=det_c,
        det_mismatch=abs(det_n - det_c) / max(abs(det_c), 1e-300),
        max_minor_mismatch=worst,
    )


def connection_eval(
    p: HyperParams, z: complex, ctx: QContext, method: str = "both"
) -> ConnectionEval:
    """P(z) = Y_infinity(z)^{-1} Y_zero(z) and the twisted matrix at z, from
    the numeric or the closed-form core; 'both' uses the closed form and also
    reports the cross-method disagreement of P (relative, entrywise max).
    The closed form's genericity check comes before any numeric work."""
    if method not in ("both", "numeric", "closed_form"):
        raise DomainError(f"unknown method {method!r}")
    _check_point(z)
    if method != "numeric":
        _generic(p, ctx)
    ei, e0 = _e_pair(p, z, ctx)
    if method != "closed_form":
        numeric = core_numeric(p, z, ctx)
    core = numeric if method == "numeric" else core_closed_form(p, z, ctx)
    P = np.linalg.solve(ei, core) @ e0
    res = None
    if method == "both":
        Pn = np.linalg.solve(ei, numeric) @ e0
        res = float(np.max(np.abs(Pn - P)) / max(np.max(np.abs(P)), 1e-300))
    return ConnectionEval(
        P=P,
        P_twisted=_equation(p, ctx).twisted(z, core),
        residual_cross=res,
    )
