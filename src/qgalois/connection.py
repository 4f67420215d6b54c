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
distinct (x;q)_infinity values, the p_ij matrix built from them, the nine
core shifts q a_i / b_j, the determinant prefactor, the factors f of the
eleven thetas theta_q(f z) of the determinant and minor closed forms, the
minor table (the z-independent factors of the nine minors as a 3x3 array
indexed by the row and column each leaves out, its six thetas from one theta
call), and the spiral exponents of a and (q, b2, b3) behind the twist
weights.  The record lives as long as the instance, so reuse one instance
across evaluation points; an equal but distinct instance computes its own.
A computation that raises stores nothing.

The z-dependent side is evaluated over arrays of z by one implementation on
that record: the twist weights exp(-omega log_q(z) log q) from one log_q call
over z and 1/z, and the core from one theta call over z and the nine
q a_i z / b_j.  The closed-form core, the twisted matrix, the determinant and
minor formulas (the eleven thetas of a batch from one theta call; a minor
with a reversed row or column pair is its table entry negated) and
connection_eval take their thetas and weights from it.  connection_eval
takes the character matrices of a batch from one q-character call per side
and P from one solve over the stacked 3x3 matrices; check_det_minors forms
the nine minors of a stacked twisted matrix in array operations.  A single
point is a batch of one, and only the numeric core is formed point by point.
In the logarithmic cases (b = (q,q,q), possibly a = (a,a,a)), which have
no closed form here, the local gauge matrices are limits in a perturbation
eps of the parameters, each the mean of five perturbed frames on a circle
around eps = 0 (hypersystem._f_log_zero); twisted_birkhoff forms their
numeric core point by point and twists the batch with one q-logarithm call
over z.
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
from .mat3 import _check_index_pairs
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
    """Connection matrices at one point or a batch, by one or both methods;
    residual_cross is a float for one point and an array for a batch."""

    P: np.ndarray
    P_twisted: np.ndarray
    residual_cross: float | np.ndarray | None = None


# The ratios of SpiralPattern, infinity side then zero side; b2/q and b3/q
# lie on q^Z exactly when b2 and b3 do.
_RATIO_LABELS = ("a1/a2", "a1/a3", "a2/a3", "b2", "b3", "b2/b3")


# The 0-based rows (or columns) other than k in increasing order, those a 2x2
# minor keeps when it leaves out row (or column) k; _K1, _K2 as index arrays.
_KEPT = ((1, 2), (0, 2), (0, 1))
_K1, _K2 = np.array(_KEPT).T


class _Equation:
    """The z-independent data of one equation at one q, each part computed
    on first use.  A part whose computation raises is not stored, so the
    error is raised again on the next use."""

    def __init__(self, p: HyperParams, ctx: QContext):
        self.p = p
        self.ctx = ctx

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
        num = [qa[j][k] for k in _KEPT[i]] + [ba[k][i] for k in _KEPT[j]]
        den = [qb[j][k] for k in _KEPT[j]] + [aa[k][i] for k in _KEPT[i]]
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
        q, (a1, a2, a3), b2, b3 = self.ctx.q, self.p.a, self.p.b2, self.p.b3
        num = (1 - q / b2) * (1 - q / b3) * (1 / b2 - 1 / b3)
        return q * num / ((1 / a2 - 1 / a1) * (1 / a3 - 1 / a1) * (1 / a2 - 1 / a3))

    @functools.cached_property
    def minor_constants(self) -> np.ndarray:
        """The z-independent factors pref * num * theta(a_i1/a_i2) *
        theta(b_j1/b_j2) / den of the nine minors (i1 < i2, j1 < j2) as a 3x3
        array indexed by the row and column each leaves out; the six thetas
        from one theta call, the rest in Python complex arithmetic (so a
        denominator that underflows raises ZeroDivisionError, not inf)."""
        q = self.ctx.q
        a, b = self.p.a, self.p.b(self.ctx)
        qa, ba, _, _, qq = self.pochhammer
        ratios = [a[i1] / a[i2] for i1, i2 in _KEPT] + [b[j1] / b[j2] for j1, j2 in _KEPT]
        thetas = theta(np.array(ratios), self.ctx).tolist()

        def constant(i3: int, j3: int) -> complex:
            (i1, i2), (j1, j2) = _KEPT[i3], _KEPT[j3]
            num = qa[j1][i3] * ba[j3][i1] * qa[j2][i3] * ba[j3][i2]
            den = math.prod(self.coefficient_factors(i1, j1)[1] + self.coefficient_factors(i2, j2)[1])
            pref = (-q / qq ** 2) * (a[i2] / b[j1])
            return pref * num * (thetas[i3] * thetas[3 + j3]) / den

        return np.array([[constant(i3, j3) for j3 in range(3)] for i3 in range(3)])

    @functools.cached_property
    def theta_factors(self) -> np.ndarray:
        """Numerators and denominators (rows 0, 1) of the eleven f of the
        thetas theta_q(f z): 1, q^2 a1 a2 a3 / (b2 b3) of the determinant, then
        q^2 a_i1 a_i2 / (b_j1 b_j2) of each minor in row-major table order."""
        q = self.ctx.q
        a, b = self.p.a, self.p.b(self.ctx)
        num = [1.0, q * q * a[0] * a[1] * a[2]]
        num += [q * q * a[i1] * a[i2] for i1, i2 in _KEPT for _ in _KEPT]
        den = [1.0, b[1] * b[2]] + [b[j1] * b[j2] for _ in _KEPT for j1, j2 in _KEPT]
        return np.array([num, den])

    @functools.cached_property
    def shifts(self) -> np.ndarray:
        """The nine core shifts q a_i / b_j, row-major."""
        q = self.ctx.q
        return np.array([q * ai / bj for ai in self.p.a for bj in self.p.b(self.ctx)])

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

    def det_and_minors(self, z, minors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Closed forms at z (a complex or an array) of the twisted
        determinant, shape z.shape, and (None unless minors) of the nine
        minors, shape z.shape + (3, 3) indexed as minor_constants, from one
        weights and one theta call.

        Each is its z-independent factor, times the weights of its rows and
        columns, times theta_q(q^2 prod(a) z / prod(b)) / theta_q(z) over the
        a's of its rows and the b's of its columns.  The determinant alone
        needs no q-Pochhammer value.  The genericity check is the caller's."""
        shape = np.shape(z)
        # at least 1-d, so that one point rounds as it does within a batch
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        wr, wc = self.weights(z)
        num, den = self.theta_factors[:, : 11 if minors else 2]
        th = theta(z[..., None] * num / den, self.ctx)
        det = self.det_prefactor * np.prod(wr, axis=-1) * np.prod(wc, axis=-1) * th[..., 1] / th[..., 0]
        if not minors:
            return det.reshape(shape), None
        weights = wr[..., _K1, None] * wr[..., _K2, None] * wc[..., None, _K1] * wc[..., None, _K2]
        quotients = th[..., 2:].reshape(z.shape + (3, 3))
        table = self.minor_constants * weights * quotients / th[..., :1, None]
        return det.reshape(shape), table.reshape(shape + (3, 3))

    def core(self, z) -> np.ndarray:
        """The theta-quotient core p_ij theta_q(q a_i z/b_j)/theta_q(z) at z
        (a complex or an array), shape z.shape + (3, 3), from one theta call.
        The genericity check is the caller's."""
        z = np.asarray(z, dtype=complex)
        th = theta(np.concatenate((z[..., None], z[..., None] * self.shifts), axis=-1), self.ctx)
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


def _numeric_cores(p: HyperParams, z, ctx: QContext) -> np.ndarray:
    """core_numeric at each point of z, shape z.shape + (3, 3)."""
    cores = [core_numeric(p, w, ctx) for w in map(complex, np.ravel(z))]
    return np.reshape(cores, np.shape(z) + (3, 3))


def _like(z, value):
    """value as a Python scalar at a scalar z, else the array."""
    return value.item() if np.ndim(z) == 0 else value


def twisted_birkhoff(p: HyperParams, z, ctx: QContext) -> np.ndarray:
    """Twisted connection matrix
    diag((1/z)^(-alpha)) [p_ij theta_q(q a_i z/b_j)/theta_q(z)] diag(z^(-beta)).

    z may be an array, giving shape z.shape + (3, 3): one batched closed-form
    evaluation.  In the logarithmic cases the numeric core of the limit
    gauge matrices (circle means of perturbed frames) is formed point by
    point and twisted as one batch (see _Equation.twisted)."""
    _check_point(z)
    eq = _equation(p, ctx)
    if eq.logarithmic:
        return eq.twisted(z, _numeric_cores(p, z, ctx))
    eq = _generic(p, ctx)
    return eq.twisted(z, eq.core(z))


def det_formula(p: HyperParams, z, ctx: QContext):
    """Closed form of det of the twisted connection matrix; z may be an
    array, giving an array of that shape."""
    _check_point(z)
    return _like(z, _generic(p, ctx).det_and_minors(z, minors=False)[0])


def minor_formula(p: HyperParams, rows: tuple[int, int], cols: tuple[int, int], z, ctx: QContext):
    """Closed form of the (i1,i2) x (j1,j2) minor of the twisted matrix; z
    may be an array, giving an array of that shape.  BadIndexError unless
    rows and cols are each two distinct indices in {1, 2, 3}, as in minor2.
    It is the table entry of the row and column left out, negated once for
    each pair given in decreasing order."""
    _check_index_pairs(rows, cols)
    _check_point(z)
    minor = _generic(p, ctx).det_and_minors(z)[1][..., 5 - sum(rows), 5 - sum(cols)]
    if (rows[0] > rows[1]) != (cols[0] > cols[1]):
        minor = -minor
    return _like(z, minor)


@dataclass(frozen=True)
class DetMinorCheck:
    """A twisted matrix against the determinant and minor closed forms; the
    mismatches are relative, the minor one the worst of all nine.  Each field
    is a scalar for one point and an array of the points' shape for a batch."""

    det_numeric: complex | np.ndarray
    det_closed_form: complex | np.ndarray
    det_mismatch: float | np.ndarray
    max_minor_mismatch: float | np.ndarray


def check_det_minors(p: HyperParams, B: np.ndarray, z, ctx: QContext) -> DetMinorCheck:
    """Check the twisted matrix B at z against the closed forms of its
    determinant and all nine minors (det_formula and minor_formula, here from
    one evaluation).  z may be an array, with B of shape z.shape + (3, 3)."""
    _check_point(z)
    det_n = np.linalg.det(B)
    det_c, minors = _generic(p, ctx).det_and_minors(z)
    i1, i2 = _K1[:, None], _K2[:, None]
    numeric = B[..., i1, _K1] * B[..., i2, _K2] - B[..., i1, _K2] * B[..., i2, _K1]
    worst = np.max(np.abs(numeric - minors) / np.maximum(np.abs(minors), 1e-300), axis=(-2, -1))
    return DetMinorCheck(
        det_numeric=_like(z, det_n),
        det_closed_form=_like(z, det_c),
        det_mismatch=_like(z, np.abs(det_n - det_c) / np.maximum(np.abs(det_c), 1e-300)),
        max_minor_mismatch=_like(z, worst),
    )


def connection_eval(p: HyperParams, z, ctx: QContext, method: str = "both") -> ConnectionEval:
    """P(z) = Y_infinity(z)^{-1} Y_zero(z) and the twisted matrix at z, from
    the numeric or the closed-form core; 'both' uses the closed form and also
    reports the cross-method disagreement of P (relative, entrywise max).
    The closed form's genericity check comes before any numeric work.

    z may be an array, giving matrices of shape z.shape + (3, 3) and
    residuals of shape z.shape: the characters come from one q-character
    call per side, the closed-form core from one theta call and P from one
    stacked solve; the numeric core is formed point by point."""
    if method not in ("both", "numeric", "closed_form"):
        raise DomainError(f"unknown method {method!r}")
    _check_point(z)
    eq = _equation(p, ctx) if method == "numeric" else _generic(p, ctx)
    loc0, locinf = eq.local_pair
    ei, e0 = e_matrix(locinf, z, ctx), e_matrix(loc0, z, ctx)
    if method != "closed_form":
        numeric = _numeric_cores(p, z, ctx)
    core = numeric if method == "numeric" else eq.core(z)
    P = np.linalg.solve(ei, core) @ e0
    res = None
    if method == "both":
        Pn = np.linalg.solve(ei, numeric) @ e0
        scale = np.maximum(np.max(np.abs(P), axis=(-2, -1)), 1e-300)
        res = _like(z, np.max(np.abs(Pn - P), axis=(-2, -1)) / scale)
    return ConnectionEval(P=P, P_twisted=eq.twisted(z, core), residual_cross=res)
