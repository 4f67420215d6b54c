"""Difference Galois group machinery: irreducibility, parameter normalization,
local-case taxonomy, and the classifier with its density-theorem generators
and PGl2 obstruction residual.

The classifier is descriptor-level: the group is never computed as a variety.
The GL3 / extended-SL3 branch is a pure arithmetic condition on the parameter
spirals; the generator matrices and the obstruction residual are numerical
corroboration, reported alongside.

Both come from the twisted connection matrix at one sample set, built once
per classification: the base point, the circle samples of the connection
component and the two points beside the zero spiral of the obstruction
relation.  One twisted_birkhoff call evaluates the matrices at all of them
and they feed both the generators and the obstruction fit.  Sample points are
ranked by their clearance from the singular spirals, scanned as arrays.

classify is one pass that fills one GaloisReport.  The report keeps the
IrreducibilityVerdict itself (witnesses and per-ratio spiral distances), and
one builder, _generators, makes every density-theorem generator from the
local unipotents, looked up once, and the twisted matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .context import QContext
from .errors import BasePointSingularError, DomainError, QGaloisError
from .hypersystem import HyperParams, spiral_pattern
from .spiral import decompose, gamma1, gamma2, in_q_spiral, spiral_clearance
from . import connection

__all__ = [
    "IrreducibilityVerdict",
    "GaloisReport",
    "irreducibility",
    "normalize_parameters",
    "classify_case",
    "base_point",
    "omega_samples",
    "fit_relation_residual",
    "classify",
]

_RATIONAL_DEN_CAP = 10 ** 6
_RATIONAL_TOL = 1e-9
_N_SCAN = 64  # angles scanned for the base point
_PER_CIRCLE = 8  # connection samples per circle


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the six a_i/b_j spiral tests.

    witnesses lists (i, j, k, distance) for every ratio found on q^Z: the
    equation is reducible iff the list is nonempty.
    """

    irreducible: bool
    witnesses: tuple[tuple[int, int, int, float], ...]
    distances: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class GaloisReport:
    """Full classification report for one parameter set.

    Every report holds the irreducibility verdict of the input parameters and
    whether they are q-real; irreducible and witnesses read the verdict.  The
    other fields keep their defaults where classify stops early: a reducible
    input gets no normalized parameters, a non-q-real one no generators, and
    both the classification "undetermined".
    """

    irreducibility: IrreducibilityVerdict
    q_real: bool
    classification: str = "undetermined"
    normalized: HyperParams | None = None
    shifts: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    lie_case: str | None = None
    generators: tuple[tuple[str, np.ndarray], ...] = ()
    obstruction_residual: float | None = None
    scalar_generators: tuple[complex, complex] | None = None
    scalar_resolution: str | None = None
    base_point: complex | None = None
    samples: tuple[complex, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def irreducible(self) -> bool:
        return self.irreducibility.irreducible

    @property
    def witnesses(self) -> tuple[tuple[int, int, int, float], ...]:
        return self.irreducibility.witnesses


def irreducibility(p: HyperParams, ctx: QContext) -> IrreducibilityVerdict:
    """Reducibility happens exactly when some a_i/b_j lies on q^Z (b_1 = q
    included); returns the verdict with per-ratio spiral distances."""
    b = p.b(ctx)
    witnesses = []
    distances = []
    for i in range(1, 4):
        for j in range(1, 4):
            v = in_q_spiral(p.a[i - 1] / b[j - 1], ctx)
            distances.append((i, j, v.distance))
            if v.member:
                witnesses.append((i, j, v.k, v.distance))
    return IrreducibilityVerdict(
        irreducible=not witnesses,
        witnesses=tuple(witnesses),
        distances=tuple(distances),
    )


def _band_shift(omega: float, lo: float) -> int:
    """Integer k with omega - k in [lo, lo + 1); a 1e-12 guard absorbs the
    floating jitter of exactly-integer exponents."""
    return math.floor(omega - lo + 1e-12)


def _snap(values: list[complex], ctx: QContext) -> list[complex]:
    """Collapse values that agree to within spiral tolerance onto a common
    representative, so merged spirals become exact equalities."""
    out = list(values)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if abs(out[j] - out[i]) <= ctx.eps_spiral * abs(out[i]):
                out[j] = out[i]
    return out


def normalize_parameters(
    p: HyperParams, ctx: QContext
) -> tuple[HyperParams, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Shift every parameter by an integer q-power into a canonical band.

    The a_i go to exponent band [0, 1) and the b_j to (0, 1], so the fixed
    first denominator parameter q is itself canonical and q-spiral b's land
    exactly on q (the representative the logarithmic constructions use).
    Shifting by q^Z does not change the Galois group; the returned shifts s
    satisfy new = old * q^s.  Parameters whose shifted values collide within
    spiral tolerance are snapped equal, removing pure-q^Z resonances.
    """
    def shifted(c: complex, half_open_low: bool) -> tuple[complex, int]:
        sp = decompose(c, ctx)
        if half_open_low:  # band [0, 1)
            k = _band_shift(sp.omega, 0.0)
        else:  # band (0, 1]
            k = math.ceil(sp.omega - 1e-12) - 1
        w = sp.omega - k
        if abs(sp.u - 1.0) < ctx.eps_spiral:
            return ctx.qpow(w), -k
        return sp.u * ctx.qpow(w), -k

    new_a, sh_a = zip(*(shifted(ai, True) for ai in p.a))
    new_b, sh_b = zip(*(shifted(bj, False) for bj in (p.b2, p.b3)))
    a = tuple(_snap(list(new_a), ctx))
    b2, b3 = _snap([complex(v) for v in new_b], ctx)
    # b's within tolerance of q itself are the logarithmic representative
    if abs(b2 - ctx.q) <= ctx.eps_spiral * abs(ctx.q):
        b2 = ctx.q
    if abs(b3 - ctx.q) <= ctx.eps_spiral * abs(ctx.q):
        b3 = ctx.q
    return HyperParams(a=a, b2=b2, b3=b3), (tuple(sh_a), tuple(sh_b))


def classify_case(p: HyperParams, ctx: QContext) -> str:
    """Local-case tag for normalized parameters, read off their SpiralPattern
    (which of a1/a2, a1/a3, a2/a3 and b2/q, b3/q, b2/b3 lie on q^Z).

    (i)   all a-ratios and b2, b3, b2/b3 off q^Z;
    (ii)  a-ratios off, b2 = b3 off q^Z;
    (iii) a-ratios off, b2 = b3 = q (up to q^Z);
    (iv)  a = (a,a,a) and b = (q,q,q).
    Unlisted patterns are routed to the nearest handled analogue: triple a
    with generic b to (iii), a merged a-pair to (ii), one b on q^Z alone to
    (i).  No analogue is built for them, so classify reports them with no
    connection generators.
    """
    pattern = spiral_pattern(p, ctx)
    a_pairs = sum(v.member for v in pattern.infinity)
    b2_on, b3_on, b_merged = (v.member for v in pattern.zero)
    if a_pairs == 0:
        if not b_merged and not b2_on and not b3_on:
            return "i"
        if b2_on and b3_on:
            return "iii"
        if b_merged:
            return "ii"
        return "i"  # one b on q^Z alone: the closed forms then refuse it
    if a_pairs == 3:
        if b2_on and b3_on:
            return "iv"
        return "iii"  # triple a, generic b: handled as the b-side case (iii)
    return "ii"  # one merged a-pair: handled as the merged-pair case (ii)


def _clearance(p: HyperParams, zs, ctx: QContext):
    """Relative distance of each z from the nearer singular spiral of the
    twisted matrix: its poles on q^Z (the theta(z) denominators) and the zeros
    of its determinant on (b2 b3 / (q^2 a1 a2 a3)) q^Z."""
    zs = np.asarray(zs, dtype=complex)
    a1, a2, a3 = p.a
    anchor = p.b2 * p.b3 / (ctx.q ** 2 * a1 * a2 * a3)
    return np.minimum(spiral_clearance(zs, ctx), spiral_clearance(zs / anchor, ctx))


def base_point(p: HyperParams, ctx: QContext) -> complex:
    """Base point among _N_SCAN angles on |z| = |q|^(1/2) maximizing
    clearance from the pole spiral q^Z and the determinant-zero spiral."""
    zs = abs(ctx.q) ** 0.5 * np.exp(2j * math.pi * (np.arange(_N_SCAN) + 0.5) / _N_SCAN)
    return complex(zs[np.argmax(_clearance(p, zs, ctx))])


def omega_samples(p: HyperParams, ctx: QContext) -> list[complex]:
    """Sample points for the connection component: _PER_CIRCLE points on
    each of the circles |z| = |q|^0.4 and |z| = |q|^0.6, angles chosen for
    clearance from the singular spirals."""
    out: list[complex] = []
    angles = 2j * math.pi * (np.arange(4 * _PER_CIRCLE) + 0.37) / (4 * _PER_CIRCLE)
    for expo in (0.4, 0.6):
        zs = abs(ctx.q) ** expo * np.exp(angles)
        ranked = np.argsort(-_clearance(p, zs, ctx), kind="stable")
        out.extend(complex(z) for z in zs[ranked[:_PER_CIRCLE]])
    return out


def _diag(values: Sequence[complex]) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=complex))


def _check_base_point(p: HyperParams, y0: complex, ctx: QContext) -> None:
    if _clearance(p, y0, ctx) < 10.0 * ctx.eps_spiral:
        raise BasePointSingularError(f"base point {y0} is on a singular spiral")


def _generators(
    p: HyperParams, case: str, ctx: QContext, y0: complex | None = None, mats: np.ndarray = ()
) -> list[tuple[str, np.ndarray]]:
    """The density-theorem generators.

    Local ones at 0: 1.a and 1.a' (the exponent and unit-circle projections
    of the b-parameters) and 1.b, the unipotent U^(0).  Given the twisted
    matrices mats at the base point y0 and at the circle samples, also the
    local data at infinity conjugated by P0 = mats[0] (2.a, 2.a' from the
    a-parameters, 2.b from U^(infinity)) and 3.k = P0^{-1} mats[k+1].  The
    unipotents are those of the local solutions in the logarithmic cases, the
    merged-b block at 0 in case (ii), and I otherwise."""
    if len(mats):
        P0 = mats[0]
        if abs(np.linalg.det(P0)) < 1e-10 * max(np.linalg.norm(P0), 1e-300) ** 3:
            raise BasePointSingularError(f"twisted matrix numerically singular at {y0}")
    eye = np.eye(3, dtype=complex)
    if case == "ii":
        u0, uinf = np.array([[1, 0, 0], [0, 1, p.b2 / ctx.q], [0, 0, 1]], dtype=complex), eye
    elif case in ("iii", "iv"):
        u0, uinf = (loc.U for loc in connection.local_pair(p, ctx))
    else:
        u0, uinf = eye, eye
    b = p.b(ctx)
    out = [
        ("1.a", _diag([gamma2(bj, ctx) for bj in b])),
        ("1.a'", _diag([gamma1(bj, ctx) for bj in b])),
        ("1.b", u0),
    ]
    if not len(mats):
        return out

    def conj(M: np.ndarray) -> np.ndarray:
        return np.linalg.solve(P0, M @ P0)

    out += [
        ("2.a", conj(_diag([gamma2(ai, ctx) for ai in p.a]))),
        ("2.a'", conj(_diag([gamma1(ai, ctx) for ai in p.a]))),
        ("2.b", conj(uinf)),
    ]
    out.extend((f"3.{k}", M) for k, M in enumerate(np.linalg.solve(P0, mats[1:])))
    return out


def fit_relation_residual(
    lhs: Sequence[complex], rhs: Sequence[complex]
) -> tuple[complex, float]:
    """Least-squares constant c for lhs ~ c * rhs, plus the normalized misfit
    max |lhs - c rhs| / max(|lhs|, |c rhs|)."""
    L = np.asarray(lhs, dtype=complex)
    R = np.asarray(rhs, dtype=complex)
    if L.shape != R.shape or L.ndim != 1:
        raise DomainError("lhs and rhs must be equal-length vectors")
    denom = float(np.vdot(R, R).real)
    c = complex(np.vdot(R, L)) / denom if denom > 0 else 0.0
    scale = max(float(np.max(np.abs(L))), float(np.max(np.abs(c * R))), 1e-300)
    return c, float(np.max(np.abs(L - c * R))) / scale


def _relation_zero_points(p: HyperParams, case: str, ctx: QContext) -> list[complex]:
    """Two points beside the spiral where the obstruction relation's left side
    vanishes (qa_1/b_2 q^Z for distinct b; 1/a_i q^Z in the merged cases)."""
    if case == "i":
        anchor = p.b2 / (ctx.q * p.a[0])
    else:
        anchor = 1.0 / p.a[0]
    sp = decompose(anchor, ctx)
    # land on the anchor spiral inside the working annulus, then nudge off
    w = sp.omega - math.floor(sp.omega - 0.35)
    return [sp.u * ctx.qpow(w) * (1.0 + offset) for offset in (1e-3, -1e-3)]


def _relation_residual(case: str, mats: np.ndarray) -> float:
    """Misfit of the degree-2 entry relation a PSl2-conjugate twisted matrix
    would satisfy over the matrices mats: entry2^2 = c * entry1 * entry3 along
    the relevant row (row 1 generically, row 3 in the doubly merged case).
    A residual well above zero rules out (the normalizer of) the
    symmetric-square image of SL2, forcing the derived neutral component to be
    the full SL3; a near-zero residual is inconclusive."""
    row = 2 if case == "iv" else 0
    _, residual = fit_relation_residual(mats[:, row, 1] ** 2, mats[:, row, 0] * mats[:, row, 2])
    return residual


def _rational_part(x: float) -> Fraction | None:
    """x as a fraction with denominator <= the cap, if one matches to tolerance."""
    f = Fraction(x).limit_denominator(_RATIONAL_DEN_CAP)
    return f if abs(float(f) - x) <= _RATIONAL_TOL else None


def _scalar_data(p: HyperParams, ctx: QContext) -> tuple[tuple[complex, complex], str]:
    """The two scalar generators of the extended-SL3 branch and their
    resolved descriptor (finite mu_n extension when both phases are certified
    rational, else symbolic)."""
    beta2 = decompose(p.b2, ctx).omega
    beta3 = decompose(p.b3, ctx).omega
    _, vs = p.units(ctx)
    s1 = cmath.exp(2j * math.pi * (beta2 + beta3))
    s2 = vs[1] * vs[2]
    f1 = _rational_part((beta2 + beta3) % 1.0)
    f2 = _rational_part((cmath.phase(s2) / (2.0 * math.pi)) % 1.0)
    if f1 is None or f2 is None:
        return (s1, s2), "symbolic"
    n = math.lcm(f1.denominator, f2.denominator)
    if n == 1:
        return (s1, s2), "SL3"
    return (s1, s2), f"mu_{n} x SL3"


def classify(p: HyperParams, ctx: QContext) -> GaloisReport:
    """Full classification report.

    The GL3 / extended-SL3 decision is the arithmetic spiral test on
    a1 a2 a3/(b2 b3); everything else in the report (generators, obstruction
    residual) is corroborating numerical evidence.  Non-q-real or reducible
    input yields classification "undetermined" with a partial report.
    """
    q_real = p.is_q_real(ctx)
    irr = irreducibility(p, ctx)
    if not irr.irreducible:
        return GaloisReport(irr, q_real, notes=("reducible: a_i/b_j on q^Z",))
    pn, shifts = normalize_parameters(p, ctx)
    shifted = any(k != 0 for k in shifts[0] + shifts[1])
    notes = ["parameters shifted by integer q-powers before analysis"] if shifted else []
    case = classify_case(pn, ctx)
    tag = f"shifted({case})" if shifted else case
    if not q_real:
        notes.append("parameters are not q-real")
        return GaloisReport(irr, False, normalized=pn, shifts=shifts, lie_case=tag, notes=tuple(notes))

    y0, zs, gens, residual = None, [], [], None
    if case != "ii":
        try:
            # one sample set: base point, circle samples, relation-zero points
            y0 = base_point(pn, ctx)
            zs = omega_samples(pn, ctx)
            _check_base_point(pn, y0, ctx)
            points = [y0, *zs, *_relation_zero_points(pn, case, ctx)]
            mats = connection.twisted_birkhoff(pn, points, ctx)
            gens = _generators(pn, case, ctx, y0, mats[: len(zs) + 1])
            residual = _relation_residual(case, mats[1:])
        except QGaloisError as exc:
            notes.append(f"connection data unavailable: {exc}")
    else:
        gens = _generators(pn, case, ctx)
        notes.append("merged-b case: local generators at 0 only")

    extended = in_q_spiral(pn.a[0] * pn.a[1] * pn.a[2] / (pn.b2 * pn.b3), ctx).member
    scalars, resolution = _scalar_data(pn, ctx) if extended else (None, None)
    return GaloisReport(
        irr, True, classification="SL3_extended" if extended else "GL3",
        normalized=pn, shifts=shifts, lie_case=tag, generators=tuple(gens),
        obstruction_residual=residual, scalar_generators=scalars,
        scalar_resolution=resolution, base_point=y0, samples=tuple(zs), notes=tuple(notes),
    )
