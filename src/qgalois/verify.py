"""Identity-verification suites.

Each suite evaluates a family of exact identities at randomly sampled points
and returns named residual records with pass/fail against fixed thresholds.
The suites double as the CLI `verify` command and as oracles for the tests;
all randomness is seeded for reproducibility.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import DomainError
from . import connection as cn
from . import hypersystem as hs
from . import mat3
from . import qseries as qs

__all__ = [
    "CheckResult",
    "random_case_i_params",
    "random_annulus_points",
    "suite_theta",
    "suite_characters",
    "suite_gauge",
    "suite_bmw",
    "suite_detminors",
    "suite_psl2",
    "run_suite",
    "SUITES",
]


# sample sizes of the suites
_THETA_POINTS = 1000
_CHARACTER_POINTS = 200
_PARAM_SETS = 5  # parameter sets of the gauge and bmw suites
_GAUGE_POINTS = 20  # per parameter set and side
_CONNECTION_POINTS = 10  # per parameter set of the bmw and detminors suites
_PSL2_PAIRS = 1000


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: measured residual against its threshold."""

    suite: str
    name: str
    residual: float
    threshold: float
    passed: bool


def _check(suite: str, name: str, residual: float, threshold: float) -> CheckResult:
    return CheckResult(suite, name, float(residual), threshold, bool(residual < threshold))


def random_annulus_points(
    rng: np.random.Generator, n: int, ctx: QContext, r_lo: float = 0.6, r_hi: float = 0.9
) -> list[complex]:
    """Points with |q|^0.9-ish < |z| < 1-ish, away from the positive reals."""
    radii = abs(ctx.q) ** rng.uniform(r_lo, r_hi, n)
    angles = rng.uniform(0.05, 0.95, n) * 2.0 * math.pi
    return [complex(r * cmath.exp(1j * t)) for r, t in zip(radii, angles)]


def random_case_i_params(rng: np.random.Generator, ctx: QContext) -> hs.HyperParams:
    """A q-real parameter set with all spiral-genericity gaps at least 0.03."""
    while True:
        alpha = np.sort(rng.uniform(0.05, 0.95, 3))
        beta = np.sort(rng.uniform(0.05, 0.95, 2))
        gaps = [
            alpha[1] - alpha[0], alpha[2] - alpha[1], beta[1] - beta[0],
            min(abs(float(x % 1.0)) for x in np.subtract.outer(alpha, np.append(beta, 1.0)).ravel()),
        ]
        if min(gaps) > 0.03 and max(alpha[2], beta[1]) < 0.97:
            return hs.HyperParams.from_exponents(ctx, tuple(alpha), tuple(beta))


def _worst(x: np.ndarray, ref: np.ndarray) -> float:
    """The largest relative deviation of x from ref."""
    return np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300))


def suite_theta(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """theta functional equation (one theta call at the points, one at
    their q-shifts) and agreement with the triple product, point by point."""
    pts = random_annulus_points(rng, _THETA_POINTS, ctx, 0.1, 0.9)
    z = np.array(pts)
    t = qs.theta(z, ctx)
    feq = _worst(qs.theta(ctx.q * z, ctx), -t / z)
    prod = _worst(t, np.array([qs.theta_triple_product(w, ctx) for w in pts]))
    return [
        _check("theta", "functional_equation", feq, 1e-10),
        _check("theta", "triple_product_agreement", prod, 1e-10),
    ]


def suite_characters(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """q-character rescaling and shift laws; q-logarithm shift law.  Each
    qcharacter and lq evaluation is one call over all sampled points."""
    z = np.array(random_annulus_points(rng, _CHARACTER_POINTS, ctx, 0.15, 0.85))
    lam = np.array(random_annulus_points(rng, _CHARACTER_POINTS, ctx, 0.05, 0.95))
    e = qs.qcharacter(lam, z, ctx)
    r_scale = _worst(qs.qcharacter(ctx.q * lam, z, ctx), z * e)
    r_shift = _worst(qs.qcharacter(lam, ctx.q * z, ctx), lam * e)
    l = qs.lq(z, ctx)
    r_lq = np.max(np.abs(qs.lq(ctx.q * z, ctx) - l - 1.0) / np.maximum(np.abs(l) + 1.0, 1.0))
    return [
        _check("characters", "rescaling_law", r_scale, 1e-10),
        _check("characters", "shift_law", r_shift, 1e-10),
        _check("characters", "qlog_shift", r_lq, 1e-10),
    ]


def suite_gauge(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """Gauge identity F(qz) J = A(z) F(z) for both local solutions."""
    out = []
    for k in range(_PARAM_SETS):
        p = random_case_i_params(rng, ctx)
        loc0 = hs.local_solution_zero(p, ctx)
        loci = hs.local_solution_infinity(p, ctx)
        pts0 = random_annulus_points(rng, _GAUGE_POINTS, ctx, 0.3, 2.0)
        ptsi = [1.0 / z for z in random_annulus_points(rng, _GAUGE_POINTS, ctx, 0.3, 2.0)]
        r0 = max(hs.gauge_residual(loc0, p, z, ctx) for z in pts0)
        ri = max(hs.gauge_residual(loci, p, z, ctx) for z in ptsi)
        out.append(_check("gauge", f"set{k}_zero", r0, 1e-8))
        out.append(_check("gauge", f"set{k}_infinity", ri, 1e-8))
    return out


def suite_bmw(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """Numeric vs closed-form Birkhoff matrix agreement."""
    out = []
    for k in range(_PARAM_SETS):
        p = random_case_i_params(rng, ctx)
        zs = np.array(random_annulus_points(rng, _CONNECTION_POINTS, ctx))
        worst = np.max(cn.connection_eval(p, zs, ctx, "both").residual_cross)
        out.append(_check("bmw", f"set{k}_cross_method", worst, 1e-6))
    return out


def suite_detminors(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """Determinant and all nine 2x2 minor closed forms of the twisted matrix,
    plus localization of the determinant zero."""
    p = random_case_i_params(rng, ctx)
    zs = np.array(random_annulus_points(rng, _CONNECTION_POINTS, ctx))
    B = cn.twisted_birkhoff(p, zs, ctx)
    check = cn.check_det_minors(p, B, zs, ctx)
    f = check.det_closed_form
    # Laplace expansion of det along row 1 with the minor closed forms
    lap = 0.0
    for j, sign in ((1, 1.0), (2, -1.0), (3, 1.0)):
        cols = tuple(c for c in (1, 2, 3) if c != j)
        lap += sign * B[:, 0, j - 1] * cn.minor_formula(p, (2, 3), cols, zs, ctx)
    laplace_res = np.max(np.abs(lap - f) / np.maximum(np.abs(f), 1e-300))
    # determinant zero exactly on (b2 b3/(q^2 a1 a2 a3)) q^Z
    z0 = p.b2 * p.b3 / (ctx.q ** 2 * p.a[0] * p.a[1] * p.a[2])
    scale = abs(cn.det_formula(p, z0 * 1.2, ctx))
    loc = abs(cn.det_formula(p, z0, ctx)) / max(scale, 1e-300)
    return [
        _check("detminors", "determinant_closed_form", np.max(check.det_mismatch), 1e-8),
        _check("detminors", "all_nine_minors", np.max(check.max_minor_mismatch), 1e-8),
        _check("detminors", "laplace_consistency", laplace_res, 1e-8),
        _check("detminors", "det_zero_localization", loc, 1e-6),
    ]


def _random_sl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(d) > 1e-3:
            return M / np.sqrt(d)


def suite_psl2(ctx: QContext, rng: np.random.Generator) -> list[CheckResult]:
    """Symmetric-square embedding: homomorphism property, eigenvalue shape,
    and the quadratic entry relation."""
    hom = rel = 0.0
    eig_ok = True
    for _ in range(_PSL2_PAIRS):
        N1, N2 = _random_sl2(rng), _random_sl2(rng)
        R1, R2 = mat3.rho(N1), mat3.rho(N2)
        R12 = mat3.rho(N1 @ N2)
        hom = max(hom, float(np.linalg.norm(R1 @ R2 - R12) / np.linalg.norm(R12)))
        rel = max(rel, mat3.psl2_relation_residual(R1))
        eig_ok = eig_ok and mat3.psl2_eigenvalue_check(R1)
    return [
        _check("psl2", "homomorphism", hom, 1e-10),
        _check("psl2", "entry_relation", rel, 1e-10),
        _check("psl2", "eigenvalue_shape", 0.0 if eig_ok else 1.0, 0.5),
    ]


SUITES = {
    "theta": suite_theta,
    "characters": suite_characters,
    "gauge": suite_gauge,
    "bmw": suite_bmw,
    "detminors": suite_detminors,
    "psl2": suite_psl2,
}


def run_suite(name: str, ctx: QContext, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or 'all'), with its own seeded generator."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, ctx, seed))
        return out
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](ctx, np.random.default_rng(seed))
