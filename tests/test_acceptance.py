"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or on
failure) and asserts the stated tolerance.  All randomness is seeded.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qgalois import (
    HyperParams,
    QContext,
    classify,
    connection_eval,
    det_formula,
    fit_relation_residual,
    gauge_residual,
    irreducibility,
    local_solution_infinity,
    local_solution_infinity_log,
    local_solution_zero,
    local_solution_zero_log,
    lq,
    minor2,
    minor_formula,
    psl2_eigenvalue_check,
    psl2_relation_residual,
    qcharacter,
    rho,
    theta,
    theta_triple_product,
    twisted_birkhoff,
)
from qgalois.hypersystem import (
    _CIRCLE,
    _dual,
    _f_infinity,
    _f_log_zero,
    _f_series,
    _kmult,
    _perturbed_b,
)
from qgalois.verify import random_case_i_params

CTX = QContext(0.5)
RNG_SEED = 20240824


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def _rng():
    return np.random.default_rng(RNG_SEED)


def _random_points(rng, n, lo=0.1, hi=0.9):
    radii = abs(CTX.q) ** rng.uniform(lo, hi, n)
    angles = rng.uniform(0.05, 6.2, n)
    return [complex(r * cmath.exp(1j * t)) for r, t in zip(radii, angles)]


def _random_params(rng):
    return random_case_i_params(rng, CTX)


def test_criterion_01_theta_identities():
    rng = _rng()
    t0 = time.time()
    worst_feq = worst_prod = 0.0
    for z in _random_points(rng, 1000):
        t = theta(z, CTX)
        worst_feq = max(
            worst_feq, abs(theta(CTX.q * z, CTX) + t / z) / max(abs(t / z), 1e-300)
        )
        tp = theta_triple_product(z, CTX)
        worst_prod = max(worst_prod, abs(t - tp) / max(abs(tp), 1e-300))
    elapsed = time.time() - t0
    ok = worst_feq < 1e-10 and worst_prod < 1e-10 and elapsed < 1.0
    _report(1, "theta identities", ok, f"feq={worst_feq:.2e} prod={worst_prod:.2e} t={elapsed:.2f}s")
    assert worst_feq < 1e-10
    assert worst_prod < 1e-10
    assert elapsed < 1.0


def test_criterion_02_character_laws():
    rng = _rng()
    worst_resc = worst_shift = worst_lq = 0.0
    lams = _random_points(rng, 200, 0.05, 0.95)
    for z, lam in zip(_random_points(rng, 200, 0.15, 0.85), lams):
        e = qcharacter(lam, z, CTX)
        worst_resc = max(
            worst_resc,
            abs(qcharacter(CTX.q * lam, z, CTX) - z * e) / max(abs(z * e), 1e-300),
        )
        worst_shift = max(
            worst_shift,
            abs(qcharacter(lam, CTX.q * z, CTX) - lam * e) / max(abs(lam * e), 1e-300),
        )
        worst_lq = max(worst_lq, abs(lq(CTX.q * z, CTX) - lq(z, CTX) - 1.0))
    ok = max(worst_resc, worst_shift, worst_lq) < 1e-10
    _report(2, "q-character laws", ok, f"resc={worst_resc:.2e} shift={worst_shift:.2e} lq={worst_lq:.2e}")
    assert worst_resc < 1e-10
    assert worst_shift < 1e-10
    assert worst_lq < 1e-10


def test_criterion_03_gauge_identity():
    rng = _rng()
    t0 = time.time()
    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        loc0 = local_solution_zero(p, CTX)
        loci = local_solution_infinity(p, CTX)
        for z in _random_points(rng, 20, -1.0, 1.5):
            worst = max(worst, gauge_residual(loc0, p, z, CTX))
            worst = max(worst, gauge_residual(loci, p, 1.0 / z, CTX))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(3, "gauge identity", ok, f"residual={worst:.2e} t={elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_04_birkhoff_reproduction():
    rng = _rng()
    t0 = time.time()
    worst = 0.0
    for _ in range(5):
        p = _random_params(rng)
        for z in _random_points(rng, 10, 0.6, 0.9):
            # max |P_numeric - P_closed_form| / max |P_closed_form|
            worst = max(worst, connection_eval(p, z, CTX, "both").residual_cross)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(4, "connection-matrix reproduction", ok, f"residual={worst:.2e} t={elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_05_determinant_identity():
    rng = _rng()
    p = _random_params(rng)
    worst = 0.0
    for z in _random_points(rng, 10, 0.6, 0.9):
        B = twisted_birkhoff(p, z, CTX)
        f = det_formula(p, z, CTX)
        worst = max(worst, abs(np.linalg.det(B) - f) / abs(f))
    z0 = p.b2 * p.b3 / (CTX.q ** 2 * p.a[0] * p.a[1] * p.a[2])
    loc = abs(det_formula(p, z0, CTX)) / abs(det_formula(p, z0 * 1.3, CTX))
    ok = worst < 1e-8 and loc < 1e-6
    _report(5, "determinant identity", ok, f"residual={worst:.2e} zero={loc:.2e}")
    assert worst < 1e-8
    assert loc < 1e-6


def test_criterion_06_minor_identity():
    rng = _rng()
    p = _random_params(rng)
    worst = laplace = 0.0
    for z in _random_points(rng, 5, 0.6, 0.9):
        B = twisted_birkhoff(p, z, CTX)
        f = det_formula(p, z, CTX)
        for rows in ((1, 2), (1, 3), (2, 3)):
            for cols in ((1, 2), (1, 3), (2, 3)):
                m = minor2(B, rows, cols)
                mf = minor_formula(p, rows, cols, z, CTX)
                worst = max(worst, abs(m - mf) / abs(mf))
        expansion = sum(
            sign * B[0, j - 1] * minor_formula(p, (2, 3), tuple(c for c in (1, 2, 3) if c != j), z, CTX)
            for j, sign in ((1, 1.0), (2, -1.0), (3, 1.0))
        )
        laplace = max(laplace, abs(expansion - f) / abs(f))
    ok = worst < 1e-8 and laplace < 1e-8
    _report(6, "minor identities", ok, f"minors={worst:.2e} laplace={laplace:.2e}")
    assert worst < 1e-8
    assert laplace < 1e-8


def test_criterion_07_logarithmic_degenerations():
    rng = _rng()
    p3 = HyperParams(a=(CTX.qpow(0.13), CTX.qpow(0.37), CTX.qpow(0.71)), b2=CTX.q, b3=CTX.q)
    loc3 = local_solution_zero_log(p3, CTX)
    worst3 = max(
        gauge_residual(loc3, p3, z, CTX) for z in _random_points(rng, 5, -0.6, 0.9)
    )
    a = CTX.qpow(0.3)
    p4 = HyperParams(a=(a, a, a), b2=CTX.q, b3=CTX.q)
    loc4 = local_solution_infinity_log(p4, CTX)
    worst4 = max(
        gauge_residual(loc4, p4, 1.0 / z, CTX) for z in _random_points(rng, 5, 0.5, 0.9)
    )
    # the limit does not depend on the circle: the mean over a circle of twice
    # the radius, rotated by half a node, agrees on both sides
    def wide_mean(p):
        r = 2.0 * _CIRCLE * (1.0 - abs(CTX.q))
        frames = []
        for k in range(5):
            pe = _perturbed_b(p, r * cmath.exp(1j * math.pi * (2 * k + 1) / 5), CTX)
            frames.append((_f_series(pe, CTX), _kmult(CTX.q / pe.b2, CTX.q / pe.b3)))
        return lambda w: sum(F_eps(w) @ M_eps for F_eps, M_eps in frames) / 5

    def rel(F, ref):
        return float(np.max(np.abs(F - ref)) / np.max(np.abs(ref)))

    z = 0.35 * cmath.exp(1.2j)
    d3 = rel(wide_mean(p3)(z), loc3.F(z))
    # the infinity side is the transform of the dual's zero-side limit
    zi = 3.1 * cmath.exp(0.7j)
    p4d = _dual(p4, CTX)
    d4 = rel(_f_infinity(p4, wide_mean(p4d), CTX)(zi), _f_infinity(p4, _f_log_zero(p4d, CTX), CTX)(zi))
    ok = worst3 < 1e-12 and worst4 < 1e-12 and d3 < 1e-8 and d4 < 1e-8
    _report(7, "logarithmic degenerations", ok,
            f"gauge0={worst3:.2e} gaugeInf={worst4:.2e} circles=({d3:.2e},{d4:.2e})")
    assert worst3 < 1e-12
    assert worst4 < 1e-12
    assert d3 < 1e-8
    assert d4 < 1e-8


def test_criterion_08_symmetric_square_embedding():
    rng = _rng()
    worst_hom = worst_rel = 0.0
    eig_ok = True
    for _ in range(1000):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dA, dB = np.linalg.det(A), np.linalg.det(B)
        if min(abs(dA), abs(dB)) < 1e-3:
            continue
        A /= np.sqrt(dA)
        B /= np.sqrt(dB)
        RA, RB, RAB = rho(A), rho(B), rho(A @ B)
        worst_hom = max(
            worst_hom, float(np.linalg.norm(RA @ RB - RAB) / np.linalg.norm(RAB))
        )
        worst_rel = max(worst_rel, psl2_relation_residual(RA))
        eig_ok = eig_ok and psl2_eigenvalue_check(RA)
    ok = worst_hom < 1e-10 and worst_rel < 1e-10 and eig_ok
    _report(8, "symmetric-square embedding", ok, f"hom={worst_hom:.2e} rel={worst_rel:.2e}")
    assert worst_hom < 1e-10
    assert worst_rel < 1e-10
    assert eig_ok


def test_criterion_09_obstruction_soundness():
    rng = _rng()
    # synthetic fixture: genuine symmetric-square data satisfies the relation
    lhs, rhs = [], []
    for _ in range(16):
        N = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        N /= np.sqrt(np.linalg.det(N))
        R = rho(N)
        lhs.append(R[0, 1] ** 2)
        rhs.append(R[0, 0] * R[0, 2])
    _, synthetic = fit_relation_residual(lhs, rhs)
    # five q-real generic parameter sets: the relation must fail decisively,
    # with the specific zero pattern near (b2/(q a1)) q^Z
    min_res = math.inf
    pattern_ok = True
    for _ in range(5):
        p = _random_params(rng)
        min_res = min(min_res, classify(p, CTX).obstruction_residual)
        anchor = p.b2 / (CTX.q * p.a[0])
        z = anchor * (1 + 1e-6)
        B = twisted_birkhoff(p, z, CTX)
        scale = float(np.max(np.abs(B[0])) ** 2)
        pattern_ok = pattern_ok and abs(B[0, 1] ** 2) < 1e-6 * scale
        pattern_ok = pattern_ok and abs(B[0, 0] * B[0, 2]) > 1e-3 * scale
    ok = synthetic < 1e-8 and min_res > 0.1 and pattern_ok
    _report(9, "obstruction soundness", ok,
            f"synthetic={synthetic:.2e} min_residual={min_res:.2f} pattern={pattern_ok}")
    assert synthetic < 1e-8
    assert min_res > 0.1
    assert pattern_ok


def _generic_exponents(rng, resonant):
    """Exponents (alpha, beta) with all spiral gaps > 0.03; when resonant is
    set, sum(alpha) - 1 - sum(beta) is forced to be an exact integer."""
    while True:
        alpha = np.sort(rng.uniform(0.05, 0.95, 3))
        beta2 = float(rng.uniform(0.05, 0.95))
        if resonant:
            beta3 = (float(np.sum(alpha)) - 1.0 - beta2) % 1.0
        else:
            beta3 = float(rng.uniform(0.05, 0.95))
            frac = (float(np.sum(alpha)) - 1.0 - beta2 - beta3) % 1.0
            if min(frac, 1.0 - frac) < 0.02:
                continue
        beta = sorted((beta2, beta3))
        gaps = [alpha[1] - alpha[0], alpha[2] - alpha[1], beta[1] - beta[0]]
        cross = [
            min((x - y) % 1.0, 1.0 - (x - y) % 1.0)
            for x in alpha
            for y in beta + [1.0]
        ]
        if (
            min(gaps) > 0.03
            and min(cross) > 0.03
            and 0.03 < min(beta)
            and max(alpha[2], beta[1]) < 0.97
        ):
            return tuple(alpha), tuple(beta)


def test_criterion_10_main_theorem_classifier():
    rng = _rng()
    all_match = shift_invariant = True
    for k in range(20):
        alpha, beta = _generic_exponents(rng, resonant=(k < 10))
        p = HyperParams.from_exponents(CTX, alpha, beta)
        expo = float(np.sum(alpha) - 1.0 - sum(beta))
        expect = "SL3_extended" if abs(expo - round(expo)) < 1e-9 else "GL3"
        r = classify(p, CTX)
        all_match = all_match and (r.classification == expect)
        shifted = HyperParams.from_exponents(
            CTX,
            (alpha[0] + 2.0, alpha[1], alpha[2] - 1.0),
            (beta[0] + 1.0, beta[1]),
        )
        rs = classify(shifted, CTX)
        shift_invariant = shift_invariant and (rs.classification == r.classification)
    ok = all_match and shift_invariant
    _report(10, "main-theorem classifier", ok,
            f"arithmetic_match={all_match} shift_invariant={shift_invariant}")
    assert all_match
    assert shift_invariant


def test_criterion_11_irreducibility_criterion():
    rng = _rng()
    detected = generic_ok = True
    for k in range(20):
        p = _random_params(rng)
        i = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        shift = int(rng.integers(-2, 3))
        b = p.b(CTX)
        new_a = list(p.a)
        new_a[i - 1] = b[j - 1] * CTX.q ** shift
        bad = HyperParams(a=tuple(new_a), b2=p.b2, b3=p.b3)
        v = irreducibility(bad, CTX)
        detected = detected and (not v.irreducible)
        detected = detected and any(w[:2] == (i, j) for w in v.witnesses)
    for k in range(20):
        p = _random_params(rng)
        generic_ok = generic_ok and irreducibility(p, CTX).irreducible
    ok = detected and generic_ok
    _report(11, "irreducibility criterion", ok,
            f"reducible_detected={detected} generic_pass={generic_ok}")
    assert detected
    assert generic_ok
