"""Companion system, local fundamental solutions, gauge identities, and the
logarithmic degenerations as limits in a parameter perturbation."""

import cmath

import numpy as np
import pytest

from qgalois import hypersystem
from qgalois import (
    DomainError,
    HyperParams,
    QContext,
    e_matrix,
    fmatrix_at,
    gauge_residual,
    local_solution_infinity,
    local_solution_infinity_log,
    local_solution_zero,
    local_solution_zero_log,
    spiral_pattern,
    system_matrix,
)


@pytest.fixture
def p(ctx):
    return HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))


def _ring(rng, n, lo, hi):
    return [
        complex(r * cmath.exp(1j * t))
        for r, t in zip(rng.uniform(lo, hi, n), rng.uniform(0.1, 6.2, n))
    ]


def test_system_matrix_shape_and_pole(ctx, p):
    A = system_matrix(p, 0.3 + 0.2j, ctx)
    assert A.shape == (3, 3)
    assert np.allclose(A[0], [0, 1, 0]) and np.allclose(A[1], [0, 0, 1])


def test_local_exponents(ctx, p):
    # eigenvalues of the system at 0 are {1, q/b2, q/b3}; at infinity {1/a_i}
    loc0 = local_solution_zero(p, ctx)
    expect0 = {1.0, ctx.q / p.b2, ctx.q / p.b3}
    assert all(min(abs(e - x) for x in expect0) < 1e-10 for e in loc0.exponents)
    loci = local_solution_infinity(p, ctx)
    expecti = {1.0 / ai for ai in p.a}
    assert all(min(abs(e - x) for x in expecti) < 1e-10 for e in loci.exponents)


def test_verdicts_generic(ctx, p):
    pattern = spiral_pattern(p, ctx)
    assert not any(v.member for v in pattern.zero + pattern.infinity)
    for side in ("zero", "infinity"):
        assert not pattern.merged(side) and not pattern.resonant(side)


def test_verdict_resonant(ctx):
    # b3 = q^2 * b2 makes the exponents at 0 resonate
    pr = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 2.29))
    pattern = spiral_pattern(pr, ctx)
    assert pattern.resonant("zero") and not pattern.merged("zero")
    assert pattern.zero[2].member and pattern.zero[2].k == -2  # b2/b3 = q^-2
    assert not pattern.resonant("infinity")


def test_verdict_logarithmic(ctx):
    pl = HyperParams(a=(0.7, 0.8, 0.9), b2=0.3, b3=0.3)
    pattern = spiral_pattern(pl, ctx)
    assert pattern.merged("zero") and not pattern.resonant("zero")
    assert not pattern.merged("infinity")


def test_gauge_identity_zero(ctx, p, rng):
    loc0 = local_solution_zero(p, ctx)
    for z in _ring(rng, 12, 0.1, 2.2):
        assert gauge_residual(loc0, p, z, ctx) < 1e-10


def test_gauge_identity_infinity(ctx, p, rng):
    loci = local_solution_infinity(p, ctx)
    for z in _ring(rng, 12, 0.8, 6.0):
        assert gauge_residual(loci, p, z, ctx) < 1e-10


def test_solution_matrix_satisfies_system(ctx, p, rng):
    loc0 = local_solution_zero(p, ctx)
    for z in _ring(rng, 6, 0.4, 0.9):
        Y = fmatrix_at(loc0, p, z, ctx) @ e_matrix(loc0, z, ctx)
        Yq = fmatrix_at(loc0, p, ctx.q * z, ctx) @ e_matrix(loc0, ctx.q * z, ctx)
        A = system_matrix(p, z, ctx)
        assert np.max(np.abs(Yq - A @ Y)) < 1e-9 * np.max(np.abs(Y))


def test_e_matrix_cocycle(ctx, p, rng):
    loc0 = local_solution_zero(p, ctx)
    loci = local_solution_infinity(p, ctx)
    for z in _ring(rng, 8, 0.5, 0.9):
        for loc in (loc0, loci):
            e = e_matrix(loc, z, ctx)
            eq = e_matrix(loc, ctx.q * z, ctx)
            assert np.max(np.abs(eq - loc.J @ e)) < 1e-9 * np.max(np.abs(e))


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
def test_log_infinity_dunford_pair_is_closed_form(q):
    ctx = QContext(q)
    a = ctx.qpow(0.3)
    loc = local_solution_infinity_log(HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q), ctx)
    # J = D U with D = diag(exponents) = I/a and U = a J unipotent
    D, U = np.diag(loc.exponents), loc.U
    assert np.max(np.abs(D - np.eye(3) / a)) <= 1e-15 * abs(1 / a)
    assert np.max(np.abs(D @ U - loc.J)) <= 1e-15 * np.max(np.abs(loc.J))
    assert not np.linalg.matrix_power(U - np.eye(3), 3).any()


def test_log_e_matrix_cocycle(ctx, rng):
    a = ctx.qpow(0.3)
    pl0 = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q)
    plinf = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    locs = (local_solution_zero_log(pl0, ctx), local_solution_infinity_log(plinf, ctx))
    for z in _ring(rng, 8, 0.5, 0.9):
        for loc in locs:
            e = e_matrix(loc, z, ctx)
            eq = e_matrix(loc, ctx.q * z, ctx)
            assert np.max(np.abs(eq - loc.J @ e)) < 1e-9 * np.max(np.abs(e))


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
def test_unipotent_power_inverse_and_shift(q):
    # both logarithmic U: J_q at 0 and a J_infinity at infinity
    ctx = QContext(q)
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    eye = np.eye(3)
    for U in (local_solution_zero_log(pl, ctx).U, local_solution_infinity_log(pl, ctx).U):
        for ell in (0.37 - 1.2j, np.array([[0.5, -2.0 + 0.3j], [1.1j, -0.8 - 0.4j]])):
            up = hypersystem._unipotent_power(U, ell)
            assert up.shape == np.shape(ell) + (3, 3)
            assert np.max(np.abs(up @ hypersystem._unipotent_power(U, -ell) - eye)) < 1e-14
            step = hypersystem._unipotent_power(U, np.asarray(ell) + 1.0)
            assert np.max(np.abs(step - U @ up)) < 1e-14


def test_log_zero_ladder(ctx, rng):
    pl = HyperParams(
        a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q
    )
    loc = local_solution_zero_log(pl, ctx)
    assert loc.logarithmic
    # unipotent local form at 0
    assert np.allclose(loc.J, np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    for z in _ring(rng, 5, 0.4, 1.8):
        assert gauge_residual(loc, pl, z, ctx) < 1e-12


def test_log_zero_rejects_generic_b(ctx):
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    with pytest.raises(DomainError):
        local_solution_zero_log(p, ctx)


def test_log_infinity_ladder(ctx, rng):
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    loc = local_solution_infinity_log(pl, ctx)
    assert loc.logarithmic
    assert np.allclose(loc.J, np.array([[1 / a, 1, 0], [0, 1 / a, 1], [0, 0, 1 / a]]))
    for z in _ring(rng, 5, 2.2, 6.0):
        assert gauge_residual(loc, pl, z, ctx) < 1e-8


def test_fmatrix_continuation_consistency(ctx, p):
    # at 0: the value at radius/3 equals the direct series there; at infinity:
    # the value continued from z/q at 3/4 of the radius equals the direct
    # series, which still converges there (its radius is half the series radius)
    loc0 = local_solution_zero(p, ctx)
    locinf = local_solution_infinity(p, ctx)
    for loc, z in (
        (loc0, 0.12 * cmath.exp(0.9j)),
        (locinf, 0.75 * locinf.radius * cmath.exp(0.9j)),
    ):
        direct = loc.F(z)
        cont = fmatrix_at(loc, p, z, ctx)
        assert np.max(np.abs(direct - cont)) < 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize(
    "build, a_exps",
    [
        (local_solution_infinity_log, (0.3, 0.3, 0.3)),
        (local_solution_zero_log, (0.13, 0.37, 0.71)),
    ],
)
def test_log_ladder_frames_built_once(monkeypatch, ctx, build, a_exps):
    # the five frame multipliers of the limit come from the parameters only:
    # one per frame when the local solution is built, none per evaluation point
    calls = []
    real = hypersystem._kmult

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hypersystem, "_kmult", counting)
    pl = HyperParams(a=tuple(ctx.qpow(x) for x in a_exps), b2=ctx.q, b3=ctx.q)
    loc = build(pl, ctx)
    for z in (0.3 + 0.1j, 0.9 * cmath.exp(2.0j), 4.0 * cmath.exp(-0.7j)):
        fmatrix_at(loc, pl, z, ctx)
    assert len(calls) == 5
