"""Unit-circle x q^R decomposition, spiral membership and clearance, and
log_q."""

import cmath
import math

import numpy as np
import pytest

from qgalois import (
    DomainError,
    QContext,
    decompose,
    gamma1,
    gamma2,
    in_q_spiral,
    log_q,
)
from qgalois.spiral import spiral_clearance


def test_decompose_roundtrip(ctx, rng):
    for _ in range(100):
        c = complex(rng.normal(), rng.normal())
        if c == 0:
            continue
        sp = decompose(c, ctx)
        assert abs(abs(sp.u) - 1.0) < 1e-14
        assert abs(sp.u * ctx.qpow(sp.omega) - c) < 1e-12 * abs(c)


def test_decompose_zero_rejected(ctx):
    with pytest.raises(DomainError):
        decompose(0.0, ctx)


def test_spiral_membership(ctx):
    v = in_q_spiral(ctx.q ** 3, ctx)
    assert v.member and v.k == 3 and v.distance < 1e-14
    w = in_q_spiral(ctx.qpow(0.4), ctx)
    assert not w.member


def test_spiral_tolerance_edge(ctx):
    v = in_q_spiral(ctx.q ** 3 * (1 + 1e-12), ctx)
    assert v.member and v.k == 3
    assert 0 < v.distance < 1e-11


def test_log_q_inverts_power(ctx, rng):
    for _ in range(50):
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 1e-3:
            continue
        w = log_q(c, ctx)
        assert abs(ctx.qpow(w) - c) < 1e-10 * abs(c)


def test_log_q_branch_phase_in_unit_band(ctx):
    # the unit-circle phase parameter lies in [0, 1)
    for c in (1.0, 1j, -1.0, -1j, cmath.exp(0.1j)):
        w = log_q(c, ctx)
        t = (w - decompose(c, ctx).omega) * ctx.log_q / (2j * math.pi)
        assert -1e-12 <= t.real < 1.0
        assert abs(t.imag) < 1e-12


def test_gamma_projections(ctx):
    c = cmath.exp(0.4j) * ctx.qpow(1.7)
    assert abs(gamma1(c, ctx) - cmath.exp(0.4j)) < 1e-12
    assert abs(gamma2(c, ctx) - cmath.exp(2j * math.pi * 1.7)) < 1e-12
    # q-real values project to 1 on the unit-circle factor
    assert abs(gamma1(ctx.qpow(0.3), ctx) - 1.0) < 1e-12


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
def test_spiral_clearance_is_the_nearest_spiral_point(q, rng):
    ctx = QContext(q)
    omegas = np.concatenate([rng.uniform(-3.0, 3.0, 60), [0.5 - 1e-12, 0.5, 0.5 + 1e-12, 2.0]])
    phases = np.concatenate([rng.uniform(-0.6, 0.6, 60), [0.0, 0.0, 0.0, 1e-7]])
    cs = np.exp(1j * phases + omegas * ctx.log_q)
    clearance = spiral_clearance(cs, ctx)
    cap = 1.0 - abs(q)
    for c, d in zip(cs, clearance):
        omega = math.log(abs(c)) / math.log(abs(q))
        ks = range(math.floor(omega) - 20, math.ceil(omega) + 21)
        brute = min(abs(c - ctx.qpow(k)) / abs(ctx.qpow(k)) for k in ks)
        # beyond 1 - |q| the minimum may come from far-away spiral points
        assert abs(min(d, cap) - min(brute, cap)) <= 1e-12 * max(brute, 1e-300) + 1e-15
    assert spiral_clearance(complex(cs[0]), ctx) == clearance[0]


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j), 0.7])
def test_spiral_distance_is_the_clearance(q, rng):
    # the nearer of q^floor(omega) and q^ceil(omega); measured from
    # q^round(omega) instead, -q^0.6 at q = 0.5 reads 2.32 against 1.66
    ctx = QContext(q)
    omegas = np.concatenate([rng.uniform(-3.0, 3.0, 80), [0.6, 0.55, 2.52]])
    phases = np.concatenate([rng.uniform(-math.pi, math.pi, 80), [math.pi, 0.0, 2.0]])
    for c in np.exp(1j * phases + omegas * ctx.log_q):
        c = complex(c)
        d = spiral_clearance(c, ctx)
        assert abs(in_q_spiral(c, ctx).distance - d) <= 1e-14 * d
