"""Scalar q-series primitives: Pochhammer symbols, theta, characters, the
q-logarithm, and the order-3 basic hypergeometric series."""

import cmath

import mpmath
import numpy as np
import pytest

from qgalois import (
    DivergenceError,
    DomainError,
    PoleError,
    QContext,
    lq,
    qcharacter,
    qhyper_series,
    qpochhammer_infinite,
    theta,
    theta_triple_product,
)


def _points(rng, n=50):
    return [
        complex(r * cmath.exp(1j * t))
        for r, t in zip(rng.uniform(0.3, 2.5, n), rng.uniform(0.1, 6.1, n))
    ]


def test_pochhammer_infinite_matches_long_finite(ctx):
    a = 0.4 + 0.2j
    inf_val, rep = qpochhammer_infinite(a, ctx)
    assert rep.tail_bound < ctx.eps_trunc
    assert abs(inf_val - complex(mpmath.qp(a, ctx.q))) < 1e-12


def test_theta_functional_equation(ctx, rng):
    for z in _points(rng):
        t = theta(z, ctx)
        assert abs(theta(ctx.q * z, ctx) + t / z) < 1e-12 * abs(t / z)


def test_theta_triple_product_agreement(ctx, rng):
    for z in _points(rng):
        t, tp = theta(z, ctx), theta_triple_product(z, ctx)
        assert abs(t - tp) < 1e-10 * abs(tp)


def test_theta_vanishes_on_spiral(ctx):
    for k in (-2, -1, 0, 1, 3):
        assert abs(theta(ctx.q ** k, ctx)) < 1e-12


def test_theta_zero_rejected(ctx):
    with pytest.raises(DomainError):
        theta(0.0, ctx)


def test_qcharacter_identity_for_lambda_one(ctx, rng):
    for z in _points(rng, 10):
        assert abs(qcharacter(1.0, z, ctx) - 1.0) < 1e-12


def test_qcharacter_laws(ctx, rng):
    lams = [ctx.qpow(0.35), 2.4 * cmath.exp(0.7j), 0.05j]
    for z in _points(rng, 15):
        for lam in lams:
            e = qcharacter(lam, z, ctx)
            assert abs(qcharacter(ctx.q * lam, z, ctx) - z * e) < 1e-10 * abs(z * e)
            assert abs(qcharacter(lam, ctx.q * z, ctx) - lam * e) < 1e-10 * abs(lam * e)


def test_qcharacter_pole_detected(ctx):
    lam = ctx.qpow(0.3)
    with pytest.raises(PoleError):
        qcharacter(lam, ctx.qpow(0.7), ctx)  # lam * z = q


def test_lq_shift_law(ctx, rng):
    for z in _points(rng, 20):
        assert abs(lq(ctx.q * z, ctx) - lq(z, ctx) - 1.0) < 1e-10


def test_phi_reduces_to_geometric_series(ctx):
    # identical numerator and denominator tuples cancel term by term
    val, _ = qhyper_series((ctx.q, 0.3, 0.4), (ctx.q, 0.3, 0.4), 0.35, ctx)
    assert abs(val - 1.0 / (1.0 - 0.35)) < 1e-12


def test_qhyper_series_divergence_guard(ctx):
    with pytest.raises(DivergenceError):
        qhyper_series((0.3,), (0.4,), 1.2, ctx)


def test_qhyper_series_at_zero(ctx):
    val, rep = qhyper_series((0.3,), (0.4,), 0.0, ctx)
    assert val == 1.0 and rep.tail_bound == 0.0


def test_tighter_context_tightens_tail(ctx):
    loose = QContext(ctx.q, eps_trunc=1e-6)
    _, rep_l = qpochhammer_infinite(0.7, loose)
    _, rep_t = qpochhammer_infinite(0.7, ctx)
    assert rep_t.terms_used > rep_l.terms_used
    assert rep_t.tail_bound < rep_l.tail_bound


@pytest.mark.parametrize("q, z", [(0.99, 1e-3), (0.99, 1e-5), (0.99, 1e5), (0.5, 1e-200), (0.5, 1e-300)])
def test_theta_out_of_double_range_raises_domain_error(q, z):
    ctx = QContext(q)
    for fn in (theta, lq):
        with pytest.raises(DomainError):
            fn(z, ctx)


ARRAY_QS = [0.5, 0.5 * cmath.exp(0.5j)]


@pytest.mark.parametrize("q", ARRAY_QS)
def test_theta_array_matches_scalar_elementwise(q, rng):
    ctx = QContext(q)
    zs = np.array(_points(rng, 27))
    for shaped in (zs, zs.reshape(3, 3, 3)):
        out = theta(shaped, ctx)
        assert out.shape == shaped.shape
        for z, t in zip(shaped.ravel(), out.ravel()):
            ref = theta(complex(z), ctx)
            assert abs(t - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("q", ARRAY_QS)
def test_theta_array_functional_equation(q, rng):
    ctx = QContext(q)
    zs = np.array(_points(rng))
    t = theta(zs, ctx)
    assert np.all(np.abs(theta(ctx.q * zs, ctx) + t / zs) < 1e-12 * np.abs(t / zs))


def test_theta_array_zero_entry_rejected(ctx):
    with pytest.raises(DomainError):
        theta(np.array([0.7 + 0.2j, 0.0, 1.3]), ctx)


@pytest.mark.parametrize("q", ARRAY_QS)
def test_qcharacter_array_matches_scalar_elementwise(q, rng):
    ctx = QContext(q)
    lams = np.array([1.0, ctx.q, ctx.qpow(0.35), 2.4 * cmath.exp(0.7j), 0.05j, ctx.q ** -3])
    for z in _points(rng, 8):
        for shaped in (lams, lams.reshape(2, 3)):
            out = qcharacter(shaped, z, ctx)
            assert out.shape == shaped.shape
            for lam, e in zip(shaped.ravel(), out.ravel()):
                assert e == qcharacter(complex(lam), z, ctx)


def _qcharacter_by_loops(lam, z, ctx):
    """The q-character with lam rescaled one q-power at a time into the
    annulus |q| (1 + 1e-14) < |lam| <= 1 + 1e-14."""
    prefac = 1.0 + 0j
    while abs(lam) > 1.0 + 1e-14:
        lam *= ctx.q
        prefac /= z
    while abs(lam) <= abs(ctx.q) * (1.0 + 1e-14):
        lam /= ctx.q
        prefac *= z
    th = theta(np.array([z, lam * z]), ctx)
    return prefac * th[0] / th[1]


@pytest.mark.parametrize("q", ARRAY_QS)
def test_qcharacter_rescaling_edges_match_loops(q, rng):
    ctx = QContext(q)
    lams = [ctx.q, ctx.q * (1 + 1e-15), ctx.q * (1 - 1e-15), 1 + 1e-15, 1 - 1e-15, ctx.q ** -3, ctx.q ** 4]
    for z in _points(rng, 10):
        out = qcharacter(np.array(lams), z, ctx)
        for lam, e in zip(lams, out):
            ref = _qcharacter_by_loops(lam, z, ctx)
            assert abs(e - ref) <= 1e-14 * abs(ref)


def test_qcharacter_exact_on_q_powers(ctx, rng):
    # e_1 = 1 and e_(q^k)(z) = z^k, with no theta quotient in between
    for z in _points(rng, 20):
        assert qcharacter(1.0, z, ctx) == 1.0
        for k in (-2, 1, 3):
            assert qcharacter(ctx.q ** k, z, ctx) == np.complex128(z) ** k


@pytest.mark.parametrize("q", ARRAY_QS)
def test_lq_is_log_derivative_of_theta(q, rng):
    # theta_q(z) = jtheta(4, v, sqrt(q)) with e^(2iv) = z/sqrt(q), so
    # l_q(z) = -z theta_q'(z)/theta_q(z) = (i/2) d/dv log jtheta(4, v, sqrt(q))
    ctx = QContext(q)
    with mpmath.workdps(40):
        nome = mpmath.sqrt(mpmath.mpc(q))

        def jtheta4(v):
            return mpmath.jtheta(4, v, nome)

        for z in _points(rng, 20):
            v = mpmath.log(mpmath.mpc(z) / nome) / 2j
            ref = complex(0.5j * mpmath.diff(jtheta4, v) / jtheta4(v))
            assert abs(lq(z, ctx) - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("q", ARRAY_QS)
def test_lq_array_matches_scalar_elementwise(q, rng):
    ctx = QContext(q)
    zs = np.array(_points(rng, 27))
    for shaped in (zs, zs.reshape(3, 3, 3)):
        out = lq(shaped, ctx)
        assert out.shape == shaped.shape
        for z, ell in zip(shaped.ravel(), out.ravel()):
            assert ell == lq(complex(z), ctx)
