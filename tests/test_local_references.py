"""The local solutions against mpmath references at 40-50 digits: the gauge
matrix at infinity against its own column recipe, and both logarithmic
limits against the exact product F(eps) M(eps) at a tiny eps."""

import cmath

import mpmath
import numpy as np
import pytest

from qgalois import (
    HyperParams,
    QContext,
    local_solution_infinity,
    local_solution_infinity_log,
    local_solution_zero_log,
)

K0 = [[1, -1, 1], [1, 0, 0], [1, 1, 0]]


def _phi(num, den, x, q):
    """sum_n prod (num;q)_n / prod (den;q)_n x^n at the working precision."""
    tol = mpmath.mpf(10) ** (-mpmath.mp.dps - 3)
    nums, dens = list(num), list(den)
    term = total = mpmath.mpc(1)
    n = 0
    while n < 4 or abs(term) > tol * abs(total):
        for v in nums:
            term *= 1 - v
        for v in dens:
            term /= 1 - v
        term *= x
        total += term
        nums = [v * q for v in nums]
        dens = [v * q for v in dens]
        n += 1
    return total


def _f_zero_ref(a, b, q, z):
    """F at 0: entry (r, k) is s_k^r 3phi2(s_k a; s_k b; q^r z), s_k = q/b_k."""
    s = [q / bk for bk in b]
    return mpmath.matrix(
        [[s[k] ** r * _phi([s[k] * v for v in a], [s[k] * v for v in b], q ** r * z, q)
          for k in range(3)] for r in range(3)]
    )


def _f_infinity_ref(a, b, q, z):
    """F at infinity: entry (r, k) is a_k^-r 3phi2(a_k q/b; a_k q/a; q^(1-r) c0/z)
    with c0 = b2 b3/(a1 a2 a3)."""
    c0 = b[1] * b[2] / (a[0] * a[1] * a[2])
    return mpmath.matrix(
        [[a[k] ** -r * _phi([a[k] * q / v for v in b], [a[k] * q / v for v in a],
                             q ** (1 - r) * c0 / z, q)
          for k in range(3)] for r in range(3)]
    )


def _vandermonde(r):
    return mpmath.matrix([[1, 1, 1], list(r), [v * v for v in r]])


def _rel(F, ref):
    ref = np.array(ref.tolist(), dtype=complex)
    return float(np.max(np.abs(F - ref)) / np.max(np.abs(ref)))


def _mp(v):
    return mpmath.mpc(complex(v))


@pytest.mark.parametrize("q", [0.5, 0.7, 0.5 * cmath.exp(0.5j), 0.9])
def test_f_infinity_matches_its_column_recipe(q):
    # the column scalings a_k^-r are invisible to the gauge identity
    # F(qz) J = A F(z), J being diagonal; this pins them
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    loc = local_solution_infinity(p, ctx)
    a, b, qm = [_mp(v) for v in p.a], [_mp(v) for v in p.b(ctx)], _mp(q)
    worst = 0.0
    with mpmath.workdps(40):
        for scale, angle in ((1.0, 0.4), (1.0, 2.9), (2.5, -1.3)):
            z = scale * loc.radius * cmath.exp(1j * angle)
            worst = max(worst, _rel(loc.F(z), _f_infinity_ref(a, b, qm, _mp(z))))
    assert worst < 1e-13


def _limit_zero_ref(p, ctx, z, eps):
    """F(a, (q, q(1+eps), q(1+2 eps)); z) V(1, q/b2, q/b3)^-1 K0, all in mpmath."""
    q = _mp(ctx.q)
    b = [q, q * (1 + eps), q * (1 + 2 * eps)]
    M = _vandermonde([q / v for v in b]) ** -1 * mpmath.matrix(K0)
    return _f_zero_ref([_mp(v) for v in p.a], b, q, _mp(z)) * M


def _limit_infinity_ref(p, ctx, z, eps):
    """F(a(eps), (q,q,q); z) V(q a(eps))^-1 W(a) with a(eps) = (a, a(1+eps),
    a(1+eps)^2), all in mpmath."""
    q, a = _mp(ctx.q), _mp(p.a[0])
    ae = [a, a * (1 + eps), a * (1 + eps) ** 2]
    W = mpmath.matrix(
        [[a ** -2, -1 / a, 1], [a ** -3, 0, 0], [a ** -4, a ** -3, 0]]
    )
    M = _vandermonde([1 / v for v in ae]) ** -1 * W
    return _f_infinity_ref(ae, [q, q, q], q, _mp(z)) * M


@pytest.mark.parametrize("q", [0.5, 0.7, 0.5 * cmath.exp(0.5j), 0.9])
@pytest.mark.parametrize("side", ["zero", "infinity"])
def test_ladder_limits_match_the_exact_product(q, side):
    # case iii at 0 and case iv at infinity: the circle mean of five frames
    # against F(eps) M(eps) at eps = 1e-20, whose own error is O(eps)
    ctx = QContext(q)
    if side == "zero":
        p = HyperParams(a=tuple(ctx.qpow(x) for x in (0.13, 0.37, 0.71)), b2=ctx.q, b3=ctx.q)
        loc, z, ref = local_solution_zero_log(p, ctx), 0.35 * cmath.exp(1.2j), _limit_zero_ref
    else:
        a = ctx.qpow(0.3)
        p = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
        loc = local_solution_infinity_log(p, ctx)
        z, ref = 1.3 * loc.radius * cmath.exp(0.7j), _limit_infinity_ref
    with mpmath.workdps(50):
        expect = ref(p, ctx, z, mpmath.mpf("1e-20"))
    assert _rel(loc.F(z), expect) < 1e-8
