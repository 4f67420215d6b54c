"""q-analytic primitives: Pochhammer symbols, Jacobi theta, q-characters,
the q-logarithm, and the 3phi2 basic hypergeometric series.

All evaluations are error-bounded: truncated series/products stop once a
geometric tail bound drops below ctx.eps_trunc, with a hard cap of ctx.n_max
terms, and the series-valued operations return a TruncationReport alongside
the value.  theta also takes an array of z; its series has one truncation
order per context, so every element gets the same arithmetic as a scalar.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Sequence

import numpy as np

from .context import QContext, TruncationReport
from .errors import (
    DivergenceError,
    DomainError,
    NonConvergentError,
    PoleError,
)
from .spiral import in_q_spiral

__all__ = [
    "qpochhammer_finite",
    "qpochhammer_infinite",
    "qpoch_inf_product",
    "theta",
    "theta_d1",
    "theta_d2",
    "theta_triple_product",
    "qcharacter",
    "lq",
    "lq_binom",
    "phi3_2",
    "qhyper_series",
]

_LOG_MAX = math.log(sys.float_info.max)


def qpochhammer_finite(a: complex, ctx: QContext, n: int) -> complex:
    """(a;q)_n = (1-a)(1-aq)...(1-aq^(n-1)); the empty product (n=0) is 1."""
    if n < 0:
        raise DomainError("n must be >= 0")
    out = 1.0 + 0j
    aq = complex(a)
    for _ in range(n):
        out *= 1.0 - aq
        aq *= ctx.q
    return out


def qpochhammer_infinite(a: complex, ctx: QContext) -> tuple[complex, TruncationReport]:
    """(a;q)_infinity, truncated once the multiplicative tail |a| |q|^N/(1-|q|)
    falls below eps_trunc."""
    absq = abs(ctx.q)
    out = 1.0 + 0j
    aq = complex(a)
    n = 0
    while abs(aq) / (1.0 - absq) >= ctx.eps_trunc:
        out *= 1.0 - aq
        aq *= ctx.q
        n += 1
        if n > ctx.n_max:
            raise NonConvergentError(
                f"(a;q)_inf tail not below {ctx.eps_trunc} after {ctx.n_max} factors"
            )
    tail = abs(aq) / (1.0 - absq)
    return out, TruncationReport(terms_used=n, tail_bound=tail, converged=True)


def qpoch_inf_product(values: Sequence[complex], ctx: QContext) -> complex:
    """Product of (v;q)_infinity over a tuple of arguments."""
    out = 1.0 + 0j
    for v in values:
        out *= qpochhammer_infinite(v, ctx)[0]
    return out


@functools.lru_cache(maxsize=16)
def _theta_plan(ctx: QContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z-independent part of the bilateral theta series at ctx: the step
    factors -q^(n-1) (upward) and -q^n (downward) for n = 1..N as columns, and
    the weights 1, n and n(n-1) of the derivative sums, shape (3, 2N + 1, 1),
    for the terms in summation order n = 0, 1, ..., N, -1, ..., -N.

    N is the smallest n with |q|^(n(n-2)/2) (1 + n^2) < eps_trunc.  On the
    core annulus |q|^(1/2) <= |w| <= |q|^(-1/2) this bounds the last term in
    both directions, and the n- and n^2-weighted terms of the derivative
    series.  The arrays are read-only.
    """
    lq = -math.log(abs(ctx.q))
    n = 1
    while 0.5 * n * (n - 2) * lq < math.log((1.0 + n * n) / ctx.eps_trunc):
        n += 1
        if n > ctx.n_max:
            raise NonConvergentError("theta series did not converge")
    qpow = np.cumprod(np.full(n, ctx.q, dtype=complex))  # q, ..., q^N
    up = -np.concatenate(([1.0], qpow[:-1]))[:, None]
    down = -qpow[:, None]
    index = np.arange(n + 1, dtype=float)
    index = np.concatenate((index, -index[1:]))[:, None]
    moments = np.stack((np.ones_like(index), index, index * (index - 1.0)))
    for arr in (up, down, moments):
        arr.flags.writeable = False
    return up, down, moments


def _theta_terms(w: np.ndarray, ctx: QContext) -> tuple[np.ndarray, np.ndarray]:
    """Terms (-1)^n q^(n(n-1)/2) w^n of the bilateral series for a 1-d array
    w on the core annulus, one row per n in summation order, and the
    derivative weights of _theta_plan.  Each term is the previous one times
    its step factor."""
    up, down, moments = _theta_plan(ctx)
    n = len(up)
    terms = np.empty((2 * n + 1, w.size), dtype=complex)
    terms[0] = 1.0
    np.multiply.accumulate(up * w, axis=0, out=terms[1 : n + 1])
    np.multiply.accumulate(down / w, axis=0, out=terms[n + 1 :])
    return terms, moments


def _theta_shift(z: np.ndarray, ctx: QContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, w, f) for a 1-d array z: z = q^k w with k = round(log|z| / log|q|),
    so that w lies on the core annulus, and f = (-1)^k q^(-k(k-1)/2) w^(-k),
    the factor in theta(q^k w) = f theta(w).  Raises DomainError at z = 0 and
    where f overflows."""
    if not z.all():
        raise DomainError("theta undefined at z = 0")
    lnq = ctx.log_q
    log_z = np.log(z)
    k = np.rint(log_z.real / lnq.real)
    log_w = log_z - k * lnq
    # (-1)^k w^(-k) = exp(-k (log w + i pi)) for integer k
    expo = k * ((-0.5 * lnq) * (k - 1.0) - log_w - 1j * math.pi)
    if (expo.real > _LOG_MAX).any():
        raise DomainError(f"theta leaves double range at z = {z[expo.real > _LOG_MAX][0]}")
    return k, np.exp(log_w), np.exp(expo)


def _checked(values: np.ndarray, z) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError(f"theta leaves double range at z = {z}")
    return values


def theta(z, ctx: QContext):
    """Jacobi theta theta_q(z) = (q;q)_inf (z;q)_inf (q/z;q)_inf, at a complex
    z or elementwise over an array (same shape back).

    Satisfies theta_q(qz) = -theta_q(z)/z; simple zeros exactly on q^Z.  Each
    z is mapped to the core annulus with the functional equation in closed
    form, where the bilateral series is summed to a truncation order fixed by
    ctx.eps_trunc.  Raises DomainError at z = 0 and where the value leaves
    double range.
    """
    z = np.asarray(z, dtype=complex)
    _, w, f = _theta_shift(z.reshape(-1), ctx)
    terms, _ = _theta_terms(w, ctx)
    out = _checked(f * np.add.accumulate(terms, axis=0)[-1], z)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _theta_jet(z: complex, ctx: QContext) -> tuple[complex, complex, complex]:
    """(theta, theta', theta'') at one z != 0: the series on the core annulus
    and its derivatives, carried to z by differentiating
    theta(z) = f(z) theta(z q^-k) with f(z) = (-1)^k q^(k(k+1)/2) z^-k."""
    k, w, f = _theta_shift(np.array([z], dtype=complex), ctx)
    terms, moments = _theta_terms(w, ctx)
    # s_j = w^j times the j-th derivative of the series at w
    s0, s1, s2 = np.add.accumulate(moments * terms, axis=1)[:, -1]
    jet = np.array([
        f * s0,
        f * (s1 - k * s0) / z,
        f * (s2 - 2.0 * k * s1 + k * (k + 1.0) * s0) / z / z,
    ])
    return tuple(complex(v) for v in _checked(jet, z)[:, 0])


def theta_d1(z: complex, ctx: QContext) -> complex:
    """First derivative of theta_q; DomainError where it leaves double range."""
    return _theta_jet(z, ctx)[1]


def theta_d2(z: complex, ctx: QContext) -> complex:
    """Second derivative of theta_q; DomainError where it leaves double range."""
    return _theta_jet(z, ctx)[2]


def theta_triple_product(z: complex, ctx: QContext) -> complex:
    """theta_q via the triple product directly; independent cross-check of theta."""
    if z == 0:
        raise DomainError("theta undefined at z = 0")
    return (
        qpochhammer_infinite(ctx.q, ctx)[0]
        * qpochhammer_infinite(z, ctx)[0]
        * qpochhammer_infinite(ctx.q / z, ctx)[0]
    )


def qcharacter(lam: complex, z: complex, ctx: QContext) -> complex:
    """The q-character e_lam: meromorphic solution of e(qz) = lam * e(z).

    For |q| < |lam| <= 1 it is theta_q(z)/theta_q(lam*z); outside that annulus
    lam is rescaled by integer q-powers using e_(q*lam) = z * e_lam.  (The
    annulus is half-open at the |q| end so that e_1 is identically 1.)
    """
    if lam == 0 or z == 0:
        raise DomainError("qcharacter needs lam != 0 and z != 0")
    absq = abs(ctx.q)
    lam = complex(lam)
    prefac = 1.0 + 0j
    guard = 0
    while abs(lam) > 1.0 + 1e-14:
        # e_lam = e_(q*lam) / z
        lam *= ctx.q
        prefac /= z
        guard += 1
        if guard > ctx.n_max:
            raise NonConvergentError("qcharacter rescaling loop stuck")
    while abs(lam) <= absq * (1.0 + 1e-14):
        # e_lam = z * e_(lam/q)
        lam /= ctx.q
        prefac *= z
        guard += 1
        if guard > ctx.n_max:
            raise NonConvergentError("qcharacter rescaling loop stuck")
    pole = in_q_spiral(lam * z, ctx)
    if pole.member:
        raise PoleError(
            f"qcharacter pole: lam*z within {pole.distance:.2e} of q^{pole.k}"
        )
    th = theta(np.array([z, lam * z]), ctx)
    return prefac * complex(th[0] / th[1])


def lq(z: complex, ctx: QContext) -> complex:
    """q-logarithm l_q(z) = -z * theta'_q(z)/theta_q(z); l_q(qz) = l_q(z) + 1.

    Raises DomainError where theta or theta' leaves double range."""
    if z == 0:
        raise DomainError("lq undefined at z = 0")
    zero = in_q_spiral(z, ctx)
    if zero.member:
        raise PoleError(f"lq pole: z within {zero.distance:.2e} of q^{zero.k}")
    t0, t1, _ = _theta_jet(z, ctx)
    return -z * t1 / t0


def lq_binom(z: complex, ctx: QContext, k: int) -> complex:
    """Binomial coefficient binom(l_q(z), k) with complex upper argument."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return 1.0 + 0j
    ell = lq(z, ctx)
    out = 1.0 + 0j
    for j in range(k):
        out *= ell - j
    return out / math.factorial(k)


def qhyper_series(
    num: Sequence[complex],
    den: Sequence[complex],
    z: complex,
    ctx: QContext,
) -> tuple[complex, TruncationReport]:
    """sum_n  prod_i (num_i;q)_n / prod_j (den_j;q)_n  * z^n  for |z| < 1.

    General kernel behind phi3_2; the denominator tuple carries its own copy of
    q when the classical normalization is wanted.
    """
    az = abs(z)
    if az >= 1.0:
        raise DivergenceError(f"series needs |z| < 1, got {az}")
    if z == 0:
        return 1.0 + 0j, TruncationReport(terms_used=1, tail_bound=0.0, converged=True)
    term = 1.0 + 0j
    total = 1.0 + 0j
    nums = [complex(v) for v in num]
    dens = [complex(v) for v in den]
    n = 0
    while True:
        ratio = z
        for i, v in enumerate(nums):
            ratio *= 1.0 - v
            nums[i] = v * ctx.q
        for j, v in enumerate(dens):
            f = 1.0 - v
            if abs(f) < 1e-14:
                raise PoleError(f"denominator Pochhammer factor vanishes at n = {n}")
            ratio /= f
            dens[j] = v * ctx.q
        term *= ratio
        total += term
        n += 1
        # Beyond the parameter transient the term ratio tends to z, so the tail
        # is essentially geometric with ratio |z|.
        tail = abs(term) * az / (1.0 - az)
        if tail < ctx.eps_trunc and n >= 4:
            return total, TruncationReport(terms_used=n + 1, tail_bound=tail, converged=True)
        if n > ctx.n_max:
            raise NonConvergentError("q-hypergeometric series hit the term cap")


def phi3_2(
    a: Sequence[complex],
    b: Sequence[complex],
    z: complex,
    ctx: QContext,
) -> tuple[complex, TruncationReport]:
    """The order-3 basic hypergeometric series
    sum_n (a1,a2,a3;q)_n / (b1,b2,b3;q)_n z^n, conventionally with b1 = q."""
    if len(a) != 3 or len(b) != 3:
        raise DomainError("phi3_2 takes parameter triples")
    return qhyper_series(a, b, z, ctx)
