"""q-analytic primitives: Pochhammer symbols, Jacobi theta, q-characters,
the q-logarithm, and the 3phi2 basic hypergeometric series.

All evaluations are error-bounded: truncated series/products stop once a
geometric tail bound drops below ctx.eps_trunc, and raise NonConvergentError
past the hard cap of _N_MAX terms; the series-valued operations return a
TruncationReport alongside the value.  theta and lq also take an array of z,
and qcharacter arrays of lambda and z; the theta series has one truncation order
per context, so every element gets the same arithmetic as a scalar.
"""

from __future__ import annotations

import cmath
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
from .spiral import spiral_clearance

__all__ = [
    "qpochhammer_infinite",
    "theta",
    "theta_triple_product",
    "qcharacter",
    "lq",
    "qhyper_series",
]

_LOG_MAX = math.log(sys.float_info.max)
_N_MAX = 10_000  # hard cap on series and product terms


def qpochhammer_infinite(a: complex, ctx: QContext) -> tuple[complex, TruncationReport]:
    """(a;q)_infinity, truncated once the multiplicative tail |a| |q|^N/(1-|q|)
    falls below eps_trunc.  Raises DomainError at a non-finite a."""
    if not cmath.isfinite(a):
        raise DomainError(f"(a;q)_inf needs a finite a, got {a}")
    absq = abs(ctx.q)
    out = 1.0 + 0j
    aq = complex(a)
    n = 0
    while abs(aq) / (1.0 - absq) >= ctx.eps_trunc:
        out *= 1.0 - aq
        aq *= ctx.q
        n += 1
        if n > _N_MAX:
            raise NonConvergentError(
                f"(a;q)_inf tail not below {ctx.eps_trunc} after {_N_MAX} factors"
            )
    tail = abs(aq) / (1.0 - absq)
    return out, TruncationReport(terms_used=n, tail_bound=tail)


@functools.lru_cache(maxsize=16)
def _theta_plan(ctx: QContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z-independent part of the bilateral theta series at ctx: the step
    factors -q^(n-1) (upward) and -q^n (downward) for n = 1..N as columns, and
    the weights 1 and n of the sums behind theta and w theta', shape
    (2, 2N + 1, 1), for the terms in summation order n = 0, 1, ..., N, -1,
    ..., -N.

    N is the smallest n with |q|^(n(n-2)/2) (1 + n^2) < eps_trunc.  On the
    core annulus |q|^(1/2) <= |w| <= |q|^(-1/2) this bounds the last term in
    both directions, and the n-weighted terms of the derivative series.  The
    arrays are read-only.
    """
    lq = -math.log(abs(ctx.q))
    n = 1
    while 0.5 * n * (n - 2) * lq < math.log((1.0 + n * n) / ctx.eps_trunc):
        n += 1
        if n > _N_MAX:
            raise NonConvergentError("theta series did not converge")
    qpow = np.cumprod(np.full(n, ctx.q, dtype=complex))  # q, ..., q^N
    up = -np.concatenate(([1.0], qpow[:-1]))[:, None]
    down = -qpow[:, None]
    index = np.arange(n + 1, dtype=float)
    index = np.concatenate((index, -index[1:]))[:, None]
    moments = np.stack((np.ones_like(index), index))
    for arr in (up, down, moments):
        arr.flags.writeable = False
    return up, down, moments


def _theta_terms(w: np.ndarray, ctx: QContext) -> tuple[np.ndarray, np.ndarray]:
    """Terms (-1)^n q^(n(n-1)/2) w^n of the bilateral series for a 1-d array
    w on the core annulus, one row per n in summation order, and the
    weights of _theta_plan.  Each term is the previous one times its step
    factor."""
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
    out = f * np.add.accumulate(terms, axis=0)[-1]
    if not np.isfinite(out).all():
        raise DomainError(f"theta leaves double range at z = {z}")
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def theta_triple_product(z: complex, ctx: QContext) -> complex:
    """theta_q via the triple product directly; independent cross-check of theta."""
    if z == 0:
        raise DomainError("theta undefined at z = 0")
    return (
        qpochhammer_infinite(ctx.q, ctx)[0]
        * qpochhammer_infinite(z, ctx)[0]
        * qpochhammer_infinite(ctx.q / z, ctx)[0]
    )


def qcharacter(lam, z, ctx: QContext):
    """The q-character e_lam: meromorphic solution of e(qz) = lam * e(z), at
    a complex lam and z, or elementwise over arrays of lam and z that
    broadcast against each other (the broadcast shape back).

    For |q| < |lam| <= 1 it is theta_q(z)/theta_q(lam*z); outside that
    annulus e_lam = z^(-k) e_(lam q^k) with the integer k that brings lam q^k
    into it.  The annulus is half-open at the |q| end and e_1 is 1, so
    e_(q^k)(z) = z^k exactly.  All thetas come from one call, theta_q(z) once
    per z.  Raises DomainError at a zero or non-finite lam or z.
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if not (z.all() and np.isfinite(z).all() and lam.all() and np.isfinite(lam).all()):
        raise DomainError("qcharacter needs finite nonzero lam and z")
    # at least 1-d throughout, so that a scalar rounds as it does within an array
    lam1, z1 = np.atleast_1d(lam, z)
    flat = lam1.reshape(-1)
    absq = abs(ctx.q)
    # k from the logs, then one step with the exact tests of the annulus edges
    k = np.ceil(np.log(np.abs(flat)) / -math.log(absq))
    size = np.abs(flat * ctx.q ** k)
    k[size > 1.0 + 1e-14] += 1.0
    k[size <= absq * (1.0 + 1e-14)] -= 1.0
    k = k.reshape(lam1.shape)
    scaled = lam1 * ctx.q ** k
    lz = scaled * z1
    clearance = spiral_clearance(lz, ctx)
    if (clearance < ctx.eps_spiral).any():
        raise PoleError(f"qcharacter pole: lam*z within {clearance.min():.2e} of q^Z")
    th = theta(np.concatenate((z1.reshape(-1), lz.reshape(-1))), ctx)
    ratio = th[: z1.size].reshape(z1.shape) / th[z1.size :].reshape(lz.shape)
    prefac = z1 ** -k
    out = np.where(scaled == 1.0, prefac, prefac * ratio)
    return complex(out[0]) if lam.ndim == z.ndim == 0 else out


def lq(z, ctx: QContext):
    """q-logarithm l_q(z) = -z * theta'_q(z)/theta_q(z), with l_q(qz) =
    l_q(z) + 1, at a complex z or elementwise over an array (same shape back).

    With z = q^k w and w on the core annulus (as in theta), the sums
    s0 = theta(w) and s1 = w theta'(w) come from the same terms as theta, and
    l_q(z) = k - s1/s0.  Raises PoleError within eps_spiral of q^Z and
    DomainError at z = 0, at a non-finite z and where theta leaves double
    range.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    if not (flat.all() and np.isfinite(flat).all()):
        raise DomainError("lq needs finite nonzero z")
    clearance = spiral_clearance(flat, ctx)
    if (clearance < ctx.eps_spiral).any():
        raise PoleError(f"lq pole: z within {clearance.min():.2e} of q^Z")
    k, w, _ = _theta_shift(flat, ctx)
    terms, moments = _theta_terms(w, ctx)
    s0, s1 = np.add.accumulate(moments * terms, axis=1)[:, -1]
    out = k - s1 / s0
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def qhyper_series(
    num: Sequence[complex],
    den: Sequence[complex],
    z: complex,
    ctx: QContext,
) -> tuple[complex, TruncationReport]:
    """sum_n  prod_i (num_i;q)_n / prod_j (den_j;q)_n  * z^n  for |z| < 1.

    With three numerator and three denominator parameters this is the 3phi2
    series; the denominator tuple carries its own copy of q when the
    classical normalization is wanted.  Raises DomainError at a non-finite z
    or parameter.
    """
    nums = [complex(v) for v in num]
    dens = [complex(v) for v in den]
    # one test for every input: a NaN or an infinity anywhere makes the sum
    # non-finite (a NaN term would never meet the tail bound)
    if not cmath.isfinite(z + sum(nums) + sum(dens)):
        raise DomainError("3phi2 series needs a finite z and finite parameters")
    az = abs(z)
    if az >= 1.0:
        raise DivergenceError(f"series needs |z| < 1, got {az}")
    if z == 0:
        return 1.0 + 0j, TruncationReport(terms_used=1, tail_bound=0.0)
    term = 1.0 + 0j
    total = 1.0 + 0j
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
            return total, TruncationReport(terms_used=n + 1, tail_bound=tail)
        if n > _N_MAX:
            raise NonConvergentError("q-hypergeometric series hit the term cap")

