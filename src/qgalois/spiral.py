"""q-spiral arithmetic on C* = U x q^R.

Every nonzero complex number factors uniquely as c = u * q^omega with |u| = 1
and omega real.  This module provides that decomposition, the discrete-spiral
membership test c in q^Z, the clearance of c from q^Z, the branch-fixed
logarithm log_q (the last two also elementwise over arrays), and the two
projections gamma1, gamma2 used for local Galois generators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .context import QContext
from .errors import DomainError


@dataclass(frozen=True)
class SpiralPoint:
    """c = u * q^omega with |u| = 1 and omega real."""

    u: complex
    omega: float


class SpiralVerdict(NamedTuple):
    """Outcome of a q^Z membership test; distance is relative to |q^k|."""

    member: bool
    k: int
    distance: float


def decompose(c: complex, ctx: QContext) -> SpiralPoint:
    """Split c = u * q^omega, |u| = 1, omega real."""
    if c == 0:
        raise DomainError("cannot decompose 0")
    # |q^omega| = exp(omega * Re log q), so omega is fixed by |c| alone.
    omega = math.log(abs(c)) / ctx.log_q.real
    u = c / ctx.qpow(omega)
    return SpiralPoint(u=u / abs(u), omega=omega)


def in_q_spiral(c: complex, ctx: QContext) -> SpiralVerdict:
    """Is c on the discrete spiral q^Z, within eps_spiral relative tolerance?

    With c = u * q^omega, k is the nearer of floor(omega) and ceil(omega) and
    the distance |c - q^k| / |q^k| is spiral_clearance(c), in scalar
    arithmetic."""
    if c == 0:
        raise DomainError("cannot decompose 0")
    lnq = ctx.log_q
    below = math.floor(math.log(abs(c)) / lnq.real)
    candidates = []
    for k in (below, below + 1):
        qk = cmath.exp(k * lnq)
        candidates.append((abs(c - qk) / abs(qk), k))
    distance, k = min(candidates)
    return SpiralVerdict(distance < ctx.eps_spiral, k, distance)


def log_q(c, ctx: QContext):
    """A logarithm base q: q^(log_q c) = c, at a complex c or elementwise over
    an array (same shape back).

    Branch: with c = u * q^omega, the phase t = arg(u)/(2*pi) is taken in
    [0, 1), so the discontinuity sits on the spiral q^R approached
    counterclockwise (for real q in (0,1): the positive real axis approached
    from below).  The value is omega + 2*pi*i*t / log q.
    """
    c = np.asarray(c, dtype=complex)
    if not c.all():
        raise DomainError("cannot decompose 0")
    lnq = ctx.log_q
    omega = np.log(np.abs(c)) / lnq.real
    t = np.angle(c / np.exp(omega * lnq)) / (2.0 * math.pi)
    out = omega + (2j * math.pi / lnq) * np.where(t < 0.0, t + 1.0, t)
    return complex(out) if out.ndim == 0 else out


def spiral_clearance(c, ctx: QContext):
    """Relative distance from c to the discrete spiral q^Z, at a complex c or
    elementwise over an array (same shape back).

    With c = u * q^omega this is the smaller of |c - q^k| / |q^k| for
    k = floor(omega) and k = ceil(omega).  It equals the minimum over all
    integers k wherever either is below 1 - |q|: every other q^k lies at least
    that far away.
    """
    c = np.asarray(c, dtype=complex)
    lnq = ctx.log_q
    k = np.floor(np.log(np.abs(c)) / lnq.real)
    below = np.abs(c * np.exp(-k * lnq) - 1.0)
    above = np.abs(c * np.exp(-(k + 1.0) * lnq) - 1.0)
    out = np.minimum(below, above)
    return float(out) if out.ndim == 0 else out


def gamma1(c: complex, ctx: QContext) -> complex:
    """Projection of c = u * q^omega onto the unit-circle factor u."""
    return decompose(c, ctx).u


def gamma2(c: complex, ctx: QContext) -> complex:
    """c = u * q^omega maps to e^(2*pi*i*omega)."""
    return cmath.exp(2j * math.pi * decompose(c, ctx).omega)
