"""Shared evaluation context: the deformation parameter q and numeric policy.

Every numeric routine in the package is a pure function of its inputs and a
QContext.  The context fixes q with 0 < |q| < 1, the principal branch of
log q, and the truncation / spiral-membership tolerances.  The hard cap on
series and product terms is not a setting: it is the qseries constant _N_MAX.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class QContext:
    """Deformation parameter and numeric policy.

    q          : complex with 0 < |q| < 1.
    eps_trunc  : tail bound at which series/products are truncated.
    eps_spiral : relative tolerance for q^Z spiral membership verdicts.
    """

    q: complex
    eps_trunc: float = 1e-12
    eps_spiral: float = 1e-9

    def __post_init__(self):
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError(f"need 0 < |q| < 1, got |q| = {abs(self.q)}")
        if self.eps_trunc <= 0 or self.eps_spiral <= 0:
            raise DomainError("tolerances must be positive")

    @property
    def log_q(self) -> complex:
        """Principal logarithm of q."""
        return cmath.log(self.q)

    def qpow(self, y: complex) -> complex:
        """q**y along the fixed branch: exp(y * log q)."""
        return cmath.exp(y * self.log_q)


@dataclass(frozen=True)
class TruncationReport:
    """How a truncated series/product evaluation went; one that does not
    converge raises NonConvergentError instead."""

    terms_used: int
    tail_bound: float
