"""Exception hierarchy for the qgalois toolkit."""


class QGaloisError(Exception):
    """Base class for all toolkit-specific errors."""


class DomainError(QGaloisError, ValueError):
    """Input outside the mathematical domain of an operation (e.g. z = 0)."""


class PoleError(QGaloisError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole."""


class NonConvergentError(QGaloisError, RuntimeError):
    """A series or product failed to meet its tail bound within the term cap."""


class DivergenceError(QGaloisError, ValueError):
    """Series argument outside the disc of convergence."""


class NotUnimodularError(QGaloisError, ValueError):
    """A 2x2 matrix expected to have determinant 1 does not."""


class BadIndexError(QGaloisError, IndexError):
    """Minor indices outside {1,2,3} or not distinct."""


class ResonantError(QGaloisError, ValueError):
    """Local exponent ratios collide with q^Z, blocking the generic construction."""


class PoleChainError(QGaloisError, ArithmeticError):
    """A q-shift continuation chain passes through a coefficient pole."""


class ExtrapolationDivergedError(QGaloisError, RuntimeError):
    """The epsilon-ladder limit failed to stabilize."""


class SpiralCollisionError(QGaloisError, ValueError):
    """Parameters violate a genericity hypothesis (some ratio lies on q^Z)."""


class SingularSolutionError(QGaloisError, ArithmeticError):
    """A fundamental solution matrix is singular at the requested point."""


class BasePointSingularError(QGaloisError, ValueError):
    """The chosen base point sits on a zero/pole spiral of the connection matrix."""
