"""Exception types raised by the solvers and diagnostics."""


class DegenlsError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(DegenlsError, ValueError):
    """Parameter tuple outside the admissible ranges (d >= 1, 0 <= a < 1, p > 1, omega > 0)."""


class InvalidWindowError(DegenlsError, ValueError):
    """Parameters violate the existence window 1/2 - 1/(p+1) < (1-a)/d."""


class GridRangeError(DegenlsError, ValueError):
    """A rescaled profile needs values outside the source grid's resolvable range."""


class NonConvergenceError(DegenlsError, RuntimeError):
    """Iterative solver exhausted max_iter; carries the last residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BracketInvalidError(DegenlsError, ValueError):
    """Shooting bracket endpoints classify identically (or hit the constant-solution degeneracy)."""


class StiffnessFailureError(DegenlsError, RuntimeError):
    """ODE integrator failed near the degenerate origin, or two integrations of one shot disagree."""


class SingularLPlusError(DegenlsError, RuntimeError):
    """The L+ solve is ill-conditioned: an eigenvalue sits within 1e-10 of zero."""


class EigensolverError(DegenlsError, RuntimeError):
    """LAPACK eigensolver breakdown; never silently truncated."""


class FixedPointDivergenceError(DegenlsError, RuntimeError):
    """Crank-Nicolson inner fixed-point iteration failed to contract (blow-up signal)."""


class WindowTooShortError(DegenlsError, ValueError):
    """Decay-fit window contains fewer than 32 usable nodes."""


class ResolutionInsufficientError(DegenlsError, RuntimeError):
    """Origin extrapolation sequence is non-monotone; grid does not resolve the first shells."""
