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
    """Iterative solver stalled above its tolerance; carries its best residual and iteration count."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BracketInvalidError(DegenlsError, ValueError):
    """Shooting found no overshoot in 64 doublings of the central value beta."""


class StiffnessFailureError(DegenlsError, RuntimeError):
    """A shot's RK45 step fell below 10 ulp of rho, at whatever rho the shot had reached."""


class SingularLPlusError(DegenlsError, RuntimeError):
    """The L+ solve is ill-conditioned: an eigenvalue lies in the kernel band around zero.

    The band is the one the Morse counts use, max(tol_zero, 4 eps max|diag(L+)|).
    """


class EigensolverError(DegenlsError, RuntimeError):
    """LAPACK eigensolver breakdown; never silently truncated."""


class FixedPointDivergenceError(DegenlsError, RuntimeError):
    """Crank-Nicolson inner fixed-point iteration failed to contract (blow-up signal)."""


class WindowTooShortError(DegenlsError, ValueError):
    """Decay-fit window contains fewer than 32 usable nodes."""


class ResolutionInsufficientError(DegenlsError, RuntimeError):
    """Origin extrapolation sequence is non-monotone; grid does not resolve the first shells."""
