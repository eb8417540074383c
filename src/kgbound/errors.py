"""Exception and warning types shared across the package."""


class KGBoundError(Exception):
    """Base class for all kgbound-specific errors."""


class InvalidParameter(KGBoundError, ValueError):
    """A parameter or quantum number is out of range or not finite."""


class DegenerateProblem(KGBoundError):
    """The square-root discriminant does not depend on the shift constant k."""


class NoAdmissibleBranch(KGBoundError):
    """No solution branch has a decreasing tau and a normalizable phi factor."""


class UnsupportedSigma(KGBoundError):
    """Factor derivation requires sigma(z) = c*z with c > 0."""


class UnrealRadicand(KGBoundError):
    """A square-root argument in the closed-form spectrum is negative."""


class EnergyOutOfWindow(KGBoundError):
    """|E + V0| exceeds the rest energy, where epsilon would be imaginary, or
    an oracle window end meets it, where epsilon is 0."""


class NotBound(KGBoundError):
    """Wavefunction construction requires a level with status 'bound'."""


class NonNormalizable(KGBoundError):
    """The wavefunction has no finite norm (non-positive decay rate)."""


class ConvergenceFailure(KGBoundError):
    """The tridiagonal eigensolver failed or returned a wrongly-indexed mode."""


class NoBracket(KGBoundError):
    """The outer energy scan found no sign change of the matching function."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan or []


class MultipleBranches(UserWarning):
    """More than one admissible branch; the smallest-lambda one was chosen."""
