"""Exception types shared across the dimerwave solver suite."""


class DimerwaveError(Exception):
    """Base class for all dimerwave-specific errors."""


class InvalidParams(DimerwaveError):
    """Lattice parameters violate the standing hypotheses (kappa > 1, beta != 0, ...)."""


class UnresolvedAmplitude(InvalidParams):
    """The solved ripple amplitude lies below the noise floor of the solve's dtype."""


class UnresolvedCorrector(InvalidParams):
    """The converged corrector is not even, or has not decayed inside the line
    window: the window cannot hold it."""


class RootNotBracketed(InvalidParams):
    """The resonance root is not bracketed by the analytic interval; eps out of range."""


class NearSingularMode(DimerwaveError):
    """A periodic mode other than the resonant one sits too close to a zero of the
    traveling-wave symbol; signals a spurious secondary resonance."""


class NoConvergence(DimerwaveError):
    """A fixed-point iteration failed to contract within the allowed iterations."""


class DegenerateSolvability(InvalidParams):
    """The solvability functional of the ripple correction is numerically zero, so
    the resonant amplitude equation cannot be solved."""


class LinearSolveFailure(DimerwaveError):
    """The matrix-free Krylov solve for the core linear operator did not converge;
    ``iterations`` is the number of Krylov steps it took."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations
