"""Exception hierarchy shared by all solver modules."""


class SpilqrError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(SpilqrError, ValueError):
    """Operands have incompatible shapes."""


class InvalidProblemError(SpilqrError, ValueError):
    """Problem data violates a structural requirement (definiteness,
    controllability, observability, finiteness)."""


class UnstableMatrixError(SpilqrError):
    """A matrix required to be Schur stable (spectral radius < 1) is not.

    Carries the offending spectral radius in ``rho``.
    """

    def __init__(self, message, rho=None):
        super().__init__(message)
        self.rho = rho


class UnstableScaledSystemError(UnstableMatrixError):
    """The scaled closed loop lost Schur stability mid-iteration; indicates
    a broken scaling-factor choice rather than bad user input."""


class NotStabilizingError(UnstableMatrixError):
    """Policy iteration was started from a gain that does not stabilize
    the plant."""


class IllConditionedError(SpilqrError):
    """A linear system involved in a solve is numerically singular."""


class SingularMatrixError(SpilqrError):
    """An inner matrix that must be inverted (e.g. R + B'PB) is
    numerically singular."""


class EigenvalueConvergenceError(SpilqrError):
    """The underlying eigenvalue iteration failed to converge."""


class MaxIterationsError(SpilqrError):
    """An iterative solver hit its iteration budget before converging.

    ``last`` optionally carries the best iterate reached.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class DivergenceError(SpilqrError):
    """A simulated state trajectory exceeded the overflow guard.

    Carries the offending step index ``step`` and the truncated
    ``partial`` trajectory (when available).
    """

    def __init__(self, message, step, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class RankDeficientError(SpilqrError):
    """The data matrix is rank deficient: the trajectory is too short or not
    exciting enough; re-collect it longer or with richer probing input."""


class ProbesExhaustedError(SpilqrError):
    """The search for the scaling divisor ran out of probes; the system
    may be uncontrollable or the data degenerate."""


class ConfigError(SpilqrError, ValueError):
    """Experiment configuration failed validation."""
