"""Exception types shared across the package."""


class BerrkitError(Exception):
    """Base class for all berrkit-specific errors."""


class DimensionMismatchError(BerrkitError, ValueError):
    """Operator/vector shapes do not line up."""


class ZeroOperatorError(BerrkitError, ValueError):
    """Norm estimation was asked for an operator that maps everything to 0."""


class UndefinedAtZeroError(BerrkitError, ValueError):
    """Backward error is undefined at x = 0."""


class RequiresSymmetricError(BerrkitError, ValueError):
    """Solver needs an operator flagged symmetric."""


class NonFiniteError(BerrkitError, ValueError):
    """Input data, a recorded iterate or a Krylov band column holds NaN or infinity."""


class PostBreakdownError(BerrkitError, RuntimeError):
    """A factorization was stepped after it reported breakdown."""


class SingularBandError(BerrkitError, ValueError):
    """Banded triangular solve hit a zero diagonal entry."""


class DegenerateAlphaError(BerrkitError, RuntimeError):
    """Recovery scalar vanished; b lies in the null space of A."""


class NoFiniteMinimizerError(BerrkitError, RuntimeError):
    """The backward-error infimum over the subspace is not attained."""


class OrthogonalRhsError(BerrkitError, ValueError):
    """Bidiagonalization cannot start because A^T b = 0."""


class ExactSolutionInSubspaceError(BerrkitError, RuntimeError):
    """The dense oracle found an exact solution; carries it in .x."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class MatrixMarketFormatError(BerrkitError, ValueError):
    """Matrix Market parse or format problem, with a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
