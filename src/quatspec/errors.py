"""Exception hierarchy shared by every module.

The command line tool maps each error class onto a process exit code:
1 for bad input or arguments, 2 for mathematical domain errors, 3 for
numerical failures.  Library code raises these directly.
"""

__all__ = [
    "QuatSpecError",
    "UsageError",
    "DomainError",
    "NumericError",
    "ZeroDivisor",
    "OutOfDomain",
    "NotIntrinsic",
    "Singular",
    "SeriesDiverges",
    "AlphaInSpectrum",
    "BranchCut",
    "DomainTooTight",
    "DimensionMismatch",
    "ParseError",
    "NonSquare",
    "NonFiniteEntry",
    "NoConvergence",
    "OddRealMultiplicity",
    "StructureViolation",
    "QuadratureStalled",
    "SingularNode",
]


class QuatSpecError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class UsageError(QuatSpecError):
    """Malformed arguments, files, or shapes."""

    exit_code = 1


class DomainError(QuatSpecError):
    """A mathematical precondition does not hold for the given input."""

    exit_code = 2


class NumericError(QuatSpecError):
    """A numerical procedure failed to meet its accuracy contract."""

    exit_code = 3


class ZeroDivisor(DomainError):
    """Inversion of a quaternion whose norm is below the zero threshold."""


class OutOfDomain(DomainError):
    """Evaluation point lies outside the function's domain."""


class NotIntrinsic(DomainError):
    """An intrinsic function was required but the input is not intrinsic."""


class Singular(DomainError):
    """The requested inverse does not exist at this point."""


class SeriesDiverges(DomainError):
    """A series expansion was requested outside its region of convergence."""


class AlphaInSpectrum(DomainError):
    """The real point sits on the spectrum, so its distance is zero."""


class BranchCut(DomainError):
    """Spectrum touches the branch cut of the requested function."""


class DomainTooTight(DomainError):
    """No admissible contour fits between the spectrum and the domain edge."""


class DimensionMismatch(UsageError):
    """Operand dimensions are incompatible."""


class ParseError(UsageError):
    """Input file or expression does not parse."""


class NonSquare(UsageError):
    """Matrix input is not square."""


class NonFiniteEntry(UsageError):
    """A matrix entry or a numeric argument is NaN or infinite."""


class NoConvergence(NumericError):
    """An iteration reached its cap or a non-finite value before its tolerance."""


class OddRealMultiplicity(NumericError):
    """Eigenvalue pairing over the reals came out inconsistent."""


class StructureViolation(NumericError):
    """A matrix does not carry the expected block structure."""


class QuadratureStalled(NumericError):
    """Adaptive quadrature hit the node cap before converging."""


class SingularNode(NumericError):
    """A quadrature node collided with the spectrum."""
