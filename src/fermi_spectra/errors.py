"""Exception types shared across the package."""


class FermiSpectraError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FermiSpectraError):
    """Expression text could not be parsed.

    Carries the byte offset of the failure and a short note on what was
    expected there.
    """

    def __init__(self, message, offset, text=""):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset
        self.text = text


class SchemaError(FermiSpectraError):
    """A config file is structurally invalid; the message names the key."""


class ZeroSpeed(FermiSpectraError):
    """A parametric curve has vanishing speed somewhere on its range."""


class SymmetryViolation(FermiSpectraError):
    """Curve samples are not mirror symmetric about the vertical axis."""


class AsymmetricCurvature(FermiSpectraError):
    """Curvature samples are not even about the arc-length midpoint."""


class AsymmetricWeight(FermiSpectraError):
    """A one-dimensional weight is not even about the interval midpoint."""


class NonpositiveWeight(FermiSpectraError):
    """A weight or width that must be strictly positive and finite is not:
    a sample is zero, negative, infinite or NaN."""


class BadExponent(FermiSpectraError):
    """The exponent p lies outside (1, infinity), or is NaN (analysis._require_p)."""


class OutOfDomain(FermiSpectraError):
    """A requested (s, r) pair lies outside the strip."""


class InvalidDomain(FermiSpectraError):
    """An operation needs a validated domain but the domain failed validation,
    or the strip's boundary cannot be represented in double precision."""


class DegenerateCell(FermiSpectraError):
    """A mesh cell has nonpositive metric determinant at a quadrature point."""


class NoCrossing(FermiSpectraError):
    """Shooting could not bracket an eigenvalue within the search budget."""


class StiffFailure(FermiSpectraError):
    """The shooting integrator produced non-finite state."""


class SolveFailure(FermiSpectraError):
    """A linear algebra step (factorization or eigensolve) failed."""
