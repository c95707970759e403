"""Exception types raised by the exact-algebra layer and the geometry layers.

Every failure that a caller can provoke with bad data gets its own class so
command-line handling can map them to exit codes by type alone: file text
or JSON shapes that cannot be read raise InvalidInput, data that reads but
breaks a rule raises another class, and a built-in exception is a bug.
"""


class JetmoveError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(JetmoveError, ValueError):
    """File text, JSON shape or scalar text that cannot be read."""


class IncompatibleTowers(JetmoveError):
    """Two scalars live in extension chains that cannot be merged."""


class NegativeRadicand(JetmoveError):
    """Square root of a negative scalar was requested."""


class NotAUnit(JetmoveError):
    """Series inversion needs a nonzero constant term."""


class ZeroSeed(NotAUnit):
    """Series square root needs a nonzero seed value."""


class BadSeed(JetmoveError):
    """Seed does not square to the constant term of the series."""


class SeriesContextMismatch(JetmoveError):
    """Arithmetic between series with different centers or orders."""


class DuplicateCenter(JetmoveError):
    """Interpolation residues list the same center twice."""


class ZeroPolynomial(JetmoveError):
    """Root counting on the zero polynomial is undefined."""


class NotCurvilinear(JetmoveError):
    """Ideal generators do not cut out a curvilinear subscheme in this chart."""


class NotOnEquator(JetmoveError):
    """Verticality on the sphere is only defined at points with z = 0."""


class MixedSurfaces(JetmoveError):
    """An operation combined objects living on different surfaces."""


class DegreeMismatch(JetmoveError):
    """Torus twist numerator and denominator must have equal degree."""


class IdentityFails(JetmoveError):
    """Sphere twist coefficients do not satisfy p^2 + q^2 = r^2."""


class RootInForbiddenRegion(JetmoveError):
    """Twist denominator vanishes where the twist must be defined.

    Carries an exact isolating interval for one offending root.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class DuplicatePoints(JetmoveError):
    """A configuration of points contains a repeated point."""


class NotDistant(JetmoveError):
    """Jets overlap: two of them share a point of their supports."""


class OrderMismatch(JetmoveError):
    """Orders of two jet configurations do not agree positionally."""


class PreconditionFailed(JetmoveError):
    """Input data violates a documented precondition of the algorithm."""


class CyclicReference(JetmoveError):
    """Blow-up record refers to itself or to a later record."""


class EnumerationExhausted(JetmoveError):
    """Search over rational parameters hit the configured cap."""


class OutputTooLarge(JetmoveError):
    """A number to be written has more digits than a file may hold."""


class InternalVerificationFailure(JetmoveError):
    """A result failed the exact check of what it was built to satisfy.

    Raised, never asserted, so the check also runs under ``python -O``.
    """


def ensure(condition, message: str) -> None:
    """Raise InternalVerificationFailure(message) unless condition holds."""
    if not condition:
        raise InternalVerificationFailure(message)
