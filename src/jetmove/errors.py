"""Exception types raised by the exact-algebra layer and the geometry layers.

A class exists only where a failure is told apart: cli.main catches
InvalidInput (text or JSON shape that cannot be read, "cannot read ..."),
RootInForbiddenRegion, OutputTooLarge and InternalVerificationFailure by
name, and ZeroPolynomial, DegreeMismatch and IdentityFails name which
proof a loaded generator failed.  Every other rule that data read without
error breaks raises PreconditionFailed, its message naming the rule.
JetmoveError is only caught, never raised; a built-in exception is a bug.
"""


class JetmoveError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(JetmoveError, ValueError):
    """File text, JSON shape or scalar text that cannot be read."""


class PreconditionFailed(JetmoveError):
    """Input data violates a documented precondition of the algorithm."""


class ZeroPolynomial(JetmoveError):
    """Root counting on the zero polynomial is undefined."""


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
