"""Truncated power series in (x - center) with exact Scalar coefficients.

A Series is an element of F[x] / (x - center)^order: a polynomial in
(x - center) of degree below ``order``, held as a ``Poly``, with the
order that cuts it.  Sums, products, inverses, square roots and
compositions are the polynomial's, cut at the order, so they run on its
integer form (over Q or one Q(sqrt r)) and keep it from one operation
to the next; a scalar operand goes to the polynomial as it is.  The
Scalar coefficients are built only when they are read (``coeffs``,
``value``), and the valuation, so the unit test, reads the form.
Series are immutable and arithmetic is only defined between series
sharing both center and order; no method changes the order of a series,
because padding with zeros is a choice of lift, not a no-op.

poly_sqrt finds the square root of a polynomial: over Q on its integer
form, otherwise through hensel_sqrt on its reversal.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

from ..errors import PreconditionFailed
from .poly import Poly
from .scalar import ONE, ZERO, RatLike, Scalar, power, scal, try_sqrt

_HALF = ONE / 2


class Series:
    __slots__ = ("center", "order", "poly")

    def __init__(self, center: RatLike, order: int, coeffs: Iterable[RatLike]):
        if order < 1:
            raise ValueError("series order must be at least 1")
        cs = list(coeffs)
        if len(cs) > order:
            raise ValueError("more coefficients than the order allows")
        self.center = scal(center)
        self.order = order
        self.poly = Poly(cs)

    @staticmethod
    def _of(center: Scalar, order: int, poly: Poly) -> Series:
        """The series of ``poly``, a polynomial in (x - center) of degree
        below ``order``."""
        s = Series.__new__(Series)
        s.center, s.order, s.poly = center, order, poly
        return s

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """Exactly ``order`` ascending coefficients."""
        cs = self.poly.coeffs
        return cs + (ZERO,) * (self.order - len(cs))

    @staticmethod
    def constant(value: RatLike, center: RatLike, order: int) -> Series:
        return Series._of(scal(center), order, Poly.const(value))

    @staticmethod
    def variable(center: RatLike, order: int) -> Series:
        """The series of x itself: center + (x - center)."""
        c = scal(center)
        return Series(c, order, [c, ONE] if order >= 2 else [c])

    def _check(self, other: Series):
        if self.order != other.order or not (
                self.center is other.center or self.center == other.center):
            raise PreconditionFailed(
                f"series at ({self.center}, {self.order}) vs "
                f"({other.center}, {other.order})")

    def _operand(self, other):
        """``other`` as a Poly operand in self's context: a scalar stands
        as it is, for Poly's arithmetic takes it as a constant; a series
        must share center and order."""
        if isinstance(other, (int, Scalar)):
            return other
        self._check(other)
        return other.poly

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order or not (self.center == other.center):
            return False
        return self.poly == other.poly

    __hash__ = None

    def __add__(self, other):
        return Series._of(self.center, self.order, self.poly + self._operand(other))

    __radd__ = __add__

    def __neg__(self):
        return Series._of(self.center, self.order, -self.poly)

    def __sub__(self, other):
        return Series._of(self.center, self.order, self.poly - self._operand(other))

    def __rsub__(self, other):
        return Series._of(self.center, self.order, self._operand(other) - self.poly)

    def __mul__(self, other):
        product = self.poly.mul(self._operand(other), self.order)
        return Series._of(self.center, self.order, product)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, Series.constant(1, self.center, self.order))

    def invert(self) -> Series:
        """Multiplicative inverse; the constant term must be nonzero."""
        if self.valuation():
            raise PreconditionFailed("series with zero constant term has no inverse")
        return Series._of(self.center, self.order, self.poly.inverse(self.order))

    def __truediv__(self, other):
        if isinstance(other, (int, Scalar)):
            return self * scal(other).inverse()
        return self * other.invert()

    def value(self) -> Scalar:
        """Value at the center."""
        return self.poly[0]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; the order for zero."""
        k = self.poly.valuation()
        return self.order if k is None else k

    def to_poly(self) -> Poly:
        """The canonical polynomial lift, expanded in powers of x.

        The coefficients are those of a polynomial in x - center, so its
        Taylor shift back to 0 gives them in powers of x.
        """
        return self.poly.shifted(-self.center, self.order)

    def __str__(self):
        c = self.center
        var = "x" if c.is_zero() else f"(x - {c})" if c.sign() > 0 else f"(x + {-c})"
        return f"({self.poly.str_in(var)} : order {self.order})"

    def __repr__(self):
        return f"Series{self}"


def poly_to_series(p: Poly, center: RatLike, order: int) -> Series:
    """Reduce a polynomial modulo (x - center)^order."""
    c = scal(center)
    return Series._of(c, order, p.shifted(c, order))


def hensel_sqrt(u: Series, seed: RatLike) -> Series:
    """The square root of ``u`` whose value at the center is ``seed``.

    The seed must be nonzero and must square to the constant term of u;
    under those conditions the root exists, is unique, and Newton's
    iteration s <- (s + u / s) / 2 doubles its correct coefficients per
    step from s = seed.
    """
    s0 = scal(seed)
    if s0.is_zero():
        raise PreconditionFailed("square-root seed must be nonzero")
    if not (s0 * s0 == u.value()):
        raise PreconditionFailed(f"seed {s0} does not square to {u.value()}")
    s, k = Poly.const(s0), 1
    while k < u.order:
        k = min(2 * k, u.order)
        s = (s + u.poly.mul(s.inverse(k), k)) * _HALF
    return Series._of(u.center, u.order, s)


def poly_sqrt(d: Poly) -> Poly | None:
    """A polynomial m with m^2 = d found from the top down, or None.

    A rational d is tested on its integer form A / D, which is reduced
    (D > 0 and D coprime to the content of A).  If m = B / E in lowest
    terms, then B^2 / E^2 is in lowest terms too, since by Gauss's lemma
    the content of B^2 is the square of B's; and the reduced form is
    unique.  So d is a square in Q[x] exactly when D = E^2 and A = B^2
    in Z[x], for E = isqrt(D).  B's leading coefficient is the isqrt of
    A's, and each lower one, from the top down, is an exact integer
    division by twice it: a remainder proves A is no square over Z.

    Any other d, reversed, is a series in 1/x whose square root's
    leading term comes from try_sqrt in the tower of d's leading
    coefficient; its top k + 1 coefficients fix m of degree k, found by
    hensel_sqrt.

    The final product check makes a returned m exact on both routes.
    None proves d no square on the integer route and only means no m was
    found on the other.  The zero polynomial and odd degrees give None.
    """
    if d.is_zero() or d.degree % 2:
        return None
    k = d.degree // 2
    form = d.int_form()
    if form and form[0] is None:
        _, (a,), den = form
        e, lead = isqrt(den), isqrt(max(a[-1], 0))
        if e * e != den or lead * lead != a[-1]:
            return None
        b = [0] * k + [lead]
        for i in range(1, k + 1):
            t = a[2 * k - i] - sum(b[k - j] * b[k - i + j] for j in range(1, i))
            b[k - i], rem = divmod(t, 2 * lead)
            if rem:
                return None
        m = Poly.from_ints(None, (b,), e)
    else:
        lead = try_sqrt(d.lead())
        if lead is None:
            return None
        top = Series(ZERO, k + 1, d.coeffs[k:][::-1])
        m = Poly(hensel_sqrt(top, lead).coeffs[::-1])
    return m if m * m == d else None


def compose_centered(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) for ``inner`` a series whose value is outer's center.

    The result lives in inner's context.  Used to re-express a graph
    function along a new local parameter.  A constant outer is its own
    result.  Otherwise outer is composed with the deviation inner -
    inner(0), which is inner with its constant term zeroed: on the
    integer form, one column set to 0 and one reduction.
    """
    if not (inner.value() == outer.center):
        raise PreconditionFailed("inner value must equal outer center")
    if outer.order < inner.order:
        raise PreconditionFailed("outer order too small for composition")
    if outer.poly.degree < 1:
        return Series._of(inner.center, inner.order, outer.poly)
    form = inner.poly.int_form()
    if form:
        tower, vectors, den = form
        dev = Poly.from_ints(tower, [(0, *v[1:]) for v in vectors], den)
    else:
        dev = Poly([ZERO, *inner.poly.coeffs[1:]])
    return Series._of(inner.center, inner.order, outer.poly.compose(dev, inner.order))
