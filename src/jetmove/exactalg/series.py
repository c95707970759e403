"""Truncated power series in (x - center) with exact Scalar coefficients.

A Series is an element of F[x] / (x - center)^order, stored as exactly
``order`` ascending coefficients.  Series are immutable and arithmetic is
only defined between series sharing both center and order; no method
changes the order of a series, because padding with zeros is a choice of
lift, not a no-op.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import BadSeed, NotAUnit, SeriesContextMismatch, ZeroSeed
from .poly import Poly
from .scalar import ONE, ZERO, RatLike, Scalar, scal


class Series:
    __slots__ = ("center", "order", "coeffs")

    def __init__(self, center: RatLike, order: int, coeffs: Iterable[RatLike]):
        if order < 1:
            raise ValueError("series order must be at least 1")
        cs = [scal(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the order allows")
        cs.extend([ZERO] * (order - len(cs)))
        self.center = scal(center)
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(value: RatLike, center: RatLike, order: int) -> Series:
        return Series(center, order, [scal(value)])

    @staticmethod
    def variable(center: RatLike, order: int) -> Series:
        """The series of x itself: center + (x - center)."""
        c = scal(center)
        return Series(c, order, [c, ONE] if order >= 2 else [c])

    def _check(self, other: Series):
        if not (self.center == other.center) or self.order != other.order:
            raise SeriesContextMismatch(
                f"series at ({self.center}, {self.order}) vs "
                f"({other.center}, {other.order})")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order or not (self.center == other.center):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Series.constant(other, self.center, self.order)
        self._check(other)
        return Series(self.center, self.order,
                      [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Series(self.center, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Series.constant(other, self.center, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = scal(other)
            return Series(self.center, self.order, [a * c for a in self.coeffs])
        self._check(other)
        e = self.order
        out = [ZERO] * e
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(e - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Series(self.center, e, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Series.constant(1, self.center, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def invert(self) -> Series:
        """Multiplicative inverse; the constant term must be nonzero."""
        u0 = self.coeffs[0]
        if u0.is_zero():
            raise NotAUnit("series with zero constant term has no inverse")
        v0 = u0.inverse()
        out = [v0]
        for k in range(1, self.order):
            acc = ZERO
            for i in range(1, k + 1):
                ci = self.coeffs[i]
                if not ci.is_zero():
                    acc = acc + ci * out[k - i]
            out.append(-acc * v0)
        return Series(self.center, self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Scalar)):
            return self * scal(other).inverse()
        return self * other.invert()

    def value(self) -> Scalar:
        """Value at the center."""
        return self.coeffs[0]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; the order for zero."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return self.order

    def to_poly(self) -> Poly:
        """The canonical polynomial lift, expanded in powers of x.

        The coefficients are those of a polynomial in x - center, so its
        Taylor shift back to 0 gives them in powers of x.
        """
        return Poly(Poly(self.coeffs).shifted_coeffs(-self.center, self.order))

    def __str__(self):
        c = self.center
        var = "x" if c.is_zero() else f"(x - {c})" if c.sign() > 0 else f"(x + {-c})"
        parts = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            if k == 0:
                parts.append(str(a))
            else:
                xs = var if k == 1 else f"{var}^{k}"
                s = str(a)
                parts.append(xs if s == "1" else f"-{xs}" if s == "-1" else f"{s}*{xs}")
        body = " + ".join(parts) if parts else "0"
        return f"({body} : order {self.order})"

    def __repr__(self):
        return f"Series{self}"


def poly_to_series(p: Poly, center: RatLike, order: int) -> Series:
    """Reduce a polynomial modulo (x - center)^order."""
    c = scal(center)
    return Series(c, order, p.shifted_coeffs(c, order))


def hensel_sqrt(u: Series, seed: RatLike) -> Series:
    """The square root of ``u`` whose value at the center is ``seed``.

    The seed must be nonzero and must square to the constant term of u;
    under those conditions the root exists, is unique, and is found by the
    triangular recurrence 2*s0*s_k = u_k - sum_{0<i<k} s_i s_{k-i}.
    """
    s0 = scal(seed)
    if s0.is_zero():
        raise ZeroSeed("square-root seed must be nonzero")
    if not (s0 * s0 == u.coeffs[0]):
        raise BadSeed(f"seed {s0} does not square to {u.coeffs[0]}")
    inv2s0 = (s0 + s0).inverse()
    out = [s0]
    for k in range(1, u.order):
        acc = u.coeffs[k]
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(acc * inv2s0)
    return Series(u.center, u.order, out)


def compose_centered(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) for ``inner`` a series whose value is outer's center.

    The result lives in inner's context.  Used to re-express a graph
    function along a new local parameter.
    """
    if not (inner.value() == outer.center):
        raise SeriesContextMismatch("inner value must equal outer center")
    if outer.order < inner.order:
        raise SeriesContextMismatch("outer order too small for composition")
    dev = inner - inner.value()
    acc = Series.constant(0, inner.center, inner.order)
    power = Series.constant(1, inner.center, inner.order)
    for k in range(outer.order):
        a = outer.coeffs[k]
        if not a.is_zero():
            acc = acc + power * a
        if k + 1 < outer.order:
            power = power * dev
    return acc
