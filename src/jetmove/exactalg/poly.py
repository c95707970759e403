"""Univariate polynomials with Scalar coefficients, ascending order.

The zero polynomial is the empty coefficient tuple and has degree -1 by
convention here; callers that need the "no degree" reading test is_zero
first.  All arithmetic is exact.

A polynomial whose coefficients are all rational also has an integer
form: one integer vector over one common denominator, computed once
(``int_form``; a Poly never changes, so it never goes stale).  The
Taylor shift to a rational center, and so evaluation at a rational
point, and the product of two rational polynomials run on that form in
Python ints, with one gcd per output coefficient instead of one per
step.  A tower coefficient or a tower center takes the Scalar loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .scalar import ZERO, RatLike, Scalar, scal


class Poly:
    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [scal(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._ints = None

    @staticmethod
    def from_ints(ints: list[int], den: int) -> Poly:
        """The rational polynomial sum(ints[k] x^k) / den, for den > 0 and
        ints empty or ending in a nonzero entry, with its integer form
        stored reduced by the common content."""
        g = gcd(den, *ints)
        ints, den = tuple(z // g for z in ints), den // g
        p = Poly.__new__(Poly)
        p.coeffs = tuple(Scalar(None, Fraction(z, den), None) for z in ints)
        p._ints = (ints, den)
        return p

    def int_form(self) -> tuple[tuple[int, ...], int] | None:
        """(integer vector, common denominator) when every coefficient is
        rational, else None."""
        if self._ints is None:
            if any(c.tower is not None for c in self.coeffs):
                self._ints = False
            else:
                den = lcm(*(c.a.denominator for c in self.coeffs))
                self._ints = (tuple(c.a.numerator * (den // c.a.denominator)
                                    for c in self.coeffs), den)
        return self._ints or None

    @staticmethod
    def const(c: RatLike) -> Poly:
        return Poly([scal(c)])

    @staticmethod
    def x() -> Poly:
        return Poly([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lead(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = scal(other)
            return Poly([a * c for a in self.coeffs])
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        zs, zo = self.int_form(), other.int_form()
        if zs and zo:
            ints = [0] * (len(zs[0]) + len(zo[0]) - 1)
            for i, a in enumerate(zs[0]):
                if a:
                    for j, b in enumerate(zo[0]):
                        ints[i + j] += a * b
            return Poly.from_ints(ints, zs[1] * zo[1])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlead = other.lead().inverse()
        while len(rem) - 1 >= other.degree and rem:
            k = len(rem) - 1 - other.degree
            f = rem[-1] * dlead
            q[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(q), Poly(rem)

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divmod(other)[0]

    def derivative(self) -> Poly:
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def __call__(self, x):
        """Horner evaluation at a scalar.

        A series argument is refused: evaluate through the Taylor shift
        (poly_to_series at the series' value, then compose_centered).
        """
        if not isinstance(x, (int, Scalar)):
            raise TypeError(f"cannot evaluate a Poly at {type(x).__name__}")
        return self.shifted_coeffs(scal(x), 1)[0]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        li = self.lead().inverse()
        return Poly([c * li for c in self.coeffs])

    def shifted_coeffs(self, center: Scalar, n: int) -> list[Scalar]:
        """First n Taylor coefficients of self around ``center``.

        At a rational center a/b of a rational polynomial the shift runs
        over Z: den b^d p(y / b) has integer coefficients, its synthetic
        divisions at the integer a give T_j den b^(d-j) with T_j the
        wanted coefficients, and each T_j is formed once, as a Fraction.
        """
        form = self.int_form() if center.tower is None else None
        if form is not None:
            ints, den = form
            d = len(ints) - 1
            a, b = center.a.numerator, center.a.denominator
            w, scale = list(ints), 1
            for k in range(d, -1, -1):
                w[k] *= scale
                scale *= b
            kept = min(n, d + 1)
            for j in range(min(n, d)):
                for k in range(d - 1, j - 1, -1):
                    w[k] += a * w[k + 1]
            out = [ZERO] * n
            den *= b ** (d - kept + 1)
            for j in range(kept - 1, -1, -1):
                out[j] = Scalar(None, Fraction(w[j], den), None)
                den *= b
            return out
        rem = list(self.coeffs)
        out = []
        for _ in range(n):
            if not rem:
                out.append(ZERO)
                continue
            # synthetic division by (x - center): remainder is the value
            acc = ZERO
            for k in range(len(rem) - 1, -1, -1):
                acc = acc * center + rem[k]
                rem[k] = acc
            out.append(rem.pop(0))
        return out

    def str_in(self, var: str) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            else:
                xs = var if k == 1 else f"{var}^{k}"
                cs = str(c)
                mag = xs if cs == "1" else f"-{xs}" if cs == "-1" else f"{cs}*{xs}"
                parts.append(mag)
        return " + ".join(parts)

    def __str__(self):
        return self.str_in("x")

    def __repr__(self):
        return f"Poly({self})"


def _coerce(p) -> Poly:
    if isinstance(p, Poly):
        return p
    if isinstance(p, (int, Scalar)):
        return Poly.const(p)
    raise TypeError(f"cannot treat {type(p).__name__} as Poly")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the scalar field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def square_free_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'); same real roots, all simple."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return p.divmod(g)[0]
