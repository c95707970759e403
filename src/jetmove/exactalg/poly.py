"""Univariate polynomials with Scalar coefficients, ascending order.

The zero polynomial is the empty coefficient tuple and has degree -1 by
convention here; callers that need the "no degree" reading test is_zero
first.  All arithmetic is exact.

A polynomial whose coefficients all lie in Q, or in one quadratic field
Q(sqrt r) with r rational (a tower of depth 1), also has an integer
form: integer vectors over one common denominator, (A,) for A / den or
(A, B) for (A + B sqrt r) / den, computed once (``int_form``; a Poly
never changes, so it never goes stale).  Products of such polynomials
over one field, the Taylor shift to a rational center, and so
evaluation at a rational point, run on that form over Z, with one gcd
per output coefficient instead of one per step.  Coefficients in two
towers or in a deeper tower, and a tower center, take the Scalar loop.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .scalar import ZERO, RatLike, Scalar, Tower, scal


class Poly:
    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [scal(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._ints = None

    @staticmethod
    def from_ints(tower: Tower | None, vectors, den: int) -> Poly:
        """The polynomial sum(A[k] x^k) / den for vectors (A,) and tower
        None, or sum((A[k] + B[k] sqrt r) x^k) / den for vectors (A, B)
        over the depth-1 tower Q(sqrt r); den > 0 and the last column not
        all zero.  Its integer form is stored reduced by the common
        content, and an all-zero B is dropped with its tower."""
        g = gcd(den, *chain.from_iterable(vectors))
        if g > 1:
            den //= g
            vectors = [[z // g for z in v] for v in vectors]
        if len(vectors) == 2 and not any(vectors[1]):
            tower, vectors = None, vectors[:1]
        p = Poly.__new__(Poly)
        p.coeffs = tuple(_scalars(tower, vectors, den))
        p._ints = (tower, tuple(map(tuple, vectors)), den)
        return p

    def int_form(self):
        """(tower, vectors, den) as from_ints takes them, when every
        coefficient is rational (tower None) or lies in one depth-1 tower
        Q(sqrt r); else None."""
        if self._ints is None:
            cs = self.coeffs
            towers = {c.tower for c in cs}
            towers.discard(None)
            tower = towers.pop() if towers else None
            if towers or (tower is not None and tower.parent is not None):
                self._ints = False
            else:
                rows = ([c.a for c in cs],) if tower is None else (
                    [c.a.a if c.tower else c.a for c in cs],
                    [c.b.a if c.tower else 0 for c in cs])
                den = lcm(*[f.denominator for row in rows for f in row])
                self._ints = (tower, tuple([
                    tuple([f.numerator * (den // f.denominator) for f in row])
                    for row in rows]), den)
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
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        fs, fo = self.int_form(), other.int_form()
        if fs and fo and (fs[0] is fo[0] or fs[0] is None or fo[0] is None):
            (ts, vs, ds), (to, vo, do) = fs, fo
            if len(vs) == 1 or len(vo) == 1:
                (x,), ys = (vs, vo) if len(vs) == 1 else (vo, vs)
                return Poly.from_ints(ts or to, [_conv(x, y) for y in ys], ds * do)
            # (A + B sqrt r)(C + D sqrt r) for r = num / rden is
            # (rden AC + num BD + rden (AD + BC) sqrt r) / rden
            (a, b), (c, d) = vs, vo
            r = ts.radicand.a
            num, rden = r.numerator, r.denominator
            ac, bd = _conv(a, c), _conv(b, d)
            mid = [u + v for u, v in zip(_conv(a, d), _conv(b, c))]
            return Poly.from_ints(ts, ([rden * u + num * v for u, v in zip(ac, bd)],
                                       [rden * u for u in mid]), ds * do * rden)
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
        if other.degree == 0:
            return self * other.lead().inverse(), Poly()
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
        return self * self.lead().inverse()

    def shifted_coeffs(self, center: Scalar, n: int) -> list[Scalar]:
        """First n Taylor coefficients of self around ``center``.

        At a rational center a/b of a polynomial with an integer form the
        shift runs over Z, on each vector alone (the shift is Q-linear):
        den b^d v(y / b) has integer coefficients, its synthetic divisions
        at the integer a give T_j den b^(d-j) with T_j the wanted
        coefficients, and each T_j is formed once.
        """
        form = self.int_form() if center.tower is None else None
        if form is not None:
            tower, vectors, den = form
            d = len(vectors[0]) - 1
            a, b = center.a.numerator, center.a.denominator
            kept = min(n, d + 1)
            ws = []
            for v in vectors:
                w, scale = list(v), 1
                for k in range(d, -1, -1):
                    w[k] *= scale
                    scale *= b
                for j in range(min(n, d)):
                    for k in range(d - 1, j - 1, -1):
                        w[k] += a * w[k + 1]
                ws.append(w[:kept])
            den *= b ** (d - kept + 1)
            return _scalars(tower, ws, den, b) + [ZERO] * (n - kept)
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


def _scalars(tower: Tower | None, vectors, den: int, b: int = 1) -> list[Scalar]:
    """The canonical scalars A[k] / den_k for vectors (A,), or
    (A[k] + B[k] sqrt r) / den_k over ``tower`` for (A, B), where den_k
    is den for the last entry and gains a factor b per step down; one
    with B[k] = 0 is demoted to the rational, as Scalar._ext does."""
    a_s = vectors[0]
    b_s = vectors[1] if tower is not None else None
    out = [ZERO] * len(a_s)
    for k in range(len(a_s) - 1, -1, -1):
        x = Scalar(None, Fraction(a_s[k], den), None)
        if b_s and b_s[k]:
            x = Scalar(tower, x, Scalar(None, Fraction(b_s[k], den), None))
        out[k] = x
        den *= b
    return out


def _conv(x, y) -> list[int]:
    """The product of two integer coefficient vectors."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


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
