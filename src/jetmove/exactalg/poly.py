"""Univariate polynomials with Scalar coefficients, ascending order.

The zero polynomial is the empty coefficient tuple and has degree -1 by
convention here; callers that need the "no degree" reading test is_zero
first.  All arithmetic is exact.

A polynomial whose coefficients all lie in Q, or in one quadratic field
Q(sqrt r) with r rational (a tower of depth 1), also has an integer
form: integer vectors over one common denominator, (A,) for A / den or
(A, B) for (A + B sqrt r) / den, reduced by their common content, so
equal polynomials over the same tower object have equal forms (towers
are kept per radicand as written, so Q(sqrt 2) and Q(sqrt 8) are two
towers of one field, and their forms are not compared).  Sums, products
(also cut below a degree), inverses modulo a power of x, compositions
and the Taylor shift to a rational center run on that form over Z, with
one gcd per result instead of one per coefficient step, and their
results keep it: a polynomial made from an integer form builds its
Scalar coefficients only when they are read, and its valuation reads
the form.  Coefficients in two towers or in a deeper tower take the
Scalar loop, and a shift to a tower center is a composition.

Poly's +, - and mul each form their result unreduced from the two
integer forms (private helpers of this module) and reduce it once, in
from_ints; an int or a Scalar of Q or one Q(sqrt r) operand enters as
the integer form of a constant (_const_form), so a product or a sum
with it scales or shifts the form with no constant Poly built.
compose runs all its Horner steps on unreduced forms and reduces once,
and sum_of_products forms a whole sum of products, such as a CRT
interpolant, with one reduction; a square p * p forms each cross product
once (over Q(sqrt r): A^2, B^2 and one AB).
same_field tells whether polynomials share one field of the towers,
read off their forms.  The integer form is exactalg's own choice: code
outside the package uses Poly's arithmetic and never names the form.

A coefficient list in a word file is read and written on the integer
form too (poly_from_json, poly_to_json): text in the shapes
scalar_to_str writes for Q or one Q(sqrt r) goes straight to and from
the vectors, byte for byte, and any other list takes parse_scalar and
scalar_to_json one coefficient at a time.  A sphere triple (1 - n^2, 2n,
1 + n^2) has p = -r past the constant term, so p's texts are written as
r's negated, and half_angle_from_json proves them with one square.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable

from .scalar import (MAX_SCALAR_DIGITS, ZERO, RatLike, Scalar, Tower,
                     _is_ancestor, parse_scalar, power, ratio, ratio_to_json,
                     scal, scalar_sqrt_adjoin, scalar_to_json)


class Poly:
    __slots__ = ("_cs", "_ints")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [scal(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._cs = tuple(cs)
        self._ints = None

    @staticmethod
    def from_ints(tower: Tower | None, vectors, den: int) -> Poly:
        """The polynomial sum(A[k] x^k) / den for vectors (A,) and tower
        None, or sum((A[k] + B[k] sqrt r) x^k) / den for vectors (A, B)
        over the depth-1 tower Q(sqrt r); den > 0.  Its integer form is
        stored without top all-zero columns and reduced by the common
        content, and an all-zero B is dropped with its tower; its
        coefficients are built when first read."""
        a = vectors[0]
        b = vectors[1] if len(vectors) == 2 and any(vectors[1]) else None
        n = len(a)
        if b is None:
            tower, vectors = None, (a,)
            g = gcd(den, *a)
            while n and not a[n - 1]:
                n -= 1
        else:
            g = gcd(den, *a, *b)
            while n and not (a[n - 1] or b[n - 1]):
                n -= 1
        p = Poly.__new__(Poly)
        p._cs = None
        if g == 1:
            p._ints = (tower, tuple([tuple(v[:n]) for v in vectors]), den)
        else:
            p._ints = (tower, tuple([tuple([z // g for z in v[:n]]) for v in vectors]),
                       den // g)
        return p

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        if self._cs is None:
            self._cs = tuple(_scalars(*self._ints))
        return self._cs

    def int_form(self):
        """(tower, vectors, den) as from_ints takes them, when every
        coefficient is rational (tower None) or lies in one depth-1 tower
        Q(sqrt r); else None."""
        if self._ints is None:
            cs = self._cs
            towers = {c.tower for c in cs}
            towers.discard(None)
            tower = towers.pop() if towers else None
            if towers or (tower is not None and tower.parent is not None):
                self._ints = False
            else:
                rows = (cs,) if tower is None else (
                    [c.a if c.tower else c for c in cs],
                    [c.b if c.tower else ZERO for c in cs])
                den = lcm(*[f.b for row in rows for f in row])
                self._ints = (tower, tuple([
                    tuple([f.a * (den // f.b) for f in row])
                    for row in rows]), den)
        return self._ints or None

    @staticmethod
    def const(c: RatLike) -> Poly:
        c = scal(c)
        if c.tower is None:
            return Poly.from_ints(None, ((c.a,),), c.b)
        return Poly([c])

    @staticmethod
    def x() -> Poly:
        return Poly([0, 1])

    def _size(self) -> int:
        """The number of coefficients, degree + 1."""
        cs = self._cs
        return len(cs) if cs is not None else len(self._ints[1][0])

    def is_zero(self) -> bool:
        return not self._size()

    @property
    def degree(self) -> int:
        return self._size() - 1

    def lead(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self._size() - 1]

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < self._size() else ZERO

    def valuation(self, start: int = 0) -> int | None:
        """Index of the first nonzero coefficient from ``start`` on; None
        when there is none."""
        if self._cs is None:
            columns = zip(*[v[start:] for v in self._ints[1]])
            return next((k for k, col in enumerate(columns, start) if any(col)), None)
        return next((k for k in range(start, len(self._cs)) if not self._cs[k].is_zero()),
                    None)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        fs, fo = self._ints, other._ints
        if fs and fo and fs[0] is fo[0]:
            return fs == fo
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        form = self.int_form()
        if form:
            tower, vectors, den = form
            return Poly.from_ints(tower, [[-z for z in v] for v in vectors], den)
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return _plus(self, other, -1)

    def __rsub__(self, other):
        return _plus(other, self, -1)

    def mul(self, other, n: int | None = None) -> Poly:
        """self * other, cut below degree n when n is given; other may be
        a Poly, an int or a Scalar."""
        if self.is_zero() or n == 0:
            return Poly()
        common = _common_forms(self, other)
        if common:
            tower, (x, y) = common
            return Poly.from_ints(tower, *_form_mul(tower, x, y, n))
        other = _coerce(other)
        if other.is_zero():
            return Poly()
        top = self._size() + other._size() - 1
        out = [ZERO] * (top if n is None else min(n, top))
        for i, a in enumerate(self.coeffs[:len(out)]):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs[:len(out) - i]):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __mul__(self, other):
        return self.mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, Poly.const(1))

    def inverse(self, n: int) -> Poly:
        """1/self cut below degree n; the constant term must be nonzero.

        Newton's iteration v <- v (2 - self v) doubles the number of
        correct coefficients per step from v = 1/self(0) (von zur
        Gathen-Gerhard, Modern Computer Algebra, 9.1), so it needs only
        products.  Over Q it runs on the integer form: for self = A / den
        and v = W / dw, 2 - self v is (2 den dw - A W) / (den dw), with
        one gcd per step.  Over Q(sqrt r) it goes through the conjugate:
        self conj(self) = A^2 - r B^2 is rational, and 1/self is
        conj(self) / (self conj(self)).
        """
        form = self.int_form()
        if not form:
            v, k = Poly.const(self[0].inverse()), 1
            while k < n:
                k = min(2 * k, n)
                v = v.mul(2 - self.mul(v, k), k)
            return v
        tower, vectors, den = form
        conj = None
        if tower is not None:
            conj = Poly.from_ints(tower, (vectors[0], [-z for z in vectors[1]]), den)
            _, vectors, den = self.mul(conj, n).int_form()
        (a,) = vectors
        w, dw, k = [den], a[0], 1
        while k < n:
            k = min(2 * k, n)
            d = den * dw
            t = [-z for z in _conv(a, w, k)]
            t[0] += 2 * d
            w, dw = _conv(w, t, k), dw * d
            g = gcd(dw, *w)
            w, dw = [z // g for z in w], dw // g
        v = Poly.from_ints(None, ([-z for z in w] if dw < 0 else w,), abs(dw))
        return v if conj is None else conj.mul(v, n)

    def compose(self, inner: Poly, n: int) -> Poly:
        """self(inner) cut below degree n >= 1, by Horner's rule on cut
        products.  When both lie in Q or one Q(sqrt r), the Horner steps
        run on their integer forms unreduced and the result is reduced
        once; otherwise each coefficient of self enters as a constant."""
        top = self._size() - 1
        if top < 1:
            return self
        common = _common_forms(self, inner)
        if common:
            tower, ((vs, den), y) = common
            acc = [v[top:] for v in vs], den
            for k in range(top - 1, -1, -1):
                term = [v[k:k + 1] for v in vs], den
                acc = _form_add(_form_mul(tower, acc, y, n), term, 1)
            return Poly.from_ints(tower, *acc)
        cs = self.coeffs
        acc = Poly.const(cs[top])
        for k in range(top - 1, -1, -1):
            acc = acc.mul(inner, n) + cs[k]
        return acc

    def reversed(self, n: int) -> Poly:
        """x^n self(1/x) for n >= deg self: coefficient k is self[n - k]."""
        return Poly([self[n - k] for k in range(n + 1)])

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
        return Poly([self.coeffs[k] * k for k in range(1, self._size())])

    def __call__(self, x):
        """Horner evaluation at a scalar.

        A series argument is refused: evaluate through the Taylor shift
        (poly_to_series at the series' value, then compose_centered).
        """
        if not isinstance(x, (int, Scalar)):
            raise TypeError(f"cannot evaluate a Poly at {type(x).__name__}")
        x = scal(x)
        form = self.int_form() if x.tower is None else None
        if form and form[0] is None and form[1][0]:
            # A / den at a / b is sum(A[k] a^k b^(d-k)) / (den b^d), d = deg
            _, (v,), den = form
            a, b = x.a, x.b
            h, scale = 0, 1
            for z in reversed(v):
                h = h * a + z * scale
                scale *= b
            return ratio(h, den * (scale // b))
        return self.shifted(x, 1)[0]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self * self.lead().inverse()

    def shifted(self, center: Scalar, n: int) -> Poly:
        """The first n Taylor coefficients of self around ``center``, as
        a polynomial in (x - center).

        At a rational center a/b of a polynomial with an integer form the
        shift runs over Z, on each vector alone (the shift is Q-linear):
        den b^d v(y / b) has integer coefficients, its synthetic divisions
        at the integer a give T_j den b^(d-j) with T_j the wanted
        coefficients, and each T_j is formed once; T_j b^j over den b^d
        is the result's integer form; any other shift composes with x + center.
        """
        form = self.int_form() if center.tower is None else None
        if form is not None:
            tower, vectors, den = form
            d = len(vectors[0]) - 1
            a, b = center.a, center.b
            ws = []
            for v in vectors:
                w, scale = list(v), 1
                for k in range(d, -1, -1):
                    w[k] *= scale
                    scale *= b
                for j in range(min(n, d)):
                    for k in range(d - 1, j - 1, -1):
                        w[k] += a * w[k + 1]
                if b > 1:
                    scale = 1
                    for j in range(min(n, d + 1)):
                        w[j] *= scale
                        scale *= b
                ws.append(w[:n])
            return Poly.from_ints(tower, ws, den * b ** max(d, 0))
        if n < 1:
            return Poly()
        return self.compose(Poly([center, 1]), n)

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


def _scalars(tower: Tower | None, vectors, den: int) -> list[Scalar]:
    """The canonical scalars A[k] / den for vectors (A,), or
    (A[k] + B[k] sqrt r) / den over ``tower`` for (A, B); one with
    B[k] = 0 is demoted to the rational, as Scalar._ext does."""
    b_s = vectors[1] if tower is not None else None
    out = []
    for k, a in enumerate(vectors[0]):
        x = ratio(a, den)
        if b_s and b_s[k]:
            x = Scalar(tower, x, ratio(b_s[k], den))
        out.append(x)
    return out


def _const_form(c):
    """The (tower, vectors, den) of an int or a Scalar in Q or one
    Q(sqrt r) as a constant polynomial, as Poly.int_form gives it; None
    for a deeper Scalar and for any other type."""
    if c.__class__ is int:
        return None, ((c,),), 1
    if c.__class__ is not Scalar or (c.tower and c.tower.parent):
        return None
    if c.tower is None:
        return None, ((c.a,),), c.b
    a, b = c.a, c.b
    den = lcm(a.b, b.b)
    return c.tower, ((a.a * (den // a.b),), (b.a * (den // b.b),)), den


def _common_forms(p, q):
    """(tower, (x, y)) for the integer forms (vectors, den) x of p and y
    of q, each a Poly or a constant (_const_form), when both have one and
    they lie in one field: Q, or Q and one tower Q(sqrt r); else None.
    The tower is None when both are rational."""
    fp = p.int_form() if p.__class__ is Poly else _const_form(p)
    fq = fp and (q.int_form() if q.__class__ is Poly else _const_form(q))
    if not fq:
        return None
    tower = fp[0] if fq[0] is None else fq[0]
    if fp[0] is not None and fp[0] is not tower:
        return None
    return tower, (fp[1:], fq[1:])


def _plus(p, q, sign: int) -> Poly:
    """p + sign q, for sign 1 or -1, each a Poly, an int or a Scalar."""
    common = _common_forms(p, q)
    if common:
        tower, (x, y) = common
        return Poly.from_ints(tower, *_form_add(x, y, sign))
    p, q = _coerce(p), _coerce(q)
    n = max(p._size(), q._size())
    if sign > 0:
        return Poly([p[k] + q[k] for k in range(n)])
    return Poly([p[k] - q[k] for k in range(n)])


def _form_add(x, y, sign: int):
    """x + sign y for integer forms (vectors, den) over one field, as an
    unreduced (vectors, den) over the lcm of the two denominators; a
    missing B vector counts as zero."""
    (vx, dx), (vy, dy) = x, y
    den = lcm(dx, dy)
    mx, my = den // dx, sign * (den // dy)
    pad = (0,) * max(len(vx[0]), len(vy[0]))
    return [_axpy(mx, vx[i] if i < len(vx) else pad, my, vy[i] if i < len(vy) else pad)
            for i in range(max(len(vx), len(vy)))], den


def _form_mul(tower: Tower | None, x, y, n: int | None = None):
    """x y cut below degree n when n is given, for integer forms
    (vectors, den) over Q or over ``tower``, Q(sqrt r), as an unreduced
    (vectors, den).  With r = num / rden, (A + B sqrt r)(C + D sqrt r)
    is (rden AC + num BD + rden (AD + BC) sqrt r) / rden."""
    (vx, dx), (vy, dy) = x, y
    if len(vx) == 1 or len(vy) == 1:
        (a,), vs = (vx, vy) if len(vx) == 1 else (vy, vx)
        return [_conv(a, v, n) for v in vs], dx * dy
    (a, b), (c, d) = vx, vy
    num, rden = tower.radicand.a, tower.radicand.b
    ac, bd = _conv(a, c, n), _conv(b, d, n)
    if vx is vy:        # a square: AD + BC is 2AB, one product
        mid = [2 * u for u in _conv(a, b, n)]
    else:
        mid = _axpy(1, _conv(a, d, n), 1, _conv(b, c, n))
    return [_axpy(rden, ac, num, bd), [rden * u for u in mid]], dx * dy * rden


def same_field(polys) -> bool:
    """Whether every coefficient of the polynomials lies in one field of
    the towers: all in Q, or all on one chain, the deepest of their
    towers.  A polynomial with an integer form is read off it, with no
    coefficient built."""
    top = None
    for p in polys:
        form = p.int_form()
        for t in (form[0],) if form else {c.tower for c in p.coeffs}:
            if t is None or t is top or _is_ancestor(t, top):
                continue
            if not _is_ancestor(top, t):
                return False
            top = t
    return True


def sum_of_products(pairs: list) -> Poly:
    """sum(p * q for p, q in pairs).

    When every factor lies in Q or one Q(sqrt r), the products and their
    sum are formed unreduced on the integer forms and reduced once;
    otherwise the sum runs on Poly arithmetic.
    """
    forms = [(p.int_form(), q.int_form()) for p, q in pairs]
    towers = {f[0] for pq in forms for f in pq if f} - {None}
    if len(towers) > 1 or not all(f for pq in forms for f in pq):
        return sum((p * q for p, q in pairs), Poly())
    tower = towers.pop() if towers else None
    acc = [()], 1
    for fp, fq in forms:
        acc = _form_add(acc, _form_mul(tower, fp[1:], fq[1:]), 1)
    return Poly.from_ints(tower, *acc)


def half_angle_rotation(a: Poly, u: Poly, v: Poly, n: int) -> tuple[Poly, Poly] | None:
    """(u, v) rotated by the angle whose half-angle tangent is a, cut
    below degree n: ((1 - a^2) u - 2a v, 2a u + (1 - a^2) v) / (1 + a^2),
    for a with 1 + a(0)^2 nonzero, when a, u and v lie in Q or one
    Q(sqrt r); else None.

    With a = A / D and the cut a^2 = S / E on the integer forms, E
    cancels: the images are ((E - S) u - 2 (E/D) A v) / (E + S) and
    (2 (E/D) A u + (E - S) v) / (E + S), formed unreduced against one
    inverse of E + S and reduced once each.
    """
    fu, fv = _common_forms(a, u), _common_forms(a, v)
    if not (fu and fv and (fu[0] is None or fv[0] is None or fu[0] is fv[0])):
        return None
    tower = fu[0] or fv[0]
    (av, d), uf = fu[1]
    vf = fv[1][1]
    sv, e = _form_mul(tower, (av, d), (av, d), n)
    p = [_axpy(1, [e], -1, sv[0]), *[[-z for z in w] for w in sv[1:]]], 1
    q = [[2 * (e // d) * z for z in w] for w in av], 1
    rinv = Poly.from_ints(tower, [_axpy(1, [e], 1, sv[0]), *sv[1:]], 1).inverse(n)
    rf = rinv.int_form()[1:]

    def image(x, sign, y):
        num = _form_add(_form_mul(tower, x, uf, n), _form_mul(tower, y, vf, n), sign)
        return Poly.from_ints(tower, *_form_mul(tower, num, rf, n))

    return image(p, -1, q), image(q, 1, p)


def half_angle_proof(c: Scalar, q, r) -> Poly | None:
    """n = q/c over d = 1 for a sphere triple whose r + p is the nonzero
    rational c, given q and r as integer forms in Q or one Q(sqrt s), when
    (r - p) c = q^2, that is (2r - c) c = q^2, holds on their vectors with
    one square of q; else None."""
    if not (q and r) or (q[0] and r[0] and q[0] is not r[0]):
        return None
    tower = q[0] or r[0]
    (_, vq, dq), (_, vr, dr) = q, r
    sq, e = _form_mul(tower, (vq, dq), (vq, dq))
    cn, cd = c.a, c.b
    # (2 cd R - cn dr) cn e = cd^2 dr S for r = R / dr and q^2 = S / e
    k, m = 2 * cd * cn * e, cd * cd * dr
    gap = [_axpy(k, x, -m, y) for x, y in zip_longest(vr, sq, fillvalue=())]
    gap[0] = _axpy(1, gap[0], -cn * cn * dr * e, (1,))
    if any(map(any, gap)):
        return None
    f = cd if cn > 0 else -cd
    return Poly.from_ints(tower, [[f * z for z in v] for v in vq], dq * abs(cn))


def _axpy(a: int, x, b: int, y) -> list[int]:
    """a x + b y for integer vectors, the shorter padded with zeros."""
    if len(x) < len(y):
        a, x, b, y = b, y, a, x
    out = [a * u for u in x]
    for k, v in enumerate(y):
        out[k] += b * v
    return out


def _conv(x, y, n: int | None = None) -> list[int]:
    """The product of two integer coefficient vectors, cut below degree
    n when n is given; a square (x is y) forms each cross product once."""
    if len(x) > len(y):
        x, y = y, x
    top = len(x) + len(y) - 1
    if n is not None and n < top:
        top = n
    if len(x) == 1:
        a = x[0]
        return [a * b for b in y[:top]]
    out = [0] * top
    if x is y:
        for i, a in enumerate(x[:(top + 1) // 2]):
            if a:
                out[2 * i] += a * a
                a += a
                for j, b in enumerate(x[i + 1:top - i], 2 * i + 1):
                    out[j] += a * b
        return out
    for i, a in enumerate(x[:top]):
        if a:
            for j, b in enumerate(y[:top - i], i):
                out[j] += a * b
    return out


def _coerce(p) -> Poly:
    if p.__class__ is Poly:
        return p
    if isinstance(p, (int, Scalar)):
        return Poly.const(p)
    raise TypeError(f"cannot treat {type(p).__name__} as Poly")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the scalar field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def square_free_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'); same real roots, all simple."""
    if p.is_zero():
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return p.divmod(g)[0]


# one coefficient as scalar_to_str writes it in Q or one Q(sqrt r): an
# optional rational (groups 2, 3), then its end or its sign and a radical
# term (4), and the radical term's optional rational factor (5, 6) and
# rational radicand (7, 8); the leading sign (1) belongs to the first
# term, digit runs are capped as parse_scalar caps them, and no other
# whitespace is allowed.  The lookahead after the rational keeps the
# match free of backtracking on the shapes the writer emits.
_NUM = rf"([0-9]{{1,{MAX_SCALAR_DIGITS}}})"
_RAT = rf"{_NUM}(?:/{_NUM})?"
_COEFF_TEXT = re.compile(
    rf"(-?)(?:{_RAT}(?=\Z| [+-] ))?(?(2)(?: ([+-]) (?=[0-9s]))?)"
    rf"(?:(?:{_RAT}\*)?sqrt\({_RAT}\))?")


def _text_form(texts: list):
    """(tower, vectors, den) for Poly.from_ints read from coefficient
    texts, or None unless every entry is a nonempty string in the shape
    of _COEFF_TEXT with no zero denominator, and all radicals share one
    radicand text naming a rational that is not a square."""
    xs, ys, rad = [], [], None     # (numerator, denominator) per part
    for t in texts:
        m = _COEFF_TEXT.fullmatch(t) if type(t) is str else None
        if m is None:
            return None
        neg, a, ad, op, c, cd, e, ed = m.groups()
        x, dx, y, dy = 0, 1, 0, 1
        if a is not None:
            x, dx = int(a), int(ad or 1)
            if neg:
                x = -x
        if e is not None:
            if rad is None:
                rad = (e, ed)
            elif rad != (e, ed):
                return None
            y, dy = int(c or 1), int(cd or 1)
            if (op == "-") if a is not None else neg:
                y = -y
        elif a is None:            # the empty text, or a sign alone
            return None
        if not (dx and dy):
            return None
        xs.append((x, dx))
        ys.append((y, dy))
    den = lcm(*[d for _, d in xs], *[d for _, d in ys])
    rows = [[n * (den // d) for n, d in part] for part in (xs, ys)]
    if rad is None:
        return None, rows[:1], den
    e, ed = int(rad[0]), int(rad[1] or 1)
    if not ed:
        return None
    root = scalar_sqrt_adjoin(ratio(e, ed))
    if root.tower is None:           # a square or zero radicand
        return None
    return root.tower, rows, den


def _read_form(texts: list):
    """_text_form(texts); None also when int()'s own digit cap refuses."""
    try:
        return _text_form(texts)
    except ValueError:
        return None


def poly_from_json(texts: list) -> Poly:
    """The polynomial whose coefficients are the texts of a JSON list.

    A list in the shapes scalar_to_str writes for Q or one Q(sqrt r) goes
    straight to the integer form, with one scalar_sqrt_adjoin for its
    radicand, so it lands in the tower parse_scalar would build.  Any
    other list is parsed whole by parse_scalar, one entry at a time, so
    it is accepted or refused exactly as there.
    """
    form = _read_form(texts)
    if form is None:
        return Poly([parse_scalar(t) for t in texts])
    return Poly.from_ints(*form)


_SIGNS = str.maketrans("+-", "-+")


def _negated(text: str) -> str:
    """The text of -x, as the writers write it, for a text of x in
    _COEFF_TEXT's shape, where a sign stands only first and between terms."""
    if text == "0":
        return text
    return text[1:].translate(_SIGNS) if text[:1] == "-" else "-" + text.translate(_SIGNS)


def half_angle_from_json(p: list, q: list, r: list) -> Poly | None:
    """half_angle_proof of a sphere triple's texts in the d = 1 shape
    half_angle_to_json writes: p's texts past its first are r's negated
    (_negated), so c = r(0) + p(0) is read off r's form and p's first
    text alone, and r's and q's texts are read once; None for any other
    texts, an irrational or zero c, or when the proof fails.  An empty p,
    the zero p of a quarter turn n = +-1, reads as ["0"], so a quarter
    turn is proved here too."""
    p = p or ["0"]
    fr = _read_form(r)
    head = (fr and len(p) == len(r) and p[1:] == [_negated(u) for u in r[1:]]
            and _read_form(p[:1]))
    if not head or head[0] not in (None, fr[0]):
        return None
    (_, vr, dr), (_, vh, dh) = fr, head
    cn, *cb = _axpy(dh, [v[0] for v in vr], dr, [v[0] for v in vh])   # (r(0) + p(0)) dr dh
    if not cn or any(cb):
        return None
    return half_angle_proof(ratio(cn, dr * dh), _read_form(q), fr)


def poly_to_json(p: Poly) -> list[str]:
    """[scalar_to_json(c) for c in p.coeffs], byte for byte, written from
    the integer form when p has one, with the radical's text formed once;
    a digit run past MAX_SCALAR_DIGITS is refused as there."""
    form = p.int_form()
    if not form:
        return [scalar_to_json(c) for c in p.coeffs]
    return _form_to_json(*form)


def _form_to_json(tower: Tower | None, vectors, den: int) -> list[str]:
    """The texts of an integer form's coefficients, reduced or not, as
    scalar_to_json writes them; its top column is nonzero."""
    if tower is None:
        return [ratio_to_json(a, den) for a in vectors[0]]
    rad = f"sqrt({ratio_to_json(tower.radicand.a, tower.radicand.b)})"
    out = []
    for a, b in zip(*vectors):
        if not b:
            out.append(ratio_to_json(a, den))
            continue
        mag = ratio_to_json(abs(b), den)
        term = rad if mag == "1" else f"{mag}*{rad}"
        if not a:
            out.append(term if b > 0 else f"-{term}")
        else:
            out.append(f"{ratio_to_json(a, den)} {'+' if b > 0 else '-'} {term}")
    return out


def half_angle_to_json(n: Poly, d: Poly) -> list[list[str]] | None:
    """[poly_to_json(x) for x in (1 - n^2, 2n, 1 + n^2)], byte for byte, for
    d = 1 and n of degree 1 or more with an integer form, else None: r is
    written from one unreduced n^2, and p past its constant term as r's
    texts negated."""
    form = n.int_form()
    if not form or n.degree < 1 or d.int_form() != (None, ((1,),), 1):
        return None
    tower, vectors, den = form
    (a, *b), e = _form_mul(tower, (vectors, den), (vectors, den))
    r = _form_to_json(tower, [[a[0] + e, *a[1:]], *b], e)
    p = _form_to_json(tower, [[e - a[0]], *[[-v[0]] for v in b]], e)
    q = _form_to_json(tower, [[2 * z for z in v] for v in vectors], den)
    return [p + [_negated(t) for t in r[1:]], q, r]
