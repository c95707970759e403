"""Independent reference implementations used only by the tests.

Everything here runs on plain lists, so the code under test shares no
polynomial or series arithmetic with the oracle that checks it.  The
lists hold Fractions, except that the series oracle also takes the
package's scalars, to cover tower coefficients.  Polynomials and series
are coefficient lists, lowest degree first.  One exception is
sphere_twist_of, a former version of package code kept as the reference
for the proof that replaced it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

F = Fraction


def trim(cs: list[F]) -> list[F]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def p_add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0))
                 for i in range(n)])


def p_scale(a, c):
    return trim([x * c for x in a])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def p_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_taylor(a, c, n):
    """First n Taylor coefficients of ``a`` around ``c``, by the binomial
    sum t_j = sum_k C(k, j) a_k c^(k-j); the entries of ``a`` and ``c``
    may be Fractions or the package's scalars."""
    zero = c - c
    return [sum((a[k] * comb(k, j) * c ** (k - j) for k in range(j, len(a))), zero)
            for j in range(n)]


class Quad:
    """a + b sqrt(r) for Fractions a, b and a fixed rational non-square r,
    as a plain pair: the series oracles run on these (or on Fractions)
    to check the package's Q(sqrt r) arithmetic without sharing it."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b=0, r=0):
        self.a, self.b, self.r = F(a), F(b), F(r)

    def _lift(self, o):
        return o if isinstance(o, Quad) else Quad(o, 0, self.r)

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.a + o.a, self.b + o.b, self.r)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.r)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = self._lift(o)
        return Quad(self.a * o.a + self.r * self.b * o.b,
                    self.a * o.b + self.b * o.a, self.r)

    __rmul__ = __mul__

    def __rtruediv__(self, o):
        norm = self.a * self.a - self.r * self.b * self.b
        return Quad(self.a / norm, -self.b / norm, self.r) * o

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def sign(self):
        """-1, 0 or 1 for r > 0 not a square: the sign of the larger of
        |a| and |b| sqrt(r), compared through a^2 and b^2 r."""
        if self.a * self.a > self.b * self.b * self.r:
            return (self.a > 0) - (self.a < 0)
        return (self.b > 0) - (self.b < 0)

    def __repr__(self):
        return f"Quad({self.a}, {self.b}, r={self.r})"


def s_mul(a, b):
    """Product of two truncated series of the same length; the entries
    may be Fractions, Quads or the package's scalars."""
    e = len(a)
    out = [a[0] - a[0]] * e
    for i in range(e):
        for j in range(e - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def s_inv(a):
    """Inverse of a truncated series with a[0] != 0, by the triangular
    recurrence v_k = -v_0 sum_{0<i<=k} a_i v_(k-i)."""
    v0 = 1 / a[0]
    out = [v0]
    for k in range(1, len(a)):
        acc = a[0] - a[0]
        for i in range(1, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-(acc * v0))
    return out


def s_sqrt(a, s0):
    """The square root of a truncated series whose value is s0, by the
    recurrence 2 s0 s_k = a_k - sum_{0<i<k} s_i s_(k-i)."""
    inv = 1 / (s0 + s0)
    out = [s0]
    for k in range(1, len(a)):
        acc = a[k]
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(acc * inv)
    return out


def p_sqrt(a):
    """The m with m^2 = a and a positive leading coefficient, found from
    the top down over Fractions, or None when the nonzero ``a`` is no
    square in Q[x]; the zero polynomial, with no leading coefficient to
    take the root of, gives None as well."""
    a = trim(list(a))
    if not a or len(a) % 2 == 0 or a[-1] < 0:
        return None
    num, den = a[-1].numerator, a[-1].denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    k = len(a) // 2
    m = [F(0)] * k + [F(rn, rd)]
    for i in range(1, k + 1):
        acc = a[2 * k - i]
        for j in range(1, i):
            acc -= m[k - j] * m[k - i + j]
        m[k - i] = acc / (2 * m[k])
    return m if p_mul(m, m) == a else None


def crt_full_sum(residues):
    """The CRT interpolant of (c, e, values) triples as the sum of every
    residue's term m_i L_i, zero residues included: m_i is the node
    product without node i, and L_i the lift to powers of x of
    values / m_i mod (x - c)^e."""
    out = []
    for i, (c, e, vals) in enumerate(residues):
        m_i = [F(1)]
        for j, (cj, ej, _) in enumerate(residues):
            for _ in range(ej if j != i else 0):
                m_i = p_mul(m_i, [-cj, F(1)])
        u = s_mul(list(vals), s_inv(p_taylor(m_i, c, e)))
        out = p_add(out, p_mul(m_i, p_taylor(u, -c, e)))
    return out


def series_horner(a, s):
    """a(s) truncated to len(s) terms, by Horner's rule over series."""
    acc = [s[0] - s[0]] * len(s)
    for c in reversed(a):
        acc = s_mul(acc, s)
        acc[0] = acc[0] + c
    return acc


def read_back(coords, driver=None):
    """(driver, graphs) for a curve whose coordinates are the truncated
    Fraction series ``coords`` in t, all of one length e.

    The driver is the first coordinate with a nonzero linear term, 0 when
    e = 1, or ``driver`` when one is given; None is returned when no
    coordinate has a linear term.  Each other coordinate, in cyclic order
    after the driver, becomes a series in the driver's deviation
    s = a(t) - a_0: the inverse t(s) is the fixed point of
    t = (s - sum_(k>=2) a_k t^k) / a_1, each pass fixing one more
    coefficient, and each coordinate is composed with it.
    """
    e = len(coords[0])
    if driver is None:
        driver = next((i for i, c in enumerate(coords) if e == 1 or c[1] != 0), None)
        if driver is None:
            return None
    a = coords[driver]
    t = [F(0)] * e
    if e > 1:
        s, higher = [F(0), F(1)] + [F(0)] * (e - 2), [F(0), F(0)] + list(a[2:])
        for _ in range(e):
            t = [(sk - hk) / a[1] for sk, hk in zip(s, series_horner(higher, t))]
    others = coords[driver + 1:] + coords[:driver]
    return driver, [series_horner(o, t) for o in others]


def sphere_twist_step(n, d, t, u, v):
    """The rotated pair (u, v) of one sphere twist with half-angle n/d at
    the series t, always by the full formula ((u p - v q)/r, (u q + v p)/r)
    for (p, q, r) = (d^2 - n^2, 2nd, d^2 + n^2): every product and the
    inverse of r are formed, whether the angle is zero or not."""
    nv, dv = series_horner(n, t), series_horner(d, t)
    nn, dd, nd = s_mul(nv, nv), s_mul(dv, dv), s_mul(nv, dv)
    p = [a - b for a, b in zip(dd, nn)]
    q = [a + a for a in nd]
    rinv = s_inv([a + b for a, b in zip(dd, nn)])
    up, uq, vp, vq = s_mul(u, p), s_mul(u, q), s_mul(v, p), s_mul(v, q)
    return (s_mul([a - b for a, b in zip(up, vq)], rinv),
            s_mul([a + b for a, b in zip(uq, vp)], rinv))


def torus_twist_step(p, q, src, moved):
    """The moved (chart, series) pair after adding p/q of the src pair,
    always by the full formula: p and q homogenized to degree deg q and
    read at src, the pair (m0 q + p m1 : m1 q) formed and brought to
    chart 0 when its second entry is a unit, to chart 1 otherwise."""
    k = len(q) - 1
    (sc, s), (mc, m) = src, moved
    if sc == 1:
        p, q = ([a[k - i] if k - i < len(a) else F(0) for i in range(k + 1)]
                for a in (p, q))
    ph, qh = series_horner(p, s), series_horner(q, s)
    one = [F(1)] + [F(0)] * (len(s) - 1)
    m0, m1 = (m, one) if mc == 0 else (one, m)
    h0 = [a + b for a, b in zip(s_mul(m0, qh), s_mul(ph, m1))]
    return _normalize(h0, s_mul(m1, qh))


def moebius_step(m, f):
    """The (chart, series) pair f moved by the 2x2 Fraction matrix m:
    the pair (m00 f0 + m01 f1 : m10 f0 + m11 f1) of its homogeneous
    entries, brought to a chart as in torus_twist_step."""
    mc, s = f
    one = [F(1)] + [F(0)] * (len(s) - 1)
    f0, f1 = (s, one) if mc == 0 else (one, s)
    return _normalize(*([r[0] * a + r[1] * b for a, b in zip(f0, f1)] for r in m))


def _normalize(h0, h1):
    """Chart 0 and h0/h1 when h1 is a unit, else chart 1 and h1/h0."""
    if h1[0] != 0:
        return 0, s_mul(h0, s_inv(h1))
    return 1, s_mul(h1, s_inv(h0))


def p_divmod(a, b):
    a = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and trim(list(a)):
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        trim(a)
    return trim(q), a


def p_gcd(a, b):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, p_divmod(a, b)[1]
    if a:
        a = p_scale(a, 1 / a[-1])
    return a


def p_deriv(a):
    return trim([a[i] * i for i in range(1, len(a))])


def squarefree(a):
    g = p_gcd(a, p_deriv(a))
    if len(g) <= 1:
        return trim(list(a))
    return p_divmod(a, g)[0]


def sign_variations(cs) -> int:
    signs = [1 if c > 0 else -1 for c in cs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _mapped_to_unit(a, lo, hi):
    """Coefficients of (1+v)^n p((lo + hi*v)/(1+v)) for p on (lo, hi)."""
    n = len(a) - 1
    acc = []
    lin_lo = [lo, hi]          # lo + hi*v
    lin_one = [F(1), F(1)]     # 1 + v
    pow_lo = [F(1)]
    pows = []
    for _ in range(n + 1):
        pows.append(pow_lo)
        pow_lo = p_mul(pow_lo, lin_lo)
    pow_one = [F(1)]
    ones = []
    for _ in range(n + 1):
        ones.append(pow_one)
        pow_one = p_mul(pow_one, lin_one)
    out = []
    for i, c in enumerate(a):
        out = p_add(out, p_scale(p_mul(pows[i], ones[n - i]), c))
    return out


def count_open(a, lo, hi) -> int:
    """Distinct roots of square-free ``a`` in the open interval (lo, hi)."""
    v = sign_variations(_mapped_to_unit(a, lo, hi))
    if v == 0:
        return 0
    if v == 1:
        return 1
    mid = (lo + hi) / 2
    n = count_open(a, lo, mid) + count_open(a, mid, hi)
    if p_eval(a, mid) == 0:
        n += 1
    return n


def count_closed(a, lo, hi) -> int:
    """Distinct roots of arbitrary ``a`` in the closed interval [lo, hi]."""
    a = squarefree(a)
    n = count_open(a, lo, hi)
    if p_eval(a, lo) == 0:
        n += 1
    if hi != lo and p_eval(a, hi) == 0:
        n += 1
    return n


def count_line(a) -> int:
    """Distinct real roots of ``a``, anywhere."""
    a = squarefree(a)
    if len(a) <= 1:
        return 0
    bound = F(1) + max(abs(c / a[-1]) for c in a)
    return count_closed(a, -bound, bound)


def euler_resolve_then_contract(base_chi: int, orders) -> int:
    """Euler characteristic of the blown-up surface, the long way around.

    First resolve: each weight-e center trades a disc (chi 1) for a piece
    of chi 1-e, dropping chi by e.  Then contract: the cone of weight e
    sits over a chain of e-1 circles meeting consecutively in e-2 points,
    of chi -(e-2) by inclusion-exclusion; contracting a connected chain
    to a point adds 1 minus its chi.
    """
    chi = base_chi - sum(orders)
    for e in orders:
        if e >= 2:
            chain_chi = 0 * (e - 1) - (e - 2)
            chi += 1 - chain_chi
    return chi


def sphere_route(p, q, r):
    """The proof of a sphere triple by the half-angle multiple lam.

    n/d = q/(r + p) in lowest terms with d monic (the half turn n = 1,
    d = 0 when r + p = 0); r = lam (d^2 + n^2) exactly by division, and
    a nonzero constant lam is the square route; any other r is first
    root-counted on [-1, 1].  Returns (route, n, d), or the name of the
    error raised: ZeroPolynomial, RootInForbiddenRegion or IdentityFails.
    """
    s = p_add(r, p)
    if not s:
        n, d = [F(1)], []
    else:
        g = p_gcd(q, s)
        n, d = p_divmod(q, g)[0], p_divmod(s, g)[0]
        n, d = p_scale(n, 1 / d[-1]), p_scale(d, 1 / d[-1])
    nn, dd, nd = p_mul(n, n), p_mul(d, d), p_mul(n, d)
    cos, sin, norm = p_add(dd, p_scale(nn, F(-1))), p_add(nd, nd), p_add(dd, nn)
    lam, rem = p_divmod(r, norm)
    if not rem and len(lam) == 1:
        route = "sphere-twist-square"
    elif not r:
        return "ZeroPolynomial"
    elif count_closed(r, F(-1), F(1)):
        return "RootInForbiddenRegion"
    else:
        route = "sphere-twist"
    if rem or p != p_mul(lam, cos) or q != p_mul(lam, sin):
        return "IdentityFails"
    return route, n, d


def sphere_twist_of(fixed, p, q, r):
    """SphereTwist.of as it read before a triple with r + p a nonzero
    rational constant took exactalg's integer-form proof: the body is
    kept verbatim, on the package's own Poly arithmetic, so that the
    proof that replaced part of it can be checked against it."""
    from jetmove.automorphisms import (SphereTwist, _as_poly, _check_coordinate,
                                       _root_free)
    from jetmove.errors import IdentityFails
    from jetmove.exactalg import Poly, poly_gcd, scal

    _check_coordinate(fixed, ("x", "y", "z"), "fixed coordinate must be x, y or z")
    p, q, r = _as_poly(p), _as_poly(q), _as_poly(r)
    s = r + p
    if s.is_zero():
        n, d = Poly.const(1), Poly()
    elif s.degree == 0:
        # a nonzero constant is coprime to q: q/s is in lowest terms
        n, d = q * s.lead().inverse(), Poly.const(1)
    else:
        g = poly_gcd(q, s)
        d = s // g
        unit = d.lead().inverse()
        n, d = q // g * unit, d * unit
    holds = (r - p) * s == q * q
    if holds and r.degree == 2 * max(n.degree, d.degree):
        route = "sphere-twist-square"
    else:
        _root_free(r, (scal(-1), scal(1)), "rotation")
        route = "sphere-twist"
    if not holds:
        raise IdentityFails("p^2 + q^2 differs from r^2")
    return SphereTwist(fixed, n, d, route=route)
