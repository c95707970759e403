"""Polynomial Chinese remainder interpolation at curvilinear centers.

Given residues modulo (x - c_i)^{e_i} at pairwise distinct centers, there
is exactly one polynomial of degree < sum(e_i) matching all of them; with
all orders equal to 1 this is Lagrange interpolation.
"""

from __future__ import annotations

from ..errors import DuplicateCenter
from .poly import Poly
from .scalar import ONE, Scalar, scal
from .series import Series, poly_to_series


def _coerce_value(value, center: Scalar, order: int) -> Series:
    if isinstance(value, Series):
        if value.order != order or not (value.center == center):
            raise ValueError("residue series does not match its (center, order)")
        return value
    if isinstance(value, (list, tuple)):
        return Series(center, order, value)
    return Series.constant(scal(value), center, order)


def _strip_node(m: Poly, c: Scalar) -> Poly:
    """m / (x - c) by synthetic division; (x - c) must divide m.

    For rational m and c = a/b, Gauss's lemma makes the integer form of m
    (z over den) divisible by b x - a in Z[x], so the quotient w comes
    from exact integer divisions and m / (x - c) is b w / den.
    """
    form = m.int_form() if c.tower is None else None
    if form is not None and form[0] is None:
        _, (z,), den = form
        a, b = c.a, c.b
        w = [0] * (len(z) - 1)
        acc = 0
        for k in range(len(z) - 1, 0, -1):
            acc = w[k - 1] = (z[k] + a * acc) // b
        return Poly.from_ints(None, ([b * v for v in w],), den)
    q = list(m.coeffs[1:])
    for k in range(len(q) - 2, -1, -1):
        q[k] = q[k] + q[k + 1] * c
    return Poly(q)


def crt_combine(residues) -> Poly:
    """Unique polynomial p with deg p < sum(e_i), p = value_i mod (x-c_i)^{e_i}.

    ``residues`` is a list of (center, order, value) with value a Series at
    that center and order, or anything coercible to one.
    """
    return crt_with_modulus(residues)[0]


def crt_with_modulus(residues) -> tuple[Poly, Poly]:
    """crt_combine's interpolant and its node product prod (x - c_i)^{e_i}.

    The interpolant is the sum over the residues of m_i times the lift
    of value_i / m_i mod (x - c_i)^{e_i}, for m_i the node product
    without node i; a zero value's term is zero and is not formed.  At
    an order-1 node that lift is the scalar value_i / m_i(c_i).
    """
    items: list[tuple[Scalar, int, Series]] = []
    for center, order, value in residues:
        c = scal(center)
        items.append((c, order, _coerce_value(value, c, order)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i][0] == items[j][0]:
                raise DuplicateCenter(f"center {items[i][0]} listed twice")
    m = Poly.const(1)
    for c, e, _ in items:
        m = m * Poly([-c, ONE]) ** e
    out = Poly()
    for c, e, val in items:
        if val.is_zero():
            continue
        m_i = m
        for _ in range(e):
            m_i = _strip_node(m_i, c)
        # correct the residue so that m_i * lift matches val mod (x-c)^e
        if e == 1:
            lift = val.value() * m_i.shifted(c, 1)[0].inverse()
        else:
            lift = (val * poly_to_series(m_i, c, e).invert()).to_poly()
        out = out + m_i * lift
    return out, m
