"""Sturm-chain root counting over the exact scalar field.

One signed remainder sequence of p and p' gives the number of distinct
real roots, on the whole line or on a closed interval, and an interval
isolating one.  The sequence ends in g = gcd(p, p'); divided by g it is
a Sturm sequence of the square-free part p/g (Basu, Pollack and Roy,
Algorithms in Real Algebraic Geometry, ch. 2), so multiplicities never
skew the count, and V(a) - V(b) counts the roots in (a, b] exactly.
"""

from __future__ import annotations

from ..errors import ZeroPolynomial
from .poly import Poly
from .scalar import Scalar, scal

POS_INF = "+inf"
NEG_INF = "-inf"


class SturmChain:
    """The signed remainder sequence of a nonzero p and p', built once and
    divided by its last element g when deg g >= 1, so that polys[0] is
    the square-free part of p."""

    __slots__ = ("polys",)

    def __init__(self, p: Poly):
        if p.is_zero():
            raise ZeroPolynomial("root counting on the zero polynomial")
        chain = [p, p.derivative()]
        while chain[-1].degree > 0:
            chain.append(-(chain[-2] % chain[-1]))
        chain = [q for q in chain if not q.is_zero()]
        g = chain[-1]
        self.polys = [q // g for q in chain] if g.degree >= 1 else chain

    def variations_at(self, x) -> int:
        """Sign changes at x or at a +-inf marker, zero signs dropped."""
        if x == POS_INF or x == NEG_INF:
            end = -1 if x == NEG_INF else 1
            signs = [q.lead().sign() * end ** q.degree for q in self.polys]
        else:
            signs = [q(x).sign() for q in self.polys]
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, interval: tuple | None = None) -> int:
        """Distinct real roots, whole-line or in closed [a, b]."""
        if interval is None:
            return self.variations_at(NEG_INF) - self.variations_at(POS_INF)
        a, b = scal(interval[0]), scal(interval[1])
        if b < a:
            raise ValueError("interval endpoints out of order")
        return (self.variations_at(a) - self.variations_at(b)
                + (self.polys[0](a).sign() == 0))

    def witness(self, region: tuple | None = None) -> tuple:
        """Exact interval (lo, hi) isolating some root in the closed region
        (None: the whole line), for witness reporting; requires a root."""
        sf = self.polys[0]
        if region is None:
            bound = cauchy_bound(sf)
            lo, hi = -bound, bound
        else:
            lo, hi = scal(region[0]), scal(region[1])
            for end in (lo, hi):
                if sf(end).sign() == 0:
                    return (end, end)
        v_lo, v_hi = self.variations_at(lo), self.variations_at(hi)
        if v_lo - v_hi < 1:
            raise ValueError("no root to isolate in the region")
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            if sf(mid).sign() == 0:
                return (mid, mid)
            v_mid = self.variations_at(mid)
            if v_lo > v_mid:
                hi, v_hi = mid, v_mid
            else:
                lo, v_lo = mid, v_mid
        return (lo, hi)


def cauchy_bound(p: Poly) -> Scalar:
    """B with every real root of p inside (-B, B)."""
    li = p.lead().inverse()
    return sum((abs(c * li) for c in p.coeffs[:-1]), scal(0)) + 1


def sturm_root_count(p: Poly, interval: tuple | None = None) -> int:
    """Distinct real roots of p, whole-line or in closed [a, b]; raises
    ZeroPolynomial for p = 0, and a nonzero constant has none."""
    return SturmChain(p).count(interval)
