"""Polynomial Chinese remainder interpolation at curvilinear centers.

Given residues modulo (x - c_i)^{e_i} at pairwise distinct centers, there
is exactly one polynomial of degree < sum(e_i) matching all of them; with
all orders equal to 1 this is Lagrange interpolation.

The work is split as in the Chinese remainder algorithm (von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 5).  One CrtBasis per node
set checks the nodes once and forms the node product M = prod (x -
c_i)^{e_i} once, for rational nodes as one integer-vector product.  The
data of node i, m_i = M / (x - c_i)^{e_i} and the inverse of m_i modulo
(x - c_i)^{e_i}, is built the first time a nonzero residue there needs
it.  An interpolant is the sum of the terms m_i lift_i, formed on their
integer forms and reduced once (poly.sum_of_products).  A basis lives
for one interpolation or one stage of rotation twists, and a torus
interpolating twist reads its node product off the basis it
interpolates on; nothing is cached beyond that.
"""

from __future__ import annotations

from ..errors import PreconditionFailed
from .poly import Poly, sum_of_products
from .scalar import ONE, Scalar, repeats, scal
from .series import Series, poly_to_series


def _residue(value, center: Scalar, order: int):
    """A residue as a Scalar at an order-1 node, where F[x]/(x - c) is F
    itself, and as a Series at (center, order) at a higher one."""
    if isinstance(value, Series):
        if value.order != order or not (value.center == center):
            raise ValueError("residue series does not match its (center, order)")
    elif isinstance(value, (list, tuple)):
        value = Series(center, order, value)
    elif order == 1:
        return scal(value)
    else:
        return Series.constant(scal(value), center, order)
    return value.value() if order == 1 else value


def _strip_node(m: Poly, c: Scalar, times: int = 1) -> Poly:
    """m / (x - c)^times; (x - c)^times must divide m.

    For rational m and c = a/b, Gauss's lemma makes the integer form of m
    (z over den) divisible by b x - a in Z[x], so each quotient w comes
    from exact integer divisions, and m / (x - c)^times is b^times w / den,
    reduced once; any other m or c takes Poly division.
    """
    form = m.int_form() if c.tower is None else None
    if form is not None and form[0] is None:
        _, (z,), den = form
        a, b = c.a, c.b
        for _ in range(times):
            w = [0] * (len(z) - 1)
            acc = 0
            for k in range(len(z) - 1, 0, -1):
                acc = w[k - 1] = (z[k] + a * acc) // b
            z = w
        scale = b ** times
        return Poly.from_ints(None, ([scale * v for v in z],), den)
    return m // Poly([-c, ONE]) ** times


def _check_distinct(nodes: list[Scalar]):
    """Refuse a node listed twice, naming the first node that repeats an
    earlier one (scalar.repeats: rational nodes by their int pairs, tower
    nodes by value)."""
    pair = next(repeats([(c,) for c in nodes]), None)
    if pair is not None:
        raise PreconditionFailed(f"center {nodes[pair[1]]} listed twice")


class CrtBasis:
    """The interpolation basis of distinct nodes c_i with orders e_i.

    ``modulus`` is the node product M = prod (x - c_i)^{e_i}.  For
    rational nodes c_i = a_i / b_i it is prod (b_i x - a_i)^{e_i} over
    prod b_i^{e_i}, one integer-vector product; tower nodes multiply
    Polys.  A basis serves any number of interpolations on its nodes.
    """

    def __init__(self, nodes, orders):
        self.nodes = [scal(c) for c in nodes]
        self.orders = list(orders)
        _check_distinct(self.nodes)
        if all(c.tower is None for c in self.nodes):
            z, den = [1], 1
            for c, e in zip(self.nodes, self.orders, strict=True):
                a, b = c.a, c.b
                for _ in range(e):
                    z = [b * u - a * v for u, v in zip([0] + z, z + [0])]
                den *= b ** e
            self.modulus = Poly.from_ints(None, (z,), den)
        else:
            m = Poly.const(1)
            for c, e in zip(self.nodes, self.orders, strict=True):
                m = m * Poly([-c, ONE]) ** e
            self.modulus = m
        self._data = [None] * len(self.nodes)

    def _node(self, i: int):
        """(m_i, inverse of m_i mod (x - c_i)^{e_i}), built on first use:
        the inverse is the Scalar 1 / m_i(c_i) at an order-1 node and a
        Series at a higher one."""
        data = self._data[i]
        if data is None:
            c, e = self.nodes[i], self.orders[i]
            m_i = _strip_node(self.modulus, c, e)
            if e == 1:
                inv = m_i(c).inverse()
            else:
                inv = poly_to_series(m_i, c, e).invert()
            data = self._data[i] = (m_i, inv)
        return data

    def _factors(self, i: int, value):
        """(m_i, lift) with m_i lift the interpolant of ``value`` at node i
        and zero at every other node: lift is value / m_i mod
        (x - c_i)^{e_i}, a constant at an order-1 node.  None for a zero
        value, whose term is zero and is not formed."""
        val = _residue(value, self.nodes[i], self.orders[i])
        if val.is_zero():
            return None
        m_i, inv = self._node(i)
        if self.orders[i] == 1:
            return m_i, Poly.const(val * inv)
        return m_i, (val * inv).to_poly()

    def term(self, i: int, value) -> Poly:
        """The interpolant of ``value`` at node i and zero at every other."""
        factors = self._factors(i, value)
        return Poly() if factors is None else factors[0] * factors[1]

    def interpolate(self, values) -> Poly:
        """The unique p with deg p < deg M and p = values[i] mod
        (x - c_i)^{e_i}, one value per node (a Scalar, anything scal
        takes, a coefficient list or a Series at that node and order).

        p is the sum of the nonzero values' terms, formed on their
        integer forms and reduced once.
        """
        values = list(values)
        if len(values) != len(self.nodes):
            raise ValueError("one value per node")
        pairs = [self._factors(i, v) for i, v in enumerate(values)]
        return sum_of_products([f for f in pairs if f is not None])


def crt_combine(residues) -> Poly:
    """Unique polynomial p with deg p < sum(e_i), p = value_i mod (x-c_i)^{e_i}.

    ``residues`` is a list of (center, order, value) with value a Series at
    that center and order, or anything coercible to one.
    """
    residues = list(residues)
    basis = CrtBasis([c for c, _, _ in residues], [e for _, e, _ in residues])
    return basis.interpolate([v for _, _, v in residues])
