"""Interpolation with multiplicities and certified root counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_fraction
from jetmove.errors import PreconditionFailed, ZeroPolynomial
from jetmove.exactalg import (NEG_INF, ONE, POS_INF, CrtBasis, Poly, Series,
                              SturmChain, cauchy_bound, crt_combine,
                              poly_to_series, scal, scalar_sqrt_adjoin,
                              sturm_root_count)
from jetmove.exactalg.crt import _strip_node
from oracles import (count_closed, count_line, crt_full_sum, p_divmod, p_mul,
                     p_taylor)

x = Poly.x()


def _crt(residues):
    """crt_combine's interpolant and the node product of the residues'
    CrtBasis, the pair a torus interpolating twist is built from."""
    basis = CrtBasis([c for c, _, _ in residues], [e for _, e, _ in residues])
    return crt_combine(residues), basis.modulus


def test_crt_pinned():
    got = crt_combine([(scal(0), 2, scal(1)), (scal(1), 2, scal(2))])
    assert got == Poly([1, 0, 3, -2])


def test_crt_degree_and_congruences(rng):
    for _ in range(25):
        k = rng.randint(1, 4)
        centers = rng.sample(range(-6, 7), k)
        residues = []
        for c in centers:
            e = rng.randint(1, 3)
            val = Series(scal(c), e, [rand_fraction(rng) for _ in range(e)])
            residues.append((scal(c), e, val))
        p = crt_combine(residues)
        total = sum(e for _, e, _ in residues)
        assert p.is_zero() or p.degree < total
        for c, e, val in residues:
            assert poly_to_series(p, c, e) == val


def test_crt_scalar_residues():
    got = crt_combine([(scal(2), 1, scal(7))])
    assert got == Poly([7])
    assert crt_combine([(scal(0), 3, Series(scal(0), 3, [0, 0, 0]))]).is_zero()


def test_crt_duplicate_center_rejected():
    with pytest.raises(PreconditionFailed, match=r"^center 1 listed twice$"):
        crt_combine([(scal(1), 1, scal(0)), (scal(1), 2, scal(0))])


@pytest.mark.parametrize("nodes, orders", [
    # rational nodes are compared by their reduced int pairs
    ([Fraction(2, 4), 3, Fraction(1, 2)], [1, 1, 1]),
    ([Fraction(-5, 3), 0, Fraction(-5, 3)], [1, 3, 2]),    # another order
    # tower nodes by value: sqrt(8)/2 equals sqrt(2) over another tower
    ([1 + scalar_sqrt_adjoin(2), Fraction(1, 3), 1 + scalar_sqrt_adjoin(8) / 2],
     [2, 1, 1]),
    ([scalar_sqrt_adjoin(3), scalar_sqrt_adjoin(3)], [1, 2]),
])
def test_crt_basis_duplicate_nodes_rejected(nodes, orders):
    with pytest.raises(PreconditionFailed, match=r"^center .+ listed twice$"):
        CrtBasis(nodes, orders)
    with pytest.raises(PreconditionFailed, match=r"^center .+ listed twice$"):
        crt_combine([(c, e, 0) for c, e in zip(nodes, orders)])


def test_sturm_pinned_counts():
    p = x * x - 2
    assert sturm_root_count(p) == 2
    assert sturm_root_count(p, (scal(0), scal(2))) == 1
    assert sturm_root_count(p, (scal(-1), scal(1))) == 0
    # multiplicities do not inflate the count
    assert sturm_root_count((x - 1) ** 3 * (x + 1)) == 2
    # endpoint roots are counted
    assert sturm_root_count(x * (x - 1), (scal(0), scal(1))) == 2
    assert sturm_root_count(x, (scal(0), scal(0))) == 1


def test_sturm_rejects_zero_poly():
    with pytest.raises(ZeroPolynomial):
        sturm_root_count(Poly([]))


def test_cauchy_bound_brackets_roots():
    p = (x - 3) * (x + 5) * (2 * x - 1)
    b = cauchy_bound(p)
    assert sturm_root_count(p, (-b, b)) == 3


def test_isolate_root_brackets_exactly_one():
    p = (x - 1) * (x + 2) * (x - 5)
    lo, hi = SturmChain(p).witness((scal(0), scal(3)))
    assert lo < hi
    assert sturm_root_count(p, (lo, hi)) == 1
    assert scal(0) <= lo and hi <= scal(3)


def test_sturm_agrees_with_bisection_oracle(rng):
    for _ in range(60):
        deg = rng.randint(1, 6)
        frs = [rand_fraction(rng, 5, 5) for _ in range(deg + 1)]
        if all(f == 0 for f in frs):
            frs[-1] = Fraction(1)
        if rng.random() < 0.4:
            root = rng.randint(-2, 2)
            frs = _mul_lists(frs, [Fraction(-root), Fraction(1)])
            if rng.random() < 0.5:
                frs = _mul_lists(frs, [Fraction(-root), Fraction(1)])
        p = Poly(frs)
        assert sturm_root_count(p) == count_line(frs)
        assert sturm_root_count(p, (scal(-1), scal(1))) == count_closed(frs, -1, 1)


def test_sturm_agrees_with_sympy(rng):
    # an independent implementation: distinct real roots on the whole line
    # and on closed [-1, 1] (count_roots), and the chain's first element
    # against sqf_part up to a constant, with multiple roots and roots at
    # the endpoints +-1 mixed in
    sympy = pytest.importorskip("sympy")
    sx = sympy.Symbol("x")

    def sym(frs):
        return sympy.Poly([sympy.Rational(f.numerator, f.denominator)
                           for f in reversed(frs)], sx)

    for _ in range(120):
        frs = [rand_fraction(rng, 5, 5) for _ in range(rng.randint(1, 4))]
        if all(f == 0 for f in frs):
            frs[-1] = Fraction(1)
        for _ in range(rng.randint(0, 3)):
            root = rng.choice([Fraction(-1), Fraction(1), rand_fraction(rng, 3, 3)])
            for _ in range(rng.randint(1, 3)):
                frs = _mul_lists(frs, [-root, Fraction(1)])
        if len(frs) < 2:
            continue
        p, want = Poly(frs), sym(frs)
        assert sturm_root_count(p) == want.count_roots()
        assert sturm_root_count(p, (scal(-1), scal(1))) == want.count_roots(-1, 1)
        sf = SturmChain(p).polys[0].monic()
        ref = sympy.sqf_part(want).monic().all_coeffs()[::-1]
        assert [c.as_fraction() for c in sf.coeffs] == \
            [Fraction(int(c.p), int(c.q)) for c in ref]


def test_chain_is_built_on_the_square_free_part():
    # the remainder sequence of p, p' ends in gcd(p, p'); divided by it, the
    # chain starts at p / gcd and ends at a constant
    p = (x - 1) ** 3 * (x + 2) ** 2 * (x * x + 1)
    polys = SturmChain(p).polys
    assert polys[0].monic() == ((x - 1) * (x + 2) * (x * x + 1)).monic()
    assert polys[-1].degree == 0
    assert SturmChain(Poly([3])).polys == [Poly([3])]
    assert SturmChain(x * x - 2).polys[0] == x * x - 2


def _mul_lists(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


# ---------------------------------------------------------------------------
# the integer path of node products, node stripping and interpolation
# against the Fraction oracle

s2 = scalar_sqrt_adjoin(2)
node = st.one_of(st.just(Fraction(0)), st.integers(-9, -1).map(Fraction),
                 st.fractions(min_value=-5, max_value=5, max_denominator=9))
nodes = st.lists(st.tuples(node, st.integers(1, 3)), min_size=1, max_size=4,
                 unique_by=lambda ne: ne[0])


def _node_product(items):
    m = [Fraction(1)]
    for c, e in items:
        for _ in range(e):
            m = p_mul(m, [-c, Fraction(1)])
    return m


@settings(max_examples=60, deadline=None)
@given(nodes, st.data())
def test_crt_combine_and_node_product_agree_with_oracle(items, data):
    residues = []
    for c, e in items:
        vals = data.draw(st.lists(node, min_size=e, max_size=e))
        residues.append((scal(c), e, Series(scal(c), e, vals)))
    p, m = _crt(residues)
    assert list(m.coeffs) == _node_product(items)
    assert p.is_zero() or p.degree < m.degree
    for c, e, val in residues:
        assert p_taylor(list(p.coeffs), c, e) == list(val.coeffs)


@settings(max_examples=40, deadline=None)
@given(nodes, st.data())
def test_crt_skips_zero_residues_and_equals_the_full_sum(items, data):
    # a zero residue's term is left out: the interpolant still equals
    # the sum of every residue's term, zeros included
    residues, triples = [], []
    for c, e in items:
        vals = data.draw(st.one_of(st.just([Fraction(0)] * e),
                                   st.lists(node, min_size=e, max_size=e)))
        residues.append((scal(c), e, Series(scal(c), e, vals)))
        triples.append((c, e, vals))
    p, m = _crt(residues)
    assert list(p.coeffs) == crt_full_sum(triples)
    assert list(m.coeffs) == _node_product(items)


def _no_series(*args):
    raise AssertionError("series arithmetic at an order-1 node")


@settings(max_examples=40, deadline=None)
@given(st.lists(node, min_size=1, max_size=5, unique=True), st.data())
def test_crt_at_order_one_nodes_forms_no_series(centers, data):
    # at an order-1 node the lift is the scalar value / m_i(c): rational
    # values and values in Q(sqrt 2) are interpolated with no series
    # product or inverse, and the interpolant is still the full sum
    triples = []
    for c in centers:
        a, b = data.draw(st.tuples(node, st.one_of(st.just(Fraction(0)), node)))
        triples.append((c, 1, [scal(a) + scal(b) * s2]))
    residues = [(scal(c), e, vals[0]) for c, e, vals in triples]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Series, "invert", _no_series)
        mp.setattr(Series, "__mul__", _no_series)
        p, m = _crt(residues)
    assert list(p.coeffs) == crt_full_sum(triples)
    assert list(m.coeffs) == _node_product([(c, 1) for c in centers])


def test_crt_of_zero_residues_still_checks_them():
    # all zero: the zero interpolant and the whole node product, and a
    # zero residue is still coerced to its (center, order)
    p, m = _crt([(scal(0), 2, scal(0)), (scal(1), 1, [0])])
    assert p.is_zero() and m == Poly([0, -1, 1]) * Poly([0, 1])
    with pytest.raises(ValueError):
        _crt([(scal(0), 2, Series(scal(0), 1, [0]))])


@settings(max_examples=60, deadline=None)
@given(nodes, st.integers(0, 3))
def test_strip_node_agrees_with_oracle(items, k):
    m = _node_product(items)
    c = items[k % len(items)][0]
    quo, rem = p_divmod(m, [-c, Fraction(1)])
    assert rem == []
    assert list(_strip_node(Poly(m), scal(c)).coeffs) == quo


def test_strip_node_at_high_degree_and_constants():
    m = _node_product([(Fraction(k, 7), 1) for k in range(-14, 15)])
    assert len(m) == 30
    for c in (Fraction(-2), Fraction(0), Fraction(13, 7)):
        assert list(_strip_node(Poly(m), scal(c)).coeffs) == \
            p_divmod(m, [-c, Fraction(1)])[0]
    assert _strip_node(Poly([5]), scal(Fraction(1, 3))).is_zero()
    assert _strip_node(Poly(), scal(2)).is_zero()


@pytest.mark.parametrize("c, values", [
    (Fraction(1, 3), [s2, 1 - s2]),            # tower values, rational node
    (1 + s2, [Fraction(2, 5), Fraction(-1)]),  # a tower node
])
def test_crt_and_strip_node_fall_back_on_towers(c, values):
    c = scal(c)
    residues = [(c, 2, Series(c, 2, values)), (scal(-1), 1, scal(3))]
    p, m = _crt(residues)
    assert list(m.coeffs) == p_mul(p_mul([-c, ONE], [-c, ONE]), [ONE, ONE])
    for center, e, val in residues:
        val = val if isinstance(val, Series) else Series.constant(val, center, 1)
        assert p_taylor(list(p.coeffs), center, e) == list(val.coeffs)
    tower_m = Poly([s2, 1]) * Poly([-c, 1])
    assert _strip_node(tower_m, c) == Poly([s2, 1])
    # twice, with a node over Q(sqrt 3) beside it
    m = Poly(_node_product([(c, 3), (s3, 1)]))
    assert _strip_node(m, c, 2) == Poly(_node_product([(c, 1), (s3, 1)]))


@settings(max_examples=40, deadline=None)
@given(nodes, st.integers(0, 3), st.integers(1, 3))
def test_strip_node_several_times_agrees_with_oracle(items, k, times):
    # node k listed again with ``times`` more: stripping it that often
    # leaves the product of the nodes as drawn
    c = items[k % len(items)][0]
    m = _node_product(items + [(c, times)])
    assert list(_strip_node(Poly(m), scal(c), times).coeffs) == _node_product(items)


# ---------------------------------------------------------------------------
# one basis, several interpolations: the per-node data built for one value
# vector must serve the next unchanged

s3 = scalar_sqrt_adjoin(3)
_ROOTS = (s2, s3)


@st.composite
def _basis_nodes(draw):
    """Up to three distinct (node, order) pairs: rational nodes, and nodes
    q + k sqrt 2 or q + k sqrt 3 with k != 0."""
    keys = draw(st.lists(
        st.tuples(node, st.integers(-2, 2), st.integers(0, 1)),
        min_size=1, max_size=3,
        unique_by=lambda t: (t[0], t[1], t[2] if t[1] else None)))
    return [(scal(q) + scal(k) * _ROOTS[r] if k else scal(q), draw(st.integers(1, 3)))
            for q, k, r in keys]


_value = st.one_of(node.map(scal),
                   st.tuples(node, node).map(lambda ab: scal(ab[0]) + scal(ab[1]) * s2))


@st.composite
def _value_vector(draw, items):
    """Coefficient lists for every node: all zero, one nonzero residue, or
    every residue drawn."""
    kind = draw(st.sampled_from(("zero", "single", "full")))
    hit = draw(st.integers(0, len(items) - 1))
    out = []
    for i, (_, e) in enumerate(items):
        if kind == "full" or (kind == "single" and i == hit):
            out.append(draw(st.lists(_value, min_size=e, max_size=e)))
        else:
            out.append([scal(0)] * e)
    return out


@settings(max_examples=40, deadline=None)
@given(_basis_nodes(), st.data())
def test_crt_basis_interpolations_agree_with_oracle_and_fresh_crt(items, data):
    basis = CrtBasis([c for c, _ in items], [e for _, e in items])
    for _ in range(3):
        vectors = data.draw(_value_vector(items))
        triples = [(c, e, vals) for (c, e), vals in zip(items, vectors)]
        # an order-1 residue goes in as its scalar, a higher one as a series
        values = [vals[0] if e == 1 else Series(c, e, vals) for c, e, vals in triples]
        p = basis.interpolate(values)
        assert list(p.coeffs) == crt_full_sum(triples)
        fresh, m = _crt([(c, e, v) for (c, e), v in zip(items, values)])
        assert p == fresh and m == basis.modulus
        for i, v in enumerate(values):
            assert basis.term(i, v) == crt_combine(
                [(c, e, v if k == i else 0) for k, (c, e) in enumerate(items)])
