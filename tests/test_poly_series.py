"""Dense polynomials and truncated series with exact coefficients."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rand_poly, rand_series
from jetmove.errors import NotAUnit, OutputTooLarge, SeriesContextMismatch
from jetmove.exactalg import (ONE, ZERO, Poly, Scalar, Series, compose_centered,
                              hensel_sqrt, poly_from_json, poly_gcd, poly_sqrt,
                              poly_to_json, poly_to_series, scal, parse_scalar,
                              scalar_sqrt_adjoin, scalar_to_str, square_free_part)
from jetmove.exactalg.scalar import MAX_SCALAR_DIGITS
from jetmove.surfaces import scalars_from_json
from oracles import (Quad, p_add, p_eval, p_mul, p_scale, p_sqrt, p_taylor, s_inv,
                     s_mul, s_sqrt, series_horner, trim)

x = Poly.x()


def test_poly_basics():
    p = Poly([1, 0, -1])
    assert p.degree == 2
    assert p(scal(3)) == -8
    assert str(p) == "1 + -x^2"
    assert p.str_in("z") == "1 + -z^2"
    assert (x - 1) * (x + 1) == Poly([-1, 0, 1])
    assert Poly([]).is_zero()
    assert Poly([0, 0]).is_zero()


def test_powers_equal_repeated_products():
    # Scalar, Poly and Series share one square-and-multiply loop
    s2 = scalar_sqrt_adjoin(2)
    for base, one in ((1 + s2 / 3, ONE), (x - scal(Fraction(5, 7)), Poly.const(1)),
                      (x + s2, Poly.const(1)),
                      (Series(s2, 4, [1, 2, s2]), Series.constant(1, s2, 4))):
        want = one
        for n in range(10):
            assert base ** n == want
            want = want * base


def test_poly_call_refuses_series():
    with pytest.raises(TypeError):
        Poly([1, 2, 3])(Series(ZERO, 3, [1, 1]))


def test_poly_divmod_and_gcd():
    a = (x - 1) * (x + 2) ** 2
    b = (x - 1) * (x - 3)
    q, r = a.divmod(b)
    assert q * b + r == a
    g = poly_gcd(a, b)
    assert g.monic() == (x - 1).monic()
    assert square_free_part((x - 1) ** 2 * (x + 2)).monic() == ((x - 1) * (x + 2)).monic()


def test_valuation_at_center():
    c = scal(Fraction(3, 5))
    u = poly_to_series(Poly([Fraction(-24, 25), Fraction(8, 5)]), c, 2)
    assert u.valuation() == 1
    assert Series(ZERO, 3, [0, 0, 5]).valuation() == 2
    assert Series(ZERO, 3, [0, 0, 0]).valuation() == 3
    assert Series(ZERO, 2, [7, 0]).valuation() == 0


def test_series_ring_and_context_guard():
    s = Series(ZERO, 3, [1, 2, 3])
    t = Series(ZERO, 3, [0, 1, 0])
    assert list((s * t).coeffs) == [scal(0), scal(1), scal(2)]
    with pytest.raises(SeriesContextMismatch):
        s + Series(ONE, 3, [1, 2, 3])
    with pytest.raises(SeriesContextMismatch):
        s + Series(ZERO, 2, [1, 2])


def test_series_invert_pinned():
    u = Series(ZERO, 3, [2, 1, 0])
    v = u.invert()
    assert list(v.coeffs) == [scal(Fraction(1, 2)), scal(Fraction(-1, 4)),
                              scal(Fraction(1, 8))]
    with pytest.raises(NotAUnit):
        Series(ZERO, 3, [0, 1, 0]).invert()


def test_hensel_sqrt_circle():
    u = poly_to_series(Poly([1, 0, -1]), ZERO, 4)
    g = hensel_sqrt(u, 1)
    assert list(g.coeffs) == [scal(1), scal(0), scal(Fraction(-1, 2)), scal(0)]
    assert g * g == u
    assert hensel_sqrt(u, -1) == -g


def test_hensel_sqrt_off_center():
    c = scal(Fraction(3, 5))
    u = poly_to_series(Poly([1, 0, -1]), c, 3)
    g = hensel_sqrt(u, Fraction(4, 5))
    assert g.coeffs[0] == Fraction(4, 5)
    assert g.coeffs[1] == Fraction(-3, 4)
    assert g.coeffs[2] == Fraction(-125, 128)
    assert g * g == u


def test_hensel_sqrt_rejects_bad_seed():
    from jetmove.errors import BadSeed
    u = poly_to_series(Poly([1, 0, -1]), ZERO, 3)
    with pytest.raises(BadSeed):
        hensel_sqrt(u, 2)


def test_compose_centered():
    outer = Series(ONE, 3, [1, 2, 1])          # (1 + s)^2 around s = u - 1
    inner = Series(ZERO, 3, [1, 3, 0])         # u(t) = 1 + 3t
    got = compose_centered(outer, inner)
    assert got == Series(ZERO, 3, [1, 6, 9])


def test_series_order_is_fixed():
    # exactly ``order`` coefficients: a short list is padded, a long one
    # refused, since dropping terms is no identity
    assert Series(ZERO, 4, [1, 2]).coeffs == (ONE, scal(2), ZERO, ZERO)
    with pytest.raises(ValueError):
        Series(ZERO, 2, [1, 2, 3])


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.lists(small, max_size=5), st.lists(small, max_size=5),
       st.lists(small, max_size=4))
def test_poly_ring_laws(a, b, c):
    p, q, r = Poly(a), Poly(b), Poly(c)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q).degree <= max(p.degree + q.degree, -1) or (p * q).is_zero()


@given(st.lists(small, min_size=1, max_size=5), st.lists(small, min_size=2, max_size=4))
def test_poly_divmod_law(a, b):
    p, q = Poly(a), Poly(b)
    if q.is_zero():
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


# ---------------------------------------------------------------------------
# the integer path of rational polynomials against the Fraction oracle

s2 = scalar_sqrt_adjoin(2)
s3 = scalar_sqrt_adjoin(3)
coeff = st.fractions(min_value=-40, max_value=40, max_denominator=12)
center = st.one_of(st.just(Fraction(0)), st.integers(-9, -1).map(Fraction),
                   st.fractions(min_value=-5, max_value=5, max_denominator=9))


def _shift_matches(a, c, extra):
    """The Taylor shift of Poly(a) to c, cut at n for n up to
    len(a) + 1 + extra, past deg + 1, equals the binomial-sum oracle,
    and its first coefficient is Poly(a)(c)."""
    top = len(a) + 1 + extra
    p, want = Poly(a), p_taylor(trim(list(a)), c, top)
    for n in (0, 1, len(a) // 2, top):
        assert p.shifted(scal(c), n) == Poly(want[:n])
    assert p(scal(c)) == p_eval(trim(list(a)), c)


@settings(max_examples=80, deadline=None)
@given(st.lists(coeff, max_size=8), center, st.integers(0, 4))
@example([], Fraction(1, 3), 2)
@example([Fraction(5, 7)], Fraction(-2), 3)
def test_shift_agrees_with_oracle(a, c, extra):
    _shift_matches(a, c, extra)


@settings(max_examples=10, deadline=None)
@given(st.lists(coeff, min_size=28, max_size=32),
       st.fractions(min_value=1, max_value=40, max_denominator=12), center)
def test_shift_agrees_with_oracle_at_high_degree(a, lead, c):
    _shift_matches(a + [lead], c, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, max_size=8), st.lists(coeff, max_size=8))
@example([], [Fraction(3)])
@example(list(map(Fraction, range(1, 30))), [Fraction(-1, 2), Fraction(1)])
def test_product_agrees_with_oracle(a, b):
    prod = Poly(a) * Poly(b)
    assert list(prod.coeffs) == p_mul(trim(list(a)), trim(list(b)))
    # the product's stored integer form is the one its coefficients give
    assert prod.int_form() == Poly(prod.coeffs).int_form()


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=6), st.integers(0, 5), center,
       st.integers(0, 4))
def test_tower_coefficient_takes_the_scalar_loop(a, k, c, extra):
    # a coefficient of depth 2: only Q and one depth-1 tower have a form
    a = [scal(f) for f in a]
    a[k % len(a)] = a[k % len(a)] + s2 + s3
    p = Poly(a)
    assert p.int_form() is None
    want = p_taylor(a, c, len(a) + extra)
    assert p.shifted(scal(c), len(a) + extra) == Poly(want)
    assert p * Poly([c, 1]) == Poly(p_mul(a, [c, Fraction(1)]))


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, max_size=6), center, st.integers(0, 4))
def test_tower_center_takes_the_scalar_loop(a, c, extra):
    at = c + s2
    assert Poly(a).shifted(at, len(a) + extra) == \
        Poly(p_taylor(trim(list(a)), at, len(a) + extra))


# ---------------------------------------------------------------------------
# the integer path of Q(sqrt r) polynomials against the Scalar loop

radicand = st.sampled_from([2, Fraction(3, 5), Fraction(7, 4),
                            Fraction(618849, 2719201)])
# (a, b) for a + b sqrt r; b = 0 often, so rational coefficients mix in
qpair = st.tuples(coeff, st.one_of(st.just(Fraction(0)), coeff))


def _q(pairs, root):
    return [scal(a) + scal(b) * root for a, b in pairs]


def _same(got, want):
    """Coefficient by coefficient: one tower object, equal parts and equal
    text.  ``want`` comes from the oracles run on the package's scalars."""
    want = [scal(w) for w in want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tower is w.tower
        assert g.a == w.a and g.b == w.b
        assert scalar_to_str(g) == scalar_to_str(w)


def _check_product(f, g):
    """The product, and the sum, in both operand orders."""
    for x, y in ((f, g), (g, f)):
        prod, total = x * y, x + y
        _same(prod.coeffs, p_mul(list(x.coeffs), list(y.coeffs)))
        _same(total.coeffs, p_add(list(x.coeffs), list(y.coeffs)))
        # the stored form is the one the coefficients give
        assert prod.int_form() == Poly(prod.coeffs).int_form()
        assert total.int_form() == Poly(total.coeffs).int_form()


@settings(max_examples=60, deadline=None)
@given(radicand, st.lists(coeff, max_size=6), st.lists(qpair, max_size=6))
@example(2, [], [(Fraction(1), Fraction(1))])
@example(Fraction(7, 4), [Fraction(3)], [(Fraction(0), Fraction(1, 2))])
def test_rational_times_quadratic_matches_scalar_loop(r, a, b):
    _check_product(Poly(a), Poly(_q(b, scalar_sqrt_adjoin(r))))


@settings(max_examples=60, deadline=None)
@given(radicand, st.lists(qpair, max_size=6), st.lists(qpair, max_size=6))
@example(Fraction(3, 5), [(Fraction(2), Fraction(0))], [(Fraction(0), Fraction(-4, 3))])
def test_quadratic_product_matches_scalar_loop(r, a, b):
    root = scalar_sqrt_adjoin(r)
    f, g = Poly(_q(a, root)), Poly(_q(b, root))
    assert f.int_form() and g.int_form()
    _check_product(f, g)


@settings(max_examples=40, deadline=None)
@given(radicand, st.lists(qpair, min_size=1, max_size=6))
@example(2, [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-3, 2))])
def test_product_whose_root_parts_cancel_is_rational(r, a):
    # (A + B sqrt r)(A - B sqrt r) = A^2 - B^2 r
    root = scalar_sqrt_adjoin(r)
    f, conj = Poly(_q(a, root)), Poly(_q([(x, -y) for x, y in a], root))
    if f.is_zero():
        return
    _check_product(f, conj)
    tower, vectors, _ = (f * conj).int_form()
    assert tower is None and len(vectors) == 1
    assert all(c.tower is None for c in (f * conj).coeffs)


@settings(max_examples=80, deadline=None)
@given(radicand, st.lists(qpair, max_size=7), center, st.integers(0, 4))
@example(2, [], Fraction(1, 3), 2)
@example(Fraction(7, 4), [(Fraction(5, 7), Fraction(-1, 2))], Fraction(-2), 3)
def test_quadratic_shift_matches_scalar_loop(r, a, c, extra):
    p = Poly(_q(a, scalar_sqrt_adjoin(r)))
    top = len(p.coeffs) + 1 + extra
    want = p_taylor(list(p.coeffs), c, top)
    for n in (0, 1, len(p.coeffs) // 2, top):
        _same(p.shifted(scal(c), n).coeffs, trim(want[:n]))
    _same([p(scal(c))], want[:1])


@settings(max_examples=30, deadline=None)
@given(st.lists(qpair, min_size=1, max_size=4), st.lists(qpair, min_size=1, max_size=4),
       center, st.integers(0, 3))
def test_two_fields_deep_towers_and_tower_centers_take_the_scalar_loop(a, b, c, extra):
    f = Poly(_q(a, s2))
    for g in (Poly(_q(b, s3)), Poly(_q(b, s2 + s3))):
        _check_product(f, g)
    at = c + s2
    _same(f.shifted(at, len(a) + extra).coeffs,
          trim(p_taylor(list(f.coeffs), at, len(a) + extra)))


def test_quadratic_fast_paths_multiply_no_scalars(monkeypatch):
    # a loaded sphere twist as synthesis builds it: n = a CRT interpolant
    # with Q(sqrt r) values, d = 1, stored as (1 - n^2, 2n, 1 + n^2)
    from jetmove.automorphisms import SphereTwist, _poly_from_json, generator_to_json
    from jetmove.transitivity import rotation_twist
    root = scalar_sqrt_adjoin(Fraction(618849, 2719201))
    tw = rotation_twist("y", [(Fraction(-2, 7), 2, [3 * root, 5 - root]),
                              (Fraction(5, 9), 1, Fraction(1, 4) + root)])
    stored = generator_to_json(tw)
    p, q, r = (_poly_from_json(stored[k]) for k in "pqr")
    f, g = Poly(_q([(1, 2), (Fraction(-3, 5), 0), (0, 7)], root)), Poly(_q([(4, -1)], root))
    c = scal(Fraction(-3, 4))
    want_prod, want_shift = p_mul(list(f.coeffs), list(g.coeffs)), p_taylor(list(f.coeffs), c, 5)

    def refuse(self, other):
        raise AssertionError("a Scalar product was formed")

    monkeypatch.setattr(Scalar, "__mul__", refuse)
    prod, shift = f * g, f.shifted(c, 5)
    loaded = SphereTwist.of("y", p, q, r)
    monkeypatch.undo()
    _same(prod.coeffs, want_prod)
    _same(shift.coeffs, trim(want_shift))
    assert (loaded.n, loaded.d) == (tw.n, tw.d)
    assert loaded.route == "sphere-twist-square"


# ---------------------------------------------------------------------------
# Series on the integer form against the Fraction / (a, b)-pair oracle

order = st.integers(1, 4)


@st.composite
def series_case(draw, count=2):
    """(root, center, e, lists): a field Q or Q(sqrt r), its sqrt r as a
    scalar (None for Q), a rational center, an order e in 1..4 and
    ``count`` oracle coefficient lists of length e, each zero, short
    (padded with zeros) or full."""
    r = draw(st.one_of(st.none(), radicand))
    entry = coeff if r is None else st.builds(
        Quad, coeff, st.one_of(st.just(Fraction(0)), coeff), st.just(r))
    e = draw(order)
    zero = Fraction(0) if r is None else Quad(0, 0, r)
    lists = []
    for _ in range(count):
        a = draw(st.one_of(st.just([]), st.lists(entry, max_size=e)))
        lists.append(a + [zero] * (e - len(a)))
    root = None if r is None else scalar_sqrt_adjoin(r)
    return root, draw(center), e, lists


def _scalar(x, root):
    return scal(x) if root is None else scal(x.a) + scal(x.b) * root


def _series(c, e, xs, root):
    return Series(c, e, [_scalar(x, root) for x in xs])


def _matches(got, want, root):
    """got has exactly the oracle's coefficients, and the integer form it
    stores is the one those coefficients give (so its denominator and
    content are reduced)."""
    _same(got.coeffs, [_scalar(w, root) for w in want])
    assert len(got.poly.coeffs) <= got.order
    assert got.poly.int_form() == Poly(got.coeffs).int_form()


@settings(max_examples=120, deadline=None)
@given(series_case(), qpair)
@example((None, Fraction(0), 1, [[Fraction(0)], [Fraction(0)]]), (Fraction(0), Fraction(0)))
def test_series_ring_ops_match_pair_oracle(case, k):
    root, c, e, (a, b) = case
    s, t = _series(c, e, a, root), _series(c, e, b, root)
    _matches(s * t, s_mul(a, b), root)
    _matches(s + t, [x + y for x, y in zip(a, b)], root)
    _matches(s - t, [x - y for x, y in zip(a, b)], root)
    _matches(-s, [-x for x in a], root)
    k = k[0] if root is None else Quad(*k, a[0].r)
    _matches(s * _scalar(k, root), [x * k for x in a], root)


@settings(max_examples=120, deadline=None)
@given(series_case(count=1))
@example((None, Fraction(-3), 3, [[Fraction(2), Fraction(1), Fraction(0)]]))
def test_series_invert_matches_pair_oracle(case):
    root, c, e, (a,) = case
    s = _series(c, e, a, root)
    if a[0] == 0:
        with pytest.raises(NotAUnit):
            s.invert()
        return
    inv = s.invert()
    _matches(inv, s_inv(a), root)
    assert s * inv == Series.constant(1, c, e)


@settings(max_examples=100, deadline=None)
@given(series_case(), order, center)
def test_compose_centered_matches_pair_oracle(case, extra, value):
    # outer lives at inner's value, with an order at least inner's
    root, c, e, (a, b) = case
    inner = _series(c, e, [b[0] - b[0] + value] + b[1:], root)
    outer = _series(scal(value), max(e, extra), a + [a[0] - a[0]] * (extra - e), root)
    dev = [b[0] - b[0]] + b[1:]
    _matches(compose_centered(outer, inner), series_horner(a[:e], dev), root)


@settings(max_examples=100, deadline=None)
@given(series_case(count=1))
def test_hensel_sqrt_matches_pair_oracle(case):
    root, c, e, (s,) = case
    if s[0] == 0:
        return
    u = s_mul(s, s)
    got = hensel_sqrt(_series(c, e, u, root), _scalar(s[0], root))
    _matches(got, s_sqrt(u, s[0]), root)
    _matches(got, s, root)


F = Fraction
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_nonzero = _rationals.filter(lambda f: f != 0)
_wide = st.one_of(_rationals, st.integers(-10 ** 12, 10 ** 12).map(Fraction),
                 st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=10 ** 4))
_wide_nonzero = _wide.filter(lambda f: f != 0)


@st.composite
def _square_candidates(draw):
    """Fraction lists: c m^2 for a rational m (any lead, with
    denominators) and c a square or any rational, m^2 with one
    coefficient moved, an odd degree, or zero."""
    m = draw(st.lists(_wide, max_size=5)) + [draw(_wide_nonzero)]
    mm = p_mul(m, m)
    shape = draw(st.sampled_from(["square", "scaled", "moved", "odd", "zero"]))
    if shape == "square":
        return p_scale(mm, draw(_nonzero.map(lambda f: f * f)))
    if shape == "scaled":
        c = draw(st.one_of(_nonzero, st.sampled_from([F(2), F(-1), F(-4), F(1, 2),
                                                       F(8, 9)])))
        return p_scale(mm, c)
    if shape == "moved":
        i = draw(st.integers(0, len(mm) - 1))
        mm[i] += draw(_wide_nonzero)
        return trim(mm)
    if shape == "odd":
        k = draw(st.integers(0, 3))
        return draw(st.lists(_wide, min_size=2 * k + 1, max_size=2 * k + 1)) + \
            [draw(_wide_nonzero)]
    return []


@settings(max_examples=120, deadline=None)
@given(_square_candidates())
@example([F(1, 4), F(1), F(1)])                  # (x + 1/2)^2
@example([F(1), F(2), F(1), F(0), F(0)])        # trailing zeros trimmed
@example([F(4, 9), F(0), F(-2, 3), F(0), F(1, 4)])  # (x^2/2 - 2/3)^2
@example([F(1), F(0), F(2)])                    # square numerators, no square lead
def test_poly_sqrt_agrees_with_fraction_oracle(d):
    # rational d takes the integer route, which must find exactly the
    # roots in Q[x] that the Fraction top-down root finds
    want = p_sqrt(d)
    got = poly_sqrt(Poly(d))
    assert got is None if want is None else got == Poly(want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(2), F(5, 3)]), st.lists(_rationals, max_size=3),
       st.lists(_rationals, max_size=3), _nonzero, _nonzero, st.data())
def test_poly_sqrt_in_a_tower(r, a, b, lead, moved, data):
    # m over Q(sqrt r): m^2 takes the series route and gives back m or -m.
    # Moving a coefficient of m^2 below x^deg m leaves no square: a root
    # with m's leading sign is m + e for some e of degree below deg m, and
    # (m + e)^2 - m^2 = e (2m + e) is zero or has degree at least deg m
    root = scalar_sqrt_adjoin(r)
    cs = [scal(x) + root * y for x, y in zip(a, b)] + [scal(lead) + root * lead]
    m = Poly(cs)
    d = m * m
    assert d.int_form()[0] is root.tower
    got = poly_sqrt(d)
    assert got is not None and (got == m or got == -m)
    if m.degree >= 1:
        k = data.draw(st.integers(0, m.degree - 1))
        assert poly_sqrt(d + Poly([0] * k + [moved])) is None


@settings(max_examples=40, deadline=None)
@given(radicand, center, order, st.lists(qpair, min_size=1, max_size=4))
def test_series_root_parts_cancel_to_q(r, c, e, pairs):
    # (A + B sqrt r)(A - B sqrt r) = A^2 - r B^2 leaves Q(sqrt r) for Q
    root = scalar_sqrt_adjoin(r)
    a = [Quad(x, y, r) for x, y in pairs[:e]]
    a += [Quad(0, 0, r)] * (e - len(a))
    s, conj = _series(c, e, a, root), _series(c, e, [Quad(q.a, -q.b, r) for q in a], root)
    prod = s * conj
    _matches(prod, s_mul(a, [Quad(q.a, -q.b, r) for q in a]), root)
    assert all(x.tower is None for x in prod.coeffs)
    assert prod.poly.int_form()[0] is None


@settings(max_examples=30, deadline=None)
@given(center, order, st.lists(qpair, max_size=3), st.lists(qpair, max_size=3))
def test_series_in_two_towers_or_depth_two_take_the_scalar_loop(c, e, a, b):
    # 1 + sqrt 2 against 1 + sqrt 3 or 1 + sqrt 2 + sqrt 3 leading: no
    # integer form over one field, so the oracles run on the package's
    # own scalars
    def pad(xs):
        return (xs + [ZERO] * e)[:e]

    one = (Fraction(1), Fraction(1))
    f = pad(_q([one] + a, s2))
    for g in (pad(_q([one] + b, s3)), pad(_q([one] + b, s2 + s3))):
        s, t = Series(c, e, f), Series(c, e, g)
        assert t.poly.int_form() is None or t.poly.int_form()[0] is not s.poly.int_form()[0]
        _same((s * t).coeffs, s_mul(f, g))
        _same((s + t).coeffs, [x + y for x, y in zip(f, g)])
        _same(t.invert().coeffs, s_inv(g))
        _same(compose_centered(Series(g[0], e, f), t).coeffs,
              series_horner(f, [ZERO] + g[1:]))


def test_series_refusals_are_unchanged():
    s = Series(Fraction(1, 3), 3, [1, 2])
    with pytest.raises(NotAUnit):
        Series(ZERO, 3, [0, 5]).invert()
    with pytest.raises(NotAUnit):
        Series(ZERO, 2, [s2 - s2, s2]).invert()
    for other in (Series(ZERO, 3, [1]), Series(Fraction(1, 3), 2, [1])):
        for op in (lambda: s + other, lambda: s - other, lambda: s * other):
            with pytest.raises(SeriesContextMismatch):
                op()
    with pytest.raises(SeriesContextMismatch):
        compose_centered(Series(ZERO, 3, [1]), s)
    with pytest.raises(SeriesContextMismatch):
        compose_centered(Series(ONE, 2, [1]), s)
    with pytest.raises(ValueError, match="more coefficients"):
        Series(ZERO, 2, [1, 0, 0])
    with pytest.raises(ValueError, match="at least 1"):
        Series(ZERO, 0, [])


def test_equality_across_towers_of_one_field():
    # sqrt(8) and 2*sqrt(2) are one number in two towers (one per radicand
    # as written); equality must not depend on which forms are cached.
    r8, r2 = parse_scalar("sqrt(8)"), parse_scalar("2*sqrt(2)")
    assert r8.tower is not r2.tower
    for make in (lambda c: Poly([c, 1]), lambda c: Series(Fraction(-1, 3), 3, [c, 1])):
        p, q = make(r8), make(r2)
        assert p == q
        for f in (p, q):
            (f if isinstance(f, Poly) else f.poly).int_form()
        assert p == q and not (p != q)
    # a product keeps only its integer form and still equals the other tower
    p, q = Poly([r8, 1]) * Poly([1, 1]), Poly([r2, 1]) * Poly([1, 1])
    q.int_form()
    assert p._cs is None and p == q
    assert Poly([r8]) != Poly([r2 + 1])


# ---------------------------------------------------------------------------
# word text read and written on the integer form, against the Scalar path


def _outcome(read):
    try:
        return read(), None
    except Exception as e:          # compared by type and message below
        return None, e


def _reads_alike(arr):
    """poly_from_json and the entry-by-entry parse give equal polynomials
    over the same tower object with the same integer form, or raise the
    same exception type with the same message."""
    got, gerr = _outcome(lambda: poly_from_json(arr))
    want, werr = _outcome(lambda: Poly(scalars_from_json(arr, "polynomial")))
    if werr is not None or gerr is not None:
        assert (type(gerr), str(gerr)) == (type(werr), str(werr)), arr
        return
    fg, fw = got.int_form(), want.int_form()
    assert (fg is None) == (fw is None), arr
    if fg is not None:
        assert fg[0] is fw[0] and fg == fw, arr
    assert got == want, arr
    assert poly_to_json(got) == [scalar_to_str(c) for c in want.coeffs], arr


_digits = st.one_of(st.integers(0, 12).map(str), st.integers(0, 10 ** 30).map(str),
                    st.integers(0, 99).map(lambda n: f"00{n}"))
_rat = st.tuples(_digits, st.one_of(st.none(), _digits)).map(
    lambda t: t[0] if t[1] is None else f"{t[0]}/{t[1]}")
_rad = st.sampled_from(["2", "8", "6", "3/5", "12/5", "618849/2719201", "4",
                        "9/4", "0", "02", "16/2"])


@st.composite
def _coeff_texts(draw):
    """A list of coefficient texts in the writer's shapes, over one
    radicand text mostly, with a hostile entry now and then."""
    rad = draw(_rad)
    out = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["rat", "both", "root", "odd"]))
        sign = draw(st.sampled_from(["", "-"]))
        r = draw(st.one_of(st.just(rad), _rad)) if draw(st.booleans()) else rad
        coef = draw(st.one_of(st.just(""), _rat.map(lambda c: c + "*")))
        if shape == "rat":
            out.append(sign + draw(_rat))
        elif shape == "both":
            op = draw(st.sampled_from([" + ", " - "]))
            out.append(f"{sign}{draw(_rat)}{op}{coef}sqrt({r})")
        elif shape == "root":
            out.append(f"{sign}{coef}sqrt({r})")
        else:
            out.append(draw(st.sampled_from(_HOSTILE_ENTRIES)))
    return out


_HOSTILE_ENTRIES = [
    " 1", "1 ", "1 +  sqrt(2)", "1+sqrt(2)", "1 + sqrt( 2)", "sqrt(2) + 1",
    "sqrt(2)*3", "sqrt(sqrt(2))", "sqrt(2)*sqrt(3)", "2*3*sqrt(5)", "1/2/3",
    "1 - -sqrt(2)", "--1", "+1", "", "-", "1 + ", "sqrt()", "sqrt(-2)",
    "1/0", "1 + 1/0*sqrt(2)", "sqrt(2/0)", "sqrt(4)", "sqrt(0)", "-0",
    "1\n", "sqrt(2)\n", "٣", "- sqrt(2)", "x", 1, 2.5, None, True, ["1"],
    "2sqrt(3)", "1/2sqrt(3)", "1 +sqrt(2)", "1+ sqrt(2)", "1 + 2 + sqrt(2)",
    "sqrt(2)sqrt(2)", "1 + 2*sqrt(2) - 1",
]

_HOSTILE_LISTS = [
    [e] for e in _HOSTILE_ENTRIES] + [
    # one radicand per polynomial: two texts, or two values, fall back
    ["sqrt(2)", "sqrt(3)"], ["sqrt(8)", "2*sqrt(2)"], ["sqrt(2)", "sqrt(16/8)"],
    ["1 + sqrt(8)", "3/4*sqrt(8)"],
    # sqrt(8) against 2*sqrt(2): one number in two towers, kept apart
    ["sqrt(8)"], ["2*sqrt(2)"], ["1 - 3*sqrt(8)", "5"],
    # -0, leading zeros and zero radical parts
    ["-0"], ["-0 + sqrt(2)"], ["-0/5"], ["007"], ["0012/0004"],
    ["1 + 02*sqrt(03)", "003/6 - sqrt(03)"], ["0*sqrt(2)"], ["1 + 0*sqrt(2)", "5"],
    ["0*sqrt(4)"], ["1 + 3*sqrt(9/4)"], ["2*sqrt(0/5)"],
    # digit runs at and past MAX_SCALAR_DIGITS
    ["7" * MAX_SCALAR_DIGITS], ["7" * (MAX_SCALAR_DIGITS + 1)],
    ["1/" + "3" * MAX_SCALAR_DIGITS, "-" + "9" * MAX_SCALAR_DIGITS + "/7"],
    ["1/" + "3" * (MAX_SCALAR_DIGITS + 1)],
    ["1 + " + "3" * MAX_SCALAR_DIGITS + "*sqrt(2)"],
    ["sqrt(" + "2" * MAX_SCALAR_DIGITS + ")"], ["sqrt(" + "2" * (MAX_SCALAR_DIGITS + 1) + ")"],
    # a good entry before a bad one: the parse reports the bad one
    ["1", "sqrt(2)", "1/0"], ["sqrt(2)", 7], [], ["0", "0"],
]


@pytest.mark.parametrize("arr", _HOSTILE_LISTS)
def test_word_text_reader_on_hostile_lists(arr):
    _reads_alike(arr)


def test_word_text_reader_under_a_lower_int_digit_cap():
    # int() may be capped below MAX_SCALAR_DIGITS for the whole process;
    # the parse then fails at the first long run in text order
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _reads_alike(["sqrt(" + "2" * 700 + ")", "9" * 800])
        _reads_alike(["1 + " + "3" * 700 + "*sqrt(2)"])
    finally:
        sys.set_int_max_str_digits(cap)


@settings(max_examples=100, deadline=None)
@given(_coeff_texts())
@example(["1 + sqrt(2)", "-3/4 - 5/7*sqrt(2)", "-sqrt(2)", "2*sqrt(2)", "0"])
def test_word_text_reader_matches_the_scalar_parse(arr):
    _reads_alike(arr)


@st.composite
def _int_forms(draw):
    """(tower, vectors, den) over Q or a quadratic field, with unit and
    zero parts, negative B and large entries."""
    r = draw(st.sampled_from([None, 2, 6, 8, Fraction(12, 5), Fraction(618849, 2719201)]))
    den = draw(st.integers(1, 60))
    entry = st.one_of(st.just(0), st.sampled_from([den, -den]),
                      st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 40, 10 ** 40))
    n = draw(st.integers(0, 7))
    a = [draw(entry) for _ in range(n)]
    if r is None:
        return None, (a,), den
    b = [draw(entry) for _ in range(n)]
    return scalar_sqrt_adjoin(r).tower, (a, b), den


@settings(max_examples=100, deadline=None)
@given(_int_forms())
@example((scalar_sqrt_adjoin(6).tower, ([0, 3, -3, 1], [3, -3, 0, -6]), 3))
def test_word_text_writer_matches_scalar_to_str(form):
    p = Poly.from_ints(*form)
    want = [scalar_to_str(c) for c in p.coeffs]
    assert poly_to_json(p) == want
    # a polynomial built from its scalars writes the same text
    assert poly_to_json(Poly(p.coeffs)) == want
    q = poly_from_json(want)
    assert q.int_form() == p.int_form() and q.int_form()[0] is p.int_form()[0]


def test_word_text_writer_refuses_what_the_reader_refuses():
    big = 10 ** MAX_SCALAR_DIGITS             # one digit more than a file holds
    root = scalar_sqrt_adjoin(2)
    deep = scalar_sqrt_adjoin(1 + root)          # no integer form: the Scalar loop
    for p in (Poly([big]), Poly([Fraction(1, big)]), Poly([1, -big * root]),
              Poly([root * Fraction(1, big)]), Poly([deep * big]),
              Poly([scalar_sqrt_adjoin(big + 1)])):
        with pytest.raises(OutputTooLarge, match=f"more than {MAX_SCALAR_DIGITS} digits"):
            poly_to_json(p)
    for p in (Poly([big - 1, Fraction(1, big - 1)]), Poly([(1 - big) * root]),
              Poly([deep * (big - 1)])):
        assert poly_from_json(poly_to_json(p)) == p
