"""Exact scalar arithmetic in quadratic extension towers."""

import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jetmove.exactalg.scalar as scalar_module
from jetmove.errors import JetmoveError, PreconditionFailed
from jetmove.exactalg import (ONE, ZERO, Poly, Scalar, Series, parse_scalar, scal,
                              scalar_sqrt_adjoin, scalar_to_str, try_sqrt)
from jetmove.exactalg.scalar import MAX_SCALAR_DIGITS, MAX_SQRT_NESTING, _ScalarParser
from oracles import Quad

s2 = scalar_sqrt_adjoin(2)
s3 = scalar_sqrt_adjoin(3)


def test_rational_arithmetic_is_fraction_exact():
    a = scal(Fraction(3, 4))
    b = scal(Fraction(-2, 5))
    assert (a + b).as_fraction() == Fraction(7, 20)
    assert (a * b).as_fraction() == Fraction(-3, 10)
    assert (a / b).as_fraction() == Fraction(-15, 8)
    assert (a - a).is_zero()


def test_adjoined_root_squares_back():
    assert s2 * s2 == 2
    assert (1 + s2) * (1 - s2) == -1
    assert (s2 + s3) ** 2 == 5 + 2 * s2 * s3


def test_try_sqrt_finds_perfect_squares():
    assert try_sqrt(scal(Fraction(9, 4))) == Fraction(3, 2)
    assert try_sqrt(scal(2)) is None
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2, found by discriminant descent
    assert try_sqrt(3 + 2 * s2) == 1 + s2


def test_adjoin_reuses_existing_roots():
    again = scalar_sqrt_adjoin(scal(2))
    assert again == s2
    # a square in the tower adds no level
    assert scalar_sqrt_adjoin((1 + s2) ** 2) == 1 + s2


def test_cross_chain_products_recognized():
    s6 = scalar_sqrt_adjoin(6)
    assert s2 * s3 == s6
    assert (s2 * s3 - s6).is_zero()
    assert s6 / s2 == s3


def test_sign_decisions():
    assert s2 > 1
    assert s2 < Fraction(3, 2)
    assert (3 - 2 * s2).sign() == 1
    assert (s2 + s3 - scalar_sqrt_adjoin(5)).sign() == 1
    nested = scalar_sqrt_adjoin(2 + s2)
    assert nested > Fraction(9, 5)
    assert nested < Fraction(13, 7)


def test_interval_encloses_and_shrinks():
    lo1, hi1 = s2.interval(8)
    lo2, hi2 = s2.interval(64)
    assert lo1 <= lo2 <= hi2 <= hi1
    assert lo2 * lo2 <= 2 <= hi2 * hi2
    assert hi2 - lo2 < Fraction(1, 2 ** 32)


def test_inverse_and_pow():
    assert (1 / s2) * s2 == 1
    assert s2 ** -2 == Fraction(1, 2)
    assert (1 + s2) ** 3 == 7 + 5 * s2
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_negative_radicand_rejected():
    with pytest.raises(PreconditionFailed, match=r"^sqrt of negative scalar -1$"):
        scalar_sqrt_adjoin(-1)


def test_text_round_trip():
    cases = [ONE, scal(Fraction(-7, 3)), s2, 1 + 2 * s2,
             s2 * s3, scalar_sqrt_adjoin(2 + s2), (s2 + s3) / (1 + s2)]
    for s in cases:
        assert parse_scalar(scalar_to_str(s)) == s
    assert scalar_to_str(s2) == "sqrt(2)"
    assert scalar_to_str(1 + 2 * s2) == "1 + 2*sqrt(2)"


def test_parse_folds_signs_and_caps_sqrt_nesting():
    assert parse_scalar("-" * 5000 + "1") == 1
    assert parse_scalar("-" * 5001 + "sqrt(2)") == -s2
    limit = MAX_SQRT_NESTING
    deepest = "sqrt(" * limit + "2" + ")" * limit
    assert parse_scalar(deepest) > 1
    with pytest.raises(ValueError, match=f"nested deeper than {limit}"):
        parse_scalar("sqrt(" + deepest + ")")


@pytest.mark.parametrize("int_digit_cap", [None, 0])
def test_parse_caps_digit_runs(int_digit_cap):
    """The digit cap is the parser's own: the same with int()'s
    interpreter-wide cap at its default and switched off."""
    saved = sys.get_int_max_str_digits()
    if int_digit_cap is not None:
        sys.set_int_max_str_digits(int_digit_cap)
    try:
        longest = "7" * MAX_SCALAR_DIGITS
        assert parse_scalar(f"-1/{longest}") == Fraction(-1, int(longest))
        for text, at in [(longest + "7", 0), ("2 + 1/" + longest + "7", 6)]:
            with pytest.raises(ValueError) as err:
                parse_scalar(text)
            assert f"at {at}: more than {MAX_SCALAR_DIGITS} digits" in str(err.value)
    finally:
        sys.set_int_max_str_digits(saved)
    assert sys.get_int_max_str_digits() == saved


# sums of rational multiples of products of sqrt(2), sqrt(3) and the
# nested sqrt(2 + sqrt(2)), whose chain merges with both of the others
_BASIS = [ONE, s2, s3, scalar_sqrt_adjoin(2 + s2)]
_BASIS += [x * y for i, x in enumerate(_BASIS[1:], 1) for y in _BASIS[i + 1:]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-9, max_value=9,
                                       max_denominator=9),
                          st.sampled_from(_BASIS)), max_size=4))
def test_text_round_trip_in_towers(terms):
    s = sum((scal(c) * b for c, b in terms), ZERO)
    assert parse_scalar(scalar_to_str(s)) == s


@pytest.mark.parametrize("text, at, msg", [
    ("1 + x", 4, "expected a number"),
    ("", 0, "expected a number"),
    ("3/ x", 3, "expected a denominator"),
    ("sqrt 2", 5, "expected ( after sqrt"),
    ("sqrt(2 3)", 7, "expected )"),
    ("1 2", 2, "trailing input"),
])
def test_parse_error_messages(text, at, msg):
    with pytest.raises(ValueError) as err:
        parse_scalar(text)
    assert str(err.value) == f"bad scalar {text!r} at {at}: {msg}"


def test_parse_long_sign_run_in_bounded_memory():
    # tokens are matched one at a time, never collected into a list
    text = "-" * 200_000 + "1"
    tracemalloc.start()
    try:
        assert parse_scalar(text) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_denominator_is_refused():
    for text in ("1/0", "-3/00", "sqrt(2) + 1/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


_TOKENS = [*"0123456789", "/", "+", "-", "*", "sqrt(", ")", " "]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
@example("2 * 1/0")
def test_parse_garbage_raises_only_parse_errors(text):
    try:
        parse_scalar(text)
    except (ValueError, JetmoveError):
        pass


def test_scalar_is_unhashable():
    # equal values can differ structurally, so hashing is disabled
    with pytest.raises(TypeError):
        hash(s2)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(fractions, fractions, fractions, fractions)
def test_field_laws_with_radical(a, b, c, d):
    x = scal(a) + scal(b) * s2
    y = scal(c) + scal(d) * s2
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if not y.is_zero():
        assert (x / y) * y == x


def test_merged_tower_ignores_operand_order():
    s5 = scalar_sqrt_adjoin(5)
    nested = scalar_sqrt_adjoin(1 + s2)
    # (1 + sqrt(2)) * sqrt(3) printed "sqrt(3) + sqrt(3)*sqrt(2)" with the
    # operands swapped, on a different merged tower
    pinned = (1 + s2) * s3
    assert str(pinned) == str(s3 * (1 + s2)) == "sqrt(3) + sqrt(2)*sqrt(3)"
    pairs = [(1 + s2, s3), (s2 - 2 * s3, s5), (Fraction(1, 2) + s3, s5 - s2),
             (nested, s3), (1 + nested, s2 + s5)]
    for a, b in pairs:
        for op in (lambda u, v: u + v, lambda u, v: u * v):
            ab, ba = op(a, b), op(b, a)
            assert ab == ba
            assert str(ab) == str(ba)
            assert ab.tower is ba.tower


@given(fractions)
def test_sqrt_of_square_is_abs(a):
    s = scal(a)
    assert try_sqrt(s * s) == abs(s)


def test_arithmetic_with_a_polynomial_or_series_is_left_to_it():
    # a Scalar cannot coerce a Poly or a Series, so it leaves the operator
    # to their reflected ones; an operand nothing can take still raises
    assert ONE * Poly([1, 2]) == Poly([1, 2])
    assert ONE + Poly([1, 2]) == Poly([2, 2])
    assert s2 - Poly([1, 2]) == Poly([s2 - 1, -2])
    assert ONE - Series(0, 2, [1, 2]) == Series(0, 2, [0, -2])
    assert s2 * Series(0, 2, [1, 2]) == Series(0, 2, [s2, 2 * s2])
    assert ONE + "1/2" == scal(Fraction(3, 2)) and "1/2" - ONE == scal(Fraction(-1, 2))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for a, b in ((ONE, object()), (object(), ONE), (s2, 1.5)):
            with pytest.raises(TypeError):
                op(a, b)


def test_scalars_have_no_float_conversion():
    # exact arithmetic only: no float reading of a scalar exists
    with pytest.raises(TypeError):
        float(scal(1))
    with pytest.raises(TypeError):
        float(s2)


# -- rationals as reduced int pairs, against Fraction ----------------------

_BIG = 10 ** 100
ints = st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG))
dens = st.one_of(st.integers(1, 9), st.integers(1, _BIG))
rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, ints, dens))


def _canonical(s):
    """The rational scalar s as a Fraction, after checking that it holds
    its value as a reduced int pair with a positive denominator."""
    assert s.tower is None
    assert type(s.a) is int and type(s.b) is int
    assert s.b > 0 and gcd(s.a, s.b) == 1
    return Fraction(s.a, s.b)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals)
@example(Fraction(0), Fraction(0), Fraction(0))
@example(Fraction(1, 6), Fraction(-1, 6), Fraction(5, 4))
@example(Fraction(-_BIG + 1, _BIG), Fraction(1, _BIG - 1), Fraction(_BIG))
def test_rational_arithmetic_is_canonical_and_agrees_with_fraction(x, y, z):
    sx, sy, sz = scal(x), scal(y), scal(z)
    assert _canonical(sx) == x
    assert _canonical(sx + sy) == x + y
    assert _canonical(sx - sy) == x - y
    assert _canonical(sx * sy) == x * y
    assert _canonical(-sx) == -x
    assert (sx + sy) + sz == sx + (sy + sz)
    assert (sx * sy) * sz == sx * (sy * sz)
    assert sx * (sy + sz) == sx * sy + sx * sz
    if y:
        assert _canonical(sx / sy) == x / y
        assert _canonical(sy.inverse()) == 1 / y
        assert sy * sy.inverse() == ONE
    else:
        with pytest.raises(ZeroDivisionError):
            sy.inverse()
    assert sx.sign() == (x > 0) - (x < 0)
    assert (sx == sy) == (x == y) == (sx._key() == sy._key())
    assert (sx == y) == (x == y)
    assert (sx < sy) == (x < y)
    assert scalar_to_str(sx) == str(x)
    assert _canonical(parse_scalar(scalar_to_str(sx))) == x


@given(ints, dens)
def test_scal_reduces_fractions_and_ints(n, d):
    # a negative denominator given to Fraction comes out positive
    assert _canonical(scal(Fraction(n, -d))) == Fraction(-n, d)
    assert _canonical(scal(n)) == n
    assert _canonical(scal(True)) == 1
    assert _canonical(parse_scalar(f"{abs(n)}/{d}")) == Fraction(abs(n), d)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_rational_square_roots_are_canonical(x, y):
    root = try_sqrt(scal(x * x))
    assert _canonical(root) == abs(x)
    got = try_sqrt(scal(y))
    n, d = y.numerator, y.denominator
    if y >= 0 and _is_square(n) and _is_square(d):
        assert _canonical(got) ** 2 == y
    else:
        assert got is None


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, max_size=6), st.integers(1, _BIG))
def test_poly_coefficients_are_canonical(fs, den):
    p = Poly([scal(f) for f in fs])
    form = p.int_form()
    back = Poly.from_ints(*form)
    assert [_canonical(c) for c in back.coeffs] == [_canonical(c) for c in p.coeffs]
    vector = [f.numerator for f in fs]
    from_ints = Poly.from_ints(None, (vector,), den)
    want = [Fraction(n, den) for n in vector]
    while want and not want[-1]:
        want.pop()
    assert [_canonical(c) for c in from_ints.coeffs] == want


def _parts(s, r):
    """(a, b) of s = a + b sqrt(r), each checked canonical."""
    if s.tower is None:
        return _canonical(s), Fraction(0)
    assert s.tower.radicand == r
    return _canonical(s.a), _canonical(s.b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([Fraction(2), Fraction(3, 7), Fraction(10 ** 40 + 1)]),
       rationals, rationals, rationals, rationals)
def test_depth_one_arithmetic_agrees_with_quad(r, a, b, c, d):
    root = scalar_sqrt_adjoin(r)
    x, y = scal(a) + scal(b) * root, scal(c) + scal(d) * root
    qx, qy = Quad(a, b, r), Quad(c, d, r)
    for got, want in ((x + y, qx + qy), (x - y, qx - qy), (x * y, qx * qy)):
        assert _parts(got, r) == (want.a, want.b)
    if b or a:
        inv = 1 / qx
        assert _parts(x.inverse(), r) == (inv.a, inv.b)
    vectors = ([a.numerator * 6, c.numerator], [b.numerator, d.numerator * 5])
    den = 7
    coeffs = Poly.from_ints(root.tower, vectors, den).coeffs
    for k, got in enumerate(coeffs):
        assert _parts(got, r) == (Fraction(vectors[0][k], den),
                                  Fraction(vectors[1][k], den))


# -- the sign of a depth-1 scalar, decided from ints ------------------------


def _interval_sign(s):
    """The sign by refining interval enclosures, the route deeper towers take."""
    bits = 16
    while True:
        lo, hi = s.interval(bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Fraction(2), Fraction(3, 7), Fraction(10 ** 40 + 1)]),
       rationals, rationals.filter(bool), st.integers(0, 80),
       st.sampled_from([None, 0, 1]))
@example(Fraction(2), Fraction(0), Fraction(-1), 0, None)
@example(Fraction(3, 7), Fraction(1), Fraction(-1), 0, None)
@example(Fraction(3, 7), Fraction(-1, 2), Fraction(1), 0, None)
def test_depth_one_sign_agrees_with_quad_and_intervals(r, a, b, k, near):
    if near is not None:
        # a within 2^-k |b| of -b sqrt(r), below or above it: the two
        # terms nearly cancel
        root = isqrt(r.numerator * r.denominator << 2 * k) + near
        a = -b * Fraction(root, r.denominator << k)
    s = scal(a) + scal(b) * scalar_sqrt_adjoin(r)
    assert s.tower is not None and s.tower.parent is None
    assert s.sign() == Quad(a, b, r).sign() == _interval_sign(s)


# -- plain rational text, read without the parser ---------------------------

_LONG = "7" * MAX_SCALAR_DIGITS
_NEAR_MISSES = [
    "5/7", "-5/7", "0", "-0", "0/5", "007/010", "", "-", "1/", "/1", "1/0",
    "-3/00", "--1", "+1", " 1", "1 ", "1\n", "1/ 2", "1 /2", "1/-2", "1/2/3",
    "1.5", "1e3", "１", "٣/4", "3/٤", _LONG, "-" + _LONG,
    f"-1/{_LONG}", _LONG + "7", f"1/{_LONG}7", f"{_LONG}7/0",
]


def _outcome(parse, text):
    """The canonical parts of what parse(text) returns, or its error text."""
    try:
        s = parse(text)
    except ValueError as err:
        return str(err)
    return s.tower, s.a, s.b


@pytest.mark.parametrize("text", _NEAR_MISSES)
def test_plain_rational_text_reads_as_the_parser_does(text):
    assert _outcome(parse_scalar, text) == _outcome(lambda t: _ScalarParser(t).parse(), text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([*"0123456789/-+ \n", "٣"]), max_size=12).map("".join))
def test_rational_like_text_reads_as_the_parser_does(text):
    assert _outcome(parse_scalar, text) == _outcome(lambda t: _ScalarParser(t).parse(), text)


def test_plain_rational_text_skips_the_parser(monkeypatch):
    monkeypatch.setattr(scalar_module, "_ScalarParser", None)
    assert parse_scalar("-12/34") == Fraction(-6, 17)
    assert parse_scalar("7") == 7


def test_plain_rational_text_meets_int_digit_cap_as_the_parser_does():
    # with int()'s cap below MAX_SCALAR_DIGITS, both raise int()'s own
    # error, for the numerator first
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("7" * 700, "1/" + "7" * 700, "7" * 700 + "/" + "7" * 800):
            assert (_outcome(parse_scalar, text)
                    == _outcome(lambda t: _ScalarParser(t).parse(), text))
            assert "700 digits" in _outcome(parse_scalar, text)
    finally:
        sys.set_int_max_str_digits(saved)
