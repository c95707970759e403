"""Generator certification, group structure, and the action on points and jets."""

import hashlib
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rand_sphere_jet, rand_sphere_point, rand_torus_jet
from oracles import (Quad, moebius_step, p_add, p_mul, p_scale, series_horner,
                     sphere_route, sphere_twist_step, torus_twist_step)

from jetmove import automorphisms, surfaces
from jetmove.automorphisms import (
    MAX_TWIST_DEGREE,
    AutWord,
    SphereTwist,
    TorusMoebius,
    TorusTwist,
    apply_jet,
    apply_point,
    certify_twist,
    jacobian_at,
    word_concat,
    word_from_json,
    word_identity,
    word_inverse,
    word_to_json,
)
from jetmove.errors import (
    DegreeMismatch,
    IdentityFails,
    InternalVerificationFailure,
    JetmoveError,
    MixedSurfaces,
    PreconditionFailed,
    RootInForbiddenRegion,
)
from jetmove.exactalg import (ONE, ZERO, Poly, Series, SturmChain, poly_gcd,
                              poly_sqrt, scal, scalar_sqrt_adjoin, sturm_root_count)
from jetmove.surfaces import (
    SPHERE_CHARTS,
    Jet,
    ProjPoint,
    SPHERE,
    SphereParam,
    SpherePoint,
    TORUS,
    TorusParam,
    TorusPoint,
    jet_from_sphere_param,
    jet_from_torus_param,
    jet_parametrize,
    jet_to_json,
    sphere_point_stereo,
)
from jetmove.transitivity import interpolating_twist, rotation_twist


# ---------------------------------------------------------------------------
# certification


def test_certify_torus_twist():
    g = certify_twist(TorusTwist.of("y", [0, 0, 1], [1, 0, 1]))
    assert g.route == "torus-twist-square"


def test_certify_torus_twist_sturm_route():
    # q - 1 = x^2 + x + 1 is no square, yet q = x^2 + x + 2 has no real root
    g = certify_twist(TorusTwist.of("y", [0, 0, 1], [2, 1, 1]))
    assert g.route == "torus-twist"
    # the square recovery at its edges: constants (k = 0), zero, odd
    # degree, a leading coefficient that is negative or has no rational
    # root, a square lead on a non-square, and a tower leading coefficient
    is_square = lambda d: poly_sqrt(d) is not None
    s2 = scalar_sqrt_adjoin(2)
    m = Poly([ONE, s2, ONE + s2])
    for d in (Poly.const(4), Poly.const(1), Poly.const(ONE + s2) ** 2, m * m,
              Poly([Fraction(1, 4), 1, 1])):
        assert is_square(d), d
    for d in (Poly(), Poly.const(3), Poly.const(-4), Poly([0, 0, 0, 1]),
              Poly([1, 1]), Poly([1, 0, -1]), Poly([0, 0, 2]), Poly([1, 1, 1]),
              m * m + Poly.const(1), Poly.const(s2)):
        assert not is_square(d), d


_S2, _S3 = scalar_sqrt_adjoin(2), scalar_sqrt_adjoin(3)
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_nonzero = _rationals.filter(lambda f: f != 0)
# a + b sqrt(2) + c sqrt(3); a leading a != 0 keeps the square of the
# leading coefficient in a tower that holds its root
_towered = st.builds(lambda a, b, c: scal(a) + _S2 * b + _S3 * c,
                     _rationals, _rationals, _rationals)
_towered_lead = st.builds(lambda a, b: scal(a) + _S2 * b, _nonzero, _rationals)


def _polys(coeff, lead, max_deg=4):
    return st.builds(lambda cs, c: Poly(cs + [c]),
                     st.lists(coeff, max_size=max_deg), lead)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_polys(_rationals, _nonzero), _polys(_towered, _towered_lead)))
def test_certify_torus_square_shape(m):
    q = Poly.const(1) + m * m
    g = TorusTwist.of("x", m * m, q)
    assert g.route == "torus-twist-square"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _polys(_rationals, _nonzero, max_deg=6),
    # 1 + m^2 shifted by c: the square shape at c = 0, a real root for
    # many c < 0
    st.builds(lambda m, c: m * m + scal(1 + c), _polys(_rationals, _nonzero),
              st.one_of(st.just(Fraction(0)), _rationals))))
def test_certify_torus_routes_agree_with_sturm(q):
    # whichever route proves q, it never accepts a q with a real root
    assume(not q.is_zero())
    try:
        g = TorusTwist.of("y", q, q)
    except RootInForbiddenRegion:
        assert sturm_root_count(q) > 0
    else:
        assert sturm_root_count(q) == 0
        assert g.route in ("torus-twist", "torus-twist-square")


@settings(max_examples=40, deadline=None)
@given(_polys(_rationals, _nonzero), st.booleans(), _polys(_rationals, _nonzero))
def test_certify_sphere_square_shape(q, plus, other):
    r = (q * q + 4) * scal(Fraction(1, 4))
    p = r - 2 if plus else 2 - r
    g = SphereTwist.of("y", p, q, r)
    assert g.route == "sphere-twist-square"
    assert p * p + q * q == r * r
    # the sign-flipped triple holds as well, so other = -2p is no bump
    assert SphereTwist.of("y", -p, q, r).route == "sphere-twist-square"
    assume(not (other == -(p + p)))
    with pytest.raises(IdentityFails):
        SphereTwist.of("y", p + other, q, r)


_positive = _rationals.filter(lambda f: f > 0)
# a common factor lam of the triple: a nonzero constant proves r by its
# shape, k + z^2 > 0 needs the Sturm route
_lams = st.one_of(
    _nonzero.map(lambda c: (Poly.const(c), "sphere-twist-square")),
    _positive.map(lambda k: (Poly([k, 0, 1]), "sphere-twist")))


@settings(max_examples=60, deadline=None)
@given(_polys(_rationals, _nonzero, max_deg=3),
       _polys(_rationals, st.just(Fraction(1)), max_deg=3),
       _lams, _polys(_rationals, _nonzero, max_deg=2), st.sampled_from("pqr"))
def test_sphere_twist_of_recovers_half_angle(n, d, lam_kind, bump, which):
    assume(poly_gcd(n, d).degree == 0)
    lam, kind = lam_kind
    p, q, r = (lam * c for c in SphereTwist("z", n, d, route="sphere-twist").triple())
    g = SphereTwist.of("z", p, q, r)
    assert (g.n, g.d, g.route) == (n, d, kind)
    # the half turn (-r, 0, r) has no finite half-angle
    half = SphereTwist.of("z", -r, Poly(), r)
    assert (half.n, half.d) == (Poly.const(1), Poly())
    assert half.inverse() == half
    flip = apply_point(AutWord(SPHERE, (half,)), SpherePoint(ONE, ZERO, ZERO))
    assert flip.coords() == (-ONE, ZERO, ZERO)
    # a tampered triple raises what the p^2 + q^2 = r^2 check raised:
    # a root of r in [-1, 1] first, otherwise the identity
    tp, tq, tr = {"p": (p + bump, q, r), "q": (p, q + bump, r),
                  "r": (p, q, r + bump)}[which]
    assume(tp * tp + tq * tq != tr * tr)
    root = sturm_root_count(tr, (scal(-1), scal(1))) > 0
    with pytest.raises(RootInForbiddenRegion if root else IdentityFails):
        SphereTwist.of("z", tp, tq, tr)


F = Fraction
_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_plist = st.builds(lambda cs, c: cs + [c], st.lists(_small, max_size=2),
                   _small.filter(lambda f: f != 0))


@st.composite
def _sphere_triples(draw):
    """lam (d^2 - n^2, 2nd, d^2 + n^2) as Fraction lists, for n and d
    possibly zero and lam a nonzero constant or polynomial, kept, made a
    half turn (-r, 0, r), or with one entry bumped."""
    n, d = (draw(st.one_of(st.just([]), _plist)) for _ in "nd")
    lam = draw(_plist)
    nn, dd, nd = p_mul(n, n), p_mul(d, d), p_mul(n, d)
    triple = [p_mul(lam, c) for c in
              (p_add(dd, p_scale(nn, F(-1))), p_add(nd, nd), p_add(dd, nn))]
    shape = draw(st.sampled_from(["built", "half", "p", "q", "r"]))
    if shape == "half":
        return p_scale(triple[2], F(-1)), [], triple[2]
    if shape != "built":
        i = "pqr".index(shape)
        triple[i] = p_add(triple[i], draw(_plist))
    return tuple(triple)


@settings(max_examples=200, deadline=None)
@given(_sphere_triples())
@example(([F(3)], [F(4)], [F(5)]))                           # constant lam
@example(([F(12), 0, F(-3)], [F(16), 0, F(-4)], [F(20), 0, F(-5)]))  # lam = 4 - z^2
@example(([F(1)], [F(1)], [F(1), 0, F(-2)]))                 # r has roots in [-1, 1]
@example(([F(-2), 0, F(-1)], [], [F(2), 0, F(1)]))           # a half turn
@example(([], [], []))                                       # the all-zero triple
def test_sphere_twist_of_matches_lam_proof(triple):
    # the one identity (r - p)(r + p) = q^2 and the degree rule accept what
    # the proof by r = lam (d^2 + n^2) accepted, by the same route, with
    # the same half-angle, and raise the same error first otherwise
    p, q, r = triple
    want = sphere_route(p, q, r)
    try:
        g = SphereTwist.of("x", Poly(p), Poly(q), Poly(r))
    except JetmoveError as exc:
        assert type(exc).__name__ == want
    else:
        assert (g.route, g.n, g.d) == (want[0], Poly(want[1]), Poly(want[2]))


def _refuse(*args):
    raise AssertionError("route not expected here")


_lam_in_q_or_s2 = st.one_of(
    _nonzero.map(scal),
    st.builds(lambda a, b: scal(a) + _S2 * b, _rationals, _nonzero))
_over_s2 = st.builds(lambda a, b: scal(a) + _S2 * b, _rationals, _rationals)


@settings(max_examples=40, deadline=None)
@given(_lam_in_q_or_s2, st.one_of(st.just(Poly()), _polys(_rationals, _nonzero),
                            _polys(_over_s2, _towered_lead)))
def test_sphere_twist_of_constant_sum_route(lam, a):
    # lam (1 - a^2, 2a, 1 + a^2) has r + p = 2 lam, a nonzero constant:
    # n = q / (2 lam) = a and d = 1 are read off with no gcd
    p, q, r = (1 - a * a) * lam, a * 2 * lam, (1 + a * a) * lam
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automorphisms, "poly_gcd", _refuse)
        g = SphereTwist.of("x", p, q, r)
    assert (g.n, g.d, g.route) == (a, Poly.const(1), "sphere-twist-square")
    assert g.triple() == (1 - a * a, a * 2, 1 + a * a)


def test_sphere_twist_of_nonconstant_sum_takes_the_gcd(monkeypatch):
    # n/d = 2/(x + 1) scaled by 3: r + p = 6 (x + 1)^2 is no constant, so
    # the gcd of q and r + p is taken, once, and divided out
    p, q, r = (Poly(c) * 3 for c in ([-3, 2, 1], [4, 4], [5, 2, 1]))
    calls = []
    gcd = automorphisms.poly_gcd
    monkeypatch.setattr(automorphisms, "poly_gcd",
                        lambda *args: calls.append(args) or gcd(*args))
    g = SphereTwist.of("x", p, q, r)
    assert (g.n, g.d, g.route) == \
        (Poly.const(2), Poly([1, 1]), "sphere-twist-square")
    assert len(calls) == 1


def test_certify_rejects_denominator_root():
    # q = x^2 - 1 vanishes at +-1
    with pytest.raises(RootInForbiddenRegion) as exc:
        certify_twist(TorusTwist.of("x", [0, 0, 1], [-1, 0, 1]))
    lo, hi = exc.value.witness
    # the witness interval brackets an actual root of q
    q = Poly([-1, 0, 1])
    assert (q(lo) * q(hi)).sign() <= 0


def test_certify_reports_root_before_degree():
    # both conditions fail; the root is the error that surfaces
    with pytest.raises(RootInForbiddenRegion):
        certify_twist(TorusTwist.of("x", [1], [-1, 0, 1]))


def test_certify_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        certify_twist(TorusTwist.of("y", [0, 1], [1, 0, 1]))


def test_certify_rejects_bad_axis():
    with pytest.raises(PreconditionFailed):
        certify_twist(TorusTwist.of("z", [1], [1]))


def test_shape_constructors_check_their_data():
    # the constructors synthesis builds with check the coordinate as the
    # ``of``s do, and the degree by a raise that python -O keeps
    with pytest.raises(PreconditionFailed):
        TorusTwist.square("z", Poly([0, 0, 1]), Poly.x())
    with pytest.raises(PreconditionFailed):
        SphereTwist.half_angle("w", Poly.x())
    with pytest.raises(InternalVerificationFailure):
        TorusTwist.square("x", Poly([1, 1]), Poly.x())
    # and build what ``of`` proves from the same data, route included
    assert TorusTwist.square("y", Poly([0, 0, 1]), Poly.x()) == \
        TorusTwist.of("y", [0, 0, 1], [1, 0, 1])
    g = SphereTwist.half_angle("z", Poly([0, 2]))
    assert g == SphereTwist.of("z", *g.triple())


def test_certify_sphere_twist():
    g = certify_twist(SphereTwist.of("z", [1, 0, -1], [0, 2], [1, 0, 1]))
    assert g.route == "sphere-twist-square"


def test_certify_rejects_pythagorean_failure():
    with pytest.raises(IdentityFails):
        certify_twist(SphereTwist.of("z", [1], [1], [1]))


def test_certify_rejects_rotation_denominator_root():
    # r = 1 - 2z^2 vanishes inside [-1, 1]; shape is checked after roots
    with pytest.raises(RootInForbiddenRegion) as exc:
        certify_twist(SphereTwist.of("z", [1], [1], [1, 0, -2]))
    lo, hi = exc.value.witness
    assert scal(-1) <= lo and hi <= scal(1)


# refused twists with the witnesses that counting on the square-free part,
# in a chain built for the count and another for the witness, reported;
# the one chain must report the same
PINNED_REFUSALS = [
    (lambda: TorusTwist.of("y", [1, 0, 0, 0, 0, 1], [-7, 3, 0, -2, 5, 1]),
     "twist denominator has a root in the real line", ("-9", "-9/2")),
    # q = (3x - 1)^2 (x^2 - 2): a double root among three
    (lambda: TorusTwist.of("x", [0, 0, 0, 0, 1], [-2, 12, -17, -6, 9]),
     "twist denominator has a root in the real line", ("-4", "0")),
    (lambda: SphereTwist.of("z", [1], [1], [-1, 0, 9, 0, -4]),
     "rotation denominator has a root in [-1, 1]", ("-1", "0")),
    # r = (z - 1)(3z^2 + 2z + 5): the root is the endpoint 1
    (lambda: SphereTwist.of("x", [1], [1], [-5, 3, -1, 3]),
     "rotation denominator has a root in [-1, 1]", ("1", "1")),
]


@pytest.mark.parametrize("make, message, witness", PINNED_REFUSALS)
def test_refusal_witnesses_are_pinned(make, message, witness):
    with pytest.raises(RootInForbiddenRegion, match=re.escape(message)) as exc:
        make()
    assert tuple(map(str, exc.value.witness)) == witness


def test_refusal_builds_one_chain(monkeypatch):
    # the count and the witness come from one remainder sequence, and no
    # separate square-free part is taken
    built = []
    init = SturmChain.__init__

    def counting(self, p):
        built.append(p)
        init(self, p)

    def refuse(*args):
        raise AssertionError("square_free_part was called")

    monkeypatch.setattr(SturmChain, "__init__", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("jetmove") and hasattr(module, "square_free_part"):
            monkeypatch.setattr(module, "square_free_part", refuse)
    for make, _, _ in PINNED_REFUSALS:
        built.clear()
        with pytest.raises(RootInForbiddenRegion):
            make()
        assert len(built) == 1


def test_certify_allows_root_outside_unit_interval():
    # r = 4 - z^2 has roots at +-2 only, harmless on [-1, 1]
    p = Poly([0, 0, 1]) * Poly([0, 0, 1]) - Poly([4, 0, -1]) * Poly([4, 0, -1])
    q2 = Poly([4, 0, -1]) * Poly([4, 0, -1]) - Poly([0, 0, 1]) * Poly([0, 0, 1])
    # build p, q with p^2 + q^2 = r^2 directly: scaled 3-4-5 family
    g = certify_twist(SphereTwist.of(
        "x", Poly([3]) * Poly([4, 0, -1]), Poly([4]) * Poly([4, 0, -1]),
        Poly([5]) * Poly([4, 0, -1])))
    assert g.route == "sphere-twist-square"
    del p, q2


def test_certify_rejects_singular_moebius():
    with pytest.raises(PreconditionFailed):
        certify_twist(TorusMoebius.of([[1, 2], [2, 4]], [[1, 0], [0, 1]]))


@pytest.mark.parametrize("mx, my", [
    ([[0, 1, 7], [1, 0]], [[1, 0], [0, 1]]),
    ([[0, 1], [1, 0]], [[1, 0], [0, 1], [2, 3]]),
    ([[0, 1], [1]], [[1, 0], [0, 1]]),
])
def test_moebius_matrix_must_be_2x2(mx, my):
    with pytest.raises(PreconditionFailed, match="2x2"):
        TorusMoebius.of(mx, my)
    with pytest.raises(PreconditionFailed, match="2x2"):
        word_from_json({"surface": TORUS, "generators": [
            {"type": "moebius", "mx": [[str(e) for e in r] for r in mx],
             "my": [[str(e) for e in r] for r in my]}]})


def test_inverse_keeps_certificate():
    g = certify_twist(SphereTwist.of("y", [1, 0, -1], [0, 2], [1, 0, 1]))
    assert g.inverse().route == g.route == "sphere-twist-square"


# ---------------------------------------------------------------------------
# words


def test_word_rejects_uncertified_generator():
    # no generator exists without a route: the raw constructor needs one
    with pytest.raises(TypeError):
        TorusTwist("x", Poly([1]), Poly([1]))
    with pytest.raises(TypeError):
        TorusMoebius(((ONE, ZERO), (ZERO, ONE)), ((ONE, ZERO), (ZERO, ONE)))
    with pytest.raises(TypeError):
        SphereTwist("z", Poly([0, 1]), Poly.const(1))
    # the route is keyword-only, so a (p, q, r) call cannot bind r to it
    with pytest.raises(TypeError):
        SphereTwist("z", Poly([1, 0, -1]), Poly([0, 2]), Poly([1, 0, 1]))
    # a route of another kind, or one that is no string, does not certify
    for forged in (SphereTwist("z", Poly([0, 1]), Poly.const(1), route=Poly([1])),
                   SphereTwist("z", Poly([0, 1]), Poly.const(1), route="torus-twist"),
                   SphereTwist("z", Poly([0, 1]), Poly.const(1), route="moebius")):
        with pytest.raises(PreconditionFailed):
            AutWord(SPHERE, (forged,))
    for forged in (TorusTwist("x", Poly([1]), Poly([1]), route="sphere-twist"),
                   TorusTwist("x", Poly([1]), Poly([1]), route=None)):
        with pytest.raises(PreconditionFailed):
            AutWord(TORUS, (forged,))
    # the kind's own route passes
    AutWord(SPHERE, (SphereTwist("z", Poly([0, 1]), Poly.const(1),
                                 route="sphere-twist-square"),))


def test_word_rejects_mixed_surfaces():
    g1 = certify_twist(TorusTwist.of("x", [1], [2]))
    g2 = certify_twist(SphereTwist.of("z", [3], [4], [5]))
    with pytest.raises(MixedSurfaces):
        AutWord(TORUS, (g1, g2))
    with pytest.raises(MixedSurfaces):
        word_concat(AutWord(TORUS, (g1,)), AutWord(SPHERE, (g2,)))


def test_word_concat_and_len():
    w1 = AutWord(TORUS, (TorusTwist.of("x", [1], [2]),))
    w2 = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    assert len(word_concat(w1, w2)) == 2
    assert word_concat(w1, word_identity(TORUS)).generators == w1.generators


# ---------------------------------------------------------------------------
# action on points


def test_twist_moves_points():
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    pt = apply_point(w, TorusPoint.affine(2, 1))
    # y + x^2/(1+x^2) at x = 2
    assert pt.x.value == scal(2)
    assert pt.y.value == ONE + scal(Fraction(4, 5))


def test_twist_at_infinity_uses_leading_coefficients():
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    pt = apply_point(w, TorusPoint(ProjPoint.infinity(), ProjPoint.affine(5)))
    assert pt.x.is_infinite
    assert pt.y.value == scal(6)


def test_moebius_swaps_zero_and_infinity():
    w = AutWord(TORUS, (TorusMoebius.of([[0, 1], [1, 0]], [[1, 0], [0, 1]]),))
    pt = apply_point(w, TorusPoint(ProjPoint.infinity(), ProjPoint.affine(7)))
    assert pt.x.value == ZERO
    assert pt.y.value == scal(7)


def test_points_move_onto_and_along_infinity():
    # a point rides the series transport in charts; one that lands at
    # infinity comes back in chart 1, one at infinity stays there
    swap = AutWord(TORUS, (TorusMoebius.of([[0, 1], [1, 0]], [[0, 1], [1, 0]]),))
    pt = apply_point(swap, TorusPoint.affine(0, 3))
    assert pt.x.is_infinite
    assert pt.y.value == scal(Fraction(1, 3))
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    pt = apply_point(w, TorusPoint(ProjPoint.affine(2), ProjPoint.infinity()))
    assert pt.x.value == scal(2)
    assert pt.y.is_infinite


def test_sphere_rotation_constant_angle():
    w = AutWord(SPHERE, (SphereTwist.of("z", [3], [4], [5]),))
    pt = apply_point(w, SpherePoint(ONE, ZERO, ZERO))
    assert pt.coords() == (scal(Fraction(3, 5)), scal(Fraction(4, 5)), ZERO)
    back = apply_point(word_inverse(w), pt)
    assert back.coords() == (ONE, ZERO, ZERO)


def test_sphere_rotation_angle_varies_with_height():
    w = AutWord(SPHERE, (SphereTwist.of("z", [1, 0, -1], [0, 2], [1, 0, 1]),))
    # on the equator z = 0 the angle is zero
    eq = apply_point(w, SpherePoint(ZERO, ONE, ZERO))
    assert eq.coords() == (ZERO, ONE, ZERO)
    p = sphere_point_stereo(ONE, ONE)
    q = apply_point(w, p)
    assert q.z == p.z
    assert q.x * q.x + q.y * q.y + q.z * q.z == ONE


def test_apply_point_rejects_wrong_surface():
    w = AutWord(TORUS, (TorusTwist.of("x", [1], [2]),))
    with pytest.raises(MixedSurfaces):
        apply_point(w, SpherePoint(ONE, ZERO, ZERO))


# ---------------------------------------------------------------------------
# action on jets


def test_moebius_transports_graph_jet():
    # x -> 1/x carries the line y = 1 + x through (2, 3) to the curve
    # y = 1 + 1/x through (1/2, 3); expanding at 1/2 gives 3 - 4s + 8s^2
    w = AutWord(TORUS, (TorusMoebius.of([[0, 1], [1, 0]], [[1, 0], [0, 1]]),))
    j = Jet.torus(TorusPoint.affine(2, 3), 3, Series(scal(2), 3, [3, 1, 0]))
    out = apply_jet(w, j)
    assert out.center == TorusPoint.affine(Fraction(1, 2), 3)
    assert list(out.graphs[0].coeffs) == [scal(3), scal(-4), scal(8)]
    assert not out.transposed


def test_twist_transports_graph_jet():
    # y -> y + 2x^2/(1+x^2); at x = 1 the value is 1 and the slope is 1
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 2], [1, 0, 1]),))
    j = Jet.torus(TorusPoint.affine(1, 1), 2, Series(ONE, 2, [1, 4]))
    out = apply_jet(w, j)
    assert out.center == TorusPoint.affine(1, 2)
    assert list(out.graphs[0].coeffs) == [scal(2), scal(5)]


def test_twist_constant_translation_on_jet():
    w = AutWord(TORUS, (TorusTwist.of("y", [5], [2]),))
    j = Jet.torus(TorusPoint.affine(1, 1), 2, Series(ONE, 2, [1, 4]))
    out = apply_jet(w, j)
    assert out.center == TorusPoint.affine(1, Fraction(7, 2))
    assert list(out.graphs[0].coeffs) == [scal(Fraction(7, 2)), scal(4)]


def test_word_inverse_round_trips_jets(rng):
    gens = [
        TorusTwist.of("y", [0, 0, 3], [1, 0, 1]),
        TorusMoebius.of([[1, 1], [0, 1]], [[2, 0], [0, 1]]),
        TorusTwist.of("x", [1, 0, -1], [2, 0, 1]),
    ]
    w = AutWord(TORUS, tuple(gens))
    for _ in range(25):
        j = rand_torus_jet(rng, rng.randint(1, 4))
        assert apply_jet(word_inverse(w), apply_jet(w, j)) == j


def test_sphere_word_inverse_round_trips_jets(rng):
    w = AutWord(SPHERE, (
        SphereTwist.of("z", [1, 0, -1], [0, 2], [1, 0, 1]),
        SphereTwist.of("x", [3], [4], [5]),
        SphereTwist.of("y", [0, 2], [-1, 0, 1], [1, 0, 1]),
    ))
    for _ in range(15):
        j = rand_sphere_jet(rng, rng.randint(1, 3))
        assert apply_jet(word_inverse(w), apply_jet(w, j)) == j


def test_concat_acts_by_composition(rng):
    w1 = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    w2 = AutWord(TORUS, (TorusMoebius.of([[0, 1], [1, 0]], [[1, 1], [0, 1]]),))
    both = word_concat(w1, w2)
    for _ in range(20):
        j = rand_torus_jet(rng, rng.randint(1, 4))
        assert apply_jet(both, j) == apply_jet(w2, apply_jet(w1, j))


def test_identity_word_fixes_jets(rng):
    for _ in range(10):
        j = rand_torus_jet(rng, rng.randint(1, 4))
        assert apply_jet(word_identity(TORUS), j) == j
    for _ in range(10):
        j = rand_sphere_jet(rng, rng.randint(1, 3))
        assert apply_jet(word_identity(SPHERE), j) == j


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.lists(_rationals, max_size=8),
                           st.lists(_rationals, min_size=5, max_size=5)),
                 st.tuples(st.lists(_towered, max_size=6),
                           st.lists(_towered, min_size=5, max_size=5))),
       st.integers(1, 5), st.sampled_from([0, 1]), st.integers(0, 2))
def test_twist_series_evaluation_matches_horner(data, order, chart, extra):
    # the Taylor-shift evaluation of a homogenized twist polynomial agrees
    # with Horner's rule run over truncated series
    coeffs, loc = data
    pol = Poly(coeffs)
    n = max(pol.degree, 0) + extra
    s = Series(ZERO, order, loc[:order])
    hom = list(pol.coeffs) if chart == 0 else [pol[n - k] for k in range(n + 1)]
    want = series_horner(hom, list(s.coeffs))
    got = automorphisms._hom_eval_series(pol, n, chart, s)
    assert got.center == ZERO and got.order == order
    assert all(a == b for a, b in zip(got.coeffs, want))


# ---------------------------------------------------------------------------
# steps that fix the carried jet: the transport skips a twist whose angle
# or translation series is zero, so each step is checked against the
# full formula run every time (oracles), on twists that vanish at the
# jet's node to an order k at, above or below the jet's own


def _fractions(pol):
    return [c.as_fraction() for c in pol.coeffs]


def _series(cs):
    return Series(ZERO, len(cs), cs)


@st.composite
def _stereo_jets(draw):
    # the stereographic image of a plane curve through (u0, v0), at order e
    e = draw(st.integers(1, 4))
    u, v = (_series(draw(st.lists(_rationals, min_size=e, max_size=e)))
            for _ in range(2))
    assume(e == 1 or not (u.coeffs[1].is_zero() and v.coeffs[1].is_zero()))
    inv = (u * u + v * v + 1).invert()
    par = SphereParam((u + u) * inv, (v + v) * inv, (u * u + v * v - 1) * inv)
    return jet_from_sphere_param(par, e)


@settings(max_examples=60, deadline=None)
@given(_stereo_jets(), st.sampled_from("xyz"), st.integers(1, 5), _rationals, _nonzero)
def test_sphere_step_matches_full_formula(j, fixed, k, other, value):
    node = getattr(j.center, fixed)
    assume(not (node == scal(other)))
    tw = rotation_twist(fixed, [(node, k, 0), (other, 1, value)])
    names = SPHERE_CHARTS[fixed]
    par = jet_parametrize(j)
    t, u, v = (_fractions(getattr(par, n)) for n in names)
    u, v = sphere_twist_step(_fractions(tw.n), _fractions(tw.d), t, u, v)
    want = replace(par, **{names[1]: _series(u), names[2]: _series(v)})
    assert apply_jet(AutWord(SPHERE, (tw,)), j) == jet_from_sphere_param(want, j.order)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from("xy"), st.booleans(), st.integers(1, 4), st.integers(1, 5),
       _rationals, _rationals, _nonzero, st.data())
def test_torus_step_matches_full_formula(axis, over_infinity, e, k, c, other, value,
                                         data):
    # the twist moves ``axis``, at infinity (chart 1) or finite, and reads
    # the other coordinate, finite at the node c
    assume(c != other)
    src = ProjPoint.affine(c)
    moved = ProjPoint.infinity() if over_infinity else ProjPoint.affine(data.draw(_rationals))
    center = TorusPoint(src, moved) if axis == "y" else TorusPoint(moved, src)
    transposed = e >= 2 and data.draw(st.booleans())
    tail = data.draw(st.lists(_rationals, min_size=e - 1, max_size=e - 1))
    if transposed:
        tail[0] = 0
    base, graph = (center.y, center.x) if transposed else (center.x, center.y)
    j = Jet.torus(center, e, Series(base.local, e, [graph.local, *tail]), transposed)
    tw = interpolating_twist(axis, [(c, k, 0), (other, 1, value)])
    par = jet_parametrize(j)
    pair = lambda cs: (cs[0], _fractions(cs[1]))
    s, m = (par.x, par.y) if axis == "y" else (par.y, par.x)
    chart, loc = torus_twist_step(_fractions(tw.p), _fractions(tw.q), pair(s), pair(m))
    m = (chart, _series(loc))
    want = TorusParam(s, m) if axis == "y" else TorusParam(m, s)
    assert apply_jet(AutWord(TORUS, (tw,)), j) == jet_from_torus_param(want, e)


# ---------------------------------------------------------------------------
# the closed step formulas on operands over Q or one Q(sqrt r), which
# exactalg runs on their integer forms: the torus step on both charts and
# the sphere step for d = 1 are checked against the oracle steps, run on
# Quads, and against the homogeneous pair and the full rotation formula


def _quads(cs, r):
    """Scalars of Q or Q(sqrt r) (r None: Q alone) as the oracle's Quads."""
    return [Quad(c.as_fraction(), 0, r or 0) if c.tower is None
            else Quad(c.a.as_fraction(), c.b.as_fraction(), r) for c in cs]


def _field(r):
    """Scalars a + b sqrt(r), or rationals when r is None."""
    if r is None:
        return _rationals.map(scal)
    root = scalar_sqrt_adjoin(r)
    return st.tuples(_rationals, _rationals).map(lambda ab: scal(ab[0]) + scal(ab[1]) * root)


_radicands = st.sampled_from([None, Fraction(2), Fraction(5, 3)])


def _unless(taken: bool, name: str):
    """A context refusing automorphisms.<name> when ``taken`` says the
    closed formula must run instead; else one that changes nothing."""
    return mock.patch.object(automorphisms, name, _refuse) if taken else nullcontext()


@settings(max_examples=25, deadline=None)
@given(_radicands, st.integers(2, 4), st.sampled_from(["one", "monic", "half turn"]),
       st.data())
def test_sphere_step_on_integer_forms(r, e, d_kind, data):
    coeff = _field(r)
    t, u, v = (Series(ZERO, e, data.draw(st.lists(coeff, min_size=e, max_size=e)))
               for _ in range(3))
    n = Poly(data.draw(st.lists(coeff, min_size=1, max_size=3)))
    if d_kind == "one":
        d = Poly.const(1)
    elif d_kind == "monic":
        d = Poly([*data.draw(st.lists(_rationals, min_size=1, max_size=2)), 1])
    else:
        n, d = Poly.const(1), Poly()
    g = SphereTwist("x", n, d, route="sphere-twist")
    nv, dv = automorphisms._eval(n, t), automorphisms._eval(d, t)
    assume(not nv.is_zero() and not (nv.value().is_zero() and dv.value().is_zero()))
    kept = automorphisms._rotate_series(nv, dv, u, v)
    with _unless(d_kind == "one", "_rotate_series"):
        got = automorphisms._rotate(g, t, nv, u, v)
    assert got == kept
    want = sphere_twist_step(*(_quads(x.coeffs, r) for x in (n, d, t, u, v)))
    assert [_quads(s.coeffs, r) for s in got] == list(want)


@settings(max_examples=25, deadline=None)
@given(_radicands, st.integers(2, 4), st.integers(0, 1), st.integers(0, 1), st.data())
def test_torus_step_on_integer_forms(r, e, src_chart, moved_chart, data):
    # q = 1 + m^2 has no real root and a nonzero lead, so qh is a unit on
    # either chart; a chart-1 local series has value 0
    coeff = _field(r)
    m = Poly(data.draw(st.lists(coeff, min_size=2, max_size=3)))
    q = Poly.const(1) + m * m
    assume(q.degree == 2 * m.degree)
    p = Poly(data.draw(st.lists(coeff, min_size=1, max_size=q.degree + 1)))

    def local(chart):
        cs = data.draw(st.lists(coeff, min_size=e, max_size=e))
        return Series(ZERO, e, [ZERO, *cs[1:]] if chart else cs)

    src, moved = (src_chart, local(src_chart)), (moved_chart, local(moved_chart))
    ph, qh = (automorphisms._hom_eval_series(pol, q.degree, *src) for pol in (p, q))
    assume(not ph.is_zero())
    one = Series.constant(1, ZERO, e)
    m0, m1 = (moved[1], one) if moved_chart == 0 else (one, moved[1])
    got = automorphisms._translate(ph, qh, moved)
    assert got == automorphisms._normalize_pair(m0 * qh + ph * m1, m1 * qh)
    quads = lambda pair: (pair[0], _quads(pair[1].coeffs, r))
    chart, loc = torus_twist_step(_quads(p.coeffs, r), _quads(q.coeffs, r),
                                  quads(src), quads(moved))
    assert quads(got) == (chart, loc)


def _two_tower_jobs():
    # jets over Q(sqrt 3) moved by twists over Q(sqrt 2): the angle and the
    # translation meet the jet in Q(sqrt 2, sqrt 3), so no integer form
    s2, s3 = scalar_sqrt_adjoin(2), scalar_sqrt_adjoin(3)
    u = Series(ZERO, 3, [Fraction(1, 2), s3, 1])
    v = Series(ZERO, 3, [Fraction(1, 3), 1, s3 / 2])
    inv = (u * u + v * v + 1).invert()
    sphere = jet_from_sphere_param(
        SphereParam((u + u) * inv, (v + v) * inv, (u * u + v * v - 1) * inv), 3)
    torus = Jet.torus(TorusPoint.affine(Fraction(1, 2), Fraction(-2, 3)), 3,
                      Series(Fraction(1, 2), 3, [Fraction(-2, 3), s3, 1]), False)
    return [
        (sphere, SphereTwist("x", Poly([s2, 1]), Poly.const(1),
                             route="sphere-twist-square"),
         "_rotate",
         "e27d8fbae73e2558424679a915260e599e0ed347d307eee8fccd58cda2ac301e"),
        (torus, TorusTwist("y", Poly([s2, 0, 1]), Poly([1, 0, 1]),
                           route="torus-twist-square"),
         "_translate",
         "be9d40718be7bbf97032a35793725e5cbdbfd438b6dfc28da3e7192d6e6ac807"),
    ]


@pytest.mark.parametrize("j, g, step, digest", _two_tower_jobs(),
                         ids=["sphere", "torus"])
def test_step_across_two_towers_takes_the_series_formula(monkeypatch, j, g, step,
                                                         digest):
    # the closed step formula runs once on the Series in the merged field,
    # as on one tower (a d = 1 rotation takes no full rotation formula),
    # and gives the pinned image
    calls = []
    kept = getattr(automorphisms, step)
    monkeypatch.setattr(automorphisms, step, lambda *a: calls.append(a) or kept(*a))
    monkeypatch.setattr(automorphisms, "_rotate_series", _refuse)
    image = apply_jet(AutWord(g.surface, (g,)), j)
    assert len(calls) == 1
    text = json.dumps(jet_to_json(image), sort_keys=True)
    assert "sqrt(2)" in text and "sqrt(3)" in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the point path: an order-1 form crosses the transport on Scalars, so
# apply_point is checked against the oracle steps run on length-1 lists
# and against the center of an order-2 jet, which takes the Series leaves


@st.composite
def _torus_point_words(draw):
    # each twist and Moebius pair is drawn at the point's current image
    # (the oracle's), so the word moves the point; "pole" sends a finite
    # coordinate to infinity and its inverse brings it back
    pt = TorusPoint(*(ProjPoint.affine(c) if c is not None else ProjPoint.infinity()
                      for c in draw(st.lists(st.none() | _rationals,
                                             min_size=2, max_size=2))))
    cur = [(p.chart, [p.local.as_fraction()]) for p in (pt.x, pt.y)]
    gens, size = [], draw(st.integers(1, 4))
    while len(gens) < size:
        finite = [i for i in (0, 1) if cur[i][0] == 0]
        room = len(gens) + 2 <= size
        kind = draw(st.sampled_from(["twist", "moebius"] + ["pole"] * (room and bool(finite))))
        if kind == "twist":
            axis = draw(st.sampled_from("xy"))
            i = 0 if axis == "y" else 1
            (chart, (node,)), other = cur[i], draw(_rationals)
            node = other + 1 if chart else node    # over infinity: any other node
            assume(other != node)
            tw = interpolating_twist(axis, [(node, draw(st.integers(1, 2)),
                                             draw(_nonzero)), (other, 1, draw(_rationals))])
            cur[1 - i] = torus_twist_step(_fractions(tw.p), _fractions(tw.q),
                                          cur[i], cur[1 - i])
            gens.append(tw)
            continue
        if kind == "moebius":
            mx, my = (draw(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                                    min_size=2, max_size=2)) for _ in "xy")
            assume(all(m[0][0] * m[1][1] != m[0][1] * m[1][0] for m in (mx, my)))
            steps = [TorusMoebius.of(mx, my)]
        else:
            i = draw(st.sampled_from(finite))
            pole = [[0, 1], [1, -cur[i][1][0]]]
            ident = [[1, 0], [0, 1]]
            g = TorusMoebius.of(*((pole, ident) if i == 0 else (ident, pole)))
            steps = [g, g.inverse()]
        for g in steps:
            cur = [moebius_step([[e.as_fraction() for e in row] for row in m], f)
                   for m, f in zip((g.mx, g.my), cur)]
            gens.append(g)
    want = TorusPoint(*(ProjPoint.in_chart(c, scal(v[0])) for c, v in cur))
    return pt, AutWord(TORUS, tuple(gens)), want


@st.composite
def _sphere_point_words(draw):
    # a rational point and its order-2 line, the stereographic image of
    # (u0 + t, v0 + b t); each rotation has a nonzero angle at the
    # point's current image
    u0, v0, b = (draw(_rationals) for _ in range(3))
    u, v = Series(ZERO, 2, [u0, 1]), Series(ZERO, 2, [v0, b])
    inv = (u * u + v * v + 1).invert()
    line = jet_from_sphere_param(
        SphereParam((u + u) * inv, (v + v) * inv, (u * u + v * v - 1) * inv), 2)
    cur = [[c.as_fraction()] for c in line.center.coords()]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        fixed = draw(st.sampled_from("xyz"))
        if draw(st.booleans()):
            tw = SphereTwist.of(fixed, [-1], [], [1])
        else:
            node, other = cur["xyz".index(fixed)][0], draw(_rationals)
            assume(other != node)
            tw = rotation_twist(fixed, [(node, draw(st.integers(1, 2)), draw(_nonzero)),
                                        (other, 1, draw(_rationals))])
        t, a, c = ("xyz".index(n) for n in SPHERE_CHARTS[fixed])
        cur[a], cur[c] = sphere_twist_step(_fractions(tw.n), _fractions(tw.d),
                                           cur[t], cur[a], cur[c])
        gens.append(tw)
    return line, AutWord(SPHERE, tuple(gens)), SpherePoint.of(*(v[0] for v in cur))


@settings(max_examples=40, deadline=None)
@given(_torus_point_words(), _rationals)
def test_torus_point_path_matches_oracle_and_jets(case, slope):
    pt, w, want = case
    line = Jet.torus(pt, 2, Series(pt.x.local, 2, [pt.y.local, slope]))
    assert apply_point(w, pt) == want == apply_jet(w, line).center


@settings(max_examples=40, deadline=None)
@given(_sphere_point_words())
def test_sphere_point_path_matches_oracle_and_jets(case):
    line, w, want = case
    assert apply_point(w, line.center) == want == apply_jet(w, line).center


# ---------------------------------------------------------------------------
# jacobians


def test_jacobian_identity():
    m = jacobian_at(word_identity(TORUS), TorusPoint.affine(3, 4))
    assert m == ((ONE, ZERO), (ZERO, ONE))


def test_jacobian_torus_twist_is_shear():
    # y -> y + x^2/(1+x^2); d/dx at x = 2 is (2x(1+x^2) - x^2*2x)/(1+x^2)^2
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    m = jacobian_at(w, TorusPoint.affine(2, 0))
    assert m == ((ONE, ZERO), (scal(Fraction(4, 25)), ONE))


def test_jacobian_sphere_constant_rotation():
    w = AutWord(SPHERE, (SphereTwist.of("z", [3], [4], [5]),))
    m = jacobian_at(w, SpherePoint(ONE, ZERO, ZERO))
    want = ((scal(Fraction(3, 5)), scal(Fraction(-4, 5)), ZERO),
            (scal(Fraction(4, 5)), scal(Fraction(3, 5)), ZERO),
            (ZERO, ZERO, ONE))
    assert m == want


def test_jacobian_sphere_varying_angle():
    # angle vanishes at the equator but its z-derivative does not
    w = AutWord(SPHERE, (SphereTwist.of("z", [1, 0, -1], [0, 2], [1, 0, 1]),))
    m = jacobian_at(w, SpherePoint(ONE, ZERO, ZERO))
    want = ((ONE, ZERO, ZERO), (ZERO, ONE, scal(2)), (ZERO, ZERO, ONE))
    assert m == want


def test_jacobian_composes_by_chain_rule():
    w1 = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    w2 = AutWord(TORUS, (TorusTwist.of("x", [0, 0, -2], [1, 0, 2]),))
    pt = TorusPoint.affine(Fraction(1, 2), Fraction(-3, 4))
    mid = apply_point(w1, pt)
    m1 = jacobian_at(w1, pt)
    m2 = jacobian_at(w2, mid)
    prod = tuple(
        tuple(sum((m2[i][k] * m1[k][j] for k in range(2)), ZERO)
              for j in range(2))
        for i in range(2))
    assert jacobian_at(word_concat(w1, w2), pt) == prod


# ---------------------------------------------------------------------------
# serialization


# the same words as written when a certificate also stored root_count,
# variations and identity; loading ignores them and re-certifies
FOUR_FIELD_TORUS_WORD = {"surface": "torus", "generators": [
    {"type": "twist", "axis": "y", "p": ["0", "0", "1"], "q": ["1", "0", "1"],
     "certificate": {"kind": "torus-twist", "root_count": 0,
                     "variations": [1, 1], "identity": False},
     "formula": "y -> y + (x^2)/(1 + x^2)"},
    {"type": "moebius", "mx": [["0", "1"], ["1", "0"]], "my": [["1", "0"], ["0", "1"]],
     "certificate": {"kind": "moebius", "root_count": 0,
                     "variations": [0, 0], "identity": False},
     "formula": "moebius x: ((0, 1), (1, 0)), y: ((1, 0), (0, 1))"}]}
FOUR_FIELD_SPHERE_WORD = {"surface": "sphere", "generators": [
    {"type": "twist", "fixed": "z", "p": ["1", "0", "-1"], "q": ["0", "2"],
     "r": ["1", "0", "1"],
     "certificate": {"kind": "sphere-twist-square", "root_count": 0,
                     "variations": [0, 0], "identity": True},
     "formula": "rotate about z by angle with cos = p/r, sin = q/r, "
                "p = 1 + -z^2, q = 2*z, r = 1 + z^2"}]}


def test_word_json_round_trip():
    w = AutWord(TORUS, (
        TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),
        TorusMoebius.of([[0, 1], [1, 0]], [[1, 0], [0, 1]]),
    ))
    assert word_from_json(word_to_json(w)) == w
    # the stored Sturm kind is ignored: q = 1 + x^2 proves by its shape
    loaded = word_from_json(FOUR_FIELD_TORUS_WORD)
    assert loaded == w
    assert loaded.generators[0].route == "torus-twist-square"


def test_sphere_word_json_round_trip():
    w = AutWord(SPHERE, (SphereTwist.of("z", [1, 0, -1], [0, 2], [1, 0, 1]),))
    d = word_to_json(w)
    # a word file holds generator data only: the route and the formula
    # both follow from it
    assert not {"certificate", "formula"} & set(d["generators"][0])
    assert word_from_json(d) == w
    assert word_from_json(FOUR_FIELD_SPHERE_WORD) == w


def test_json_load_recertifies():
    w = AutWord(TORUS, (TorusTwist.of("y", [0, 0, 1], [1, 0, 1]),))
    d = word_to_json(w)
    # tamper with the stored denominator; the forged certificate is ignored
    d["generators"][0]["q"] = ["-1", "0", "1"]
    with pytest.raises(RootInForbiddenRegion):
        word_from_json(d)
    # q = (x - 1)^2 is the m^2 of a built q = 1 + m^2 without the 1
    d["generators"][0]["q"] = ["1", "-2", "1"]
    with pytest.raises(RootInForbiddenRegion):
        word_from_json(d)
    # q = 1 + (x^2)^2 keeps the square shape but no longer matches deg p
    d["generators"][0]["q"] = ["1", "0", "0", "0", "1"]
    with pytest.raises(DegreeMismatch):
        word_from_json(d)


def _twist_word(surface, length):
    """A word of one twist whose polynomials hold ``length`` entries, the
    last 1; q (torus) or r (sphere) is 1 + x^(length - 1)."""
    top = ["0"] * (length - 1) + ["1"]
    if surface == TORUS:
        return {"surface": TORUS, "generators": [
            {"type": "twist", "axis": "y", "p": top, "q": ["1"] + top[1:]}]}
    return {"surface": SPHERE, "generators": [
        {"type": "twist", "fixed": "x", "p": ["1"], "q": ["0"],
         "r": ["1"] + top[1:]}]}


@pytest.mark.parametrize("surface", [TORUS, SPHERE])
def test_twist_degree_refused_before_any_scalar(monkeypatch, surface):
    word = _twist_word(surface, MAX_TWIST_DEGREE + 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the load went past the length check")

    monkeypatch.setattr(surfaces, "parse_scalar", refuse)
    monkeypatch.setattr(automorphisms, "SturmChain", refuse)
    with pytest.raises(PreconditionFailed,
                       match=f"degree at most {MAX_TWIST_DEGREE}"):
        word_from_json(word)


def test_twist_degree_limit_is_inclusive():
    # q = 1 + x^64 loads by its square shape; r = 1 + x^64 with p = 1,
    # q = 0 fails only the identity, after the Sturm count found no root
    g, = word_from_json(_twist_word(TORUS, MAX_TWIST_DEGREE + 1)).generators
    assert g.q.degree == MAX_TWIST_DEGREE
    with pytest.raises(IdentityFails):
        word_from_json(_twist_word(SPHERE, MAX_TWIST_DEGREE + 1))


def test_json_rejects_unknown_surface():
    with pytest.raises(MixedSurfaces):
        word_from_json({"surface": "cylinder", "generators": []})


@pytest.mark.parametrize("surface", [TORUS, SPHERE])
def test_json_rejects_unknown_generator_type(surface):
    # the data keys of a certified torus twist, under a type nobody writes
    g = {"type": "banana", "axis": "y", "p": ["0", "0", "1"],
         "q": ["1", "0", "1"]}
    with pytest.raises(PreconditionFailed, match="unknown generator type 'banana'"):
        word_from_json({"surface": surface, "generators": [g]})
