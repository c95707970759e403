"""Acceptance gate: nine end-to-end properties, one test per criterion.

Every assertion is an exact equality of scalars, polynomials, jets, or
points; nothing is compared up to a tolerance.  Each test prints its
elapsed wall time (visible under -s) so slowdowns stay observable, but
no test asserts on timing.
"""

import random
import time
from fractions import Fraction

import oracles
from conftest import (
    rand_fraction,
    rand_poly,
    rand_series,
    rand_sphere_jet,
    rand_sphere_point,
    rand_torus_jet,
    solve_half_angle_brute,
    tau_triple,
)

from jetmove.automorphisms import (
    AutWord,
    SphereTwist,
    TorusMoebius,
    TorusTwist,
    apply_jet,
    apply_point,
    certify_twist,
    jacobian_at,
    word_concat,
    word_inverse,
    word_of,
)
from jetmove.dantesque import (
    BASE,
    HYPOTHESIS_NOT_MET,
    ISOMORPHIC,
    KLEIN,
    NOT_ISOMORPHIC,
    BlowupRecord,
    SurfaceDescriptor,
    descriptor_invariants,
    descriptor_normalize,
    isomorphism_decide,
)
from jetmove.exactalg import (
    ONE,
    ZERO,
    Poly,
    Series,
    crt_combine,
    hensel_sqrt,
    poly_to_series,
    scal,
    sturm_root_count,
)
from jetmove.surfaces import (
    SPHERE,
    TORUS,
    ProjPoint,
    TorusPoint,
    equator_point,
    standard_config,
)
from jetmove.transitivity import (
    solve_rotation_parameter,
    synth_pair,
    synth_sphere,
    synth_torus,
)


def _elapsed(n, label, t0):
    print(f"criterion {n} ({label}): {time.perf_counter() - t0:.1f}s")


def _rand_partition(rng):
    while True:
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        if sum(parts) <= 6:
            return parts


def _rand_config(rng, surface, parts):
    make = rand_torus_jet if surface == TORUS else rand_sphere_jet
    jets = []
    while len(jets) < len(parts):
        j = make(rng, parts[len(jets)])
        if all(j.center != k.center for k in jets):
            jets.append(j)
    return jets


def test_criterion_1_round_trip_synthesis():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for surface, synth in ((TORUS, synth_torus), (SPHERE, synth_sphere)):
        for _ in range(200):
            parts = _rand_partition(rng)
            jets = _rand_config(rng, surface, parts)
            w = synth(jets)
            std = standard_config(surface, parts).jets
            assert [apply_jet(w, s) for s in std] == jets
    _elapsed(1, "round-trip synthesis", t0)


def _shear_twist(lam):
    sq = Poly([1, 0, 1]) ** 2
    lz2 = Poly([ZERO, ZERO, lam * lam])
    q = Poly([ZERO, lam + lam]) * Poly([1, 0, 1])
    return SphereTwist.of("z", sq - lz2, q, sq + lz2)


def test_criterion_2_shear_family_and_jacobians():
    t0 = time.perf_counter()
    rng = random.Random(202)
    # each coefficient of p^2 + q^2 - r^2 for the equator shear family is a
    # polynomial of degree at most 4 in the parameter, so vanishing at six
    # values forces the identity for every value
    for k in range(1, 7):
        lam = scal(k)
        tw = certify_twist(_shear_twist(lam))
        p, q, r = tw.triple()
        assert p * p + q * q == r * r
        w = AutWord(SPHERE, (tw,))
        two_lam = lam + lam
        for _ in range(10):
            pt = equator_point(rand_fraction(rng))
            expected = ((ONE, ZERO, -(pt.y * two_lam)),
                        (ZERO, ONE, pt.x * two_lam),
                        (ZERO, ZERO, ONE))
            assert jacobian_at(w, pt) == expected
    w1 = AutWord(SPHERE, (certify_twist(_shear_twist(ONE)),))
    assert jacobian_at(w1, equator_point(Fraction(1, 2))) == (
        (ONE, ZERO, scal(Fraction(-8, 5))),
        (ZERO, ONE, scal(Fraction(6, 5))),
        (ZERO, ZERO, ONE))
    # the torus shear adds lam times the vertical slope to the horizontal one
    for k in (1, -1, 2, 5, Fraction(1, 3), Fraction(-7, 2)):
        lam = scal(k)
        g = certify_twist(TorusTwist.of("x", [ZERO, lam, lam], [1, 0, 1]))
        w = AutWord(TORUS, (g,))
        pt = TorusPoint.affine(rand_fraction(rng), 0)
        assert jacobian_at(w, pt) == ((ONE, lam), (ZERO, ONE))
    _elapsed(2, "shear family and jacobians", t0)


def test_criterion_3_rotation_parameter_matches_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(303)
    c = scal(Fraction(3, 5))
    f = Series(c, 2, [scal(Fraction(4, 5)), scal(Fraction(-3, 4))])
    h = Series(c, 2, [ZERO, scal(Fraction(8, 5))])
    assert solve_rotation_parameter(f, f, h) == Series(c, 2, [ZERO, ONE])
    for _ in range(100):
        f, g, h, tau = tau_triple(rng, rng.randint(1, 4))
        got = solve_rotation_parameter(f, g, h)
        assert got == tau
        assert got == solve_half_angle_brute(f, g, h)
    _elapsed(3, "rotation parameter vs brute force", t0)


def test_criterion_4_certified_rotations_preserve_the_sphere():
    t0 = time.perf_counter()
    rng = random.Random(404)
    twists = []
    for _ in range(90):
        a = rand_poly(rng, max_deg=rng.randint(0, 3))
        p = Poly.const(1) - a * a
        twists.append(certify_twist(
            SphereTwist.of(rng.choice("xyz"), p, a + a, Poly.const(1) + a * a)))
    for k in range(10):
        s = Poly([k + 2, 0, 1])
        twists.append(certify_twist(SphereTwist.of(
            "z", Poly.const(3) * s, Poly.const(4) * s, Poly.const(5) * s)))
    # the rotation image identity is a quadratic form in (y, z) over the
    # polynomial ring; three independent evaluations pin all coefficients
    for tw in twists:
        p, q, r = tw.triple()
        for y, z in ((1, 0), (0, 1), (1, 2)):
            y, z = Poly.const(y), Poly.const(z)
            lhs = (y * p - z * q) ** 2 + (y * q + z * p) ** 2
            assert lhs == (y * y + z * z) * r * r
    _elapsed(4, "sphere preservation identity", t0)


def test_criterion_5_sturm_counts_match_bisection_oracle():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for i in range(500):
        if i % 3 == 0:
            pol = rand_poly(rng, max_deg=8)
            while pol.is_zero():
                pol = rand_poly(rng, max_deg=8)
        else:
            pol = rand_poly(rng, max_deg=2)
            while pol.is_zero():
                pol = rand_poly(rng, max_deg=2)
            for _ in range(rng.randint(1, 3)):
                root = rand_fraction(rng, den_max=3, num_max=2)
                factor = Poly([-root, 1])
                if rng.random() < 0.3:
                    factor = factor * factor
                pol = pol * factor
        plain = [c.as_fraction() for c in pol.coeffs]
        assert sturm_root_count(pol) == oracles.count_line(plain)
        assert sturm_root_count(pol, (scal(-1), scal(1))) == \
            oracles.count_closed(plain, Fraction(-1), Fraction(1))
    _elapsed(5, "Sturm vs bisection", t0)


def test_criterion_6_interpolation_and_square_root_lifts():
    t0 = time.perf_counter()
    rng = random.Random(606)
    assert crt_combine([(0, 2, 0), (1, 2, 0)]) == Poly()
    assert crt_combine([(0, 2, 1), (1, 2, 2)]) == Poly([1, 0, 3, -2])
    assert crt_combine([(0, 1, 5)]) == Poly.const(5)
    assert hensel_sqrt(Series.constant(1, ZERO, 4), 1) == \
        Series.constant(1, ZERO, 4)
    c = scal(Fraction(3, 5))
    assert hensel_sqrt(poly_to_series(Poly([1, 0, -1]), c, 2), Fraction(4, 5)) \
        == Series(c, 2, [scal(Fraction(4, 5)), scal(Fraction(-3, 4))])
    assert hensel_sqrt(poly_to_series(Poly([1, 1]), ZERO, 3), 1) == \
        Series(ZERO, 3, [ONE, scal(Fraction(1, 2)), scal(Fraction(-1, 8))])
    for _ in range(200):
        centers = []
        while len(centers) < rng.randint(1, 3):
            c = scal(rand_fraction(rng))
            if all(not (c == d) for d in centers):
                centers.append(c)
        residues = [(c, e, rand_series(rng, c, e))
                    for c in centers for e in (rng.randint(1, 3),)]
        pol = crt_combine(residues)
        total = sum(e for _, e, _ in residues)
        assert pol.is_zero() or pol.degree < total
        for c, e, val in residues:
            assert poly_to_series(pol, c, e) == val
    _elapsed(6, "interpolation and square-root lifts", t0)


def _rand_torus_word(rng, length):
    gens = []
    for _ in range(length):
        if rng.random() < 0.3:
            ms = []
            while len(ms) < 2:
                m = [[rand_fraction(rng) for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
                    ms.append(m)
            gens.append(TorusMoebius.of(ms[0], ms[1]))
        else:
            k = rng.randint(1, 2)
            p = rand_poly(rng, max_deg=2 * k)
            while p.degree != 2 * k:
                p = rand_poly(rng, max_deg=2 * k)
            gens.append(TorusTwist.of(rng.choice("xy"), p, Poly([1, 0, 1]) ** k))
    return word_of(TORUS, gens)


def _rand_sphere_word(rng, length):
    gens = []
    for _ in range(length):
        if rng.random() < 0.2:
            s = Poly([rng.randint(2, 4), 0, 1])
            gens.append(SphereTwist.of(rng.choice("xyz"), Poly.const(3) * s,
                                       Poly.const(4) * s, Poly.const(5) * s))
        else:
            a = rand_poly(rng, max_deg=rng.randint(0, 2))
            gens.append(SphereTwist.of(rng.choice("xyz"), Poly.const(1) - a * a,
                                       a + a, Poly.const(1) + a * a))
    return word_of(SPHERE, gens)


def test_criterion_7_words_act_as_a_group():
    t0 = time.perf_counter()
    rng = random.Random(707)
    for k in range(100):
        length = rng.randint(1, 5)
        if k % 2 == 0:
            w = _rand_torus_word(rng, length)
            w2 = _rand_torus_word(rng, rng.randint(1, 2))
            pts = [TorusPoint.affine(rand_fraction(rng), rand_fraction(rng)),
                   TorusPoint(ProjPoint.infinity(),
                              ProjPoint.affine(rand_fraction(rng)))]
            jet = rand_torus_jet(rng, rng.randint(1, 3))
        else:
            w = _rand_sphere_word(rng, length)
            w2 = _rand_sphere_word(rng, rng.randint(1, 2))
            pts = [rand_sphere_point(rng), rand_sphere_point(rng)]
            jet = rand_sphere_jet(rng, rng.randint(1, 3))
        round_trip = word_concat(w, word_inverse(w))
        for pt in pts:
            assert apply_point(round_trip, pt) == pt
        assert apply_jet(round_trip, jet) == jet
        both = word_concat(w, w2)
        assert apply_jet(both, jet) == apply_jet(w2, apply_jet(w, jet))
    _elapsed(7, "group laws", t0)


def _flat(base, orders):
    return SurfaceDescriptor(base, tuple(BlowupRecord(BASE, e) for e in orders))


def _rand_descriptor(rng):
    base = rng.choice((SPHERE, TORUS, KLEIN))
    recs = []
    for i in range(rng.randint(0, 5)):
        parent = BASE if i == 0 or rng.random() < 0.6 else rng.randrange(i)
        recs.append(BlowupRecord(parent, rng.randint(1, 5)))
    return SurfaceDescriptor(base, tuple(recs))


def test_criterion_8_classification_soundness():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for base, chi in ((SPHERE, 2), (TORUS, 0), (KLEIN, 0)):
        for orders in ([], [1], [3], [5], [2, 4], [1, 2, 3], [5, 5, 1]):
            d = _flat(base, orders)
            assert descriptor_invariants(d).euler == \
                oracles.euler_resolve_then_contract(chi, orders)
    # nesting records under one another never changes the count
    nested = SurfaceDescriptor(SPHERE, (BlowupRecord(BASE, 2),
                                        BlowupRecord(0, 4),
                                        BlowupRecord(1, 1)))
    assert descriptor_invariants(nested).euler == \
        oracles.euler_resolve_then_contract(2, [2, 4, 1])
    in_scope = _flat(SPHERE, [2, 1])
    assert isomorphism_decide(in_scope, in_scope) == ISOMORPHIC
    assert isomorphism_decide(_flat(SPHERE, [1, 1, 1]),
                              _flat(TORUS, [1])) == ISOMORPHIC
    assert isomorphism_decide(_flat(SPHERE, [2]),
                              _flat(SPHERE, [1, 1])) == NOT_ISOMORPHIC
    assert isomorphism_decide(_flat(SPHERE, [2, 2]),
                              _flat(SPHERE, [2, 2])) == HYPOTHESIS_NOT_MET
    for _ in range(100):
        d = _rand_descriptor(rng)
        n = descriptor_normalize(d)
        assert descriptor_invariants(n) == descriptor_invariants(d)
        assert descriptor_normalize(n) is n
    _elapsed(8, "classifier soundness", t0)


def test_criterion_9_pinned_jets_stay_fixed():
    t0 = time.perf_counter()
    rng = random.Random(909)
    for k in range(50):
        surface = TORUS if k % 2 == 0 else SPHERE
        make = rand_torus_jet if surface == TORUS else rand_sphere_jet
        pin_orders = [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        move_orders = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        pinned = _rand_config(rng, surface, pin_orders)

        def fresh(orders, pinned=pinned):
            jets = list(pinned)
            while len(jets) < len(pinned) + len(orders):
                j = make(rng, orders[len(jets) - len(pinned)])
                if all(j.center != o.center for o in jets):
                    jets.append(j)
            return jets[len(pinned):]

        frm = fresh(move_orders)
        to = fresh(move_orders)
        w = synth_pair(frm, to, pinned)
        for j in pinned:
            assert apply_jet(w, j) == j
        for a, b in zip(frm, to):
            assert apply_jet(w, a) == b
    _elapsed(9, "pinned synthesis", t0)
