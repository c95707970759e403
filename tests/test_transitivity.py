"""Rational enumeration, separation and normalization stages, and synthesis."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    rand_fraction,
    rand_sphere_jet,
    rand_torus_jet,
    solve_half_angle_brute,
    tau_triple,
)

import jetmove
from jetmove import automorphisms, cli, exactalg, surfaces, transitivity
from jetmove.automorphisms import (MAX_TWIST_DEGREE, apply_jet, apply_point,
                                   certify_twist, word_from_json, word_to_json)
from jetmove.errors import (
    DuplicatePoints,
    EnumerationExhausted,
    MixedSurfaces,
    NotDistant,
    OrderMismatch,
    OutputTooLarge,
    PreconditionFailed,
)
from jetmove.exactalg import (ONE, ZERO, CrtBasis, Poly, Scalar, Series,
                              hensel_sqrt, poly_to_series, scal,
                              scalar_sqrt_adjoin)
from jetmove.exactalg.scalar import MAX_SCALAR_DIGITS
from jetmove.surfaces import (
    Jet,
    ProjPoint,
    SPHERE,
    SpherePoint,
    TORUS,
    TorusPoint,
    jet_is_vertical,
    jet_to_json,
    sphere_point_stereo,
    sphere_standard_center,
    standard_config,
    torus_standard_center,
)
from jetmove.transitivity import (
    enumerate_rationals,
    interpolating_twist,
    make_nonvertical_sphere,
    make_nonvertical_torus,
    rotation_twist,
    separate_points_sphere,
    separate_points_torus,
    solve_rotation_parameter,
    synth_pair,
    synth_sphere,
    synth_torus,
)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_prefix():
    got = list(itertools.islice(enumerate_rationals(), 15))
    assert got == [Fraction(n, d) for n, d in [
        (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
        (3, 1), (-3, 1), (3, 2), (-3, 2), (1, 3), (-1, 3), (2, 3), (-2, 3)]]


def test_enumeration_has_no_repeats():
    seen = list(itertools.islice(enumerate_rationals(), 300))
    assert len(set(seen)) == 300


# ---------------------------------------------------------------------------
# interpolated generators


def test_interpolating_twist_hits_residues():
    tw = interpolating_twist("y", [(scal(1), 1, scal(3)), (scal(2), 1, scal(-1))])
    assert tw.route == "torus-twist-square"
    w = word_of_one(tw)
    assert apply_point(w, TorusPoint.affine(1, 0)) == TorusPoint.affine(1, 3)
    assert apply_point(w, TorusPoint.affine(2, 5)) == TorusPoint.affine(2, 4)


def test_interpolating_twist_identity_is_none():
    assert interpolating_twist("x", [(scal(1), 2, ZERO)]) is None


def test_rotation_twist_fixes_prescribed_fiber():
    # half-angle 0 at x = 3/5 keeps that circle fixed; half-angle 1 at
    # x = 0 is a quarter turn there
    tw = rotation_twist("x", [(scal(Fraction(3, 5)), 1, ZERO),
                              (ZERO, 1, scal(1))])
    assert tw is not None
    w = word_of_one(tw)
    fixed = SpherePoint(scal(Fraction(3, 5)), ZERO, scal(Fraction(4, 5)))
    assert apply_point(w, fixed) == fixed
    q = apply_point(w, SpherePoint(ZERO, ONE, ZERO))
    assert q.coords() == (ZERO, ZERO, ONE)


def test_rotation_twist_identity_is_none():
    assert rotation_twist("z", [(ZERO, 3, ZERO)]) is None


def word_of_one(gen):
    from jetmove.automorphisms import AutWord
    return AutWord(gen.surface, (gen,))


# ---------------------------------------------------------------------------
# point separation


def _point_jet(p):
    """The order-1 jet at point p, the form a bare point rides separation in."""
    if isinstance(p, TorusPoint):
        return Jet.torus(p, 1, Series(p.x.local, 1, [p.y.local]))
    return Jet.sphere(p, 1, Series(p.x, 1, [p.y]), Series(p.x, 1, [p.z]))


def _separate(stage, pts):
    """The stage's word on the point jets at pts, checking that the jets
    it hands back sit on the standard centers."""
    w, moved = stage([_point_jet(p) for p in pts])
    center = torus_standard_center if stage is separate_points_torus else sphere_standard_center
    assert [j.center for j in moved] == [center(i) for i in range(1, len(pts) + 1)]
    assert all(j.order == 1 for j in moved)
    return w


def test_separate_torus_points():
    pts = [TorusPoint.affine(5, 7), TorusPoint.affine(2, 3),
           TorusPoint.affine(-1, Fraction(1, 2))]
    w = _separate(separate_points_torus, pts)
    for i, p in enumerate(pts, 1):
        assert apply_point(w, p) == torus_standard_center(i)


def test_separate_torus_points_from_infinity():
    pts = [TorusPoint(ProjPoint.infinity(), ProjPoint.affine(0)),
           TorusPoint(ProjPoint.affine(0), ProjPoint.infinity())]
    w = _separate(separate_points_torus, pts)
    for i, p in enumerate(pts, 1):
        assert apply_point(w, p) == torus_standard_center(i)


def test_separate_torus_points_sharing_a_column():
    pts = [TorusPoint.affine(0, 1), TorusPoint.affine(0, 2),
           TorusPoint.affine(1, 1)]
    w = _separate(separate_points_torus, pts)
    for i, p in enumerate(pts, 1):
        assert apply_point(w, p) == torus_standard_center(i)


def test_separate_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        separate_points_torus([_point_jet(TorusPoint.affine(1, 1))] * 2)
    with pytest.raises(MixedSurfaces):
        separate_points_torus([_point_jet(SpherePoint(ONE, ZERO, ZERO))])


def test_separate_sphere_points():
    pts = [SpherePoint(ZERO, ZERO, ONE), SpherePoint(ONE, ZERO, ZERO),
           sphere_point_stereo(1, 1)]
    w = _separate(separate_points_sphere, pts)
    for i, p in enumerate(pts, 1):
        assert apply_point(w, p) == sphere_standard_center(i)


def test_separate_sphere_already_standard():
    pts = [sphere_standard_center(1), sphere_standard_center(2)]
    assert len(_separate(separate_points_sphere, pts)) == 0


def test_separate_sphere_rejects_duplicates():
    p = _point_jet(sphere_point_stereo(2, 3))
    with pytest.raises(DuplicatePoints):
        separate_points_sphere([p, p])


def _count_bases(monkeypatch) -> list[int]:
    """The node count of every CrtBasis built from here on."""
    built, init = [], CrtBasis.__init__

    def counting(self, nodes, orders):
        init(self, nodes, orders)
        built.append(len(self.nodes))

    monkeypatch.setattr(CrtBasis, "__init__", counting)
    return built


def test_rotation_twist_stage_builds_one_node_product(monkeypatch):
    # k points, one CrtBasis: each twist is the term of its own residue on
    # the shared basis, equal to the interpolant of that residue padded
    # with zeros, and a zero value gives no twist
    s2, s3 = scalar_sqrt_adjoin(2), scalar_sqrt_adjoin(3)
    nodes = [scal(Fraction(k, 7)) for k in (-3, 1, 5, 6)]
    orders = [1, 2, 3, 1]
    values = [1 + s2, scal(Fraction(2, 3)), Series(nodes[2], 3, [0, 1, s3]), ZERO]
    built = _count_bases(monkeypatch)
    twists = list(transitivity._rotation_twists("x", nodes, orders, values))
    assert built == [4]
    monkeypatch.undo()
    assert len(twists) == 3
    for i, tw in enumerate(twists):
        want = rotation_twist("x", [(c, e, values[i] if k == i else 0)
                                    for k, (c, e) in enumerate(zip(nodes, orders))])
        assert (tw.fixed, tw.n, tw.d) == (want.fixed, want.n, want.d)


def test_sphere_separation_builds_one_basis_per_stage(monkeypatch, rng):
    # the two per-point rotation stages and the final drop to the equator
    # each build one basis over all k points
    jets = [rand_sphere_jet(rng, e) for e in (2, 1, 3)]
    built = _count_bases(monkeypatch)
    w1, _ = separate_points_sphere(jets)
    assert built == [3, 3, 3]
    assert len(w1) > 0


def _sphere_jet(c, tail):
    """Sphere jet at c of order len(tail) + 1 with g = c.y + tail in powers
    of x - c.x, and h the root of 1 - x^2 - g^2 through c.z."""
    e = len(tail) + 1
    g = Series(c.x, e, [c.y, *tail])
    h = hensel_sqrt(poly_to_series(Poly([1, 0, -1]), c.x, e) - g * g, c.z)
    return Jet.sphere(c, e, g, h)


def _separation_targets():
    """Torus jets over x = infinity, over y = infinity and one transposed
    (vertical), and sphere jets of orders [3, 2, 2], two sharing their x
    so that the generic rotation runs."""
    torus = [
        Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(3)), 2,
                  Series(ZERO, 2, [3, 1])),
        Jet.torus(TorusPoint(ProjPoint.affine(2), ProjPoint.infinity()), 3,
                  Series(scal(2), 3, [0, 1, Fraction(1, 2)])),
        Jet.torus(TorusPoint.affine(2, 5), 2, Series(scal(5), 2, [2, 0]), transposed=True),
        Jet.torus(TorusPoint.affine(-1, 4), 1, Series(scal(-1), 1, [4])),
    ]
    sphere = [
        _sphere_jet(sphere_point_stereo(1, 2), [1, Fraction(-1, 2)]),
        _sphere_jet(SpherePoint.of(Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3)), [2]),
        _sphere_jet(sphere_point_stereo(2, 3), [Fraction(-1, 3)]),
    ]
    return [(separate_points_torus, torus), (separate_points_sphere, sphere)]


def _word_dump(w):
    return json.dumps(word_to_json(w), sort_keys=True)


def test_separation_carries_the_targets_once(monkeypatch):
    # the stage reads its centers off the carried forms: they are the
    # images apply_point gives of the target centers under the word so
    # far, the word is the one those images build, and each jet handed
    # back is apply_jet(w1, target)
    carried = transitivity._moved
    for stage, targets in _separation_targets():
        w1, moved = stage(targets)
        assert len(moved) == len(targets)
        for j, m in zip(targets, moved):
            assert m == apply_jet(w1, j)
        steps = []

        def by_points(gens, forms, g, targets=targets):
            forms, pts = carried(gens, forms, g)
            w = automorphisms.AutWord(targets[0].surface, tuple(gens))
            want = [apply_point(w, j.center) for j in targets]
            assert pts == want
            steps.append(len(gens))
            return forms, want

        monkeypatch.setattr(transitivity, "_moved", by_points)
        w_ref, moved_ref = stage(targets)
        monkeypatch.undo()
        assert steps and steps[-1] == len(w1)
        assert _word_dump(w_ref) == _word_dump(w1)
        assert moved_ref == moved


def test_separation_carries_order_one_targets_as_values(monkeypatch):
    # F[t]/(t) is the field: an order-1 target rides a whole stage as
    # Scalars, and only an order >= 2 one as series
    carried, seen = transitivity._moved, []

    def spy(gens, forms, g):
        forms, pts = carried(gens, forms, g)
        seen.extend(forms)
        return forms, pts

    monkeypatch.setattr(transitivity, "_moved", spy)
    extra = {separate_points_torus: TorusPoint.affine(7, -3),
             separate_points_sphere: sphere_point_stereo(-2, 5)}
    for stage, targets in _separation_targets():
        targets = [*targets, _point_jet(extra[stage])]
        seen.clear()
        w, moved = stage(targets)
        assert moved == tuple(apply_jet(w, j) for j in targets)
        orders = [j.order for j in targets] * (len(seen) // len(targets))
        assert 1 in orders and max(orders) > 1
        for order, f in zip(orders, seen):
            entries = (f.x[1], f.y[1]) if stage is separate_points_torus else (f.x, f.y, f.z)
            assert all(isinstance(v, Scalar) == (order == 1) for v in entries)


def test_torus_separation_word_depends_on_the_centers_only():
    _, targets = _separation_targets()[0]
    w1, _ = separate_points_torus(targets)
    w_pts, _ = separate_points_torus([_point_jet(j.center) for j in targets])
    assert len(w1) > 0
    assert _word_dump(w_pts) == _word_dump(w1)


def test_sphere_separation_at_the_standard_centers_is_the_identity():
    jets = standard_config(SPHERE, [2, 1, 3]).jets
    w1, moved = separate_points_sphere(jets)
    assert len(w1) == 0 and w1.surface == SPHERE
    assert moved == tuple(jets)


def test_synthesis_moves_each_target_through_separation_once(monkeypatch):
    # generator steps of the torus transport over one synth_torus: the
    # targets cross the separating word w1 once, the shear w2 once, and
    # the final check crosses the whole word once
    steps, words = [], {}
    original = automorphisms._push_torus

    def counted(w, par):
        steps.append(len(w.generators))
        return original(w, par)

    for mname, module in list(sys.modules.items()):
        if mname.startswith("jetmove") and getattr(module, "_push_torus", None) is original:
            monkeypatch.setattr(module, "_push_torus", counted)
    for name in ("separate_points_torus", "make_nonvertical_torus"):
        def stage(jets, name=name, inner=getattr(transitivity, name)):
            words[name] = out = inner(jets)
            return out
        monkeypatch.setattr(transitivity, name, stage)
    w = dict(_pinned_jobs())["torus"]()
    n = 2
    w1 = words["separate_points_torus"][0]
    w2 = words["make_nonvertical_torus"][0]
    assert len(w1) > 0 and len(w2) == 1
    assert sum(steps) == len(w1) * n + len(w2) * n + len(w) * n


# ---------------------------------------------------------------------------
# non-verticality


def _vertical_jet_at(i):
    c = torus_standard_center(i)
    return Jet.torus(c, 2, Series(ZERO, 2, [c.x.value, ZERO]), transposed=True)


def test_make_nonvertical_torus_first_parameter():
    w, out = make_nonvertical_torus([_vertical_jet_at(1)])
    assert len(w) == 1
    assert not jet_is_vertical(out[0])
    # tangent (0, 1) only rules out lam = 0, so the first try wins
    assert "(y + y^2)/(1 + y^2)" in str(w.generators[0])


def test_make_nonvertical_torus_skips_bad_parameter():
    # tangent (1, -1) collides with lam = 1; the next candidate is -1
    j = Jet.torus(torus_standard_center(1), 2, Series(ONE, 2, [ZERO, -ONE]))
    w, out = make_nonvertical_torus([j])
    assert "(-y + -y^2)/(1 + y^2)" in str(w.generators[0])
    assert not jet_is_vertical(out[0])


def test_make_nonvertical_torus_identity_on_simple_orders():
    jets = [Jet.torus(torus_standard_center(1), 1,
                      Series(ONE, 1, [ZERO]))]
    w, out = make_nonvertical_torus(jets)
    assert len(w) == 0 and out == tuple(jets)


def test_make_nonvertical_torus_rejects_misplaced_jet():
    j = Jet.torus(TorusPoint.affine(5, 0), 2, Series(scal(5), 2, [ZERO, ZERO]))
    with pytest.raises(PreconditionFailed):
        make_nonvertical_torus([j])


def test_make_nonvertical_torus_exhausts_under_tiny_limit(monkeypatch):
    monkeypatch.setattr(transitivity, "ENUM_LIMIT", 1)
    j = Jet.torus(torus_standard_center(1), 2, Series(ONE, 2, [ZERO, -ONE]))
    with pytest.raises(EnumerationExhausted):
        make_nonvertical_torus([j])


def _sphere_vertical_jet(i):
    # order-2 jet at a standard center pointing along the fiber circle
    c = sphere_standard_center(i)
    rows = None
    del rows
    u = poly_to_series(Poly([1, 0, -1]), c.x, 2)
    g = hensel_sqrt(u, c.y)
    # vertical means the x-direction does not move: transposed chart jets;
    # build via parametrization along the fiber through c
    from jetmove.surfaces import SphereParam, jet_from_sphere_param
    x = Series(ZERO, 2, [c.x, ZERO])
    y = Series(ZERO, 2, [c.y, ZERO])
    z = Series(ZERO, 2, [ZERO, ONE])
    # renormalize to the sphere: x^2 + y^2 + z^2 = 1 + t^2
    s = hensel_sqrt(x * x + y * y + z * z, 1).invert()
    return jet_from_sphere_param(SphereParam(x * s, y * s, z * s), 2)


def test_make_nonvertical_sphere():
    jets = [_sphere_vertical_jet(1), _sphere_vertical_jet(2)]
    assert any(jet_is_vertical(j) for j in jets)
    w, out = make_nonvertical_sphere(jets)
    assert len(w) == 1
    for i, j in enumerate(out, 1):
        assert j.center == sphere_standard_center(i)
        assert not jet_is_vertical(j)


@pytest.mark.parametrize("surface", [TORUS, SPHERE])
def test_shear_skips_order_one_jets(monkeypatch, surface):
    # the shear's translation term lam (y + y^2) and angle lam z vanish at
    # every standard center, so an order-1 jet crossing it forms no
    # inverse; the vertical jet beside it does
    torus = surface == TORUS
    vertical = _vertical_jet_at(1) if torus else _sphere_vertical_jet(1)
    points = standard_config(surface, [2, 1, 1]).jets[1:]
    w, out = (make_nonvertical_torus if torus else make_nonvertical_sphere)(
        [vertical, *points])
    assert len(w) == 1 and out[1:] == points
    # Poly.inverse is the inverse both step paths form: the integer-form
    # step calls it directly, the Series fallback through Series.invert
    calls = []
    inverse = Poly.inverse
    monkeypatch.setattr(Poly, "inverse", lambda p, n: calls.append(p) or inverse(p, n))
    assert tuple(apply_jet(w, j) for j in points) == points
    assert calls == []
    apply_jet(w, vertical)
    assert calls


# ---------------------------------------------------------------------------
# the rotation-parameter solve


def test_solve_rotation_parameter_zero_h():
    c = scal(Fraction(3, 5))
    u = poly_to_series(Poly([1, 0, -1]), c, 3)
    f = hensel_sqrt(u, Fraction(4, 5))
    h = Series.constant(0, c, 3)
    a = solve_rotation_parameter(f, f, h)
    assert a == Series.constant(0, c, 3)


def test_solve_rotation_parameter_recovers_tau(rng):
    for _ in range(30):
        e = rng.randint(1, 5)
        f, g, h, tau = tau_triple(rng, e)
        assert solve_rotation_parameter(f, g, h) == tau


def test_solve_rotation_parameter_matches_brute_force(rng):
    for _ in range(30):
        e = rng.randint(2, 5)
        f, g, h, _ = tau_triple(rng, e)
        assert solve_rotation_parameter(f, g, h) == solve_half_angle_brute(f, g, h)


def test_solve_rotation_parameter_checks_center_value():
    c = scal(Fraction(3, 5))
    u = poly_to_series(Poly([1, 0, -1]), c, 2)
    f = hensel_sqrt(u, Fraction(4, 5))
    g = -f
    with pytest.raises(PreconditionFailed):
        solve_rotation_parameter(f, g, Series.constant(0, c, 2))


def test_solve_rotation_parameter_checks_circle_identity():
    c = scal(Fraction(3, 5))
    f = Series(c, 2, [scal(Fraction(4, 5)), ZERO])  # not on the circle
    with pytest.raises(PreconditionFailed):
        solve_rotation_parameter(f, f, Series.constant(0, c, 2))


# ---------------------------------------------------------------------------
# synthesis


def test_synth_torus_empty():
    assert len(synth_torus([])) == 0


def test_synth_torus_single_jet():
    j = Jet.torus(TorusPoint.affine(5, 7), 3,
                  Series(scal(5), 3, [7, 2, Fraction(-1, 3)]))
    w = synth_torus([j])
    src = standard_config(TORUS, [3]).jets[0]
    assert apply_jet(w, src) == j


def test_synth_torus_mixed_configuration():
    jets = [
        Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(2)), 2,
                  Series(ZERO, 2, [scal(2), ONE])),
        _vertical_jet_at(4),
        Jet.torus(TorusPoint.affine(0, 0), 1, Series(ZERO, 1, [ZERO])),
    ]
    w = synth_torus(jets)
    for src, j in zip(standard_config(TORUS, [2, 2, 1]).jets, jets):
        assert apply_jet(w, src) == j


def test_synth_torus_builds_twists_in_square_shape(monkeypatch, rng):
    # every torus twist the synthesizer builds, including the
    # non-verticality shear, must prove itself without a Sturm chain
    def no_sturm(*args):
        raise AssertionError("a synthesized twist took the Sturm route")

    monkeypatch.setattr(automorphisms, "SturmChain", no_sturm)
    jets = [
        Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(2)), 2,
                  Series(ZERO, 2, [scal(2), ONE])),
        _vertical_jet_at(4),
        rand_torus_jet(rng, 3, p_inf=0),
    ]
    word = synth_torus(jets)
    kinds = {g.route for g in word.generators}
    assert "torus-twist-square" in kinds and "torus-twist" not in kinds
    loaded = automorphisms.word_from_json(word_to_json(word))
    assert loaded == word
    for src, j in zip(standard_config(TORUS, [2, 2, 3]).jets, jets):
        assert apply_jet(loaded, src) == j


def test_synth_torus_certifies_by_construction(monkeypatch, rng):
    # each synthesized generator takes its route from the constructor
    # that built it, so neither square recovery nor a Sturm chain runs
    def refuse(*args):
        raise AssertionError("a synthesized generator was proved again")

    monkeypatch.setattr(automorphisms, "poly_sqrt", refuse)
    monkeypatch.setattr(automorphisms, "SturmChain", refuse)
    jets = [
        Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(2)), 2,
                  Series(ZERO, 2, [scal(2), ONE])),
        _vertical_jet_at(4),
        rand_torus_jet(rng, 3, p_inf=0),
    ]
    word = synth_torus(jets)
    kinds = [g.route for g in word.generators]
    assert set(kinds) == {"torus-twist-square", "moebius"}


def test_synth_sphere_builds_twists_in_square_shape(monkeypatch, rng):
    # every sphere twist the synthesizer builds, including the
    # non-verticality shear, must prove itself without a Sturm chain
    def no_sturm(*args):
        raise AssertionError("a synthesized twist took the Sturm route")

    monkeypatch.setattr(automorphisms, "SturmChain", no_sturm)
    jets = [rand_sphere_jet(rng, 3), rand_sphere_jet(rng, 2)]
    while jets[1].center == jets[0].center:
        jets[1] = rand_sphere_jet(rng, 2)
    word = synth_sphere(jets)
    kinds = {g.route for g in word.generators}
    assert kinds == {"sphere-twist-square"}
    loaded = automorphisms.word_from_json(word_to_json(word))
    assert loaded == word
    for src, j in zip(standard_config(SPHERE, [3, 2]).jets, jets):
        assert apply_jet(loaded, src) == j


def test_synth_torus_random(rng):
    for _ in range(6):
        orders = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        jets = []
        while len(jets) < len(orders):
            j = rand_torus_jet(rng, orders[len(jets)])
            if all(j.center != k.center for k in jets):
                jets.append(j)
        w = synth_torus(jets)
        for src, j in zip(standard_config(TORUS, orders).jets, jets):
            assert apply_jet(w, src) == j


def test_synth_sphere_jets(rng):
    jets = [rand_sphere_jet(rng, 2), rand_sphere_jet(rng, 1)]
    while jets[1].center == jets[0].center:
        jets[1] = rand_sphere_jet(rng, 1)
    w = synth_sphere(jets)
    for src, j in zip(standard_config(SPHERE, [2, 1]).jets, jets):
        assert apply_jet(w, src) == j


def test_synth_rejects_shared_centers():
    c = TorusPoint.affine(1, 1)
    jets = [Jet.torus(c, 1, Series(ONE, 1, [ONE])),
            Jet.torus(c, 2, Series(ONE, 2, [ONE, ONE]))]
    with pytest.raises(NotDistant):
        synth_torus(jets)


def test_synth_rejects_wrong_surface():
    with pytest.raises(MixedSurfaces):
        synth_torus([standard_config(SPHERE, [1]).jets[0]])
    with pytest.raises(MixedSurfaces):
        synth_sphere([standard_config(TORUS, [1]).jets[0]])


def _refuse_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesis went past the order-sum check")

    monkeypatch.setattr(transitivity, "_build", refuse)
    monkeypatch.setattr(automorphisms, "SturmChain", refuse)
    monkeypatch.setattr(surfaces, "parse_scalar", refuse)


@pytest.mark.parametrize("surface, orders", [
    (TORUS, [MAX_TWIST_DEGREE // 2 + 1]), (SPHERE, [17, 16]),
    (TORUS, [1] * (MAX_TWIST_DEGREE // 2 + 1))])
def test_synth_refuses_order_sum_before_any_build(monkeypatch, surface, orders):
    # a torus twist's q has degree twice the order sum, and a word load
    # refuses degrees past MAX_TWIST_DEGREE
    jets = standard_config(surface, orders).jets
    _refuse_any_work(monkeypatch)
    synth = synth_torus if surface == TORUS else synth_sphere
    with pytest.raises(PreconditionFailed, match=f"target jet orders sum to {sum(orders)}"):
        synth(jets)


def test_synth_pair_counts_pinned_orders(monkeypatch):
    # each side alone is within the limit; pinned and moved jets together are not
    half = MAX_TWIST_DEGREE // 4
    jets = standard_config(TORUS, [half + 1, half]).jets
    _refuse_any_work(monkeypatch)
    with pytest.raises(PreconditionFailed, match="pinned \\+ from jet orders sum"):
        synth_pair(jets[1:], jets[1:], jets[:1])


def test_order_sum_limit_is_inclusive():
    for surface in (TORUS, SPHERE):
        jets = standard_config(surface, [MAX_TWIST_DEGREE // 2 - 1, 1]).jets
        transitivity._check_config(surface, jets, "target")


def test_synth_pair_moves_jets(rng):
    frm = [rand_torus_jet(rng, 2)]
    to = [rand_torus_jet(rng, 2)]
    w = synth_pair(frm, to)
    assert apply_jet(w, frm[0]) == to[0]


def test_synth_pair_fixes_pinned(rng):
    pin = [Jet.torus(TorusPoint.affine(10, 10), 1, Series(scal(10), 1, [scal(10)]))]
    frm = [Jet.torus(TorusPoint.affine(0, 0), 2, Series(ZERO, 2, [ZERO, ONE]))]
    to = [Jet.torus(TorusPoint.affine(1, 2), 2, Series(ONE, 2, [scal(2), scal(5)]))]
    w = synth_pair(frm, to, pin)
    assert apply_jet(w, frm[0]) == to[0]
    assert apply_jet(w, pin[0]) == pin[0]


def test_synth_pair_order_mismatch():
    frm = [Jet.torus(TorusPoint.affine(0, 0), 2, Series(ZERO, 2, [ZERO, ONE]))]
    to = [Jet.torus(TorusPoint.affine(1, 1), 1, Series(ONE, 1, [ONE]))]
    with pytest.raises(OrderMismatch):
        synth_pair(frm, to)


def test_synth_is_deterministic(rng):
    jets = [rand_torus_jet(rng, 2), rand_torus_jet(rng, 3)]
    while jets[1].center == jets[0].center:
        jets[1] = rand_torus_jet(rng, 3)
    assert word_to_json(synth_torus(jets)) == word_to_json(synth_torus(jets))
    sj = [rand_sphere_jet(rng, 2)]
    assert word_to_json(synth_sphere(sj)) == word_to_json(synth_sphere(sj))


def test_each_synthesis_checks_its_word_once(monkeypatch, rng):
    checks = []
    verify = transitivity._verify_word

    def counted(w, sources, targets):
        checks.append(len(sources))
        verify(w, sources, targets)

    monkeypatch.setattr(transitivity, "_verify_word", counted)
    pin = [Jet.torus(TorusPoint.affine(10, 10), 1, Series(scal(10), 1, [scal(10)]))]
    synth_pair([rand_torus_jet(rng, 2)], [rand_torus_jet(rng, 2)], pin)
    assert checks == [2]
    synth_sphere([rand_sphere_jet(rng, 2)])
    assert checks == [2, 1]


# the check must raise even where python -O strips assert statements
_WRONG_TARGET = """
import sys
from jetmove.errors import InternalVerificationFailure
from jetmove.surfaces import standard_config
from jetmove.transitivity import _verify_word, synth_torus
jets = standard_config("torus", [1, 1]).jets
word = synth_torus(jets)
try:
    _verify_word(word, jets, jets[::-1])
except InternalVerificationFailure:
    print("optimize", sys.flags.optimize, "raised")
"""


def test_word_check_raises_under_optimize():
    package_root = str(Path(jetmove.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_TARGET],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimize", "1", "raised"]


def _pinned_jobs():
    """Four fixed synthesis jobs, each touching a different stage."""
    # torus: a point over x = infinity and a vertical order-2 jet, so the
    # chart Moebius map and the non-verticality shear both appear
    at_infinity = Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(3)),
                            1, Series(ZERO, 1, [scal(3)]))
    vertical = Jet.torus(TorusPoint.affine(2, 5), 2, Series(scal(5), 2, [2, 0]),
                         transposed=True)
    yield "torus", lambda: synth_torus([at_infinity, vertical])
    # sphere [2, 1]: an order-2 jet at (1/3, 2/3, 2/3) with tangent
    # (1, 0, -1/2), then a point with the same x, so separation needs its
    # generic rotation
    c2 = sphere_point_stereo(1, 2)
    c1 = SpherePoint.of(Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3))
    jets = [Jet.sphere(c2, 2, Series(c2.x, 2, [c2.y, 0]),
                       Series(c2.x, 2, [c2.z, scal(Fraction(-1, 2))])),
            Jet.sphere(c1, 1, Series(c1.x, 1, [c1.y]), Series(c1.x, 1, [c1.z]))]
    yield "sphere", lambda: synth_sphere(jets)
    pin = [Jet.torus(TorusPoint.affine(10, 10), 1, Series(scal(10), 1, [10]))]
    frm = [Jet.torus(TorusPoint.affine(5, 7), 2, Series(scal(5), 2, [7, 2]))]
    to = [Jet.torus(TorusPoint.affine(0, 1), 2, Series(ZERO, 2, [1, -1]))]
    yield "pair", lambda: synth_pair(frm, to, pin)
    # sphere pair: order-3 jets on both sides and one pinned point, so
    # both halves run the rotation-parameter solve at order 3
    pin = [Jet.sphere(c1, 1, Series(c1.x, 1, [c1.y]), Series(c1.x, 1, [c1.z]))]
    frm = [_sphere_jet3(sphere_point_stereo(2, 3), [1, 2])]
    to = [_sphere_jet3(sphere_point_stereo(-1, 2), [Fraction(1, 2), -1])]
    yield "sphere-pair", lambda: synth_pair(frm, to, pin)


def _sphere_jet3(c, tail):
    """Order-3 sphere jet at c with g = c.y + tail in powers of x - c.x,
    and h the root of 1 - x^2 - g^2 through c.z."""
    g = Series(c.x, 3, [c.y, *tail])
    h = hensel_sqrt(poly_to_series(Poly([1, 0, -1]), c.x, 3) - g * g, c.z)
    return Jet.sphere(c, 3, g, h)


# SHA-256 of json.dumps(word_to_json(word), sort_keys=True), recorded when
# synthesis still had one pipeline per surface (sphere-pair: when the
# rotation-parameter solve still lifted to order e + 2 val(h)); a change
# that alters a word must say why and record the new hash
_PINNED_WORDS = {
    "torus": "cb668fced973849888cdb6fdc6428b10e8d3d1f197ebee2274fe404d8c5e79dd",
    "sphere": "745a01b6e6658ed7fe11edc6c67938ef0457b4bd6c83d8b579cc6672343687da",
    "pair": "3c5c1cb88d7df403cdb14821cd04141be25402568665cb3b0113535dbc05b7d6",
    "sphere-pair": "854549be9a44e8517100b174e4eb95edcaaeac33d0b1dc3906356e6b2d91e297",
}


def test_synthesized_words_are_pinned():
    for name, synth in _pinned_jobs():
        dump = json.dumps(word_to_json(synth()), sort_keys=True).encode()
        assert hashlib.sha256(dump).hexdigest() == _PINNED_WORDS[name], name


def _probes(name):
    """Fixed jets to move by the pinned word of job ``name``: an order-3
    jet at the job's first source center, bent away from the source jet
    there, and the point at its second.  A word takes its sources to
    points of modest height, where the image of an arbitrary point can
    run to thousands of digits."""
    centers = {
        "torus": [torus_standard_center(1), torus_standard_center(2)],
        "sphere": [sphere_standard_center(1), sphere_standard_center(2)],
        "pair": [TorusPoint.affine(5, 7), TorusPoint.affine(10, 10)],
        "sphere-pair": [sphere_point_stereo(2, 3),
                        SpherePoint.of(Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3))],
    }[name]
    c, p = centers
    if isinstance(c, TorusPoint):
        bent = Jet.torus(c, 3, Series(c.x.value, 3, [c.y.value, Fraction(1, 2), -2]))
        return [bent, Jet.torus(p, 1, Series(p.x.value, 1, [p.y.value]))]
    h = Series(c.x, 3, [c.z, Fraction(1, 3), 1])
    g = hensel_sqrt(poly_to_series(Poly([1, 0, -1]), c.x, 3) - h * h, c.y)
    return [Jet.sphere(c, 3, g, h),
            Jet.sphere(p, 1, Series(p.x, 1, [p.y]), Series(p.x, 1, [p.z]))]


# SHA-256 of json.dumps([jet_to_json(apply_jet(word, j)) for j in probes],
# sort_keys=True) for each pinned word; they guard the transport of jets
# through a word, and a change that moves an image must say why
_PINNED_IMAGES = {
    "torus": "93b735880f50980f12d69b417749e22578de7ddefef3b220171ff3e9cbfb26e1",
    "sphere": "913b0095dc222836345188be6220838d73d91bbf846f19eae9614006205f078d",
    "pair": "5dcfdcf6c4e74741339038cd2847a9e8c0681c7281f62ac846780af051d15fb2",
    "sphere-pair": "2b7cc5805038cc384c444855009b1350b64d0f1499e665b31e7df468889f65aa",
}


def test_apply_images_under_pinned_words_are_pinned():
    for name, synth in _pinned_jobs():
        word = synth()
        images = [jet_to_json(apply_jet(word, j)) for j in _probes(name)]
        dump = json.dumps(images, sort_keys=True).encode()
        assert hashlib.sha256(dump).hexdigest() == _PINNED_IMAGES[name], name


def test_synthesized_routes_are_the_routes_their_data_proves():
    # certify_twist proves a generator again from its data alone, through
    # its kind's ``of``: a shape constructor naming a route its data would
    # not prove fails here.  The jobs cover points over infinity, vertical
    # jets, sphere and pair jobs, and inputs over two square roots, so
    # coefficients lie in a tower of depth two
    s2, s3 = scalar_sqrt_adjoin(2), scalar_sqrt_adjoin(3)
    half = scal(Fraction(1, 2))
    torus = [Jet.torus(TorusPoint.affine(s2, 1), 2, Series(s2, 2, [ONE, s3])),
             _point_jet(TorusPoint.affine(s3, s2))]
    sphere = [_point_jet(SpherePoint(s2 * half, s2 * half, ZERO)),
              _sphere_jet3(sphere_point_stereo(2, 3), [1, 2])]
    jobs = [*_pinned_jobs(), ("two-tower torus", lambda: synth_torus(torus)),
            ("two-tower sphere", lambda: synth_sphere(sphere))]
    routes = set()
    for name, synth in jobs:
        for g in synth().generators:
            assert certify_twist(g) == g, name
            routes.add(g.route)
    assert routes == {"torus-twist-square", "sphere-twist-square", "moebius"}


def test_order_1_transport_does_no_series_arithmetic(monkeypatch):
    # F[t]/(t) is the field: points and order-1 jets cross the pinned
    # words on Scalars, with no series composition, product or inverse
    words = {name: synth() for name, synth in _pinned_jobs() if name in ("torus", "sphere")}
    probes = {name: _probes(name) for name in words}
    moved = lambda: [([apply_point(w, j.center) for j in probes[name]],
                      apply_jet(w, probes[name][1])) for name, w in words.items()]
    want = moved()

    def refuse(*args):
        raise AssertionError("series arithmetic on an order-1 transport")

    monkeypatch.setattr(automorphisms, "compose_centered", refuse)
    monkeypatch.setattr(Series, "invert", refuse)
    monkeypatch.setattr(Series, "__mul__", refuse)
    assert moved() == want


def _count_calls(monkeypatch, name):
    """A list that grows by one per call of the exactalg function ``name``
    through any jetmove module that binds it."""
    original = getattr(exactalg, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mname, module in list(sys.modules.items()):
        if mname.startswith("jetmove") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_pinned_sphere_words_load_and_write_on_the_integer_form(monkeypatch):
    # their twist polynomials lie in Q(sqrt r): a load parses no scalar
    # text, and a write forms at most one radicand text per polynomial
    for name, synth in _pinned_jobs():
        if not name.startswith("sphere"):
            continue
        data = json.loads(json.dumps(word_to_json(synth())))
        polys = sum(k in g for g in data["generators"] for k in "pqr")
        assert any("sqrt" in c for g in data["generators"] for c in g["p"]), name
        parsed = _count_calls(monkeypatch, "parse_scalar")
        written = _count_calls(monkeypatch, "scalar_to_str")
        word = word_from_json(data)
        assert not parsed, name
        assert word_to_json(word) == data, name
        assert len(written) <= polys, name
        monkeypatch.undo()


def test_pinned_words_load_with_no_series_root_or_gcd(monkeypatch):
    # a torus twist's q - 1 = m^2 is rational, so it is proved a square
    # on its integer form, with no hensel_sqrt; a synthesized sphere
    # twist has r + p = 2, so its half-angle needs no poly_gcd
    words = [(name, synth()) for name, synth in _pinned_jobs()]

    def refuse(*args):
        raise AssertionError("not expected on this load")

    monkeypatch.setattr("jetmove.exactalg.series.hensel_sqrt", refuse)
    monkeypatch.setattr(automorphisms, "poly_gcd", refuse)
    for name, word in words:
        data = json.loads(json.dumps(word_to_json(word)))
        assert word_from_json(data) == word, name


def test_output_past_the_digit_limit_exits_too_large(tmp_path, capsys):
    # the image of this point under the pinned sphere word holds numbers
    # of more than MAX_SCALAR_DIGITS digits, which no file may hold
    word = dict(_pinned_jobs())["sphere"]()
    pt = SpherePoint.of(Fraction(2, 7), Fraction(3, 7), Fraction(-6, 7))
    jet = Jet.sphere(pt, 1, Series(pt.x, 1, [pt.y]), Series(pt.x, 1, [pt.z]))
    wfile, jfile = tmp_path / "word.json", tmp_path / "jet.json"
    wfile.write_text(json.dumps(word_to_json(word)))
    jfile.write_text(json.dumps(jet_to_json(jet)))
    assert cli.main(["apply", "--word", str(wfile), "--jet", str(jfile)]) == cli.TOO_LARGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"output too large: a number has more than {MAX_SCALAR_DIGITS} "
                   "digits, the most a file may hold\n")


def test_word_writer_refuses_a_number_no_file_may_hold():
    big = 10 ** MAX_SCALAR_DIGITS
    twist = automorphisms.TorusTwist.of("y", [big, 0, 1], [1, 0, 1])
    moebius = automorphisms.TorusMoebius.of([[big, 0], [0, 1]], [[1, 0], [0, 1]])
    for g in (twist, moebius):
        with pytest.raises(OutputTooLarge):
            word_to_json(automorphisms.AutWord(TORUS, (g,)))
    fits = automorphisms.TorusTwist.of("y", [big - 1, 0, 1], [1, 0, 1])
    w = automorphisms.AutWord(TORUS, (fits,))
    assert word_from_json(word_to_json(w)) == w
