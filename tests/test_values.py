"""Value semantics of the package's record classes: equality, hashing,
immutability, repr, replace and constructor signatures."""

import pytest

from jetmove.automorphisms import (AutWord, SphereTwist, TorusMoebius,
                                   TorusTwist)
from jetmove.dantesque import (BASE, BlowupRecord, HomeoInvariants,
                               SurfaceDescriptor)
from jetmove.errors import PreconditionFailed
from jetmove.exactalg import Poly
from jetmove.surfaces import (SPHERE, TORUS, ProjPoint, SpherePoint,
                              StandardConfig, TorusParam, TorusPoint,
                              equator_point, jet_parametrize, standard_config)


def _values():
    """One value of each record class, built afresh on every call."""
    torus_jet = standard_config(TORUS, [2]).jets[0]
    sphere_jet = standard_config(SPHERE, [2]).jets[0]
    twist = TorusTwist.square("y", Poly([0, 0, 3]), Poly([0, 1]))
    return {
        "ProjPoint": ProjPoint.affine(2),
        "TorusPoint": TorusPoint.affine(1, 2),
        "SpherePoint": SpherePoint.of(0, 1, 0),
        "Jet": torus_jet,
        "TorusParam": jet_parametrize(torus_jet),
        "SphereParam": jet_parametrize(sphere_jet),
        "StandardConfig": standard_config(TORUS, [2, 1]),
        "TorusTwist": twist,
        "TorusMoebius": TorusMoebius.of(((1, 2), (0, 1)), ((0, 1), (1, 0))),
        "SphereTwist": SphereTwist.half_angle("z", Poly([1, 1])),
        "AutWord": AutWord(TORUS, (twist,)),
        "BlowupRecord": BlowupRecord(BASE, 2, torus_jet),
        "SurfaceDescriptor": SurfaceDescriptor(TORUS, (BlowupRecord(BASE, 2, torus_jet),)),
        "HomeoInvariants": HomeoInvariants(-1, False, 4, (2,)),
    }


# each frozen class, and its first field
FROZEN = {"ProjPoint": "u", "TorusPoint": "x", "SpherePoint": "x", "Jet": "center",
          "TorusParam": "x", "SphereParam": "x",
          "StandardConfig": "jets", "TorusTwist": "axis", "TorusMoebius": "mx",
          "SphereTwist": "fixed", "AutWord": "surface", "BlowupRecord": "parent",
          "SurfaceDescriptor": "base", "HomeoInvariants": "euler"}


@pytest.mark.parametrize("name", sorted(_values()))
def test_equal_values_compare_equal(name):
    a, b = _values()[name], _values()[name]
    assert a is not b
    assert a == b
    assert not (a != b)
    assert type(a).__name__ == name


def test_differing_values_compare_unequal():
    assert TorusPoint.affine(1, 2) != TorusPoint.affine(2, 1)
    assert SpherePoint.of(0, 1, 0) != SpherePoint.of(0, -1, 0)
    t = TorusTwist.square("y", Poly([0, 0, 3]), Poly([0, 1]))
    assert t != t.inverse()
    assert t != TorusTwist.square("x", Poly([0, 0, 3]), Poly([0, 1]))
    assert HomeoInvariants(-1, False, 4, (2,)) != HomeoInvariants(-1, False, 4, (3,))
    assert BlowupRecord(BASE, 2) != BlowupRecord(BASE, 3)


def test_equality_checks_the_class():
    # a torus point is no sphere point and no tuple of its fields, even
    # where the fields would compare equal
    p = TorusPoint.affine(1, 0)
    assert p != SpherePoint.of(1, 0, 0)
    assert p != (ProjPoint.affine(1), ProjPoint.affine(0))
    assert (ProjPoint.affine(1), ProjPoint.affine(0)) != p
    assert p.__eq__((p.x, p.y)) is NotImplemented
    assert StandardConfig(()) != ()
    assert BlowupRecord(BASE, 2) != (BASE, 2, None)


@pytest.mark.parametrize("name, field", FROZEN.items())
def test_frozen_fields_cannot_be_set_or_deleted(name, field):
    value = _values()[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


def test_replace_changes_only_the_named_field():
    t = TorusTwist.square("y", Poly([0, 0, 3]), Poly([0, 1]))
    moved = t.replace(p=-t.p)
    assert moved.p == -t.p
    assert (moved.axis, moved.q, moved.route) == (t.axis, t.q, "torus-twist-square")
    assert t.p == Poly([0, 0, 3])

    s = SphereTwist.half_angle("z", Poly([1, 1]))
    assert s.replace(fixed="x") == SphereTwist.half_angle("x", Poly([1, 1]))

    m = TorusMoebius.of(((1, 2), (0, 1)), ((0, 1), (1, 0)))
    assert m.replace(my=m.mx).my == m.mx
    assert m.replace(my=m.mx).route == "moebius"

    par = _values()["SphereParam"]
    out = par.replace(y=par.z, z=par.y)
    assert (out.x, out.y, out.z) == (par.x, par.z, par.y)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(PreconditionFailed):
        SpherePoint.of(0, 1, 0).replace(x=SpherePoint.of(1, 0, 0).x)
    with pytest.raises(PreconditionFailed):
        BlowupRecord(BASE, 2).replace(order=0)
    with pytest.raises(TypeError):
        TorusPoint.affine(1, 2).replace(z=ProjPoint.affine(0))


def test_hash_works_where_every_field_hashes():
    rec = BlowupRecord(BASE, 2)
    desc = SurfaceDescriptor(SPHERE, (rec, BlowupRecord(0, 1)))
    inv = HomeoInvariants(-1, False, 4, (2,))
    assert hash(rec) == hash(BlowupRecord(BASE, 2))
    assert hash(desc) == hash(SurfaceDescriptor(SPHERE, (BlowupRecord(BASE, 2),
                                                         BlowupRecord(0, 1))))
    assert hash(inv) == hash(HomeoInvariants(-1, False, 4, (2,)))
    assert len({rec, BlowupRecord(BASE, 2), desc, inv}) == 3


@pytest.mark.parametrize("name", sorted(set(_values()) - {"HomeoInvariants"}))
def test_hash_raises_on_exact_scalars_and_mutable_values(name):
    # points, jets, twists and params hold unhashable exact values, and a
    # record or descriptor holding a jet hashes no better
    with pytest.raises(TypeError):
        hash(_values()[name])


def test_repr_names_each_field():
    assert (repr(HomeoInvariants(-1, False, 4, (2,)))
            == "HomeoInvariants(euler=-1, orientable=False, genus=4, singularities=(2,))")
    assert (repr(BlowupRecord(BASE, 2))
            == "BlowupRecord(parent='base', order=2, center=None)")
    assert repr(TorusPoint.affine(1, 2)) == "TorusPoint(x=ProjPoint(1), y=ProjPoint(2))"
    t = TorusTwist.square("y", Poly([0, 0, 3]), Poly([0, 1]))
    assert repr(t) == f"TorusTwist(axis='y', p={t.p!r}, q={t.q!r}, route='torus-twist-square')"
    assert repr(StandardConfig(())) == "StandardConfig(jets=())"


def test_constructor_signatures():
    t = TorusTwist.square("y", Poly([0, 0, 3]), Poly([0, 1]))
    with pytest.raises(TypeError):
        TorusTwist("y", t.p, t.q, "torus-twist-square")   # route is keyword-only
    assert TorusTwist(q=t.q, p=t.p, axis="y", route=t.route) == t
    assert BlowupRecord(BASE, 2).center is None
    assert BlowupRecord(order=2, parent=BASE) == BlowupRecord(BASE, 2, None)
    assert SurfaceDescriptor(SPHERE).records == ()
    # records are kept as a tuple whatever sequence they came in
    assert SurfaceDescriptor(SPHERE, [BlowupRecord(BASE, 1)]).records == (BlowupRecord(BASE, 1),)
    assert TorusParam(x=(0, 1), y=(1, 0)).y == (1, 0)
    assert SpherePoint(*equator_point(2).coords()) == equator_point(2)
    assert len(AutWord(SPHERE, ())) == 0
