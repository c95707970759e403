"""Descriptors of singular surfaces built from weighted blow-ups.

A descriptor names a smooth compact base (sphere, torus, or klein) and an
ordered list of blow-up records.  Each record is centered either at a
curvilinear jet on the base (parent ``"base"``) or on the exceptional
locus created by an earlier record (parent = that record's index), and
carries the weight ``order`` of the blow-up.  A weight ``e >= 2`` leaves
a cone singularity on the blown-up surface; weight 1 is an ordinary
blow-up and stays smooth.

Three homeomorphism invariants classify these surfaces: the Euler
characteristic, the topological type of the minimal resolution, and the
multiset of singularity types.  ``descriptor_normalize`` rewrites any
descriptor into a flat one (all records based at mutually distant
standard positions on the sphere, or the bare torus) with identical
invariants, and ``isomorphism_decide`` compares two descriptors whenever
their singularities have pairwise distinct types.
"""

from __future__ import annotations

from .errors import PreconditionFailed, ensure
from .surfaces import (SPHERE, TORUS, Jet, coinciding_points, jet_from_json,
                       jet_to_json, json_field, json_list, standard_config)
from .values import Value

KLEIN = "klein"
BASES = (SPHERE, TORUS, KLEIN)

BASE = "base"

# Verdicts of isomorphism_decide.
ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not-isomorphic"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

_EULER_OF_BASE = {SPHERE: 2, TORUS: 0, KLEIN: 0}


class BlowupRecord(Value):
    """One weighted blow-up: where it is centered and its weight."""

    __slots__ = ("parent", "order", "center")

    def __init__(self, parent: str | int, order: int, center: Jet | None = None):
        if isinstance(parent, bool) or not (parent == BASE or isinstance(parent, int)):
            raise PreconditionFailed("parent must be 'base' or a record index")
        if type(order) is not int or order < 1:
            raise PreconditionFailed("blow-up order must be an integer >= 1")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "center", center)


class SurfaceDescriptor(Value):
    """Base surface plus the ordered list of blow-up records.

    Building one checks it, in this order: the base is known, every
    record center lives on the base, every parent is ``"base"`` or a
    strictly earlier record, and no two base records share a center
    point; each refusal is a PreconditionFailed.
    """

    __slots__ = ("base", "records")

    def __init__(self, base: str, records: tuple[BlowupRecord, ...] = ()):
        if base not in BASES:
            raise PreconditionFailed(f"unknown base surface {base!r}")
        records = tuple(records)
        for rec in records:
            if rec.center is not None and rec.center.surface != base:
                raise PreconditionFailed("record center lives on a different surface")
        for i, rec in enumerate(records):
            if rec.parent != BASE and not 0 <= rec.parent < i:
                raise PreconditionFailed(
                    f"record {i} refers to {rec.parent}, not an earlier record")
        if coinciding_points([rec.center.center for rec in records
                              if rec.parent == BASE and rec.center is not None]) is not None:
            raise PreconditionFailed("two base records share a center point")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "records", records)


class HomeoInvariants(Value):
    """Exactly the data that determines the homeomorphism type.

    ``genus`` is the orientable genus of the minimal resolution when
    ``orientable`` is set, its nonorientable genus (crosscap count)
    otherwise.  ``singularities`` lists the orders e of the cone points,
    largest first; the cone of order e has type A(e-1)-minus.
    """

    __slots__ = ("euler", "orientable", "genus", "singularities")

    def __init__(self, euler: int, orientable: bool, genus: int, singularities: tuple):
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "orientable", orientable)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "singularities", singularities)


def singularity_name(order: int) -> str:
    return f"A{order - 1}-"


def descriptor_invariants(d: SurfaceDescriptor) -> HomeoInvariants:
    """Euler characteristic, resolution type, and singularity multiset.

    Every record drops the Euler characteristic by exactly 1, whatever
    its order.  The resolution of a descriptor with records is always
    nonorientable; its crosscap count is the sum of the orders, shifted
    by 2 for a torus or klein base.
    """
    orders = [rec.order for rec in d.records]
    euler = _EULER_OF_BASE[d.base] - len(orders)
    if not orders:
        orientable = d.base != KLEIN
        genus = {SPHERE: 0, TORUS: 1, KLEIN: 2}[d.base]
    else:
        orientable = False
        genus = (0 if d.base == SPHERE else 2) + sum(orders)
    sings = tuple(sorted((e for e in orders if e >= 2), reverse=True))
    return HomeoInvariants(euler, orientable, genus, sings)


def _is_flat(d: SurfaceDescriptor) -> bool:
    if any(rec.parent != BASE for rec in d.records):
        return False
    if d.base == SPHERE:
        return True
    return d.base == TORUS and not d.records


def _flat_sphere(orders: list[int]) -> SurfaceDescriptor:
    jets = standard_config(SPHERE, orders).jets if orders else ()
    recs = tuple(BlowupRecord(BASE, e, jet) for e, jet in zip(orders, jets))
    return SurfaceDescriptor(SPHERE, recs)


def descriptor_normalize(d: SurfaceDescriptor) -> SurfaceDescriptor:
    """Flat descriptor with the same invariants.

    Flat descriptors come back unchanged.  A bare klein base becomes the
    sphere blown up at two standard points; any other descriptor becomes
    a sphere descriptor whose records sit at standard positions, keeping
    the orders >= 2 and adding as many order-1 records as the resolution
    genus requires.
    """
    if _is_flat(d):
        return d
    inv = descriptor_invariants(d)
    keep = sorted((rec.order for rec in d.records if rec.order >= 2), reverse=True)
    ones = inv.genus - sum(keep)
    ensure(ones >= 0, "resolution genus below the singular orders")
    flat = _flat_sphere(keep + [1] * ones)
    ensure(descriptor_invariants(flat) == inv, "normal form changed the invariants")
    return flat


def isomorphism_decide(d1: SurfaceDescriptor, d2: SurfaceDescriptor) -> str:
    """Compare two descriptors up to isomorphism.

    Applicable only when each surface carries at most one singularity of
    each type; a repeated type on either side yields the verdict
    ``hypothesis-not-met``.  Within scope, the surfaces are isomorphic
    exactly when their invariants coincide.
    """
    inv1, inv2 = descriptor_invariants(d1), descriptor_invariants(d2)
    if any(len(set(i.singularities)) < len(i.singularities) for i in (inv1, inv2)):
        return HYPOTHESIS_NOT_MET
    return ISOMORPHIC if inv1 == inv2 else NOT_ISOMORPHIC


def descriptor_to_json(d: SurfaceDescriptor) -> dict:
    recs = []
    for rec in d.records:
        item: dict = {"parent": rec.parent, "order": rec.order}
        if rec.center is not None:
            item["center"] = jet_to_json(rec.center)
        recs.append(item)
    return {"base": d.base, "records": recs}


def descriptor_from_json(data: dict) -> SurfaceDescriptor:
    recs = []
    for item in json_list(json_field(data, "records", "descriptor"), "records"):
        parent, order = (json_field(item, k, "blow-up record") for k in ("parent", "order"))
        center = jet_from_json(item["center"]) if "center" in item else None
        recs.append(BlowupRecord(parent, order, center))
    return SurfaceDescriptor(json_field(data, "base", "descriptor"), tuple(recs))
