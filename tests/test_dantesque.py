"""Blow-up descriptors: invariants, normalization, and the isomorphism test."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import euler_resolve_then_contract

from jetmove.dantesque import (
    BASE,
    BlowupRecord,
    HYPOTHESIS_NOT_MET,
    ISOMORPHIC,
    KLEIN,
    NOT_ISOMORPHIC,
    SPHERE,
    SurfaceDescriptor,
    TORUS,
    descriptor_from_json,
    descriptor_invariants,
    descriptor_normalize,
    descriptor_to_json,
    isomorphism_decide,
    singularity_name,
)
from jetmove.errors import PreconditionFailed
from jetmove.surfaces import standard_config


def desc(base, *orders_and_parents):
    recs = tuple(BlowupRecord(p, e) for p, e in orders_and_parents)
    return SurfaceDescriptor(base, recs)


# ---------------------------------------------------------------------------
# construction guards


def test_record_validation():
    with pytest.raises(PreconditionFailed):
        BlowupRecord(BASE, 0)
    with pytest.raises(PreconditionFailed):
        BlowupRecord(True, 1)
    with pytest.raises(PreconditionFailed):
        BlowupRecord(BASE, True)
    with pytest.raises(PreconditionFailed):
        SurfaceDescriptor("plane")


def test_forest_rejects_forward_reference():
    with pytest.raises(PreconditionFailed,
                       match=r"^record 0 refers to 1, not an earlier record$"):
        desc(SPHERE, (1, 1), (BASE, 1))
    with pytest.raises(PreconditionFailed,
                       match=r"^record 0 refers to 0, not an earlier record$"):
        desc(SPHERE, (0, 1))


def test_forest_rejects_duplicate_centers():
    j = standard_config(SPHERE, [1, 1]).jets[0]
    with pytest.raises(PreconditionFailed, match=r"^two base records share a center point$"):
        SurfaceDescriptor(SPHERE, (BlowupRecord(BASE, 1, j),
                                   BlowupRecord(BASE, 1, j)))


@pytest.mark.parametrize("records", [
    ((3, 2),),                      # a parent that does not exist
    ((BASE, 1), (1, 2)),            # a parent equal to its own index
    ((BASE, 1), (-1, 2)),           # a negative parent
], ids=["dangling", "self", "negative"])
def test_bad_parent_refused_when_built(records):
    with pytest.raises(PreconditionFailed,
                       match=r"^record [01] refers to (3|1|-1), not an earlier record$"):
        desc(SPHERE, *records)


def test_base_records_at_one_center_refused_when_built():
    # two different jets, orders 1 and 2, at the same center point
    a = standard_config(SPHERE, [1, 2]).jets[0]
    b = standard_config(SPHERE, [2, 1]).jets[0]
    assert a != b and a.center == b.center
    with pytest.raises(PreconditionFailed, match=r"^two base records share a center point$"):
        SurfaceDescriptor(SPHERE, (BlowupRecord(BASE, 1, a),
                                   BlowupRecord(BASE, 2, b)))
    # a record on an exceptional locus may reuse the center
    d = SurfaceDescriptor(SPHERE, (BlowupRecord(BASE, 1, a),
                                   BlowupRecord(0, 2, b)))
    assert descriptor_from_json(descriptor_to_json(d)) == d


def test_descriptor_faults_raise_in_order():
    # base, then every record's surface, then every parent, then centers
    s = standard_config(SPHERE, [1]).jets[0]
    t = standard_config(TORUS, [1]).jets[0]
    twice = (BlowupRecord(BASE, 1, s), BlowupRecord(BASE, 1, s))
    with pytest.raises(PreconditionFailed, match="unknown base"):
        SurfaceDescriptor("plane", (BlowupRecord(5, 1, t),))
    with pytest.raises(PreconditionFailed, match="different surface"):
        SurfaceDescriptor(SPHERE, (*twice, BlowupRecord(9, 1),
                                   BlowupRecord(BASE, 1, t)))
    with pytest.raises(PreconditionFailed,
                       match=r"^record 2 refers to 9, not an earlier record$"):
        SurfaceDescriptor(SPHERE, (*twice, BlowupRecord(9, 1)))
    with pytest.raises(PreconditionFailed, match=r"^two base records share a center point$"):
        SurfaceDescriptor(SPHERE, twice)


_CENTERS = (None, *standard_config(SPHERE, [1, 2]).jets,
            *standard_config(SPHERE, [2, 1]).jets,
            *standard_config(TORUS, [1, 2]).jets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((SPHERE, TORUS, KLEIN)), st.data())
def test_built_descriptors_read_back(base, data):
    n = data.draw(st.integers(0, 4))
    parents = st.one_of(st.just(BASE), st.integers(-2, n + 1))
    recs = [BlowupRecord(data.draw(parents), data.draw(st.integers(1, 3)),
                         data.draw(st.sampled_from(_CENTERS)))
            for _ in range(n)]
    try:
        d = SurfaceDescriptor(base, tuple(recs))
    except PreconditionFailed:
        return
    back = descriptor_from_json(json.loads(json.dumps(descriptor_to_json(d))))
    assert back == d
    assert descriptor_invariants(back) == descriptor_invariants(d)


# ---------------------------------------------------------------------------
# invariants


def test_bare_bases():
    assert descriptor_invariants(desc(SPHERE)) == \
        descriptor_invariants(desc(SPHERE))
    i = descriptor_invariants(desc(SPHERE))
    assert (i.euler, i.orientable, i.genus, i.singularities) == (2, True, 0, ())
    i = descriptor_invariants(desc(TORUS))
    assert (i.euler, i.orientable, i.genus, i.singularities) == (0, True, 1, ())
    i = descriptor_invariants(desc(KLEIN))
    assert (i.euler, i.orientable, i.genus, i.singularities) == (0, False, 2, ())


def test_each_record_drops_euler_by_one():
    i = descriptor_invariants(desc(SPHERE, (BASE, 1), (BASE, 4), (1, 2)))
    assert i.euler == -1
    assert not i.orientable
    assert i.genus == 7
    assert i.singularities == (4, 2)


def test_torus_base_shifts_genus():
    i = descriptor_invariants(desc(TORUS, (BASE, 2)))
    assert (i.euler, i.orientable, i.genus, i.singularities) == \
        (-1, False, 4, (2,))


def test_singularity_names():
    assert singularity_name(2) == "A1-"
    assert singularity_name(5) == "A4-"


def test_euler_matches_resolve_then_contract():
    for base, chi in ((SPHERE, 2), (TORUS, 0), (KLEIN, 0)):
        for orders in ([], [1], [2], [3, 1], [5, 4, 2], [2, 2, 2, 1]):
            d = desc(base, *((BASE, e) for e in orders))
            assert descriptor_invariants(d).euler == \
                euler_resolve_then_contract(chi, orders)


# ---------------------------------------------------------------------------
# normalization


def rand_descriptor(rng, max_records=5):
    base = rng.choice((SPHERE, TORUS, KLEIN))
    recs = []
    for i in range(rng.randint(0, max_records)):
        parent = BASE if i == 0 or rng.random() < 0.6 else rng.randrange(i)
        recs.append(BlowupRecord(parent, rng.randint(1, 5)))
    return SurfaceDescriptor(base, tuple(recs))


def test_normalize_returns_flat_input_unchanged():
    d = desc(SPHERE, (BASE, 2), (BASE, 1))
    assert descriptor_normalize(d) is d
    bare_torus = desc(TORUS)
    assert descriptor_normalize(bare_torus) is bare_torus


def test_normalize_bare_klein():
    out = descriptor_normalize(desc(KLEIN))
    assert out.base == SPHERE
    assert [r.order for r in out.records] == [1, 1]
    assert descriptor_invariants(out) == descriptor_invariants(desc(KLEIN))


def test_normalize_tower_example():
    d = desc(TORUS, (BASE, 2))
    out = descriptor_normalize(d)
    assert out.base == SPHERE
    assert all(r.parent == BASE for r in out.records)
    assert [r.order for r in out.records] == [2, 1, 1]
    assert descriptor_invariants(out) == descriptor_invariants(d)


def test_normalize_properties(rng):
    for _ in range(120):
        d = rand_descriptor(rng)
        out = descriptor_normalize(d)
        assert descriptor_invariants(out) == descriptor_invariants(d)
        assert all(r.parent == BASE for r in out.records)
        assert out.base in (SPHERE, TORUS)
        # records at standard positions carry explicit distinct centers
        assert len({id(r) for r in out.records}) == len(out.records)
        assert descriptor_normalize(out) is out


def test_normalize_orders_are_sorted(rng):
    d = desc(SPHERE, (BASE, 1), (0, 3), (BASE, 2), (2, 5))
    out = descriptor_normalize(d)
    kept = [r.order for r in out.records if r.order >= 2]
    assert kept == sorted(kept, reverse=True)


# ---------------------------------------------------------------------------
# the isomorphism test


def test_decide_isomorphic_pairs():
    d1 = desc(SPHERE, (BASE, 3), (BASE, 1))
    d2 = desc(SPHERE, (BASE, 1), (BASE, 3))
    assert isomorphism_decide(d1, d2) == ISOMORPHIC


def test_decide_detects_difference():
    assert isomorphism_decide(desc(SPHERE, (BASE, 2)),
                              desc(SPHERE, (BASE, 3))) == NOT_ISOMORPHIC
    assert isomorphism_decide(desc(SPHERE), desc(TORUS)) == NOT_ISOMORPHIC


def test_decide_hypothesis_precedes_comparison():
    d = desc(SPHERE, (BASE, 2), (BASE, 2))
    assert isomorphism_decide(d, d) == HYPOTHESIS_NOT_MET
    ok = desc(SPHERE, (BASE, 2))
    assert isomorphism_decide(ok, d) == HYPOTHESIS_NOT_MET
    assert isomorphism_decide(d, ok) == HYPOTHESIS_NOT_MET


def test_decide_reflexive_and_symmetric_in_scope(rng):
    for _ in range(60):
        d1, d2 = rand_descriptor(rng), rand_descriptor(rng)
        v12 = isomorphism_decide(d1, d2)
        assert v12 == isomorphism_decide(d2, d1)
        v11 = isomorphism_decide(d1, d1)
        assert v11 in (ISOMORPHIC, HYPOTHESIS_NOT_MET)
        if v11 == ISOMORPHIC:
            # within scope, normalization does not change the verdict
            assert isomorphism_decide(descriptor_normalize(d1), d1) == ISOMORPHIC


def test_decide_matches_invariant_equality(rng):
    for _ in range(60):
        d1, d2 = rand_descriptor(rng), rand_descriptor(rng)
        v = isomorphism_decide(d1, d2)
        if v == HYPOTHESIS_NOT_MET:
            continue
        same = descriptor_invariants(d1) == descriptor_invariants(d2)
        assert v == (ISOMORPHIC if same else NOT_ISOMORPHIC)


# ---------------------------------------------------------------------------
# serialization


def test_descriptor_json_round_trip():
    d = desc(TORUS, (BASE, 2), (0, 1), (BASE, 3))
    back = descriptor_from_json(descriptor_to_json(d))
    assert back == d


def test_descriptor_json_keeps_centers():
    d = descriptor_normalize(desc(KLEIN))
    back = descriptor_from_json(descriptor_to_json(d))
    assert back == d
    assert all(r.center is not None for r in back.records)


def test_descriptor_json_validates():
    with pytest.raises(PreconditionFailed,
                       match=r"^record 0 refers to 3, not an earlier record$"):
        descriptor_from_json({"base": SPHERE,
                              "records": [{"parent": 3, "order": 1}]})
