"""Points, curvilinear jets, canonical graph forms, standard configurations."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (noncanonical_sphere_jet_json, rand_fraction,
                      rand_sphere_jet, rand_torus_jet)
from oracles import read_back, s_inv, s_mul, s_sqrt
from jetmove.errors import InvalidInput, PreconditionFailed
from jetmove.exactalg import (ONE, ZERO, Poly, Series, compose_centered,
                              hensel_sqrt, poly_to_series, scal,
                              scalar_sqrt_adjoin)
from jetmove.surfaces import (MAX_JET_ORDER, Jet, ProjPoint, SphereParam,
                              SpherePoint, TorusParam, TorusPoint, coinciding_points,
                              equator_point,
                              jet_from_json, jet_from_sphere_param,
                              jet_from_torus_param, jet_is_vertical,
                              jet_parametrize, jet_tangent_vector, jet_to_json,
                              point_from_json, point_to_json,
                              sphere_point_stereo, sphere_standard_center,
                              standard_config, torus_standard_center,
                              _reparametrize)


def test_projective_point_charts():
    inf, five = ProjPoint.infinity(), ProjPoint.affine(5)
    assert (inf.chart, inf.local) == (1, ZERO)
    assert (five.chart, five.local) == (0, scal(5))
    assert ProjPoint.in_chart(1, ZERO) == inf
    assert ProjPoint.in_chart(0, scal(5)) == five


def test_projective_point_canonical():
    assert ProjPoint.affine(Fraction(3, 4)) == ProjPoint(scal(3), scal(4))
    assert ProjPoint.infinity() == ProjPoint(scal(5), ZERO)
    assert ProjPoint.infinity().is_infinite
    assert not ProjPoint.affine(2).is_infinite
    with pytest.raises(PreconditionFailed):
        ProjPoint(ZERO, ZERO)


def test_sphere_point_must_be_unit():
    SpherePoint.of(Fraction(3, 5), Fraction(4, 5), 0)
    with pytest.raises(PreconditionFailed):
        SpherePoint.of(1, 1, 0)


def test_stereographic_points_are_exact():
    p = sphere_point_stereo(scal(1), scal(2))
    x, y, z = p.coords()
    assert x * x + y * y + z * z == 1
    assert equator_point(2) == SpherePoint.of(Fraction(-3, 5), Fraction(4, 5), 0)
    assert equator_point(0) == SpherePoint.of(1, 0, 0)


def test_standard_centers():
    assert torus_standard_center(1) == TorusPoint.affine(1, 0)
    assert torus_standard_center(3) == TorusPoint.affine(3, 0)
    assert sphere_standard_center(1) == equator_point(2)
    got = [sphere_standard_center(i) for i in (1, 2, 3)]
    assert len({str(p) for p in got}) == 3


def test_standard_config_shapes():
    cfg = standard_config("torus", [2, 1])
    assert [j.order for j in cfg.jets] == [2, 1]
    assert cfg.jets[0].center == torus_standard_center(1)
    assert list(cfg.jets[0].graphs[0].coeffs) == [ZERO, ZERO]

    scfg = standard_config("sphere", [3])
    j = scfg.jets[0]
    assert j.center == sphere_standard_center(1)
    assert j.var == "x"
    g, h = j.graphs
    assert h.is_zero()
    u = poly_to_series(Poly([1, 0, -1]), j.center.x, 3)
    assert g * g == u


def test_torus_jet_builder_validates():
    with pytest.raises(PreconditionFailed):
        Jet.torus(TorusPoint.affine(1, 0), 2, Series(ZERO, 2, [5, 0]))
    with pytest.raises(PreconditionFailed):
        Jet.torus(TorusPoint.affine(1, 0), 2, Series(ONE, 3, [ZERO, ONE, ONE]))


def test_sphere_jet_builder_validates():
    c = equator_point(1)
    u = poly_to_series(Poly([1, 0, -1]), c.x, 2)
    g = hensel_sqrt(u, c.y)
    h = Series(c.x, 2, [ZERO, ZERO])
    Jet.sphere(c, 2, g, h)
    with pytest.raises(PreconditionFailed):
        Jet.sphere(c, 2, g + Series(c.x, 2, [0, 1]), h)


def test_parametrize_round_trip_torus(rng):
    for _ in range(40):
        e = rng.randint(1, 4)
        j = rand_torus_jet(rng, e)
        assert jet_from_torus_param(jet_parametrize(j), e) == j


def test_parametrize_round_trip_sphere(rng):
    for _ in range(25):
        e = rng.randint(2, 4)
        j = rand_sphere_jet(rng, e)
        assert jet_from_sphere_param(jet_parametrize(j), e) == j


def test_param_read_back_keeps_the_series_order():
    # padding the order-3 series to order 5 would make up coefficients:
    # the "jet" would leave the sphere
    sphere = standard_config("sphere", [3]).jets[0]
    torus = standard_config("torus", [3]).jets[0]
    with pytest.raises(ValueError, match="differs from the parameter order"):
        jet_from_sphere_param(jet_parametrize(sphere), 5)
    with pytest.raises(ValueError, match="differs from the parameter order"):
        jet_from_torus_param(jet_parametrize(torus), 5)
    assert jet_from_sphere_param(jet_parametrize(sphere), 3) == sphere


def test_tangent_vectors():
    j = Jet.torus(TorusPoint.affine(0, 0), 2, Series(ZERO, 2, [ZERO, scal(3)]))
    assert jet_tangent_vector(j) == (ONE, scal(3))
    tr = Jet.torus(TorusPoint.affine(0, 0), 2, Series(ZERO, 2, [ZERO, ZERO]),
                   transposed=True)
    assert jet_tangent_vector(tr) == (ZERO, ONE)
    assert jet_tangent_vector(standard_config("torus", [1]).jets[0]) == (ZERO, ZERO)

    s = standard_config("sphere", [2]).jets[0]
    assert jet_tangent_vector(s) == (ONE, scal(Fraction(3, 4)), ZERO)


def test_verticality():
    vert = Jet.torus(TorusPoint.affine(1, 0), 2, Series(ZERO, 2, [ONE, ZERO]),
                     transposed=True)
    assert jet_is_vertical(vert)
    assert not jet_is_vertical(standard_config("torus", [2]).jets[0])
    assert not jet_is_vertical(standard_config("sphere", [2]).jets[0])
    off = sphere_point_stereo(scal(1), scal(1))
    u = poly_to_series(Poly([1, 0, -1]), off.x, 2)
    g2 = hensel_sqrt(u - Series(off.x, 2, [off.z, ZERO]) ** 2, off.y)
    joff = Jet.sphere(off, 2, g2, Series(off.x, 2, [off.z, ZERO]))
    with pytest.raises(PreconditionFailed,
                       match=r"^verticality needs a center on the equator z = 0$"):
        jet_is_vertical(joff)


def test_distance_checks():
    a = standard_config("torus", [1, 1]).jets
    assert coinciding_points([j.center for j in a]) is None
    twin = (a[0], a[0])
    assert coinciding_points([j.center for j in twin]) == (0, 1)


def _pairwise_first(points):
    """The oracle: the first equal pair (i, j) of a pairwise scan."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                return i, j
    return None


_R2, _R8 = scalar_sqrt_adjoin(2), scalar_sqrt_adjoin(8)

# coordinates whose equal values come in different shapes: 2 : 4 and
# 1/2 : 1, two spellings of infinity, and 1 + sqrt(8)/2 = 1 + sqrt(2)
# over two chains; the rest differ from all of them
_PROJ_POOL = [ProjPoint(2, 4), ProjPoint(Fraction(1, 2), 1), ProjPoint.infinity(),
              ProjPoint(3, 0), ProjPoint.affine(1 + _R8 / 2), ProjPoint.affine(1 + _R2),
              ProjPoint.affine(0), ProjPoint.affine(-1), ProjPoint.affine(_R2)]

# sphere points: one Q(sqrt 2) point over both chains, one rational point
# spelled 3/5 and 6/10, and points differing from all of them
_SPHERE_POOL = [SpherePoint(_R2 / 2, _R2 / 2, ZERO), SpherePoint(_R8 / 4, _R8 / 4, ZERO),
                SpherePoint(ONE, ZERO, ZERO), SpherePoint.of(Fraction(3, 5), 0, Fraction(4, 5)),
                SpherePoint.of(Fraction(6, 10), 0, Fraction(8, 10)),
                SpherePoint(_R2 / 2, ZERO, -_R2 / 2), sphere_point_stereo(1, 2)]

_torus_points = st.lists(st.tuples(st.sampled_from(_PROJ_POOL), st.sampled_from(_PROJ_POOL))
                         .map(lambda xy: TorusPoint(*xy)), max_size=8)
_sphere_points = st.lists(st.sampled_from(_SPHERE_POOL), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_torus_points | _sphere_points)
@example([TorusPoint(p, p) for p in (ProjPoint(1, 0), ProjPoint.affine(1 + _R2),
                                     ProjPoint.affine(1 + _R8 / 2), ProjPoint(5, 0))])
@example([TorusPoint(ProjPoint(2, 4), ProjPoint.affine(1)),
          TorusPoint(ProjPoint.affine(Fraction(1, 2)), ProjPoint(7, 7))])
def test_coinciding_points_finds_the_pairwise_scans_pair(points):
    # the first pair of the pairwise scan, also when a later value repeats
    # first (A B B A gives (0, 3), not (1, 2)), rational rows by their int
    # pairs and tower rows by value
    want = _pairwise_first(points)
    assert coinciding_points(points) == want
    jets = [Jet.torus(p, 1, Series(p.x.local, 1, [p.y.local])) if isinstance(p, TorusPoint)
            else Jet.sphere(p, 1, Series(p.x, 1, [p.y]), Series(p.x, 1, [p.z]))
            for p in points]
    assert coinciding_points([j.center for j in jets]) == want


def test_partition():
    # the orders are kept in the given positional order
    assert [j.order for j in standard_config("torus", [2, 1, 1]).jets] == [2, 1, 1]
    for surface in ("torus", "sphere"):
        with pytest.raises(PreconditionFailed):
            standard_config(surface, [0, 1])
        with pytest.raises(PreconditionFailed):
            standard_config(surface, [2, -1])


def test_point_json_round_trip():
    pts = [TorusPoint.affine(Fraction(1, 2), -3),
           TorusPoint(ProjPoint.infinity(), ProjPoint.affine(5)),
           equator_point(7)]
    for p in pts:
        surface = "torus" if isinstance(p, TorusPoint) else "sphere"
        assert point_from_json(surface, point_to_json(p)) == p


def test_jet_json_round_trip(rng):
    jets = [standard_config("torus", [3]).jets[0],
            standard_config("sphere", [2]).jets[0],
            Jet.torus(TorusPoint.affine(1, 0), 2, Series(ZERO, 2, [ONE, ZERO]),
                      transposed=True),
            Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.infinity()), 1,
                      Series(ZERO, 1, [ZERO]))]
    for j in jets:
        assert jet_from_json(jet_to_json(j)) == j


_q = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_nonzero = _q.filter(lambda c: c != 0)


@st.composite
def _forms(draw):
    """(charts, coords, driver): a parameter form of order 1 to 4 as
    Fraction lists, the local coordinates in x, y(, z) order, whose first
    coordinate with a linear term is ``driver`` (0 at order 1).  charts
    is the torus (x, y) chart pair, chart 1 with local value 0, or None
    on the sphere, where the curve is a tangent line pushed radially onto
    the sphere, which keeps the linear terms."""
    e = draw(st.integers(1, 4))
    tail = lambda: [draw(_q) for _ in range(e - 2)]
    if draw(st.booleans()):
        charts = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        driver = draw(st.integers(0, 1)) if e > 1 else 0
        slopes = [Fraction(0)] * driver + [draw(_nonzero), draw(_q)][:2 - driver]
        coords = [([Fraction(0) if c else draw(_q), m] + tail())[:e]
                  for c, m in zip(charts, slopes)]
        return charts, coords, driver
    driver = draw(st.integers(0, 2)) if e > 1 else 0
    if driver == 2:
        t = draw(_q)
        p, v = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), Fraction(0)), (0, 0, 1)
    else:
        u, w = draw(_q), draw(_q)
        d = u * u + w * w + 1
        p = (2 * u / d, 2 * w / d, (u * u + w * w - 1) / d)
        if driver == 1:
            v = (0, p[2], -p[1])
        else:
            q = [draw(_q) for _ in range(3)]
            v = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                 p[0] * q[1] - p[1] * q[0])
        assume(v[driver] != 0)
    lam = draw(_nonzero)
    line = [([c, lam * m] + tail())[:e] for c, m in zip(p, v)]
    norm2 = [sum(col) for col in zip(*(s_mul(c, c) for c in line))]
    inv = s_inv(s_sqrt(norm2, Fraction(1)))
    return None, [s_mul(c, inv) for c in line], driver


def _read(charts, coords):
    """The package's read-back of the form."""
    e = len(coords[0])
    local = [Series(ZERO, e, [scal(c) for c in cs]) for cs in coords]
    if charts is None:
        return jet_from_sphere_param(SphereParam(*local), e)
    return jet_from_torus_param(TorusParam(*zip(charts, local)), e)


# a sphere jet over z and one over y, and a vertical torus jet at (inf, inf)
_drivers_seldom_drawn = [
    (None, [[1, 0, Fraction(-1, 2)], [0, 0, 0], [0, 1, 0]], 2),
    (None, [[0, 0, 0], [0, 1, 0], [1, 0, Fraction(-1, 2)]], 1),
    ((1, 1), [[0, 0, 2], [0, 3, 1]], 1),
]


def _with_examples(test):
    for form in _drivers_seldom_drawn:
        test = example(form)(test)
    return test


@settings(max_examples=80, deadline=None)
@_with_examples
@given(_forms())
def test_read_back_matches_the_oracle(form):
    # both surfaces, orders 1 to 4, every driver, torus charts 0 and 1:
    # the graphs of the package's read-back are the oracle's composition
    # with the inverted driver, with no triangular peel
    charts, coords, driver = form
    j = _read(charts, coords)
    got, graphs = read_back(coords)
    assert got == driver and j.var == "xyz"[driver]
    assert all(g.center == scal(coords[driver][0]) for g in j.graphs)
    assert [[c.as_fraction() for c in g.coeffs] for g in j.graphs] == graphs


@settings(max_examples=60, deadline=None)
@_with_examples
@given(_forms())
def test_every_canonical_var_round_trips_and_every_other_is_refused(form):
    # torus x and y (over infinity too) and sphere x, y and z round-trip
    # through JSON and the parameter form; the same jet stored over any
    # other coordinate it is a graph over is refused by the builders and
    # by jet_from_json, through the one canonical rule
    charts, coords, driver = form
    j, e = _read(charts, coords), len(coords[0])
    assert jet_from_json(jet_to_json(j)) == j
    read = jet_from_torus_param if charts else jet_from_sphere_param
    assert read(jet_parametrize(j), e) == j
    for k, var in enumerate("xy" if charts else "xyz"):
        if k == driver or (e > 1 and coords[k][1] == 0):
            continue
        graphs = read_back(coords, k)[1]
        msg = f"canonical chart is {'xyz'[driver]}, stored {var}"
        series = [Series(scal(coords[k][0]), e, [scal(c) for c in g]) for g in graphs]
        d = jet_to_json(j)
        with pytest.raises(PreconditionFailed, match=msg):
            if charts:
                Jet.torus(j.center, e, *series, transposed=True)
            else:
                Jet.sphere(j.center, e, *series, chart=var)
        if charts:
            d["chart"]["transposed"], d["graph"] = True, {"f": [str(c) for c in graphs[0]]}
        else:
            d["chart"], d["graph"] = var, {n: [str(c) for c in g] for n, g in zip("gh", graphs)}
        with pytest.raises(PreconditionFailed, match=msg):
            jet_from_json(d)


def test_non_curvilinear_param_rejected():
    from jetmove.surfaces import TorusParam
    flat = Series(ZERO, 2, [ONE, ZERO])
    with pytest.raises(PreconditionFailed, match=r"^parametrization is not an embedding$"):
        jet_from_torus_param(TorusParam((0, flat), (0, flat)), 2)


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_reparametrize_undoes_composition(e, data):
    # f = _reparametrize(driver, [o], e) is o re-expressed in
    # driver - driver(0), so substituting the driver back gives o
    row = lambda: [scal(c) for c in data.draw(st.lists(_small, min_size=e,
                                                       max_size=e))]
    lead = scal(data.draw(_small.filter(lambda c: c != 0)))
    driver = Series(ZERO, e, [*row()[:1], lead, *row()[2:]])
    others = [Series(ZERO, e, row()) for _ in range(2)]
    for f, o in zip(_reparametrize(driver, others, e), others):
        assert (f.center, f.order) == (driver.value(), e)
        assert compose_centered(f, driver) == o


def test_torus_chart_tags_must_match_center():
    good = jet_to_json(Jet.torus(TorusPoint.affine(5, 7), 2,
                                 Series(scal(5), 2, [7, 2])))
    for tag in (1, 7):
        bad = dict(good, chart=dict(good["chart"], x=tag))
        with pytest.raises(PreconditionFailed, match="chart tags"):
            jet_from_json(bad)


def test_torus_chart_fields_must_be_json_typed():
    # a horizontal order-2 jet at (5, 5): "transposed": "false" must not
    # load it as the vertical jet x = 5
    good = jet_to_json(Jet.torus(TorusPoint.affine(5, 5), 2,
                                 Series(scal(5), 2, [5, 0])))
    assert jet_from_json(good).var == "x"
    for tag in (0.5, "0", False, None):
        bad = dict(good, chart=dict(good["chart"], x=tag))
        with pytest.raises(PreconditionFailed, match="chart tags"):
            jet_from_json(bad)
    for flag in ("false", "true", 0, None):
        bad = dict(good, chart=dict(good["chart"], transposed=flag))
        with pytest.raises(PreconditionFailed, match="transposed"):
            jet_from_json(bad)


def test_sphere_jet_in_noncanonical_chart_refused():
    # an order-1 jet reads back in chart x, so chart y is refused for it too
    for order in (2, 1):
        d = noncanonical_sphere_jet_json(order)
        with pytest.raises(PreconditionFailed, match="canonical chart is x, stored y"):
            jet_from_json(d)
        std = standard_config("sphere", [order]).jets[0]
        assert jet_from_json(jet_to_json(std)) == std


@pytest.mark.parametrize("surface, key, coeffs", [
    ("torus", "f", ["7"]),            # would load as 7, 0, 0
    ("torus", "f", ["7", "0", "0", "0"]),
    ("sphere", "g", ["0"]),
    ("sphere", "h", []),
])
def test_graph_list_of_wrong_length_refused(monkeypatch, surface, key, coeffs):
    d = jet_to_json(standard_config(surface, [3]).jets[0])
    d["graph"][key] = coeffs

    def no_series(*args, **kwargs):
        raise AssertionError("a series was allocated")

    monkeypatch.setattr(Series, "__init__", no_series)
    with pytest.raises(InvalidInput, match=f"graph {key} must hold 3 entries"):
        jet_from_json(d)


@pytest.mark.parametrize("order", [0, MAX_JET_ORDER + 1, 10 ** 9, "3", True, 2.7])
def test_jet_order_refused_before_any_series(monkeypatch, order):
    d = jet_to_json(standard_config("torus", [1]).jets[0])
    d["order"] = order

    def no_series(*args, **kwargs):
        raise AssertionError("a series was allocated")

    monkeypatch.setattr(Series, "__init__", no_series)
    with pytest.raises(PreconditionFailed, match="jet order"):
        jet_from_json(d)


def test_jet_order_limit_is_inclusive():
    d = jet_to_json(standard_config("torus", [MAX_JET_ORDER]).jets[0])
    assert jet_from_json(d).order == MAX_JET_ORDER
