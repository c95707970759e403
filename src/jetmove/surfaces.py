"""Points and curvilinear jets on the real torus P1 x P1 and the sphere S2.

A curvilinear jet of order e is a closed subscheme isomorphic to
Spec R[t]/(t^e) supported at one real point, and locally a graph over
one coordinate.  A Jet stores its center, that coordinate ``var`` and
``graphs``: the other coordinates as series of order e in var, centered
at the center's value of var, in the cyclic order after var
(coordinate_order: x, y on the torus, x, y, z on the sphere).  Over x
the torus ideal is ((x - a)^e, y - f(x)) and the sphere ideal
((x - x0)^e, y - g(x), z - h(x)), where x^2 + g^2 + h^2 = 1 holds
exactly mod (x - x0)^e.

One rule makes the form canonical on both surfaces: var is the first of
x, y(, z) whose tangent component is nonzero, and x at order 1.  A torus
coordinate is read on the chart its ProjPoint fixes (finite values on
chart 0, infinity on chart 1 at local value 0), so every jet, including
those over infinity, has exactly one stored form and equality is
structural.  Points, jets and parameter forms are frozen records
(values.Value), a ProjPoint included.  coinciding_points is the one
test of distinct points: the synthesis configuration check and the
descriptor constructor run it on jet centers.

Internally jets convert to and from a one-parameter description, the
coordinates as truncated series in a local parameter t: TorusParam keeps
each torus coordinate as a (chart, local series) pair and SphereParam
keeps x, y, z.  This is the one form the automorphism layer transports,
and one read-back turns it into a jet on either surface.
"""

from __future__ import annotations

from .errors import InvalidInput, PreconditionFailed
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, hensel_sqrt,
                       parse_scalar, poly_to_series, repeats, scal,
                       scalar_to_json)
from .values import Value

TORUS = "torus"
SPHERE = "sphere"

# largest order a jet file may ask for; loading allocates series that long
MAX_JET_ORDER = 64


# ---------------------------------------------------------------------------
# points


class ProjPoint(Value):
    """A point of P1(R), canonically (value, 1) for finite or (1, 0).

    The chart rule lives here: a finite point sits on chart 0 at its
    value, infinity on chart 1 at local value 0.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = scal(u), scal(v)
        if not v.is_zero():
            u, v = u / v, ONE
        elif not u.is_zero():
            u, v = ONE, ZERO
        else:
            raise PreconditionFailed("(0 : 0) is not a projective point")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @staticmethod
    def affine(value) -> ProjPoint:
        pt = ProjPoint.__new__(ProjPoint)
        object.__setattr__(pt, "u", scal(value))
        object.__setattr__(pt, "v", ONE)
        return pt

    @staticmethod
    def infinity() -> ProjPoint:
        return ProjPoint(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.v.is_zero()

    @property
    def value(self) -> Scalar:
        if self.is_infinite:
            raise ValueError("point at infinity has no affine value")
        return self.u

    @property
    def chart(self) -> int:
        return 1 if self.is_infinite else 0

    @property
    def local(self) -> Scalar:
        return ZERO if self.is_infinite else self.u

    @staticmethod
    def in_chart(chart: int, value) -> ProjPoint:
        """The point at local ``value`` on ``chart`` (0 on chart 1)."""
        return ProjPoint.infinity() if chart else ProjPoint.affine(value)

    def __str__(self):
        return "inf" if self.is_infinite else str(self.u)

    def __repr__(self):
        return f"ProjPoint({self})"


class TorusPoint(Value):
    __slots__ = ("x", "y")

    def __init__(self, x: ProjPoint, y: ProjPoint):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @staticmethod
    def affine(x, y) -> TorusPoint:
        return TorusPoint(ProjPoint.affine(x), ProjPoint.affine(y))

    def __str__(self):
        return f"({self.x}, {self.y})"


class SpherePoint(Value):
    __slots__ = ("x", "y", "z")

    def __init__(self, x: Scalar, y: Scalar, z: Scalar):
        if not (x * x + y * y + z * z == ONE):
            raise PreconditionFailed("point is not on the unit sphere")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def of(x, y, z) -> SpherePoint:
        return SpherePoint(scal(x), scal(y), scal(z))

    def coords(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.x, self.y, self.z)

    def __str__(self):
        return f"({self.x}, {self.y}, {self.z})"


def sphere_point_stereo(u, v) -> SpherePoint:
    """Rational point from stereographic parameters (never the north pole).

    Public API with no caller inside the package: the benchmark's job
    generator and the tests draw random rational sphere points with it.
    """
    u, v = scal(u), scal(v)
    d = u * u + v * v + 1
    return SpherePoint.of((u + u) / d, (v + v) / d, (u * u + v * v - 1) / d)


def equator_point(t) -> SpherePoint:
    """Equator point with tangent-half-angle t: ((1-t^2)/(1+t^2), 2t/(1+t^2), 0)."""
    t = scal(t)
    d = ONE + t * t
    return SpherePoint.of((ONE - t * t) / d, (t + t) / d, ZERO)


# ---------------------------------------------------------------------------
# jets


# coordinate_order of each var, which the transport also reads
TORUS_CHARTS = {"x": "xy", "y": "yx"}
SPHERE_CHARTS = {"x": "xyz", "y": "yzx", "z": "zxy"}


def coordinate_order(surface: str, var) -> str:
    """The surface's coordinates, "xy" or "xyz", rotated to start at
    ``var``; a coordinate the surface lacks is refused."""
    charts = TORUS_CHARTS if surface == TORUS else SPHERE_CHARTS
    if isinstance(var, str) and var in charts:
        return charts[var]
    raise PreconditionFailed(f"{surface} chart must be one of {', '.join(charts)}")


def _in_xyz_order(items: tuple, var: str) -> tuple:
    """``items``, one per coordinate in coordinate_order from ``var``,
    put back in x, y(, z) order."""
    k = len(items) - "xyz".index(var)
    return items[k:] + items[:k]


def _local(point: TorusPoint | SpherePoint, name: str) -> Scalar:
    """The point's coordinate ``name``: on the torus its local chart value."""
    c = getattr(point, name)
    return c.local if isinstance(c, ProjPoint) else c


class Jet(Value):
    """A curvilinear jet in canonical graph form; see the module docstring.

    ``var`` is the coordinate the jet is a graph over, and ``graphs`` the
    other coordinates in coordinate_order after it: (f,) on the torus and
    (g, h) on the sphere.  Surface and order follow from the center and
    the graphs.  Use the torus()/sphere() builders, which check the shape.
    """

    __slots__ = ("center", "var", "graphs")

    def __init__(self, center: TorusPoint | SpherePoint, var: str, graphs: tuple):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "graphs", graphs)

    @property
    def surface(self) -> str:
        return TORUS if isinstance(self.center, TorusPoint) else SPHERE

    @property
    def order(self) -> int:
        return self.graphs[0].order

    @staticmethod
    def torus(center: TorusPoint, order: int, f: Series, transposed: bool = False) -> Jet:
        """The graph f of y over x, or of x over y when ``transposed``."""
        return _checked(Jet(center, "y" if transposed else "x", (f,)), order)

    @staticmethod
    def sphere(center: SpherePoint, order: int, g: Series, h: Series,
               chart: str = "x") -> Jet:
        """The graphs g, h over ``chart`` of the coordinates after it."""
        return _checked(Jet(center, chart, (g, h)), order)


def _checked(j: Jet, order: int) -> Jet:
    """j, once its graphs have ``order``, are centered at the center's var
    value and take the center's other values there, it lies on the sphere
    to that order (sphere only), and var is canonical."""
    center, surface = j.center, j.surface
    names = coordinate_order(surface, j.var)
    v0 = _local(center, j.var)
    for name, g in zip(names[1:], j.graphs):
        if g.order != order:
            raise PreconditionFailed("graph order differs from jet order")
        if not g.center == v0:
            raise PreconditionFailed("graph series is centered at the wrong value")
        if not g.value() == _local(center, name):
            raise PreconditionFailed("graph value does not match the center point")
    if surface == SPHERE:
        g, h = j.graphs
        v = Series.variable(v0, order)
        if not (v * v + g * g + h * h == Series.constant(1, v0, order)):
            raise PreconditionFailed("jet does not lie on the sphere")
    # canonical var: the first coordinate that moves along the jet, and x
    # for an order-1 jet, which does not move; x always qualifies, as it
    # comes first and moves along any jet over it of order 2 or more
    if j.var != "x":
        comps = jet_tangent_vector(j)
        want = next((n for n, c in zip("xyz", comps) if not c.is_zero()), "x")
        if j.var != want:
            raise PreconditionFailed(f"canonical chart is {want}, stored {j.var}")
    return j


# ---------------------------------------------------------------------------
# parametrizations (internal exchange format for the automorphism layer)


class TorusParam(Value):
    """Coordinates along the jet as (chart, local series in t) pairs; an
    order-1 form may hold their values, as a point's form does.

    Charts follow ProjPoint: chart 1 only at infinity, local value 0.
    """
    __slots__ = ("x", "y")

    def __init__(self, x: tuple[int, Series | Scalar], y: tuple[int, Series | Scalar]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class SphereParam(Value):
    __slots__ = ("x", "y", "z")

    def __init__(self, x: Series | Scalar, y: Series | Scalar, z: Series | Scalar):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


def _recenter_zero(s: Series) -> Series:
    """s with its center relabelled 0: the polynomial in (x - center)
    is already one in the local parameter."""
    return Series._of(ZERO, s.order, s.poly)


def jet_parametrize(j: Jet) -> TorusParam | SphereParam:
    v = Series.variable(_local(j.center, j.var), j.order)
    coords = _in_xyz_order(tuple(map(_recenter_zero, (v, *j.graphs))), j.var)
    if j.surface == TORUS:
        return TorusParam((j.center.x.chart, coords[0]), (j.center.y.chart, coords[1]))
    return SphereParam(*coords)


def _value(c: Series | Scalar) -> Scalar:
    return c if isinstance(c, Scalar) else c.value()


def param_point(p: TorusParam | SphereParam) -> TorusPoint | SpherePoint:
    """The center of a parameter form, read off its values or constant terms."""
    if isinstance(p, TorusParam):
        (xc, x), (yc, y) = p.x, p.y
        return TorusPoint(ProjPoint.in_chart(xc, _value(x)), ProjPoint.in_chart(yc, _value(y)))
    return SpherePoint(_value(p.x), _value(p.y), _value(p.z))


def _reparametrize(driver: Series, others: list[Series], order: int) -> list[Series]:
    """Re-express ``others`` as order-``order`` series centered at
    driver(0), in the deviation s = driver - driver(0).

    The driver must have a nonzero t coefficient s_1 and order at least
    2; the caller checked that.  Then u = s / s_1 is t plus higher
    terms, so its powers u^k start at t^k with coefficient 1 and form a
    triangular basis: each coefficient of o = sum_k c_k u^k peels off in
    turn on Series arithmetic, and c_k / s_1^k is the coefficient of s^k.
    """
    inv = driver.poly[1].inverse()
    powers = []
    if order > 2:
        u = (driver - driver.value()) * inv
        powers.append(u)
        for _ in range(3, order):
            powers.append(powers[-1] * u)
    out = []
    for o in others:
        coeffs, rest, scale = [o.poly[0]], o, ONE
        for k in range(1, order):
            c = rest.poly[k]
            scale = scale * inv
            coeffs.append(c * scale)
            if k < order - 1 and not c.is_zero():
                rest = rest - powers[k - 1] * c
        out.append(Series(driver.value(), order, coeffs))
    return out


def point_jet(pt: TorusPoint | SpherePoint) -> Jet:
    """The order-1 jet at a point: a graph over x, which does not move."""
    x, *others = [_local(pt, n) for n in ("xy" if isinstance(pt, TorusPoint) else "xyz")]
    return Jet(pt, "x", tuple([Series(x, 1, [c]) for c in others]))


def _read_back(p: TorusParam | SphereParam, coords: tuple[Series, ...], order: int) -> Jet:
    """The canonical jet along p, whose local coordinates, in x, y(, z)
    order, are ``coords``: a graph over the first coordinate that moves
    with t, or at order 1, where nothing moves, the jet at p's point."""
    if order != coords[0].order:
        raise ValueError(f"order {order} differs from the parameter order {coords[0].order}")
    if order == 1:
        return point_jet(param_point(p))
    for i, driver in enumerate(coords):
        if not driver.poly[1].is_zero():
            others = coords[i + 1:] + coords[:i]
            return Jet(param_point(p), "xyz"[i],
                       tuple(_reparametrize(driver, others, order)))
    raise PreconditionFailed("parametrization is not an embedding")


def jet_from_torus_param(p: TorusParam, order: int) -> Jet:
    """The jet along p, whose series fix its order (see _read_back)."""
    return _read_back(p, (p.x[1], p.y[1]), order)


def jet_from_sphere_param(p: SphereParam, order: int) -> Jet:
    """As jet_from_torus_param, on the sphere."""
    return _read_back(p, (p.x, p.y, p.z), order)


# ---------------------------------------------------------------------------
# predicates


def jet_tangent_vector(j: Jet) -> tuple[Scalar, ...]:
    """First-order direction in local chart coordinates, (x, y) on the
    torus and (x, y, z) on the sphere; zero for order 1."""
    if j.order == 1:
        return (ZERO,) * (len(j.graphs) + 1)
    return _in_xyz_order((ONE, *(g.coeffs[1] for g in j.graphs)), j.var)


def jet_is_vertical(j: Jet) -> bool:
    """Tangency to the vertical direction through the center.

    On the torus the vertical direction is the P1 fiber over x; on the
    sphere it is the great circle through the poles, which is only a
    well-posed question at equator points (z = 0).  By the canonical
    rule a jet is vertical exactly when it is a graph over its surface's
    last coordinate, y or z.
    """
    if j.surface == TORUS:
        return j.var == "y"
    if not j.center.z.is_zero():
        raise PreconditionFailed("verticality needs a center on the equator z = 0")
    return j.var == "z"


def coinciding_points(points) -> tuple[int, int] | None:
    """The first pair (i, j) of equal points of one surface, as a pairwise
    scan meets it (the smallest i, then its smallest j), or None.

    The points go through exactalg's repeats as rows of their stored
    scalars; a ProjPoint is stored canonically, (value, 1) or (1, 0), so
    two torus points are equal exactly when their rows are.
    """
    return min(repeats([(p.x.u, p.x.v, p.y.u, p.y.v) if isinstance(p, TorusPoint)
                        else p.coords() for p in points]), default=None)


# ---------------------------------------------------------------------------
# standard configurations


class StandardConfig(Value):
    __slots__ = ("jets",)

    def __init__(self, jets: tuple[Jet, ...]):
        object.__setattr__(self, "jets", jets)


def torus_standard_center(i: int) -> TorusPoint:
    return TorusPoint.affine(i, 0)


def sphere_standard_center(i: int) -> SpherePoint:
    """Equator point with tangent half-angle i + 1; x and y both nonzero."""
    return equator_point(i + 1)


def standard_config(surface: str, orders) -> StandardConfig:
    """The pinned reference configuration, one jet per entry of ``orders``.

    Torus slots sit at (i, 0) with horizontal jets ((x - i)^e, y); sphere
    slots sit at rational equator points with the jet following the
    equator, whose graph is the exact square root of 1 - x^2.
    """
    jets = []
    for idx, e in enumerate(orders, start=1):
        if e < 1:
            raise PreconditionFailed("partition parts must be positive")
        if surface == TORUS:
            c = torus_standard_center(idx)
            f = Series.constant(0, c.x.value, e)
            jets.append(Jet.torus(c, e, f))
        elif surface == SPHERE:
            c = sphere_standard_center(idx)
            u = poly_to_series(Poly([1, 0, -1]), c.x, e)
            g = hensel_sqrt(u, c.y)
            h = Series.constant(0, c.x, e)
            jets.append(Jet.sphere(c, e, g, h))
        else:
            raise PreconditionFailed(f"unknown surface {surface!r}")
    return StandardConfig(tuple(jets))


# ---------------------------------------------------------------------------
# serialization


def _pp_to_json(p: ProjPoint) -> list[str]:
    return [scalar_to_json(p.u), scalar_to_json(p.v)]


def json_list(arr, what: str, length: int | None = None) -> list:
    """``arr`` once it is a JSON list, of ``length`` entries when given; a
    string would read as one scalar per character."""
    if type(arr) is not list:
        raise InvalidInput(f"{what} must be a JSON list")
    if length is not None and len(arr) != length:
        raise InvalidInput(f"{what} must hold {length} entries, not {len(arr)}")
    return arr


def json_field(obj, key: str, what: str):
    """``obj[key]`` once ``obj`` is a JSON object holding ``key``."""
    if type(obj) is not dict:
        raise InvalidInput(f"{what} must be a JSON object")
    if key not in obj:
        raise InvalidInput(f"{what} has no field {key!r}")
    return obj[key]


def scalars_from_json(arr, what: str, length: int | None = None) -> list[Scalar]:
    """The scalars of a JSON list, as json_list checks it."""
    return [parse_scalar(c) for c in json_list(arr, what, length)]


def point_to_json(p: TorusPoint | SpherePoint):
    if isinstance(p, TorusPoint):
        return [_pp_to_json(p.x), _pp_to_json(p.y)]
    return [scalar_to_json(c) for c in p.coords()]


def _pp_from_json(c) -> ProjPoint:
    """A torus center coordinate [u, v]; the finite form a file holds,
    [value, "1"], is read with no parse of the 1."""
    if type(c) is list and len(c) == 2 and c[1] == "1":
        return ProjPoint.affine(parse_scalar(c[0]))
    return ProjPoint(*scalars_from_json(c, "torus coordinate", 2))


def point_from_json(surface: str, data):
    if surface == TORUS:
        return TorusPoint(*map(_pp_from_json, json_list(data, "torus center", 2)))
    return SpherePoint(*scalars_from_json(data, "sphere center", 3))


def jet_to_json(j: Jet) -> dict:
    d = {
        "surface": j.surface,
        "order": j.order,
        "center": point_to_json(j.center),
    }
    if j.surface == TORUS:
        c = j.center
        d["chart"], keys = {"x": c.x.chart, "y": c.y.chart, "transposed": j.var == "y"}, "f"
    else:
        d["chart"], keys = j.var, "gh"
    d["graph"] = {k: [scalar_to_json(c) for c in g.coeffs] for k, g in zip(keys, j.graphs)}
    return d


def jet_from_json(d: dict) -> Jet:
    surface, order = json_field(d, "surface", "jet"), json_field(d, "order", "jet")
    if surface not in (TORUS, SPHERE):
        raise PreconditionFailed(f"unknown surface {surface!r}")
    # bounded before any series of that length exists; bool is not an order
    if type(order) is not int or not 1 <= order <= MAX_JET_ORDER:
        raise PreconditionFailed(
            f"jet order must be an integer from 1 to {MAX_JET_ORDER}")
    center = point_from_json(surface, json_field(d, "center", "jet"))
    if surface == TORUS:
        ch = json_field(d, "chart", "jet")
        chart = (json_field(ch, "x", "torus chart"), json_field(ch, "y", "torus chart"))
        transposed = ch.get("transposed", False)
        # JSON integers and a JSON bool only: int() and bool() would read
        # 0.5 as chart 0 and "false" as true
        if any(type(c) is not int for c in chart):
            raise PreconditionFailed("chart tags must be JSON integers")
        if type(transposed) is not bool:
            raise PreconditionFailed("transposed must be a JSON bool")
        if chart != (center.x.chart, center.y.chart):
            raise PreconditionFailed("chart tags do not match the center")
        var, keys = ("y" if transposed else "x"), "f"
    else:
        var, keys = json_field(d, "chart", "jet"), "gh"
        coordinate_order(SPHERE, var)   # refuses a letter other than x, y, z
    base = _local(center, var)
    graph = json_field(d, "graph", "jet")
    graphs = [scalars_from_json(json_field(graph, k, "jet graph"), f"graph {k}", order)
              for k in keys]
    return _checked(Jet(center, var, tuple([Series(base, order, g) for g in graphs])), order)
