"""Points and curvilinear jets on the real torus P1 x P1 and the sphere S2.

A curvilinear jet of order e is a closed subscheme isomorphic to
Spec R[t]/(t^e) supported at one real point.  Jets are stored in a
canonical graph form over an affine chart:

* torus, non-transposed: ideal ((x - a)^e, y - f(x)) with f a Series of
  order e centered at a;
* torus, transposed (vertical jets only): ((y - b)^e, x - g(y));
* sphere, chart x: ((x - x0)^e, y - g(x), z - h(x)) with the exact
  congruence x^2 + g^2 + h^2 = 1 mod (x - x0)^e, and cyclically for
  charts y and z.

Chart tags record which affine chart of each P1 factor carries the data.
ProjPoint alone fixes the rule (finite coordinates use chart 0, points
at infinity chart 1 with local value 0), and a torus jet's tags must
match its center, so every jet, including those over infinity, has
exactly one stored form and equality is structural.  The sphere charts
follow the cyclic order of SPHERE_CHARTS, and a stored sphere chart must
be the canonical one (the first of x, y, z whose tangent component is
nonzero).

Internally jets convert to and from a one-parameter description, the
coordinates as truncated series in a local parameter t: TorusParam keeps
each torus coordinate as a (chart, local series) pair and SphereParam
keeps x, y, z.  This is the one form the automorphism layer transports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (MixedSurfaces, NotCurvilinear, NotOnEquator,
                     PreconditionFailed)
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, hensel_sqrt,
                       parse_scalar, poly_to_series, repeats, scal,
                       scalar_to_json)

TORUS = "torus"
SPHERE = "sphere"

# sphere chart -> (chart variable, g coordinate, h coordinate)
SPHERE_CHARTS = {"x": "xyz", "y": "yzx", "z": "zxy"}

# largest order a jet file may ask for; loading allocates series that long
MAX_JET_ORDER = 64


# ---------------------------------------------------------------------------
# points


class ProjPoint:
    """A point of P1(R), canonically (value, 1) for finite or (1, 0).

    The chart rule lives here: a finite point sits on chart 0 at its
    value, infinity on chart 1 at local value 0.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = scal(u), scal(v)
        if not v.is_zero():
            # a finite coordinate in a jet file is [u, "1"]: no division
            self.u, self.v = u if v == ONE else u / v, ONE
        elif not u.is_zero():
            self.u, self.v = ONE, ZERO
        else:
            raise PreconditionFailed("(0 : 0) is not a projective point")

    @staticmethod
    def affine(value) -> ProjPoint:
        pt = ProjPoint.__new__(ProjPoint)
        pt.u, pt.v = scal(value), ONE
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

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.is_infinite != other.is_infinite:
            return False
        return self.is_infinite or self.u == other.u

    __hash__ = None

    def __str__(self):
        return "inf" if self.is_infinite else str(self.u)

    def __repr__(self):
        return f"ProjPoint({self})"


@dataclass(frozen=True, eq=True)
class TorusPoint:
    x: ProjPoint
    y: ProjPoint

    @staticmethod
    def affine(x, y) -> TorusPoint:
        return TorusPoint(ProjPoint.affine(x), ProjPoint.affine(y))

    def __str__(self):
        return f"({self.x}, {self.y})"


@dataclass(frozen=True, eq=True)
class SpherePoint:
    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        if not (self.x * self.x + self.y * self.y + self.z * self.z == ONE):
            raise PreconditionFailed("point is not on the unit sphere")

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


@dataclass(frozen=True, eq=True)
class Jet:
    """A curvilinear jet in canonical graph form; see the module docstring.

    ``chart`` is (x_chart, y_chart) on the torus and one of "x", "y", "z"
    on the sphere.  ``graphs`` holds (f,) on the torus and (g, h) on the
    sphere.  Use the torus()/sphere() builders, which validate shape.
    """

    surface: str
    order: int
    center: TorusPoint | SpherePoint
    chart: tuple[int, int] | str
    transposed: bool
    graphs: tuple[Series, ...]

    @staticmethod
    def torus(center: TorusPoint, order: int, f: Series,
              transposed: bool = False, chart: tuple[int, int] | None = None) -> Jet:
        if chart is None:
            chart = (center.x.chart, center.y.chart)
        jet = Jet(TORUS, order, center, chart, transposed, (f,))
        _check_torus_shape(jet)
        return jet

    @staticmethod
    def sphere(center: SpherePoint, order: int, g: Series, h: Series,
               chart: str = "x") -> Jet:
        jet = Jet(SPHERE, order, center, chart, False, (g, h))
        _check_sphere_shape(jet)
        return jet

    def local_centers(self) -> tuple[Scalar, ...]:
        """Local chart values of the center coordinates."""
        if self.surface == TORUS:
            return (self.center.x.local, self.center.y.local)
        return self.center.coords()

    def __str__(self):
        if self.surface == TORUS:
            role = "x over y" if self.transposed else "y over x"
            return f"TorusJet(center {self.center}, order {self.order}, {role}: {self.graphs[0]})"
        return (f"SphereJet(center {self.center}, order {self.order}, chart {self.chart}, "
                f"g {self.graphs[0]}, h {self.graphs[1]})")


def _check_torus_shape(j: Jet):
    if j.chart != (j.center.x.chart, j.center.y.chart):
        raise PreconditionFailed("chart tags do not match the center")
    cx, cy = j.local_centers()
    f = j.graphs[0]
    if f.order != j.order:
        raise PreconditionFailed("graph order differs from jet order")
    base = cy if j.transposed else cx
    other = cx if j.transposed else cy
    if not (f.center == base):
        raise PreconditionFailed("graph series is centered at the wrong value")
    if not (f.value() == other):
        raise PreconditionFailed("graph value does not match the center point")
    if j.transposed:
        # the transposed form is reserved for vertical jets, so the two
        # graph directions never describe the same jet twice
        if j.order < 2:
            raise PreconditionFailed("order-1 jets use the plain graph form")
        if not f.coeffs[1].is_zero():
            raise PreconditionFailed("transposed graph must have zero slope")


def _sphere_chart(chart) -> str:
    """The coordinate names of a sphere chart, refusing unknown charts."""
    if chart not in SPHERE_CHARTS:
        raise PreconditionFailed("sphere chart must be x, y or z")
    return SPHERE_CHARTS[chart]


def _check_sphere_shape(j: Jet):
    names = _sphere_chart(j.chart)
    g, h = j.graphs
    if g.order != j.order or h.order != j.order:
        raise PreconditionFailed("graph order differs from jet order")
    var0, g0, h0 = (getattr(j.center, n) for n in names)
    if not (g.center == var0 and h.center == var0):
        raise PreconditionFailed("graph series is centered at the wrong value")
    if not (g.value() == g0 and h.value() == h0):
        raise PreconditionFailed("graph values do not match the center point")
    var = Series.variable(var0, j.order)
    if not (var * var + g * g + h * h == Series.constant(1, var0, j.order)):
        raise PreconditionFailed("jet does not lie on the sphere")
    # canonical chart: the first of x, y, z that moves along the jet, and
    # x for an order-1 jet, which does not move
    comps = jet_tangent_vector(j)
    want = next((n for n, c in zip("xyz", comps) if not c.is_zero()), "x")
    if j.chart != want:
        raise PreconditionFailed(f"canonical chart is {want}, stored {j.chart}")


# ---------------------------------------------------------------------------
# parametrizations (internal exchange format for the automorphism layer)


@dataclass
class TorusParam:
    """Coordinates along the jet as (chart, local series in t) pairs.

    Charts follow ProjPoint: chart 1 only at infinity, local value 0.
    """
    x: tuple[int, Series]
    y: tuple[int, Series]


@dataclass
class SphereParam:
    x: Series
    y: Series
    z: Series


def _recenter_zero(s: Series) -> Series:
    """s with its center relabelled 0: the polynomial in (x - center)
    is already one in the local parameter."""
    return Series._of(ZERO, s.order, s.poly)


def jet_parametrize(j: Jet) -> TorusParam | SphereParam:
    e = j.order
    if j.surface == TORUS:
        cx, cy = j.local_centers()
        if j.transposed:
            yloc = Series(ZERO, e, [cy, ONE] if e >= 2 else [cy])
            xloc = _recenter_zero(j.graphs[0])
        else:
            xloc = Series(ZERO, e, [cx, ONE] if e >= 2 else [cx])
            yloc = _recenter_zero(j.graphs[0])
        return TorusParam((j.chart[0], xloc), (j.chart[1], yloc))
    v0 = getattr(j.center, j.chart)
    var = Series(ZERO, e, [v0, ONE] if e >= 2 else [v0])
    local = (var, _recenter_zero(j.graphs[0]), _recenter_zero(j.graphs[1]))
    return SphereParam(**dict(zip(SPHERE_CHARTS[j.chart], local)))


def _reparametrize(driver: Series, others: list[Series], order: int) -> list[Series]:
    """Re-express ``others`` as order-``order`` series centered at
    driver(0), in the deviation s = driver - driver(0).

    The driver must have valuation 1 in t; the caller checked that.  Then
    s^k starts at t^k, so the powers of s form a triangular basis and
    each coefficient peels off in turn: o = sum_k c_k s^k.  At order 1
    s is zero and each series is its own constant.
    """
    if order == 1:
        return [Series(driver.value(), 1, [o.value()]) for o in others]
    s = driver - driver.value()
    powers = [Series.constant(1, s.center, s.order)]
    for _ in range(1, s.order):
        powers.append(powers[-1] * s)
    out = []
    for o in others:
        rest = list(o.coeffs)
        coeffs = []
        for k, pw in enumerate(powers):
            c = rest[k] / pw.coeffs[k]
            coeffs.append(c)
            if not c.is_zero():
                for i in range(k + 1, s.order):
                    rest[i] = rest[i] - c * pw.coeffs[i]
        out.append(Series(driver.value(), order, coeffs))
    return out


def jet_from_torus_param(p: TorusParam, order: int) -> Jet:
    """The jet along p, whose series fix its order; at order 1 every
    deviation is zero, of valuation 1, so a point takes the jet path."""
    (xc, xloc), (yc, yloc) = p.x, p.y
    if order != xloc.order:
        raise ValueError(f"order {order} differs from the parameter order {xloc.order}")
    cx, cy = xloc.value(), yloc.value()
    center = TorusPoint(ProjPoint.in_chart(xc, cx), ProjPoint.in_chart(yc, cy))
    if (xloc - cx).valuation() == 1:
        return Jet(TORUS, order, center, (xc, yc), False,
                   tuple(_reparametrize(xloc, [yloc], order)))
    if (yloc - cy).valuation() == 1:
        return Jet(TORUS, order, center, (xc, yc), True,
                   tuple(_reparametrize(yloc, [xloc], order)))
    raise NotCurvilinear("parametrization is not an embedding")


def jet_from_sphere_param(p: SphereParam, order: int) -> Jet:
    """As jet_from_torus_param; an order-1 point reads back in chart x."""
    if order != p.x.order:
        raise ValueError(f"order {order} differs from the parameter order {p.x.order}")
    center = SpherePoint(p.x.value(), p.y.value(), p.z.value())
    for chart, names in SPHERE_CHARTS.items():
        driver, g_src, h_src = (getattr(p, n) for n in names)
        c = driver.value()
        if (driver - c).valuation() == 1:
            return Jet(SPHERE, order, center, chart, False,
                       tuple(_reparametrize(driver, [g_src, h_src], order)))
    raise NotCurvilinear("parametrization is not an embedding")


# ---------------------------------------------------------------------------
# predicates


def jet_tangent_vector(j: Jet) -> tuple[Scalar, ...]:
    """First-order direction in local chart coordinates, (x, y) on the
    torus and (x, y, z) on the sphere; zero for order 1."""
    if j.order == 1:
        return (ZERO,) * (2 if j.surface == TORUS else 3)
    if j.surface == TORUS:
        d = j.graphs[0].coeffs[1]
        return (d, ONE) if j.transposed else (ONE, d)
    local = (ONE, j.graphs[0].coeffs[1], j.graphs[1].coeffs[1])
    comps = dict(zip(SPHERE_CHARTS[j.chart], local))
    return tuple(comps[n] for n in "xyz")


def jet_is_vertical(j: Jet) -> bool:
    """Tangency to the vertical direction through the center.

    On the torus the vertical direction is the P1 fiber over x; on the
    sphere it is the great circle through the poles, which is only a
    well-posed question at equator points (z = 0).
    """
    if j.surface == SPHERE and not j.center.z.is_zero():
        raise NotOnEquator("verticality needs a center on the equator z = 0")
    if j.order == 1:
        return False
    t = jet_tangent_vector(j)
    return t[0].is_zero() and (j.surface == TORUS or t[1].is_zero())


def coinciding_points(points) -> tuple[int, int] | None:
    """The first pair (i, j) of equal points of one surface, as a pairwise
    scan meets it (the smallest i, then its smallest j), or None.

    The points go through exactalg's repeats as rows of their stored
    scalars; a ProjPoint is stored canonically, (value, 1) or (1, 0), so
    two torus points are equal exactly when their rows are.
    """
    return min(repeats([(p.x.u, p.x.v, p.y.u, p.y.v) if isinstance(p, TorusPoint)
                        else p.coords() for p in points]), default=None)


def jets_mutually_distant(jets) -> bool:
    """True iff the supports (center points) are pairwise disjoint."""
    jets = list(jets)
    for j in jets[1:]:
        if j.surface != jets[0].surface:
            raise MixedSurfaces("jets live on different surfaces")
    return coinciding_points([j.center for j in jets]) is None


# ---------------------------------------------------------------------------
# standard configurations


@dataclass(frozen=True)
class StandardConfig:
    jets: tuple[Jet, ...]


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
            raise MixedSurfaces(f"unknown surface {surface!r}")
    return StandardConfig(tuple(jets))


# ---------------------------------------------------------------------------
# serialization


def _pp_to_json(p: ProjPoint) -> list[str]:
    return [scalar_to_json(p.u), scalar_to_json(p.v)]


def json_list(arr, what: str, length: int | None = None) -> list:
    """``arr`` once it is a JSON list, of ``length`` entries when given; a
    string would read as one scalar per character."""
    if type(arr) is not list:
        raise PreconditionFailed(f"{what} must be a JSON list")
    if length is not None and len(arr) != length:
        raise PreconditionFailed(f"{what} must hold {length} entries, not {len(arr)}")
    return arr


def scalars_from_json(arr, what: str, length: int | None = None) -> list[Scalar]:
    """The scalars of a JSON list, as json_list checks it."""
    return [parse_scalar(c) for c in json_list(arr, what, length)]


def point_to_json(p: TorusPoint | SpherePoint):
    if isinstance(p, TorusPoint):
        return [_pp_to_json(p.x), _pp_to_json(p.y)]
    return [scalar_to_json(c) for c in p.coords()]


def point_from_json(surface: str, data):
    if surface == TORUS:
        return TorusPoint(*(ProjPoint(*scalars_from_json(c, "torus coordinate", 2))
                            for c in json_list(data, "torus center", 2)))
    return SpherePoint(*scalars_from_json(data, "sphere center", 3))


def jet_to_json(j: Jet) -> dict:
    d = {
        "surface": j.surface,
        "order": j.order,
        "center": point_to_json(j.center),
    }
    if j.surface == TORUS:
        d["chart"] = {"x": j.chart[0], "y": j.chart[1], "transposed": j.transposed}
        d["graph"] = {"f": [scalar_to_json(c) for c in j.graphs[0].coeffs]}
    else:
        d["chart"] = j.chart
        d["graph"] = {"g": [scalar_to_json(c) for c in j.graphs[0].coeffs],
                      "h": [scalar_to_json(c) for c in j.graphs[1].coeffs]}
    return d


def jet_from_json(d: dict) -> Jet:
    surface = d["surface"]
    order = d["order"]
    # bounded before any series of that length exists; bool is not an order
    if type(order) is not int or not 1 <= order <= MAX_JET_ORDER:
        raise PreconditionFailed(
            f"jet order must be an integer from 1 to {MAX_JET_ORDER}")
    center = point_from_json(surface, d["center"])
    if surface == TORUS:
        ch = d["chart"]
        chart = (ch["x"], ch["y"])
        transposed = ch.get("transposed", False)
        # JSON integers and a JSON bool only: int() and bool() would read
        # 0.5 as chart 0 and "false" as true
        if any(type(c) is not int for c in chart):
            raise PreconditionFailed("chart tags must be JSON integers")
        if type(transposed) is not bool:
            raise PreconditionFailed("transposed must be a JSON bool")
        base = (center.y if transposed else center.x).local
        f = Series(base, order, scalars_from_json(d["graph"]["f"], "graph f", order))
        return Jet.torus(center, order, f, transposed, chart)
    if surface == SPHERE:
        chart = d["chart"]
        base = getattr(center, _sphere_chart(chart)[0])
        g, h = (scalars_from_json(d["graph"][k], f"graph {k}", order) for k in "gh")
        return Jet.sphere(center, order, Series(base, order, g), Series(base, order, h),
                          chart)
    raise MixedSurfaces(f"unknown surface {surface!r}")
