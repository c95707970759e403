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

Chart tags record which affine chart of each P1 factor carries the data
(finite coordinates use chart 0, points at infinity chart 1), so every
jet, including those over infinity, has exactly one stored form and
equality is structural.

Internally jets convert to and from a one-parameter description, the
coordinates as truncated series in a local parameter t, which is how the
automorphism layer transports them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (MixedSurfaces, NotCurvilinear, NotOnEquator,
                     PreconditionFailed)
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, compose_centered,
                       hensel_sqrt, parse_scalar, poly_to_series, scal,
                       scalar_to_str, series_reverse)

TORUS = "torus"
SPHERE = "sphere"


# ---------------------------------------------------------------------------
# points


class ProjPoint:
    """A point of P1(R), canonically (value, 1) for finite or (1, 0)."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = scal(u), scal(v)
        if not v.is_zero():
            self.u, self.v = u / v, ONE
        elif not u.is_zero():
            self.u, self.v = ONE, ZERO
        else:
            raise PreconditionFailed("(0 : 0) is not a projective point")

    @staticmethod
    def affine(value) -> ProjPoint:
        return ProjPoint(value, 1)

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
    """Rational point from stereographic parameters (never the north pole)."""
    u, v = scal(u), scal(v)
    d = u * u + v * v + 1
    return SpherePoint.of((u + u) / d, (v + v) / d, (u * u + v * v - 1) / d)


def equator_point(t) -> SpherePoint:
    """Equator point with tangent-half-angle t: ((1-t^2)/(1+t^2), 2t/(1+t^2), 0)."""
    t = scal(t)
    d = ONE + t * t
    return SpherePoint.of((ONE - t * t) / d, (t + t) / d, ZERO)


@dataclass(frozen=True, eq=True)
class TangentVector:
    surface: str
    components: tuple[Scalar, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


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
            chart = (1 if center.x.is_infinite else 0,
                     1 if center.y.is_infinite else 0)
        jet = Jet(TORUS, order, center, chart, transposed, (f,))
        _check_torus_shape(jet)
        return jet

    @staticmethod
    def sphere(center: SpherePoint, order: int, g: Series, h: Series,
               chart: str = "x") -> Jet:
        jet = Jet(SPHERE, order, center, chart, False, (g, h))
        _check_sphere_shape(jet)
        return jet

    @property
    def f(self) -> Series:
        return self.graphs[0]

    @property
    def g(self) -> Series:
        return self.graphs[0]

    @property
    def h(self) -> Series:
        return self.graphs[1]

    def local_centers(self) -> tuple[Scalar, ...]:
        """Local chart values of the center coordinates."""
        if self.surface == TORUS:
            cx = ZERO if self.center.x.is_infinite else self.center.x.value
            cy = ZERO if self.center.y.is_infinite else self.center.y.value
            return (cx, cy)
        return self.center.coords()

    def __str__(self):
        if self.surface == TORUS:
            role = "x over y" if self.transposed else "y over x"
            return f"TorusJet(center {self.center}, order {self.order}, {role}: {self.graphs[0]})"
        return (f"SphereJet(center {self.center}, order {self.order}, chart {self.chart}, "
                f"g {self.graphs[0]}, h {self.graphs[1]})")


def _check_torus_shape(j: Jet):
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


def _check_sphere_shape(j: Jet):
    if j.chart not in ("x", "y", "z"):
        raise PreconditionFailed("sphere chart must be x, y or z")
    g, h = j.graphs
    if g.order != j.order or h.order != j.order:
        raise PreconditionFailed("graph order differs from jet order")
    x0, y0, z0 = j.center.coords()
    var0, g0, h0 = {
        "x": (x0, y0, z0),
        "y": (y0, z0, x0),
        "z": (z0, x0, y0),
    }[j.chart]
    if not (g.center == var0 and h.center == var0):
        raise PreconditionFailed("graph series is centered at the wrong value")
    if not (g.value() == g0 and h.value() == h0):
        raise PreconditionFailed("graph values do not match the center point")
    var = Series.variable(var0, j.order)
    if not (var * var + g * g + h * h == Series.constant(1, var0, j.order)):
        raise PreconditionFailed("jet does not lie on the sphere")


# ---------------------------------------------------------------------------
# parametrizations (internal exchange format for the automorphism layer)


@dataclass
class TorusParam:
    """Coordinates along the jet as homogeneous series pairs in t."""
    x0: Series
    x1: Series
    y0: Series
    y1: Series


@dataclass
class SphereParam:
    x: Series
    y: Series
    z: Series


def _recenter_zero(s: Series) -> Series:
    return Series(ZERO, s.order, s.coeffs)


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
        return TorusParam(*chart_pair(j.chart[0], xloc),
                          *chart_pair(j.chart[1], yloc))
    x0, y0, z0 = j.center.coords()
    v0 = {"x": x0, "y": y0, "z": z0}[j.chart]
    var = Series(ZERO, e, [v0, ONE] if e >= 2 else [v0])
    g = _recenter_zero(j.graphs[0])
    h = _recenter_zero(j.graphs[1])
    if j.chart == "x":
        return SphereParam(var, g, h)
    if j.chart == "y":
        return SphereParam(h, var, g)
    return SphereParam(g, h, var)


def chart_pair(chart: int, loc: Series) -> tuple[Series, Series]:
    """The homogeneous P1 pair (loc : 1) on chart 0, (1 : loc) on chart 1."""
    one = Series.constant(1, loc.center, loc.order)
    return (loc, one) if chart == 0 else (one, loc)


def normalize_pair(s0: Series, s1: Series) -> tuple[int, Series]:
    """Return (chart, local series) for a homogeneous P1 series pair."""
    if not s1.value().is_zero():
        return 0, s0 * s1.invert()
    if not s0.value().is_zero():
        return 1, s1 * s0.invert()
    raise NotCurvilinear("homogeneous pair vanishes at the center")


def _reparametrize(driver: Series, others: list[Series]) -> list[Series]:
    """Re-express ``others`` as series in s = driver - driver(0).

    The driver must have valuation 1 in t; the caller checked that.
    """
    t_of_s = series_reverse(driver - driver.value())
    return [compose_centered(o, t_of_s) for o in others]


def jet_from_torus_param(p: TorusParam, order: int) -> Jet:
    xc, xloc = normalize_pair(p.x0, p.x1)
    yc, yloc = normalize_pair(p.y0, p.y1)
    cx, cy = xloc.value(), yloc.value()
    px = ProjPoint.infinity() if xc == 1 else ProjPoint.affine(cx)
    py = ProjPoint.infinity() if yc == 1 else ProjPoint.affine(cy)
    center = TorusPoint(px, py)
    if order == 1:
        f = Series(cx, 1, [cy])
        return Jet(TORUS, 1, center, (xc, yc), False, (f,))
    if (xloc - cx).valuation() == 1:
        (fs,) = _reparametrize(xloc, [yloc])
        f = Series(cx, order, fs.coeffs)
        return Jet(TORUS, order, center, (xc, yc), False, (f,))
    if (yloc - cy).valuation() == 1:
        (gs,) = _reparametrize(yloc, [xloc])
        g = Series(cy, order, gs.coeffs)
        return Jet(TORUS, order, center, (xc, yc), True, (g,))
    raise NotCurvilinear("parametrization is not an embedding")


def jet_from_sphere_param(p: SphereParam, order: int) -> Jet:
    cx, cy, cz = p.x.value(), p.y.value(), p.z.value()
    center = SpherePoint(cx, cy, cz)
    if order == 1:
        g = Series(cx, 1, [cy])
        h = Series(cx, 1, [cz])
        return Jet(SPHERE, 1, center, "x", False, (g, h))
    for chart, driver, g_src, h_src, c in (
            ("x", p.x, p.y, p.z, cx),
            ("y", p.y, p.z, p.x, cy),
            ("z", p.z, p.x, p.y, cz)):
        if (driver - c).valuation() == 1:
            gs, hs = _reparametrize(driver, [g_src, h_src])
            g = Series(c, order, gs.coeffs)
            h = Series(c, order, hs.coeffs)
            return Jet(SPHERE, order, center, chart, False, (g, h))
    raise NotCurvilinear("parametrization is not an embedding")


# ---------------------------------------------------------------------------
# canonicalization from raw ideal generators


def canonicalize_torus_ideal(center, order: int, y_coeff: Series, const: Series,
                             chart: tuple[int, int] = (0, 0)) -> Jet:
    """Jet with ideal ((x - center)^order, y_coeff * y + const).

    The linear coefficient must be a unit at the center, otherwise the
    generators do not define a graph over x and NotCurvilinear is raised.
    """
    c = scal(center)
    if y_coeff.coeffs[0].is_zero():
        raise NotCurvilinear("y coefficient vanishes at the center")
    f = -(const * y_coeff.invert())
    if chart == (0, 0):
        center_pt = TorusPoint.affine(c, f.value())
        return Jet.torus(center_pt, order, f)
    px = ProjPoint.infinity() if chart[0] == 1 else ProjPoint.affine(c)
    py = ProjPoint.infinity() if chart[1] == 1 else ProjPoint.affine(f.value())
    return Jet(TORUS, order, TorusPoint(px, py), chart, False, (f,))


def canonicalize_sphere_ideal(center, order: int,
                              rows: tuple[tuple[Series, Series, Series],
                                          tuple[Series, Series, Series]]) -> Jet:
    """Jet with ideal ((x-center)^e, a1*y + b1*z + c1, a2*y + b2*z + c2).

    The 2x2 series matrix (a_i, b_i) must be invertible at the center; the
    solved graphs must satisfy the sphere congruence exactly.
    """
    (a1, b1, c1), (a2, b2, c2) = rows
    det = a1 * b2 - a2 * b1
    if det.coeffs[0].is_zero():
        raise NotCurvilinear("linear system is singular at the center")
    dinv = det.invert()
    g = (b1 * c2 - b2 * c1) * dinv
    h = (a2 * c1 - a1 * c2) * dinv
    pt = SpherePoint(scal(center), g.value(), h.value())
    return Jet.sphere(pt, order, g, h, "x")


# ---------------------------------------------------------------------------
# predicates and reports


@dataclass
class JetReport:
    ok: bool
    problems: list[str]


def jet_validate(j: Jet) -> JetReport:
    """Exact structural and congruence checks; reports every violation."""
    problems: list[str] = []
    try:
        if j.surface == TORUS:
            _check_torus_shape(j)
        elif j.surface == SPHERE:
            _check_sphere_shape(j)
        else:
            problems.append(f"unknown surface {j.surface!r}")
    except PreconditionFailed as exc:
        problems.append(str(exc))
    if j.order < 1:
        problems.append("order must be at least 1")
    if j.order >= 2 and not problems:
        # canonical chart: the stored series variable must be the first
        # coordinate with nonzero tangent component
        t = jet_tangent_vector(j)
        comps = t.components
        if j.surface == TORUS:
            if j.transposed and not comps[0].is_zero():
                problems.append("transposed form stored for a non-vertical jet")
        else:
            first = next(i for i, c in enumerate(comps) if not c.is_zero())
            want = "xyz"[first]
            if j.chart != want:
                problems.append(f"canonical chart is {want}, stored {j.chart}")
    return JetReport(not problems, problems)


def jet_tangent_vector(j: Jet) -> TangentVector:
    """First-order direction in local chart coordinates; zero for order 1."""
    n = 2 if j.surface == TORUS else 3
    if j.order == 1:
        return TangentVector(j.surface, tuple([ZERO] * n))
    if j.surface == TORUS:
        d = j.graphs[0].coeffs[1]
        comps = (d, ONE) if j.transposed else (ONE, d)
        return TangentVector(TORUS, comps)
    g1 = j.graphs[0].coeffs[1]
    h1 = j.graphs[1].coeffs[1]
    comps = {
        "x": (ONE, g1, h1),
        "y": (h1, ONE, g1),
        "z": (g1, h1, ONE),
    }[j.chart]
    return TangentVector(SPHERE, comps)


def jet_is_vertical(j: Jet) -> bool:
    """Tangency to the vertical direction through the center.

    On the torus the vertical direction is the P1 fiber over x; on the
    sphere it is the great circle through the poles, which is only a
    well-posed question at equator points (z = 0).
    """
    if j.surface == TORUS:
        if j.order == 1:
            return False
        t = jet_tangent_vector(j)
        return t.components[0].is_zero()
    x0, y0, z0 = j.center.coords()
    if not z0.is_zero():
        raise NotOnEquator("verticality needs a center on the equator z = 0")
    if j.order == 1:
        return False
    t = jet_tangent_vector(j)
    return t.components[0].is_zero() and t.components[1].is_zero()


def jets_mutually_distant(jets) -> bool:
    """True iff the supports (center points) are pairwise disjoint."""
    jets = list(jets)
    for j in jets[1:]:
        if j.surface != jets[0].surface:
            raise MixedSurfaces("jets live on different surfaces")
    for i in range(len(jets)):
        for k in range(i + 1, len(jets)):
            if jets[i].center == jets[k].center:
                return False
    return True


# ---------------------------------------------------------------------------
# partitions and standard configurations


@dataclass(frozen=True)
class Partition:
    """Orders (e_1, ..., e_l), kept in the given positional order."""
    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise PreconditionFailed("partition parts must be positive")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@dataclass(frozen=True)
class StandardConfig:
    surface: str
    partition: Partition
    jets: tuple[Jet, ...]


def torus_standard_center(i: int) -> TorusPoint:
    return TorusPoint.affine(i, 0)


def sphere_standard_center(i: int) -> SpherePoint:
    """Equator point with tangent half-angle i + 1; x and y both nonzero."""
    return equator_point(i + 1)


def standard_config(surface: str, partition: Partition | list) -> StandardConfig:
    """The pinned reference configuration used by every synthesis routine.

    Torus slots sit at (i, 0) with horizontal jets ((x - i)^e, y); sphere
    slots sit at rational equator points with the jet following the
    equator, whose graph is the exact square root of 1 - x^2.
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    jets = []
    for idx, e in enumerate(partition.parts, start=1):
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
    return StandardConfig(surface, partition, tuple(jets))


# ---------------------------------------------------------------------------
# serialization


def _pp_to_json(p: ProjPoint) -> list[str]:
    return [scalar_to_str(p.u), scalar_to_str(p.v)]


def _pp_from_json(arr) -> ProjPoint:
    return ProjPoint(parse_scalar(arr[0]), parse_scalar(arr[1]))


def point_to_json(p: TorusPoint | SpherePoint):
    if isinstance(p, TorusPoint):
        return [_pp_to_json(p.x), _pp_to_json(p.y)]
    return [scalar_to_str(c) for c in p.coords()]


def point_from_json(surface: str, data):
    if surface == TORUS:
        return TorusPoint(_pp_from_json(data[0]), _pp_from_json(data[1]))
    return SpherePoint(*(parse_scalar(c) for c in data))


def jet_to_json(j: Jet) -> dict:
    d = {
        "surface": j.surface,
        "order": j.order,
        "center": point_to_json(j.center),
    }
    if j.surface == TORUS:
        d["chart"] = {"x": j.chart[0], "y": j.chart[1], "transposed": j.transposed}
        d["graph"] = {"f": [scalar_to_str(c) for c in j.graphs[0].coeffs]}
    else:
        d["chart"] = j.chart
        d["graph"] = {"g": [scalar_to_str(c) for c in j.graphs[0].coeffs],
                      "h": [scalar_to_str(c) for c in j.graphs[1].coeffs]}
    return d


def jet_from_json(d: dict) -> Jet:
    surface = d["surface"]
    order = int(d["order"])
    center = point_from_json(surface, d["center"])
    if surface == TORUS:
        ch = d["chart"]
        chart = (int(ch["x"]), int(ch["y"]))
        transposed = bool(ch.get("transposed", False))
        cx, cy = (ZERO if center.x.is_infinite else center.x.value,
                  ZERO if center.y.is_infinite else center.y.value)
        base = cy if transposed else cx
        f = Series(base, order, [parse_scalar(c) for c in d["graph"]["f"]])
        jet = Jet(TORUS, order, center, chart, transposed, (f,))
        _check_torus_shape(jet)
        return jet
    if surface == SPHERE:
        chart = d["chart"]
        base = {"x": center.x, "y": center.y, "z": center.z}[chart]
        g = Series(base, order, [parse_scalar(c) for c in d["graph"]["g"]])
        h = Series(base, order, [parse_scalar(c) for c in d["graph"]["h"]])
        return Jet.sphere(center, order, g, h, chart)
    raise MixedSurfaces(f"unknown surface {surface!r}")
