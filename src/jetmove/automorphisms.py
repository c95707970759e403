"""Certified automorphisms of the torus and sphere, as words of generators.

Three generator kinds:

* TorusTwist: translates one factor coordinate by a pole-free rational
  function of the other, (x, y) -> (x, y + p(x)/q(x)) for axis "y".
  Regularity on all real points needs q without real roots and
  deg p = deg q, so the translation stays finite over infinity.
* TorusMoebius: a pair of fractional-linear maps acting factorwise.
* SphereTwist: rotates two coordinates by an angle depending on the
  third, (x, y, z) -> (x, (y p - z q)/r, (y q + z p)/r) for fixed "x"
  and cyclically otherwise.  It stores the tangent of the half-angle,
  n/d in lowest terms, and (p, q, r) = (d^2 - n^2, 2nd, d^2 + n^2), so
  p^2 + q^2 = r^2 and r > 0 on R hold by construction.

Every generator in a word carries a Certificate naming its proof route.
The synthesizer attaches it as it builds the generator; what is read
from outside is proved on load by its kind's ``of``, the one place that
proves it: TorusTwist.of proves a q = 1 + m^2 from its coefficients (a
rational q by an integer square root of q - 1 over Z, a tower q by a
series root) and any other q by Sturm counts, TorusMoebius.of checks
both determinants, and SphereTwist.of recovers n/d from a sphere triple
(with no gcd when r + p is a constant, as in every synthesized twist)
and proves p^2 + q^2 = r^2 by one product identity.  A word file holds only
generator data; str(g) renders the formula.  Twist polynomial text in Q
or one Q(sqrt r) is read and written on the integer form, with no
Scalar built per coefficient (exactalg's poly_from_json and
poly_to_json); other text is parsed and printed one Scalar at a time.

AutWord composes certified generators left-to-right.  Jets move through
their parameter form (surfaces.TorusParam or SphereParam) and come back
in canonical form, and a Jacobian as an order-2 jet: one transport
serves all.  A point is an order-1 form, over F[t]/(t), which is the
field F itself, so the transport carries it as its values, plain
Scalars (_carried), and only the read-back wraps them into series
(_jet_of); the separation stages carry their forms that way for a whole
stage.  Only the leaves (_eval, _moebius's homogeneous pair,
_normalize_pair, the sphere's 1/r, _point_of) and _rotate's choice of
formula tell a Scalar from a Series.  Torus coordinates travel as
(chart, local) pairs, so nothing breaks over infinity; Moebius maps form
homogeneous pairs and normalize their result back at once.  A twist
polynomial meets a series only through its Taylor shift to the series'
value.  A twist step with a zero angle or translation is skipped, as
it moves nothing.

Each twist step is one closed formula in plain Series, Poly or Scalar
arithmetic; how a polynomial stores its coefficients is exactalg's
business.  A torus twist never moves a coordinate off its chart, since
its homogenized q is a unit: a chart-0 local m becomes m + ph/qh, a
chart-1 one m qh/(qh + ph m).  A sphere twist with d = 1, as every
synthesized one is, moves series (u, v) to (s (u - a v) - u,
s (a u + v) - v) for a = n(t) and s = 2/(1 + a^2), since cos = s - 1
and sin = a s: five products and one inverse.  A general d, the half
turn and an order-1 step keep the full rotation formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (DegreeMismatch, IdentityFails, MixedSurfaces,
                     NotCurvilinear, PreconditionFailed, RootInForbiddenRegion)
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, SturmChain,
                       compose_centered, poly_from_json, poly_gcd, poly_sqrt,
                       poly_to_json, poly_to_series, scal, scalar_to_json)
from .surfaces import (SPHERE, SPHERE_CHARTS, TORUS, Jet, ProjPoint, SphereParam,
                       SpherePoint, TorusParam, TorusPoint, jet_from_sphere_param,
                       jet_from_torus_param, jet_parametrize, json_list,
                       scalars_from_json)

# highest twist degree a word file may hold; a load Sturm-checks up to it
MAX_TWIST_DEGREE = 64


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True, eq=True)
class Certificate:
    """The proof route a generator passed; each kind's ``of`` proves it.

    torus-twist-square: q - 1 = m^2 for an m found exactly (so q >= 1),
        deg p = deg q; over Q by an integer square root of q - 1's
        integer form, in a tower by a series root (exactalg's poly_sqrt).
    torus-twist: Sturm count of q on the real line, deg p = deg q.
    sphere-twist-square: (r - p)(r + p) = q^2 and deg r = 2 max(deg n,
        deg d) for the half-angle n/d, so r is a nonzero constant times
        d^2 + n^2, which has no real root.  n/d is q/(r + p) divided by
        its gcd, or read off with d = 1 when r + p is a constant.
    sphere-twist: Sturm count of r on [-1, 1], then the same identity.
    moebius: both matrices nonsingular.
    """
    kind: str


@dataclass(frozen=True, eq=True)
class TorusTwist:
    axis: str            # coordinate being translated, "x" or "y"
    p: Poly
    q: Poly
    certificate: Certificate | None = None

    surface = TORUS

    @staticmethod
    def of(axis: str, p, q) -> TorusTwist:
        """The certified twist adding p/q to ``axis``.

        q = 1 + m^2 for an m recovered from q's coefficients is proved by
        that shape; any other q by a Sturm count on the real line.  The
        root is checked before the degree, so a candidate failing both
        reports the root.
        """
        if axis not in ("x", "y"):
            raise PreconditionFailed("twist axis must be x or y")
        p, q = _as_poly(p), _as_poly(q)
        if poly_sqrt(q - ONE) is not None:
            kind = "torus-twist-square"
        else:
            _root_free(q, None, "twist")
            kind = "torus-twist"
        if p.degree != q.degree:
            raise DegreeMismatch(f"deg p = {p.degree} but deg q = {q.degree}")
        return TorusTwist(axis, p, q, Certificate(kind))

    def inverse(self) -> TorusTwist:
        return replace(self, p=-self.p)

    def __str__(self):
        o = "y" if self.axis == "x" else "x"
        return f"{self.axis} -> {self.axis} + ({self.p.str_in(o)})/({self.q.str_in(o)})"


@dataclass(frozen=True, eq=True)
class TorusMoebius:
    mx: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    my: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    certificate: Certificate | None = None

    surface = TORUS

    @staticmethod
    def of(mx, my) -> TorusMoebius:
        """The certified pair; both matrices must be 2x2 and nonsingular."""
        def coerce(m):
            m = tuple(tuple(scal(e) for e in row) for row in m)
            if len(m) != 2 or any(len(row) != 2 for row in m):
                raise PreconditionFailed("a moebius matrix must be 2x2")
            return m
        mx, my = coerce(mx), coerce(my)
        if any((m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero() for m in (mx, my)):
            raise PreconditionFailed("moebius matrix is singular")
        return TorusMoebius(mx, my, Certificate("moebius"))

    def inverse(self) -> TorusMoebius:
        adj = lambda m: ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        return replace(self, mx=adj(self.mx), my=adj(self.my))

    def __str__(self):
        f = lambda m: f"(({m[0][0]}, {m[0][1]}), ({m[1][0]}, {m[1][1]}))"
        return f"moebius x: {f(self.mx)}, y: {f(self.my)}"


@dataclass(frozen=True, eq=True)
class SphereTwist:
    """Rotation whose tangent half-angle is n/d, a function of ``fixed``.

    n/d is in lowest terms with d monic; the half turn is n = 1, d = 0.
    """
    fixed: str           # invariant coordinate carrying the angle, "x", "y" or "z"
    n: Poly
    d: Poly
    certificate: Certificate | None = field(default=None, kw_only=True)

    surface = SPHERE

    @staticmethod
    def of(fixed: str, p, q, r) -> SphereTwist:
        """The certified twist with cos = p/r and sin = q/r.

        Its half-angle is n/d = q/(r + p), reduced by their gcd unless
        r + p is a constant (then d = 1), and p^2 + q^2 = r^2 is checked
        as (r - p)(r + p) = q^2.  When that holds, r is a polynomial lam
        times d^2 + n^2, which has no real root because n and d are
        coprime, and whose leading coefficient is positive; so lam is a
        nonzero constant, needing no root count, exactly when
        deg r = 2 max(deg n, deg d).  Any other r is Sturm-checked on
        [-1, 1] before the identity, so a candidate failing both reports
        the root.
        """
        if fixed not in ("x", "y", "z"):
            raise PreconditionFailed("fixed coordinate must be x, y or z")
        p, q, r = _as_poly(p), _as_poly(q), _as_poly(r)
        s = r + p
        if s.is_zero():
            n, d = Poly.const(1), Poly()
        elif s.degree == 0:
            # a nonzero constant is coprime to q: q/s is in lowest terms
            n, d = q * s.lead().inverse(), Poly.const(1)
        else:
            g = poly_gcd(q, s)
            d = s // g
            unit = d.lead().inverse()
            n, d = q // g * unit, d * unit
        holds = (r - p) * s == q * q
        if holds and r.degree == 2 * max(n.degree, d.degree):
            kind = "sphere-twist-square"
        else:
            _root_free(r, (scal(-1), scal(1)), "rotation")
            kind = "sphere-twist"
        if not holds:
            raise IdentityFails("p^2 + q^2 differs from r^2")
        return SphereTwist(fixed, n, d, certificate=Certificate(kind))

    def triple(self) -> tuple[Poly, Poly, Poly]:
        """(p, q, r) = (d^2 - n^2, 2nd, d^2 + n^2)."""
        nn, dd, nd = self.n * self.n, self.d * self.d, self.n * self.d
        return dd - nn, nd + nd, dd + nn

    def inverse(self) -> SphereTwist:
        if self.d.is_zero():
            return self          # the half turn, kept as n = 1
        return replace(self, n=-self.n)

    def __str__(self):
        v = self.fixed
        if self.d.is_zero():
            return f"rotate about {v} by a half turn"
        return (f"rotate about {v} by angle with tan(angle/2) = "
                f"({self.n.str_in(v)})/({self.d.str_in(v)})")


def _as_poly(p) -> Poly:
    if isinstance(p, Poly):
        return p
    return Poly(p)


Generator = TorusTwist | TorusMoebius | SphereTwist


@dataclass(frozen=True, eq=True)
class AutWord:
    """Generators applied left-to-right; all certified, one surface."""
    surface: str
    generators: tuple[Generator, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.surface != self.surface:
                raise MixedSurfaces("word mixes torus and sphere generators")
            if not isinstance(g.certificate, Certificate):
                raise PreconditionFailed("word contains an uncertified generator")

    def __len__(self):
        return len(self.generators)


def word_identity(surface: str) -> AutWord:
    return AutWord(surface, ())


def word_concat(*words: AutWord) -> AutWord:
    surfaces = {w.surface for w in words}
    if len(surfaces) != 1:
        raise MixedSurfaces("cannot concatenate words on different surfaces")
    gens: tuple[Generator, ...] = ()
    for w in words:
        gens = gens + w.generators
    return AutWord(surfaces.pop(), gens)


def word_of(surface: str, generators) -> AutWord:
    """Certify each generator and assemble the word."""
    return AutWord(surface, tuple(certify_twist(g) for g in generators))


def word_inverse(w: AutWord) -> AutWord:
    return AutWord(w.surface, tuple(g.inverse() for g in reversed(w.generators)))


# ---------------------------------------------------------------------------
# certification


def _root_free(pol: Poly, interval, kind: str) -> None:
    """Sturm-prove pol has no root in the region (None: the real line)."""
    chain = SturmChain(pol)
    if chain.count(interval):
        where = "the real line" if interval is None else "[-1, 1]"
        raise RootInForbiddenRegion(
            f"{kind} denominator has a root in {where}",
            witness=chain.witness(interval))


def certify_twist(g: Generator) -> Generator:
    """The generator certified: as it is when it carries a certificate,
    otherwise proved by its kind's ``of``."""
    if g.certificate is not None:
        return g
    if isinstance(g, TorusTwist):
        return TorusTwist.of(g.axis, g.p, g.q)
    if isinstance(g, TorusMoebius):
        return TorusMoebius.of(g.mx, g.my)
    if isinstance(g, SphereTwist):
        return SphereTwist.of(g.fixed, *g.triple())
    raise PreconditionFailed(f"unknown generator {type(g).__name__}")


# ---------------------------------------------------------------------------
# action on parameter series (shared by apply_point, apply_jet and jacobian_at)


def _eval(pol: Poly, s: Series | Scalar) -> Series | Scalar:
    """pol(s), through the Taylor shift of pol to the value of s.

    Only the first s.order coefficients of pol around s(0) survive
    composition with the deviation s - s(0), so deg pol costs one
    synthetic division per kept coefficient, not one series product.
    A Scalar s takes the shift's first coefficient alone.
    """
    if isinstance(s, Scalar):
        return pol.shifted(s, 1)[0]
    if pol.degree < 1:
        return Series.constant(pol[0], s.center, s.order)
    return compose_centered(poly_to_series(pol, s.value(), s.order), s)


def _hom_eval_series(pol: Poly, n: int, chart: int, loc: Series | Scalar):
    """Degree-n homogenization of pol at the pair (loc : 1) or (1 : loc)."""
    if chart == 1:
        pol = Poly([pol[n - k] for k in range(n + 1)])
    return _eval(pol, loc)


def _normalize_pair(s0: Series | Scalar, s1: Series | Scalar) -> tuple:
    """Return (chart, local part) for a homogeneous P1 pair of series, or
    of Scalars; a Scalar unit is a nonzero one, so a Scalar pair lands on
    chart 1 only at infinity itself, with local value s1 = 0."""
    if isinstance(s0, Scalar):
        if not s1.is_zero():
            return 0, s0 * s1.inverse()
        if not s0.is_zero():
            return 1, s1
    elif s1.valuation() == 0:
        return 0, s0 * s1.invert()
    elif s0.valuation() == 0:
        return 1, s1 * s0.invert()
    raise NotCurvilinear("homogeneous pair vanishes at the center")


def _moebius(m, f: tuple) -> tuple:
    """The (chart, local) pair f moved by the matrix m: the homogeneous
    pair (loc : 1) on chart 0, (1 : loc) on chart 1, times m, normalized."""
    chart, loc = f
    one = ONE if isinstance(loc, Scalar) else Series.constant(1, loc.center, loc.order)
    f0, f1 = (loc, one) if chart == 0 else (one, loc)
    return _normalize_pair(f0 * m[0][0] + f1 * m[0][1],
                           f0 * m[1][0] + f1 * m[1][1])


def _translate(ph, qh, moved: tuple) -> tuple:
    """The (chart, local) pair ``moved`` plus ph/qh, for the homogenized
    twist terms ph, qh, on Series or on Scalars.  qh is a unit (q has no
    real root and degree n), so the pair (m0 qh + ph m1 : m1 qh) never
    leaves its chart: m + ph/qh on chart 0, and m qh/(qh + ph m) on
    chart 1, where m vanishes at the center."""
    chart, m = moved
    if chart == 0:
        return 0, m + ph / qh
    return 1, m * qh / (qh + ph * m)


def _rotate_series(nv, dv, u, v) -> tuple:
    """(u, v) rotated by the angle whose half-angle tangent is nv/dv:
    ((u p - v q)/r, (u q + v p)/r) for (p, q, r) = (dv^2 - nv^2,
    2 nv dv, dv^2 + nv^2), on Series or on Scalars."""
    nn, dd, nd = nv * nv, dv * dv, nv * dv
    pv, qv = dd - nn, nd + nd
    r = dd + nn
    rinv = r.inverse() if isinstance(r, Scalar) else r.invert()
    return (u * pv - v * qv) * rinv, (u * qv + v * pv) * rinv


def _rotate(g: SphereTwist, t, nv, u, v) -> tuple:
    """(u, v) rotated by g, whose angle numerator at t is nv, as
    _rotate_series.  For d = 1 (every synthesized twist) and series nv,
    u, v it takes s = 2/(1 + a^2) for a = nv, so cos = s - 1 and
    sin = a s, and the image (s (u - a v) - u, s (a u + v) - v) is five
    products and one inverse of the series' polynomials."""
    if isinstance(nv, Series) and g.d.degree == 0 and g.d[0] == ONE:
        e, a, pu, pv = u.order, nv.poly, u.poly, v.poly
        s = (a.mul(a, e) + 1).inverse(e) * 2
        return (Series._of(u.center, e, s.mul(pu - a.mul(pv, e), e) - pu),
                Series._of(u.center, e, s.mul(a.mul(pu, e) + pv, e) - pv))
    return _rotate_series(nv, _eval(g.d, t), u, v)


def _push_torus(w: AutWord, par: TorusParam) -> TorusParam:
    x, y = par.x, par.y
    for g in w.generators:
        if isinstance(g, TorusTwist):
            src, moved = (x, y) if g.axis == "y" else (y, x)
            n = g.q.degree
            ph = _hom_eval_series(g.p, n, *src)
            if ph.is_zero():
                continue         # a zero translation moves nothing
            moved = _translate(ph, _hom_eval_series(g.q, n, *src), moved)
            x, y = (src, moved) if g.axis == "y" else (moved, src)
        else:
            x, y = _moebius(g.mx, x), _moebius(g.my, y)
    return TorusParam(x, y)


def _push_sphere(w: AutWord, par: SphereParam) -> SphereParam:
    for g in w.generators:
        names = SPHERE_CHARTS[g.fixed]
        t, u, v = (getattr(par, n) for n in names)
        nv = _eval(g.n, t)
        if nv.is_zero():
            # (p, q, r) = (d^2, 0, d^2), d(t) a unit (n, d coprime): identity
            continue
        u, v = _rotate(g, t, nv, u, v)
        par = replace(par, **{names[1]: u, names[2]: v})
    return par


def _push(w: AutWord, par):
    """The carried form par moved by w: the shared transport."""
    return (_push_torus if w.surface == TORUS else _push_sphere)(w, par)


def _point_form(pt: TorusPoint | SpherePoint):
    """A point as the transport carries it: the values of its order-1
    form, (chart, local value) pairs on the torus."""
    if isinstance(pt, TorusPoint):
        return TorusParam((pt.x.chart, pt.x.local), (pt.y.chart, pt.y.local))
    return SphereParam(*pt.coords())


def _carried(j: Jet):
    """jet_parametrize(j) as the transport carries it: an order-1 form
    as its values, since F[t]/(t) is F."""
    return jet_parametrize(j) if j.order > 1 else _point_form(j.center)


def _jet_of(par, order: int) -> Jet:
    """The jet along a carried form, an order-1 form's values wrapped
    back into order-1 series at 0 for the read-back."""
    if isinstance(par, TorusParam):
        if order == 1:
            par = TorusParam(*((c, Series(ZERO, 1, [v])) for c, v in (par.x, par.y)))
        return jet_from_torus_param(par, order)
    if order == 1:
        par = SphereParam(*(Series(ZERO, 1, [v]) for v in (par.x, par.y, par.z)))
    return jet_from_sphere_param(par, order)


def _point_of(par) -> TorusPoint | SpherePoint:
    """The center of a carried form, read off its values or constant terms."""
    val = lambda s: s if isinstance(s, Scalar) else s.value()
    if isinstance(par, TorusParam):
        (xc, x), (yc, y) = par.x, par.y
        return TorusPoint(ProjPoint.in_chart(xc, val(x)), ProjPoint.in_chart(yc, val(y)))
    return SpherePoint(val(par.x), val(par.y), val(par.z))


def apply_point(w: AutWord, pt: TorusPoint | SpherePoint):
    """Image of the point under the word; exact, total on real points.

    The point crosses the shared transport as the values of its order-1
    form (F[t]/(t) is F), and is read off them.
    """
    if not isinstance(pt, TorusPoint if w.surface == TORUS else SpherePoint):
        raise MixedSurfaces(f"{w.surface} word applied to a {type(pt).__name__}")
    return _point_of(_push(w, _point_form(pt)))


def apply_jet(w: AutWord, j: Jet) -> Jet:
    """Transport the jet, returning it in canonical graph form."""
    if j.surface != w.surface:
        raise MixedSurfaces("word and jet live on different surfaces")
    return _jet_of(_push(w, _carried(j)), j.order)


# ---------------------------------------------------------------------------
# Jacobians


def jacobian_at(w: AutWord, pt: TorusPoint | SpherePoint):
    """Exact derivative matrix at the point, in local chart coordinates.

    Rows index output coordinates, columns input directions.  Computed by
    transporting first-order perturbations through the word, which is the
    chain rule without writing down any intermediate formula.
    """
    torus = w.surface == TORUS
    values = (pt.x.local, pt.y.local) if torus else pt.coords()
    cols = []
    for d in range(len(values)):
        # the order-2 line through the point along input direction d
        local = [Series(ZERO, 2, [v, ONE if i == d else ZERO]) for i, v in enumerate(values)]
        if torus:
            out = _push_torus(w, TorusParam((pt.x.chart, local[0]), (pt.y.chart, local[1])))
            cols.append((out.x[1].coeffs[1], out.y[1].coeffs[1]))
        else:
            out = _push_sphere(w, SphereParam(*local))
            cols.append((out.x.coeffs[1], out.y.coeffs[1], out.z.coeffs[1]))
    return tuple(zip(*cols))


# ---------------------------------------------------------------------------
# serialization


def _poly_from_json(arr) -> Poly:
    return poly_from_json(json_list(arr, "polynomial"))


def generator_to_json(g: Generator) -> dict:
    """The generator's data keys only; a load re-proves it from them."""
    if isinstance(g, TorusTwist):
        return {"type": "twist", "axis": g.axis,
                "p": poly_to_json(g.p), "q": poly_to_json(g.q)}
    if isinstance(g, SphereTwist):
        p, q, r = g.triple()
        return {"type": "twist", "fixed": g.fixed, "p": poly_to_json(p),
                "q": poly_to_json(q), "r": poly_to_json(r)}
    ser = lambda m: [[scalar_to_json(e) for e in row] for row in m]
    return {"type": "moebius", "mx": ser(g.mx), "my": ser(g.my)}


def generator_from_json(surface: str, d: dict) -> Generator:
    """Rebuild and re-certify; keys other than the data are ignored."""
    if d["type"] not in ("twist", "moebius"):
        raise PreconditionFailed(f"unknown generator type {d['type']!r}")
    if d["type"] == "moebius":
        rows = lambda m: [scalars_from_json(row, "moebius row") for row in m]
        return TorusMoebius.of(rows(d["mx"]), rows(d["my"]))
    arrs = [d[k] for k in ("pq" if surface == TORUS else "pqr")]
    # bounded by list length, before any scalar is parsed
    if any(type(a) is list and len(a) > MAX_TWIST_DEGREE + 1 for a in arrs):
        raise PreconditionFailed(
            f"a twist polynomial may have degree at most {MAX_TWIST_DEGREE}")
    if surface == TORUS:
        return TorusTwist.of(d["axis"], *map(_poly_from_json, arrs))
    return SphereTwist.of(d["fixed"], *map(_poly_from_json, arrs))


def word_to_json(w: AutWord) -> dict:
    return {"surface": w.surface,
            "generators": [generator_to_json(g) for g in w.generators]}


def word_from_json(d: dict) -> AutWord:
    surface = d["surface"]
    if surface not in (TORUS, SPHERE):
        raise MixedSurfaces(f"unknown surface {surface!r}")
    return AutWord(surface,
                   tuple(generator_from_json(surface, g) for g in d["generators"]))
