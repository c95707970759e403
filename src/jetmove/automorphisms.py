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

Every generator carries its proof route, one of its kind's ROUTES, and
only its kind's constructors name one.  Synthesis builds by shape:
TorusTwist.square (q = 1 + m^2) and SphereTwist.half_angle (d = 1).
What is read from outside is proved on load by its kind's ``of``:
TorusTwist.of proves a q = 1 + m^2 from its coefficients (a rational q
by an integer square root of q - 1 over Z, a tower q by a series root)
and any other q by Sturm counts, TorusMoebius.of checks both
determinants, and SphereTwist.of recovers n/d from a sphere triple by
the gcd of q and r + p and proves p^2 + q^2 = r^2 by one product
identity.  A word file holds only generator data; str(g) renders the
formula.  Twist polynomial text in Q or one Q(sqrt r) is read and
written on the integer form (exactalg's poly_from_json and
poly_to_json), other text one Scalar at a time.  A d = 1 sphere twist's
p, -r past the constant term, is written as r's texts negated, and its
load proves the triple on the vectors of r's and q's texts
(half_angle_from_json) and builds it by half_angle, not of.  That
reader proves every d = 1 twist over Q or one Q(sqrt r), quarter turns
n = +-1 included, whose p = 0 is written as no texts; of takes the rest.

AutWord composes generators left-to-right and refuses one whose route
is not of its kind.  Jets move through their parameter form
(surfaces.TorusParam or SphereParam) and come back in canonical form,
and a Jacobian as an order-2 jet: one transport serves all.  A point
is an order-1 form, over F[t]/(t), which is the field F itself, so the
transport carries it as its values, plain Scalars (_carried), and the
read-back builds the order-1 jet straight from its point (point_jet),
with no series arithmetic; the separation stages carry their forms that
way for a whole stage.  Only the leaves (_eval, _moebius's homogeneous
pair, _normalize_pair, the sphere's 1/r, param_point) and _rotate's
choice of formula tell a Scalar from a Series.  Torus coordinates travel as
(chart, local) pairs, so nothing breaks over infinity; Moebius maps form
homogeneous pairs and normalize their result back at once.  A twist
polynomial meets a series only through its Taylor shift to the series'
value.  A twist step with a zero angle or translation is skipped, as it
moves nothing, and so is a Moebius factor that is a multiple of the
identity.

A jet's transport (apply_jet, and so every check of a word) also keeps
the carried form inside the jet's own field.  A parametrization can hold
a larger field than its jet: a pair word's halves meet at a rational
standard jet that is still carried in the first half's Q(sqrt r).  So
before a twist step over a field other than the carried form's
(exactalg's same_field), the step's angle or translation is tested for
zero from its Taylor coefficients alone (_fixes); a step that moves the
form has it read back as its canonical jet and carried again from that
(_reread), and only then moves it.  Points carry their values, which
need no such read, and jacobian_at reads the parametrization's own
coefficients, so neither re-reads.

Each twist step is one closed formula in plain Series, Poly or Scalar
arithmetic; how a polynomial stores its coefficients is exactalg's
business.  A torus twist never moves a coordinate off its chart, since
its homogenized q is a unit: a chart-0 local m becomes m + ph/qh, a
chart-1 one m qh/(qh + ph m).  A sphere twist with d = 1, as every
synthesized one is, moves series (u, v) to ((1 - a^2) u - 2a v,
2a u + (1 - a^2) v)/(1 + a^2) for a = n(t), one exactalg entry
(half_angle_rotation) with one inverse and one reduction per image on
one integer form; a point's values and other series take it with one
square.  A general d and the half turn keep the full rotation formula.
"""

from __future__ import annotations

from .errors import (DegreeMismatch, IdentityFails, PreconditionFailed,
                     RootInForbiddenRegion, ensure)
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, SturmChain,
                       compose_centered, half_angle_from_json, half_angle_rotation,
                       half_angle_to_json, poly_from_json, poly_gcd, poly_sqrt,
                       poly_to_json, poly_to_series, same_field, scal,
                       scalar_to_json)
from .surfaces import (SPHERE, SPHERE_CHARTS, TORUS, Jet, SphereParam,
                       SpherePoint, TorusParam, TorusPoint, jet_from_sphere_param,
                       jet_from_torus_param, jet_parametrize, json_field, json_list,
                       param_point, point_jet, scalars_from_json)
from .values import Value

# highest twist degree a word file may hold; a load Sturm-checks up to it
MAX_TWIST_DEGREE = 64
_UNIT = Poly.const(1)       # the d of every twist half_angle builds, one shared value


# ---------------------------------------------------------------------------
# generators


class TorusTwist(Value):
    """Translation of ``axis`` by p/q, a function of the other coordinate.

    ``route`` is one of ROUTES.  torus-twist-square: q - 1 = m^2 for an
    exact m (so q >= 1) and deg p = deg q; ``of`` finds m by an integer
    square root of q - 1's integer form, or in a tower by a series root
    (exactalg's poly_sqrt).  torus-twist: a Sturm count of q on the real
    line, and deg p = deg q.
    """
    __slots__ = ("axis", "p", "q", "route")
    surface = TORUS
    ROUTES = ("torus-twist-square", "torus-twist")

    def __init__(self, axis: str, p: Poly, q: Poly, *, route: str):
        object.__setattr__(self, "axis", axis)    # coordinate being translated, "x" or "y"
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "route", route)

    @staticmethod
    def of(axis: str, p, q) -> TorusTwist:
        """The certified twist adding p/q to ``axis``.

        q = 1 + m^2 for an m recovered from q's coefficients is proved by
        that shape; any other q by a Sturm count on the real line.  The
        root is checked before the degree, so a candidate failing both
        reports the root.
        """
        _check_coordinate(axis, ("x", "y"), "twist axis must be x or y")
        p, q = _as_poly(p), _as_poly(q)
        if poly_sqrt(q - ONE) is not None:
            route = "torus-twist-square"
        else:
            _root_free(q, None, "twist")
            route = "torus-twist"
        if p.degree != q.degree:
            raise DegreeMismatch(f"deg p = {p.degree} but deg q = {q.degree}")
        return TorusTwist(axis, p, q, route=route)

    @staticmethod
    def square(axis: str, p: Poly, m: Poly) -> TorusTwist:
        """The twist adding p/(1 + m^2) to ``axis``, certified by its shape:
        q = 1 + m^2 is at least 1 on R, and deg p = deg q is checked."""
        _check_coordinate(axis, ("x", "y"), "twist axis must be x or y")
        q = Poly.const(1) + m * m
        ensure(p.degree == q.degree, "twist numerator and denominator degrees differ")
        return TorusTwist(axis, p, q, route="torus-twist-square")

    def inverse(self) -> TorusTwist:
        return self.replace(p=-self.p)

    def __str__(self):
        o = "y" if self.axis == "x" else "x"
        return f"{self.axis} -> {self.axis} + ({self.p.str_in(o)})/({self.q.str_in(o)})"


class TorusMoebius(Value):
    """A fractional-linear map on each factor; its one route, moebius, is
    that both matrices are nonsingular."""
    __slots__ = ("mx", "my", "route")
    surface = TORUS
    ROUTES = ("moebius",)

    def __init__(self, mx: tuple, my: tuple, *, route: str):   # 2x2 Scalar matrices
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "route", route)

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
        return TorusMoebius(mx, my, route="moebius")

    def inverse(self) -> TorusMoebius:
        adj = lambda m: ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        return self.replace(mx=adj(self.mx), my=adj(self.my))

    def __str__(self):
        f = lambda m: f"(({m[0][0]}, {m[0][1]}), ({m[1][0]}, {m[1][1]}))"
        return f"moebius x: {f(self.mx)}, y: {f(self.my)}"


class SphereTwist(Value):
    """Rotation whose tangent half-angle is n/d, a function of ``fixed``.

    n/d is in lowest terms with d monic; the half turn is n = 1, d = 0.
    ``route`` is one of ROUTES.  sphere-twist-square: (r - p)(r + p) =
    q^2 and deg r = 2 max(deg n, deg d), so r is a nonzero constant
    times d^2 + n^2, which has no real root.  sphere-twist: a Sturm count
    of r on [-1, 1], then the same identity.
    """
    __slots__ = ("fixed", "n", "d", "route")
    surface = SPHERE
    ROUTES = ("sphere-twist-square", "sphere-twist")

    def __init__(self, fixed: str, n: Poly, d: Poly, *, route: str):
        object.__setattr__(self, "fixed", fixed)  # invariant coordinate carrying the angle
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "route", route)

    @staticmethod
    def of(fixed: str, p, q, r) -> SphereTwist:
        """The certified twist with cos = p/r and sin = q/r, from Polys or
        coefficient lists.

        Its half-angle is n/d = q/(r + p) reduced by their gcd, and p^2 +
        q^2 = r^2 is checked as (r - p)(r + p) = q^2.  When it holds, r is
        a polynomial lam times d^2 + n^2, which has no real root because
        n and d are coprime, and whose leading coefficient is positive; so
        lam is a nonzero constant, needing no root count, exactly when
        deg r = 2 max(deg n, deg d), as for d = 1.
        Any other r is Sturm-checked on [-1, 1] before the identity, so a
        candidate failing both reports the root.
        """
        _check_coordinate(fixed, ("x", "y", "z"), "fixed coordinate must be x, y or z")
        p, q, r = _as_poly(p), _as_poly(q), _as_poly(r)
        s = r + p
        if s.is_zero():
            n, d = Poly.const(1), Poly()
        else:
            g = poly_gcd(q, s)
            d = s // g
            unit = d.lead().inverse()
            n, d = q // g * unit, d * unit
        holds = (r - p) * s == q * q
        if holds and r.degree == 2 * max(n.degree, d.degree):
            route = "sphere-twist-square"
        else:
            _root_free(r, (scal(-1), scal(1)), "rotation")
            route = "sphere-twist"
        if not holds:
            raise IdentityFails("p^2 + q^2 differs from r^2")
        return SphereTwist(fixed, n, d, route=route)

    @staticmethod
    def half_angle(fixed: str, a: Poly) -> SphereTwist:
        """The twist with tangent half-angle a, certified by its shape:
        p = 1 - a^2, q = 2a and r = 1 + a^2 >= 1, so p^2 + q^2 = r^2."""
        _check_coordinate(fixed, ("x", "y", "z"), "fixed coordinate must be x, y or z")
        return SphereTwist(fixed, a, _UNIT, route="sphere-twist-square")

    def triple(self) -> tuple[Poly, Poly, Poly]:
        """(p, q, r) = (d^2 - n^2, 2nd, d^2 + n^2)."""
        n, d = self.n, self.d
        nn, dd, nd = n * n, d * d, n * d
        return dd - nn, nd + nd, dd + nn

    def inverse(self) -> SphereTwist:
        if self.d.is_zero():
            return self          # the half turn, kept as n = 1
        return self.replace(n=-self.n)

    def __str__(self):
        v = self.fixed
        if self.d.is_zero():
            return f"rotate about {v} by a half turn"
        return (f"rotate about {v} by angle with tan(angle/2) = "
                f"({self.n.str_in(v)})/({self.d.str_in(v)})")


def _check_coordinate(name, allowed: tuple, message: str) -> None:
    if name not in allowed:
        raise PreconditionFailed(message)


def _as_poly(p) -> Poly:
    if isinstance(p, Poly):
        return p
    return Poly(p)


Generator = TorusTwist | TorusMoebius | SphereTwist


class AutWord(Value):
    """Generators applied left-to-right; one surface, each generator
    carrying a proof route of its kind."""
    __slots__ = ("surface", "generators")

    def __init__(self, surface: str, generators: tuple[Generator, ...]):
        for g in generators:
            if g.surface != surface:
                raise PreconditionFailed("word mixes torus and sphere generators")
            if not (isinstance(g.route, str) and g.route in g.ROUTES):
                raise PreconditionFailed(f"no {type(g).__name__} route {g.route!r}")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "generators", generators)

    def __len__(self):
        return len(self.generators)


def word_identity(surface: str) -> AutWord:
    return AutWord(surface, ())


def word_concat(*words: AutWord) -> AutWord:
    surfaces = {w.surface for w in words}
    if len(surfaces) != 1:
        raise PreconditionFailed("cannot concatenate words on different surfaces")
    gens: tuple[Generator, ...] = ()
    for w in words:
        gens = gens + w.generators
    return AutWord(surfaces.pop(), gens)


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
    """g proved again from its data by its kind's ``of``.  No package code
    calls it; it stays because the benchmark's tracer names it, and the
    tests check each synthesized route against it."""
    if isinstance(g, TorusTwist):
        return TorusTwist.of(g.axis, g.p, g.q)
    if isinstance(g, TorusMoebius):
        return TorusMoebius.of(g.mx, g.my)
    return SphereTwist.of(g.fixed, *g.triple())


# ---------------------------------------------------------------------------
# action on parameter series (shared by apply_point, apply_jet and jacobian_at)


def _eval(pol: Poly, s: Series | Scalar) -> Series | Scalar:
    """pol(s), through the Taylor shift of pol to the value of s.

    Only the first s.order coefficients of pol around s(0) survive
    composition with the deviation s - s(0), so deg pol costs one
    synthetic division per kept coefficient, not one series product.
    A Scalar s is a plain evaluation.
    """
    if isinstance(s, Scalar):
        return pol(s)
    return compose_centered(poly_to_series(pol, s.value(), s.order), s)


def _fixes(pol: Poly, s: Series) -> bool:
    """Whether pol(s) is zero, read off pol's Taylor coefficients c_k at
    s(0) with no product formed: pol(s) is the sum of c_k (s - s(0))^k,
    and a deviation of valuation v puts term k at valuation k v exactly,
    so pol(s) is zero exactly when c_k is zero for every k with k v below
    the order."""
    dev = s.poly.valuation(1) or s.order
    return pol.shifted(s.value(), -(-s.order // dev)).is_zero()


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
    raise PreconditionFailed("homogeneous pair vanishes at the center")


def _moebius(m, f: tuple) -> tuple:
    """The (chart, local) pair f moved by the matrix m: the homogeneous
    pair (loc : 1) on chart 0, (1 : loc) on chart 1, times m, normalized."""
    chart, loc = f
    if m[0][1].is_zero() and m[1][0].is_zero() and m[0][0] == m[1][1]:
        return f         # a multiple of the identity moves nothing
    if chart == 0:
        return _normalize_pair(loc * m[0][0] + m[0][1], loc * m[1][0] + m[1][1])
    return _normalize_pair(loc * m[0][1] + m[0][0], loc * m[1][1] + m[1][0])


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
    2 nv dv, dv^2 + nv^2), on Series or on Scalars; dv None is 1."""
    nn = nv * nv
    if dv is None:
        pv, qv, r = 1 - nn, nv + nv, 1 + nn
    else:
        dd, nd = dv * dv, nv * dv
        pv, qv, r = dd - nn, nd + nd, dd + nn
    rinv = r.inverse() if isinstance(r, Scalar) else r.invert()
    return (u * pv - v * qv) * rinv, (u * qv + v * pv) * rinv


def _rotate(g: SphereTwist, t, nv, u, v) -> tuple:
    """(u, v) rotated by g, whose angle numerator at t is nv, as
    _rotate_series.  For d = 1 (every synthesized twist) the half-angle
    tangent is a = nv and d is not evaluated: half_angle_rotation turns
    series on one integer form by it, and anything else takes dv None."""
    if not (g.d.degree == 0 and g.d[0] == ONE):
        return _rotate_series(nv, _eval(g.d, t), u, v)
    if not isinstance(nv, Scalar):
        xy = half_angle_rotation(nv.poly, u.poly, v.poly, u.order)
        if xy:
            return tuple(Series._of(u.center, u.order, w) for w in xy)
    return _rotate_series(nv, None, u, v)


def _push_torus(w: AutWord, par: TorusParam, reread: bool = False) -> TorusParam:
    x, y = par.x, par.y
    for g in w.generators:
        if isinstance(g, TorusTwist):
            # p, q homogenized at (loc : 1) or (1 : loc); a re-read keeps the chart
            n = g.q.degree
            chart, loc = x if g.axis == "y" else y
            p, q = (g.p.reversed(n), g.q.reversed(n)) if chart == 1 else (g.p, g.q)
            if reread and not same_field((g.p, g.q, x[1].poly, y[1].poly)):
                if _fixes(p, loc):
                    continue
                par = _reread(TorusParam(x, y))
                x, y = par.x, par.y
            src, moved = (x, y) if g.axis == "y" else (y, x)
            ph = _eval(p, src[1])
            if ph.is_zero():
                continue         # a zero translation moves nothing
            moved = _translate(ph, _eval(q, src[1]), moved)
            x, y = (src, moved) if g.axis == "y" else (moved, src)
        else:
            x, y = _moebius(g.mx, x), _moebius(g.my, y)
    return TorusParam(x, y)


def _push_sphere(w: AutWord, par: SphereParam, reread: bool = False) -> SphereParam:
    for g in w.generators:
        names = SPHERE_CHARTS[g.fixed]
        t, u, v = (getattr(par, n) for n in names)
        if reread and not same_field((g.n, g.d, t.poly, u.poly, v.poly)):
            if _fixes(g.n, t):
                continue
            par = _reread(par)
            t, u, v = (getattr(par, n) for n in names)
        nv = _eval(g.n, t)
        if nv.is_zero():
            # (p, q, r) = (d^2, 0, d^2), d(t) a unit (n, d coprime): identity
            continue
        u, v = _rotate(g, t, nv, u, v)
        par = par.replace(**{names[1]: u, names[2]: v})
    return par


def _push(w: AutWord, par, reread: bool = False):
    """The carried form par moved by w: the shared transport.  With
    ``reread`` (series forms only), a form about to be moved by a twist
    over another field is first read back as its canonical jet and
    carried from that (_reread)."""
    return (_push_torus if w.surface == TORUS else _push_sphere)(w, par, reread)


def _reread(par):
    """The series form par carried again from the canonical jet along it:
    one parametrization of the same jet, inside the jet's own field."""
    order = (par.x[1] if isinstance(par, TorusParam) else par.x).order
    return jet_parametrize(_jet_of(par, order))


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
    """The jet along a carried form; an order-1 form, a point's values,
    is read straight off its point, as jet_from_*_param reads it."""
    if order == 1:
        return point_jet(param_point(par))
    torus = isinstance(par, TorusParam)
    return (jet_from_torus_param if torus else jet_from_sphere_param)(par, order)


def apply_point(w: AutWord, pt: TorusPoint | SpherePoint):
    """Image of the point under the word; exact, total on real points.

    The point crosses the shared transport as the values of its order-1
    form (F[t]/(t) is F), and is read off them.
    """
    _check_point(w, pt)
    return param_point(_push(w, _point_form(pt)))


def _check_point(w: AutWord, pt) -> None:
    if not isinstance(pt, TorusPoint if w.surface == TORUS else SpherePoint):
        raise PreconditionFailed(f"{w.surface} word applied to a {type(pt).__name__}")


def apply_jet(w: AutWord, j: Jet) -> Jet:
    """Transport the jet, returning it in canonical graph form."""
    if j.surface != w.surface:
        raise PreconditionFailed("word and jet live on different surfaces")
    return _jet_of(_push(w, _carried(j), j.order > 1), j.order)


# ---------------------------------------------------------------------------
# Jacobians


def jacobian_at(w: AutWord, pt: TorusPoint | SpherePoint):
    """Exact derivative matrix at the point, in local chart coordinates.

    Rows index output coordinates, columns input directions.  Computed by
    transporting first-order perturbations through the word, which is the
    chain rule without writing down any intermediate formula.
    """
    _check_point(w, pt)
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


def generator_to_json(g: Generator) -> dict:
    """The generator's data keys only; a load re-proves it from them."""
    if isinstance(g, TorusTwist):
        return {"type": "twist", "axis": g.axis,
                "p": poly_to_json(g.p), "q": poly_to_json(g.q)}
    if isinstance(g, SphereTwist):
        p, q, r = half_angle_to_json(g.n, g.d) or map(poly_to_json, g.triple())
        return {"type": "twist", "fixed": g.fixed, "p": p, "q": q, "r": r}
    ser = lambda m: [[scalar_to_json(e) for e in row] for row in m]
    return {"type": "moebius", "mx": ser(g.mx), "my": ser(g.my)}


def generator_from_json(surface: str, d: dict) -> Generator:
    """Rebuild and re-certify; keys other than the data are ignored."""
    kind = json_field(d, "type", "generator")
    if kind not in ("twist", "moebius"):
        raise PreconditionFailed(f"unknown generator type {kind!r}")
    if kind == "moebius":
        rows = lambda k: [scalars_from_json(row, "moebius row") for row in
                          json_list(json_field(d, k, "generator"), "moebius matrix")]
        return TorusMoebius.of(rows("mx"), rows("my"))
    arrs = [json_list(json_field(d, k, "generator"), "polynomial")
            for k in ("pq" if surface == TORUS else "pqr")]
    # bounded by list length, before any scalar is parsed
    if any(len(a) > MAX_TWIST_DEGREE + 1 for a in arrs):
        raise PreconditionFailed(
            f"a twist polynomial may have degree at most {MAX_TWIST_DEGREE}")
    if surface == TORUS:
        return TorusTwist.of(json_field(d, "axis", "generator"), *map(poly_from_json, arrs))
    fixed = json_field(d, "fixed", "generator")
    n = half_angle_from_json(*arrs)          # a d = 1 twist, proved on its texts
    if n is not None:
        return SphereTwist.half_angle(fixed, n)
    return SphereTwist.of(fixed, *map(poly_from_json, arrs))


def word_to_json(w: AutWord) -> dict:
    return {"surface": w.surface,
            "generators": [generator_to_json(g) for g in w.generators]}


def word_from_json(d: dict) -> AutWord:
    surface = json_field(d, "surface", "word")
    if surface not in (TORUS, SPHERE):
        raise PreconditionFailed(f"unknown surface {surface!r}")
    gens = json_list(json_field(d, "generators", "word"), "generators")
    return AutWord(surface, tuple(generator_from_json(surface, g) for g in gens))
