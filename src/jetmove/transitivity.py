"""Synthesis of automorphism words moving jet tuples into position.

The pipeline for both surfaces runs standard -> target through three
stages, then returns the composition in the right order:

1. separate_points_*: a word taking the target centers to the standard
   centers, built from generic moves with exactly-tested rational
   parameters and interpolated twists (one shared twist adjusts every
   point at once, with CRT choosing the local values).
2. make_nonvertical_*: one parameter twist, with the parameter chosen
   from an ordered rational enumeration avoiding the finitely many
   values that would leave some jet vertical.
3. A final interpolated twist matching the standard jets to the moved
   targets exactly, graph by graph.

Every generic choice enumerates rationals in a fixed order and takes
the first that passes its exact test, so identical inputs produce
identical words.  ENUM_LIMIT caps how many candidates any single choice
may try.  Each generator carries its certificate from how it is built,
so synthesis proves nothing twice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .automorphisms import (AutWord, Certificate, SphereTwist, TorusMoebius,
                            TorusTwist, apply_jet, apply_point, word_concat,
                            word_identity, word_inverse)
from .errors import (DuplicatePoints, EnumerationExhausted, MixedSurfaces,
                     NotDistant, OrderMismatch, PreconditionFailed, ensure)
from .exactalg import (ONE, ZERO, Poly, Scalar, Series, crt_combine,
                       crt_with_modulus, hensel_sqrt, poly_to_series, scal,
                       scalar_sqrt_adjoin)
from .surfaces import (SPHERE, TORUS, Jet, SpherePoint, TorusPoint, jet_is_vertical,
                       jet_tangent_vector, jets_mutually_distant,
                       sphere_standard_center, standard_config,
                       torus_standard_center)

# candidates one generic choice may try before EnumerationExhausted
ENUM_LIMIT = 1000


def enumerate_rationals():
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, ... every rational exactly once."""
    yield Fraction(0)
    h = 1
    while True:
        for den in range(1, h + 1):
            for num in range(1, h + 1):
                if max(num, den) == h and gcd(num, den) == 1:
                    yield Fraction(num, den)
                    yield Fraction(-num, den)
        h += 1


def _pick(test, what: str, skip_zero: bool = False) -> Scalar:
    tried = 0
    for r in enumerate_rationals():
        if skip_zero and r == 0:
            continue
        if tried >= ENUM_LIMIT:
            break
        tried += 1
        c = scal(r)
        if test(c):
            return c
    raise EnumerationExhausted(f"no admissible rational for {what} in {ENUM_LIMIT} tries")


def _pick_pair(test, what: str) -> tuple[Scalar, Scalar]:
    """First pair (by diagonal order) passing the exact test."""
    pool: list[Fraction] = []
    gen = enumerate_rationals()
    tried = 0
    for n in range(ENUM_LIMIT):
        while len(pool) <= n:
            pool.append(next(gen))
        for i in range(n + 1):
            if tried >= ENUM_LIMIT:
                raise EnumerationExhausted(
                    f"no admissible rational pair for {what} in {ENUM_LIMIT} tries")
            tried += 1
            a, b = scal(pool[i]), scal(pool[n - i])
            if test(a, b):
                return a, b
    raise EnumerationExhausted(f"no admissible rational pair for {what} in {ENUM_LIMIT} tries")


# ---------------------------------------------------------------------------
# interpolated generators


def interpolating_twist(axis: str, residues) -> TorusTwist | None:
    """Torus twist adding value_i to ``axis`` at node i of the other factor.

    residues are (center, order, value) as for crt_combine, and M is their
    node product.  The twist is p/q with q = 1 + M^2 and p the CRT
    interpolant plus M^2: q is 1 at every node and at least 1 on R, and
    deg p = deg q since the interpolant's degree is below deg M, so the
    twist is certified as built.  None when every value is zero.
    """
    p0, m = crt_with_modulus(residues)
    if p0.is_zero():
        return None
    ensure(p0.degree < m.degree, "CRT interpolant reaches the node degree")
    mm = m * m
    return TorusTwist(axis, p0 + mm, Poly.const(1) + mm,
                      certificate=Certificate("torus-twist-square"))


def _half_angle_twist(fixed: str, a: Poly) -> SphereTwist:
    """Sphere twist with tangent half-angle a: p = 1 - a^2, q = 2a, r = 1 + a^2.

    r = 1 + a^2 >= 1 and p^2 + q^2 = r^2 hold by construction, so the
    twist is certified as built, with nothing to compute.
    """
    return SphereTwist(fixed, a, Poly.const(1),
                       certificate=Certificate("sphere-twist-square"))


def rotation_twist(fixed: str, residues) -> SphereTwist | None:
    """Sphere twist with tangent-half-angle polynomial interpolated by CRT.

    a = a_i mod (x - c_i)^{e_i}, built by _half_angle_twist.  None when a
    vanishes identically.
    """
    a = crt_combine(residues)
    if a.is_zero():
        return None
    return _half_angle_twist(fixed, a)


# ---------------------------------------------------------------------------
# point separation, torus


def _check_distinct_points(points, cls):
    for p in points:
        if not isinstance(p, cls):
            raise MixedSurfaces(f"expected {cls.__name__}, got {type(p).__name__}")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                raise DuplicatePoints(f"points {i} and {j} coincide")


def separate_points_torus(points) -> AutWord:
    """Word taking point i (0-based input order) to (i+1, 0)."""
    pts = list(points)
    _check_distinct_points(pts, TorusPoint)
    gens = []

    def push(g):
        nonlocal pts
        gens.append(g)
        w = AutWord(TORUS, (g,))
        pts = [apply_point(w, p) for p in pts]

    # everything into the affine chart
    if any(p.x.is_infinite or p.y.is_infinite for p in pts):
        ident = ((ONE, ZERO), (ZERO, ONE))

        def chart_matrix(coords):
            if not any(c.is_infinite for c in coords):
                return ident
            finite = [c.value for c in coords if not c.is_infinite]
            alpha = _pick(lambda r: all(not (r == v) for v in finite),
                          "affine chart shift")
            return ((ZERO, ONE), (ONE, -alpha))

        # each matrix has determinant 1 or -1: certified as built
        push(TorusMoebius(chart_matrix([p.x for p in pts]),
                          chart_matrix([p.y for p in pts]),
                          certificate=Certificate("moebius")))

    def distinct(vals):
        return all(not (vals[i] == vals[j])
                   for i in range(len(vals)) for j in range(i + 1, len(vals)))

    # distinct y everywhere: shift each x-group by its own amount
    ys = [p.y.value for p in pts]
    if not distinct(ys):
        groups: list[tuple[Scalar, list[Scalar]]] = []
        for p in pts:
            for gx, members in groups:
                if gx == p.x.value:
                    members.append(p.y.value)
                    break
            else:
                groups.append((p.x.value, [p.y.value]))
        taken: list[Scalar] = []
        residues = []
        for gx, members in groups:
            shift = _pick(
                lambda r: all(not (y + r == t) for y in members for t in taken),
                "y-separating shift")
            taken.extend(y + shift for y in members)
            residues.append((gx, 1, shift))
        tw = interpolating_twist("y", residues)
        ensure(tw is not None, "y-separating twist came out as the identity")
        push(tw)

    # x-corrections over the now-distinct y nodes
    if any(not (p.x.value == scal(i)) for i, p in enumerate(pts, 1)):
        residues = [(p.y.value, 1, scal(i) - p.x.value)
                    for i, p in enumerate(pts, 1)]
        push(interpolating_twist("x", residues))

    # zero out y over the standard x nodes
    if any(not p.y.value.is_zero() for p in pts):
        residues = [(scal(i), 1, -p.y.value) for i, p in enumerate(pts, 1)]
        push(interpolating_twist("y", residues))

    for i, p in enumerate(pts, 1):
        ensure(p == torus_standard_center(i), f"point {i - 1} missed its center")
    return AutWord(TORUS, tuple(gens))


# ---------------------------------------------------------------------------
# point separation, sphere


def separate_points_sphere(points, orders=None) -> AutWord:
    """Word taking point i to the standard equator center i+1.

    Stages: a generic constant rotation making x-coordinates distinct and
    off +-1; a fiber rotation to chosen heights v_i (adjoining one square
    root per point); a rotation about y moving each x to its target; a
    final fiber rotation landing on the equator.  Each v_i is a rational
    point of the circle of radius Y_i, so the x-move and the equator drop
    stay rational and every half-angle is finite.

    ``orders`` (default all 1) gives the jet order riding on each point:
    the varying stages emit one twist per point, constant to that order at
    its own point and vanishing to it at every other, so a transported jet
    only ever meets the one square root adjoined for it.
    """
    pts = list(points)
    _check_distinct_points(pts, SpherePoint)
    n = len(pts)
    if orders is None:
        orders = [1] * n
    targets = [sphere_standard_center(i) for i in range(1, n + 1)]
    if pts == targets:
        return word_identity(SPHERE)
    gens = []

    def push(g):
        nonlocal pts
        if g is None:
            return
        gens.append(g)
        w = AutWord(SPHERE, (g,))
        pts = [apply_point(w, p) for p in pts]

    def xs_good(ps):
        xs = [p.x for p in ps]
        for i in range(len(xs)):
            if xs[i] == ONE or xs[i] == -ONE:
                return False
            for j in range(i + 1, len(xs)):
                if xs[i] == xs[j]:
                    return False
        return True

    if not xs_good(pts):
        def try_pair(s, t):
            cand = []
            if not t.is_zero():
                cand.append(_half_angle_twist("x", Poly.const(t)))
            if not s.is_zero():
                cand.append(_half_angle_twist("z", Poly.const(s)))
            if not cand:
                return False
            w = AutWord(SPHERE, tuple(cand))
            return xs_good([apply_point(w, p) for p in pts])

        s, t = _pick_pair(try_pair, "generic rotation")
        if not t.is_zero():
            push(_half_angle_twist("x", Poly.const(t)))
        if not s.is_zero():
            push(_half_angle_twist("z", Poly.const(s)))

    # fiber heights v_i = Y_i (1-s^2)/(1+s^2) for rational s, so the later
    # x-move leg sqrt(Y_i^2 - v_i^2) = 2 Y_i s/(1+s^2) is rational and the
    # only adjoined root per point is the fiber one; heights stay distinct,
    # strictly inside the fiber circle, and off every half-turn
    vs: list[Scalar] = []
    ws: list[Scalar] = []
    for p, tgt in zip(pts, targets):
        rho2 = ONE - p.x * p.x

        def leg(s, tgt=tgt):
            den = ONE + s * s
            return (tgt.y * (ONE - s * s) / den, (tgt.y * s + tgt.y * s) / den)

        def ok(s, p=p, tgt=tgt, rho2=rho2):
            v, w = leg(s)
            if not (v * v < rho2):
                return False
            if v == -p.y:
                return False
            # the x-move from (z, x) to (w, tgt.x) must not be a half-turn
            if tgt.x == -p.x and w.sign() <= 0 and w * w == rho2 - v * v:
                return False
            return all(not (v == u) for u in vs)

        v, w = leg(_pick(ok, "fiber height"))
        vs.append(v)
        ws.append(w)

    def half_angle(c, s, denom):
        # tangent half-angle of the rotation with cos = c/denom, sin = s/denom
        return s / (denom + c)

    def push_each(fixed, nodes, values):
        # one twist per point: constant angle to jet order at its own node,
        # zero to jet order at the others, so no two ground fields mix
        for i, val in enumerate(values):
            res = [(nodes[k], orders[k], val if k == i else 0)
                   for k in range(n)]
            push(rotation_twist(fixed, res))

    values = []
    for p, v in zip(pts, vs):
        rho2 = ONE - p.x * p.x
        z = scalar_sqrt_adjoin(rho2 - v * v)
        c = p.y * v + p.z * z
        s = p.y * z - p.z * v
        values.append(half_angle(c, s, rho2))
    push_each("x", [p.x for p in pts], values)

    # move x to its target along the circle of constant y
    values = []
    for p, tgt, w in zip(pts, targets, ws):
        r2 = ONE - p.y * p.y
        c = p.z * w + p.x * tgt.x
        s = p.z * tgt.x - p.x * w
        values.append(half_angle(c, s, r2))
    push_each("y", [p.y for p in pts], values)

    # drop to the equator within each target fiber; all angles are rational
    # here, so a single interpolated twist is fine
    residues = []
    for p, tgt, e in zip(pts, targets, orders):
        c = p.y * tgt.y
        s = -(p.z * tgt.y)
        residues.append((p.x, e, half_angle(c, s, tgt.y * tgt.y)))
    push(rotation_twist("x", residues))

    ensure(pts == targets, "points missed their standard centers")
    return AutWord(SPHERE, tuple(gens))


# ---------------------------------------------------------------------------
# non-verticality


def make_nonvertical_torus(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """One x-twist leaving centers (i, 0) fixed and no jet vertical.

    The twist is x -> x + lam*(y + y^2)/(1 + y^2), whose derivative at
    y = 0 is lam; a jet with tangent (a, b) maps to one with tangent
    (a + lam*b, b), so lam only needs to avoid the values -a_i/b_i.  As
    lam != 0, deg p = deg q = 2 with q = 1 + y^2: certified as built.
    """
    jets = tuple(jets)
    for i, j in enumerate(jets, 1):
        if not (j.surface == TORUS and j.center == torus_standard_center(i)):
            raise PreconditionFailed(f"jet {i - 1} is not centered at ({i}, 0)")
    if all(j.order == 1 for j in jets):
        return word_identity(TORUS), jets
    tangents = [jet_tangent_vector(j).components
                for j in jets if j.order >= 2]

    def ok(lam):
        return all(not (a + lam * b).is_zero() for a, b in tangents)

    lam = _pick(ok, "non-verticality parameter", skip_zero=True)
    w = AutWord(TORUS, (TorusTwist("x", Poly([ZERO, lam, lam]), Poly([1, 0, 1]),
                                   certificate=Certificate("torus-twist-square")),))
    out = tuple(apply_jet(w, j) for j in jets)
    for i, j in enumerate(out, 1):
        ensure(j.center == torus_standard_center(i), f"jet {i - 1} left its center")
        ensure(j.order == 1 or not jet_is_vertical(j), f"jet {i - 1} is still vertical")
    return w, out


def make_nonvertical_sphere(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """One twist about z fixing the equator pointwise, no jet vertical.

    The twist has tangent half-angle lam*z (p = 1 - lam^2 z^2, q = 2 lam z,
    r = 1 + lam^2 z^2), so it is the identity on z = 0, its angle has
    derivative 2 lam there, shearing tangents off the vertical, and it is
    built by _half_angle_twist like every other synthesized sphere twist.
    """
    jets = tuple(jets)
    for i, j in enumerate(jets, 1):
        if not (j.surface == SPHERE and j.center == sphere_standard_center(i)):
            raise PreconditionFailed(f"jet {i - 1} is not at standard center {i}")
    if all(j.order == 1 for j in jets):
        return word_identity(SPHERE), jets
    data = []
    for j in jets:
        if j.order >= 2:
            a, b, c = jet_tangent_vector(j).components
            x0, y0 = j.center.x, j.center.y
            data.append((a, b, c, x0, y0))

    def ok(lam):
        two_lam = lam + lam
        for a, b, c, x0, y0 in data:
            if (a - two_lam * y0 * c).is_zero() and (b + two_lam * x0 * c).is_zero():
                return False
        return True

    lam = _pick(ok, "non-verticality parameter", skip_zero=True)
    w = AutWord(SPHERE, (_half_angle_twist("z", Poly([ZERO, lam])),))
    out = tuple(apply_jet(w, j) for j in jets)
    for i, j in enumerate(out, 1):
        ensure(j.center == sphere_standard_center(i), f"jet {i - 1} left its center")
        ensure(j.order == 1 or not jet_is_vertical(j), f"jet {i - 1} is still vertical")
    return w, out


# ---------------------------------------------------------------------------
# the rotation-parameter solve


def solve_rotation_parameter(f: Series, g: Series, h: Series) -> Series:
    """Series a with (1-a^2) f = (1+a^2) g and 2 a f = (1+a^2) h.

    f is the height of a circle jet (x^2 + f^2 = 1), (g, h) the target
    graphs (x^2 + g^2 + h^2 = 1), all at the same center and order, with
    f and g sharing the nonzero center value.  Lifts f, g, h to order
    e + 2 val(h), where the quotient h/(f+g) is provably exact, then
    truncates back.
    """
    e, c = f.order, f.center
    if g.order != e or h.order != e or not (g.center == c and h.center == c):
        raise PreconditionFailed("f, g, h must share center and order")
    y = f.value()
    if y.is_zero() or not (g.value() == y):
        raise PreconditionFailed("f and g must share a nonzero center value")
    var = Series.variable(c, e)
    one = Series.constant(1, c, e)
    if not (var * var + f * f == one):
        raise PreconditionFailed("x^2 + f^2 is not 1 at this order")
    if not (var * var + g * g + h * h == one):
        raise PreconditionFailed("x^2 + g^2 + h^2 is not 1 at this order")
    d = h.valuation()
    if d == e:
        return Series.constant(0, c, e)
    lifted = e + 2 * d
    u = poly_to_series(Poly([1, 0, -1]), c, lifted)
    fbar = hensel_sqrt(u, y)
    hbar = h.lift_zero(lifted)
    gbar = hensel_sqrt(u - hbar * hbar, y)
    a = (hbar * (fbar + gbar).invert()).truncate(e)
    aa = a * a
    ensure((one - aa) * f == (one + aa) * g, "rotation parameter misses g")
    ensure((a + a) * f == (one + aa) * h, "rotation parameter misses h")
    return a


# ---------------------------------------------------------------------------
# synthesis


def _standard_jets(surface: str, orders) -> tuple[Jet, ...]:
    return standard_config(surface, list(orders)).jets


def _verify_word(w: AutWord, sources, targets):
    """The one final check of a synthesized word, run once per synthesis."""
    for i, (s, t) in enumerate(zip(sources, targets)):
        ensure(apply_jet(w, s) == t, f"synthesized word misses target jet {i}")


def synth_torus(targets) -> AutWord:
    """Word w with apply_jet(w, standard jet i) = targets[i], exactly."""
    targets = tuple(targets)
    w = _build_torus(targets)
    _verify_word(w, _standard_jets(TORUS, (j.order for j in targets)), targets)
    return w


def synth_sphere(targets) -> AutWord:
    """Word w with apply_jet(w, standard jet i) = targets[i], exactly."""
    targets = tuple(targets)
    w = _build_sphere(targets)
    _verify_word(w, _standard_jets(SPHERE, (j.order for j in targets)), targets)
    return w


def _build_torus(targets: tuple[Jet, ...]) -> AutWord:
    """synth_torus without its final check."""
    if not targets:
        return word_identity(TORUS)
    for j in targets:
        if j.surface != TORUS:
            raise MixedSurfaces("synth_torus needs torus jets")
    if not jets_mutually_distant(targets):
        raise NotDistant("target jets share a center")
    w1 = separate_points_torus([j.center for j in targets])
    moved = [apply_jet(w1, j) for j in targets]
    w2, nonv = make_nonvertical_torus(moved)
    residues = []
    for i, j in enumerate(nonv, 1):
        ensure(not j.transposed and j.chart == (0, 0),
               f"jet {i - 1} left the affine chart")
        residues.append((scal(i), j.order, j.graphs[0]))
    final = interpolating_twist("y", residues)
    w3 = AutWord(TORUS, (final,) if final is not None else ())
    return word_concat(w3, word_inverse(word_concat(w1, w2)))


def _build_sphere(targets: tuple[Jet, ...]) -> AutWord:
    """synth_sphere without its final check."""
    if not targets:
        return word_identity(SPHERE)
    for j in targets:
        if j.surface != SPHERE:
            raise MixedSurfaces("synth_sphere needs sphere jets")
    if not jets_mutually_distant(targets):
        raise NotDistant("target jets share a center")
    w1 = separate_points_sphere([j.center for j in targets],
                                [j.order for j in targets])
    moved = [apply_jet(w1, j) for j in targets]
    w2, nonv = make_nonvertical_sphere(moved)
    params = []
    for i, j in enumerate(nonv, 1):
        center = sphere_standard_center(i)
        ensure(j.chart == "x", f"jet {i - 1} is not a graph over x")
        u = poly_to_series(Poly([1, 0, -1]), center.x, j.order)
        f = hensel_sqrt(u, center.y)
        a_i = solve_rotation_parameter(f, j.graphs[0], j.graphs[1])
        params.append((center.x, j.order, a_i))
    # one aligning twist per jet, vanishing to jet order at the others,
    # so each stays inside its own ground field
    final = []
    for i in range(len(params)):
        res = [(c, e, a if k == i else 0)
               for k, (c, e, a) in enumerate(params)]
        tw = rotation_twist("x", res)
        if tw is not None:
            final.append(tw)
    w3 = AutWord(SPHERE, tuple(final))
    return word_concat(w3, word_inverse(word_concat(w1, w2)))


def synth_pair(from_jets, to_jets, pinned=()) -> AutWord:
    """Word mapping each from-jet to its to-jet while fixing every pinned jet.

    Both sides route through the standard configuration with the pinned
    jets occupying the same leading slots, so the pinned moves cancel.
    Only the composite is checked, not the two halves.
    """
    from_jets, to_jets = tuple(from_jets), tuple(to_jets)
    pinned = tuple(pinned) if pinned is not None else ()
    if [j.order for j in from_jets] != [j.order for j in to_jets]:
        raise OrderMismatch("from and to configurations have different order lists")
    everything = pinned + from_jets + to_jets
    if not everything:
        raise PreconditionFailed("nothing to move")
    surface = everything[0].surface
    for j in everything:
        if j.surface != surface:
            raise MixedSurfaces("mixed torus and sphere jets")
    if not jets_mutually_distant(pinned + from_jets):
        raise NotDistant("pinned + from jets share a center")
    if not jets_mutually_distant(pinned + to_jets):
        raise NotDistant("pinned + to jets share a center")
    build = _build_torus if surface == TORUS else _build_sphere
    w = word_concat(word_inverse(build(pinned + from_jets)),
                    build(pinned + to_jets))
    _verify_word(w, pinned + from_jets, pinned + to_jets)
    return w
