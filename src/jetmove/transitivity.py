"""Synthesis of automorphism words moving jet tuples into position.

One pipeline serves both surfaces (_build).  It takes the standard jets
to the targets in three stages and returns w3 (w1 w2)^-1; only the
stage functions differ by surface:

1. separate_points_*: w1 takes the target centers to the standard
   centers, built from generic moves with exactly-tested rational
   parameters and interpolated twists (one shared twist adjusts every
   point at once, with CRT choosing the local values).  The targets ride
   through the stage as parameter forms, pushed one generator at a time;
   its point tests read the centers off their constant terms, and each
   jet is read back once, at the end, as apply_jet(w1, target).
2. make_nonvertical_*: w2 is one shear, its parameter the first nonzero
   rational that leaves no moved jet vertical; the two surfaces differ
   only in that test and in the shear itself.
3. _align_*: w3 matches the standard jets to the sheared targets
   exactly, graph by graph: one interpolated y-twist on the torus, one
   rotation twist per jet on the sphere.

synth_torus, synth_sphere and synth_pair check the configurations,
build, and check the word once through first_miss, the image check
that the batch front end's verify uses as well.

Every generic choice enumerates rationals in a fixed order and takes
the first that passes its exact test, so identical inputs produce
identical words.  ENUM_LIMIT caps how many candidates any single choice
may try.  Every generator comes from a constructor that names its proof
route (TorusTwist.square, SphereTwist.half_angle, TorusMoebius.of), so
synthesis proves nothing twice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from .automorphisms import (MAX_TWIST_DEGREE, AutWord, SphereTwist,
                            TorusMoebius, TorusTwist, _carried, _jet_of, _point_of,
                            _push, apply_jet, apply_point, word_concat,
                            word_identity, word_inverse)
from .errors import (DuplicatePoints, EnumerationExhausted,
                     InternalVerificationFailure, MixedSurfaces, NotDistant,
                     OrderMismatch, PreconditionFailed, ensure)
from .exactalg import (ONE, ZERO, CrtBasis, Poly, Scalar, Series, crt_combine,
                       crt_with_modulus, scal, scalar_sqrt_adjoin)
from .surfaces import (SPHERE, TORUS, Jet, SpherePoint, TorusPoint,
                       jet_is_vertical, jet_tangent_vector, jets_mutually_distant,
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


def _nonzero_rationals():
    return (scal(r) for r in enumerate_rationals() if r != 0)


def _rational_pairs():
    """(r_i, r_{n-i}) for n = 0, 1, ... over the rational enumeration."""
    pool: list[Scalar] = []
    gen = enumerate_rationals()
    for n in count():
        pool.append(scal(next(gen)))
        for i in range(n + 1):
            yield pool[i], pool[n - i]


def _pick(test, what: str, candidates=None):
    """The first candidate (default: every rational) passing the exact
    test, after at most ENUM_LIMIT tries."""
    if candidates is None:
        candidates = map(scal, enumerate_rationals())
    for tried, c in enumerate(candidates):
        if tried >= ENUM_LIMIT:
            break
        if test(c):
            return c
    raise EnumerationExhausted(f"no admissible {what} in {ENUM_LIMIT} tries")


# ---------------------------------------------------------------------------
# interpolated generators


def interpolating_twist(axis: str, residues) -> TorusTwist | None:
    """Torus twist adding value_i to ``axis`` at node i of the other factor.

    residues are (center, order, value) as for crt_combine, and M is their
    node product.  The twist is p/q with q = 1 + M^2 and p the CRT
    interpolant plus M^2 (TorusTwist.square): q is 1 at every node and at
    least 1 on R, and deg p = deg q since the interpolant's degree is
    below deg M.  None when every value is zero.
    """
    p0, m = crt_with_modulus(residues)
    if p0.is_zero():
        return None
    return TorusTwist.square(axis, p0 + m * m, m)


def rotation_twist(fixed: str, residues) -> SphereTwist | None:
    """Sphere twist with tangent-half-angle polynomial interpolated by CRT.

    a = a_i mod (x - c_i)^{e_i}, built by SphereTwist.half_angle.  None
    when a vanishes identically.
    """
    a = crt_combine(residues)
    if a.is_zero():
        return None
    return SphereTwist.half_angle(fixed, a)


def _rotation_twists(fixed: str, nodes, orders, values):
    """One rotation twist per node, skipping the identities: angle
    values[i] to order orders[i] at node i and zero to order at the
    others, so each point or jet stays inside its own ground field.  The
    twists share one CRT basis, each the term of its one residue."""
    basis = CrtBasis(nodes, orders)
    for i, val in enumerate(values):
        a = basis.term(i, val)
        if not a.is_zero():
            yield SphereTwist.half_angle(fixed, a)


def _moved(gens: list, forms: list, g) -> tuple[list, list]:
    """Append generator g (None is the identity) and push the carried
    parameter forms through it; return the forms and their centers.

    The forms are carried as the transport carries them (_carried): an
    order-1 form as its values for the whole stage, wrapped into series
    only at the read-back.  A center depends only on the constant terms
    going in, so it is the image apply_point gives, and the jets read
    back from the forms at the end of a stage are the images apply_jet
    gives under the stage's word.
    """
    if g is not None:
        gens.append(g)
        w = AutWord(g.surface, (g,))
        forms = [_push(w, f) for f in forms]
    return forms, [_point_of(f) for f in forms]


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


def separate_points_torus(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """Word w1 taking the center of jet i (0-based input order) to
    (i+1, 0), and the jets moved by it."""
    jets = tuple(jets)
    pts, gens = [j.center for j in jets], []
    _check_distinct_points(pts, TorusPoint)
    forms = [_carried(j) for j in jets]

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

        forms, pts = _moved(gens, forms, TorusMoebius.of(
            chart_matrix([p.x for p in pts]), chart_matrix([p.y for p in pts])))

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
        forms, pts = _moved(gens, forms, tw)

    # x-corrections over the now-distinct y nodes, then y zeroed over the
    # standard x nodes; each twist is None when nothing needs moving
    forms, pts = _moved(gens, forms, interpolating_twist(
        "x", [(p.y.value, 1, scal(i) - p.x.value) for i, p in enumerate(pts, 1)]))
    forms, pts = _moved(gens, forms, interpolating_twist(
        "y", [(scal(i), 1, -p.y.value) for i, p in enumerate(pts, 1)]))

    for i, p in enumerate(pts, 1):
        ensure(p == torus_standard_center(i), f"point {i - 1} missed its center")
    return (AutWord(TORUS, tuple(gens)),
            tuple(_jet_of(f, j.order) for f, j in zip(forms, jets)))


# ---------------------------------------------------------------------------
# point separation, sphere


def separate_points_sphere(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """Word w1 taking the center of jet i to the standard equator center
    i+1, and the jets moved by it.

    Stages: a generic constant rotation making x-coordinates distinct and
    off +-1; a fiber rotation to chosen heights v_i (adjoining one square
    root per point); a rotation about y moving each x to its target; a
    final fiber rotation landing on the equator.  Each v_i is a rational
    point of the circle of radius Y_i, so the x-move and the equator drop
    stay rational and every half-angle is finite.

    The varying stages emit one twist per point (_rotation_twists), each
    to the order of the jet riding on its point, so a transported jet only
    ever meets the one square root adjoined for it.
    """
    jets = tuple(jets)
    pts, gens = [j.center for j in jets], []
    _check_distinct_points(pts, SpherePoint)
    orders = [j.order for j in jets]
    targets = [sphere_standard_center(i) for i in range(1, len(pts) + 1)]
    if pts == targets:
        return word_identity(SPHERE), jets
    forms = [_carried(j) for j in jets]

    def xs_good(ps):
        xs = [p.x for p in ps]
        for i in range(len(xs)):
            if xs[i] == ONE or xs[i] == -ONE:
                return False
            for j in range(i + 1, len(xs)):
                if xs[i] == xs[j]:
                    return False
        return True

    def generic_rotation(s, t):
        return [SphereTwist.half_angle(fixed, Poly.const(a))
                for fixed, a in (("x", t), ("z", s)) if not a.is_zero()]

    if not xs_good(pts):
        def moves_apart(cand):
            w = AutWord(SPHERE, tuple(cand))
            return bool(cand) and xs_good([apply_point(w, p) for p in pts])

        rotations = (generic_rotation(s, t) for s, t in _rational_pairs())
        for g in _pick(moves_apart, "generic rotation", rotations):
            forms, pts = _moved(gens, forms, g)

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

    values = []
    for p, v in zip(pts, vs):
        rho2 = ONE - p.x * p.x
        z = scalar_sqrt_adjoin(rho2 - v * v)
        c = p.y * v + p.z * z
        s = p.y * z - p.z * v
        values.append(half_angle(c, s, rho2))
    for g in _rotation_twists("x", [p.x for p in pts], orders, values):
        forms, pts = _moved(gens, forms, g)

    # move x to its target along the circle of constant y
    values = []
    for p, tgt, w in zip(pts, targets, ws):
        r2 = ONE - p.y * p.y
        c = p.z * w + p.x * tgt.x
        s = p.z * tgt.x - p.x * w
        values.append(half_angle(c, s, r2))
    for g in _rotation_twists("y", [p.y for p in pts], orders, values):
        forms, pts = _moved(gens, forms, g)

    # drop to the equator within each target fiber; all angles are rational
    # here, so a single interpolated twist is fine
    residues = []
    for p, tgt, e in zip(pts, targets, orders):
        c = p.y * tgt.y
        s = -(p.z * tgt.y)
        residues.append((p.x, e, half_angle(c, s, tgt.y * tgt.y)))
    forms, pts = _moved(gens, forms, rotation_twist("x", residues))

    ensure(pts == targets, "points missed their standard centers")
    return (AutWord(SPHERE, tuple(gens)),
            tuple(_jet_of(f, e) for f, e in zip(forms, orders)))


# ---------------------------------------------------------------------------
# non-verticality


def _shear_off_vertical(surface: str, jets, admissible, shear):
    """The one generator ``shear(lam)`` leaving the standard centers fixed
    and no jet vertical; the identity when every jet has order 1.

    ``admissible(lam, tangent, center)`` tests lam on one jet of order at
    least 2, and lam runs over the nonzero rationals.
    """
    jets = tuple(jets)
    center = torus_standard_center if surface == TORUS else sphere_standard_center
    for i, j in enumerate(jets, 1):
        if not (j.surface == surface and j.center == center(i)):
            raise PreconditionFailed(f"jet {i - 1} is not at standard center {center(i)}")
    if all(j.order == 1 for j in jets):
        return word_identity(surface), jets
    data = [(jet_tangent_vector(j), j.center) for j in jets if j.order >= 2]
    lam = _pick(lambda lam: all(admissible(lam, t, c) for t, c in data),
                "non-verticality parameter", _nonzero_rationals())
    w = AutWord(surface, (shear(lam),))
    out = tuple(apply_jet(w, j) for j in jets)
    for i, j in enumerate(out, 1):
        ensure(j.center == center(i), f"jet {i - 1} left its center")
        ensure(j.order == 1 or not jet_is_vertical(j), f"jet {i - 1} is still vertical")
    return w, out


def make_nonvertical_torus(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """One x-twist leaving centers (i, 0) fixed and no jet vertical.

    The twist is x -> x + lam*(y + y^2)/(1 + y^2), whose derivative at
    y = 0 is lam; a jet with tangent (a, b) maps to one with tangent
    (a + lam*b, b), so lam only needs to avoid the values -a_i/b_i.  As
    lam != 0, deg p = deg q = 2 with q = 1 + y^2 (TorusTwist.square).
    """
    return _shear_off_vertical(
        TORUS, jets, lambda lam, t, c: not (t[0] + lam * t[1]).is_zero(),
        lambda lam: TorusTwist.square("x", Poly([ZERO, lam, lam]), Poly.x()))


def make_nonvertical_sphere(jets) -> tuple[AutWord, tuple[Jet, ...]]:
    """One twist about z fixing the equator pointwise, no jet vertical.

    The twist has tangent half-angle lam*z (p = 1 - lam^2 z^2, q = 2 lam z,
    r = 1 + lam^2 z^2), so it is the identity on z = 0, its angle has
    derivative 2 lam there, shearing tangents off the vertical, and it is
    built by SphereTwist.half_angle like every other synthesized sphere twist.
    """
    def admissible(lam, t, c):
        a, b, dz = t
        two_lam = lam + lam
        return not ((a - two_lam * c.y * dz).is_zero()
                    and (b + two_lam * c.x * dz).is_zero())

    return _shear_off_vertical(SPHERE, jets, admissible,
                               lambda lam: SphereTwist.half_angle("z", Poly([ZERO, lam])))


# ---------------------------------------------------------------------------
# the rotation-parameter solve


def solve_rotation_parameter(f: Series, g: Series, h: Series) -> Series:
    """Series a with (1-a^2) f = (1+a^2) g and 2 a f = (1+a^2) h.

    f is the height of a circle jet (x^2 + f^2 = 1), (g, h) the target
    graphs (x^2 + g^2 + h^2 = 1), all at the same center and order, with
    f and g sharing the nonzero center value y.  f + g has value 2y, so
    it is a unit, and a = h/(f + g) solves both at the jet's own order:
    h^2 = f^2 - g^2 gives 1 + a^2 = 2f/(f + g) and 1 - a^2 = 2g/(f + g).
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
    a = h * (f + g).invert()
    aa = a * a
    ensure((one - aa) * f == (one + aa) * g, "rotation parameter misses g")
    ensure((a + a) * f == (one + aa) * h, "rotation parameter misses h")
    return a


# ---------------------------------------------------------------------------
# synthesis


def first_miss(w: AutWord, sources, targets):
    """The first (index, image, target) with image = w(source) != target,
    or None when w takes every source to its target."""
    for i, (s, t) in enumerate(zip(sources, targets)):
        got = apply_jet(w, s)
        if got != t:
            return i, got, t
    return None


def _verify_word(w: AutWord, sources, targets):
    """The one final check of a synthesized word, run once per synthesis."""
    miss = first_miss(w, sources, targets)
    if miss is not None:
        raise InternalVerificationFailure(f"synthesized word misses target jet {miss[0]}")


def _check_config(surface: str, jets, what: str):
    """Refuse jets off ``surface``, sharing a center or with orders summing
    past MAX_TWIST_DEGREE // 2 (a built torus twist's q has twice that
    degree, a sphere twist's r less, so every word loads) before any build."""
    total = sum(j.order for j in jets)
    if total > MAX_TWIST_DEGREE // 2:
        raise PreconditionFailed(
            f"{what} jet orders sum to {total}, more than {MAX_TWIST_DEGREE // 2}")
    for j in jets:
        if j.surface != surface:
            raise MixedSurfaces(f"{what} jets must all lie on the {surface}")
    if not jets_mutually_distant(jets):
        raise NotDistant(f"{what} jets share a center")


def _align_torus(nonv, std) -> AutWord:
    """One y-twist taking the standard jets onto the non-vertical ones."""
    residues = []
    for i, (j, s) in enumerate(zip(nonv, std)):
        ensure(not j.transposed and j.chart == (0, 0),
               f"jet {i} left the affine chart")
        residues.append((s.center.x.value, j.order, j.graphs[0]))
    final = interpolating_twist("y", residues)
    return AutWord(TORUS, (final,) if final is not None else ())


def _align_sphere(nonv, std) -> AutWord:
    """One x-twist per jet rotating the standard jet (height f) onto the
    non-vertical one."""
    values = []
    for i, (j, s) in enumerate(zip(nonv, std)):
        ensure(j.chart == "x", f"jet {i} is not a graph over x")
        values.append(solve_rotation_parameter(s.graphs[0], j.graphs[0], j.graphs[1]))
    return AutWord(SPHERE, tuple(_rotation_twists(
        "x", [s.center.x for s in std], [s.order for s in std], values)))


def _build(surface: str, targets: tuple[Jet, ...], std) -> AutWord:
    """The word taking the standard jets ``std`` to ``targets``, unchecked:
    w1 separates the target centers onto the standard ones, the targets
    riding through it and read back once, w2 shears the moved jets off
    the vertical and w3 aligns the standard jets with them, so the word
    is w3 (w1 w2)^-1."""
    if not targets:
        return word_identity(surface)
    torus = surface == TORUS
    w1, moved = (separate_points_torus if torus else separate_points_sphere)(targets)
    w2, nonv = (make_nonvertical_torus if torus else make_nonvertical_sphere)(moved)
    w3 = (_align_torus if torus else _align_sphere)(nonv, std)
    return word_concat(w3, word_inverse(word_concat(w1, w2)))


def _synth(surface: str, targets) -> AutWord:
    targets = tuple(targets)
    _check_config(surface, targets, "target")
    std = standard_config(surface, [j.order for j in targets]).jets
    w = _build(surface, targets, std)
    _verify_word(w, std, targets)
    return w


def synth_torus(targets) -> AutWord:
    """Word w with apply_jet(w, standard jet i) = targets[i], exactly."""
    return _synth(TORUS, targets)


def synth_sphere(targets) -> AutWord:
    """Word w with apply_jet(w, standard jet i) = targets[i], exactly."""
    return _synth(SPHERE, targets)


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
    sources, targets = pinned + from_jets, pinned + to_jets
    if not sources:
        raise PreconditionFailed("nothing to move")
    surface = sources[0].surface
    _check_config(surface, sources, "pinned + from")
    _check_config(surface, targets, "pinned + to")
    std = standard_config(surface, [j.order for j in sources]).jets
    w = word_concat(word_inverse(_build(surface, sources, std)),
                    _build(surface, targets, std))
    _verify_word(w, sources, targets)
    return w
