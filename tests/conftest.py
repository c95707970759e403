import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import jetmove
from jetmove.exactalg import ONE, ZERO, Poly, Series, hensel_sqrt, poly_to_series, scal
from jetmove.surfaces import (Jet, ProjPoint, SphereParam, TorusPoint,
                              jet_from_sphere_param, jet_to_json,
                              sphere_point_stereo, standard_config)

# Hypothesis's explain phase traces the package after a failure before it
# reports, which took minutes on a failing step test; every other phase
# runs, and each test's own @settings still apply on top of this profile
settings.register_profile(
    "jetmove", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("jetmove")

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None


@pytest.fixture
def rng():
    return random.Random(97531)


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_SCRIPT_ENTRY = re.compile(
    r"""("[^"\\]*"|'[^']*'|[A-Za-z0-9_-]+)\s*=\s*("[^"\\]*"|'[^']*')\s*(?:#.*)?""")


def parse_project_scripts(text):
    """The ``[project.scripts]`` table of a pyproject.toml text, without tomllib.

    Reads only the table's header form with one ``name = "value"`` entry a
    line, bare or quoted names and string values free of escapes; any other
    line inside the table raises ValueError.  A missing table reads as empty.
    """
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = "".join(line.split("#")[0].split()) == "[project.scripts]"
        elif inside and line and not line.startswith("#"):
            entry = _SCRIPT_ENTRY.fullmatch(line)
            if entry is None:
                raise ValueError(f"unreadable [project.scripts] line: {line!r}")
            name, value = entry.group(1).strip("\"'"), entry.group(2)[1:-1]
            if name in scripts:
                raise ValueError(f"[project.scripts] declares {name!r} twice")
            scripts[name] = value
    return scripts


def project_scripts():
    """The ``[project.scripts]`` mapping of the repository's pyproject.toml."""
    text = PYPROJECT.read_text(encoding="utf-8")
    if tomllib is None:
        return parse_project_scripts(text)
    return tomllib.loads(text).get("project", {}).get("scripts", {})


def wrapper_source(target):
    """Source of the console-script wrapper for an entry point ``module:attr``.

    Like the wrapper setuptools installs, it imports the object, calls it and
    exits with what it returns.
    """
    module, sep, attr = str(target).partition(":")
    module, attr = module.strip(), attr.strip()
    if not (sep and all(part.isidentifier()
                        for part in module.split(".") + attr.split("."))):
        raise ValueError(f"entry point {target!r} is not of the form module:attr")
    return (f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr.split('.')[0]}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n")


@pytest.fixture
def console_scripts(tmp_path, monkeypatch):
    """Build the ``[project.scripts]`` executables the way an installer would.

    Each script goes into a fresh directory put first on PATH, and the
    directory holding the imported ``jetmove`` package goes first on
    PYTHONPATH, so the scripts run the code under test from any working
    directory.  A missing table or a malformed entry fails the test, since
    either is a packaging fault.
    """
    try:
        scripts = project_scripts()
        if not scripts:
            raise ValueError(f"{PYPROJECT} declares no [project.scripts]")
        sources = {name: wrapper_source(target) for name, target in scripts.items()}
    except ValueError as exc:
        pytest.fail(str(exc), pytrace=False)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, source in sources.items():
        script = bin_dir / name
        script.write_text(source, encoding="utf-8")
        script.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir), prepend=os.pathsep)
    package_root = Path(jetmove.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", str(package_root), prepend=os.pathsep)
    return bin_dir


def rand_fraction(rng, den_max=9, num_max=9) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def rand_poly(rng, max_deg=4, den_max=6) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_fraction(rng, den_max) for _ in range(deg + 1)]
    return Poly(coeffs)


def rand_series(rng, center, order, den_max=6) -> Series:
    return Series(scal(center), order,
                  [rand_fraction(rng, den_max) for _ in range(order)])


def rand_torus_jet(rng, order, p_inf=0.15) -> Jet:
    """Random canonical torus jet, occasionally at infinity or vertical."""
    xinf = rng.random() < p_inf
    yinf = rng.random() < p_inf
    cx = ZERO if xinf else scal(rand_fraction(rng))
    cy = ZERO if yinf else scal(rand_fraction(rng))
    px = ProjPoint.infinity() if xinf else ProjPoint.affine(cx)
    py = ProjPoint.infinity() if yinf else ProjPoint.affine(cy)
    center = TorusPoint(px, py)
    tail = [scal(rand_fraction(rng)) for _ in range(order - 2)]
    if order >= 2 and rng.random() < 0.25:
        f = Series(cy, order, [cx, ZERO] + tail)
        return Jet.torus(center, order, f, transposed=True)
    coeffs = [cy] + ([scal(rand_fraction(rng))] + tail if order >= 2 else [])
    return Jet.torus(center, order, Series(cx, order, coeffs))


def rand_sphere_point(rng):
    return sphere_point_stereo(scal(rand_fraction(rng)), scal(rand_fraction(rng)))


def rand_sphere_jet(rng, order):
    """Random sphere jet from a rational ambient curve, radially normalized."""
    p = rand_sphere_point(rng)
    px, py, pz = p.coords()
    while True:
        q = [scal(rand_fraction(rng)) for _ in range(3)]
        dot = q[0] * px + q[1] * py + q[2] * pz
        tang = (q[0] - dot * px, q[1] - dot * py, q[2] - dot * pz)
        if not all(c.is_zero() for c in tang):
            break

    def coord(c0, c1):
        tail = [scal(rand_fraction(rng)) for _ in range(order - 2)]
        return Series(ZERO, order, ([c0, c1] + tail)[:order])

    ux, uy, uz = (coord(px, tang[0]), coord(py, tang[1]), coord(pz, tang[2]))
    sinv = hensel_sqrt(ux * ux + uy * uy + uz * uz, 1).invert()
    return jet_from_sphere_param(SphereParam(ux * sinv, uy * sinv, uz * sinv),
                                 order)


def noncanonical_sphere_jet_json(order=2):
    """The standard jet at (-3/5, 4/5, 0) of ``order``, stored in chart y.

    At order 2 its tangent (1, 3/4, 0) moves x, so its canonical chart is
    x; at order 1 it is a point, whose canonical chart is x too.
    """
    std = standard_config("sphere", [order]).jets[0]
    x0, y0, _ = std.center.coords()
    x_of_y = hensel_sqrt(poly_to_series(Poly([1, 0, -1]), y0, order), x0)
    d = jet_to_json(std)
    d["chart"] = "y"
    d["graph"] = {"g": ["0"] * order, "h": [str(c) for c in x_of_y.coeffs]}
    return d


def tau_triple(rng, order):
    """Random admissible (f, g, h) with known half-angle series tau.

    f is the circle height over a rational equator abscissa; (g, h) is f
    rotated by the angle with tangent half-angle tau, so
    (1 - tau^2) f = (1 + tau^2) g and 2 tau f = (1 + tau^2) h hold exactly.
    """
    t = Fraction(0)
    while t == 0:
        t = rand_fraction(rng)
    den = 1 + t * t
    c, y = scal((1 - t * t) / den), scal(2 * t / den)
    u = poly_to_series(Poly([1, 0, -1]), c, order)
    f = hensel_sqrt(u, y)
    tau = Series(c, order,
                 [ZERO] + [scal(rand_fraction(rng)) for _ in range(order - 1)])
    one = Series.constant(1, c, order)
    inv = (one + tau * tau).invert()
    g = f * (one - tau * tau) * inv
    h = (tau + tau) * f * inv
    return f, g, h, tau


def solve_half_angle_brute(f, g, h):
    """Undetermined-coefficients reference for the half-angle series.

    Solves 2 a f = (1 + a^2) h coefficient by coefficient: with a_0 = 0
    the k-th residual coefficient is affine in a_k with slope 2 f(c), so
    each step is one exact division.  The companion congruence is then
    asserted rather than used, keeping this an independent check.
    """
    e, c = f.order, f.center
    one = Series.constant(1, c, e)
    coeffs = [ZERO] * e

    def residual(cs):
        a = Series(c, e, cs)
        return (a + a) * f - (one + a * a) * h

    for k in range(1, e):
        r0 = residual(coeffs).coeffs[k]
        bumped = list(coeffs)
        bumped[k] = ONE
        slope = residual(bumped).coeffs[k] - r0
        coeffs[k] = -r0 / slope
    a = Series(c, e, coeffs)
    aa = a * a
    assert (one - aa) * f == (one + aa) * g
    assert (a + a) * f == (one + aa) * h
    return a
