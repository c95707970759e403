"""Seeded job generator for the three benchmark workloads.

Every job is written as the JSON files the CLI reads: a job file for
``synth``, the ``--from``/``--to`` configurations for ``verify``, one
source jet for ``apply`` and, on ``pair-mixed``, two blow-up descriptors
for ``classify``.  The same (workload, seed, count) always gives
byte-identical files; only the values are random, while the shape of each
job (surface, orders, sizes) follows a fixed per-workload schedule so that
different seeds stress the same code paths equally.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from jetmove.dantesque import (BASE, HYPOTHESIS_NOT_MET, ISOMORPHIC, KLEIN,
                               NOT_ISOMORPHIC, BlowupRecord, SurfaceDescriptor,
                               descriptor_normalize, descriptor_to_json)
from jetmove.exactalg import ZERO, Series, hensel_sqrt, scal
from jetmove.surfaces import (SPHERE, TORUS, Jet, ProjPoint, SphereParam,
                              TorusPoint, jet_from_sphere_param, jet_to_json,
                              sphere_point_stereo, standard_config)

# Every torus job has 14 order-1 jets: at a fixed size the cost of one job
# still varies by about 13% with its values, so the median needs several
# jobs of one size rather than one job of each size.
TORUS_POINTS = 14
# One partition for every sphere job, for the same reason: a median over
# jobs of two cost levels jumps between the levels from seed to seed.
SPHERE_PARTITION = (3, 2, 2)
# (surface, pinned orders, from/to orders) for pair-mixed, in job order.
# Three torus and two sphere shapes: over whole cycles the median falls
# among the cheaper torus jobs, not on the boundary between the two.
PAIR_SHAPES = (
    (TORUS, (1,), (3, 2, 1)),
    (SPHERE, (1,), (2, 1)),
    (TORUS, (2,), (2, 1, 1)),
    (SPHERE, (), (2, 1, 1)),
    (TORUS, (1, 1), (3, 1)),
)
VERDICTS = (ISOMORPHIC, NOT_ISOMORPHIC, HYPOTHESIS_NOT_MET)
WORKLOADS = ("torus-points", "sphere-jets", "pair-mixed")


def _frac(rng: random.Random) -> Fraction:
    """A random nonzero rational of nearly fixed bit size.

    Numerator magnitude and denominator both lie in 5..9, so seeds change
    the values but hardly the size of the arithmetic they cause.
    """
    return Fraction(rng.choice((-1, 1)) * rng.randint(5, 9), rng.randint(5, 9))


def _torus_jet(rng: random.Random, order: int, inf: str = "",
               transposed: bool = False) -> Jet:
    """Canonical torus jet; ``inf`` names the coordinates at infinity and
    ``transposed`` asks for a vertical jet (order >= 2)."""
    cx = ZERO if "x" in inf else scal(_frac(rng))
    cy = ZERO if "y" in inf else scal(_frac(rng))
    center = TorusPoint(ProjPoint.infinity() if "x" in inf else ProjPoint.affine(cx),
                        ProjPoint.infinity() if "y" in inf else ProjPoint.affine(cy))
    tail = [scal(_frac(rng)) for _ in range(order - 2)]
    if transposed:
        return Jet.torus(center, order, Series(cy, order, [cx, ZERO] + tail),
                         transposed=True)
    head = [scal(_frac(rng))] + tail if order >= 2 else []
    return Jet.torus(center, order, Series(cx, order, [cy] + head))


def _sphere_jet(rng: random.Random, order: int) -> Jet:
    """Sphere jet of a rational ambient curve, radially normalized."""
    p = sphere_point_stereo(scal(_frac(rng)), scal(_frac(rng)))
    px, py, pz = p.coords()
    while True:
        q = [scal(_frac(rng)) for _ in range(3)]
        dot = q[0] * px + q[1] * py + q[2] * pz
        tang = (q[0] - dot * px, q[1] - dot * py, q[2] - dot * pz)
        if not all(c.is_zero() for c in tang):
            break

    def coord(c0, c1):
        tail = [scal(_frac(rng)) for _ in range(order - 2)]
        return Series(ZERO, order, ([c0, c1] + tail)[:order])

    ux, uy, uz = coord(px, tang[0]), coord(py, tang[1]), coord(pz, tang[2])
    sinv = hensel_sqrt(ux * ux + uy * uy + uz * uz, 1).invert()
    return jet_from_sphere_param(SphereParam(ux * sinv, uy * sinv, uz * sinv),
                                 order)


def _distinct_jets(rng: random.Random, surface: str, orders, avoid=(),
                   shapes=()) -> list[Jet]:
    """Jets of the given orders whose centers differ from each other and
    from every center in ``avoid``.  On the torus, jet k takes keyword
    arguments ``shapes[k]`` (if any) and no two centers share a y value,
    so synthesis never needs its y-separating twist."""
    centers = list(avoid)
    jets: list[Jet] = []
    for k, e in enumerate(orders):
        while True:
            if surface == TORUS:
                j = _torus_jet(rng, e, **(shapes[k] if k < len(shapes) else {}))
                clash = any(j.center.y == c.y for c in centers)
            else:
                j = _sphere_jet(rng, e)
                clash = any(j.center == c for c in centers)
            if not clash:
                break
        centers.append(j.center)
        jets.append(j)
    return jets


def _config(surface: str, jets) -> dict:
    return {"surface": surface, "partition": [j.order for j in jets],
            "jets": [jet_to_json(j) for j in jets]}


def _descriptors(surface: str, jets, verdict: str):
    """Two descriptors built from the jets whose verdict is ``verdict``.

    The first blows up the base at each jet.  For ISOMORPHIC the second
    is its flat normal form (sphere base) or the same weights stacked on
    exceptional loci of a klein base, both of which keep the invariants;
    NOT_ISOMORPHIC adds one more ordinary blow-up to that partner, which
    drops the Euler characteristic; HYPOTHESIS_NOT_MET repeats the largest
    weight (always >= 2 here) in the first, so a singularity type repeats.
    """
    recs = [BlowupRecord(BASE, j.order, j) for j in jets]
    if verdict == HYPOTHESIS_NOT_MET:
        recs.append(BlowupRecord(0, max(j.order for j in jets)))
    first = SurfaceDescriptor(surface, tuple(recs))
    if surface == SPHERE:
        second = descriptor_normalize(SurfaceDescriptor(surface, tuple(recs[:len(jets)])))
    else:
        stacked = [BlowupRecord(BASE if i == 0 else i - 1, j.order)
                   for i, j in enumerate(jets)]
        second = SurfaceDescriptor(KLEIN, tuple(stacked))
    if verdict == NOT_ISOMORPHIC:
        second = SurfaceDescriptor(second.base,
                                   second.records + (BlowupRecord(0, 1),))
    return first, second


def _job(rng: random.Random, workload: str, i: int) -> dict:
    """One job as {file name: JSON document} plus what the checks expect."""
    if workload == "torus-points":
        surface = TORUS
        pinned: list[Jet] = []
        n = TORUS_POINTS
        src = list(standard_config(TORUS, [1] * n).jets)
        # one point over x = infinity and one over y = infinity, at random
        # slots, so every word carries one Moebius generator
        shapes = [{} for _ in range(n)]
        slot_x, slot_y = rng.sample(range(n), 2)
        shapes[slot_x], shapes[slot_y] = {"inf": "x"}, {"inf": "y"}
        dst = _distinct_jets(rng, TORUS, [1] * n, shapes=shapes)
        job = _config(TORUS, dst)
    elif workload == "sphere-jets":
        surface = SPHERE
        pinned = []
        orders = list(SPHERE_PARTITION)
        src = list(standard_config(SPHERE, orders).jets)
        dst = _distinct_jets(rng, SPHERE, orders)
        job = _config(SPHERE, dst)
    elif workload == "pair-mixed":
        surface, pin_orders, orders = PAIR_SHAPES[i % len(PAIR_SHAPES)]
        pinned = _distinct_jets(rng, surface, pin_orders)
        avoid = [j.center for j in pinned]
        # the first from-jet lies over x = infinity; the first to-jet is
        # vertical and the second lies over y = infinity
        src = _distinct_jets(rng, surface, orders, avoid, [{"inf": "x"}])
        dst = _distinct_jets(rng, surface, orders, avoid,
                             [{"transposed": orders[0] >= 2}, {"inf": "y"}])
        job = {"surface": surface,
               "from": [jet_to_json(j) for j in src],
               "to": [jet_to_json(j) for j in dst],
               "pinned": [jet_to_json(j) for j in pinned]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {
        "job.json": job,
        "from.json": _config(surface, pinned + src),
        "to.json": _config(surface, pinned + dst),
        "jet.json": jet_to_json(src[0]),
    }
    out = {"files": files, "apply_expect": jet_to_json(dst[0]),
           "verdict": None}
    if workload == "pair-mixed":
        verdict = VERDICTS[i % len(VERDICTS)]
        first, second = _descriptors(surface, dst, verdict)
        files["first.json"] = descriptor_to_json(first)
        files["second.json"] = descriptor_to_json(second)
        out["verdict"] = verdict
    return out


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` jobs of the workload; identical for identical arguments."""
    rng = random.Random(f"{workload}/{seed}")
    return [_job(rng, workload, i) for i in range(count)]


def write_jobs(jobs: list[dict], root: str) -> list[dict]:
    """Write each job's files under root/NNNN/ and return, per job, the
    paths and the expected outputs the checks compare against."""
    written = []
    for i, job in enumerate(jobs):
        d = os.path.join(root, f"{i:04d}")
        os.makedirs(d, exist_ok=True)
        paths = {}
        for name, doc in job["files"].items():
            path = os.path.join(d, name)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            paths[name.removesuffix(".json")] = path
        paths["word"] = os.path.join(d, "word.json")
        written.append({"paths": paths, "apply_expect": job["apply_expect"],
                        "verdict": job["verdict"]})
    return written
