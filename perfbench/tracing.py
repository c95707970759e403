"""Span tracing of jetmove's public functions, installed from outside.

Nothing in the package knows about this module.  ``Tracer.install``
replaces each traced function by a wrapper in every jetmove module (and
class) that binds it, because ``from .x import f`` makes a separate name
in the importing module: ``certify_twist`` lives in both
``automorphisms`` and ``transitivity``, for instance.  Methods are patched
on their class, so internal calls such as ``SturmChain(sf)`` inside
``sturm_root_count`` and ``a % b`` reaching ``Poly.divmod`` are seen too.

Spans stay in memory in flat arrays (name, start, end, parent, job) and
are written out once, when the run ends.  A layer's self time is its
span's duration minus the durations of the traced spans directly below
it; its total time counts only outermost spans of that name, so
recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (metric name, module, attribute path) of every traced function
TRACED = (
    ("exactalg.sturm_root_count", "jetmove.exactalg.sturm", "sturm_root_count"),
    ("exactalg.SturmChain.init", "jetmove.exactalg.sturm", "SturmChain.__init__"),
    ("exactalg.square_free_part", "jetmove.exactalg.poly", "square_free_part"),
    ("exactalg.poly_gcd", "jetmove.exactalg.poly", "poly_gcd"),
    ("exactalg.Poly.divmod", "jetmove.exactalg.poly", "Poly.divmod"),
    ("exactalg.Poly.call", "jetmove.exactalg.poly", "Poly.__call__"),
    ("exactalg.Series.mul", "jetmove.exactalg.series", "Series.__mul__"),
    ("exactalg.Series.invert", "jetmove.exactalg.series", "Series.invert"),
    ("exactalg.crt_combine", "jetmove.exactalg.crt", "crt_combine"),
    ("exactalg.hensel_sqrt", "jetmove.exactalg.series", "hensel_sqrt"),
    ("exactalg.scalar_sqrt_adjoin", "jetmove.exactalg.scalar", "scalar_sqrt_adjoin"),
    ("exactalg.Scalar.sign", "jetmove.exactalg.scalar", "Scalar.sign"),
    ("exactalg.scalar_to_str", "jetmove.exactalg.scalar", "scalar_to_str"),
    ("exactalg.parse_scalar", "jetmove.exactalg.scalar", "parse_scalar"),
    ("automorphisms.certify_twist", "jetmove.automorphisms", "certify_twist"),
    ("automorphisms.apply_jet", "jetmove.automorphisms", "apply_jet"),
    ("automorphisms.word_to_json", "jetmove.automorphisms", "word_to_json"),
    ("automorphisms.word_from_json", "jetmove.automorphisms", "word_from_json"),
    ("transitivity.interpolating_twist", "jetmove.transitivity", "interpolating_twist"),
    ("transitivity.rotation_twist", "jetmove.transitivity", "rotation_twist"),
    ("transitivity.separate_points_torus", "jetmove.transitivity", "separate_points_torus"),
    ("transitivity.separate_points_sphere", "jetmove.transitivity", "separate_points_sphere"),
    ("transitivity.solve_rotation_parameter", "jetmove.transitivity", "solve_rotation_parameter"),
    ("transitivity.make_nonvertical_sphere", "jetmove.transitivity", "make_nonvertical_sphere"),
    ("transitivity.synth_torus", "jetmove.transitivity", "synth_torus"),
    ("transitivity.synth_sphere", "jetmove.transitivity", "synth_sphere"),
    ("transitivity.synth_pair", "jetmove.transitivity", "synth_pair"),
    ("surfaces.jet_from_json", "jetmove.surfaces", "jet_from_json"),
    ("surfaces.jet_to_json", "jetmove.surfaces", "jet_to_json"),
    ("surfaces.jet_parametrize", "jetmove.surfaces", "jet_parametrize"),
    ("surfaces.jet_from_torus_param", "jetmove.surfaces", "jet_from_torus_param"),
    ("surfaces.jet_from_sphere_param", "jetmove.surfaces", "jet_from_sphere_param"),
    ("surfaces.standard_config", "jetmove.surfaces", "standard_config"),
    ("dantesque.descriptor_from_json", "jetmove.dantesque", "descriptor_from_json"),
    ("dantesque.descriptor_invariants", "jetmove.dantesque", "descriptor_invariants"),
    ("dantesque.descriptor_normalize", "jetmove.dantesque", "descriptor_normalize"),
    ("dantesque.isomorphism_decide", "jetmove.dantesque", "isomorphism_decide"),
    ("cli.cmd_synth", "jetmove.cli", "cmd_synth"),
    ("cli.cmd_verify", "jetmove.cli", "cmd_verify"),
    ("cli.cmd_apply", "jetmove.cli", "cmd_apply"),
    ("cli.cmd_classify", "jetmove.cli", "cmd_classify"),
)
# counted, not timed: a generator's span would end at its first yield
COUNTED = ("jetmove.transitivity", "enumerate_rationals")


class Spans:
    """Flat, append-only span store; index order is start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int, job: int = 0) -> int:
        """Append a finished span (tests build trees with this)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    def write(self, path: str):
        """One tab-separated line per span: name, start_ns, end_ns,
        parent index (-1 for none), job."""
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.job[i]}\n")


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per name: calls, self_s and total_s (outermost spans only)."""
    n_names = len(spans.names)
    calls = [0] * n_names
    self_ns = [0] * n_names
    total_ns = [0] * n_names
    child_ns = [0] * len(spans)
    for i in range(len(spans)):
        p = spans.parent[i]
        if p >= 0:
            child_ns[p] += spans.end[i] - spans.start[i]
    open_names: Counter = Counter()
    stack: list[int] = []
    for i in range(len(spans)):
        p = spans.parent[i]
        while stack and stack[-1] != p:
            open_names[spans.name[stack.pop()]] -= 1
        nid = spans.name[i]
        dur = spans.end[i] - spans.start[i]
        calls[nid] += 1
        self_ns[nid] += dur - child_ns[i]
        if not open_names[nid]:
            total_ns[nid] += dur
        stack.append(i)
        open_names[nid] += 1
    return {name: {"calls": calls[k], "self_s": self_ns[k] / 1e9,
                   "total_s": total_ns[k] / 1e9}
            for k, name in enumerate(spans.names)}


def nested(spans: Spans, inner: str, outer: str) -> tuple[int, int, float]:
    """Inner spans lying under some outer span: their count, the number
    of outer spans holding at least one, and their summed seconds (inner
    must not recurse for the seconds to mean inclusive time)."""
    ids = spans._ids
    if inner not in ids or outer not in ids:
        return 0, 0, 0.0
    iid, oid = ids[inner], ids[outer]
    count, holders, ns = 0, set(), 0
    for i in range(len(spans)):
        if spans.name[i] != iid:
            continue
        p = spans.parent[i]
        while p >= 0 and spans.name[p] != oid:
            p = spans.parent[p]
        if p >= 0:
            count += 1
            holders.add(p)
            ns += spans.end[i] - spans.start[i]
    return count, len(holders), ns / 1e9


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *cls, attr = path.split(".")
    for c in cls:
        owner = getattr(owner, c)
    return owner, attr


class Tracer:
    """Records spans for TRACED and counters fed by result hooks."""

    def __init__(self):
        self.spans = Spans()
        self.counters: Counter = Counter()
        self.job = 0
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn, hook=None):
        spans, nid = self.spans, self.spans.name_id(name)

        def traced(*args, **kwargs):
            i = len(spans.start)
            spans.name.append(nid)
            spans.parent.append(self._current)
            spans.job.append(self.job)
            spans.end.append(0)
            spans.start.append(perf_counter_ns())
            prev, self._current = self._current, i
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.end[i] = perf_counter_ns()
                self._current = prev
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def _count_wrapper(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["enum_picks"] += 1
            for item in fn(*args, **kwargs):
                counters["enum_tries"] += 1
                yield item

        return counted

    def _hooks(self):
        counters = self.counters

        def certified(args, g):
            counters["certify." + g.certificate.kind] += 1

        def applied(args, jet):
            counters["apply_generator_steps"] += len(args[0])

        return {"automorphisms.certify_twist": certified,
                "automorphisms.apply_jet": applied}

    def _rebind(self, original, replacement):
        """Point every jetmove module global and class attribute bound to
        ``original`` at ``replacement``."""
        for mname, mod in list(sys.modules.items()):
            if mname != "jetmove" and not mname.startswith("jetmove."):
                continue
            for owner in [mod] + [v for v in vars(mod).values()
                                  if isinstance(v, type) and v.__module__ == mname]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, attr, original))
                        setattr(owner, attr, replacement)

    def install(self):
        hooks = self._hooks()
        for name, module, path in TRACED:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            self._rebind(fn, self._span_wrapper(name, fn, hooks.get(name)))
        owner, attr = _resolve(*COUNTED)
        fn = vars(owner)[attr]
        self._rebind(fn, self._count_wrapper(fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
