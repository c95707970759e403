"""One measured run in a fresh interpreter: set up, push jobs, report.

Started by run.py, never imported by it, so jetmove's process-wide
tower cache (``Tower._intern``) starts empty here exactly as it does for
each real CLI invocation, and is shared by the jobs of this run as it
would be by a batch.  Each job goes through ``jetmove.cli.main`` one step
at a time (synth, verify, apply and, for pair jobs, classify) with
stdout sent to an in-memory sink, so the CLI's own printing is paid for
but terminal speed is not measured.

    python3 perfbench/worker.py --workload W --seed N --jobs J \
        --workdir DIR --out RESULT.json --t0 MONOTONIC [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before starting this
interpreter, so setup time covers interpreter start, imports, input
generation and job-file writing.  The reference loop of speed.py runs
once right after set-up and around every CLI step, outside the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from jetmove.cli import main as cli_main  # noqa: E402
from jetmove.exactalg import Tower  # noqa: E402

import gen  # noqa: E402
import speed  # noqa: E402
from tracing import TRACED, Tracer, nested, summarize  # noqa: E402

CERT_KINDS = ("torus-twist", "sphere-twist", "sphere-twist-square", "moebius")
# exit code of `classify` for each verdict (see jetmove.cli)
VERDICT_EXIT = {gen.ISOMORPHIC: 0, gen.NOT_ISOMORPHIC: 1, gen.HYPOTHESIS_NOT_MET: 4}
_RATIONAL = re.compile(r"(\d+)(?:/(\d+))?")


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    sink = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli_main(argv)
    return rc, sink.getvalue(), time.perf_counter() - t


def run_job(job: dict) -> dict:
    """Push one job through the CLI; returns per-step wall seconds, the
    reference loop's mean time around each step (see speed.py), the CPU
    seconds of the job's steps and the failed steps."""
    p = job["paths"]
    times: dict[str, float] = {}
    loops: dict[str, float] = {}
    failed: list[str] = []
    before = [speed.loop_s()]

    def step(name: str, argv: list[str]) -> tuple[int, str]:
        nonlocal cpu_s
        cpu0 = time.process_time()
        rc, out, times[name] = _run_cli(argv)
        cpu_s += time.process_time() - cpu0
        after = speed.loop_s()
        loops[name] = (before[0] + after) / 2
        before[0] = after
        return rc, out

    cpu_s = 0.0
    rc, _ = step("synth", ["synth", "--job", p["job"], "--out", p["word"]])
    if rc != 0:
        failed += ["synth", "verify", "apply"]   # nothing to verify or apply
    else:
        rc, _ = step("verify", ["verify", "--word", p["word"],
                                "--from", p["from"], "--to", p["to"]])
        if rc != 0:
            failed.append("verify")
        rc, out = step("apply", ["apply", "--word", p["word"], "--jet", p["jet"]])
        try:
            same = rc == 0 and json.loads(out) == job["apply_expect"]
        except json.JSONDecodeError:
            same = False
        if not same:
            failed.append("apply")
    if job["verdict"] is not None:
        rc, out = step("classify", ["classify", p["first"], p["second"]])
        lines = out.splitlines()
        if rc != VERDICT_EXIT[job["verdict"]] or not lines or lines[0] != job["verdict"]:
            failed.append("classify")
    attempted = 3 + (job["verdict"] is not None)
    return {"times": times, "loops": loops, "cpu_s": cpu_s,
            "failed": failed, "attempted": attempted}


def word_sizes(paths: list[str]) -> dict:
    """Byte count, SHA-256, generator count and top degree of the emitted
    words, and the median over words of each word's largest rational
    leaf (numerator + denominator bits)."""
    digest = hashlib.sha256()
    out = {"word_bytes": 0, "generators": 0, "max_degree": 0}
    leaf_bits = []
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        out["word_bytes"] += len(raw)
        word = json.loads(raw)
        out["generators"] += len(word["generators"])
        bits = 0
        for g in word["generators"]:
            for key in ("p", "q", "r"):
                if key in g:
                    out["max_degree"] = max(out["max_degree"], len(g[key]) - 1)
            leaves = json.dumps([g.get(k) for k in ("p", "q", "r", "mx", "my")])
            for num, den in _RATIONAL.findall(leaves):
                bits = max(bits, int(num).bit_length()
                           + (int(den).bit_length() if den else 1))
        leaf_bits.append(bits)
    out["coeff_bits"] = statistics.median(leaf_bits)
    out["sha256"] = digest.hexdigest()
    return out


def layer_metrics(tracer, towers_adjoined: int) -> dict[str, float]:
    """Every per-layer metric of a traced run, from spans and counters."""
    stats = summarize(tracer.spans)
    c = tracer.counters
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    m: dict[str, float] = {}
    for name, _, _ in TRACED:
        s = stats.get(name, zero)
        m[name + ".calls"] = s["calls"]
        m[name + ".self_s"] = s["self_s"]
        if name.startswith(("cli.", "transitivity.synth_")) or name in (
                "automorphisms.certify_twist", "automorphisms.apply_jet"):
            m[name + ".total_s"] = s["total_s"]
    cert = stats.get("automorphisms.certify_twist", zero)
    for kind in CERT_KINDS:
        m["automorphisms.certify_twist.calls." + kind] = c["certify." + kind]
    _, routed, _ = nested(tracer.spans, "exactalg.sturm_root_count",
                          "automorphisms.certify_twist")
    m["automorphisms.certify_twist.sturm_route_share"] = (
        routed / cert["calls"] if cert["calls"] else 0.0)
    synth = stats.get("cli.cmd_synth", zero)
    _, _, cert_in_synth = nested(tracer.spans, "automorphisms.certify_twist",
                                 "cli.cmd_synth")
    m["automorphisms.certify_twist.synth_share"] = (
        cert_in_synth / synth["total_s"] if synth["total_s"] else 0.0)
    steps = c["apply_generator_steps"]
    m["automorphisms.apply_jet.generator_steps"] = steps
    m["automorphisms.apply_jet.s_per_generator"] = (
        stats.get("automorphisms.apply_jet", zero)["total_s"] / steps if steps else 0.0)
    in_synth, _, _ = nested(tracer.spans, "automorphisms.apply_jet", "cli.cmd_synth")
    m["automorphisms.apply_jet.calls_per_synth_job"] = (
        in_synth / synth["calls"] if synth["calls"] else 0.0)
    m["exactalg.towers_adjoined"] = towers_adjoined
    m["transitivity.enum_picks"] = c["enum_picks"]
    m["transitivity.enum_tries"] = c["enum_tries"]
    m["transitivity.enum_tries_per_pick"] = (
        c["enum_tries"] / c["enum_picks"] if c["enum_picks"] else 0.0)
    m["trace.spans"] = len(tracer.spans)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = gen.write_jobs(gen.generate(args.workload, args.seed, args.jobs),
                          args.workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    towers_before = len(Tower._intern)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s, "setup_loop_s": speed.loop_s()}
    if not args.setup_only:
        per_job = []
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            per_job.append(run_job(job))
        towers = len(Tower._intern) - towers_before
        result.update({
            "jobs": per_job,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "words": word_sizes([j["paths"]["word"] for j in jobs
                                 if os.path.exists(j["paths"]["word"])]),
        })
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer, towers)
            tracer.spans.write(os.path.join(args.workdir, "spans.tsv"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
