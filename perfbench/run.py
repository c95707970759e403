"""jetmove benchmark runner: closed loop, one client, one job in flight.

    python3 perfbench/run.py --workload torus-points --seed 1 --seconds 20 --trace 0

A run pushes a seeded list of jobs through ``jetmove.cli.main`` in a
fresh interpreter (worker.py), so jetmove's tower cache starts empty as
it does for a real CLI call, and only one process is busy at a time.
Every step time is scaled to a reference CPU speed (speed.py).  Set-up
is timed in that interpreter and in a few set-up-only ones, and its
median is reported.  With ``--trace 1`` an untraced and a traced pass
run the same jobs; the per-layer metrics come from the traced pass, the
tracing overhead from the two passes' jobs per second, and the two must
emit the same words.

The job count is whole cycles of the workload's job schedule (gen.py),
as many as last about ``--seconds`` on a 2-CPU box, so every run of one
seed does the same work.  The last stdout line is the
JSON result; a summary with the word hash, the tail percentiles, the
unscaled medians and the environment goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import at_ref, loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

# workload -> (jobs in one cycle of its schedule, nominal seconds per cycle)
CYCLES = {"torus-points": (1, 2.1), "sphere-jets": (1, 1.6), "pair-mixed": (5, 2.5)}
SETUP_REPEATS = 6        # set-up-only interpreters per run, besides the measured one
RUN_LIMIT_S = 170        # a run must end within 180 s
TAIL_BEYOND = 10


def job_count(workload: str, seconds: float) -> int:
    size, cycle_s = CYCLES[workload]
    return size * max(1, round(seconds / cycle_s))


def tail(samples: list[float]) -> tuple[float, float | None]:
    """Value at the highest percentile, at or above the median, with at
    least ten samples beyond it, and that percentile.  With fewer than
    twenty samples no percentile qualifies; the median stands in and the
    percentile is None."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), None
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scaled(jobs: list[dict]) -> list[dict]:
    """Each job's step seconds and CPU seconds at the reference speed."""
    return [{"times": {s: at_ref(t, j["loops"][s]) for s, t in j["times"].items()},
             "cpu_s": at_ref(j["cpu_s"], *j["loops"].values()),
             "passed": not j["failed"]}
            for j in jobs]


def jobs_per_s(jobs: list[dict]) -> float:
    """Jobs whose every step passed, per second of (scaled) CLI time."""
    return sum(j["passed"] for j in jobs) / sum(sum(j["times"].values()) for j in jobs)


def steps(passes: list[dict]) -> tuple[int, int]:
    """Steps attempted and steps failed, over all passes."""
    jobs = [j for p in passes for j in p["jobs"]]
    return sum(j["attempted"] for j in jobs), sum(len(j["failed"]) for j in jobs)


def end_to_end(run: dict, setup_s: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of one untraced pass, plus notes."""
    jobs = scaled(run["jobs"])
    times = {step: [j["times"][step] for j in jobs if step in j["times"]]
             for step in ("synth", "verify", "apply")}
    synth_tail, synth_pct = tail(times["synth"])
    verify_tail, verify_pct = tail(times["verify"])
    attempted, failed = steps([run])
    words = run["words"]
    m = {
        "setup_s": setup_s,
        "synth_p50_s": statistics.median(times["synth"]),
        "synth_tail_s": synth_tail,
        "verify_p50_s": statistics.median(times["verify"]),
        "verify_tail_s": verify_tail,
        "apply_p50_s": statistics.median(times["apply"]),
        "jobs_per_s": jobs_per_s(jobs),
        "cpu_s": sum(j["cpu_s"] for j in jobs),
        "peak_rss_mb": run["peak_rss_mb"],
        "word_bytes": words["word_bytes"],
        "generators": words["generators"],
        "max_degree": words["max_degree"],
        "coeff_bits": words["coeff_bits"],
        "passed_share": (attempted - failed) / attempted,
    }
    notes = {"jobs": len(jobs),
             "tail_percentile": {"synth": synth_pct, "verify": verify_pct},
             "word_sha256": words["sha256"],
             "unscaled_p50_s": {
                 step: statistics.median(j["times"][step] for j in run["jobs"]
                                         if step in j["times"])
                 for step in times}}
    return m, notes


def _worker(args: argparse.Namespace, jobs: int, tag: str, deadline: float,
            *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    workdir = os.path.join(WORKDIR, args.workload, tag)
    out = workdir + ".json"
    env = {k: v for k, v in os.environ.items() if k != "JETMOVE_ENUM_LIMIT"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--jobs", str(jobs), "--workdir", workdir, "--out", out, *flags]
    spawn_loop_s = loop_s()
    proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], env=env)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:  # past the run's time limit, or interrupted
        proc.kill()
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"worker {tag} exited with code {rc}")
    with open(out) as fh:
        result = json.load(fh)
    # set-up at the reference speed, read before and after it
    result["setup_s"] = at_ref(result["setup_s"], spawn_loop_s, result["setup_loop_s"])
    return result


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jetmove end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that _worker stops its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "jetmove", "cli.py")):
        print("jetmove sources not found under src/", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(WORKDIR, args.workload), ignore_errors=True)
    os.makedirs(os.path.join(WORKDIR, args.workload))
    jobs = job_count(args.workload, args.seconds)

    plain = _worker(args, jobs, "plain", deadline)
    passes = [plain]
    if args.trace == 0:
        setups = [plain["setup_s"]] + [
            _worker(args, jobs, f"setup{k}", deadline, "--setup-only")["setup_s"]
            for k in range(SETUP_REPEATS)]
        values, notes = end_to_end(plain, statistics.median(setups))
        notes["setup_samples_s"] = setups
        declared = _declared("end_to_end")
    else:
        traced = _worker(args, jobs, "traced", deadline, "--trace")
        passes.append(traced)
        values = dict(traced["layers"])
        rates = [jobs_per_s(scaled(p["jobs"])) for p in passes]
        values["trace.overhead_share"] = 1 - rates[1] / rates[0]
        notes = {"jobs": jobs, "jobs_per_s": {"untraced": rates[0],
                                              "traced": rates[1]},
                 "word_sha256": plain["words"]["sha256"]}
        declared = _declared("per_layer")
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    attempted, failed = steps(passes)
    # tracing must not change the words
    same_words = len({p["words"]["sha256"] for p in passes}) == 1
    notes.update(workload=args.workload, seed=args.seed,
                 python=sys.version.split()[0], nproc=len(os.sched_getaffinity(0)),
                 JETMOVE_ENUM_LIMIT="unset")
    print(json.dumps(notes), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and same_words,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
