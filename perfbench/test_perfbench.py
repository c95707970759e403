"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import filecmp
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import job_count, jobs_per_s, scaled, tail  # noqa: E402
from speed import REF_LOOP_S, at_ref, loop_s  # noqa: E402
from tracing import Spans, Tracer, nested, summarize  # noqa: E402


def test_self_time_on_a_hand_built_span_tree():
    s = Spans()
    root = s.add("cli.cmd_synth", 0, 100, -1)
    a = s.add("automorphisms.certify_twist", 10, 50, root)
    s.add("exactalg.Poly.divmod", 15, 25, a)
    s.add("exactalg.Poly.divmod", 30, 45, a)
    b = s.add("automorphisms.certify_twist", 60, 90, root)
    s.add("exactalg.Poly.divmod", 70, 80, b)
    # recursion: the inner span is not counted again in the total
    outer = s.add("exactalg.Poly.call", 120, 160, -1)
    s.add("exactalg.Poly.call", 130, 140, outer)

    stats = summarize(s)
    synth = stats["cli.cmd_synth"]
    assert (synth["calls"], synth["self_s"], synth["total_s"]) == (1, 30e-9, 100e-9)
    cert = stats["automorphisms.certify_twist"]
    assert cert["calls"] == 2
    assert cert["self_s"] == pytest.approx((40 - 25 + 30 - 10) * 1e-9)
    assert cert["total_s"] == pytest.approx(70e-9)
    div = stats["exactalg.Poly.divmod"]
    assert (div["calls"], div["self_s"]) == (3, pytest.approx(35e-9))
    call = stats["exactalg.Poly.call"]
    assert call["self_s"] == pytest.approx(40e-9)
    assert call["total_s"] == pytest.approx(40e-9)

    count, holders, secs = nested(s, "exactalg.Poly.divmod", "automorphisms.certify_twist")
    assert (count, holders, secs) == (3, 2, pytest.approx(35e-9))
    assert nested(s, "exactalg.Poly.call", "cli.cmd_synth") == (0, 0, 0.0)


def test_tracer_rebinds_every_name_and_restores_them():
    import jetmove.automorphisms as aut
    import jetmove.transitivity as tra
    import jetmove.exactalg as exa
    from jetmove.exactalg import Poly, Series, SturmChain

    original, init = aut.certify_twist, SturmChain.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert aut.certify_twist is tra.certify_twist is not original
        assert Series.__rmul__ is Series.__mul__
        exa.sturm_root_count(Poly([1, 0, 1]))
    finally:
        tracer.uninstall()
    assert aut.certify_twist is tra.certify_twist is original
    stats = summarize(tracer.spans)
    assert stats["exactalg.sturm_root_count"]["calls"] == 1
    assert stats["exactalg.SturmChain.init"]["calls"] == 1
    assert SturmChain.__init__ is init


@pytest.mark.parametrize("n, value, pct", [
    (5, 3, None),          # too few jobs: no percentile has ten beyond it
    (19, 10, None),
    (20, 10, 50.0),        # exactly ten beyond the median
    (25, 15, 60.0),
    (100, 90, 90.0),
    (101, 91, 100 * 91 / 101),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, value, pct):
    samples = list(range(n, 0, -1))
    got, got_pct = tail(samples)
    assert got == value
    assert got_pct == (pytest.approx(pct) if pct is not None else None)
    if pct is not None:
        assert sum(x > got for x in samples) == 10


def test_job_count_is_whole_cycles_and_at_least_one():
    assert job_count("torus-points", 1) == 1
    assert job_count("pair-mixed", 30) % 5 == 0
    assert job_count("sphere-jets", 60) > job_count("sphere-jets", 30)


def test_scaled_takes_each_job_at_the_reference_speed():
    ref = REF_LOOP_S
    jobs = [{"times": {"synth": 2.0, "verify": 1.0}, "cpu_s": 3.0,
             "loops": {"synth": 2 * ref, "verify": ref}, "failed": []},
            {"times": {"synth": 1.8}, "cpu_s": 1.9,
             "loops": {"synth": ref}, "failed": ["verify"]}]
    first, second = scaled(jobs)
    assert first["times"] == {"synth": pytest.approx(1.0), "verify": pytest.approx(1.0)}
    # CPU time is scaled by the loop's mean over the job's steps
    assert first["cpu_s"] == pytest.approx(3.0 / 1.5)
    assert first["passed"] is True
    assert second == {"times": {"synth": pytest.approx(1.8)},
                      "cpu_s": pytest.approx(1.9), "passed": False}
    assert jobs_per_s([first, second]) == pytest.approx(1 / 3.8)


def test_at_ref_scales_by_the_mean_loop_time():
    assert loop_s() > 0
    assert at_ref(2.0, REF_LOOP_S) == pytest.approx(2.0)
    assert at_ref(2.0, REF_LOOP_S, 5 * REF_LOOP_S) == pytest.approx(2.0 / 3)


@pytest.mark.parametrize("workload", ["torus-points", "sphere-jets", "pair-mixed"])
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    import gen

    count = 5 if workload == "pair-mixed" else 2
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_jobs(gen.generate(workload, seed, count), str(tmp_path / tag))
    names = sorted(os.listdir(tmp_path / "a" / "0000"))
    assert names
    for i in range(count):
        d = f"{i:04d}"
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / d, tmp_path / "b" / d, names, shallow=False)
        assert (mismatch, errors) == ([], [])
    assert not filecmp.cmp(tmp_path / "a" / "0000" / "job.json",
                           tmp_path / "c" / "0000" / "job.json", shallow=False)
