"""End-to-end checks of the batch front end, driven in process."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (PYPROJECT, noncanonical_sphere_jet_json,
                      parse_project_scripts, rand_sphere_jet, wrapper_source)
import jetmove
from jetmove.automorphisms import (MAX_TWIST_DEGREE, SphereTwist, apply_jet,
                                   word_from_json)
from jetmove.cli import (INTERNAL, INVALID, NEGATIVE, OK, OUT_OF_SCOPE,
                         TOO_LARGE, main)
from jetmove import cli
from jetmove.dantesque import BASE, BlowupRecord, SurfaceDescriptor, descriptor_to_json
from jetmove.errors import InternalVerificationFailure, OutputTooLarge
from jetmove.exactalg import ONE, ZERO, Poly, Series, hensel_sqrt, poly_to_series, scal
from jetmove.surfaces import (
    Jet,
    ProjPoint,
    SPHERE,
    TORUS,
    TorusPoint,
    jet_from_json,
    jet_to_json,
    sphere_point_stereo,
    standard_config,
)

pytestmark = []


def write(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def job_file(tmp_path, name, surface, jets, **extra):
    data = {"surface": surface, "partition": [j.order for j in jets],
            "jets": [jet_to_json(j) for j in jets]}
    data.update(extra)
    return write(tmp_path / name, data)


@pytest.fixture
def torus_targets():
    return [
        Jet.torus(TorusPoint.affine(5, 7), 2, Series(scal(5), 2, [7, 2])),
        Jet.torus(TorusPoint.affine(0, 1), 1, Series(ZERO, 1, [ONE])),
    ]


def std_file(tmp_path, name, surface, orders):
    jets = standard_config(surface, orders).jets
    return job_file(tmp_path, name, surface, list(jets))


# ---------------------------------------------------------------------------
# synth and verify


def test_synth_verify_round_trip(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = str(tmp_path / "word.json")
    assert main(["synth", "--job", job, "--out", out]) == OK
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].endswith("generators to " + out)
    # one "<route>: <formula>" line per generator; the file stores neither
    word = word_from_json(json.loads(Path(out).read_text()))
    assert printed[:-1] == [f"{g.route}: {g}" for g in word.generators]
    assert all(set(g) <= {"type", "axis", "p", "q", "mx", "my"}
               for g in json.loads(Path(out).read_text())["generators"])

    std = std_file(tmp_path, "std.json", TORUS, [2, 1])
    assert main(["verify", "--word", out, "--from", std, "--to", job]) == OK
    assert "ok: 2 jets verified" in capsys.readouterr().out


def test_synth_sphere_job(tmp_path, capsys, torus_targets):
    jets = list(standard_config(SPHERE, [2, 1]).jets)
    job = job_file(tmp_path, "sjob.json", SPHERE, jets)
    out = str(tmp_path / "sword.json")
    assert main(["synth", "--job", job, "--out", out]) == OK
    capsys.readouterr()
    assert main(["verify", "--word", out, "--from", job, "--to", job]) == OK


def test_sphere_word_loads_without_triple(tmp_path, capsys, monkeypatch, rng):
    # a load proves each stored (p, q, r) by (r - p)(r + p) = q^2 and an
    # apply moves jets through n/d, so neither forms the triple again
    targets = [rand_sphere_jet(rng, 2), rand_sphere_jet(rng, 1)]
    job = job_file(tmp_path, "sjob.json", SPHERE, targets)
    std = std_file(tmp_path, "std.json", SPHERE, [2, 1])
    out = str(tmp_path / "sword.json")
    assert main(["synth", "--job", job, "--out", out]) == OK
    capsys.readouterr()

    def refuse(self):
        raise AssertionError("a sphere triple was formed again")

    monkeypatch.setattr(SphereTwist, "triple", refuse)
    word = word_from_json(json.loads(Path(out).read_text()))
    assert any(isinstance(g, SphereTwist) for g in word.generators)
    std_jets = standard_config(SPHERE, [2, 1]).jets
    assert [apply_jet(word, j) for j in std_jets] == targets
    assert main(["verify", "--word", out, "--from", std, "--to", job]) == OK
    assert "ok: 2 jets verified" in capsys.readouterr().out


def test_verify_reports_first_bad_coefficient(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = str(tmp_path / "word.json")
    main(["synth", "--job", job, "--out", out])
    capsys.readouterr()

    wrong = [jet_to_json(j) for j in torus_targets]
    wrong[0]["graph"]["f"][1] = "3"
    bad = write(tmp_path / "bad.json", {"surface": TORUS, "partition": [2, 1],
                                        "jets": wrong})
    std = std_file(tmp_path, "std.json", TORUS, [2, 1])
    assert main(["verify", "--word", out, "--from", std, "--to", bad]) == NEGATIVE
    got = capsys.readouterr().out
    assert "jet 0, graph 0, coefficient 1" in got
    assert "image 2, target 3" in got


def test_verify_reports_center_mismatch(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = str(tmp_path / "word.json")
    main(["synth", "--job", job, "--out", out])
    capsys.readouterr()

    moved = [Jet.torus(TorusPoint.affine(6, 7), 2, Series(scal(6), 2, [7, 2])),
             torus_targets[1]]
    bad = job_file(tmp_path, "moved.json", TORUS, moved)
    std = std_file(tmp_path, "std.json", TORUS, [2, 1])
    assert main(["verify", "--word", out, "--from", std, "--to", bad]) == NEGATIVE
    assert "center" in capsys.readouterr().out


def test_synth_rejects_shared_centers(tmp_path, capsys):
    twice = [Jet.torus(TorusPoint.affine(1, 1), 1, Series(ONE, 1, [ONE])),
             Jet.torus(TorusPoint.affine(1, 1), 2, Series(ONE, 2, [ONE, ONE]))]
    job = job_file(tmp_path, "dup.json", TORUS, twice)
    assert main(["synth", "--job", job, "--out", str(tmp_path / "w.json")]) \
        == INVALID
    assert "invalid job" in capsys.readouterr().err


def test_unknown_job_surface_is_invalid(tmp_path, capsys):
    job = write(tmp_path / "k.json", {"surface": "klein", "jets": []})
    out = tmp_path / "w.json"
    assert main(["synth", "--job", job, "--out", str(out)]) == INVALID
    assert not out.exists()
    word = identity_word(tmp_path, SPHERE)
    assert main(["verify", "--word", word, "--from", job, "--to", job]) == INVALID
    assert capsys.readouterr().err.count("unknown job surface 'klein'") == 2


def test_synth_rejects_partition_mismatch(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets,
                   partition=[3, 1])
    assert main(["synth", "--job", job, "--out", str(tmp_path / "w.json")]) \
        == INVALID
    assert "partition" in capsys.readouterr().err


def test_missing_file_is_invalid(tmp_path, capsys):
    assert main(["synth", "--job", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "w.json")]) == INVALID
    assert "cannot read job" in capsys.readouterr().err


def test_bad_word_fails_certification(tmp_path, capsys, torus_targets):
    word = {"surface": TORUS, "generators": [
        {"type": "twist", "axis": "y", "p": ["0", "0", "1"],
         "q": ["-1", "0", "1"]}]}
    wfile = write(tmp_path / "bad_word.json", word)
    std = std_file(tmp_path, "std.json", TORUS, [2, 1])
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    assert main(["verify", "--word", wfile, "--from", std, "--to", job]) \
        == INVALID
    err = capsys.readouterr().err
    assert "certification failed" in err and "witness" in err


def test_load_limits_exit_invalid(tmp_path, capsys):
    # a twist polynomial past MAX_TWIST_DEGREE in a word, and jet orders
    # summing past half of it in a job, are both invalid input
    long = ["1"] + ["0"] * MAX_TWIST_DEGREE + ["1"]
    wfile = write(tmp_path / "long.json", {"surface": TORUS, "generators": [
        {"type": "twist", "axis": "y", "p": long, "q": long}]})
    std = std_file(tmp_path, "std.json", TORUS, [1])
    assert main(["verify", "--word", wfile, "--from", std, "--to", std]) == INVALID
    assert f"degree at most {MAX_TWIST_DEGREE}" in capsys.readouterr().err
    total = MAX_TWIST_DEGREE // 2 + 1
    job = std_file(tmp_path, "big.json", TORUS, [total])
    assert main(["synth", "--job", job, "--out", str(tmp_path / "w.json")]) == INVALID
    assert f"jet orders sum to {total}" in capsys.readouterr().err
    assert not (tmp_path / "w.json").exists()


def test_pair_mode_job(tmp_path, capsys):
    frm = [Jet.torus(TorusPoint.affine(0, 0), 2, Series(ZERO, 2, [ZERO, ONE]))]
    to = [Jet.torus(TorusPoint.affine(2, 3), 2, Series(scal(2), 2, [3, 5]))]
    job = write(tmp_path / "pair.json", {
        "surface": TORUS, "partition": [2],
        "from": [jet_to_json(j) for j in frm],
        "to": [jet_to_json(j) for j in to]})
    out = str(tmp_path / "word.json")
    assert main(["synth", "--job", job, "--out", out]) == OK
    capsys.readouterr()

    ffile = job_file(tmp_path, "from.json", TORUS, frm)
    tfile = job_file(tmp_path, "to.json", TORUS, to)
    assert main(["verify", "--word", out, "--from", ffile, "--to", tfile]) == OK


def test_pinned_job(tmp_path, capsys):
    pin = [Jet.torus(TorusPoint.affine(9, 9), 1, Series(scal(9), 1, [scal(9)]))]
    targets = [Jet.torus(TorusPoint.affine(2, 3), 2, Series(scal(2), 2, [3, 5]))]
    job = job_file(tmp_path, "job.json", TORUS, targets,
                   pinned=[jet_to_json(j) for j in pin])
    out = str(tmp_path / "word.json")
    assert main(["synth", "--job", job, "--out", out]) == OK
    capsys.readouterr()
    word = word_from_json(json.loads((tmp_path / "word.json").read_text()))
    assert apply_jet(word, pin[0]) == pin[0]
    assert apply_jet(word, standard_config(TORUS, [2]).jets[0]) == targets[0]


# ---------------------------------------------------------------------------
# exit codes of failures


def test_synth_internal_failure_writes_nothing(tmp_path, capsys, torus_targets,
                                               monkeypatch):
    def failing(targets):
        raise InternalVerificationFailure("synthesized word misses target jet 0")

    monkeypatch.setattr(cli, "synth_torus", failing)
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = tmp_path / "word.json"
    assert main(["synth", "--job", job, "--out", str(out)]) == INTERNAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "internal verification failure: synthesized word misses target jet 0\n"


@pytest.mark.parametrize("scalar", ["-" * 5000 + "1",
                                    "sqrt(" * 5000 + "2" + ")" * 5000],
                         ids=["minus-signs", "sqrt-nesting"])
def test_hostile_scalar_nesting_is_invalid_input(tmp_path, capsys, scalar):
    # signs fold in a loop and sqrt( nesting has a stated limit, so neither
    # reaches the interpreter's recursion limit
    std = standard_config(SPHERE, [1]).jets[0]
    hostile = jet_to_json(std)
    hostile["center"] = [scalar, "0", "0"]
    jet = write(tmp_path / "jet.json", hostile)
    job = write(tmp_path / "job.json", {"surface": SPHERE, "partition": [1],
                                        "jets": [hostile]})
    word = write(tmp_path / "word.json", {"surface": SPHERE, "generators": []})
    for argv in (["synth", "--job", job, "--out", str(tmp_path / "w.json")],
                 ["apply", "--word", word, "--jet", jet]):
        assert main(argv) == INVALID
        err = capsys.readouterr().err
        assert "Traceback" not in err and "internal" not in err
        assert err.count("\n") == 1
    assert not (tmp_path / "w.json").exists()


_DEEP = ["synth", "verify", "apply", "classify", "compose"]


@pytest.mark.parametrize("command", _DEEP, ids=_DEEP)
def test_deeply_nested_json_is_invalid_input(tmp_path, capsys, command):
    # 200,000 nested arrays exhaust the JSON parser's recursion, which is
    # bad input (exit 2), not a crash of the program (exit 3)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    std = std_file(tmp_path, "std.json", TORUS, [1])
    word = write(tmp_path / "word.json", {"surface": TORUS, "generators": []})
    desc = desc_file(tmp_path, "desc.json", "torus", [1])
    out = str(tmp_path / "w.json")
    argv = {"synth": ["synth", "--job", str(deep), "--out", out],
            "verify": ["verify", "--word", str(deep), "--from", std, "--to", std],
            "apply": ["apply", "--word", word, "--jet", str(deep)],
            "classify": ["classify", desc, str(deep)],
            "compose": ["compose", word, str(deep), "--out", out]}[command]
    assert main(argv) == INVALID
    err = capsys.readouterr().err
    assert err.startswith("cannot read") and "nested too deeply" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "w.json").exists()


def test_crash_exits_internal_not_negative(tmp_path, capsys, torus_targets,
                                           monkeypatch):
    # an unexpected error of the program is not a negative verdict
    def crash(jets):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "synth_torus", crash)
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = tmp_path / "w.json"
    assert main(["synth", "--job", job, "--out", str(out)]) == INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "compose"])
def test_out_write_error_names_the_output(tmp_path, capsys, torus_targets,
                                          command):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    word = str(tmp_path / "word.json")
    assert main(["synth", "--job", job, "--out", word]) == OK
    capsys.readouterr()
    out = str(tmp_path / "missing" / "w.json")
    argv = (["synth", "--job", job, "--out", out] if command == "synth"
            else ["compose", word, word, "--out", out])
    assert main(argv) == INVALID
    captured = capsys.readouterr()
    assert captured.err == f"cannot write {out}: No such file or directory\n"
    assert "wrote" not in captured.out


@pytest.mark.parametrize("command", ["synth", "compose"])
def test_refused_output_leaves_out_untouched(tmp_path, capsys, torus_targets,
                                             monkeypatch, command):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    word = str(tmp_path / "word.json")
    assert main(["synth", "--job", job, "--out", word]) == OK
    capsys.readouterr()

    def too_large(w):
        raise OutputTooLarge("a number has more than 4000 digits")

    monkeypatch.setattr(cli, "word_to_json", too_large)
    out = tmp_path / "w.json"
    out.write_text("kept\n")
    argv = (["synth", "--job", job, "--out", str(out)] if command == "synth"
            else ["compose", word, word, "--out", str(out)])
    assert main(argv) == TOO_LARGE
    captured = capsys.readouterr()
    assert captured.err == "output too large: a number has more than 4000 digits\n"
    assert out.read_text() == "kept\n"


def identity_word(tmp_path, surface):
    return write(tmp_path / "id.json", {"surface": surface, "generators": []})


@pytest.mark.parametrize("tag", [1, 7])
def test_torus_chart_tag_against_center_is_invalid(tmp_path, capsys, tag):
    jet = jet_to_json(Jet.torus(TorusPoint.affine(5, 7), 1,
                                Series(scal(5), 1, [7])))
    jet["chart"]["x"] = tag
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, TORUS),
                 "--jet", jfile]) == INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chart tags do not match the center" in captured.err


@pytest.mark.parametrize("field, value", [("x", 0.5), ("x", "0"), ("y", True),
                                          ("transposed", "false"),
                                          ("transposed", 0)])
def test_torus_chart_field_of_wrong_json_type_is_invalid(tmp_path, capsys,
                                                         field, value):
    jet = jet_to_json(Jet.torus(TorusPoint.affine(5, 5), 2,
                                Series(scal(5), 2, [5, 0])))
    jet["chart"][field] = value
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, TORUS),
                 "--jet", jfile]) == INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


def test_noncanonical_sphere_chart_is_invalid(tmp_path, capsys):
    # at order 1, synth used to fail its own final check (exit 3) and
    # verify to give a negative verdict
    for order in (2, 1):
        std = std_file(tmp_path, "std.json", SPHERE, [order])
        bad = write(tmp_path / "bad.json",
                    {"surface": SPHERE, "partition": [order],
                     "jets": [noncanonical_sphere_jet_json(order)]})
        assert main(["verify", "--word", identity_word(tmp_path, SPHERE),
                     "--from", std, "--to", bad]) == INVALID
        assert "canonical chart is x, stored y" in capsys.readouterr().err
        assert main(["synth", "--job", bad, "--out", str(tmp_path / "w.json")]) == INVALID
        assert "canonical chart is x, stored y" in capsys.readouterr().err


@pytest.mark.parametrize("chart", ["w", "coords", ["x"]])
def test_unknown_sphere_chart_is_invalid(tmp_path, capsys, chart):
    jet = jet_to_json(standard_config(SPHERE, [2]).jets[0])
    jet["chart"] = chart
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, SPHERE),
                 "--jet", jfile]) == INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "internal" not in err


def test_zero_denominator_is_invalid(tmp_path, capsys):
    jet = jet_to_json(standard_config(TORUS, [1]).jets[0])
    jet["graph"]["f"] = ["1/0"]
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, TORUS),
                 "--jet", jfile]) == INVALID
    err = capsys.readouterr().err
    assert err.startswith("cannot read input") and "zero denominator" in err


@pytest.mark.parametrize("entry", [7, None, 1.5, ["1"]])
def test_non_string_scalar_is_invalid(tmp_path, capsys, entry):
    jet = jet_to_json(standard_config(TORUS, [1]).jets[0])
    jet["graph"]["f"] = [entry]
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, TORUS),
                 "--jet", jfile]) == INVALID
    assert capsys.readouterr().err.startswith("cannot read input")


@pytest.mark.parametrize("g", [
    # "q": "12" would read as 1 + 2x
    {"type": "twist", "axis": "y", "p": ["0", "0", "1"], "q": "12"},
    {"type": "moebius", "mx": "12", "my": [["1", "0"], ["0", "1"]]},
    {"type": "moebius", "mx": ["01", ["1", "0"]], "my": [["1", "0"], ["0", "1"]]},
])
def test_word_arrays_must_be_lists(tmp_path, capsys, g):
    wfile = write(tmp_path / "w.json", {"surface": TORUS, "generators": [g]})
    jfile = write(tmp_path / "jet.json", jet_to_json(standard_config(TORUS, [1]).jets[0]))
    assert main(["apply", "--word", wfile, "--jet", jfile]) == INVALID
    assert "must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("mx, my", [
    ([["0", "1", "7"], ["1", "0"]], [["1", "0"], ["0", "1"]]),
    ([["0", "1"], ["1", "0"]], [["1", "0"], ["0", "1"], ["2", "3"]]),
    ([["0", "1"]], [["1", "0"], ["0", "1"]]),
])
def test_moebius_matrix_not_2x2_is_invalid(tmp_path, capsys, mx, my):
    g = {"type": "moebius", "mx": mx, "my": my}
    wfile = write(tmp_path / "w.json", {"surface": TORUS, "generators": [g]})
    jfile = write(tmp_path / "jet.json", jet_to_json(standard_config(TORUS, [1]).jets[0]))
    assert main(["apply", "--word", wfile, "--jet", jfile]) == INVALID
    assert main(["compose", wfile, wfile, "--out", str(tmp_path / "c.json")]) == INVALID
    assert not (tmp_path / "c.json").exists()
    assert capsys.readouterr().err.count("a moebius matrix must be 2x2") == 2


@pytest.mark.parametrize("surface, key, value", [
    (TORUS, "center", ["51", "31"]),  # would read as (5, 3)
    (SPHERE, "center", "100"),        # would read as (1, 0, 0)
    (TORUS, "f", "0"),
    (SPHERE, "g", "0"),
])
def test_jet_arrays_must_be_lists(tmp_path, capsys, surface, key, value):
    jet = jet_to_json(standard_config(surface, [1]).jets[0])
    if key == "center":
        jet["center"] = value
    else:
        jet["graph"][key] = value
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, surface),
                 "--jet", jfile]) == INVALID
    assert "must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("surface, center, message", [
    (SPHERE, ["1", "0"], "sphere center must hold 3 entries, not 2"),
    (TORUS, [["1", "1"]], "torus center must hold 2 entries, not 1"),
    (TORUS, [["1", "1", "1"], ["0", "1"]], "torus coordinate must hold 2 entries, not 3"),
])
def test_center_of_wrong_shape_is_invalid(tmp_path, capsys, surface, center, message):
    # each used to surface as a Python signature error from the point class
    jet = jet_to_json(standard_config(surface, [1]).jets[0])
    jet["center"] = center
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, surface),
                 "--jet", jfile]) == INVALID
    assert capsys.readouterr().err == f"invalid input: {message}\n"


@pytest.mark.parametrize("surface, key", [(TORUS, "f"), (SPHERE, "g"), (SPHERE, "h")])
def test_short_graph_list_is_invalid(tmp_path, capsys, surface, key):
    # an order-3 torus jet with "f": ["7"] used to load as 7, 0, 0
    jet = jet_to_json(standard_config(surface, [3]).jets[0])
    jet["graph"][key] = jet["graph"][key][:1]
    jfile = write(tmp_path / "jet.json", jet)
    assert main(["apply", "--word", identity_word(tmp_path, surface),
                 "--jet", jfile]) == INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"graph {key} must hold 3 entries, not 1" in captured.err


@pytest.mark.parametrize("order", [10 ** 9, "3", True, 2.7, 0])
def test_jet_order_out_of_range_is_invalid(tmp_path, capsys, monkeypatch,
                                           order):
    jet = jet_to_json(standard_config(TORUS, [1]).jets[0])
    jet["order"] = order
    jfile = write(tmp_path / "jet.json", jet)
    word = identity_word(tmp_path, TORUS)

    def no_series(*args, **kwargs):
        raise RuntimeError("a series was allocated")

    monkeypatch.setattr(Series, "__init__", no_series)
    assert main(["apply", "--word", word, "--jet", jfile]) == INVALID
    assert "jet order must be an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# apply and compose


def test_apply_prints_transported_jet(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = str(tmp_path / "word.json")
    main(["synth", "--job", job, "--out", out])
    capsys.readouterr()

    src = standard_config(TORUS, [2]).jets[0]
    jfile = write(tmp_path / "jet.json", jet_to_json(src))
    assert main(["apply", "--word", out, "--jet", jfile]) == OK
    printed = jet_from_json(json.loads(capsys.readouterr().out))
    word = word_from_json(json.loads((tmp_path / "word.json").read_text()))
    assert printed == apply_jet(word, src)


def test_synth_verify_apply_under_optimize(tmp_path):
    """The CLI's guarantees hold with asserts stripped: synth, verify and
    apply run as ``python -O`` on a torus job with a point over x = oo
    and on a sphere job with an order-3 jet, whose series move through
    the integer products, and apply carries each standard jet onto its
    target."""
    over_inf = Jet.torus(TorusPoint(ProjPoint.infinity(), ProjPoint.affine(3)),
                         1, Series(ZERO, 1, [scal(3)]))
    affine = Jet.torus(TorusPoint.affine(Fraction(2, 3), -5), 1,
                       Series(scal(Fraction(2, 3)), 1, [scal(-5)]))
    c = sphere_point_stereo(2, 3)
    g = Series(c.x, 3, [c.y, 1, Fraction(-2, 5)])
    h = hensel_sqrt(poly_to_series(Poly([1, 0, -1]), c.x, 3) - g * g, c.z)
    order3 = Jet.sphere(c, 3, g, h)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(jetmove.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-O", "-m", "jetmove.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == OK, proc.stderr
        return proc.stdout

    for surface, targets in ((TORUS, [over_inf, affine]), (SPHERE, [order3])):
        orders = [j.order for j in targets]
        job = job_file(tmp_path, f"{surface}-job.json", surface, targets)
        std = std_file(tmp_path, f"{surface}-std.json", surface, orders)
        src = write(tmp_path / f"{surface}-jet.json",
                    jet_to_json(standard_config(surface, orders).jets[0]))
        word = str(tmp_path / f"{surface}-word.json")
        cli("synth", "--job", job, "--out", word)
        assert f"ok: {len(targets)} jets verified" in \
            cli("verify", "--word", word, "--from", std, "--to", job)
        assert jet_from_json(json.loads(cli("apply", "--word", word, "--jet", src))) \
            == targets[0]


def test_compose_concatenates(tmp_path, capsys, torus_targets):
    job = job_file(tmp_path, "job.json", TORUS, torus_targets)
    out = str(tmp_path / "word.json")
    main(["synth", "--job", job, "--out", out])
    capsys.readouterr()

    twice = str(tmp_path / "twice.json")
    assert main(["compose", out, out, "--out", twice]) == OK
    w1 = word_from_json(json.loads((tmp_path / "word.json").read_text()))
    w2 = word_from_json(json.loads((tmp_path / "twice.json").read_text()))
    assert len(w2) == 2 * len(w1)
    src = standard_config(TORUS, [1]).jets[0]
    assert apply_jet(w2, src) == apply_jet(w1, apply_jet(w1, src))


# ---------------------------------------------------------------------------
# classify


def desc_file(tmp_path, name, base, orders):
    d = SurfaceDescriptor(base, tuple(BlowupRecord(BASE, e) for e in orders))
    return write(tmp_path / name, descriptor_to_json(d))


def test_classify_isomorphic(tmp_path, capsys):
    a = desc_file(tmp_path, "a.json", "klein", [])
    b = desc_file(tmp_path, "b.json", "sphere", [1, 1])
    assert main(["classify", a, b]) == OK
    out = capsys.readouterr().out
    assert out.startswith("isomorphic")
    assert "euler 0" in out


def test_classify_distinguishes(tmp_path, capsys):
    a = desc_file(tmp_path, "a.json", "sphere", [2])
    b = desc_file(tmp_path, "b.json", "sphere", [3])
    assert main(["classify", a, b]) == NEGATIVE
    out = capsys.readouterr().out
    assert out.startswith("not-isomorphic")
    assert "A1-" in out and "A2-" in out


def test_classify_out_of_scope(tmp_path, capsys):
    a = desc_file(tmp_path, "a.json", "sphere", [2, 2])
    b = desc_file(tmp_path, "b.json", "sphere", [2, 2])
    assert main(["classify", a, b]) == OUT_OF_SCOPE
    assert capsys.readouterr().out.startswith("hypothesis-not-met")


def test_classify_invalid_descriptor(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"base": "sphere",
                                    "records": [{"parent": 5, "order": 1}]})
    b = desc_file(tmp_path, "b.json", "sphere", [])
    assert main(["classify", a, b]) == INVALID
    assert "invalid descriptor" in capsys.readouterr().err


def test_classify_refuses_bool_order(tmp_path, capsys):
    # true would read as a weight-1 blow-up, isomorphic to b
    a = write(tmp_path / "a.json", {"base": "sphere",
                                    "records": [{"parent": "base", "order": True}]})
    b = desc_file(tmp_path, "b.json", "sphere", [1])
    assert main(["classify", a, b]) == INVALID
    assert "blow-up order must be an integer" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    a = desc_file(tmp_path, "a.json", "sphere", [2])
    b = desc_file(tmp_path, "b.json", "sphere", [3])
    assert main(["classify", a, a]) == OK
    assert main(["classify", a, b]) == NEGATIVE
    with pytest.raises(SystemExit) as e:
        main(["classify", a])
    assert e.value.code == 2
    assert main(["classify", b, b]) == OK
    assert built.count("jetmove") == 1
    assert "not-isomorphic" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the installed entry point


def test_console_script(tmp_path, console_scripts):
    a = desc_file(tmp_path, "a.json", "klein", [])
    b = desc_file(tmp_path, "b.json", "sphere", [1, 1])
    proc = subprocess.run(["jetmove", "classify", a, b],
                          capture_output=True, text=True)
    assert proc.returncode == OK
    assert proc.stdout.startswith("isomorphic")


def test_scripts_reader_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text(encoding="utf-8")
    assert parse_project_scripts(text) == tomllib.loads(text)["project"]["scripts"]


@pytest.mark.parametrize("target", ["jetmove.cli", "jetmove.cli:", ":main",
                                    "jetmove cli:main", "jetmove.cli:main [x]"])
def test_wrapper_source_rejects_malformed_entry(target):
    with pytest.raises(ValueError, match="module:attr"):
        wrapper_source(target)


def test_scripts_reader_missing_table():
    assert parse_project_scripts('[project]\nname = "jetmove"\n') == {}


def test_module_entry_point(tmp_path):
    a = desc_file(tmp_path, "a.json", "sphere", [2])
    b = desc_file(tmp_path, "b.json", "torus", [])
    proc = subprocess.run([sys.executable, "-m", "jetmove.cli",
                           "classify", a, b],
                          capture_output=True, text=True)
    assert proc.returncode == NEGATIVE
