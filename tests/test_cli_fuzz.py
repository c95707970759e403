"""Mutated input files are refused by type: whatever one mutation does to
a job, word, jet or descriptor file, a command either runs or raises a
JetmoveError, never a built-in exception, and main() never exits 3."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmove.automorphisms import word_from_json, word_to_json
from jetmove.cli import build_parser, main
from jetmove.dantesque import BASE, BlowupRecord, SurfaceDescriptor, descriptor_to_json
from jetmove.errors import JetmoveError
from jetmove.exactalg import Series, scal
from jetmove.surfaces import (SPHERE, TORUS, Jet, TorusPoint, jet_to_json,
                              sphere_point_stereo, standard_config)
from jetmove.transitivity import synth_pair

MUTATIONS = ("replace", "delete", "duplicate", "list", "object")
REPLACEMENTS = (None, True, 0, 7, 2.5, "", "1/0", "sqrt(-1)", "9" * 5000, [], {})


def torus_jet(x, y, order=1, tail=()):
    return Jet.torus(TorusPoint.affine(x, y), order, Series(scal(x), order, [y, *tail]))


def sphere_jet(a, b):
    c = sphere_point_stereo(a, b)
    return Jet.sphere(c, 1, Series(c.x, 1, [c.y]), Series(c.x, 1, [c.z]))


def base_documents():
    """name -> JSON document: pinned and pair jobs, words, jets and a
    descriptor on both surfaces, each small enough to synthesize fast."""
    jets = {TORUS: ([torus_jet(2, 3, 2, [5])], [torus_jet(9, 9)], [torus_jet(4, 1, 2, [0])]),
            SPHERE: ([sphere_jet(2, 3)], [sphere_jet(1, 5)], [sphere_jet(3, 1)])}
    docs = {}
    for s, (targets, pinned, sources) in jets.items():
        as_json = lambda js: [jet_to_json(j) for j in js]
        orders = [j.order for j in targets]
        docs[f"{s}-job"] = {"surface": s, "partition": orders,
                            "jets": as_json(targets), "pinned": as_json(pinned)}
        docs[f"{s}-pair"] = {"surface": s, "partition": orders, "from": as_json(sources),
                             "to": as_json(targets), "pinned": as_json(pinned)}
        std = standard_config(s, orders).jets
        docs[f"{s}-std"] = {"surface": s, "partition": orders, "jets": as_json(std)}
        docs[f"{s}-word"] = word_to_json(synth_pair(std, targets, pinned))
        docs[f"{s}-jet"] = jet_to_json(std[0])
    docs["descriptor"] = descriptor_to_json(SurfaceDescriptor(
        SPHERE, (BlowupRecord(BASE, 2, sphere_jet(2, 3)), BlowupRecord(0, 1))))
    return docs


def commands(name: str, mutated: str, files: dict, out: str) -> list:
    """The command lines that read the mutated copy of base ``name``."""
    if name == "descriptor":
        return [["classify", mutated, files["descriptor"]]]
    s, kind = name.split("-")
    word, std, job, jet = (files[f"{s}-{k}"] for k in ("word", "std", "job", "jet"))
    return {
        "job": [["synth", "--job", mutated, "--out", out],
                ["verify", "--word", word, "--from", std, "--to", mutated]],
        "pair": [["synth", "--job", mutated, "--out", out]],
        "word": [["verify", "--word", mutated, "--from", std, "--to", job],
                 ["apply", "--word", mutated, "--jet", jet],
                 ["compose", mutated, word, "--out", out]],
        "jet": [["apply", "--word", word, "--jet", mutated]],
    }[kind]


MUTABLE = ("torus-job", "torus-pair", "torus-word", "torus-jet",
           "sphere-job", "sphere-pair", "sphere-word", "sphere-jet", "descriptor")


def node_paths(doc, at=()):
    """The key path of every node of a JSON document, the root first."""
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from node_paths(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from node_paths(v, at + (i,))


def mutate(doc, at: tuple, how: str, new):
    """A copy of ``doc`` with the node at ``at`` replaced by ``new``,
    deleted, duplicated (a list entry; any other node is replaced), or
    wrapped in a list or an object."""
    doc = copy.deepcopy(doc)
    if not at:
        return {"list": [doc], "object": {"v": doc}}.get(how, new)
    *up, key = at
    parent = doc
    for k in up:
        parent = parent[k]
    if how == "delete":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif how in ("list", "object"):
        parent[key] = [parent[key]] if how == "list" else {"v": parent[key]}
    else:
        parent[key] = new
    return doc


def run_mutated(argv: list, out: str) -> int:
    """Run one command line as main() would, with its output captured;
    check what it raises, its exit code and its stderr, and that a word
    it writes reads back.  Returns the exit code."""
    Path(out).unlink(missing_ok=True)
    args = build_parser().parse_args(argv)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = args.func(args)
        except Exception as e:
            assert isinstance(e, JetmoveError), f"{argv[0]} raised {type(e).__name__}: {e}"
            code = main(argv)
    assert code in (0, 1, 2, 4, 5), f"{argv[0]} exited {code}: {err.getvalue()}"
    assert err.getvalue().count("\n") <= 1
    if code == 0 and Path(out).exists():
        word_from_json(json.loads(Path(out).read_text()))
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    docs = base_documents()
    files = {}
    for name, doc in docs.items():
        files[name] = str(tmp / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))
    return docs, files, str(tmp / "mutated.json"), str(tmp / "out.json")


def test_base_documents_run(inputs):
    # unmutated, every command succeeds, so each refusal below is the mutation's
    docs, files, _, out = inputs
    for name in MUTABLE:
        for argv in commands(name, files[name], files, out):
            assert run_mutated(argv, out) == 0, argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_inputs_are_refused_by_type(inputs, data):
    docs, files, mutated, out = inputs
    name = data.draw(st.sampled_from(MUTABLE))
    at = data.draw(st.sampled_from(list(node_paths(docs[name]))))
    how = data.draw(st.sampled_from(MUTATIONS))
    new = data.draw(st.sampled_from(REPLACEMENTS)) if how in ("replace", "duplicate") else None
    Path(mutated).write_text(json.dumps(mutate(docs[name], at, how, new)))
    argv = data.draw(st.sampled_from(commands(name, mutated, files, out)))
    run_mutated(argv, out)
