"""Batch front end: synthesize, verify, apply, classify, compose.

All files are JSON with exact scalars (integer and fraction strings,
radical towers spelled out); no floats anywhere.  A job file names a
surface, a partition, and the matching list of target jets:

    {"surface": "torus", "partition": [2, 1], "jets": [...],
     "pinned": [...]}                                   # pinned optional

With ``from`` and ``to`` keys in place of ``jets`` the job asks for a
word moving one configuration to the other while fixing the pinned jets.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 invalid
input (a JetmoveError: file text or JSON shape that cannot be read,
reported as "cannot read ...", or a validation or certification
failure), 3 internal verification failure or any built-in exception,
which is a bug, 4 question outside the decidable scope, 5 output too
large: a result holding a number of more than MAX_SCALAR_DIGITS (4000)
digits, which no file may hold since the readers refuse it, is not
written.  main() alone maps exceptions to codes 2, 3 and 5, by their
type alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .automorphisms import apply_jet, word_concat, word_from_json, word_to_json
from .errors import (InternalVerificationFailure, InvalidInput, JetmoveError,
                     OutputTooLarge, PreconditionFailed, RootInForbiddenRegion)
from .surfaces import (SPHERE, TORUS, jet_from_json, jet_to_json, json_field,
                       json_list, standard_config)
from .transitivity import first_miss, synth_pair, synth_sphere, synth_torus

OK = 0
NEGATIVE = 1
INVALID = 2
INTERNAL = 3
OUT_OF_SCOPE = 4
TOO_LARGE = 5

class _WriteFailed(Exception):
    """Writing an output file failed; main() reports the path, exit 2."""


def _load(path: str):
    """The JSON document in ``path``.  A file that cannot be opened or
    decoded, text that is not JSON, an integer past int()'s digit cap
    (json's plain ValueError) and nesting too deep for the parser are
    all InvalidInput, each message naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise InvalidInput(f"{path}: JSON nested too deeply") from None
    except OSError as e:
        raise InvalidInput(f"{path}: {e.strerror or e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InvalidInput(f"{path}: {e}") from None
    except ValueError:
        raise InvalidInput(f"{path}: a JSON integer has more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def _write_word(path: str, word) -> None:
    data = word_to_json(word)     # before the file is opened, as it may refuse
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(data, indent=2) + "\n")
    except OSError as e:
        raise _WriteFailed(f"cannot write {path}: {e.strerror or e}") from e


def _job_jets(job, key: str) -> list:
    """The jets under ``key``, on the job's surface and, unless they are
    the pinned ones, in the job's partition when it names one."""
    surface = json_field(job, "surface", "job")
    if surface not in (TORUS, SPHERE):
        raise PreconditionFailed(f"unknown job surface {surface!r}")
    jets = [jet_from_json(d) for d in json_list(json_field(job, key, "job"), key)]
    if any(j.surface != surface for j in jets):
        raise PreconditionFailed(
            f"a jet under {key!r} does not lie on the job's {surface}")
    if key != "pinned" and "partition" in job:
        parts = json_list(job["partition"], "partition")
        # JSON integers only, as for jet orders: true and 1.0 equal 1
        if any(type(e) is not int for e in parts):
            raise PreconditionFailed("partition entries must be JSON integers")
        if parts != [j.order for j in jets]:
            raise PreconditionFailed(f"partition does not match the {key} jet orders")
    return jets


def _first_mismatch(i: int, got, want) -> str:
    if got.center != want.center:
        return f"jet {i}: image center differs from target center"
    if got.order != want.order:
        return f"jet {i}: image order {got.order}, target order {want.order}"
    if got.var != want.var:
        return f"jet {i}: image and target use different canonical charts"
    for gi, (a, b) in enumerate(zip(got.graphs, want.graphs)):
        for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
            if x != y:
                return (f"jet {i}, graph {gi}, coefficient {k}: "
                        f"image {x}, target {y}")
    return f"jet {i}: images differ"


def cmd_synth(args) -> int:
    """Synthesize and write a word, which synthesis has checked, and print
    each generator as ``<route>: <formula>``."""
    job = _load(args.job)
    pair = type(job) is dict and "from" in job and "to" in job
    targets = _job_jets(job, "to" if pair else "jets")
    pinned = _job_jets(job, "pinned") if "pinned" in job else []
    if pair or pinned:
        sources = _job_jets(job, "from") if pair else \
            standard_config(job["surface"], [j.order for j in targets]).jets
        word = synth_pair(sources, targets, pinned)
    else:
        word = (synth_torus if job["surface"] == TORUS else synth_sphere)(targets)
    _write_word(args.out, word)
    for g in word.generators:
        print(f"{g.route}: {g}")
    print(f"wrote {len(word)} generators to {args.out}")
    return OK


def cmd_verify(args) -> int:
    word = word_from_json(_load(args.word))
    from_jets = _job_jets(_load(args.from_job), "jets")
    to_jets = _job_jets(_load(args.to_job), "jets")
    if len(from_jets) != len(to_jets):
        raise PreconditionFailed("from and to configurations differ in length")
    miss = first_miss(word, from_jets, to_jets)
    if miss is not None:
        print(_first_mismatch(*miss))
        return NEGATIVE
    print(f"ok: {len(from_jets)} jets verified")
    return OK


def cmd_apply(args) -> int:
    word = word_from_json(_load(args.word))
    jet = jet_from_json(_load(args.jet))
    out = apply_jet(word, jet)
    json.dump(jet_to_json(out), sys.stdout, indent=2)
    print()
    return OK


def cmd_classify(args) -> int:
    # imported here, so that no other command loads descriptors at start-up
    from .dantesque import (HYPOTHESIS_NOT_MET, ISOMORPHIC, descriptor_from_json,
                            descriptor_invariants, isomorphism_decide,
                            singularity_name)

    def describe(d) -> str:
        inv = descriptor_invariants(d)
        kind = "orientable" if inv.orientable else "nonorientable"
        sings = ", ".join(singularity_name(e) for e in inv.singularities) or "none"
        return (f"euler {inv.euler}, resolution {kind} genus {inv.genus}, "
                f"singularities {sings}")

    d1 = descriptor_from_json(_load(args.first))
    d2 = descriptor_from_json(_load(args.second))
    verdict = isomorphism_decide(d1, d2)
    print(verdict)
    print(f"  {args.first}: {describe(d1)}")
    print(f"  {args.second}: {describe(d2)}")
    if verdict == ISOMORPHIC:
        return OK
    if verdict == HYPOTHESIS_NOT_MET:
        return OUT_OF_SCOPE
    return NEGATIVE


def cmd_compose(args) -> int:
    w1 = word_from_json(_load(args.first))
    w2 = word_from_json(_load(args.second))
    w = word_concat(w1, w2)
    _write_word(args.out, w)
    print(f"wrote {len(w)} generators to {args.out}")
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing never changes it, and a
    parser rebuilt per call leaves cycles for the collector."""
    ap = argparse.ArgumentParser(
        prog="jetmove",
        description="exact automorphism synthesis and surface classification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a word for a job file")
    p.add_argument("--job", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, what="job")

    p = sub.add_parser("verify", help="check a word against two configurations")
    p.add_argument("--word", required=True)
    p.add_argument("--from", dest="from_job", required=True)
    p.add_argument("--to", dest="to_job", required=True)
    p.set_defaults(func=cmd_verify, what="input")

    p = sub.add_parser("apply", help="apply a word to a single jet")
    p.add_argument("--word", required=True)
    p.add_argument("--jet", required=True)
    p.set_defaults(func=cmd_apply, what="input")

    p = sub.add_parser("classify", help="decide isomorphism of two descriptors")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_classify, what="descriptor")

    p = sub.add_parser("compose", help="concatenate two words")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compose, what="input")
    return ap


def main(argv=None) -> int:
    """Run one command; the only place exceptions become exit codes.

    ``what`` names the command's input in the messages.  The code follows
    from the exception's type alone; any built-in exception is an error
    of the program itself and exits 3 with one line on stderr, never 1,
    which is reserved for a negative verdict.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RootInForbiddenRegion as e:
        lo, hi = e.witness
        print(f"certification failed: {e} (witness ({lo}, {hi}))", file=sys.stderr)
        return INVALID
    except _WriteFailed as e:
        print(e, file=sys.stderr)
        return INVALID
    except OutputTooLarge as e:
        print(f"output too large: {e}", file=sys.stderr)
        return TOO_LARGE
    except InternalVerificationFailure as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return INTERNAL
    except (InvalidInput, OSError) as e:
        print(f"cannot read {args.what}: {e}", file=sys.stderr)
        return INVALID
    except JetmoveError as e:
        print(f"invalid {args.what}: {e}", file=sys.stderr)
        return INVALID
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
