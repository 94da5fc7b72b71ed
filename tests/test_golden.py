"""Golden CLI reports: every JSON report must keep its exact bytes.

Each case runs ``leibrack.cli.main`` in-process with ``--seed 1 --samples 5``
and compares the SHA-256 of the ``--json`` report, and the exit code, with
``golden_reports.json``.  A kernel rewrite that changes any sampled value,
residual, float rounding or field order fails here.

Besides the corpus, the cases read the algebras in ``tests/data``.
``freenil3-perturbed`` is freenil3 with e2 added to [e1, e1]: still nilpotent
but no longer Leibniz, so its validate, rack and quantize reports fail (exit
1), and their digests pin the violation lists, not only passing reports.
``n5`` (strictly upper-triangular 5 x 5 matrices) and ``n4-rebased`` (n_4 in
the basis of ``random_invertible(random.Random(1), 6)``) have non-trivial
extensions; in the rebased one the left center is not a coordinate axis, so
the projection carries a center correction.  Their analyze and cocycle
reports pin the extension data on inputs beyond the corpus.

The ``bch`` cases with flags pin the BCH word sum at every truncation order
1..8, on sampled pairs and on the fixed ``--x``/``--y`` pairs below, in exact
mode on heisenberg and freenil3 and in float mode on sl2.

Regenerate the digests (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from leibrack import cli
from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import load_algebra

from helpers import n_k, random_invertible, rebase

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_reports.json")
FAILING = "freenil3-perturbed"
NILPOTENT = ("abelian3", "leib2", "heisenberg", "freenil3")
NILPOTENT_LIE = ("abelian3", "heisenberg", "freenil3")
EXTENSIONS = ("n5", "n4-rebased")
BCH_POINTS = {
    ("heisenberg", "exact"): ("1/2,-3,2", "2,1/3,-1"),
    ("freenil3", "exact"): ("1/2,-1,3,2/3,-5", "-2,1/3,1,0,7/4"),
    ("sl2", "float"): ("1/12,-1/6,1/8", "1/10,1/7,-1/9"),
}


def _cases():
    cases = []
    for name in CORPUS_NAMES:
        for command in ("validate", "analyze", "hessian", "tangent"):
            cases.append((command, name))
    for name in NILPOTENT:
        for command in ("rack", "quantize", "cocycle"):
            cases.append((command, name))
    # abelian3 is its own left center; its cocycle report is pinned in test_cli.
    cases.remove(("cocycle", "abelian3"))
    for name in NILPOTENT_LIE:
        cases.append(("bch", name))
    for name in ("hs1", "sl2"):
        for command in ("rack", "quantize", "tangent"):
            cases.append((command, name, "float"))
    cases.append(("bch", "sl2", "float"))
    for command in ("validate", "rack", "quantize"):
        cases.append((command, FAILING))
    for name in EXTENSIONS:
        for command in ("analyze", "cocycle"):
            cases.append((command, name))
    for (name, mode), (x, y) in BCH_POINTS.items():
        for order in range(1, 9):
            cases.append(("bch", name, mode, "--order", str(order)))
            cases.append(("bch", name, mode, "--order", str(order), f"--x={x}", f"--y={y}"))
    return cases


CASES = _cases()


def case_id(case):
    return " ".join(case)


def algebra_path(name):
    """A corpus algebra by name, or else the file ``tests/data/<name>.json``."""
    if name in CORPUS_NAMES:
        return str(corpus_path(name))
    return os.path.join(HERE, "data", f"{name}.json")


def run_case(case):
    """(exit code, SHA-256 of the JSON report) for one golden case.

    A case is (command, algebra[, mode[, further flags...]]).
    """
    command, name = case[:2]
    argv = [command, algebra_path(name), "--seed", "1", "--samples", "5"]
    if len(case) >= 3:
        argv += ["--mode", case[2], *case[3:]]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--json", out])
        with open(out, "rb") as handle:
            return code, hashlib.sha256(handle.read()).hexdigest()


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_bytes_match_golden(case):
    want = load_golden()[case_id(case)]
    code, digest = run_case(case)
    assert [code, digest] == want


def test_extension_data_files_follow_their_recipe():
    assert load_algebra(algebra_path("n5")).table == n_k(5).table
    g = random_invertible(random.Random(1), 6)
    assert load_algebra(algebra_path("n4-rebased")).table == rebase(n_k(4), g).table


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(case_id(c) for c in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    golden = {case_id(c): list(run_case(c)) for c in CASES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
