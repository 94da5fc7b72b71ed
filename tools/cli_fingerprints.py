"""Fingerprint every benchmark CLI op of a checkout, to prove a refactor keeps its bytes.

    python3 tools/cli_fingerprints.py CHECKOUT OUT.json [--workloads W ...] [--seeds S ...]
    python3 tools/cli_fingerprints.py --compare A.json B.json

The first form imports ``leibrack`` from ``CHECKOUT/src`` and the op lists
from ``CHECKOUT/bench/workloads.py`` (read only: no bytecode is written).
It runs every op of the chosen workloads at the chosen seeds (default: all
four workloads at seeds 1, 2, 3), then the usage-error cases of
``tests/test_cli.py``, each as one in-process ``leibrack.cli.main(argv)``
call with ``--json`` into a scratch file.  Per op it records the SHA-256 of
stdout and of the ``--json`` bytes (None when no file was written), the
stderr text and the exit code.  Run it once on the parent checkout and once
on the change, each in its own process.

``--compare`` prints the ops whose fingerprints differ, or are missing from
one side, and exits 1 if there are any; a file it cannot read exits 2.
Standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

SEEDS = (1, 2, 3)

# The usage-error cases of tests/test_cli.py: (command, corpus name, flags).
USAGE_CASES = [
    ("validate", None, ()),
    ("rack", "sl2", ()),
    ("bch", "leib2", ()),
    ("bch", "heisenberg", ("--order", "9")),
    ("bch", "heisenberg", ("--x", "1,0,0")),
    ("cocycle", "sl2", ()),
    ("hessian", "heisenberg", ("--xi", "1,oops")),
    ("hessian", "heisenberg", ("--xi", "1,2")),
    ("frobnicate", "heisenberg", ()),
    ("rack", "heisenberg", ("--samples", "0")),
    ("rack", "heisenberg", ("--samples", "-3")),
    *[("tangent", "sl2", (f"--step={step}",)) for step in ("0", "-1e-3", "nan", "inf")],
    *[("tangent", "hs1", (f"--tol={tol}",)) for tol in ("inf", "nan", "-1")],
    *[
        (command, "sl2", ("--mode", "float", "--order", order))
        for command in ("rack", "quantize", "tangent")
        for order in ("0", "-1")
    ],
    *[
        (command, "heisenberg", ("--mode", "float"))
        for command in ("validate", "analyze", "cocycle", "hessian")
    ],
    ("bch", "heisenberg", ("--mode", "float", "--x", "0,1e400,0", "--y", "1,0,0")),
]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def run(main, argv, json_path):
    """The fingerprint of one ``main(argv + ['--json', json_path])`` call."""
    if os.path.exists(json_path):
        os.remove(json_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--json", json_path])
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    report = None
    if os.path.exists(json_path):
        with open(json_path, "rb") as handle:
            report = digest(handle.read())
    return {
        "exit": code,
        "stdout_sha256": digest(out.getvalue().encode()),
        "json_sha256": report,
        "stderr": err.getvalue(),
    }


def fingerprints(checkout, workloads=None, seeds=SEEDS):
    """Fingerprints by op name; ``workloads`` None runs every bench workload."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    from leibrack import cli
    from leibrack.corpus import corpus_path

    import workloads as bench_workloads

    found = {}
    with tempfile.TemporaryDirectory() as scratch:
        json_path = os.path.join(scratch, "report.json")
        for name in workloads or bench_workloads.WORKLOADS:
            for seed in seeds:
                workdir = os.path.join(scratch, f"{name}-{seed}")
                os.mkdir(workdir)
                ops, _ = bench_workloads.WORKLOADS[name](seed, workdir)
                for op in ops:
                    key = f"{name} seed{seed} {op['id']}"
                    if key in found:
                        raise ValueError(f"two ops are named {key!r}")
                    found[key] = run(cli.main, op["argv"], json_path)
        for command, algebra, flags in USAGE_CASES:
            path = "/does/not/exist.json" if algebra is None else str(corpus_path(algebra))
            key = " ".join(["usage", command, algebra or path, *flags])
            found[key] = run(cli.main, [command, path, *flags], json_path)
    return found


def compare(a, b):
    """Keys whose fingerprints differ or that only one side has, sorted."""
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="CHECKOUT OUT.json, or with --compare two fingerprint files")
    parser.add_argument("--compare", action="store_true",
                        help="list the ops whose fingerprints differ")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workloads to run (default: every bench workload)")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS),
                        help="CLI seeds (default 1 2 3)")
    args = parser.parse_args(argv)
    if args.compare:
        sides = []
        for path in args.paths:
            try:
                with open(path, encoding="utf-8") as handle:
                    sides.append(json.load(handle))
            except (OSError, ValueError) as err:
                parser.error(f"cannot read {path}: {err}")
        differ = compare(*sides)
        for key in differ:
            print(key)
        print(f"{len(differ)} of {len(sides[0].keys() | sides[1].keys())} ops differ")
        return 1 if differ else 0
    checkout, out_path = args.paths
    found = fingerprints(os.path.abspath(checkout), args.workloads, args.seeds)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(found, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(found)} ops fingerprinted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
