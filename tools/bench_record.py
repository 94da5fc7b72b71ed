"""Record the benchmark of this checkout in ``BENCH_<LABEL>.json`` at its root.

    python3 tools/bench_record.py LABEL

Runs the benchmark command of ``BENCHMARK.json`` (``python3 bench/run.py``),
unchanged, from the root of the checkout that holds this file: every
workload that file lists, at seeds 1, 2 and 3, with ``--seconds 20`` and
tracing off, one run at a time, seeds in the outer loop.  Per run it keeps
the end-to-end metrics ``BENCHMARK.json`` names, the attempted and failed
op counts, the oracle's verdict, each op's median and quartiles, and the
provenance of the run record that ``bench/run.py`` writes to
``.bench_out/``.  The file also holds the git revision of the checkout and
whether its tracked files differed from that revision.  A whole record
takes about ten minutes.  Standard library only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
SECONDS = 20
OP_FIELDS = ("id", "median_s", "q1_s", "q3_s")
RUN_FIELDS = ("passes", "calibration_median_s", "raw_wall_s")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def summarize(result, record, names):
    """One run: the last stdout line of bench/run.py and its .bench_out record."""
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
        "ops": [{key: op[key] for key in OP_FIELDS} for op in record["ops"]],
        "provenance": {**record["provenance"], **{key: record[key] for key in RUN_FIELDS}},
    }


def bench_run(command, workload, seed):
    """Run the benchmark once; returns (last stdout line as JSON, run record)."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as handle:
        return result, json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<LABEL>.json (letters, digits, _ -)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        parser.error(f"label must be letters, digits, '_' or '-', got {args.label!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [metric["name"] for metric in spec["end_to_end"]]
    doc = {
        "label": args.label,
        "revision": git("rev-parse", "HEAD"),
        "tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": spec["command"],
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "runs": [],
    }
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            print(f"{workload} seed {seed} ...", file=sys.stderr, flush=True)
            result, record = bench_run(spec["command"], workload, seed)
            doc["runs"].append(summarize(result, record, names))
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out_path, ROOT)}: {len(doc['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
