"""Time-to-verdict benchmark for leibrack.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src``.  One
run: generate the workload's inputs from the seed and self-check them,
measure set-up in fresh interpreters, time round-robin passes over the ops
in a worker process that runs nothing else (closed loop, one client, one op
at a time), then judge every verdict with the numpy/sympy oracle.  Human
lines go first; the last line of stdout is one JSON object with ``correct``,
``attempted`` (ops), ``failed`` (ops) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  The full record, and with tracing the raw spans, are written
under ``.bench_out/``.

End-to-end metrics of one run (tracing off):

* ``wall_s``: the sum over ops of each op's median time to verdict, in
  host-corrected seconds (see ``REFERENCE_CALIBRATION_S``);
* ``op_s.p50``: the Harrell-Davis median of the per-op medians;
* ``op_s.max``: the largest per-op median, the longest single wait;
* ``checks_per_s``: law instances checked (sum of every report's
  ``checked``) per second of ``wall_s``;
* ``setup_s``: median over fresh interpreters of ``import leibrack`` plus
  the once-per-process BCH word table, paid by every CLI invocation;
* ``peak_rss_mb``: peak RSS of the worker, which runs only this workload.

``fail_ratio`` (failed ops / ops) is printed; the JSON carries both counts.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 7
MIN_PASSES = 2
CHILD_TIMEOUT = 150
# Timings are host-corrected: each is scaled by REFERENCE_CALIBRATION_S over
# the calibration loop (worker.calibrate) measured next to it.  On the
# reference host (Intel Xeon, Python 3.11, quiet) the loop takes 45 ms, so
# there corrected seconds equal measured seconds; the raw ones are recorded.
REFERENCE_CALIBRATION_S = 0.045
SETUP_CODE = """\
from time import perf_counter
t0 = perf_counter()
import leibrack
from leibrack.bch import log_word_table
log_word_table()
elapsed = perf_counter() - t0
from worker import calibrate
print(elapsed, calibrate())
"""

END_TO_END = [
    ("wall_s", "s"), ("op_s.p50", "s"), ("op_s.max", "s"), ("checks_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
_TIMED = [
    "algebra.leibniz_violations", "algebra.bracket_coords", "algebra.ad",
    "linalg.rref", "linalg.nullspace", "linalg.det", "linalg.inverse", "linalg.mat_mul",
    "linalg.mat_vec", "racks.exp_endo.exact", "racks.exp_endo.float",
    "bch.evaluate_word_table", "quantize.quantum_rack_action", "quantize.poisson_bracket",
    "quantize.hessian_check",
]
_SELF_ONLY = [
    "algebra.derivation_algebra", "algebra.left_center", "algebra.nilpotency_class",
    "extension.build_extension", "extension.cocycle_identity_violations",
    "extension.reconstruction_violations", "extension.projection_morphism_violations",
    "bch.log_word_table", "cocycle.rack_cocycle_exact", "cocycle.rack_cocycle_series",
    "observables.poly_mul", "observables.substitute_linear", "tangent.tangent_recover",
    "io.load_algebra", "cli.emit",
]
_CALLS_ONLY = ["racks.bass_product", "racks.coadjoint"]
_BITS = ["linalg.rref", "linalg.nullspace", "linalg.det", "linalg.inverse"]
COMMANDS = ("validate", "analyze", "rack", "bch", "cocycle", "quantize", "hessian", "tangent")
# (name, unit, better)
PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in _TIMED + _CALLS_ONLY]
    + [(f"{s}.self_s", "s", "lower") for s in _TIMED + _SELF_ONLY]
    + [(f"{s}.max_bits", "bits", "lower") for s in _BITS]
    + [("sampling.self_s", "s", "lower"), ("linalg.mat_mul.ops", "count", "lower"),
       ("algebra.bracket_coords.zero_ratio", "1", "lower"),
       ("bch.words_nonzero_ratio", "1", "higher"), ("frac.max_bits", "bits", "lower")]
    + [(f"cli.{c}.s", "s", "lower") for c in COMMANDS]
    + [("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"), ("trace.tracer_s", "s", "lower"),
       ("trace.remainder_s", "s", "lower"), ("trace.spans", "count", "lower")]
)


def child_env():
    env = dict(os.environ)
    paths = [SRC, BENCH] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def corrected(seconds, calibration_s):
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def measure_setup():
    """Median corrected seconds to import leibrack and build the BCH word table.

    Each sample is a fresh interpreter; returns the median and the raw
    (seconds, calibration seconds) pairs.
    """
    samples = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        if i:  # the first run also compiles bytecode
            samples.append([float(x) for x in done.stdout.split()])
    return statistics.median(corrected(t, c) for t, c in samples), samples


def read_steal():
    """Steal ticks of all CPUs from /proc/stat (read only), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def beta_cdf(x, a, b, steps=64):
    """Regularized incomplete beta function I_x(a, b), Simpson's rule on the density."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = x / steps
    inner = sum((4 if i % 2 else 2) * density(i * h) for i in range(1, steps))
    return (density(0.0) + inner + density(x)) * h / 3


def harrell_davis_median(values):
    """Median as a Beta((n+1)/2, (n+1)/2)-weighted mean of the order statistics.

    Unlike the sample median it does not jump when two ops near the middle
    swap rank, which on a few dozen ops of uneven size is most of its noise.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    cdf = [beta_cdf(i / n, a, a) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def self_checks(made, workdir):
    """Generated inputs against numpy: n_k commutators and g^-1 [g., g.]."""
    import gen
    import oracle

    failures = []
    for alg_name, info in made.items():
        k = info["k"]
        base = oracle.read_table(os.path.join(workdir, f"{alg_name}.json"))
        if "g" in info:
            from fractions import Fraction

            g = [[Fraction(x) for x in row] for row in info["g"]]
            plain = [[list(row) for row in plane] for plane in gen.n_k(k).table]
            if not oracle.check_rebase(plain, g, base):
                failures.append(f"{alg_name}: rebased table != g^-1 [g., g.]")
        elif not oracle.check_n_k(base, k, gen.upper_triangular_basis(k)):
            failures.append(f"{alg_name}: table != numpy matrix commutator")
    return failures


def run_worker(ops, seconds, trace, workdir, spans_path):
    spec = {
        "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
        # a traced run times untraced passes only to measure the tracing overhead
        "seconds": seconds / 2 if trace else seconds,
        "min_passes": 1 if trace else MIN_PASSES,
        "trace": bool(trace),
        "result": os.path.join(workdir, "worker.json"),
        "spans": spans_path,
    }
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
                   env=child_env(), timeout=CHILD_TIMEOUT, check=True)
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def judge_ops(ops, outcomes, made):
    import oracle

    facts = {}
    verdicts = []
    for op, outcome in zip(ops, outcomes):
        if op["path"] not in facts:
            facts[op["path"]] = oracle.facts(oracle.read_table(op["path"]))
        report = None
        if os.path.exists(op["report"]):
            with open(op["report"], encoding="utf-8") as handle:
                report = json.load(handle)
        expected_class = made.get(op["algebra"], {}).get("class")
        reasons, known = oracle.judge(op, outcome, report, facts[op["path"]], expected_class)
        checked = sum(c["checked"] for c in report["checks"]) if report else 0
        verdicts.append({"reasons": reasons, "known": known, "checked": checked})
    return verdicts


def layer_metrics(trace, untraced_wall, traced_wall):
    summary = trace["summary"]
    bits = trace["bits"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span in summary:
            values[name] = summary[span][field]
        elif field == "max_bits" and span != "frac":
            values[name] = bits.get(span, 0)
        elif span.startswith("cli.") and field == "s":
            values[name] = summary[span]["total_s"]
    values["sampling.self_s"] = sum(row["self_s"] for key, row in summary.items()
                                    if key.startswith("sampling."))
    values["linalg.mat_mul.ops"] = trace["mat_mul_ops"]
    values["algebra.bracket_coords.zero_ratio"] = ratio(
        trace["bracket_coords_zero"], summary["algebra.bracket_coords"]["calls"])
    values["bch.words_nonzero_ratio"] = ratio(trace["word_brackets_nonzero"],
                                              trace["word_brackets"])
    values["frac.max_bits"] = max(bits.values(), default=0)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.tracer_s"] = trace["tracer_s"]
    values["trace.remainder_s"] = traced_wall - trace["spans_in_ops_s"]
    values["trace.spans"] = trace["spans"]
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not derived: {missing}")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "dense", "float"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "leibrack", "__init__.py")):
        sys.exit("error: src/leibrack not found; run from the repository root")
    sys.path[:0] = [SRC, BENCH]
    import leibrack

    if not os.path.abspath(leibrack.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: leibrack imported from {leibrack.__file__}, not {SRC}")
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        run(args, name, workdir)


def run(args, name, workdir):
    """Measure one run in ``workdir``, write its record and print the result."""
    import oracle
    import workloads

    t_setup = perf_counter()
    ops, made = workloads.WORKLOADS[args.workload](args.seed, workdir)
    for i, op in enumerate(ops):
        op["report"] = os.path.join(workdir, f"report-{i:02d}.json")
        op["argv"] = op["argv"] + ["--json", op["report"]]
    gen_failures = self_checks(made, workdir)
    setup_s, setup_samples = measure_setup()
    prep_s = perf_counter() - t_setup

    steal_before = read_steal()
    spans_path = os.path.join(OUT, f"spans-{name}.bin")
    result = run_worker(ops, args.seconds, args.trace, workdir, spans_path)
    steal_after = read_steal()

    verdicts = judge_ops(ops, result["outcomes"], made)
    # the lower median: host noise only ever adds time, so with an even count
    # the faster middle timing is the better estimate
    times = [[corrected(t, c) for t, c in zip(ts, cs)]
             for ts, cs in zip(result["times"], result["calibration"])]
    medians = [statistics.median_low(t) for t in times]
    raw_medians = [statistics.median_low(t) for t in result["times"]]
    wall_s = sum(medians)
    calibration_s = statistics.median(c for cs in result["calibration"] for c in cs)
    checked = sum(v["checked"] for v in verdicts)
    failed = [(op, v) for op, v in zip(ops, verdicts) if v["reasons"]]
    unexpected = [(op, v) for op, v in failed if v["known"] is None]
    correct = not gen_failures and not unexpected and result["consistent"]

    if args.trace:
        # spans are raw seconds, so the overhead compares raw walls
        values = layer_metrics(result["trace"], sum(raw_medians), sum(result["traced_times"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": wall_s,
            "op_s.p50": harrell_davis_median(medians),
            "op_s.max": max(medians),
            "checks_per_s": checked / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, one op at a time, round-robin passes",
        "passes": result["passes"],
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu_model": cpu_model(),
            "steal_ticks_before": steal_before,
            "steal_ticks_after": steal_after,
        },
        "inputs": made,
        "generator_failures": gen_failures,
        "setup_samples_s_and_calibration_s": setup_samples,
        "calibration_median_s": calibration_s,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "raw_wall_s": sum(raw_medians),
        "prepare_s": prep_s,
        "ops": [
            {
                "id": op["id"],
                "argv": op["argv"][:-2],
                "raw_times_s": raw,
                "raw_median_s": raw_med,
                "times_s": op_times,
                "median_s": med,
                "q1_s": quartiles(op_times)[0],
                "q3_s": quartiles(op_times)[1],
                "exit": outcome["exit"],
                "raised": outcome["raised"],
                "checked": v["checked"],
                "failed": v["reasons"],
                "known_defect": v["known"],
            }
            for op, raw, raw_med, op_times, med, outcome, v in zip(
                ops, result["times"], raw_medians, times, medians, result["outcomes"],
                verdicts)
        ],
        "metrics": metrics,
        "known_defects": oracle.KNOWN_DEFECTS,
    }
    if args.trace:
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["trace_summary"] = result["trace"]["summary"]
    record_path = os.path.join(OUT, f"{name}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    steal = (steal_after - steal_before) if steal_before is not None else "n/a"
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x {result['passes']} "
          f"passes, closed loop, 1 client; steal ticks during timing {steal}")
    print(f"python {record['provenance']['python']}, nproc {record['provenance']['nproc']}, "
          f"{record['provenance']['cpu_model']}")
    print(f"host speed: calibration loop {calibration_s * 1000:.1f} ms (reference "
          f"{REFERENCE_CALIBRATION_S * 1000:.0f} ms); raw wall {sum(raw_medians):.4g} s; "
          f"times below are host-corrected")
    for op in record["ops"]:
        print(f"  op {op['id']}: low median {op['median_s']:.4g} s, quartiles "
              f"[{op['q1_s']:.4g}, {op['q3_s']:.4g}], {len(op['times_s'])} timings")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4g} 1")
    for op, v in failed:
        tag = f"known defect {v['known']}" if v["known"] else "UNEXPECTED"
        print(f"  FAIL {op['id']} [{tag}]: {'; '.join(v['reasons'])}")
    for failure in gen_failures:
        print(f"  GENERATOR {failure}")
    if not result["consistent"]:
        print("  UNEXPECTED: an op's outcome changed between passes")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
