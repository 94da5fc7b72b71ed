"""Timed passes over one workload's ops, in a process that runs nothing else.

    python3 bench/worker.py SPEC.json

The spec lists the ops (CLI argv lists), the time budget and whether to
trace.  Each op is one in-process ``leibrack.cli.main(argv)`` call, issued
only after the previous one returned: a closed loop with a single client.
Passes run round-robin over the ops, and a new pass starts while the budget
is not used up (at least ``min_passes``), so the last pass may end past it;
a calibration loop (``calibrate``) runs between op visits.  Within a pass an op that returns in under
``MIN_OP_S`` is timed again, up to ``MAX_REPEATS`` times, so the per-op
median of a millisecond op rests on more than a handful of samples.  With
tracing, one more pass runs under the tracer after the untraced ones.  The
result JSON holds every timing, each op's exit code or exception, and this
process's peak RSS.  Leibrack must be importable (the runner puts ``src``
on ``PYTHONPATH``); numpy is never imported here.
"""

import contextlib
import gc
import importlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

MIN_OP_S = 0.1
MAX_REPEATS = 10


def run_op(main, argv):
    """Seconds, exit code, exception text and stderr tail of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        raised = None
    except SystemExit as exc:  # argparse rejects the flags
        code, raised = exc.code, None
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        code, raised = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, raised, err.getvalue()[-500:]


def calibrate():
    """Seconds of a fixed exact-rational workload that runs no leibrack code.

    The host's speed drifts by up to ~1.6x over minutes (shared cores, with
    no steal time), and this loop slows down with it; timings are scaled by
    it, interleaved op by op, to take that drift out.
    """
    t0 = perf_counter()
    rows = [[Fraction(i * j % 7 - 3, 1 + (i + j) % 3) for j in range(12)] for i in range(12)]
    for _ in range(6):
        rows = [[sum((a * b for a, b in zip(r, c)), Fraction(0)) / 3 for c in zip(*rows)]
                for r in rows]
        rows = [[Fraction(x.numerator % 97, x.denominator % 89 + 1) for x in r] for r in rows]
    return perf_counter() - t0


def timed_passes(main, ops, seconds, min_passes):
    """Timings per op, each with the mean of the calibrations around its visit."""
    times = [[] for _ in ops]
    calibration = [[] for _ in ops]
    outcomes = [None] * len(ops)
    consistent = True
    passes = 0
    t_start = perf_counter()
    while True:
        before = calibrate()
        for i, op in enumerate(ops):
            spent = 0.0
            visit = []
            for _ in range(MAX_REPEATS):
                dt, code, raised, stderr = run_op(main, op["argv"])
                visit.append(dt)
                outcome = {"exit": code, "raised": raised, "stderr": stderr}
                if outcomes[i] is not None and outcomes[i] != outcome:
                    consistent = False
                outcomes[i] = outcome
                spent += dt
                if spent >= MIN_OP_S:
                    break
            after = calibrate()
            times[i] += visit
            calibration[i] += [(before + after) / 2] * len(visit)
            before = after
        passes += 1
        if passes >= min_passes and perf_counter() - t_start >= seconds:
            break
    return times, calibration, outcomes, passes, consistent


def traced_pass(main, ops, tracer, bch):
    bch.log_word_table.cache_clear()
    tracer.install()
    tracer.op_id = -1  # the per-process word table, paid before any op
    bch.log_word_table()
    times = []
    for i, op in enumerate(ops):
        tracer.op_id = i
        times.append(run_op(main, op["argv"])[0])
    return times


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    from leibrack import cli

    bch = importlib.import_module("leibrack.bch")  # the package rebinds .bch to a function

    bch.log_word_table()  # once-per-process set-up, reported as setup_s
    ops = spec["ops"]
    times, calibration, outcomes, passes, consistent = timed_passes(
        cli.main, ops, spec["seconds"], spec["min_passes"]
    )
    result = {
        "times": times,
        "calibration": calibration,
        "outcomes": outcomes,
        "passes": passes,
        "consistent": consistent,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        try:
            result["traced_times"] = traced_pass(cli.main, ops, tracer, bch)
        finally:
            tracer.restore()
        tracer.write_spans(spec["spans"])
        result["trace"] = {
            "spans": len(tracer.start),
            "summary": tracer.summary(),
            "spans_in_ops_s": tracer.spans_in_ops_s(),
            "tracer_s": tracer.tracer_in_ops_s(),
            "mat_mul_ops": tracer.mat_mul_ops,
            "bits": tracer.bits,
            "bracket_coords_zero": tracer.bracket_coords_zero,
            "word_brackets": tracer.word_brackets,
            "word_brackets_nonzero": tracer.word_brackets_nonzero,
        }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
