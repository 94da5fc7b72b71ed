"""Single-op timings behind the numbers in ROADMAP "Recent".

    python3 bench/roadmap.py

Run from the repository root.  Times, in this process and with tracing off:

* every corpus CLI op of the ``corpus`` workload at CLI defaults (seed 0);
* on n_7 (dim 21): ``leibniz_violations``, ``build_extension`` (each on a
  freshly built algebra, so no cached Leibniz check is reused), 10 exact
  ``bass_product`` calls and one ``hessian_check``.

The n_7 ops take about a minute each, which is why they are not part of any
benchmark workload.  Prints one JSON document with one timing per op and
the machine it ran on.
"""

import contextlib
import io
import json
import os
import platform
import random
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))


def timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def main():
    if not os.path.isfile(os.path.join(SRC, "leibrack", "__init__.py")):
        sys.exit("error: src/leibrack not found; run from the repository root")
    sys.path[:0] = [SRC, BENCH]
    import gen
    import workloads
    from leibrack import cli
    from leibrack.bch import log_word_table
    from leibrack.extension import build_extension
    from leibrack.observables import Covector
    from leibrack.quantize import hessian_check
    from leibrack.racks import bass_product
    from leibrack.sampling import rational_vector, sample_elements

    log_word_table()
    rows = {}
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        ops, _ = workloads.corpus(0, workdir)
        for op in ops:
            argv = op["argv"] + ["--json", os.path.join(workdir, "report.json")]

            def run(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv)
                    except ValueError:  # known defect: cocycle on abelian3
                        pass

            rows[f"cli {op['id']}"] = timed(run)
    n7 = gen.n_k(7)
    rows["n7 leibniz_violations"] = timed(lambda: gen.n_k(7).leibniz_violations())
    rows["n7 build_extension"] = timed(lambda: build_extension(gen.n_k(7)))
    flat = sample_elements(n7, 20, 0)
    pairs = [(flat[2 * t], flat[2 * t + 1]) for t in range(10)]
    rows["n7 10x bass_product exact"] = timed(lambda: [bass_product(x, y) for x, y in pairs])
    xi = Covector(n7, rational_vector(random.Random(0), n7.dim))
    rows["n7 hessian_check"] = timed(lambda: hessian_check(n7, xi))
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "timings_s": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
