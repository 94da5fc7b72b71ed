"""The four workloads: which algebras, which commands, which flags.

Each workload function writes its inputs with ``leibrack.io.save_algebra``
into the run's work directory and returns the ops in round-robin order, plus
the facts the oracle needs about how the inputs were made.  ``--seed`` picks the
CLI sampling seed of every op and, for ``dense``, the change of basis.

* corpus: the six bundled algebras, every command whose exact-mode
  preconditions hold, at CLI defaults.  The reports users actually run;
  time goes to per-sample exact work (exp_endo, BCH words, quantize).
* ladder: n_4 (validate, analyze, cocycle, hessian), n_5 (validate,
  analyze) and n_6 (hessian), --samples 3.  Time goes to the dense
  structural kernels (Leibniz check, derivations, build_extension, det) on
  tables with 1-4% nonzero entries, which a sparse table would skip.  The
  rungs are sized so a pass takes a few seconds: validate n_6 alone takes
  7-12 s and analyze n_6 about 17 s.
* dense: n_4 (the same four commands) and n_5 (validate, hessian) after a
  seeded rational change of basis: same algebras as ladder, ~90% nonzero
  entries and 20+ bit coefficients, so the same layers run on dense,
  growing Fractions.  analyze and cocycle on n_5 are left out: Fraction
  growth in rref makes analyze a 30-second op there.
* float: hs1, sl2 and sl2 x| V_m (m = 1..4), which exact mode refuses,
  under --mode float with --samples 20.  The only workload dominated by the
  float branch of exp_endo, and where lost accuracy shows up as failures.
  20 samples instead of the default 50 keep a pass near 8 s, so a run times
  the slowest op (quantize on sl2 x| V_4) three times rather than twice.
"""

import os

from leibrack.corpus import load_corpus
from leibrack.io import save_algebra

import gen

CORPUS = ("abelian3", "leib2", "hs1", "heisenberg", "freenil3", "sl2")
NILPOTENT = ("abelian3", "leib2", "heisenberg", "freenil3")
NILPOTENT_LIE = ("abelian3", "heisenberg", "freenil3")
STRUCTURAL = ("validate", "analyze", "cocycle", "hessian")
DEFAULT_SAMPLES = {"hessian": 20}
LADDER_SAMPLES = 3
FLOAT_SAMPLES = 20


def _op(command, algebra, path, seed, samples=None, mode="exact"):
    argv = [command, path, "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    if mode != "exact":
        argv += ["--mode", mode]
    return {
        "id": f"{command} {algebra}",
        "command": command,
        "algebra": algebra,
        "path": path,
        "mode": mode,
        "samples": samples if samples is not None else DEFAULT_SAMPLES.get(command, 50),
        "argv": argv,
    }


def _save(algebra, workdir):
    path = os.path.join(workdir, f"{algebra.name}.json")
    save_algebra(algebra, path)
    return path


def corpus(seed, workdir):
    paths = {name: _save(load_corpus(name), workdir) for name in CORPUS}
    ops = [_op(c, a, paths[a], seed) for a in CORPUS for c in ("validate", "analyze", "hessian")]
    ops += [_op(c, a, paths[a], seed) for a in NILPOTENT for c in ("rack", "quantize", "cocycle")]
    ops += [_op("bch", a, paths[a], seed) for a in NILPOTENT_LIE]
    return ops, {}


LADDER = {4: STRUCTURAL, 5: ("validate", "analyze"), 6: ("hessian",)}
DENSE = {4: STRUCTURAL, 5: ("validate", "hessian")}


def ladder(seed, workdir):
    ops, made = [], {}
    for k, commands in LADDER.items():
        algebra = gen.n_k(k)
        path = _save(algebra, workdir)
        made[algebra.name] = {"k": k, "class": k - 1}
        ops += [_op(c, algebra.name, path, seed, LADDER_SAMPLES) for c in commands]
    return ops, made


def dense(seed, workdir):
    ops, made = [], {}
    for k, commands in DENSE.items():
        base = gen.n_k(k)
        g = gen.random_basis_change(gen.seeded_rng(seed, base.name), base.dim)
        algebra = gen.rebase(base, g, f"{base.name}d")
        path = _save(algebra, workdir)
        made[algebra.name] = {"k": k, "class": k - 1, "g": [[str(x) for x in row] for row in g]}
        ops += [_op(c, algebra.name, path, seed, LADDER_SAMPLES) for c in commands]
    return ops, made


def float_(seed, workdir):
    sl2 = load_corpus("sl2")
    algebras = [load_corpus("hs1"), sl2] + [gen.sl2_semidirect(sl2, m) for m in range(1, 5)]
    ops = []
    for algebra in algebras:
        path = _save(algebra, workdir)
        ops += [_op(c, algebra.name, path, seed, FLOAT_SAMPLES, mode="float")
                for c in ("rack", "quantize", "tangent")]
    ops.append(_op("bch", "sl2", os.path.join(workdir, "sl2.json"), seed, FLOAT_SAMPLES,
                   mode="float"))
    return ops, {}


WORKLOADS = {"corpus": corpus, "ladder": ladder, "dense": dense, "float": float_}
