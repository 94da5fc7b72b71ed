"""Self-tests of the benchmark's generators, tracer and oracle.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Small inputs only; the timed workloads are not run here.
"""

import contextlib
import io
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import oracle  # noqa: E402
import pytest  # noqa: E402
import spans  # noqa: E402
from leibrack import cli  # noqa: E402
from leibrack.corpus import load_corpus  # noqa: E402
from leibrack.io import save_algebra  # noqa: E402


def test_n_k_is_the_matrix_commutator_with_class_k_minus_1():
    for k in (3, 4, 5):
        algebra = gen.n_k(k)
        assert algebra.dim == k * (k - 1) // 2
        table = [[list(row) for row in plane] for plane in algebra.table]
        assert oracle.check_n_k(table, k, gen.upper_triangular_basis(k))
        assert algebra.nilpotency_class() == k - 1
        assert oracle.nilpotency_class(table) == k - 1


def test_rebase_matches_numpy_and_keeps_the_algebra():
    base = gen.n_k(4)
    g = gen.random_basis_change(gen.seeded_rng(7, "n4"), base.dim)
    rebased = gen.rebase(base, g, "n4d")
    plain = [[list(row) for row in plane] for plane in base.table]
    table = [[list(row) for row in plane] for plane in rebased.table]
    assert oracle.check_rebase(plain, g, table)
    table[1][2][3] += 1
    assert not oracle.check_rebase(plain, g, table)
    assert rebased.is_leibniz() and rebased.nilpotency_class() == 3
    nonzero = sum(1 for plane in rebased.table for row in plane for c in row if c)
    assert nonzero > rebased.dim ** 3 // 2


def test_basis_change_is_seeded():
    one = gen.random_basis_change(gen.seeded_rng(3, "n5"), 10)
    two = gen.random_basis_change(gen.seeded_rng(3, "n5"), 10)
    other = gen.random_basis_change(gen.seeded_rng(4, "n5"), 10)
    assert one == two and one != other


def test_sl2_semidirect_is_a_non_lie_non_nilpotent_leibniz_algebra():
    sl2 = load_corpus("sl2")
    for m in (1, 3):
        algebra = gen.sl2_semidirect(sl2, m)
        assert algebra.dim == m + 4
        assert algebra.is_leibniz() and not algebra.is_lie()
        assert not algebra.is_nilpotent()
        table = [[list(row) for row in plane] for plane in algebra.table]
        assert oracle.leibniz_residual(table) == 0
        assert oracle.left_center_dim(table) == len(algebra.table) - 3


def test_oracle_sees_a_broken_leibniz_identity():
    table = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    table[0][0][1] = Fraction(1)
    table[1][0][1] = Fraction(1, 3)
    assert oracle.leibniz_residual(table) != 0


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    path = str(tmp_path / "heisenberg.json")
    save_algebra(load_corpus("heisenberg"), path)
    quantize = sys.modules["leibrack.quantize"]
    originals = (quantize.exp_endo, cli.HANDLERS["rack"], cli.build_extension)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert quantize.exp_endo is not originals[0]
        assert cli.HANDLERS["rack"] is not originals[1]
        assert cli.build_extension is not originals[2]
        tracer.op_id = 0
        assert _run(["rack", path, "--samples", "3", "--json", str(tmp_path / "r.json")]) == 0
        tracer.op_id = 1
        assert _run(["analyze", path, "--json", str(tmp_path / "a.json")]) == 0
    finally:
        tracer.restore()
    assert (quantize.exp_endo, cli.HANDLERS["rack"], cli.build_extension) == originals
    summary = tracer.summary()
    assert summary["cli.rack"]["calls"] == 1 and summary["cli.analyze"]["calls"] == 1
    assert summary["racks.exp_endo.exact"]["calls"] > 0
    assert summary["racks.exp_endo.float"]["calls"] == 0
    assert tracer.mat_mul_ops > 0
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    assert set(tracer.op) == {0, 1}
    accounted = sum(row["self_s"] for row in summary.values()) + tracer.tracer_in_ops_s()
    assert abs(accounted - tracer.spans_in_ops_s()) < 1e-6


def test_traced_counts_repeat(tmp_path):
    path = str(tmp_path / "freenil3.json")
    save_algebra(load_corpus("freenil3"), path)

    def counts():
        tracer = spans.Tracer()
        tracer.install()
        try:
            _run(["bch", path, "--samples", "2", "--json", str(tmp_path / "b.json")])
        finally:
            tracer.restore()
        calls = {name: row["calls"] for name, row in tracer.summary().items()}
        return calls, tracer.mat_mul_ops, tracer.bits, tracer.word_brackets_nonzero

    assert counts() == counts()


def _report(checks, **details):
    return {"checks": checks, "details": details, "status": "pass"}


def test_judge_counts_vacuous_and_float_failures():
    fact = {"dim": 3, "leibniz": True, "lie": True, "class": 2, "left_center_dim": 1}
    op = {"command": "bch", "samples": 50, "mode": "exact"}
    ok = {"exit": 0, "raised": None, "stderr": ""}
    check = {"name": "conj-identity", "status": "pass", "checked": 50, "residual": "0"}
    assert oracle.judge(op, ok, _report([check]), fact) == ([], None)
    short = dict(check, checked=0)
    reasons, known = oracle.judge(op, ok, _report([short]), fact)
    assert reasons and known is None
    float_op = dict(op, mode="float")
    failed = dict(check, status="fail", residual="3.2e-09")
    reasons, known = oracle.judge(float_op, {"exit": 1, "raised": None, "stderr": ""},
                                  _report([failed]), fact)
    assert reasons and known == "float-tolerance"
    broken = dict(failed, residual="0.1")
    reasons, known = oracle.judge(float_op, {"exit": 1, "raised": None, "stderr": ""},
                                  _report([broken]), fact)
    assert reasons and known is None
    quantize = dict(float_op, command="quantize")
    checks = [dict(check, name=name) for name in oracle.expected_checks(quantize, fact)]
    checks[2] = dict(failed, name="action-left-action", residual="3.0")
    reasons, known = oracle.judge(quantize, {"exit": 1, "raised": None, "stderr": ""},
                                  _report(checks), fact)
    assert any("action-left-action" in r for r in reasons) and known == "float-tolerance"
    reasons, known = oracle.judge(op, {"exit": 1, "raised": None, "stderr": ""},
                                  _report([failed]), fact)
    assert reasons and known is None


@pytest.mark.parametrize("name", ["validate", "analyze"])
def test_judge_checks_structure_against_the_oracle(name):
    fact = {"dim": 3, "leibniz": True, "lie": True, "class": 2, "left_center_dim": 1}
    op = {"command": name, "samples": 50, "mode": "exact"}
    ok = {"exit": 0, "raised": None, "stderr": ""}
    if name == "validate":
        checks = [{"name": "leibniz-identity", "status": "pass", "checked": 27, "residual": "0"}]
        wrong = _report(checks, nilpotency_class=3, is_lie=True)
    else:
        checks = [{"name": n, "status": "pass", "checked": 100, "residual": "0"}
                  for n in ("quotient-is-lie", "cocycle-identity", "reconstruction",
                            "projection-morphism")]
        wrong = _report(checks, left_center_dim=2, quotient_dim=1)
    reasons, known = oracle.judge(op, ok, wrong, fact)
    assert any(r.startswith("oracle") for r in reasons) and known is None
