"""Sparse bracket kernels and the exact exp action against dense formulas.

The dense references below are the plain triple and quintuple sums over the
structure-constant table.  The sparse kernels must agree with them exactly:
same values, same scalar types, and in float mode the same bits.  The
memoized ``exp_ad`` must return exactly what ``exp_endo(ad_x)`` computes.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from leibrack import cli, linalg, racks
from leibrack.algebra import LeibnizAlgebra, derivation_algebra, left_center
from leibrack.corpus import CORPUS_NAMES, corpus_path, load_corpus
from leibrack.observables import Covector
from leibrack.racks import bass_product, coadjoint, exp_ad, exp_endo
from leibrack.sampling import rational_vector

from helpers import make_table, n_k, random_invertible, rebase, sl2_semidirect


def dense_bracket(alg, x, y):
    n = alg.dim
    c = alg.table
    out = [0] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            w = x[i] * y[j]
            for k in range(n):
                if c[i][j][k] != 0:
                    out[k] = out[k] + w * c[i][j][k]
    return out


def dense_ad(alg, x):
    n = alg.dim
    c = alg.table
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != 0:
                    rows[k][j] = rows[k][j] + x[i] * c[i][j][k]
    return rows


def dense_leibniz_violations(alg):
    n = alg.dim
    c = alg.table
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                residual = [
                    sum(
                        c[j][k][l] * c[i][l][m]
                        - c[i][j][l] * c[l][k][m]
                        - c[i][k][l] * c[j][l][m]
                        for l in range(n)
                    )
                    for m in range(n)
                ]
                if any(r != 0 for r in residual):
                    violations.append(((i, j, k), residual))
    return violations


def dense_exp(matrix):
    """sum_k A^k / k! by dense matrix powers, for a nilpotent A."""
    n = len(matrix)
    total = linalg.identity_matrix(n)
    power = linalg.identity_matrix(n)
    for k in range(1, n + 1):
        power = linalg.mat_mul(power, matrix)
        total = linalg.mat_add(total, linalg.mat_scale(Fraction(1, factorial(k)), power))
    return total


def exact_bits(values):
    """repr of each entry: equal lists mean equal values, types and float bits."""
    return [repr(v) for v in values]


def _algebras():
    algebras = {name: load_corpus(name) for name in CORPUS_NAMES}
    for k in (4, 5):
        algebras[f"n{k}"] = n_k(k)
    n4 = algebras["n4"]
    algebras["n4-rebased"] = rebase(n4, random_invertible(random.Random(4), n4.dim), "n4d")
    sl2 = algebras["sl2"]
    for m in (1, 2):
        algebras[f"sl2xV{m}"] = sl2_semidirect(sl2, m)
    return algebras


ALGEBRAS = _algebras()
NILPOTENT = [name for name, alg in ALGEBRAS.items() if alg.is_nilpotent()]


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_sparse_index_lists_exactly_the_nonzero_entries(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    got = {(i, j, k): c for i, plane in enumerate(alg.sparse) for j, row in plane for k, c in row}
    want = {
        (i, j, k): alg.table[i][j][k]
        for i in range(n) for j in range(n) for k in range(n)
        if alg.table[i][j][k] != 0
    }
    assert got == want
    for plane in alg.sparse:
        assert [j for j, _ in plane] == sorted(j for j, _ in plane)
        for _, row in plane:
            assert [k for k, _ in row] == sorted(k for k, _ in row)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_bracket_and_ad_match_dense_sums(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name)
    for _ in range(10):
        x = rational_vector(rng, alg.dim)
        y = rational_vector(rng, alg.dim)
        assert exact_bits(alg.bracket_coords(x, y)) == exact_bits(dense_bracket(alg, x, y))
        assert alg.ad(x).matrix == alg.ad(alg.element(x)).matrix
        assert [list(r) for r in alg.ad(x).matrix] == dense_ad(alg, x)
        xf = [float(v) / 3 for v in x]
        yf = [float(v) / 7 for v in y]
        assert exact_bits(alg.bracket_coords(xf, yf)) == exact_bits(dense_bracket(alg, xf, yf))
        got = alg.ad(alg.element(xf, "float")).matrix
        assert [exact_bits(row) for row in got] == [
            exact_bits(float(v) for v in row) for row in dense_ad(alg, xf)
        ]


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_dual_bracket_is_the_transpose_of_ad(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "dual")
    for _ in range(5):
        x = rational_vector(rng, alg.dim)
        xi = rational_vector(rng, alg.dim)
        assert alg.dual_bracket_coords(x, xi) == linalg.vec_mat(xi, dense_ad(alg, x))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_leibniz_violations_match_dense_sum(name):
    alg = ALGEBRAS[name]
    assert alg.leibniz_violations() == dense_leibniz_violations(alg) == []


@pytest.mark.parametrize("name", ["heisenberg", "leib2", "n4", "n4-rebased", "sl2xV1"])
def test_perturbed_table_lists_the_same_violating_triples(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "perturb")
    n = alg.dim
    table = [[list(row) for row in plane] for plane in alg.table]
    for _ in range(2):
        i, j, k = (rng.randrange(n) for _ in range(3))
        table[i][j][k] += Fraction(rng.randint(1, 3), rng.randint(1, 2))
    bad = LeibnizAlgebra(table)
    got = bad.leibniz_violations()
    assert got
    assert got == dense_leibniz_violations(bad)
    assert all(type(r) is Fraction for _, residual in got for r in residual)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_left_center_matches_dense_rows(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    rows = [
        [alg.table[i][j][k] for i in range(n)]
        for j in range(n) for k in range(n)
        if any(alg.table[i][j][k] != 0 for i in range(n))
    ]
    assert left_center(alg).basis_rows == linalg.nullspace(rows, cols=n)


@pytest.mark.parametrize("name", [name for name in ALGEBRAS if name != "n5"])
def test_derivation_system_matches_dense_rows(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    c = alg.table
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for l in range(n):
                    row[m * n + l] += c[i][j][l]
                    row[l * n + i] -= c[l][j][m]
                    row[l * n + j] -= c[i][l][m]
                if any(row):
                    rows.append(row)
    got = [[x for row in d.matrix for x in row] for d in derivation_algebra(alg).basis]
    assert got == linalg.nullspace(rows, cols=n * n)


@pytest.mark.parametrize("name", NILPOTENT)
def test_exp_endo_matches_dense_power_series(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "exp")
    for _ in range(3):
        x = alg.element(rational_vector(rng, alg.dim))
        ad = alg.ad(x)
        assert exp_endo(ad).matrix == tuple(tuple(row) for row in dense_exp(ad.matrix))


@pytest.mark.parametrize("name", NILPOTENT)
def test_exact_actions_equal_the_exponential_matrix(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "action")
    for _ in range(5):
        x = alg.element(rational_vector(rng, alg.dim))
        y = alg.element(rational_vector(rng, alg.dim))
        xi = Covector(alg, rational_vector(rng, alg.dim))
        exp_x = exp_endo(alg.ad(x)).matrix
        assert bass_product(x, y).coords == tuple(linalg.mat_vec(exp_x, y.coords))
        exp_neg = exp_endo(alg.ad(-x)).matrix
        assert coadjoint(x, xi).coords == tuple(linalg.vec_mat(list(xi.coords), exp_neg))


def test_exact_action_rejects_non_nilpotent(sl2):
    h, e, _ = sl2.basis_elements()
    with pytest.raises(ValueError, match="nilpotent"):
        bass_product(h, e)
    xi = Covector(sl2, (Fraction(0), Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="nilpotent"):
        coadjoint(h, xi)


def test_exp_endo_on_zero_dimensional_algebra():
    point = LeibnizAlgebra(make_table(0, {}))
    exp = exp_endo(point.ad(point.zero()))
    assert exp.matrix == ()
    assert exp == type(exp).identity(point)
    assert bass_product(point.zero(), point.zero()) == point.zero()


# -- the per-algebra exp(ad_x) cache ---------------------------------------------


def matrix_bits(endo):
    return [exact_bits(row) for row in endo.matrix]


@pytest.mark.parametrize("name", ["hs1", "sl2", "sl2xV1"])
def test_exp_ad_float_has_the_bits_of_exp_endo(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "memo")
    for order in (12, 16):
        for _ in range(3):
            x = alg.element([float(v) for v in rational_vector(rng, alg.dim)], "float")
            got = exp_ad(x, order)
            assert exp_ad(x, order) is got
            assert matrix_bits(got) == matrix_bits(exp_endo(alg.ad(x), order))


@pytest.mark.parametrize("name", ["heisenberg", "freenil3"])
def test_exp_ad_exact_equals_exp_endo(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "memo")
    for _ in range(3):
        x = alg.element(rational_vector(rng, alg.dim))
        assert exp_ad(x) == exp_endo(alg.ad(x))
        assert exp_ad(x).mode == "exact"


def test_exp_ad_keeps_exact_and_float_apart():
    alg = load_corpus("heisenberg")
    x = alg.element([1, 2, 0])
    assert exp_ad(x).mode == "exact"
    assert exp_ad(x.to_float()).mode == "float"
    assert len(alg._exp_ad) == 2


def test_exp_ad_signed_zero_hits_the_same_entry():
    alg = load_corpus("sl2")
    x = alg.element([0.0, 0.25, -0.5], "float")
    x_neg_zero = alg.element([-0.0, 0.25, -0.5], "float")
    first = exp_ad(x)
    assert exp_ad(x_neg_zero) is first
    assert len(alg._exp_ad) == 1
    assert matrix_bits(first) == matrix_bits(exp_endo(alg.ad(x_neg_zero)))


def count_exponentials(monkeypatch, argv, capsys):
    calls = []
    original = racks.exp_endo

    def counting(endo, *args):
        calls.append(endo.mode)
        return original(endo, *args)

    monkeypatch.setattr(racks, "exp_endo", counting)
    cli.main(argv)
    monkeypatch.undo()
    capsys.readouterr()
    return len(calls)


def test_tangent_computes_each_exponential_once(monkeypatch, capsys):
    alg = load_corpus("sl2")
    # tangent_recover visits +-step e_i: at most 2 dim distinct left factors.
    count = count_exponentials(monkeypatch, ["tangent", str(corpus_path("sl2"))], capsys)
    assert 0 < count <= 2 * alg.dim + 1


def test_no_exponential_state_carries_across_cli_calls(monkeypatch, capsys):
    argv = ["rack", str(corpus_path("sl2")), "--mode", "float", "--samples", "3"]
    first = count_exponentials(monkeypatch, argv, capsys)
    second = count_exponentials(monkeypatch, argv, capsys)
    assert first == second > 0
