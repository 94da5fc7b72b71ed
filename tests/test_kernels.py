"""Sparse bracket kernels and the exact exp action against dense formulas.

The dense references below are the plain triple and quintuple sums over the
structure-constant table.  The sparse kernels must agree with them exactly:
same values, same scalar types, and in float mode the same bits.  The
memoized ``exp_ad`` must return exactly what ``exp_endo(ad_x)`` computes.
"""

import random
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibrack import cli, linalg, racks
from leibrack.algebra import (
    Endomorphism,
    LeibnizAlgebra,
    bracket_defects,
    derivation_algebra,
    left_center,
)
from leibrack.corpus import CORPUS_NAMES, corpus_path, load_corpus
from leibrack.observables import Covector
from leibrack.quantize import hessian_matrix
from leibrack.racks import bass_product, coadjoint, exp_ad, exp_endo
from leibrack.sampling import rational_vector

from helpers import (
    dense_derivation_rows,
    make_table,
    mat_add,
    n_k,
    random_invertible,
    rebase,
    reference_bracket_coords,
    reference_derivation_residual,
    reference_dual_bracket,
    reference_morphism_residual,
    reference_exp_endo_float,
    reference_nullspace,
    reference_rref,
    reference_sparse,
    sl2_semidirect,
    sparse_int_rows,
)


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


def dense_hessian(alg, xi):
    """The bordered Hessian with the x-y block summed over the dense table."""
    n = alg.dim
    c = alg.table
    b = [[Fraction(0)] * (4 * n) for _ in range(4 * n)]
    for i in range(n):
        for j in range(n):
            b[i][n + j] = b[n + j][i] = sum((c[i][j][k] * xi[k] for k in range(n)), Fraction(0))
        b[i][2 * n + i] = b[2 * n + i][i] = Fraction(-1)
        b[n + i][3 * n + i] = b[3 * n + i][n + i] = Fraction(-1)
    return b


def dense_exp(matrix):
    """sum_k A^k / k! by dense matrix powers, for a nilpotent A."""
    n = len(matrix)
    total = linalg.identity_matrix(n)
    power = linalg.identity_matrix(n)
    for k in range(1, n + 1):
        power = linalg.mat_mul(power, matrix)
        total = mat_add(total, linalg.mat_scale(Fraction(1, factorial(k)), power))
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
    index = [(i, j, k) for i, plane in enumerate(alg.int_sparse) for j, row in plane for k, _ in row]
    got = {
        (i, j, k): Fraction(c, alg.scale)
        for i, plane in enumerate(alg.int_sparse) for j, row in plane for k, c in row
    }
    want = {
        (i, j, k): alg.table[i][j][k]
        for i in range(n) for j in range(n) for k in range(n)
        if alg.table[i][j][k] != 0
    }
    assert got == want
    table_index = reference_sparse(alg)
    assert index == [(i, j, k) for i, plane in enumerate(table_index) for j, row in plane for k, _ in row]
    for plane in alg.int_sparse:
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
        got, want = alg.left_bracket(x, "exact")(y), dense_bracket(alg, x, y)
        assert got == want == reference_bracket_coords(alg, x, y)
        assert [type(v) for v in got] == [Fraction if v else int for v in want]
        assert alg.ad(x).matrix == alg.ad(alg.element(x)).matrix
        assert [list(r) for r in alg.ad(x).matrix] == dense_ad(alg, x)
        xf = [float(v) / 3 for v in x]
        yf = [float(v) / 7 for v in y]
        want = exact_bits(dense_bracket(alg, xf, yf))
        assert exact_bits(alg.left_bracket(xf, "float")(yf)) == want
        assert exact_bits(alg.bracket_coords(xf, yf, alg.float_sparse)) == want
        assert exact_bits(reference_bracket_coords(alg, xf, yf)) == want
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
        assert reference_dual_bracket(alg, x, xi) == linalg.vec_mat(xi, dense_ad(alg, x))


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


HUGE = Fraction(10**30, 7)


def scaled_table(alg, factor):
    """The table times a scalar: [x, y]' = factor [x, y] is Leibniz (Lie) iff [x, y] is."""
    return [[[c * factor for c in row] for row in plane] for plane in alg.table]


@pytest.mark.parametrize("name", ["heisenberg", "leib2", "freenil3", "n4-rebased", "sl2xV1"])
def test_huge_entries_give_the_dense_violations(name):
    alg = ALGEBRAS[name]
    table = scaled_table(alg, -HUGE)
    assert LeibnizAlgebra(table).leibniz_violations() == []
    rng = random.Random(name + "huge")
    n = alg.dim
    for sign in (1, -1, 1):
        i, j, k = (rng.randrange(n) for _ in range(3))
        table[i][j][k] += sign * HUGE * rng.randint(1, 9) / rng.randint(1, 5)
    bad = LeibnizAlgebra(table)
    got = bad.leibniz_violations()
    assert got
    assert [(t, exact_bits(r)) for t, r in got] == [
        (t, exact_bits(r)) for t, r in dense_leibniz_violations(bad)
    ]


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_is_lie_matches_dense_antisymmetry(name):
    alg = ALGEBRAS[name]
    n = alg.dim

    def dense_is_lie(t):
        return all(t[i][j][k] == -t[j][i][k] for i in range(n) for j in range(n) for k in range(n))

    assert alg.is_lie() == (alg.is_leibniz() and dense_is_lie(alg.table))
    assert LeibnizAlgebra(scaled_table(alg, HUGE)).is_lie() == alg.is_lie()
    rng = random.Random(name + "lie")
    for _ in range(3):
        table = scaled_table(alg, HUGE)
        # one side of a pair, or a square when i == j
        i, j, k = (rng.randrange(n) for _ in range(3))
        table[i][j][k] += HUGE
        bad = LeibnizAlgebra(table)
        assert not bad.is_lie()
        assert not dense_is_lie(bad.table)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_left_center_matches_dense_rows(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    rows = [
        [alg.table[i][j][k] for i in range(n)]
        for j in range(n) for k in range(n)
        if any(alg.table[i][j][k] != 0 for i in range(n))
    ]
    assert left_center(alg).basis_rows == linalg.nullspace(sparse_int_rows(rows), cols=n)


@pytest.mark.parametrize("name", [name for name in ALGEBRAS if name != "n5"])
def test_derivation_system_matches_dense_rows(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    rows = dense_derivation_rows(alg)
    got = [[x for row in d.matrix for x in row] for d in derivation_algebra(alg).basis]
    assert got == linalg.nullspace(sparse_int_rows(rows), cols=n * n)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_derivation_system_nullspace_matches_reference(k):
    alg = n_k(k)
    rows = dense_derivation_rows(alg)
    cols = alg.dim ** 2
    want = reference_nullspace(rows, cols=cols)
    assert linalg.nullspace(sparse_int_rows(rows), cols=cols) == want


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_left_center_nullspace_matches_reference(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    rows = [
        [alg.table[i][j][k] for i in range(n)]
        for j in range(n) for k in range(n)
        if any(alg.table[i][j][k] != 0 for i in range(n))
    ]
    assert linalg.nullspace(sparse_int_rows(rows), cols=n) == reference_nullspace(rows, cols=n)


@pytest.mark.parametrize("name", ["heisenberg", "freenil3", "n4", "n4-rebased"])
def test_derivation_system_rref_matches_reference(name):
    rows = dense_derivation_rows(ALGEBRAS[name])
    assert linalg.rref(rows) == reference_rref(rows)


@pytest.mark.parametrize("name", ["freenil3", "n4", "n4-rebased"])
def test_hessian_matrix_matches_dense_sum(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "hessian")
    for _ in range(3):
        xi = rational_vector(rng, alg.dim)
        got = hessian_matrix(alg, Covector(alg, xi))
        want = dense_hessian(alg, xi)
        assert [exact_bits(row) for row in got] == [exact_bits(row) for row in want]


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
    assert exp == Endomorphism(point, linalg.identity_matrix(0))
    assert bass_product(point.zero(), point.zero()) == point.zero()


# -- the bracket-morphism kernel --------------------------------------------------


def morphism_residual(alg, a):
    return linalg.max_abs(c for _, defect in bracket_defects(alg, alg, a) for c in defect)


def _maps(alg, rng):
    """The identity, a scaling, a random invertible map and, on nilpotent algebras, exp(ad_x)."""
    n = alg.dim
    maps = [linalg.identity_matrix(n), random_invertible(rng, n)]
    maps.append([[Fraction(i + 2) if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    if alg.is_nilpotent():
        maps.append([list(row) for row in exp_endo(alg.ad(rational_vector(rng, n))).matrix])
    return maps


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_morphism_residual_matches_the_dense_loop(name):
    # the largest bracket_defects entry, exact and float, against the dense n^5 sum
    alg = ALGEBRAS[name]
    for a in _maps(alg, random.Random(name + "morphism")):
        got = morphism_residual(alg, a)
        want = reference_morphism_residual(alg, a)
        assert got == want
        assert type(got) is type(want)
        # float sums run in another order than the dense loop: close, not bit-equal
        got = morphism_residual(alg, [[float(x) for x in row] for row in a])
        assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_bracket_defects_list_every_failing_basis_pair(name):
    alg = ALGEBRAS[name]
    n = alg.dim
    for a in _maps(alg, random.Random(name + "defects")):
        found = dict(bracket_defects(alg, alg, a))
        for i in range(n):
            for j in range(n):
                col_i = [a[r][i] for r in range(n)]
                col_j = [a[r][j] for r in range(n)]
                want = linalg.vec_sub(
                    linalg.mat_vec(a, alg.table[i][j]), reference_bracket_coords(alg, col_i, col_j)
                )
                assert found.get((i, j), [0] * n) == want


# -- the derivation residual -------------------------------------------------------


@cache
def flat_derivations(name):
    return [[x for row in d.matrix for x in row] for d in derivation_algebra(ALGEBRAS[name]).basis]


def assert_derivation_residual_matches(name, matrix):
    """D lies in the span of ``derivation_algebra`` exactly when the dense n^4 residual is 0."""
    basis = flat_derivations(name)
    flat = [Fraction(x) for row in matrix for x in row]
    in_span = linalg.rank(basis + [flat]) == len(basis)
    assert in_span == (reference_derivation_residual(Endomorphism(ALGEBRAS[name], matrix)) == 0)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_derivation_residual_matches_the_dense_loop(name):
    alg = ALGEBRAS[name]
    matrices = [d.matrix for d in derivation_algebra(alg).basis[:4]]
    matrices += _maps(alg, random.Random(name + "derivation"))
    for matrix in matrices:
        assert_derivation_residual_matches(name, matrix)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(name for name, alg in ALGEBRAS.items() if alg.dim <= 6)),
    st.data(),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99), st.fractions(-3, 3, max_denominator=4)),
        min_size=1,
        max_size=4,
    ),
)
def test_derivation_residual_on_perturbed_inner_derivations(name, data, changes):
    alg = ALGEBRAS[name]
    n = alg.dim
    x = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    matrix = [list(row) for row in alg.ad(x).matrix]
    assert reference_derivation_residual(Endomorphism(alg, matrix)) == 0
    for i, j, delta in changes:
        matrix[i % n][j % n] += delta
    assert_derivation_residual_matches(name, matrix)


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


SL2_FAMILY = {"sl2": ALGEBRAS["sl2"]}
SL2_FAMILY.update({f"sl2xV{m}": sl2_semidirect(ALGEBRAS["sl2"], m) for m in range(1, 5)})


@pytest.mark.parametrize("name", list(SL2_FAMILY))
def test_exp_endo_float_has_the_bits_of_the_dense_taylor_loop(name):
    alg = SL2_FAMILY[name]
    rng = random.Random(name + "taylor")
    for order in (1, 12, 16):
        for scale in (0.1, 1.0, 7.0):
            x = alg.element([scale * float(v) for v in rational_vector(rng, alg.dim)], "float")
            ad = alg.ad(x)
            want = reference_exp_endo_float(ad.matrix, order)
            assert matrix_bits(exp_endo(ad, order)) == [exact_bits(row) for row in want]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), order=st.sampled_from([1, 12, 16]))
def test_exp_endo_float_on_zero_rows_and_columns(data, n, order):
    entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-20, 20))
    matrix = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    index = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        matrix[index] = [data.draw(st.sampled_from([0.0, -0.0]))] * n
    else:
        for row in matrix:
            row[index] = data.draw(st.sampled_from([0.0, -0.0]))
    endo = Endomorphism(LeibnizAlgebra(make_table(n, {})), matrix, "float")
    want = reference_exp_endo_float(matrix, order)
    assert matrix_bits(exp_endo(endo, order)) == [exact_bits(row) for row in want]


def tiny_float(mantissa, exponent, sign):
    return sign * mantissa * 2.0 ** exponent


@settings(max_examples=80, deadline=None)
@example(matrix=[[2.0 ** -537, 0.0], [0.0, -(2.0 ** -537)]], order=2)
@given(
    matrix=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    st.builds(
                        tiny_float,
                        st.floats(1, 2),
                        st.integers(-560, -500),
                        st.sampled_from([1.0, -1.0]),
                    ),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -0.5]),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    ),
    order=st.sampled_from([2, 12, 16]),
)
def test_exp_endo_float_on_products_that_underflow(matrix, order):
    # entries near 2^-537 multiply to subnormals around 2^-1074, and dividing
    # a subnormal product by k can underflow it to a signed zero
    endo = Endomorphism(LeibnizAlgebra(make_table(len(matrix), {})), matrix, "float")
    want = reference_exp_endo_float(matrix, order)
    assert matrix_bits(exp_endo(endo, order)) == [exact_bits(row) for row in want]


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
