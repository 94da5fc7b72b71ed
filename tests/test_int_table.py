"""The integer structure-constant table and the exact kernels that read it.

``LeibnizAlgebra.int_sparse`` is the sparse index of the dense table
(``helpers.reference_sparse``) with every entry times ``scale``, the lcm of
the table's denominators.  The nilpotency chain, the left center, the
derivation system, the cocycle identity, ``int_ad`` and exact ``ad``, exact
``exp_endo`` and ``racks.int_exp_columns`` run on it, and must give
exactly what their Fraction references give, on tables with non-integral
constants too: ``n4-rebased``, seeded rebases of n_5 and the dense n_5 of
``bench/gen.py``.
"""

import copy
import os
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack import algebra as algebra_module
from leibrack import linalg
from leibrack.algebra import (
    Endomorphism,
    LeibnizAlgebra,
    _derivation_rows,
    _primitive,
    derivation_algebra,
    left_center,
)
from leibrack.cli import basis_defects
from leibrack.corpus import CORPUS_NAMES, load_corpus
from leibrack.extension import build_extension, cocycle_identity_violations
from leibrack.io import load_algebra
from leibrack.observables import PolyObservable
from leibrack.quantize import poisson_bracket
from leibrack.racks import exp_endo, int_exp_columns
from leibrack.reports import check_law
from leibrack.sampling import sample_elements, sample_observables

import helpers
from helpers import (
    load_bench_gen,
    n_k,
    perturb_omega,
    random_invertible,
    rebase,
    reference_ad,
    reference_bracket_coords,
    reference_cocycle_identity_violations,
    reference_derivation_rows,
    reference_derivations,
    reference_exp_endo,
    reference_int_exp_columns,
    reference_left_center_rows,
    reference_nilpotency_class,
    reference_poisson_bracket,
    reference_sparse,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _table_algebras():
    algebras = {name: load_corpus(name) for name in CORPUS_NAMES}
    for file in sorted(os.listdir(DATA)):
        algebras[file.removesuffix(".json")] = load_algebra(os.path.join(DATA, file))
    return algebras


TABLE_ALGEBRAS = _table_algebras()
N5 = n_k(5)
LADDER = {f"n{k}": n_k(k) for k in (4, 5, 6)}
REBASED = {
    "n4-rebased": TABLE_ALGEBRAS["n4-rebased"],
    "n5-rebased": rebase(N5, random_invertible(random.Random(5), N5.dim), "n5d"),
}


@pytest.mark.parametrize("name", list(TABLE_ALGEBRAS))
def test_int_sparse_over_scale_is_sparse(name):
    alg = TABLE_ALGEBRAS[name]
    assert alg.scale == lcm(*(c.denominator for plane in alg.table for row in plane for c in row))
    assert all(type(c) is int for plane in alg.int_sparse for _, row in plane for _, c in row)
    rebuilt = tuple(
        tuple((j, tuple((k, Fraction(c, alg.scale)) for k, c in row)) for j, row in plane)
        for plane in alg.int_sparse
    )
    assert rebuilt == reference_sparse(alg)


GEN = load_bench_gen()
N5_DENSE = GEN.rebase(GEN.n_k(5), GEN.random_basis_change(GEN.seeded_rng(1, "n5"), 10), "n5d")
N4_DENSE = GEN.rebase(GEN.n_k(4), GEN.random_basis_change(GEN.seeded_rng(1, "n4"), 6), "n4d")
NILPOTENCY_ALGEBRAS = {
    **TABLE_ALGEBRAS, "n5-rebased": REBASED["n5-rebased"], **LADDER, "n5-dense": N5_DENSE
}


def test_rebased_tables_have_non_integral_constants():
    assert all(alg.scale > 1 for alg in REBASED.values())


@pytest.mark.parametrize("name", list(NILPOTENCY_ALGEBRAS))
def test_nilpotency_class_matches_the_fraction_chain(name):
    alg = NILPOTENCY_ALGEBRAS[name]
    assert alg.nilpotency_class() == reference_nilpotency_class(alg)


def test_rebased_nilpotency_classes():
    assert [alg.nilpotency_class() for alg in REBASED.values()] == [3, 4]


NULLSPACE_ALGEBRAS = {**LADDER, **TABLE_ALGEBRAS, **REBASED}


@pytest.mark.parametrize("name", list(NULLSPACE_ALGEBRAS))
def test_left_center_matches_the_fraction_nullspace(name):
    alg = NULLSPACE_ALGEBRAS[name]
    assert left_center(alg).basis_rows == reference_left_center_rows(alg)


@pytest.mark.parametrize("name", list(NULLSPACE_ALGEBRAS))
def test_derivation_algebra_matches_the_fraction_nullspace(name):
    alg = NULLSPACE_ALGEBRAS[name]
    got = derivation_algebra(alg)
    basis, dim_inner = reference_derivations(alg)
    assert [[x for row in d.matrix for x in row] for d in got.basis] == basis
    assert got.dim_inner == dim_inner


ROW_ALGEBRAS = {
    **TABLE_ALGEBRAS,
    **LADDER,
    "n7": n_k(7),
    "n4-dense": N4_DENSE,
    "n5-dense": N5_DENSE,
}


def _normalized(row):
    """A sparse row over its first nonzero entry, as sorted (column, Fraction) pairs; () for 0."""
    entries = sorted((col, c) for col, c in row.items() if c)
    return tuple((col, Fraction(c, entries[0][1])) for col, c in entries)


@pytest.mark.parametrize("name", list(ROW_ALGEBRAS))
def test_derivation_rows_match_the_triple_loop(name):
    # the same rows up to a scalar as the loop over all (i, j, m), and
    # _primitive (one-entry rows with no sort and no gcd) tells them apart
    # as the normalized rows do
    int_sparse = ROW_ALGEBRAS[name].int_sparse
    got = list(_derivation_rows(int_sparse))
    want = {_normalized(row) for row in reference_derivation_rows(int_sparse)}
    want.discard(())
    assert {_normalized(row) for row in got} - {()} == want
    assert len(set(map(_primitive, got)) - {()}) == len(want)


def test_derivation_rows_visit_each_nonzero_constant_once(monkeypatch):
    # each nonzero constant adds to the n rows of its bracket term and the
    # n rows of each action term: at most 3 n nnz row visits, 1,800 on n_6
    # (dim 15, 40 constants), where a loop over all triples makes 3,375.
    # The visits are counted as the items of every range the module makes
    alg = n_k(6)
    n = alg.dim
    nnz = sum(len(entries) for plane in alg.int_sparse for _, entries in plane)
    visits = []

    def counting_range(*args):
        r = range(*args)
        visits.append(len(r))
        return r

    monkeypatch.setattr(algebra_module, "range", counting_range, raising=False)
    rows = list(_derivation_rows(alg.int_sparse))
    assert nnz == 40
    assert len(rows) <= sum(visits) <= 3 * n * nnz
    monkeypatch.undo()
    monkeypatch.setattr(helpers, "range", counting_range, raising=False)
    visits.clear()
    assert len(list(reference_derivation_rows(alg.int_sparse))) == len(rows)
    assert sum(visits) > n**3 > 3 * n * nnz


def test_structural_nullspaces_hand_sparse_rows_to_nullspace(monkeypatch):
    # left_center and derivation_algebra hand their sparse int rows to
    # linalg.nullspace; no dense row is built on the way.  The algebra keeps
    # its left center, so neither derivation_algebra (for dim_inner) nor
    # build_extension solves it again.  The tables are built here, so that
    # no solve kept by another test is reused
    solve, seen = linalg.nullspace, []

    def spy(rows, cols=None):
        seen.append(cols)
        assert all(type(row) is dict and all(type(x) is int for x in row.values()) for row in rows)
        return solve(rows, cols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    for alg in (load_algebra(os.path.join(DATA, "n4-rebased.json")), n_k(5)):
        seen.clear()
        assert left_center(alg).basis_rows == reference_left_center_rows(alg)
        basis, dim_inner = reference_derivations(alg)
        got = derivation_algebra(alg)
        assert [[x for row in d.matrix for x in row] for d in got.basis] == basis
        assert got.dim_inner == dim_inner
        assert build_extension(alg).center is left_center(alg)
        assert seen == [alg.dim, alg.dim**2]


def test_rebased_n5_derivations_need_the_second_prime(rungs):
    # as analyze runs them, on a table built here: build_extension solves
    # the left center on the first prime, and derivation_algebra reads
    # dim_inner off it; the reduced-echelon basis of der(n5d) has entries
    # of more than 63 bits, beyond the reach of 2**127 - 1
    alg = rebase(N5, random_invertible(random.Random(5), N5.dim), "n5d")
    assert alg == REBASED["n5-rebased"]
    build_extension(alg)
    derivation_algebra(alg)
    assert rungs == [
        (linalg.PRIMES[0], True), (linalg.PRIMES[0], False), (linalg.PRIMES[1], True)
    ]


@pytest.fixture(scope="module")
def extensions():
    return {name: build_extension(alg) for name, alg in REBASED.items()}


def exact(violations):
    """Witnesses with the repr of each coordinate: equal means equal values and types."""
    return [(where, [repr(c) for c in residual]) for where, residual in violations]


@pytest.mark.parametrize("name", list(REBASED))
def test_cocycle_identity_matches_the_reference(extensions, name):
    ext = extensions[name]
    assert cocycle_identity_violations(ext) == reference_cocycle_identity_violations(ext) == []


@pytest.mark.parametrize("name", list(REBASED))
def test_corrupted_omega_cell_fails_with_the_reference_residual(extensions, name):
    ext = copy.deepcopy(extensions[name])
    perturb_omega(ext, 0, -1, [Fraction(k + 1, 3) for k in range(ext.algebra.dim)])
    got = cocycle_identity_violations(ext)
    want = reference_cocycle_identity_violations(ext)
    assert got
    assert exact(got) == exact(want)
    checked = ext.quotient.dim ** 3
    report = check_law("cocycle-identity", basis_defects(got, "pair"), checked=checked)
    reference = check_law("cocycle-identity", basis_defects(want, "pair"), checked=checked)
    assert not report.passed
    assert report.max_residual == reference.max_residual > 0


KERNEL_ALGEBRAS = {**TABLE_ALGEBRAS, **LADDER, "n5-dense": N5_DENSE}


def kernel_elements(alg):
    """0, the last basis vector and sampled elements, some with denominators 6 and 12."""
    if not alg.dim:
        return [alg.zero()]
    return [
        alg.zero(),
        alg.basis_element(alg.dim - 1),
        *sample_elements(alg, 3, 1),
        *sample_elements(alg, 2, 2, scale=Fraction(-7, 6)),
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def test_the_kernel_tables_include_a_dense_rebase():
    assert N5_DENSE.scale > 1 and N5_DENSE.dim == 10
    assert sum(map(len, (row for plane in reference_sparse(N5_DENSE) for _, row in plane))) > 400


@pytest.mark.parametrize("name", list(KERNEL_ALGEBRAS))
def test_exact_ad_matches_the_dense_fraction_table(name):
    alg = KERNEL_ALGEBRAS[name]
    for x in kernel_elements(alg):
        got = alg.ad(x).matrix
        want = reference_ad(alg, x.coords)
        assert [list(row) for row in got] == want
        assert all(type(a) is Fraction for row in got for a in row)
        assert alg.ad(list(x.coords)).matrix == got
        # the shared kernel: the nonzero int columns of s·ad_x, s = d·scale
        columns, s = alg.int_ad(x.coords)
        assert s == linalg.int_vector(x.coords)[1] * alg.scale
        assert all(type(a) is int and a for _, column in columns for _, a in column)
        assert all(column for _, column in columns)
        dense = [[0] * alg.dim for _ in range(alg.dim)]
        for j, column in columns:
            for k, a in column:
                dense[k][j] = a
        assert dense == [[a * s for a in row] for row in want]


def assert_exact_bracket(alg, x, y):
    """Exact ``left_bracket`` equals the Fraction-table sum, a Fraction in each nonzero entry."""
    got = alg.left_bracket(x, "exact")(y)
    assert got == reference_bracket_coords(alg, x, y)
    assert all(type(v) is Fraction for v in got if v)


@pytest.mark.parametrize("name", list(KERNEL_ALGEBRAS))
def test_exact_bracket_matches_the_fraction_table(name):
    alg = KERNEL_ALGEBRAS[name]
    elements = kernel_elements(alg)
    for x in elements:
        for y in elements:
            assert_exact_bracket(alg, x.coords, y.coords)
            assert x.bracket(y).coords == tuple(reference_bracket_coords(alg, x.coords, y.coords))


@pytest.mark.parametrize("name", ["n4-rebased", "n5-dense", "n5"])
def test_exact_poisson_bracket_matches_the_fraction_table(name):
    alg = KERNEL_ALGEBRAS[name]
    fs = [f + PolyObservable.from_element(x) for f, x in zip(
        sample_observables(alg, 3, 3), kernel_elements(alg)[1:]
    )]
    for f in fs:
        for g in sample_observables(alg, 2, 4) + fs:
            got = poisson_bracket(alg, f, g)
            assert got == reference_poisson_bracket(alg, f, g)
            assert all(type(c) is Fraction for c in got.terms.values())


def test_left_bracket_scales_x_once_and_brackets_through_bracket_coords(monkeypatch):
    alg = KERNEL_ALGEBRAS["n4-rebased"]
    x, *ys = (v.coords for v in kernel_elements(alg))
    calls = {"int_vector": 0, "bracket_coords": 0}
    int_vector, bracket_coords = linalg.int_vector, LeibnizAlgebra.bracket_coords

    def count(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(linalg, "int_vector", count("int_vector", int_vector))
    monkeypatch.setattr(LeibnizAlgebra, "bracket_coords", count("bracket_coords", bracket_coords))
    apply = alg.left_bracket(x, "exact")
    assert calls == {"int_vector": 1, "bracket_coords": 0}
    for y in ys:
        assert apply(y) == reference_bracket_coords(alg, x, y)
    assert calls == {"int_vector": 1 + len(ys), "bracket_coords": len(ys)}


# numerators up to 2^80 over denominators up to 2^60, zeros among them
LARGE = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**60)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KERNEL_ALGEBRAS)))
def test_exact_bracket_matches_the_fraction_table_on_large_denominators(data, name):
    alg = KERNEL_ALGEBRAS[name]
    coords = st.lists(LARGE, min_size=alg.dim, max_size=alg.dim)
    assert_exact_bracket(alg, data.draw(coords, label="x"), data.draw(coords, label="y"))


@pytest.mark.parametrize("name", list(KERNEL_ALGEBRAS))
def test_exact_exponentials_match_the_fraction_series(name):
    alg = KERNEL_ALGEBRAS[name]
    for x in kernel_elements(alg):
        ad = alg.ad(x)
        got, want = outcome(exp_endo, ad), outcome(reference_exp_endo, ad)
        assert got == want
        if isinstance(got, str):
            assert "nilpotent" in got
            continue
        assert all(type(a) is Fraction for row in got.matrix for a in row)
        columns, den = int_exp_columns(*alg.int_ad(x.coords), alg.dim)
        assert (columns, den) == reference_int_exp_columns(ad.matrix)
        assert all(type(t) is int for column in columns for t in column)


def test_a_zero_dimensional_algebra_has_the_identity_exponential():
    point = LeibnizAlgebra(())
    assert point.ad(point.zero()).matrix == ()
    assert exp_endo(point.ad(point.zero())) == Endomorphism(point, linalg.identity_matrix(0))
    assert int_exp_columns([], 1, 0) == ([], 1)
