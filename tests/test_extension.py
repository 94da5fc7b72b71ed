"""Left-center extensions: quotient, section, and the defect 2-cocycle."""

import copy
import os
from fractions import Fraction
from math import lcm

import pytest

from leibrack import linalg
from leibrack.algebra import LeibnizAlgebra
from leibrack.corpus import CORPUS_NAMES
from leibrack.io import load_algebra
from leibrack.extension import (
    build_extension,
    cocycle_identity_violations,
    projection_morphism_violations,
    reconstruction_violations,
)

from helpers import (
    dense_cocycle_identity_violations,
    dense_reconstruction_violations,
    make_table,
    perturb_omega,
    reference_cocycle_identity_violations,
    reference_omega,
    reference_reconstruction_violations,
)

N4_REBASED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "n4-rebased.json")

CENTER_DIMS = {
    "abelian3": 3,
    "leib2": 1,
    "hs1": 1,
    "heisenberg": 1,
    "freenil3": 2,
    "sl2": 0,
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_quotient_is_lie(corpus, name):
    ext = build_extension(corpus[name])
    assert ext.center.dim == CENTER_DIMS[name]
    assert ext.quotient.dim == corpus[name].dim - CENTER_DIMS[name]
    assert ext.quotient.is_lie()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cocycle_identity_exact(corpus, name):
    assert cocycle_identity_violations(build_extension(corpus[name])) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_reconstruction_exact(corpus, name):
    assert reconstruction_violations(build_extension(corpus[name])) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_projection_is_bracket_morphism(corpus, name):
    assert projection_morphism_violations(build_extension(corpus[name])) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_projection_inverts_section(corpus, name):
    ext = build_extension(corpus[name])
    for q in ext.quotient.basis_elements():
        assert linalg.mat_vec(ext.pi_matrix, ext.section(q).coords) == list(q.coords)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_omega_lands_in_center(corpus, name):
    ext = build_extension(corpus[name])
    for x in ext.quotient.basis_elements():
        for y in ext.quotient.basis_elements():
            assert ext.center.contains(reference_omega(ext, x, y))


def test_leib2_omega_table(leib2):
    ext = build_extension(leib2)
    x = ext.quotient.basis_element(0)
    e2 = leib2.basis_element(1)
    # section defect: s([x, x]) - [s(x), s(x)] = 0 - e2
    assert reference_omega(ext, x, x) == -e2
    assert -reference_omega(ext, x, x) == e2  # the cocycle of the reconstruction bracket


def test_heisenberg_omega_table(heisenberg):
    ext = build_extension(heisenberg)
    x, y = ext.quotient.basis_elements()
    e3 = heisenberg.basis_element(2)
    assert reference_omega(ext, x, y) == -e3
    assert reference_omega(ext, y, x) == e3
    assert reference_omega(ext, x, x).is_zero()


def test_omega_is_bilinear(freenil3):
    ext = build_extension(freenil3)
    x, y, z = ext.quotient.basis_elements()
    lhs = reference_omega(ext, 2 * x + y, z - Fraction(1, 3) * y)
    rhs = (
        2 * reference_omega(ext, x, z)
        - Fraction(2, 3) * reference_omega(ext, x, y)
        + reference_omega(ext, y, z)
        - Fraction(1, 3) * reference_omega(ext, y, y)
    )
    assert lhs == rhs


def test_trivial_center_gives_back_the_algebra(sl2):
    ext = build_extension(sl2)
    assert ext.quotient.dim == 3
    assert ext.quotient.table == sl2.table
    # projection and section are mutually inverse identities here
    for i, x in enumerate(sl2.basis_elements()):
        unit = ext.quotient.basis_element(i)
        assert linalg.mat_vec(ext.pi_matrix, x.coords) == list(unit.coords)
        assert ext.section(ext.quotient.basis_element(i)) == x
    for x in ext.quotient.basis_elements():
        for y in ext.quotient.basis_elements():
            assert reference_omega(ext, x, y).is_zero()


def test_full_center_gives_zero_quotient(abelian3):
    ext = build_extension(abelian3)
    assert ext.center.dim == 3
    assert ext.quotient.dim == 0
    assert cocycle_identity_violations(ext) == []
    assert reconstruction_violations(ext) == []


def test_hs1_nilpotentized_extension(hs1n):
    ext = build_extension(hs1n)
    assert ext.center.dim == 2
    assert ext.quotient.dim == 1
    g = ext.quotient.basis_element(0)
    # the quotient is abelian and the section is a morphism, so omega vanishes
    assert reference_omega(ext, g, g).is_zero()


def test_quotient_basis_names_are_marked(heisenberg):
    ext = build_extension(heisenberg)
    for label in ext.quotient.basis:
        assert label.endswith("~")


def test_build_extension_requires_leibniz():
    broken = LeibnizAlgebra(make_table(1, {(0, 0): {0: 1}}))
    with pytest.raises(ValueError):
        build_extension(broken)


# -- the direct kernels against the Element loops ---------------------------------


def exact(violations):
    """Witnesses with the repr of each coordinate: equal means equal values and types."""
    return [(where, [repr(c) for c in residual]) for where, residual in violations]


def kernels_and_references(ext):
    return [
        (cocycle_identity_violations(ext), reference_cocycle_identity_violations(ext)),
        (reconstruction_violations(ext), reference_reconstruction_violations(ext)),
    ]


@pytest.fixture(scope="module")
def extensions(corpus):
    algebras = dict(corpus)
    algebras["n4-rebased"] = load_algebra(N4_REBASED)
    return {name: build_extension(alg) for name, alg in algebras.items()}


def test_rebased_center_is_not_a_coordinate_axis(extensions):
    ext = extensions["n4-rebased"]
    # pi carries a center correction: some entry at a pivot column is nonzero
    assert any(row[p] for row in ext.pi_matrix for p in ext.center.pivots)


@pytest.mark.parametrize("name", list(CENTER_DIMS) + ["n4-rebased"])
def test_int_omega_is_the_table_over_its_least_denominator(extensions, name):
    ext = extensions[name]
    cells, dw = ext.int_omega
    table = ext.omega_table
    assert dw == lcm(*(c.denominator for row in table for cell in row for c in cell))
    assert [[[(k, c * dw) for k, c in enumerate(v) if c] for v in row] for row in table] == cells


MUTATED = ("heisenberg", "freenil3", "n4-rebased")


@pytest.mark.parametrize("name", MUTATED)
def test_corrupted_omega_cell_gives_the_reference_violations(extensions, name):
    ext = copy.deepcopy(extensions[name])
    perturb_omega(ext, 0, -1, [Fraction(k + 1, 2) for k in range(ext.algebra.dim)])
    for got, want in kernels_and_references(ext):
        assert got
        assert exact(got) == exact(want)


# In a Lie algebra [a, b] = -[b, a] vanishes when b is central, so only the
# non-Lie leib2 and hs1 show the [a, b] term of a corrupted center row a.
@pytest.mark.parametrize("name", MUTATED + ("leib2", "hs1"))
def test_corrupted_center_row_gives_the_reference_violations(extensions, name):
    ext = copy.deepcopy(extensions[name])
    ext.center.basis_rows[0][ext.complement[0]] += Fraction(1, 2)
    (cocycle, cocycle_want), (rebuilt, rebuilt_want) = kernels_and_references(ext)
    # the cocycle identity does not read the center rows
    assert cocycle == cocycle_want == []
    assert rebuilt
    assert exact(rebuilt) == exact(rebuilt_want)


# Tables times -10**30/7 (a scaled bracket is Leibniz exactly when the bracket
# is), so that omega, the center actions and the packed sums carry ~100-bit
# numerators over a denominator with a factor 7.
HUGE = Fraction(10**30, 7)


@pytest.fixture(scope="module")
def huge_extensions(extensions):
    scaled = {}
    for name in MUTATED + ("leib2", "hs1"):
        alg = extensions[name].algebra
        table = [[[-c * HUGE for c in row] for row in plane] for plane in alg.table]
        scaled[name] = build_extension(LeibnizAlgebra(table))
    return scaled


@pytest.mark.parametrize("name", MUTATED + ("leib2", "hs1"))
def test_huge_entries_give_the_reference_violations(huge_extensions, name):
    ext = huge_extensions[name]
    for got, want in kernels_and_references(ext):
        assert got == want == []
    assert dense_cocycle_identity_violations(ext) == dense_reconstruction_violations(ext) == []
    cells = copy.deepcopy(ext)
    perturb_omega(cells, 0, -1, [(-1) ** k * HUGE * (k + 1) / 3 for k in range(ext.algebra.dim)])
    rows = copy.deepcopy(ext)
    rows.center.basis_rows[0][ext.complement[0]] -= HUGE / 5
    for broken in (cells, rows):
        (cocycle, cocycle_want), (rebuilt, rebuilt_want) = kernels_and_references(broken)
        assert exact(cocycle) == exact(cocycle_want)
        assert exact(cocycle) == exact(dense_cocycle_identity_violations(broken))
        assert rebuilt
        assert exact(rebuilt) == exact(rebuilt_want)
        assert exact(rebuilt) == exact(dense_reconstruction_violations(broken))
    # the quotients of leib2 and hs1 are 1-dimensional: every omega is a cocycle there
    assert bool(cocycle_identity_violations(cells)) == (name in MUTATED)
