"""Exponential racks: pointed, matrix-augmented, and group-conjugation models."""

import math
import random
from fractions import Fraction

import pytest

from leibrack import linalg
from leibrack.algebra import Endomorphism, LeibnizAlgebra, bracket_defects
from leibrack.racks import (
    PairElement,
    bass_product,
    check_rack_axioms,
    coadjoint,
    coadjoint_action_violations,
    conjugation_lemma_violations,
    exp_ad,
    exp_endo,
    hs_rack_product,
    pair_rack_closure_violations,
    rack_morphism_check,
    rh_embed,
)
from leibrack.observables import Covector
from leibrack.sampling import rational_vector, sample_elements, sample_triples

from helpers import (
    make_table,
    reference_morphism_residual,
    reference_rh_product,
    sample_invertible_matrix,
    sl2_semidirect,
)


def test_exp_endo_exact_nilpotent(heisenberg):
    e1 = heisenberg.basis_element(0)
    exp = exp_endo(heisenberg.ad(e1))
    # ad(e1) squares to zero, so the series stops after the linear term
    expected = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert exp.matrix == tuple(tuple(row) for row in expected)
    assert reference_morphism_residual(heisenberg, exp.matrix) == 0
    assert linalg.det(exp.matrix) != 0


def test_exp_endo_exact_rejects_non_nilpotent(sl2):
    h = sl2.basis_element(0)
    with pytest.raises(ValueError, match="nilpotent"):
        exp_endo(sl2.ad(h))


def test_exp_endo_float_rejects_an_overflowed_result():
    plane = LeibnizAlgebra(make_table(2, {}))
    huge = Endomorphism(plane, [[0.0, 1e6], [1e6, 0.0]], mode="float")
    with pytest.raises(ValueError, match="overflowed"):
        exp_endo(huge)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", [0, 2])
def test_exp_endo_float_rejects_a_non_finite_entry(sl2, bad, column):
    matrix = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    matrix[0][column] = bad
    with pytest.raises(ValueError, match="overflowed: exp of a matrix with 1-norm"):
        exp_endo(Endomorphism(sl2, matrix, "float"))


def test_exp_endo_float_rejects_a_norm_beyond_the_float_range(sl2):
    # finite entries whose column sum overflows to inf
    matrix = [[1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="1-norm inf"):
        exp_endo(Endomorphism(sl2, matrix, "float"))


def test_exp_endo_float_matches_closed_form():
    plane = LeibnizAlgebra(make_table(2, {}))
    # norm 3 forces the scaling-and-squaring path
    rotation = Endomorphism(plane, [[0.0, -3.0], [3.0, 0.0]], mode="float")
    exp = exp_endo(rotation)
    got = exp.matrix
    want = [[math.cos(3), -math.sin(3)], [math.sin(3), math.cos(3)]]
    for i in range(2):
        for j in range(2):
            assert abs(got[i][j] - want[i][j]) < 1e-10


def test_bass_product_worked_examples(heisenberg, leib2, freenil3):
    e1, e2, e3 = heisenberg.basis_elements()
    assert bass_product(e1, e2) == e2 + e3

    a1, a2 = leib2.basis_elements()
    assert bass_product(a1, a1) == a1 + a2
    assert bass_product(a2, a1) == a1

    x1, x2, x12, x112, _ = freenil3.basis_elements()
    assert bass_product(x1, x2) == x2 + x12 + Fraction(1, 2) * x112


def test_bass_rack_unit_laws(heisenberg):
    unit = heisenberg.zero()
    assert unit.is_zero()
    for x in heisenberg.basis_elements():
        assert bass_product(unit, x) == x
        assert bass_product(x, unit) == unit


def test_bass_rack_exact_requires_nilpotent(sl2):
    h, e, _ = sl2.basis_elements()
    with pytest.raises(ValueError, match="nilpotent"):
        bass_product(h, e)


@pytest.mark.parametrize("name", ["leib2", "heisenberg", "freenil3"])
def test_bass_rack_axioms_exact(corpus, name):
    alg = corpus[name]
    report = check_rack_axioms(bass_product, alg.zero(), sample_triples(alg, 20, seed=5))
    assert report.passed
    assert report.max_residual == 0


def test_bass_rack_axioms_exact_on_hs1n(hs1n):
    report = check_rack_axioms(bass_product, hs1n.zero(), sample_triples(hs1n, 20, seed=5))
    assert report.passed
    assert report.max_residual == 0


def test_bass_rack_axioms_float_sl2(sl2):
    triples = sample_triples(sl2, 20, seed=5, mode="float", scale=Fraction(1, 3))
    report = check_rack_axioms(bass_product, sl2.zero("float"), triples, tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_broken_rack_is_detected(heisenberg):
    def projection(x, y):
        return x

    report = check_rack_axioms(
        projection, heisenberg.zero(), sample_triples(heisenberg, 10, seed=1)
    )
    assert not report.passed
    assert any(v["axiom"] == "left-injectivity" for v in report.violations)


def test_conjugation_lemma_exact(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        triples = sample_triples(alg, 15, seed=2)
        pairs = [(a, b) for a, b, _ in triples]
        report = conjugation_lemma_violations(pairs)
        assert report.passed
        assert report.max_residual == 0


def test_coadjoint_worked_example(leib2):
    e1 = leib2.basis_element(0)
    eps2 = Covector(leib2, (Fraction(0), Fraction(1)))
    moved = coadjoint(e1, eps2)
    assert moved.coords == (Fraction(-1), Fraction(1))


def test_coadjoint_left_action_law(heisenberg):
    triples = sample_triples(heisenberg, 12, seed=3)
    pairs = [(a, b) for a, b, _ in triples]
    rng = random.Random(4)
    xis = [
        Covector(heisenberg, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        for _ in pairs
    ]
    report = coadjoint_action_violations(pairs, xis)
    assert report.passed
    assert report.max_residual == 0


def test_pair_rack_embedding(heisenberg):
    e1 = heisenberg.basis_element(0)
    embedded = rh_embed(e1)
    assert embedded.vector == e1.coords
    assert embedded.matrix == exp_endo(heisenberg.ad(e1)).matrix


def test_pair_rack_product_covers_bass(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        triples = sample_triples(alg, 15, seed=6)
        pairs = [(a, b) for a, b, _ in triples]
        report = pair_rack_closure_violations(pairs)
        assert report.passed
        assert report.max_residual == 0


def test_pair_rack_closure_float_sl2(sl2):
    triples = sample_triples(sl2, 10, seed=6, mode="float", scale=Fraction(1, 3))
    pairs = [(a, b) for a, b, _ in triples]
    report = pair_rack_closure_violations(pairs, tol=1e-9)
    assert report.passed


def test_rh_rack_axioms(heisenberg):
    elements = [rh_embed(x) for x in sample_elements(heisenberg, 30, seed=7)]
    triples = [tuple(elements[i : i + 3]) for i in range(0, 30, 3)]
    unit = PairElement(heisenberg.zero().coords, linalg.identity_matrix(heisenberg.dim))
    report = check_rack_axioms(hs_rack_product, unit, triples)
    assert report.passed
    assert report.max_residual == 0


def test_rh_product_law(heisenberg):
    x, y = sample_elements(heisenberg, 2, seed=8)
    a, b = exp_ad(x), exp_ad(y)
    out = hs_rack_product(rh_embed(x), rh_embed(y))
    assert out.vector == a(y).coords
    assert out.matrix == (a @ b @ a.inverse()).matrix


def _embedded_products(alg, mode):
    """(hs_rack_product of two embedded points, reference vector, reference matrix)."""
    for x, y, _ in sample_triples(alg, 10, seed=10, mode=mode, scale=Fraction(1, 3)):
        got = hs_rack_product(rh_embed(x), rh_embed(y))
        point, aut = reference_rh_product((x, exp_ad(x)), (y, exp_ad(y)))
        yield got, point.coords, aut.matrix


def test_pair_product_on_embedded_points_keeps_float_bits(sl2):
    for got, vector, matrix in _embedded_products(sl2_semidirect(sl2, 2), "float"):
        assert repr(got.vector) == repr(vector)
        assert repr(got.matrix) == repr(matrix)


def test_pair_product_on_embedded_points_exact(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        for got, vector, matrix in _embedded_products(alg, "exact"):
            assert got.vector == vector
            assert got.matrix == matrix


def test_hs_rack_worked_example():
    a = PairElement(
        [Fraction(1), Fraction(0)],
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
    )
    b = PairElement(
        [Fraction(0), Fraction(1)],
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
    )
    out = hs_rack_product(a, b)
    assert list(out.vector) == [Fraction(1), Fraction(1)]
    assert [list(row) for row in out.matrix] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_hs_rack_axioms():
    rng = random.Random(9)
    elements = [
        PairElement(rational_vector(rng, 3), sample_invertible_matrix(rng, 3))
        for _ in range(30)
    ]
    triples = [tuple(elements[i : i + 3]) for i in range(0, 30, 3)]
    unit = PairElement([Fraction(0)] * 3, linalg.identity_matrix(3))
    report = check_rack_axioms(hs_rack_product, unit, triples)
    assert report.passed
    assert report.max_residual == 0


def test_rack_morphism_check_accepts_grading(heisenberg):
    # e1 -> e1, e2 -> 2 e2, e3 -> 2 e3 preserves [e1, e2] = e3
    matrix = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(2)],
    ]
    triples = sample_triples(heisenberg, 10, seed=10)
    pairs = [(a, b) for a, b, _ in triples]
    report = rack_morphism_check(heisenberg, heisenberg, matrix, pairs)
    assert report.passed
    assert bracket_defects(heisenberg, heisenberg, matrix) == []


def test_rack_morphism_check_rejects_bad_scaling(heisenberg):
    matrix = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(5)],
    ]
    triples = sample_triples(heisenberg, 10, seed=10)
    pairs = [(a, b) for a, b, _ in triples]
    report = rack_morphism_check(heisenberg, heisenberg, matrix, pairs)
    assert not report.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rack_axioms_compute_each_product_once(freenil3, mode):
    # x > y and x > z serve both triple laws: 5 products per triple, 2 per
    # unit witness, also where y = z leaves left injectivity out
    triples = sample_triples(freenil3, 6, 1, mode)
    x, y, _ = triples[0]
    triples.append((x, y, y))
    calls = []

    def product(a, b):
        calls.append((a, b))
        return bass_product(a, b)

    tol = 0 if mode == "exact" else 1e-9
    report = check_rack_axioms(product, freenil3.zero(mode), triples, tol)
    assert report.passed and report.checked == len(triples)
    assert len(calls) == 5 * len(triples) + 2 * len(triples)
    # the products the laws compare, in the order they are made
    z = triples[0][2]
    xy, xz = bass_product(x, y), bass_product(x, z)
    assert calls[:5] == [(x, y), (x, z), (y, z), (x, bass_product(y, z)), (xy, xz)]
