"""Digroup structure on (vector, invertible matrix) pairs, as kept in ``tests/helpers.py``."""

import random
from fractions import Fraction

import pytest

from leibrack.racks import PairElement, hs_rack_product

from helpers import (
    dig_inverse,
    dig_left,
    dig_right,
    dig_unit,
    digroup_axiom_violations,
    digroup_rack_product,
    sample_invertible_matrix,
    sample_vectors,
)


def sample_pairs(count, dim, seed):
    rng = random.Random(seed)
    vectors = sample_vectors(rng, dim, count)
    return [PairElement(v, sample_invertible_matrix(rng, dim)) for v in vectors]


def test_products_worked_example():
    g = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    h = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    a = PairElement([Fraction(1), Fraction(2)], g)
    b = PairElement([Fraction(3), Fraction(4)], h)

    left = dig_left(a, b)
    assert list(left.vector) == [Fraction(6), Fraction(4)]
    assert [list(r) for r in left.matrix] == [[Fraction(2), Fraction(2)], [Fraction(0), Fraction(1)]]

    right = dig_right(a, b)
    assert list(right.vector) == [Fraction(1), Fraction(2)]
    assert [list(r) for r in right.matrix] == [list(r) for r in left.matrix]


def test_unit_and_inverse_laws():
    unit = dig_unit(2)
    for a in sample_pairs(10, 2, seed=11):
        assert dig_left(unit, a).distance(a) == 0
        assert dig_right(a, unit).distance(a) == 0
        inv = dig_inverse(a)
        assert dig_left(a, inv).distance(unit) == 0
        assert dig_right(inv, a).distance(unit) == 0


def test_inverse_forgets_the_vector_part():
    a = PairElement(
        [Fraction(5), Fraction(7)],
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
    )
    inv = dig_inverse(a)
    assert list(inv.vector) == [Fraction(0), Fraction(0)]
    assert [list(r) for r in inv.matrix] == [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]


def test_axioms_pass_on_samples():
    elements = sample_pairs(150, 3, seed=12)
    triples = [tuple(elements[i : i + 3]) for i in range(0, 150, 3)]
    report = digroup_axiom_violations(triples)
    assert report.passed
    assert report.max_residual == 0
    assert report.checked == 50


def test_rack_product_matches_conjugation():
    elements = sample_pairs(40, 3, seed=13)
    for a, b in zip(elements[::2], elements[1::2]):
        got = digroup_rack_product(a, b)
        want = hs_rack_product(a, b)
        assert got.distance(want) == 0


def test_rack_product_worked_example():
    a = PairElement(
        [Fraction(0), Fraction(0)],
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
    )
    b = PairElement(
        [Fraction(0), Fraction(1)],
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
    )
    out = digroup_rack_product(a, b)
    assert list(out.vector) == [Fraction(1), Fraction(1)]
    assert [list(r) for r in out.matrix] == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_inverse_requires_invertible_matrix():
    singular = PairElement(
        [Fraction(0), Fraction(0)],
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
    )
    with pytest.raises(ValueError):
        dig_inverse(singular)
