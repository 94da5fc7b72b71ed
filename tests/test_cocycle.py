"""Rack cocycle of a left-center extension: exact defect vs. series formula."""

import random
from functools import partial

import pytest

from leibrack.cocycle import SERIES_SIGN, rack_cocycle_exact, rack_cocycle_series
from leibrack.extension import build_extension
from leibrack.racks import bass_product, block_exp_action
from leibrack.sampling import sample_elements

from helpers import (
    random_invertible,
    rebase,
    reference_bracket_coords,
    reference_rack_cocycle_series,
)


def quotient_pairs(ext, count, seed):
    els = sample_elements(ext.quotient, 2 * count, seed)
    return list(zip(els[::2], els[1::2]))


def test_series_sign_is_pinned():
    assert SERIES_SIGN == -1


def test_worked_example_leib2(leib2):
    ext = build_extension(leib2)
    x = ext.quotient.basis_element(0)
    f = rack_cocycle_exact(ext, x, x)
    assert f == leib2.basis_element(1)
    assert rack_cocycle_series(ext, x, x, order=2) == f


def test_worked_example_heisenberg(heisenberg):
    ext = build_extension(heisenberg)
    x, y = ext.quotient.basis_elements()
    e3 = heisenberg.basis_element(2)
    assert rack_cocycle_exact(ext, x, y) == e3
    assert rack_cocycle_exact(ext, y, x) == -e3
    assert rack_cocycle_exact(ext, x, x).is_zero()


def test_exact_cocycle_is_the_section_defect_of_the_rack(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        ext = build_extension(alg)
        for x, y in quotient_pairs(ext, 10, seed=18):
            direct = bass_product(ext.section(x), ext.section(y)) - ext.section(
                bass_product(x, y)
            )
            assert rack_cocycle_exact(ext, x, y) == direct


@pytest.mark.parametrize("name", ["leib2", "heisenberg", "freenil3"])
def test_series_matches_exact_at_all_admissible_orders(corpus, name):
    alg = corpus[name]
    ext = build_extension(alg)
    cls = alg.nilpotency_class()
    for x, y in quotient_pairs(ext, 8, seed=19):
        truth = rack_cocycle_exact(ext, x, y)
        for order in range(cls, 9):
            assert rack_cocycle_series(ext, x, y, order=order) == truth


def test_opposite_sign_is_wrong(leib2):
    ext = build_extension(leib2)
    x = ext.quotient.basis_element(0)
    truth = rack_cocycle_exact(ext, x, x)
    flipped = reference_rack_cocycle_series(ext, x, x, 2, sign=1)
    assert flipped == -rack_cocycle_series(ext, x, x, order=2) == -truth
    assert flipped != truth


def test_cocycle_lands_in_center(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        ext = build_extension(alg)
        for x, y in quotient_pairs(ext, 10, seed=20):
            assert ext.center.contains(rack_cocycle_exact(ext, x, y))


def test_cocycle_linear_in_second_slot(freenil3):
    ext = build_extension(freenil3)
    (x, y1), (_, y2) = quotient_pairs(ext, 2, seed=21)
    lhs = rack_cocycle_exact(ext, x, y1 + y2)
    assert lhs == rack_cocycle_exact(ext, x, y1) + rack_cocycle_exact(ext, x, y2)
    series = rack_cocycle_series(ext, x, y1 + y2, order=3)
    assert series == rack_cocycle_series(ext, x, y1, order=3) + rack_cocycle_series(
        ext, x, y2, order=3
    )


def test_cocycle_vanishes_when_section_is_a_morphism(hs1n):
    ext = build_extension(hs1n)
    g = ext.quotient.basis_element(0)
    assert rack_cocycle_exact(ext, g, g).is_zero()
    assert rack_cocycle_series(ext, g, g, order=2).is_zero()


def reference_series(ext, x, y, order):
    """The series with both brackets summed on the dense Fraction tables."""
    alg, quot = ext.algebra, ext.quotient
    lift = partial(reference_bracket_coords, alg, ext.section(x).coords)
    omega = lambda v: ext.omega(x, quot.element(v, x.mode)).coords  # noqa: E731
    ad_x = partial(reference_bracket_coords, quot, x.coords)
    corner = block_exp_action(lift, omega, ad_x, alg.dim, y.coords, order)
    return SERIES_SIGN * alg.element(corner, x.mode)


@pytest.mark.parametrize("name", ["leib2", "heisenberg", "freenil3", "freenil3-rebased"])
def test_float_series_has_the_bits_of_the_fraction_tables(corpus, name):
    # float quotient elements take the default bracket view, which must read
    # float_sparse; the rebased table has non-dyadic constants (scale > 1)
    alg = corpus[name.removesuffix("-rebased")]
    if name.endswith("-rebased"):
        alg = rebase(alg, random_invertible(random.Random(7), alg.dim), name)
        assert alg.scale > 1
    ext = build_extension(alg)
    for x, y in quotient_pairs(ext, 6, seed=22):
        assert rack_cocycle_series(ext, x, y, order=4) == reference_series(ext, x, y, 4)
        xf, yf = x.to_float(), y.to_float()
        got = rack_cocycle_series(ext, xf, yf, order=4)
        assert got.mode == "float"
        want = reference_series(ext, xf, yf, 4)
        assert list(map(repr, got.coords)) == list(map(repr, want.coords))
