"""Rack cocycle of a left-center extension: exact defect vs. series formula."""

import os
import random
from fractions import Fraction
from math import factorial

import pytest

from leibrack.cocycle import SERIES_SIGN, rack_cocycle_exact, rack_cocycle_series
from leibrack.extension import build_extension, cocycle_identity_violations
from leibrack.io import load_algebra
from leibrack.racks import bass_product
from leibrack.sampling import sample_elements

from helpers import (
    cocycle_extension,
    load_all_corpus,
    n_k,
    perturb_omega,
    random_invertible,
    rebase,
    reference_omega,
    reference_rack_cocycle_exact,
    reference_rack_cocycle_series,
)

N4_REBASED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "n4-rebased.json")


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


@pytest.mark.parametrize("name", ["leib2", "heisenberg", "freenil3", "freenil3-rebased"])
def test_float_input_is_rejected(corpus, name):
    # the cocycle kernels are exact-only, as the cocycle command is; the
    # rebased table has non-dyadic constants (scale > 1)
    alg = corpus[name.removesuffix("-rebased")]
    if name.endswith("-rebased"):
        alg = rebase(alg, random_invertible(random.Random(7), alg.dim), name)
        assert alg.scale > 1
    ext = build_extension(alg)
    for x, y in quotient_pairs(ext, 2, seed=22):
        xf, yf = x.to_float(), y.to_float()
        for args in ((xf, yf), (xf, xf.algebra.zero("float"))):
            with pytest.raises(ValueError, match="exact"):
                rack_cocycle_exact(ext, *args)
            with pytest.raises(ValueError, match="exact"):
                rack_cocycle_series(ext, *args, 4)
        for args in ((x, yf), (xf, y)):
            with pytest.raises(ValueError, match="mixed scalar modes"):
                rack_cocycle_exact(ext, *args)
            with pytest.raises(ValueError, match="mixed scalar modes"):
                rack_cocycle_series(ext, *args, 4)


@pytest.mark.parametrize("slot", [0, 1])
def test_elements_of_another_algebra_are_rejected(freenil3, heisenberg, slot):
    # h itself, an algebra of the quotient's dimension, and an equal quotient
    # built again: only the quotient object of this extension is accepted
    ext = build_extension(freenil3)
    qx = ext.quotient.basis_element(0)
    others = [
        freenil3.basis_element(0),
        heisenberg.element([1, 1, 0]),
        build_extension(freenil3).quotient.basis_element(1),
    ]
    assert ext.quotient.dim == heisenberg.dim and others[2].algebra == ext.quotient
    for other in others:
        args = (other, qx) if slot == 0 else (qx, other)
        with pytest.raises(ValueError, match="different algebra"):
            rack_cocycle_exact(ext, *args)
        with pytest.raises(ValueError, match="different algebra"):
            rack_cocycle_series(ext, *args, 2)
        with pytest.raises(ValueError, match="different algebra"):
            ext.section(other)


def test_the_series_and_the_cocycle_identity_read_one_omega(freenil3):
    ext = build_extension(freenil3)
    x, y, _ = ext.quotient.basis_elements()
    series = rack_cocycle_series(ext, x, y, order=3)
    assert series == rack_cocycle_exact(ext, x, y)
    assert cocycle_identity_violations(ext) == []
    perturb_omega(ext, 0, 1, [Fraction(k + 1, 2) for k in range(freenil3.dim)])
    assert rack_cocycle_series(ext, x, y, order=3) != series
    assert cocycle_identity_violations(ext)


# -- the int kernels against the Element references ------------------------------------
# The corpus tables cannot tell a series that drops its ad_{s(x)} block: where
# omega != 0 their left center is central.  ``cocycle_extension`` can.


def _pinned_tables():
    tables = load_all_corpus()
    tables.update({f"n{k}": n_k(k) for k in (4, 5, 6)})
    tables["n4-rebased"] = load_algebra(N4_REBASED)
    tables["zl2-n3"] = cocycle_extension()
    return tables


PINNED = _pinned_tables()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_int_kernels_match_the_references(name):
    # abelian3 is its own left center: its quotient is 0-dimensional
    alg = PINNED[name]
    ext = build_extension(alg)
    quot = ext.quotient
    cls = alg.nilpotency_class()
    pairs = quotient_pairs(ext, 3, seed=23)
    pairs += [(pairs[0][0], quot.zero()), (quot.zero(), pairs[0][1])]
    for x, y in pairs:
        if cls is not None:
            assert rack_cocycle_exact(ext, x, y) == reference_rack_cocycle_exact(ext, x, y)
        for order in range(1, (cls or 3) + 2):
            want = reference_rack_cocycle_series(ext, x, y, order)
            assert rack_cocycle_series(ext, x, y, order) == want


def _series_without_action(ext, x, y, order):
    """The series with its ad_{s(x)} block dropped: the p = 0 terms only."""
    total, inner = ext.algebra.zero(), y
    for q in range(order):
        total = total + Fraction(SERIES_SIGN, factorial(q + 1)) * reference_omega(ext, x, inner)
        inner = ext.quotient.bracket(x, inner)
    return total


def test_the_action_term_shows_where_the_left_center_is_not_central():
    alg = PINNED["zl2-n3"]
    ext = build_extension(alg)
    assert alg.is_leibniz() and not alg.is_lie() and alg.nilpotency_class() == 4
    assert ext.center.pivots == [0, 1, 2] and ext.complement == [3, 4, 5]
    assert any(c for row in ext.omega_table for cell in row for c in cell)
    # [s(E1_2), v2] = E1_2 v2 = v1: the left center is not central
    assert alg.bracket(alg.basis_element(3), alg.basis_element(1)) == alg.basis_element(0)
    shown = 0
    for x, y in quotient_pairs(ext, 10, seed=24):
        truth = rack_cocycle_exact(ext, x, y)
        assert rack_cocycle_series(ext, x, y, 4) == truth
        assert ext.center.contains(truth)
        shown += _series_without_action(ext, x, y, 4) != truth
    assert shown == 10
