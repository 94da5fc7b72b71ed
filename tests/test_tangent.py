"""Recovering structure constants from the rack product by finite differences."""

import math

import pytest

from leibrack.corpus import CORPUS_NAMES
from leibrack.racks import bass_product
from leibrack.tangent import max_table_error, tangent_recover


def float_product(algebra):
    def product(a, b):
        x = algebra.element(a, mode="float")
        y = algebra.element(b, mode="float")
        return bass_product(x, y).coords

    return product


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_recovery_within_tolerance(corpus, name):
    alg = corpus[name]
    table = tangent_recover(float_product(alg), alg.dim, step=1e-3)
    assert max_table_error(table, alg) <= 1e-5


def test_error_scales_quadratically(sl2):
    product = float_product(sl2)
    coarse = max_table_error(tangent_recover(product, 3, step=2e-3), sl2)
    fine = max_table_error(tangent_recover(product, 3, step=1e-3), sl2)
    assert fine > 0
    assert 3.5 <= coarse / fine <= 4.5


def test_exact_on_two_step_nilpotent(heisenberg):
    # all higher-order terms vanish, so the stencil error is pure roundoff
    table = tangent_recover(float_product(heisenberg), 3, step=1e-3)
    assert max_table_error(table, heisenberg) <= 1e-9


def test_nan_product_is_reported():
    def product(a, b):
        return [math.nan, 0.0]

    with pytest.raises(ValueError, match=r"basis pair \(1, 1\)"):
        tangent_recover(product, 2)
