"""Polynomial observables: constructor validation and the one-dict kernels.

``substitute_linear``, ``__mul__`` and ``quantize.poisson_bracket`` build
their results in plain dicts; the object-per-factor products they replaced
are kept in ``tests/helpers.py`` and must give the same exact values and the
same float bits (compared through ``repr``, which tells 0.0 from -0.0 and
prints every bit of a float).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack.algebra import LeibnizAlgebra
from leibrack.cli import sample_scale
from leibrack.observables import PolyObservable
from leibrack.quantize import poisson_bracket, quantum_rack_action
from leibrack.racks import exp_ad
from leibrack.sampling import sample_elements, sample_observables

from helpers import (
    make_table,
    n_k,
    reference_poisson_bracket,
    reference_poly_mul,
    reference_substitute_linear,
    sl2_semidirect,
)


def action_forms(x, order):
    """The linear forms ``quantum_rack_action`` substitutes for exp(ad_x)."""
    mat = exp_ad(x, order).matrix
    return [[mat[i][j] for i in range(len(mat))] for j in range(len(mat))]


def same_bits(a, b):
    return a.nvars == b.nvars and repr(a.terms) == repr(b.terms)


# -- validation at the public constructor ---------------------------------------


def test_constructor_rejects_negative_exponent():
    with pytest.raises(ValueError):
        PolyObservable(2, {(-1, 0): 1})


def test_constructor_rejects_non_int_exponent():
    with pytest.raises(ValueError):
        PolyObservable(2, {(1.5, 0): 1})


def test_substitute_linear_rejects_long_form():
    xi1 = PolyObservable.coordinate(2, 0)
    with pytest.raises(ValueError):
        xi1.substitute_linear([[1, 0, 5], [0, 1]])


def test_substitute_linear_rejects_short_form():
    xi1 = PolyObservable.coordinate(2, 0)
    with pytest.raises(ValueError):
        xi1.substitute_linear([[], [0, 1]])


# -- float bits against the object-per-factor products --------------------------


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("order", [12, 16])
def test_float_action_matches_reference(sl2, m, order):
    algebra = sl2 if m == 0 else sl2_semidirect(sl2, m)
    xs = sample_elements(algebra, 4, 7 + m, "float", sample_scale("float"))
    for x, f in zip(xs, sample_observables(algebra, 4, 11 + m)):
        forms = action_forms(x, order)
        acted = f.substitute_linear(forms)
        assert same_bits(acted, reference_substitute_linear(f, forms))
        assert same_bits(quantum_rack_action(x, f, order), acted)
        # a second action starts from float coefficients
        again = acted.substitute_linear(forms)
        assert same_bits(again, reference_substitute_linear(acted, forms))
        assert same_bits(acted * acted, reference_poly_mul(acted, acted))
        assert same_bits(
            poisson_bracket(algebra, acted, f), reference_poisson_bracket(algebra, acted, f)
        )


def test_intermediate_zero_is_dropped_before_next_factor():
    # xi1 xi2 xi3 -> (x + y)(x - y)(inf x + y): the x y term of the first two
    # factors cancels to 0.0 and must not meet the inf of the third.
    f = PolyObservable(3, {(1, 1, 1): 1.0})
    forms = [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [float("inf"), 1.0, 0.0]]
    two = PolyObservable(3, {(1, 1, 0): 1.0}).substitute_linear(forms)
    assert (1, 1, 0) not in two.terms
    acted = f.substitute_linear(forms)
    assert same_bits(acted, reference_substitute_linear(f, forms))
    assert acted.terms[(2, 1, 0)] == 1.0


def test_poisson_dense_float_matches_reference():
    # a dense table sends several (j, k) to one output key, so the float
    # additions into it must keep their order
    rng = random.Random(3)
    n = 4
    table = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    algebra = LeibnizAlgebra(table)

    def poly(degree):
        terms = {}
        for _ in range(12):
            exps = [0] * n
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.uniform(-2, 2)
        return PolyObservable(n, terms)

    for _ in range(5):
        f, g = poly(1), poly(3)
        assert same_bits(poisson_bracket(algebra, f, g), reference_poisson_bracket(algebra, f, g))


# -- exact values ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg", "freenil3", "n4"])
def test_exact_kernels_match_reference(corpus, name):
    algebra = n_k(4) if name == "n4" else corpus[name]
    xs = sample_elements(algebra, 3, 5)
    fs = sample_observables(algebra, 3, 6)
    gs = sample_observables(algebra, 3, 7)
    for x, f, g in zip(xs, fs, gs):
        forms = action_forms(x, 12)
        assert f.substitute_linear(forms) == reference_substitute_linear(f, forms)
        assert f * g == reference_poly_mul(f, g)
        for sign in (1, -1):
            assert poisson_bracket(algebra, f, g, sign) == reference_poisson_bracket(
                algebra, f, g, sign
            )


# -- hypothesis: degree <= 3 in 0..5 variables ------------------------------------

COEFFS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def polynomials(draw, nvars):
    monomials = st.lists(st.integers(0, nvars - 1), max_size=3) if nvars else st.just([])
    terms = {}
    for factors in draw(st.lists(monomials, max_size=5)):
        exps = [0] * nvars
        for i in factors:
            exps[i] += 1
        terms[tuple(exps)] = draw(COEFFS)
    return PolyObservable(nvars, terms)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 5))
    forms = [[draw(COEFFS) for _ in range(n)] for _ in range(n)]
    table = [[[draw(st.sampled_from((0, 0, 1, -1, Fraction(1, 2)))) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    return draw(polynomials(n)), draw(polynomials(n)), forms, LeibnizAlgebra(table)


POISSON_MIXED = {
    # 1e-200 * 1e-200 underflows to 0.0 on the key the exact 1 * 1 lands on
    "underflowed product": (
        {(0, 0): {0: 1}, (1, 1): {0: 1}},
        {(1, 0): 1e-200, (0, 1): Fraction(1)},
        {(1, 0): 1e-200, (0, 1): Fraction(1)},
    ),
    # 1.0 - 1.0 cancels to 0.0 before an exact 1 lands on the same key
    "cancelled sum": (
        {(0, 0): {0: 1}, (1, 0): {0: 1}, (2, 0): {0: 1}},
        {(1, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 1): Fraction(1)},
        {(1, 0, 0): Fraction(1)},
    ),
}


@pytest.mark.parametrize("name", list(POISSON_MIXED))
def test_poisson_bracket_keeps_exact_coefficients_exact(name):
    entries, f_terms, g_terms = POISSON_MIXED[name]
    n = len(next(iter(f_terms)))
    algebra = LeibnizAlgebra(make_table(n, entries))
    f, g = PolyObservable(n, f_terms), PolyObservable(n, g_terms)
    got = poisson_bracket(algebra, f, g)
    assert same_bits(got, reference_poisson_bracket(algebra, f, g))
    assert got.terms and all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=80, deadline=None)
@given(cases())
def test_kernels_match_reference_hypothesis(case):
    f, g, forms, algebra = case
    assert same_bits(f.substitute_linear(forms), reference_substitute_linear(f, forms))
    assert same_bits(f * g, reference_poly_mul(f, g))
    assert same_bits(poisson_bracket(algebra, f, g), reference_poisson_bracket(algebra, f, g))
