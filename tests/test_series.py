"""Every exact series is ``racks.exp_terms``: the block forms against their loops.

The rack-cocycle series and the generating-function gradient are the corner
of a block exponential exp([[A, M], [0, B]]) applied to (0, v).  The loops
they replaced, each with its own factorial weights and stopping rule, are
kept in ``tests/helpers.py`` as ``reference_*``; exact results must be equal,
float gradients within a rounding bound derived below.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from leibrack.cocycle import rack_cocycle_series
from leibrack.corpus import load_corpus
from leibrack.extension import build_extension
from leibrack.observables import Covector
from leibrack.quantize import generating_gradients, generating_series_terms
from leibrack.racks import exp_action, exp_terms
from leibrack.sampling import rational_vector, sample_elements

from helpers import (
    n_k,
    random_invertible,
    rebase,
    reference_generating_gradients,
    reference_generating_series_terms,
    reference_rack_cocycle_series,
    sl2_semidirect,
)


def _algebras():
    algebras = {name: load_corpus(name) for name in ("leib2", "heisenberg", "freenil3", "sl2")}
    algebras["n4"] = n_k(4)
    algebras["n5"] = n_k(5)
    n4 = algebras["n4"]
    algebras["n4-rebased"] = rebase(n4, random_invertible(random.Random(4), n4.dim), "n4d")
    algebras["sl2xV1"] = sl2_semidirect(algebras["sl2"], 1)
    return algebras


ALGEBRAS = _algebras()


def _covector(alg, rng, mode="exact"):
    coords = rational_vector(rng, alg.dim)
    return Covector(alg, [float(c) for c in coords] if mode == "float" else coords, mode)


# -- exp_terms: the one series loop ---------------------------------------------------


def test_exp_terms_limit_counts_terms(sl2):
    h, e, _ = sl2.basis_elements()
    # ad_h scales e by 2 forever: the limit alone stops the series
    apply = sl2.left_bracket(h.coords, "exact")
    for limit in range(6):
        terms = list(exp_terms(apply, e.coords, limit))
        assert len(terms) == limit + 1
        assert terms[-1] == [0, Fraction(2**limit, factorial(limit)), 0]


def test_exp_terms_stop_before_a_vanishing_term(heisenberg):
    x, y, _ = heisenberg.basis_elements()
    apply = heisenberg.left_bracket(x.coords, "exact")
    # [e1, e2] = e3 and [e1, e3] = 0: two terms, whatever the limit beyond 1
    assert [len(list(exp_terms(apply, y.coords, limit))) for limit in (0, 1, 2, 5, None)] == [
        1, 2, 2, 2, 2
    ]
    zero = heisenberg.zero().coords
    assert [list(exp_terms(apply, zero, limit)) for limit in (0, 3, None)] == [[list(zero)]] * 3
    assert exp_action(apply, y.coords, 0) == list(y.coords)


def test_exp_terms_without_limit_reject_non_nilpotent(sl2):
    h, e, _ = sl2.basis_elements()
    terms = exp_terms(sl2.left_bracket(h.coords, "exact"), e.coords)
    with pytest.raises(ValueError, match="nilpotent.*float"):
        list(terms)


def test_exp_terms_keep_int_input_exact(heisenberg):
    x = heisenberg.basis_element(0)
    terms = list(exp_terms(heisenberg.left_bracket(x.coords, "exact"), [0, 3, 0]))
    assert terms == [[0, 3, 0], [0, 0, 3]]
    total = exp_action(lambda v: [2 * t for t in v], [1, 0, 0], 3)
    assert total == [Fraction(19, 3), 0, 0] and type(total[0]) is Fraction


# -- rack cocycle series -------------------------------------------------------------


@pytest.mark.parametrize("name", ["leib2", "heisenberg", "freenil3", "n5", "n4-rebased"])
def test_cocycle_series_matches_reference_at_every_order(name):
    ext = build_extension(ALGEBRAS[name])
    els = sample_elements(ext.quotient, 6, seed=91)
    pairs = list(zip(els[::2], els[1::2])) + [(els[0], ext.quotient.zero())]
    pairs.append((ext.quotient.zero(), els[1]))
    for x, y in pairs:
        for order in range(1, 9):
            want = reference_rack_cocycle_series(ext, x, y, order)
            assert rack_cocycle_series(ext, x, y, order) == want
        assert -rack_cocycle_series(ext, x, y, 3) == reference_rack_cocycle_series(
            ext, x, y, 3, sign=1
        )


def test_cocycle_series_rejects_order_zero(leib2):
    ext = build_extension(leib2)
    x = ext.quotient.basis_element(0)
    with pytest.raises(ValueError, match="at least 1"):
        rack_cocycle_series(ext, x, x, 0)


# -- generating function: graded terms and gradients, exact ---------------------------


def _exact_points(alg, seed):
    rng = random.Random(seed)
    x, y = sample_elements(alg, 2, seed)
    xi = _covector(alg, rng)
    return [(x, y, xi), (alg.zero(), y, xi), (x, alg.zero(), xi)]


@pytest.mark.parametrize("name", ["heisenberg", "freenil3", "n4"])
def test_generating_series_terms_match_reference(name):
    alg = ALGEBRAS[name]
    for x, y, xi in _exact_points(alg, seed=92):
        got = generating_series_terms(x, y, xi)
        assert got == reference_generating_series_terms(x, y, xi)
        assert all(type(t) is Fraction for t in got)


@pytest.mark.parametrize("name", ["heisenberg", "freenil3", "n4"])
def test_generating_gradients_match_reference(name):
    alg = ALGEBRAS[name]
    for x, y, xi in _exact_points(alg, seed=93):
        assert generating_gradients(x, y, xi) == reference_generating_gradients(x, y, xi)


@pytest.mark.parametrize("name", ["sl2", "sl2xV1"])
def test_float_series_terms_keep_their_length(name):
    alg = ALGEBRAS[name]
    x, y = sample_elements(alg, 2, seed=94, mode="float", scale=Fraction(1, 3))
    xi = _covector(alg, random.Random(95), "float")
    for yy in (y, alg.zero("float")):
        for order in (0, 3, 12):
            got = generating_series_terms(x, yy, xi, order)
            want = reference_generating_series_terms(x, yy, xi, order)
            assert len(got) == len(want) == order + 1
            assert repr(got[0]) == repr(want[0])


# -- float gradients: a rounding bound, not a tuned tolerance -------------------------

UNIT_ROUNDOFF = 2.0**-53


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u): the relative error of m roundings."""
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


def gradient_majorant(alg, x, y, xi, i, terms):
    """sum_{k<=terms} 1/k! sum_{p+q=k-1} |xi| |A|^p |E_i| |A|^q |y|, exactly.

    |A| and |E_i| are ad_x and ad_{e_i} built from the absolute structure
    constants and |x|: every rounded product in either computation of the
    x-gradient is bounded entrywise by these matrices.
    """
    n = alg.dim
    table = [[[abs(c) for c in row] for row in plane] for plane in alg.table]
    ax = [abs(Fraction(c)) for c in x.coords]

    def apply(weights, v):
        return [
            sum((weights[a] * table[a][j][k] * v[j] for a in range(n) for j in range(n)),
                Fraction(0))
            for k in range(n)
        ]

    unit = [Fraction(int(a == i)) for a in range(n)]
    left = [abs(Fraction(c)) for c in xi.coords]
    right = [abs(Fraction(c)) for c in y.coords]  # |A|^k |y|
    corner = [Fraction(0)] * n  # sum_{p+q=k-1} |A|^p |E_i| |A|^q |y|
    total = Fraction(0)
    for k in range(1, terms + 1):
        corner = [a + b for a, b in zip(apply(ax, corner), apply(unit, right))]
        right = apply(ax, right)
        total += sum((a * b for a, b in zip(left, corner)), Fraction(0)) / factorial(k)
    return total


@pytest.mark.parametrize("name", ["sl2", "sl2xV1"])
def test_float_gradients_within_rounding_bound(name):
    """Each x-gradient entry agrees with the dense-power loop within 2 gamma_m S.

    S is the absolute series (``gradient_majorant``) truncated at the same N
    terms, so truncation cancels.  m counts the roundings on the longest
    path: N applications of a bracket (n^2 products of two roundings each,
    summed), a 1/k scaling and a block sum per term, the sum over N terms
    and a final pairing for the block form; N dense matrix powers and four
    vector-matrix products of n terms, 1/k! weights and N^2 accumulated
    terms for the loop.  m = (N + 2)(n^2 + 2n + 6) + N^2 covers both.
    """
    alg = ALGEBRAS[name]
    n = alg.dim
    order = 12
    m = (order + 2) * (n * n + 2 * n + 6) + order * order
    rng = random.Random(96)
    x, y = sample_elements(alg, 2, seed=96, mode="float", scale=Fraction(1, 3))
    xi = _covector(alg, rng, "float")
    got = generating_gradients(x, y, xi, order)
    want = reference_generating_gradients(x, y, xi, order)
    assert repr(got["y"].coords) == repr(want["y"].coords)
    assert repr(got["xi"].coords) == repr(want["xi"].coords)
    for i in range(n):
        bound = 2 * gamma(m) * float(gradient_majorant(alg, x, y, xi, i, order))
        assert abs(got["x"].coords[i] - want["x"].coords[i]) <= bound
