"""The int exp(ad_x) kernel against the Fraction paths it replaced.

Exact ``bass_product``, ``coadjoint``, ``exp_endo`` and
``quantum_rack_action`` sum their series on int numerators over one running
denominator (``racks.exact_exp_action``), and the exact conjugation lemma
compares columns on ints.  Every result must equal the Fraction reference in
``tests/helpers.py`` by ``==`` and by the type of each entry, on the four
nilpotent corpus algebras, two rebased tables with scale != 1 and the
non-Leibniz freenil3-perturbed.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack.algebra import Endomorphism, LeibnizAlgebra
from leibrack.corpus import load_corpus
from leibrack.io import load_algebra
from leibrack.observables import Covector, PolyObservable
from leibrack.quantize import quantum_rack_action
from leibrack.racks import (
    bass_product,
    coadjoint,
    conjugation_lemma_violations,
    exact_conjugation_residual,
    exp_endo,
)

from helpers import (
    make_table,
    n_k,
    random_invertible,
    rebase,
    reference_bass_product,
    reference_coadjoint,
    reference_conjugation_residual,
    reference_exp_endo,
    reference_quantum_rack_action,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _algebras():
    names = ("abelian3", "leib2", "heisenberg", "freenil3")
    algebras = {name: load_corpus(name) for name in names}
    for name in ("n4-rebased", "freenil3-perturbed"):
        algebras[name] = load_algebra(os.path.join(DATA, f"{name}.json"))
    algebras["n5-rebased"] = rebase(n_k(5), random_invertible(random.Random(5), 10), "n5d")
    return algebras


ALGEBRAS = _algebras()
SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vectors(n):
    return st.lists(SCALARS, min_size=n, max_size=n)


def typed(values):
    return [(v, type(v)) for v in values]


def test_the_inputs_cover_scales_and_a_failing_table():
    assert ALGEBRAS["n4-rebased"].scale == 7056 and ALGEBRAS["n5-rebased"].scale > 1
    assert not ALGEBRAS["freenil3-perturbed"].is_leibniz()
    assert all(alg.is_nilpotent() for alg in ALGEBRAS.values())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), data=st.data())
def test_bass_product_and_coadjoint_match_the_fraction_series(name, data):
    alg = ALGEBRAS[name]
    x, y, xi = (data.draw(vectors(alg.dim)) for _ in range(3))
    x, y, xi = alg.element(x), alg.element(y), Covector(alg, xi)
    got, want = bass_product(x, y), reference_bass_product(x, y)
    assert got == want and typed(got.coords) == typed(want.coords)
    got, want = coadjoint(x, xi), reference_coadjoint(x, xi)
    assert got == want and typed(got.coords) == typed(want.coords)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), data=st.data())
def test_exact_exp_endo_matches_the_fraction_columns(name, data):
    alg = ALGEBRAS[name]
    ad = alg.ad(alg.element(data.draw(vectors(alg.dim))))
    got, want = exp_endo(ad), reference_exp_endo(ad)
    assert got == want
    assert [typed(row) for row in got.matrix] == [typed(row) for row in want.matrix]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_exact_exp_endo_of_any_nilpotent_matrix(n, data):
    # strictly upper-triangular rational matrices, not only inner derivations
    alg = LeibnizAlgebra(make_table(n, {}))
    entries = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    matrix = [[entries[i * n + j] if j > i else 0 for j in range(n)] for i in range(n)]
    endo = Endomorphism(alg, matrix)
    got, want = exp_endo(endo), reference_exp_endo(endo)
    assert got == want
    assert [typed(row) for row in got.matrix] == [typed(row) for row in want.matrix]


def monomial(n, variables):
    """The exponent tuple of the product of the listed variables."""
    return tuple(variables.count(i) for i in range(n))


def observables(n):
    # degree <= 3, as sample_observables draws them
    key = st.lists(st.integers(0, n - 1), max_size=3).map(lambda v: monomial(n, v))
    coeff = st.one_of(st.integers(-3, 3), SCALARS).filter(bool)
    return st.dictionaries(key, coeff, max_size=4).map(lambda terms: PolyObservable(n, terms))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), data=st.data())
def test_quantum_rack_action_matches_the_fraction_pullback(name, data):
    alg = ALGEBRAS[name]
    x = alg.element(data.draw(vectors(alg.dim)))
    f = data.draw(observables(alg.dim))
    got, want = quantum_rack_action(x, f), reference_quantum_rack_action(x, f)
    assert got == want and typed(got.terms.values()) == typed(want.terms.values())


def test_float_observables_keep_the_fraction_pullback_bits(heisenberg):
    x = heisenberg.element([Fraction(1, 3), -2, Fraction(5, 7)])
    f = PolyObservable(3, {(1, 1, 0): 0.1, (0, 2, 1): -2.5, (0, 0, 0): 1.0})
    got, want = quantum_rack_action(x, f), reference_quantum_rack_action(x, f)
    assert [(k, repr(v)) for k, v in got.terms.items()] == [
        (k, repr(v)) for k, v in want.terms.items()
    ]


def test_exact_sl2_raises_the_nilpotency_error(sl2):
    h, e, _ = sl2.basis_elements()
    xi = Covector(sl2, [0, 1, 0])
    f = PolyObservable.coordinate(3, 1)
    message = (
        "exact exponential needs a nilpotent matrix: no power up to 3 vanishes; use float mode"
    )
    for run in (
        lambda: bass_product(h, e),
        lambda: coadjoint(h, xi),
        lambda: exp_endo(sl2.ad(h)),
        lambda: quantum_rack_action(h, f),
        lambda: exact_conjugation_residual(e, h),
    ):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        reference_bass_product(h, e)
    assert str(err.value) == message


@pytest.mark.parametrize("name, fails", [("freenil3-perturbed", True), ("n4-rebased", False)])
def test_columnwise_conjugation_lemma_has_the_matrix_residuals(name, fails):
    alg = ALGEBRAS[name]
    rng = random.Random(name)

    def element():
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim)]
        return alg.element(coords)

    pairs = [(element(), element()) for _ in range(8)]
    want = [reference_conjugation_residual(z, x) for z, x in pairs]
    assert [exact_conjugation_residual(z, x) for z, x in pairs] == want
    report = conjugation_lemma_violations(pairs)
    assert report.violations == [
        {"axiom": "conjugation", "sample": i, "residual": r} for i, r in enumerate(want) if r
    ]
    assert report.max_residual == max(want)
    assert bool(report.violations) == fails
