"""The samplers against the draws they made before the shared rationals.

``sampling.rational_scalar`` returns one of the shared Fractions of
``RATIONALS`` from the same ``randint`` and ``choice`` calls that
``Fraction(randint(-3, 3), choice((1, 2)))`` made, and ``sample_elements``
multiplies only when ``scale`` is not 1.  Every sampler must still give the
values and the coordinate types of the old construction in
``tests/helpers.py``, and leave the generator in the same state.
"""

import random
from fractions import Fraction

import pytest

from leibrack.algebra import LeibnizAlgebra
from leibrack.cli import BCH_FLOAT_SCALE, FLOAT_SCALE
from leibrack.sampling import (
    RATIONALS,
    rational_vector,
    sample_elements,
    sample_observables,
    sample_pairs,
    sample_triples,
)

from helpers import (
    make_table,
    reference_rational_vector,
    reference_sample_elements,
    reference_sample_observables,
)

SEEDS = range(21)
DIMS = range(7)
ALGEBRAS = {n: LeibnizAlgebra(make_table(n, {})) for n in DIMS}
SCALES = [("exact", Fraction(1)), ("float", FLOAT_SCALE), ("float", BCH_FLOAT_SCALE),
          ("exact", FLOAT_SCALE)]


def typed(values):
    return [(v, type(v)) for v in values]


def outcome(sample, *args):
    """The sampled values with their types, or the error the sampler raised."""
    try:
        found = sample(*args)
    except ValueError as err:
        return str(err)
    return [(typed(p.terms.values()), list(p.terms)) for p in found]


def test_the_shared_rationals_are_the_fourteen_draws():
    assert sorted(RATIONALS) == [(n, d) for n in range(-3, 4) for d in (1, 2)]
    assert all(value == Fraction(n, d) and type(value) is Fraction
               for (n, d), value in RATIONALS.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_vectors_draw_as_before(seed):
    new, old = random.Random(seed), random.Random(seed)
    for n in DIMS:
        assert typed(rational_vector(new, n)) == typed(reference_rational_vector(old, n))
    assert new.random() == old.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode, scale", SCALES)
def test_sampled_elements_match_the_old_construction(seed, mode, scale):
    for n, alg in ALGEBRAS.items():
        got = sample_elements(alg, 4, seed, mode, scale)
        want = reference_sample_elements(alg, 4, seed, mode, scale)
        assert [(typed(x.coords), x.mode) for x in got] == [
            (typed(x.coords), x.mode) for x in want
        ], n
        pairs = sample_pairs(alg, 2, seed, mode, scale)
        assert [p for pair in pairs for p in pair] == want
        triples = sample_triples(alg, 2, seed, mode, scale)
        want = reference_sample_elements(alg, 6, seed, mode, scale)
        assert [t for triple in triples for t in triple] == want


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_observables_match_the_old_construction(seed):
    for n, alg in ALGEBRAS.items():
        got = outcome(sample_observables, alg, 5, seed)
        assert got == outcome(reference_sample_observables, alg, 5, seed), n
        assert outcome(sample_observables, alg, 5, seed, 1) == outcome(
            reference_sample_observables, alg, 5, seed, 1
        ), n
