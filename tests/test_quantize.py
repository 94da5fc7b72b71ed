"""Quantization layer: the label rack on elements, observable actions, Poisson bracket,
generating function, and the extremum Hessian."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack import cli, quantize
from leibrack.bch import bch, conj_star
from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import load_algebra
from leibrack.observables import Covector, PolyObservable
from leibrack.quantize import (
    action_left_action_violations,
    generating_function,
    generating_gradients,
    generating_series_terms,
    hessian_check,
    hessian_matrix,
    label_action_compatibility_violations,
    poisson_bracket,
    quantum_rack_action,
    right_leibniz_violations,
    semiclassical_leading_terms,
)
from leibrack.racks import bass_product, check_rack_axioms, coadjoint, exp_endo
from leibrack.sampling import (
    rational_vector,
    sample_elements,
    sample_observables,
    sample_triples,
)

from helpers import reference_det, reference_inertia_and_det

NILPOTENT = ["abelian3", "leib2", "heisenberg", "freenil3"]
NILPOTENT_LIE = ["abelian3", "heisenberg", "freenil3"]


# -- exponential labels: E_x is represented by x ------------------------------


@pytest.mark.parametrize("name", NILPOTENT)
def test_label_rack_axioms_exact(corpus, name):
    alg = corpus[name]
    elements = sample_elements(alg, 30, seed=24)
    triples = [tuple(elements[i : i + 3]) for i in range(0, 30, 3)]
    report = check_rack_axioms(bass_product, alg.zero(), triples)
    assert report.passed
    assert report.max_residual == 0


def test_gutt_star_worked_example(heisenberg):
    e1, e2, e3 = heisenberg.basis_elements()
    assert bch(e1, e2) == e1 + e2 + Fraction(1, 2) * e3


@pytest.mark.parametrize("name", NILPOTENT_LIE)
def test_gutt_rack_equals_quantum_rack(corpus, name):
    alg = corpus[name]
    for x, y, _ in sample_triples(alg, 15, seed=26):
        assert conj_star(x, y) == bass_product(x, y)


def test_gutt_star_requires_lie(leib2):
    a, b = leib2.basis_elements()
    with pytest.raises(ValueError):
        bch(a, b)


# -- action on observables ---------------------------------------------------


def test_action_worked_example(leib2):
    e1 = leib2.basis_element(0)
    xi1 = PolyObservable.coordinate(2, 0)
    xi2 = PolyObservable.coordinate(2, 1)
    assert quantum_rack_action(e1, xi1) == xi1 + xi2
    assert quantum_rack_action(e1, xi2) == xi2


def test_action_agrees_with_coadjoint_on_linear(heisenberg):
    x, y = sample_elements(heisenberg, 2, seed=27)
    rng = random.Random(28)
    xi = Covector(heisenberg, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
    moved = quantum_rack_action(x, PolyObservable.from_element(y))
    # evaluating the pulled-back observable at xi pairs xi . exp(ad_x) with y
    assert moved.evaluate(xi) == xi.pair(bass_product(x, y))


@pytest.mark.parametrize("name", NILPOTENT)
def test_label_and_action_are_compatible(corpus, name):
    alg = corpus[name]
    triples = sample_triples(alg, 15, seed=29)
    pairs = [(a, b) for a, b, _ in triples]
    report = label_action_compatibility_violations(pairs)
    assert report.passed
    assert report.max_residual == 0


@pytest.mark.parametrize("name", NILPOTENT)
def test_action_left_action_law(corpus, name):
    alg = corpus[name]
    triples = sample_triples(alg, 10, seed=30)
    pairs = [(a, b) for a, b, _ in triples]
    observables = sample_observables(alg, 10, seed=31)
    report = action_left_action_violations(pairs, observables)
    assert report.passed
    assert report.max_residual == 0


# -- Poisson bracket ---------------------------------------------------------


def test_poisson_worked_examples(heisenberg, leib2):
    xi1 = PolyObservable.coordinate(3, 0)
    xi2 = PolyObservable.coordinate(3, 1)
    xi3 = PolyObservable.coordinate(3, 2)
    assert poisson_bracket(heisenberg, xi1, xi2) == xi3
    assert poisson_bracket(heisenberg, xi2, xi1) == -xi3

    a1 = PolyObservable.coordinate(2, 0)
    # the bracket need not be antisymmetric on a genuine Leibniz algebra
    assert poisson_bracket(leib2, a1, a1) == PolyObservable.coordinate(2, 1)
    assert poisson_bracket(leib2, PolyObservable.coordinate(2, 1), a1).terms == {}


def test_poisson_linear_observable_identity(heisenberg):
    a, b = sample_elements(heisenberg, 2, seed=32)
    rng = random.Random(33)
    xi = Covector(heisenberg, [Fraction(rng.randint(-3, 3), 2) for _ in range(3)])
    fa = PolyObservable.from_element(a)
    fb = PolyObservable.from_element(b)
    assert poisson_bracket(heisenberg, fa, fb).evaluate(xi) == xi.pair(a.bracket(b))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_right_leibniz_rule(corpus, name):
    alg = corpus[name]
    obs = sample_observables(alg, 30, seed=34)
    triples = [tuple(obs[i : i + 3]) for i in range(0, 30, 3)]
    report = right_leibniz_violations(alg, triples)
    assert report.passed
    assert report.max_residual == 0


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-4, max_value=4), min_size=9, max_size=9
    )
)
def test_right_leibniz_rule_hypothesis(coeffs):
    from leibrack.corpus import load_corpus

    heis = load_corpus("heisenberg")
    c = [Fraction(v) for v in coeffs]
    f = (
        c[0] * PolyObservable.coordinate(3, 0)
        + c[1] * PolyObservable.coordinate(3, 1) * PolyObservable.coordinate(3, 2)
        + c[2] * PolyObservable.constant(3, 1)
    )
    g = (
        c[3] * PolyObservable.coordinate(3, 1)
        + c[4] * PolyObservable.coordinate(3, 0) * PolyObservable.coordinate(3, 0)
        + c[5] * PolyObservable.constant(3, 1)
    )
    h = (
        c[6] * PolyObservable.coordinate(3, 2)
        + c[7] * PolyObservable.coordinate(3, 0) * PolyObservable.coordinate(3, 1)
        + c[8] * PolyObservable.constant(3, 1)
    )
    lhs = poisson_bracket(heis, f, g * h)
    rhs = poisson_bracket(heis, f, g) * h + g * poisson_bracket(heis, f, h)
    assert lhs == rhs


def test_left_leibniz_rule_fails(leib2):
    # {xi1^2, xi1} sees only the vanishing gradient of xi1^2 at zero,
    # while the product rule on the left slot would produce 2 xi1 xi2
    xi1 = PolyObservable.coordinate(2, 0)
    sq = xi1 * xi1
    lhs = poisson_bracket(leib2, sq, xi1)
    assert lhs.terms == {}
    product_rule = 2 * xi1 * poisson_bracket(leib2, xi1, xi1)
    assert product_rule.terms != {}
    assert lhs != product_rule


def test_semiclassical_leading_terms(heisenberg):
    f, g = sample_observables(heisenberg, 2, seed=36)
    terms = semiclassical_leading_terms(heisenberg, f, g)
    assert sorted(terms) == [0, 1]
    assert terms[0] == f.evaluate([0, 0, 0]) * g
    assert terms[1] == poisson_bracket(heisenberg, f, g)


# -- generating function -----------------------------------------------------


def test_generating_function_boundary_values(heisenberg):
    x, y = sample_elements(heisenberg, 2, seed=37)
    zero = Covector(heisenberg, (Fraction(0),) * 3)
    assert generating_function(x, y, zero) == 0
    rng = random.Random(38)
    xi = Covector(heisenberg, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
    assert generating_function(heisenberg.zero(), y, xi) == xi.pair(y)
    assert generating_function(x, heisenberg.zero(), xi) == 0
    assert generating_function(x, y, xi) == xi.pair(bass_product(x, y))


def test_generating_series_terms(freenil3):
    x, y = sample_elements(freenil3, 2, seed=39)
    rng = random.Random(40)
    xi = Covector(freenil3, [Fraction(rng.randint(-3, 3), 2) for _ in range(5)])
    terms = generating_series_terms(x, y, xi)
    assert terms[0] == xi.pair(y)
    assert sum(terms) == generating_function(x, y, xi)
    # freenil3 has class three: nothing beyond the ad^2 term
    assert len(terms) <= 3


def test_generating_series_exact_needs_nilpotent(sl2):
    h, e, _ = sl2.basis_elements()
    xi = Covector(sl2, (Fraction(1), Fraction(0), Fraction(0)))
    # ad_h scales e forever, so the exact series cannot terminate
    with pytest.raises(ValueError, match="float"):
        generating_series_terms(h, e, xi)


def test_generating_gradients_exact(heisenberg):
    x, y = sample_elements(heisenberg, 2, seed=42)
    rng = random.Random(43)
    xi = Covector(heisenberg, [Fraction(rng.randint(-3, 3), 2) for _ in range(3)])
    grads = generating_gradients(x, y, xi)
    assert grads["xi"] == bass_product(x, y)
    assert grads["y"] == coadjoint(-x, xi)
    # gradient in x pairs xi with the derivative of exp(ad_x) applied to y
    exp_ad = exp_endo(heisenberg.ad(x))
    assert grads["y"].coords == tuple(
        sum(xi.coords[k] * exp_ad.matrix[k][j] for k in range(3)) for j in range(3)
    )


def test_generating_gradient_x_matches_finite_differences(sl2):
    x, y = sample_elements(sl2, 2, seed=44, mode="float", scale=Fraction(1, 3))
    rng = random.Random(45)
    xi = Covector(sl2, [rng.uniform(-1, 1) for _ in range(3)], mode="float")
    grads = generating_gradients(x, y, xi)
    h = 1e-6
    for i in range(3):
        bumped = list(x.coords)
        bumped[i] += h
        dipped = list(x.coords)
        dipped[i] -= h
        numeric = (
            generating_function(sl2.element(bumped, mode="float"), y, xi)
            - generating_function(sl2.element(dipped, mode="float"), y, xi)
        ) / (2 * h)
        assert abs(grads["x"].coords[i] - numeric) < 1e-8


# -- Hessian of the generating function --------------------------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hessian_determinant_and_signature(corpus, name):
    alg = corpus[name]
    rng = random.Random(46)
    for _ in range(5):
        xi = Covector(
            alg,
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(alg.dim)],
        )
        report = hessian_check(alg, xi)
        assert report.determinant == 1
        assert report.signature == 0
        n = alg.dim
        assert report.inertia == (2 * n, 2 * n, 0)


def test_hessian_matrix_entries(heisenberg):
    xi = Covector(heisenberg, (Fraction(0), Fraction(0), Fraction(1)))
    b = hessian_matrix(heisenberg, xi)
    n = 3
    assert len(b) == 4 * n
    # symmetry
    for i in range(4 * n):
        for j in range(4 * n):
            assert b[i][j] == b[j][i]
    # bracket block: pairing of xi with [e_i, e_j]
    assert b[0][n + 1] == 1  # <xi, [e1, e2]> = <xi, e3>
    assert b[1][n + 0] == -1
    assert b[0][n + 0] == 0
    # constraint pairings x-zeta and y-eta
    assert b[0][2 * n + 0] == -1
    assert b[n + 2][3 * n + 2] == -1


def test_hessian_rejects_float_covector(heisenberg):
    xi = Covector(heisenberg, (0.5, 0.0, 0.0), mode="float")
    with pytest.raises(ValueError, match="rational"):
        hessian_check(heisenberg, xi)


def bordered(m_block):
    """[[M, -I], [-I, 0]] for a square M."""
    m = len(m_block)
    border = [[Fraction(-int(i == j)) for j in range(m)] for i in range(m)]
    top = [list(row) + minus for row, minus in zip(m_block, border)]
    return top + [minus + [Fraction(0)] * m for minus in border]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bordered_symmetric_matrix_has_det_one_and_split_inertia(data):
    # T = [[I, 0], [M/2, I]] takes B to [[0, -I], [-I, 0]] whatever M is.
    n = data.draw(st.integers(0, 4), label="n")
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    m_block = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(i + 1):
            m_block[i][j] = m_block[j][i] = data.draw(entry)
    b = bordered(m_block)
    assert reference_inertia_and_det(b) == ((2 * n, 2 * n, 0), 1)
    assert reference_det(b) == 1


DATA_DIR = Path(__file__).resolve().parent / "data"
HESSIAN_TABLES = {
    **{name: corpus_path(name) for name in CORPUS_NAMES},
    **{path.stem: path for path in sorted(DATA_DIR.glob("*.json"))},
}


@pytest.mark.parametrize("name", list(HESSIAN_TABLES))
def test_hessian_check_matches_the_reference_elimination(name):
    alg = load_algebra(HESSIAN_TABLES[name])
    rng = random.Random(name + "hessian")
    for _ in range(2):
        xi = Covector(alg, rational_vector(rng, alg.dim))
        report = hessian_check(alg, xi)
        b = hessian_matrix(alg, xi)
        assert report.matrix == b
        assert (report.inertia, report.determinant) == reference_inertia_and_det(b)
        assert type(report.determinant) is Fraction
        assert all(type(k) is int for k in report.inertia)


def _border_plus_identity(b, n):
    for i in range(2 * n):
        b[i][2 * n + i] = b[2 * n + i][i] = Fraction(1)


def _zeta_eta_entry(b, n):
    b[2 * n][3 * n] = b[3 * n][2 * n] = Fraction(1)


def _asymmetric_m(b, n):
    b[0][n] += 1


CORRUPTIONS = [_border_plus_identity, _zeta_eta_entry, _asymmetric_m]


@pytest.fixture(params=CORRUPTIONS, ids=lambda corrupt: corrupt.__name__.strip("_"))
def corrupted_hessian(request, monkeypatch):
    build = quantize.hessian_matrix

    def corrupted(algebra, xi):
        b = build(algebra, xi)
        request.param(b, algebra.dim)
        return b

    monkeypatch.setattr(quantize, "hessian_matrix", corrupted)


MESSAGE = "bordered Hessian lost its block structure"


@pytest.mark.usefixtures("corrupted_hessian")
def test_hessian_check_rejects_a_broken_block_structure(heisenberg):
    xi = Covector(heisenberg, (Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(ValueError, match=MESSAGE):
        hessian_check(heisenberg, xi)


@pytest.mark.usefixtures("corrupted_hessian")
def test_hessian_command_exits_2_on_a_broken_block_structure(capsys):
    code = cli.main(["hessian", str(corpus_path("heisenberg")), "--samples", "2"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {MESSAGE}"]


def _count_exp_columns(monkeypatch):
    calls = []
    build = quantize.int_exp_columns

    def spy(columns, step, n):
        calls.append(n)
        return build(columns, step, n)

    monkeypatch.setattr(quantize, "int_exp_columns", spy)
    return calls


@pytest.mark.parametrize("name", NILPOTENT)
def test_action_left_action_builds_the_columns_of_x_once(monkeypatch, corpus, name):
    # x's columns serve both actions by x: y, x and x > y, 3 per witness
    alg = corpus[name]
    triples = sample_triples(alg, 5, 1)
    pairs = [(x, y) for x, y, _ in triples]
    observables = sample_observables(alg, 5, 3)
    calls = _count_exp_columns(monkeypatch)
    report = action_left_action_violations(pairs, observables)
    assert report.passed and len(calls) == 3 * len(pairs)
    # a caller without a cache list builds the columns on every call
    calls.clear()
    x, f = pairs[0][0], observables[0]
    assert quantum_rack_action(x, f) == quantum_rack_action(x, f)
    assert len(calls) == 2


def test_float_actions_build_no_int_columns(monkeypatch, heisenberg):
    triples = sample_triples(heisenberg, 3, 1, "float", Fraction(1, 3))
    calls = _count_exp_columns(monkeypatch)
    action_left_action_violations([(x, y) for x, y, _ in triples],
                                  sample_observables(heisenberg, 3, 3), tol=1e-9)
    assert calls == []
