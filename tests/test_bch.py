"""Truncated Baker-Campbell-Hausdorff series and the conjugation product."""

import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from leibrack.algebra import LeibnizAlgebra
from leibrack.bch import (
    MAX_ORDER,
    bch,
    conj_star,
    evaluate_word_table,
    log_word_table,
    verify_conj_identity,
)
from leibrack.cli import BCH_FLOAT_SCALE
from leibrack.corpus import CORPUS_NAMES, load_corpus
from leibrack.io import load_algebra
from leibrack.linalg import EXACT, FLOAT
from leibrack.racks import bass_product
from leibrack.sampling import sample_elements, sample_pairs, sample_triples

import helpers
from helpers import (
    n_k,
    random_invertible,
    rebase,
    reference_evaluate_word_table,
    reference_log_word_table,
)


def test_word_table_low_degree_coefficients():
    table = log_word_table()
    assert table[(0,)] == 1
    assert table[(1,)] == 1
    assert table[(0, 1)] == Fraction(1, 2)
    assert table[(1, 0)] == Fraction(-1, 2)
    assert table[(0, 0, 1)] == Fraction(1, 12)
    assert table[(0, 1, 0)] == Fraction(-1, 6)
    assert (0, 0) not in table  # pure powers cancel in the logarithm
    assert len(table) == 322
    assert max(len(w) for w in table) == MAX_ORDER


# ---------------------------------------------------------------------------
# Independent oracle: on strictly upper triangular 9x9 matrices every product
# of nine factors vanishes, so exp and log are finite sums and the degree-8
# series must reproduce log(exp X exp Y) exactly.  This pins every one of the
# 322 tabulated coefficients without reusing any package code path.
# ---------------------------------------------------------------------------

N = 9


def mmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(N)) for j in range(N)]
        for i in range(N)
    ]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(c, a):
    return [[c * x for x in row] for row in a]


def mid():
    return [[Fraction(i == j) for j in range(N)] for i in range(N)]


def mexp_nilpotent(m):
    total = mid()
    power = mid()
    fact = 1
    for k in range(1, N):
        power = mmul(power, m)
        fact *= k
        total = madd(total, mscale(Fraction(1, fact), power))
    return total


def mlog_unipotent(a):
    m = madd(a, mscale(Fraction(-1), mid()))
    total = [[Fraction(0)] * N for _ in range(N)]
    power = mid()
    for k in range(1, N):
        power = mmul(power, m)
        total = madd(total, mscale(Fraction((-1) ** (k + 1), k), power))
    return total


def test_word_table_against_matrix_logarithm():
    rng = random.Random(42)

    def strict_upper():
        m = [[Fraction(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i + 1, N):
                m[i][j] = Fraction(rng.randint(-2, 2))
        return m

    mx, my = strict_upper(), strict_upper()
    truth = mlog_unipotent(mmul(mexp_nilpotent(mx), mexp_nilpotent(my)))

    mats = (mx, my)
    nested = {}

    def right_nested_commutator(word):
        if word not in nested:
            if len(word) == 1:
                nested[word] = mats[word[0]]
            else:
                m, rest = mats[word[0]], right_nested_commutator(word[1:])
                nested[word] = madd(mmul(m, rest), mscale(Fraction(-1), mmul(rest, m)))
        return nested[word]

    total = [[Fraction(0)] * N for _ in range(N)]
    for word, coeff in log_word_table().items():
        term = right_nested_commutator(word)
        total = madd(total, mscale(coeff / len(word), term))
    assert total == truth


def test_package_attribute_bch_is_the_module():
    # the package re-exports conj_star and verify_conj_identity, but not the
    # function bch, which would shadow the submodule of the same name
    import leibrack
    import leibrack.bch as module

    assert module is sys.modules["leibrack.bch"] is leibrack.bch
    assert module.log_word_table() is log_word_table()
    assert leibrack.conj_star is conj_star
    assert leibrack.verify_conj_identity is verify_conj_identity


def test_bch_closed_form_on_class_two(heisenberg):
    for x, y, _ in sample_triples(heisenberg, 20, seed=14):
        expected = x + y + Fraction(1, 2) * x.bracket(y)
        assert bch(x, y) == expected
        assert bch(x, y, order=2) == expected


def test_bch_degree_three_terms(freenil3):
    x1, x2, x12, x112, x212 = freenil3.basis_elements()
    got = bch(x1, x2, order=3)
    want = x1 + x2 + Fraction(1, 2) * x12 + Fraction(1, 12) * x112 - Fraction(1, 12) * x212
    assert got == want
    # order 8 adds nothing in a class-three algebra
    assert bch(x1, x2) == want


def test_bch_group_laws(freenil3):
    for x, y, _ in sample_triples(freenil3, 10, seed=15):
        zero = freenil3.zero()
        assert bch(x, zero) == x
        assert bch(zero, y) == y
        assert bch(x, -x).is_zero()
        # associativity holds exactly below the truncation order
        z = freenil3.basis_element(0)
        assert bch(bch(x, y), z) == bch(x, bch(y, z))


def test_bch_requires_lie(leib2):
    x, y = leib2.basis_elements()
    with pytest.raises(ValueError):
        bch(x, y)


def test_bch_order_bounds(heisenberg):
    x, y, _ = heisenberg.basis_elements()
    with pytest.raises(ValueError):
        bch(x, y, order=0)
    with pytest.raises(ValueError):
        bch(x, y, order=MAX_ORDER + 1)


def test_conj_star_matches_bass_exactly(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        order = alg.nilpotency_class()
        for x, y, _ in sample_triples(alg, 20, seed=16):
            assert conj_star(x, y, order=order) == bass_product(x, y)
            assert conj_star(x, y) == bass_product(x, y)


def test_conj_star_worked_example(heisenberg):
    e1, e2, e3 = heisenberg.basis_elements()
    assert conj_star(e1, e2) == e2 + e3


def test_conj_identity_float_sl2(sl2):
    triples = sample_triples(sl2, 50, seed=23, mode="float", scale=Fraction(1, 12))
    pairs = [(a, b) for a, b, _ in triples]
    report = verify_conj_identity(pairs, order=8, tol=1e-6)
    assert report.passed
    assert report.max_residual <= 1e-6


def test_verify_conj_identity_exact(freenil3):
    els = sample_elements(freenil3, 20, seed=17)
    report = verify_conj_identity(list(zip(els[::2], els[1::2])))
    assert report.passed
    assert report.max_residual == 0


# ---------------------------------------------------------------------------
# The suffix-tree kernel against the word-by-word Element loop it replaced,
# which brackets on the Fraction table.  Exact results (int brackets) must be
# equal, float results (float-table brackets) equal bit for bit, and both
# must take the same number of brackets: a lost zero prune or a bracket taken
# for a word above the order changes the count.
# ---------------------------------------------------------------------------

ORDERS = range(1, MAX_ORDER + 1)
DATA_DIR = Path(__file__).resolve().parent / "data"
EXACT_ALGEBRAS = {
    **{name: partial(load_corpus, name) for name in CORPUS_NAMES},
    "n4": lambda: n_k(4),
    "n5": lambda: n_k(5),
    # scale 7056, and a dense table with large denominators
    "n4-rebased": lambda: load_algebra(DATA_DIR / "n4-rebased.json"),
    "n5-rebased": lambda: rebase(n_k(5), random_invertible(random.Random(5), 10), "n5d"),
}
FLOAT_ALGEBRAS = ("sl2", "heisenberg", "freenil3")


def word_table_pairs(alg, mode=EXACT, scale=Fraction(1)):
    """Sampled pairs, the edge cases x = 0, y = 0, both zero and x = y, and coprime denominators.

    The last pair has x over 3 and y over 5, so the exact kernel's common
    denominator of the letters is 15, which neither letter has alone.
    """
    pairs = sample_pairs(alg, 4, seed=31, mode=mode, scale=scale)
    x, y = pairs[0]
    zero = alg.zero(mode)
    thirds = alg.element([scale * Fraction(i + 1, 3) for i in range(alg.dim)], mode)
    fifths = alg.element([scale * Fraction(2 - i, 5) for i in range(alg.dim)], mode)
    return pairs + [(zero, y), (x, zero), (zero, zero), (x, x), (y, y), (thirds, fifths)]


def counted_evaluations(monkeypatch, pairs, order):
    """(new, reference, new bracket count, reference bracket count) per pair.

    The kernel counts ``bracket_coords`` calls, the reference
    ``helpers.reference_bracket_coords`` calls.  Every bracket of the kernel
    must read the view of its scalar kind, ``int_sparse`` for exact input
    and ``float_sparse`` for float input, and every bracket of the reference
    the Fraction table, never the kernel.
    """
    views, references = [], []
    original = LeibnizAlgebra.bracket_coords
    reference = helpers.reference_bracket_coords

    def counting(self, u, v, sparse=None):
        views.append(sparse)
        return original(self, u, v, sparse)

    def counting_reference(alg, u, v):
        references.append(alg)
        return reference(alg, u, v)

    monkeypatch.setattr(LeibnizAlgebra, "bracket_coords", counting)
    monkeypatch.setattr(helpers, "reference_bracket_coords", counting_reference)
    table = log_word_table()
    out = []
    for x, y in pairs:
        alg = x.algebra
        view = alg.int_sparse if x.mode == EXACT else alg.float_sparse
        views.clear()
        got = evaluate_word_table(table, x, y, order)
        assert all(seen is view for seen in views)
        got_calls = len(views)
        views.clear()
        references.clear()
        want = reference_evaluate_word_table(table, x, y, order)
        assert not views
        out.append((got, want, got_calls, len(references)))
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", list(EXACT_ALGEBRAS))
def test_word_tree_matches_reference_exact(monkeypatch, name, order):
    alg = EXACT_ALGEBRAS[name]()
    for got, want, got_calls, want_calls in counted_evaluations(
        monkeypatch, word_table_pairs(alg), order
    ):
        assert got == want
        assert got.mode == EXACT and all(type(c) is Fraction for c in got.coords)
        assert got_calls == want_calls


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", FLOAT_ALGEBRAS)
def test_word_tree_matches_reference_float_bits(monkeypatch, name, order):
    alg = load_corpus(name)
    pairs = word_table_pairs(alg, FLOAT, BCH_FLOAT_SCALE)
    for got, want, got_calls, want_calls in counted_evaluations(monkeypatch, pairs, order):
        assert [repr(c) for c in got.coords] == [repr(c) for c in want.coords]
        assert got.mode == FLOAT
        assert got_calls == want_calls


def test_word_tree_is_built_with_the_table():
    table = log_word_table()
    assert table is log_word_table()
    seen = {}

    def visit(nodes, suffix):
        for letter, reach, position, weight, children in nodes:
            word = (letter,) + suffix
            assert word not in seen
            seen[word] = (reach, position, weight)
            visit(children, word)

    visit(table.tree, ())
    words = list(table)
    suffixes = {w[i:] for w in words for i in range(len(w))}
    assert set(seen) == suffixes
    for word, (reach, position, weight) in seen.items():
        assert reach == min(len(w) for w in words if w[-len(word):] == word)
        if word in table:
            assert words[position] == word and weight == table[word] / len(word)
        else:
            assert position is None and weight is None


def test_word_table_on_ints_equals_the_fraction_build():
    table, want = log_word_table(), reference_log_word_table()
    assert list(table.items()) == list(want.items())
    assert [type(c) for c in table.values()] == [Fraction] * len(want)
    assert repr(table.tree) == repr(want.tree)


@pytest.mark.parametrize("order", ORDERS)
def test_bch_rejects_mixed_algebras_and_modes(heisenberg, freenil3, order):
    x = heisenberg.basis_element(0)
    y = freenil3.basis_element(1)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="different algebra"):
            bch(a, b, order)
        with pytest.raises(ValueError, match="different algebra"):
            evaluate_word_table(log_word_table(), a, b, order)
    with pytest.raises(ValueError, match="mixed scalar modes"):
        bch(x, heisenberg.basis_element(1).to_float(), order)
