"""One sparse table per scalar kind: float kernels on ``float_sparse``.

Float ``bracket_coords``, ``ad``, the float BCH word sum and the float
inverse must give, bit for bit, what the Fraction table gives: a Fraction
times a float is ``float(c)`` times the float, so reading the converted
entry changes no result.  The references below bracket on the Fraction
index of the dense table (``helpers.reference_sparse``) and invert with
Fractions; results are compared by ``repr``, which tells -0.0
from 0.0.  The float table is built on first float use only, so an exact
run on a table beyond the float range never converts it.
"""

import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack import cli, linalg
from leibrack.algebra import Endomorphism, LeibnizAlgebra
from leibrack.bch import evaluate_word_table, log_word_table
from leibrack.corpus import corpus_path, load_corpus
from leibrack.io import load_algebra
from leibrack.linalg import FLOAT
from leibrack.racks import exp_ad
from leibrack.sampling import rational_vector

from helpers import (
    make_table,
    mat_add,
    reference_bracket_coords,
    reference_evaluate_word_table,
    reference_inverse,
    reference_sparse,
    sl2_semidirect,
)


def _algebras():
    sl2 = load_corpus("sl2")
    algebras = {"hs1": load_corpus("hs1"), "sl2": sl2}
    algebras.update({f"sl2xV{m}": sl2_semidirect(sl2, m) for m in range(1, 5)})
    return algebras


ALGEBRAS = _algebras()

# -0.0, the smallest subnormals and a subnormal whose products underflow
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4))


def bits(values):
    return [repr(v) for v in values]


def matrix_bits(matrix):
    return [bits(row) for row in matrix]


def reference_ad(alg, coords):
    """Float ad_x summed on the Fraction table, the loop ``ad`` runs, then made float."""
    n = alg.dim
    rows = [[0] * n for _ in range(n)]
    for xi, plane in zip(coords, reference_sparse(alg)):
        if xi == 0:
            continue
        for j, row in plane:
            for k, c in row:
                rows[k][j] = rows[k][j] + xi * c
    return [[float(v) for v in row] for row in rows]


def reference_float_inverse(matrix):
    return [[float(v) for v in row] for row in reference_inverse(matrix)]


def outcome(fn, matrix):
    """The bits of the result, or the error raised (singular, or beyond the float range)."""
    try:
        return matrix_bits(fn(matrix))
    except (ValueError, OverflowError) as err:
        return type(err).__name__, str(err)


def test_float_sparse_converts_every_entry_and_keeps_underflowed_ones():
    tiny = Fraction(1, 10**400)  # float(tiny) == 0.0
    alg = LeibnizAlgebra(make_table(2, {(0, 1): {1: Fraction(1, 3)}, (1, 1): {0: tiny}}))
    assert alg.float_sparse == (((1, ((1, 1 / 3),)),), ((1, ((0, 0.0),)),))
    assert alg.float_sparse is alg.float_sparse
    def entries(sparse):
        return [(i, j, k, c) for i, plane in enumerate(sparse) for j, row in plane for k, c in row]

    for name, other in ALGEBRAS.items():
        want = [(i, j, k, float(c)) for i, j, k, c in entries(reference_sparse(other))]
        assert entries(other.float_sparse) == want, name
        assert all(type(f) is float for *_, f in entries(other.float_sparse))


# Entries whose float value is hard to get right: a numerator and a
# denominator both beyond 10^400 with a value in range, a denominator that
# is a large prime (two of them make an lcm scale of ~650 bits), a subnormal,
# and entries that underflow to 0.0 and -0.0.
HARD_ENTRIES = [
    Fraction(2**1400 + 1, 3**900),
    Fraction(1, 2**127 - 1),
    Fraction(-5, 2**521 - 1),
    Fraction(3, 10**310),
    Fraction(1, 10**400),
    Fraction(-1, 10**400),
]


def _hard_table(entries):
    """A table holding the entries as the coefficients of [e1, e1], [e1, e2], ..."""
    n = len(entries)
    return make_table(n, {(0, j): {j: c} for j, c in enumerate(entries)})


@pytest.mark.parametrize("together", [False, True])
def test_float_sparse_rounds_hard_entries_as_float_does(together):
    assert HARD_ENTRIES[0].numerator > 10**400 and HARD_ENTRIES[0].denominator > 10**400
    groups = [HARD_ENTRIES] if together else [[c] for c in HARD_ENTRIES]
    for group in groups:
        alg = LeibnizAlgebra(_hard_table(group))
        assert alg.scale == lcm(*(c.denominator for c in group))
        got = [c for _, row in alg.float_sparse[0] for _, c in row]
        assert bits(got) == bits(float(c) for c in group)
    assert bits(float(c) for c in HARD_ENTRIES[3:]) == ["3e-310", "0.0", "-0.0"]


def test_require_float_table_names_an_entry_beyond_the_float_range():
    message = (
        "float mode: the coefficient of b in [a, b] (bracket i=1, j=2) is too large for a float"
    )
    for big in (Fraction(2 * 10**308), Fraction(10**709 + 1, 10**400)):
        # alone (scale 1 or its own denominator) and over the lcm of the hard entries
        for others in ({}, {0: HARD_ENTRIES[0], 2: HARD_ENTRIES[2]}):
            table = make_table(3, {(0, 1): {**others, 1: big}})
            alg = LeibnizAlgebra(table, basis=("a", "b", "c"))
            with pytest.raises(cli.UsageError) as err:
                cli.require_float_table(alg)
            assert str(err.value) == message
            with pytest.raises(OverflowError):
                float(big)
            with pytest.raises(OverflowError):
                alg.float_sparse
    cli.require_float_table(LeibnizAlgebra(_hard_table(HARD_ENTRIES)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(ALGEBRAS)))
def test_float_bracket_and_ad_have_the_bits_of_the_fraction_table(data, name):
    alg = ALGEBRAS[name]
    x = data.draw(st.lists(FLOATS, min_size=alg.dim, max_size=alg.dim), label="x")
    y = data.draw(st.lists(FLOATS, min_size=alg.dim, max_size=alg.dim), label="y")
    want = bits(reference_bracket_coords(alg, x, y))
    assert bits(alg.bracket_coords(x, y, alg.float_sparse)) == want
    assert bits(alg.left_bracket(x, FLOAT)(y)) == want
    ex, ey = alg.element(x, FLOAT), alg.element(y, FLOAT)
    assert bits(ex.bracket(ey).coords) == bits(float(v) for v in want)
    assert matrix_bits(alg.ad(ex).matrix) == matrix_bits(reference_ad(alg, x))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(list(ALGEBRAS)),
    order=st.integers(1, 8),
    scale=st.sampled_from([1.0, 1 / 12, 1e-160]),
)
def test_float_word_sum_has_the_bits_of_the_fraction_reference(data, name, order, scale):
    alg = ALGEBRAS[name]
    coords = st.lists(FLOATS, min_size=alg.dim, max_size=alg.dim)
    x = alg.element([scale * v for v in data.draw(coords, label="x")], FLOAT)
    y = alg.element([scale * v for v in data.draw(coords, label="y")], FLOAT)
    table = log_word_table()
    got = evaluate_word_table(table, x, y, order)
    want = reference_evaluate_word_table(table, x, y, order)
    assert got.mode == FLOAT
    assert bits(got.coords) == bits(want.coords)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_float_endomorphism_inverse_rounds_the_exact_inverse(name):
    alg = ALGEBRAS[name]
    rng = random.Random(name + "inverse")
    for scale in (1 / 3, 2.0):
        x = alg.element([scale * float(v) for v in rational_vector(rng, alg.dim)], FLOAT)
        a = exp_ad(x)
        got = a.inverse()
        assert got.mode == FLOAT
        assert matrix_bits(got.matrix) == matrix_bits(reference_float_inverse(a.matrix))
    ad = alg.ad(alg.element(rational_vector(rng, alg.dim)))
    exact = Endomorphism(alg, mat_add(ad.matrix, linalg.identity_matrix(alg.dim)))
    assert exact.inverse().matrix == tuple(map(tuple, reference_inverse(exact.matrix)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 5))
def test_float_inverse_is_the_exact_inverse_rounded(data, n):
    entry = st.one_of(FLOATS, st.sampled_from([-3.0, -1.0, 1.0, 2.0]))
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    assert outcome(linalg.float_inverse, m) == outcome(reference_float_inverse, m)


# a float row is read as dyadic rationals, an int or Fraction row as it is
MIXED = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, 2.0**1000, -(2.0**1000)]),
    st.floats(-4, 4),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_float_inverse_on_rows_mixing_ints_fractions_and_floats(data, n):
    m = [[data.draw(MIXED) for _ in range(n)] for _ in range(n)]
    assert outcome(linalg.float_inverse, m) == outcome(reference_float_inverse, m)
    assert outcome(linalg.inverse, m) == outcome(reference_inverse, m)


# -- the float table is lazy ---------------------------------------------------


@pytest.fixture
def huge_sl2(tmp_path):
    """sl2 with its structure constants times 10^308: 2 * 10^308 has no float value."""
    doc = json.loads(corpus_path("sl2").read_text())
    for entry in doc["brackets"]:
        entry["value"] = [[num * 10**308, den] for num, den in entry["value"]]
    path = tmp_path / "sl2huge.json"
    path.write_text(json.dumps(doc))
    return path


def test_exact_kernels_build_no_float_table(huge_sl2):
    alg = load_algebra(huge_sl2)
    x, y = alg.element(rational_vector(random.Random(1), 3)), alg.basis_element(0)
    alg.leibniz_violations(), alg.is_lie(), alg.nilpotency_class()
    alg.ad(x), x.bracket(y), evaluate_word_table(log_word_table(), x, y, 8)
    assert "float_sparse" not in vars(alg)
    with pytest.raises(OverflowError):
        alg.float_sparse


def test_exact_commands_never_read_the_float_table(huge_sl2, monkeypatch, capsys):
    def unused(self):
        raise AssertionError("an exact command read float_sparse")

    monkeypatch.setattr(LeibnizAlgebra, "float_sparse", property(unused))
    for command in ("validate", "analyze", "hessian"):
        assert cli.main([command, str(huge_sl2), "--samples", "2"]) == 0
    capsys.readouterr()
    for command in ("rack", "quantize", "bch", "tangent"):
        assert cli.main([command, str(huge_sl2), "--mode", "float", "--samples", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: float mode: the coefficient of e in [h, e] (bracket i=1, j=2) "
            "is too large for a float\n"
        )
