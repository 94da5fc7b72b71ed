"""Exact linear algebra kernel."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibrack import linalg
from leibrack.algebra import Subspace
from leibrack.corpus import load_corpus
from leibrack.observables import Covector
from leibrack.quantize import hessian_matrix
from leibrack.sampling import rational_vector, sample_invertible_matrix

from helpers import (
    n_k,
    random_invertible,
    rebase,
    reference_det,
    reference_inverse,
    reference_rref,
    reference_symmetric_signature,
)


def F(n, d=1):
    return Fraction(n, d)


def test_scalar_keeps_exact_fractions_and_converts_the_rest():
    f = F(3, 7)
    assert linalg.scalar(f, "exact") is f
    for value in (1, True, "2/5", 0.5):
        got = linalg.scalar(value, "exact")
        assert type(got) is Fraction and got == Fraction(value)
    for value in (f, 1, True):
        got = linalg.scalar(value, "float")
        assert type(got) is float and got == float(value)


def test_rref_collapses_dependent_rows():
    rows, pivots = linalg.rref([[F(2), F(4)], [F(1), F(2)]])
    assert rows == [[F(1), F(2)]]
    assert list(pivots) == [0]


def test_rref_normalizes_pivots():
    rows, pivots = linalg.rref([[F(0), F(3), F(6)], [F(2), F(0), F(4)]])
    assert list(pivots) == [0, 1]
    for r, p in zip(rows, pivots):
        assert r[p] == 1
        # pivot columns are cleared elsewhere
        for other in rows:
            if other is not r:
                assert other[p] == 0


def test_rank():
    assert linalg.rank(linalg.identity_matrix(4)) == 4
    assert linalg.rank(linalg.zero_matrix(3, 5)) == 0
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2


def test_nullspace_is_annihilated_and_canonical():
    a = [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    basis = linalg.nullspace(a)
    assert len(basis) == 1
    for v in basis:
        assert linalg.is_zero_vector(linalg.mat_vec(a, v))
    # the returned basis is reduced: leading entry 1
    lead = next(i for i, c in enumerate(basis[0]) if c != 0)
    assert basis[0][lead] == 1


def test_nullspace_of_empty_system_is_everything():
    basis = linalg.nullspace([], cols=3)
    assert basis == linalg.identity_matrix(3)


def test_nullspace_trivial():
    assert linalg.nullspace(linalg.identity_matrix(3)) == []


def test_det_worked_examples():
    assert linalg.det([[F(2), F(1)], [F(1), F(1)]]) == 1
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert linalg.det([[F(1, 2), F(0), F(0)], [F(5), F(3), F(0)], [F(7), F(11), F(4)]]) == 6


def test_det_multiplicative_on_random_matrices():
    rng = random.Random(3)
    a = sample_invertible_matrix(rng, 4)
    b = sample_invertible_matrix(rng, 4)
    assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_inverse_round_trip():
    rng = random.Random(9)
    a = sample_invertible_matrix(rng, 5)
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity_matrix(5)
    assert linalg.mat_mul(inv, a) == linalg.identity_matrix(5)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_coordinates_in_rowspan():
    span = Subspace(None, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert span.coefficients([F(2), F(3), F(5)]) == [F(2), F(3)]
    assert span.coefficients([F(0), F(0), F(1)]) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.fractions(-3, 3)), min_size=1))
def test_max_abs_picks_what_max_picks(values):
    got = linalg.max_abs(values)
    want = max(abs(v) for v in values)
    assert repr(got) == repr(want)


def test_max_abs_keeps_a_nan_anywhere():
    nan = float("nan")
    for values in ([nan, 1.0], [1.0, nan], [0, 2, nan, 1]):
        assert math.isnan(linalg.max_abs(values))
    assert linalg.max_abs([]) == 0 and type(linalg.max_abs([])) is int


def test_signature_diagonal():
    m = [[F(2), F(0), F(0)], [F(0), F(-3), F(0)], [F(0), F(0), F(0)]]
    assert linalg.symmetric_signature(m) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    # zero diagonal forces the congruence fix-up step
    assert linalg.symmetric_signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)


def test_signature_two_hyperbolic_planes():
    m = linalg.zero_matrix(4, 4)
    m[0][2] = m[2][0] = F(1)
    m[1][3] = m[3][1] = F(1)
    assert linalg.symmetric_signature(m) == (2, 2, 0)


def test_signature_congruence_invariant():
    rng = random.Random(17)
    m = linalg.zero_matrix(4, 4)
    m[0][0] = F(1)
    m[1][2] = m[2][1] = F(1)
    base = linalg.symmetric_signature(m)
    for _ in range(5):
        p = sample_invertible_matrix(rng, 4)
        congruent = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(m, p))
        assert linalg.symmetric_signature(congruent) == base


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        linalg.symmetric_signature([[F(0), F(1)], [F(0), F(0)]])


def test_vector_helpers():
    assert linalg.vec_add([F(1), F(2)], [F(3), F(4)]) == [F(4), F(6)]
    assert linalg.vec_sub([F(1), F(2)], [F(3), F(4)]) == [F(-2), F(-2)]
    assert linalg.vec_scale(F(1, 2), [F(2), F(4)]) == [F(1), F(2)]
    assert linalg.vec_dot([F(1), F(2)], [F(3), F(4)]) == 11


def test_empty_matrix_products():
    # dimension-zero edges show up for quotients by the whole algebra
    assert linalg.mat_mul([], []) == []
    assert linalg.vec_mat([], []) == []
    assert linalg.mat_vec([], []) == []


# -- inner products: a plain left fold --------------------------------------------


def fold_dot(u, v):
    """Left-to-right sum of products onto an int 0, one addition at a time."""
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def ref_mat_vec(m, v):
    return [fold_dot(row, v) for row in m]


def ref_vec_mat(v, m):
    return [fold_dot(v, [row[j] for row in m]) for j in range(len(m[0]))] if m else []


def ref_mat_mul(a, b):
    return [ref_vec_mat(row, b) for row in a]


def bits(value):
    """repr all the way down: equal means equal types, values and float bits."""
    if isinstance(value, list):
        return [bits(v) for v in value]
    return repr(value)


def float_entry(rng):
    # Signed zeros and mixed magnitudes, so any change of summation order shows.
    return rng.choice([0.0, -0.0, rng.uniform(-1, 1), rng.uniform(-1, 1) * 1e8])


def fraction_entry(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


@pytest.mark.parametrize("entry", [float_entry, fraction_entry])
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 4), (4, 1, 2), (1, 5, 1)])
def test_kernels_are_left_folds(entry, shape):
    rows, inner, cols = shape
    rng = random.Random(f"{entry.__name__}{shape}")
    for _ in range(5):
        a = [[entry(rng) for _ in range(inner)] for _ in range(rows)]
        b = [[entry(rng) for _ in range(cols)] for _ in range(inner)]
        u = [entry(rng) for _ in range(inner)]
        v = [entry(rng) for _ in range(inner)]
        assert bits(linalg.mat_mul(a, b)) == bits(ref_mat_mul(a, b))
        assert bits(linalg.mat_vec(a, u)) == bits(ref_mat_vec(a, u))
        assert bits(linalg.vec_mat(u, b)) == bits(ref_vec_mat(u, b))
        assert bits(linalg.vec_dot(u, v)) == bits(fold_dot(u, v))


def test_kernels_on_empty_inputs():
    assert linalg.vec_dot([], []) == 0
    assert linalg.mat_vec([], [F(1)]) == []
    assert linalg.mat_vec([[], []], []) == [0, 0]
    assert linalg.vec_mat([], []) == []
    assert linalg.vec_mat([], [[], []]) == []
    assert linalg.mat_mul([], [[F(1)]]) == []
    assert linalg.mat_mul([[F(1), F(2)]], []) == [[]]
    assert linalg.mat_norm_1([]) == 0


def test_kernels_do_not_compensate_float_sums():
    # Left to right, 1e16 + 1.0 rounds back to 1e16; compensated summation
    # (sum() on floats from Python 3.12) would keep the 1.0.
    row = [1e16, 1.0, -1e16]
    ones = [1.0, 1.0, 1.0]
    assert repr(linalg.vec_dot(row, ones)) == "0.0"
    assert repr(linalg.mat_vec([row], ones)) == "[0.0]"
    assert repr(linalg.vec_mat(row, [[1.0]] * 3)) == "[0.0]"
    assert repr(linalg.mat_mul([row], [[1.0]] * 3)) == "[[0.0]]"
    assert linalg.mat_norm_1([[1.0], [1e16], [1.0]]) == 1e16


# -- integer eliminations against the Fraction references ---------------------------


ENTRIES = [
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
]


@st.composite
def matrices(draw, square=False, symmetric=False):
    """0..7 x 0..7 matrices of one entry kind, with repeated and dependent rows."""
    entry = draw(st.sampled_from(ENTRIES))
    rows = draw(st.integers(0, 7))
    cols = rows if square or symmetric else draw(st.integers(0, 7))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if symmetric:
        for i in range(rows):
            for j in range(i):
                m[j][i] = m[i][j]
        if draw(st.booleans()):
            for i in range(rows):
                m[i][i] = 0
    index = st.integers(0, max(rows - 1, 0))
    for _ in range(draw(st.integers(0, 2)) if rows > 1 else 0):
        i, j = draw(index), draw(index)
        if symmetric:
            # row and column i become copies of row and column j
            m[i] = list(m[j])
            for row in m:
                row[i] = row[j]
        else:
            c = draw(st.sampled_from([0, 1, -1, 2, Fraction(1, 3)]))
            m[i] = [c * x for x in m[j]]
    return m


def outcome(fn, matrix):
    """The result, or the type and message of the error raised."""
    try:
        return fn(matrix)
    except ValueError as err:
        return ("ValueError", str(err))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_reference(m):
    assert linalg.rref(m) == reference_rref(m)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_reference(m):
    assert linalg.det(m) == reference_det(m)
    assert outcome(linalg.inverse, m) == outcome(reference_inverse, m)


@settings(max_examples=100, deadline=None)
@given(matrices(symmetric=True))
def test_symmetric_signature_matches_reference(m):
    assert linalg.symmetric_signature(m) == reference_symmetric_signature(m)


def test_eliminations_on_empty_matrices():
    assert linalg.det([]) == 1
    assert linalg.rref([]) == ([], [])
    assert linalg.inverse([]) == []
    assert linalg.symmetric_signature([]) == (0, 0, 0)


def test_error_messages_match_reference():
    singular = [[F(1), F(2)], [F(2), F(4)]]
    asymmetric = [[F(0), F(1)], [F(0), F(0)]]
    assert outcome(linalg.inverse, singular) == ("ValueError", "matrix is singular")
    assert outcome(reference_inverse, singular) == ("ValueError", "matrix is singular")
    expected = ("ValueError", "matrix is not symmetric")
    assert outcome(linalg.symmetric_signature, asymmetric) == expected
    assert outcome(reference_symmetric_signature, asymmetric) == expected


def _hessian_algebras():
    n4 = n_k(4)
    return {
        "n4": n4,
        "n4-rebased": rebase(n4, random_invertible(random.Random(4), n4.dim), "n4d"),
        "freenil3": load_corpus("freenil3"),
    }


HESSIAN_ALGEBRAS = _hessian_algebras()


@pytest.mark.parametrize("name", list(HESSIAN_ALGEBRAS))
def test_bordered_hessian_det_and_signature_match_reference(name):
    alg = HESSIAN_ALGEBRAS[name]
    rng = random.Random(name)
    for _ in range(2):
        b = hessian_matrix(alg, Covector(alg, rational_vector(rng, alg.dim)))
        assert linalg.det(b) == reference_det(b) == 1
        assert linalg.symmetric_signature(b) == reference_symmetric_signature(b)
