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
from leibrack.sampling import rational_vector

from helpers import (
    n_k,
    random_invertible,
    rebase,
    sample_invertible_matrix,
    reference_det,
    reference_inertia_and_det,
    reference_inverse,
    reference_mat_mul,
    reference_nullspace,
    reference_rref,
    reference_symmetric_signature,
    sparse_int_rows,
    vec_scale,
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
    basis = linalg.nullspace(sparse_int_rows(a), cols=3)
    assert len(basis) == 1
    for v in basis:
        assert not any(linalg.mat_vec(a, v))
    # the returned basis is reduced: leading entry 1
    lead = next(i for i, c in enumerate(basis[0]) if c != 0)
    assert basis[0][lead] == 1


def test_nullspace_of_empty_system_is_everything():
    basis = linalg.nullspace([], cols=3)
    assert basis == linalg.identity_matrix(3)


def test_nullspace_trivial():
    assert linalg.nullspace(sparse_int_rows(linalg.identity_matrix(3)), cols=3) == []


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
    assert reference_inertia_and_det(m) == ((1, 1, 1), 0)


def test_signature_hyperbolic_plane():
    # zero diagonal forces the congruence fix-up step
    assert reference_inertia_and_det([[F(0), F(1)], [F(1), F(0)]]) == ((1, 1, 0), -1)


def test_signature_two_hyperbolic_planes():
    m = linalg.zero_matrix(4, 4)
    m[0][2] = m[2][0] = F(1)
    m[1][3] = m[3][1] = F(1)
    assert reference_inertia_and_det(m) == ((2, 2, 0), 1)


def test_signature_congruence_invariant():
    rng = random.Random(17)
    m = linalg.zero_matrix(4, 4)
    m[0][0] = F(1)
    m[1][2] = m[2][1] = F(1)
    base, det = reference_inertia_and_det(m)
    assert det == 0
    for _ in range(5):
        p = sample_invertible_matrix(rng, 4)
        p_t = [list(column) for column in zip(*p)]
        congruent = linalg.mat_mul(p_t, linalg.mat_mul(m, p))
        assert reference_inertia_and_det(congruent) == (base, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        reference_inertia_and_det([[F(0), F(1)], [F(0), F(0)]])


def test_vector_helpers():
    assert linalg.vec_add([F(1), F(2)], [F(3), F(4)]) == [F(4), F(6)]
    assert linalg.vec_sub([F(1), F(2)], [F(3), F(4)]) == [F(-2), F(-2)]
    assert vec_scale(F(1, 2), [F(2), F(4)]) == [F(1), F(2)]
    assert linalg.vec_dot([F(1), F(2)], [F(3), F(4)]) == 11


@st.composite
def slot_vectors(draw):
    """(width, vector) with entries up to the slot limit 2**(width - 1) - 1 in size."""
    width = draw(st.integers(2, 160))
    top = 2 ** (width - 1) - 1
    entry = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    return width, draw(st.lists(entry, max_size=12))


@settings(max_examples=300, deadline=None)
@given(slot_vectors())
def test_pack_then_unpack_gives_the_vector_back(case):
    width, v = case
    packed = linalg.pack(enumerate(v), width)
    assert linalg.unpack(packed, width, len(v)) == v
    assert (packed == 0) == (not any(v))
    # sparse (slot, value) pairs pack to the same int
    assert linalg.pack([(m, x) for m, x in enumerate(v) if x], width) == packed


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_sums_unpack_to_the_entrywise_sums(data):
    n = data.draw(st.integers(1, 8))
    largest = data.draw(st.integers(1, 2**70))
    terms = data.draw(st.integers(1, 12))
    width = linalg.slot_width(terms, largest)
    product = st.one_of(st.sampled_from([largest, -largest, 0]), st.integers(-largest, largest))
    vectors = data.draw(st.lists(st.lists(product, min_size=n, max_size=n), max_size=terms))
    # the last `half` terms cancel the first `half`, so some totals are exactly 0
    half = data.draw(st.integers(0, len(vectors) // 2))
    vectors[len(vectors) - half :] = [[-x for x in v] for v in vectors[:half]]
    total = sum(linalg.pack(enumerate(v), width) for v in vectors)
    want = [sum(column) for column in zip(*vectors)] if vectors else [0] * n
    assert linalg.unpack(total, width, n) == want
    assert (total == 0) == (not any(want))


def test_packed_total_is_zero_exactly_when_every_slot_is():
    width = linalg.slot_width(3, 10**30)
    u = linalg.pack(enumerate([10**30, -(10**30), 0, 7]), width)
    v = linalg.pack(enumerate([-(10**30), 10**30, 0, -7]), width)
    assert u + v == 0
    assert u + v + linalg.pack([(2, 1)], width) != 0
    # a borrow from a negative low slot does not hide a high slot
    assert linalg.unpack(u + linalg.pack([(0, -(10**30)), (3, -7)], width), width, 4) == [
        0, -(10**30), 0, 0
    ]


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


# -- mat_mul paths against the fold ----------------------------------------------

INF = math.inf
FINITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-1e3, 1e3),
)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
PRODUCT_ENTRIES = {
    "finite-float": FINITE_FLOATS,
    "float": st.one_of(FINITE_FLOATS, st.sampled_from([INF, -INF, math.nan]), st.floats()),
    "fraction": st.one_of(FRACTIONS, st.integers(-3, 3)),
    "int": st.integers(-6, 6),
    "mixed": st.one_of(FINITE_FLOATS, FRACTIONS, st.integers(-3, 3)),
}


def shaped_matrices(entry, rows, cols):
    row = st.lists(entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@pytest.mark.parametrize("kind", sorted(PRODUCT_ENTRIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mat_mul_has_the_bits_of_the_left_fold(kind, data):
    rows, inner, cols = data.draw(st.tuples(*[st.integers(0, 4)] * 3), label="shape")
    a = data.draw(shaped_matrices(PRODUCT_ENTRIES[kind], rows, inner), label="a")
    b = data.draw(shaped_matrices(PRODUCT_ENTRIES[kind], inner, cols), label="b")
    assert bits(linalg.mat_mul(a, b)) == bits(reference_mat_mul(a, b))


def test_mat_mul_on_signed_zeros_and_overflow():
    # A row with no nonzero product is +0.0, as 0 + (-0.0) is; an inf
    # factor meets the zeros it multiplies (inf * 0 is nan); finite
    # factors may still overflow.
    cases = [
        ([[-0.0, 0.0]], [[-1.0, 0.0], [0.0, -0.0]]),
        ([[INF, 1.0]], [[0.0], [2.0]]),
        ([[1.0, 0.0]], [[2.0], [math.nan]]),
        ([[1e308, 1e308]], [[10.0], [-10.0]]),
        ([[0, Fraction(1, 2)], [3, 0]], [[1, 2], [Fraction(2, 3), 0]]),
        ([[1, 2]], [[3], [4]]),
    ]
    for a, b in cases:
        assert bits(linalg.mat_mul(a, b)) == bits(reference_mat_mul(a, b))
    assert bits(linalg.mat_mul([[-0.0]], [[-0.0]])) == [["0.0"]]
    assert bits(linalg.mat_mul([[1, 2]], [[3], [4]])) == [["11"]]
    assert bits(linalg.mat_mul([[1, 2]], [[F(1, 2)], [4]])) == [["Fraction(17, 2)"]]


class CountingFloat(float):
    """A float that counts the products it is the right factor of."""

    products = 0

    def __rmul__(self, other):
        CountingFloat.products += 1
        return other * float(self)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_product_forms_no_product_with_a_zero_factor(data):
    rows, inner, cols = data.draw(st.tuples(*[st.integers(1, 5)] * 3), label="shape")
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10))
    a = data.draw(shaped_matrices(entry, rows, inner), label="a")
    b = data.draw(shaped_matrices(entry, inner, cols), label="b")
    b_rows = [[(j, CountingFloat(v)) for j, v in row] for row in linalg.nonzero_rows(b)]
    CountingFloat.products = 0
    got = linalg.float_product(linalg.nonzero_rows(a), b_rows, cols)
    assert CountingFloat.products == sum(
        1 for row in a for x, b_row in zip(row, b) for v in b_row if x and v
    )
    assert bits(got) == bits(reference_mat_mul(a, b))


# -- integer eliminations against the Fraction references ---------------------------


ENTRIES = [
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    # kernel entries of these outgrow the first rungs of linalg.PRIMES
    st.integers(min_value=-(2**200), max_value=2**200),
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
@given(matrices())
def test_nullspace_and_rank_match_reference(m):
    cols = len(m[0]) if m else 0
    assert linalg.nullspace(sparse_int_rows(m), cols) == reference_nullspace(m)
    assert linalg.rank(m) == len(reference_rref(m)[0])


P1, P2, P3 = linalg.PRIMES


@pytest.mark.parametrize(
    "bits, tried",
    [
        (50, [(P1, True)]),
        (100, [(P1, False), (P2, True)]),
        (400, [(P1, False), (P2, False), (P3, True)]),
        # no rung can rebuild -a/b: the fraction-free elimination answers
        (700, [(P1, False), (P2, False), (P3, False)]),
    ],
)
def test_nullspace_climbs_the_prime_ladder(rungs, bits, tried):
    a, b = 2**bits + 1, 2**bits - 1  # coprime
    m = [[a, b]]
    assert linalg.nullspace(sparse_int_rows(m), 2) == reference_nullspace(m) == [[1, F(-a, b)]]
    assert rungs == tried


def test_nullspace_moves_past_an_unlucky_prime(rungs):
    # the first row vanishes mod P1, so e_0 is a kernel vector there; it
    # fails the check on ints, and P2 sees the full rank
    m = [[P1, 0, 0], [0, 1, 1]]
    assert len(linalg._rref_mod([{0: P1}, {1: 1, 2: 1}], P1)) == 1
    assert linalg.nullspace(sparse_int_rows(m), 3) == reference_nullspace(m) == [[0, 1, -1]]
    assert rungs == [(P1, False), (P2, True)]


@pytest.mark.parametrize("bits", [50, 100, 400, 700])
def test_nullspace_runs_the_same_rungs_on_dense_and_sparse_rows(rungs, bits):
    # a dense row reaches nullspace as sparse_int_rows scales it, and an
    # empty row and a free column leave the ladder as it was
    a, b = 2**bits + 1, 2**bits - 1
    assert sparse_int_rows([[F(a, 3), F(b, 3), 0], [0, 0, 0]]) == [{0: a, 1: b}, {}]
    want = linalg.nullspace([{0: a, 1: b}], cols=2)
    tried = rungs[:]
    rungs.clear()
    got = linalg.nullspace([{0: a, 1: b}, {}], cols=3)
    assert got == [row + [0] for row in want] + [[0, 0, 1]] == [[1, F(-a, b), 0], [0, 0, 1]]
    assert rungs == tried


def test_int_rows_pass_plain_int_rows_through():
    ints, mixed, flags = [3, -4, 0], [F(1, 2), 3], [True, 2]
    rows, scales = linalg._int_rows([ints, mixed, flags])
    assert rows[0] is ints and scales == [1, 2, 1]
    assert rows[1:] == [[1, 6], [1, 2]] and all(type(x) is int for x in rows[2])


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_reference(m):
    assert linalg.det(m) == reference_det(m)
    assert outcome(linalg.inverse, m) == outcome(reference_inverse, m)


@settings(max_examples=100, deadline=None)
@given(matrices(symmetric=True))
def test_symmetric_signature_matches_reference(m):
    inertia, det = reference_inertia_and_det(m)
    assert inertia == reference_symmetric_signature(m)
    assert det == linalg.det(m) == reference_det(m)


@pytest.mark.parametrize(
    "m, inertia, det",
    [
        ([[F(1), F(2)], [F(2), F(4)]], (1, 0, 1), 0),  # singular
        ([[F(0), F(1), F(2)], [F(1), F(0), F(3)], [F(2), F(3), F(0)]], (1, 2, 0), 12),
        ([[F(0), F(1, 2)], [F(1, 2), F(0)]], (1, 1, 0), F(-1, 4)),  # fix-up, denominators
        ([[F(-3, 5)]], (0, 1, 0), F(-3, 5)),
        ([[F(0)]], (0, 0, 1), 0),
        ([[F(2), F(0), F(1)], [F(0), F(0), F(0)], [F(1), F(0), F(1)]], (2, 0, 1), 0),
        ([[F(0), F(0)], [F(0), F(5)]], (1, 0, 1), 0),  # zero row first
    ],
    ids=["singular", "zero-diagonal", "zero-diagonal-fractions", "1x1", "1x1-zero",
         "zero-row", "zero-row-first"],
)
def test_inertia_and_det_worked_cases(m, inertia, det):
    assert reference_inertia_and_det(m) == (inertia, det)
    assert reference_symmetric_signature(m) == inertia
    assert linalg.det(m) == reference_det(m) == det


def test_eliminations_on_empty_matrices():
    assert linalg.det([]) == 1
    assert linalg.rref([]) == ([], [])
    assert linalg.inverse([]) == []
    assert reference_inertia_and_det([]) == ((0, 0, 0), 1)


def test_error_messages_match_reference():
    singular = [[F(1), F(2)], [F(2), F(4)]]
    asymmetric = [[F(0), F(1)], [F(0), F(0)]]
    assert outcome(linalg.inverse, singular) == ("ValueError", "matrix is singular")
    assert outcome(reference_inverse, singular) == ("ValueError", "matrix is singular")
    expected = ("ValueError", "matrix is not symmetric")
    assert outcome(reference_inertia_and_det, asymmetric) == expected
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
        inertia, det = reference_inertia_and_det(b)
        assert det == linalg.det(b) == reference_det(b) == 1
        assert inertia == reference_symmetric_signature(b)
