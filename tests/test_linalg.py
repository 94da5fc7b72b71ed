"""Exact linear algebra kernel."""

import random
from fractions import Fraction

import pytest

from leibrack import linalg
from leibrack.sampling import sample_invertible_matrix


def F(n, d=1):
    return Fraction(n, d)


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
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    coords = linalg.coordinates_in_rowspan(rows, [F(2), F(3), F(5)])
    assert coords == [F(2), F(3)]
    assert linalg.coordinates_in_rowspan(rows, [F(0), F(0), F(1)]) is None


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
    assert linalg.vec_norm_inf([F(1), F(-5)]) == 5


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
