"""Dense linear algebra over exact rationals (and plain floats).

Matrices are lists of row lists, vectors are flat lists.  Entries are
``fractions.Fraction`` in exact mode or ``float`` in float mode; every routine
works with either scalar type unless it needs exact pivoting (echelon forms,
determinants, inverses, signatures), which is rational-only.

Every inner product is a plain left fold, ``reduce(add, map(mul, u, v), 0)``:
the terms in index order, added one by one onto an ``int`` 0.  ``sum()``
would compute the same thing up to Python 3.11, but from 3.12 it adds floats
with compensated summation, which moves float results (and the reports built
on them) between interpreter versions.
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul

EXACT = "exact"
FLOAT = "float"


def check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}; expected 'exact' or 'float'")
    return mode


def scalar(value, mode):
    """Coerce a number to the scalar type of the given mode."""
    return float(value) if mode == FLOAT else Fraction(value)


def zero_vector(n, mode=EXACT):
    return [scalar(0, mode)] * n


def zero_matrix(rows, cols, mode=EXACT):
    return [zero_vector(cols, mode) for _ in range(rows)]


def identity_matrix(n, mode=EXACT):
    m = zero_matrix(n, n, mode)
    one = scalar(1, mode)
    for i in range(n):
        m[i][i] = one
    return m


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, v):
    return [c * a for a in v]


def vec_dot(u, v):
    return reduce(add, map(mul, u, v), 0)


def vec_norm_inf(v):
    return max((abs(a) for a in v), default=0)


def is_zero_vector(v):
    return all(a == 0 for a in v)


def mat_vec(m, v):
    """Matrix times column vector."""
    return [reduce(add, map(mul, row, v), 0) for row in m]


def vec_mat(v, m):
    """Row vector times matrix (how a covector composes with a map)."""
    return [reduce(add, map(mul, v, col), 0) for col in zip(*m)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col), 0) for col in cols] for row in a]


def mat_add(a, b):
    return [vec_add(ra, rb) for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [vec_sub(ra, rb) for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [vec_scale(c, row) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_norm_1(a):
    """Maximum absolute column sum."""
    return max((reduce(add, map(abs, col), 0) for col in zip(*a)), default=0)


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns ``(rows, pivot_columns)`` where zero rows are dropped.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def rank(matrix):
    if not matrix:
        return 0
    return len(rref(matrix)[0])


def nullspace(matrix, cols=None):
    """Canonical basis of the right nullspace, rows in reduced echelon form."""
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    if not matrix:
        return [r[:] for r in identity_matrix(cols)]
    reduced, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    if not basis:
        return []
    return rref(basis)[0]


def det(matrix):
    """Determinant by exact fraction-free-ish Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def inverse(matrix):
    """Exact inverse of a rational matrix; raises ValueError when singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + irow for row, irow in zip(matrix, identity_matrix(n))]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[c], a[pivot_row] = a[pivot_row], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def coordinates_in_rowspan(basis_rows, v):
    """Coefficients expressing v as a combination of the basis rows, or None.

    The rows must be linearly independent.
    """
    if not basis_rows:
        return [] if is_zero_vector(v) else None
    cols = len(v)
    k = len(basis_rows)
    augmented = [[Fraction(basis_rows[i][j]) for i in range(k)] + [Fraction(v[j])] for j in range(cols)]
    reduced, pivots = rref(augmented)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[k]
    return coeffs


def symmetric_signature(matrix):
    """Inertia (n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Congruence diagonalization in the style of Lagrange's method: symmetric
    row/column operations, with the classic fix-up (add row+column j into
    row+column k) whenever the whole remaining diagonal vanishes.  Plain
    LDL would break on a zero leading pivot.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    n_plus = n_minus = n_zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    n_zero += 1
                    continue
                for t in range(n):
                    a[k][t] += a[off][t]
                for t in range(n):
                    a[t][k] += a[t][off]
        d = a[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for j in range(k + 1, n):
            if a[k][j] != 0:
                f = a[k][j] / d
                for t in range(n):
                    a[j][t] -= f * a[k][t]
                for t in range(n):
                    a[t][j] -= f * a[t][k]
    return n_plus, n_minus, n_zero
