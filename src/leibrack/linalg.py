"""Dense linear algebra over exact rationals (and plain floats).

Matrices are lists of row lists, vectors are flat lists.  Entries are
``fractions.Fraction`` in exact mode or ``float`` in float mode; every routine
works with either scalar type unless it needs exact pivoting (echelon forms,
determinants, inverses, signatures), which is rational-only.

The eliminations run on Python ints: each row is scaled by the lcm of its
denominators, and ``rref`` (fraction-free Gauss-Jordan, each updated row
divided by its content), ``det`` and ``symmetric_signature`` (Bareiss steps,
whose divisions by the previous pivot are exact) turn their results back
into canonical Fractions only at the end.  ``inverse`` is the right half of
``rref([matrix | I])``.

Every inner product is a plain left fold, ``reduce(add, map(mul, u, v), 0)``:
the terms in index order, added one by one onto an ``int`` 0.  ``sum()``
would compute the same thing up to Python 3.11, but from 3.12 it adds floats
with compensated summation, which moves float results (and the reports built
on them) between interpreter versions.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import add, mul

EXACT = "exact"
FLOAT = "float"


def check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}; expected 'exact' or 'float'")
    return mode


def scalar(value, mode):
    """Coerce a number to the scalar type of the given mode.

    An exact-mode Fraction is returned as it is: Fractions are immutable, so
    a copy would only cost a constructor call per coordinate.
    """
    if mode == FLOAT:
        return float(value)
    return value if type(value) is Fraction else Fraction(value)


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


def max_abs(values):
    """The largest abs(v), picked as ``max`` picks it, except that a NaN sticks.

    ``max`` keeps the first largest value and drops a NaN met after the
    first item (nan > x and x > nan are both False); here a NaN, once met,
    is the result, so a distance with a NaN coordinate fails every check.
    An empty input gives the int 0.
    """
    values = iter(values)
    worst = abs(next(values, 0))
    for v in values:
        v = abs(v)
        if v > worst or v != v:
            worst = v
    return worst


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


def _int_rows(matrix):
    """Each row times the lcm of its denominators, as ints; returns (rows, lcms).

    Scaling a row by a positive constant keeps the row space.  Ints and
    Fractions are read as they are; any other entry (a float) goes through
    ``Fraction`` first.
    """
    rows, scales = [], []
    for row in matrix:
        row = [x if type(x) is Fraction or type(x) is int else Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns ``(rows, pivot_columns)`` where zero rows are dropped.
    """
    a = _int_rows(matrix)[0]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        p = top[c]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(a[:r], pivots)], pivots


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
    """Determinant by Bareiss elimination: the last pivot, over the row scales."""
    a, scales = _int_rows(matrix)
    sign = prev = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[0]), None)
        if k is None:
            return Fraction(0)
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        p, *top = a[0]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in a[1:]]
        prev = p
    return Fraction(sign * prev, prod(scales))


def inverse(matrix):
    """Exact inverse of a rational matrix; raises ValueError when singular."""
    n = len(matrix)
    reduced, pivots = rref([list(row) + irow for row, irow in zip(matrix, identity_matrix(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def symmetric_signature(matrix):
    """Inertia (n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Congruence diagonalization in the style of Lagrange's method: symmetric
    row/column operations, with the classic fix-up (add row+column j into
    row+column k) whenever the whole remaining diagonal vanishes.  Plain
    LDL would break on a zero leading pivot.  It runs on the matrix times
    the common denominator D > 0, which has the same inertia, and updates
    the active block by the Bareiss step a_ij <- (d a_ij - a_ik a_kj) // prev;
    the LDL pivot is then d / prev.
    """
    rows, scales = _int_rows(matrix)
    common = lcm(*scales)
    a = [[x * (common // s) for x in row] for row, s in zip(rows, scales)]
    n = len(a)
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    n_plus = n_minus = n_zero = 0
    prev = 1
    while a:
        if a[0][0] == 0:
            swap = next((j for j in range(1, len(a)) if a[j][j]), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                off = next((j for j in range(1, len(a)) if a[0][j]), None)
                if off is None:
                    n_zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                for t in range(len(a)):
                    a[0][t] += a[off][t]
                for t in range(len(a)):
                    a[t][0] += a[t][off]
        d, *top = a[0]
        if (d > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        a = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in a[1:]]
        prev = d
    return n_plus, n_minus, n_zero
