"""Dense linear algebra over exact rationals (and plain floats).

Matrices are lists of row lists, vectors are flat lists.  Entries are
``fractions.Fraction`` in exact mode or ``float`` in float mode; every routine
works with either scalar type unless it needs exact pivoting (echelon forms,
determinants, inverses), which is rational-only.

The eliminations run on Python ints: each row is scaled by the lcm of its
denominators, and ``rref`` (``echelon``, fraction-free Gauss-Jordan, each
updated row divided by its content) and ``det`` (Bareiss steps, whose
divisions by the previous pivot are exact) turn their results back into
canonical Fractions only at the end.  ``inverse`` and ``float_inverse``
divide the right half of the echelon rows of ``[matrix | I]`` by their
pivots, into Fractions or into floats.
``nullspace`` solves modulo a prime instead (Dixon, Numer. Math. 40, 1982;
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5), on the sparse
int rows (dicts) the structural kernels build: it takes the reduced
echelon form of the int rows mod p, with each pivot at its row's last
nonzero column, so that the kernel vectors read off it are in reduced
echelon form already, rebuilds each nonzero entry as a rational, and
checks on ints that every row annihilates every vector.  The check makes
the answer exact: the rank mod p is at most the rank over Q, so
N - rank_p independent vectors that pass it span the whole kernel.  The primes are the Mersenne primes of
``PRIMES``, smallest first; when no rung passes, the fraction-free
elimination runs.
``echelon`` is also the step of ``LeibnizAlgebra.nilpotency_class``, which
hands it int rows built from ``int_sparse``.  ``pack`` and ``unpack`` hold an
int vector in one int, with fixed-width signed slots (Kronecker
substitution), for the residual sums of the Leibniz and extension checks;
``slot_width`` sizes the slots from the terms and the largest product.

Every inner product has the bits of a plain left fold,
``reduce(add, map(mul, u, v), 0)``: the terms in index order, added one by
one onto an ``int`` 0.  ``sum()`` would compute the same thing up to Python
3.11, but from 3.12 it adds floats with compensated summation, which moves
float results (and the reports built on them) between interpreter versions.
``vec_dot``, ``mat_vec`` and ``vec_mat`` are that fold.  No matrix sum is
kept here: no command adds two matrices, and the tests that do keep their
own helpers in ``tests/helpers.py``.  ``mat_mul`` picks its path from its input:

* all entries finite floats: ``float_product``, which adds x * v into an
  accumulator row that starts at 0.0, k ascending, for the nonzero x = a[i][k]
  and the nonzero (j, v) of row k of b only.  The bits are the fold's: 0 + p
  and 0.0 + p agree for every float p, an accumulator that starts at +0.0 is
  never -0.0, so a skipped term (a signed zero, as both factors are finite)
  would change nothing;
* all entries ints or Fractions: int rows of a and of the columns of b (each
  scaled by the lcm of its denominators), an int sum per entry, and one
  ``Fraction`` per entry, an int where the fold would give an int;
* anything else (mixed or non-finite input, an empty or ragged operand): the
  fold.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isfinite, isqrt, lcm, prod
from operator import add, mul

EXACT = "exact"
FLOAT = "float"

# The moduli of ``nullspace``, tried in turn: 2**127 - 1, 2**521 - 1, 2**1279 - 1.
PRIMES = (2**127 - 1, 2**521 - 1, 2**1279 - 1)


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


def zero_matrix(rows, cols, mode=EXACT):
    return [[scalar(0, mode)] * cols for _ in range(rows)]


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


def gap(a, b, exact):
    """``max_abs(x - y)`` over the paired entries of the tuples a and b.

    With ``exact`` (all entries Fractions), equal tuples give Fraction(0), or 0
    if empty, unsubtracted.  Floats are always subtracted: a shared NaN object
    makes (nan,) == (nan,) true, while its distance is NaN.
    """
    if exact and a == b:
        return Fraction(0) if a else 0
    return max_abs(x - y for x, y in zip(a, b))


def int_vector(v):
    """(V, d) with v = V / d: a rational list times the lcm d of its denominators."""
    dens = [c.denominator for c in v]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(v, dens)], d


def slot_width(terms, largest):
    """Bits per slot for packed sums of at most ``terms`` terms of size <= ``largest``.

    Every entry of such a sum has |entry| <= terms * largest < 2**(w - 2),
    so it fits a signed slot of w bits with room to spare.
    """
    return (terms * largest).bit_length() + 2


def pack(entries, width):
    """The ``(m, v)`` pairs of an int vector as one int: sum of v * 2**(m * width).

    Pass ``enumerate(vector)`` for a dense vector.  With every |v| below
    2**(width - 1) the signed slots can be read back by ``unpack``, and the
    map is linear: a packed int times an int plus another packed int is the
    packed sum, as long as every entry of the sum fits its slot (Kronecker
    substitution).  Such a total is 0 exactly when every entry is.
    """
    total = 0
    for m, x in entries:
        if x:
            total += x << (m * width)
    return total


def unpack(total, width, n):
    """The n signed slot values of a packed int, lowest slot first."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    for _ in range(n):
        low = total & mask
        if low >= half:
            low -= mask + 1
        out.append(low)
        total = (total - low) >> width
    return out


def mat_vec(m, v):
    """Matrix times column vector."""
    return [reduce(add, map(mul, row, v), 0) for row in m]


def vec_mat(v, m):
    """Row vector times matrix (how a covector composes with a map)."""
    return [reduce(add, map(mul, v, col), 0) for col in zip(*m)]


def mat_mul(a, b):
    """Matrix product, with the bits of a left fold per entry (see the module doc)."""
    kind = _product_kind(a, b)
    if kind == FLOAT:
        return float_product(nonzero_rows(a), nonzero_rows(b), len(b[0]))
    cols = list(zip(*b))
    if kind == EXACT:
        rows, row_scales = _int_rows(a)
        int_cols, col_scales = _int_rows(cols)
        row_fraction = [Fraction in map(type, row) for row in a]
        col_fraction = [Fraction in map(type, col) for col in cols]
        return [
            [
                Fraction(sum(map(mul, r, c)), d * e) if fr or fc else sum(map(mul, r, c))
                for c, e, fc in zip(int_cols, col_scales, col_fraction)
            ]
            for r, d, fr in zip(rows, row_scales, row_fraction)
        ]
    return [[reduce(add, map(mul, row, col), 0) for col in cols] for row in a]


def _product_kind(a, b):
    """FLOAT when a and b hold only finite floats, EXACT when only ints and Fractions.

    None for anything else, and for an empty or ragged operand.
    """
    inner = len(b)
    if not a or not inner or any(len(row) != inner for row in a):
        return None
    cols = len(b[0])
    if any(len(row) != cols for row in b):
        return None
    entries = [*chain.from_iterable(a), *chain.from_iterable(b)]
    types = set(map(type, entries))
    if types == {float}:
        return FLOAT if all(map(isfinite, entries)) else None
    return EXACT if types <= {int, Fraction} else None


def nonzero_rows(m):
    """The nonzero ``(j, v)`` of each row of m, j ascending."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m]


def float_product(a_rows, b_rows, cols):
    """a times b for finite float matrices, given as ``nonzero_rows(a)`` and ``nonzero_rows(b)``.

    Row i is an accumulator that starts at 0.0 and takes x * v for (k, x)
    in ``a_rows[i]`` and (j, v) in ``b_rows[k]``; no product with a zero
    factor is formed.  On finite input this is the left fold of ``mat_mul``
    bit for bit; an infinite or NaN factor would need its products with
    zeros, so callers check finiteness first.
    """
    out = []
    for row in a_rows:
        acc = [0.0] * cols
        for k, x in row:
            for j, v in b_rows[k]:
                acc[j] += x * v
        out.append(acc)
    return out


def mat_norm_1(a):
    """Maximum absolute column sum."""
    return max((reduce(add, map(abs, col), 0) for col in zip(*a)), default=0)


def _int_rows(matrix):
    """Each row times the lcm of its denominators, as ints; returns (rows, lcms).

    Scaling a row by a positive constant keeps the row space.  Every row is
    read entry by entry with ``as_integer_ratio``, the exact (num, den) in
    lowest terms that ``Fraction`` would hold (an int gives (x, 1)), and no
    Fraction is made.
    """
    rows, scales = [], []
    for row in matrix:
        ratios = [x.as_integer_ratio() for x in row]
        d = lcm(*(den for _, den in ratios))
        rows.append([num * (d // den) for num, den in ratios])
        scales.append(d)
    return rows, scales


def echelon(a):
    """Fraction-free Gauss-Jordan on int rows, in place: ``(nonzero rows, pivots)``.

    The rows returned span the row space of ``a``; each row that was updated
    is divided by its content.
    """
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
    return a[:r], pivots


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns ``(rows, pivot_columns)`` where zero rows are dropped.
    """
    rows, pivots = echelon(_int_rows(matrix)[0])
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)], pivots


def nullspace(rows, cols):
    """Canonical basis of the right nullspace, rows in reduced echelon form.

    The rows are sparse int rows as the structural kernels build them:
    dicts ``{column: x}`` over ``cols`` columns, zero entries left out.
    They go to ``_modular_nullspace`` with each prime of ``PRIMES`` in
    turn, and the first basis that passes its exact check is the answer;
    that rung works on the nonzero entries of the kernel vectors and makes
    the dense Fraction rows only for the basis it returns.
    A rung fails when an entry has no rational with |num|, den <=
    sqrt(p / 2) (p too small for the answer) or when a vector misses a row
    (p divides a minor that decides the rank).  When every rung fails, the fraction-free
    elimination runs on the dense int rows: free column f gives L at f and
    -row[f] * (L // pivot) at each pivot of the echelon rows, L the lcm of
    the pivots, and ``rref`` makes the basis canonical.
    """
    if not rows:
        return [r[:] for r in identity_matrix(cols)]
    for p in PRIMES:
        basis = _modular_nullspace(rows, cols, p)
        if basis is not None:
            return basis
    dense, pivots = echelon([[row.get(j, 0) for j in range(cols)] for row in rows])
    scale = lcm(*(row[p] for row, p in zip(dense, pivots)))
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = scale
        for row, p in zip(dense, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return rref(basis)[0] if basis else []


def _modular_nullspace(rows, cols, p):
    """The canonical nullspace basis of sparse int rows, solved mod p; None if unproven.

    ``rows`` are dicts ``{column: x}``.  In the reduced echelon form mod p
    of ``_rref_mod`` each row has its pivot at its last nonzero column, so
    the kernel vector of a free column f, 1 at f and -row[f] at the pivot
    of each row with an entry at f, is 0 left of f and at every other free
    column: these vectors are already the reduced echelon basis of the
    kernel mod p, with the free columns as pivots.  Each nonzero entry is
    rebuilt with ``_rational``.  Those N - rank_p vectors are independent,
    and when every input row annihilates them on ints they span the kernel,
    whose dimension N - rank_Q is at most N - rank_p: they are its reduced
    echelon basis.  The vectors are rebuilt, scaled to ints, packed and
    checked on their nonzero entries only (a zero has denominator 1, so it
    changes no lcm, no slot width and no packed sum); the dense Fraction
    rows are made once, after the check.
    """
    reduced = _rref_mod(rows, p)
    bound = isqrt(p // 2)
    kernel = {f: {f: Fraction(1)} for f in range(cols) if f not in reduced}
    for c, row in reduced.items():
        for f, x in row.items():
            if x:
                kernel[f][c] = entry = _rational(p - x, p, bound)
                if entry is None:
                    return None
    scaled = []
    for v in kernel.values():
        d = lcm(*(x.denominator for x in v.values()))
        scaled.append({j: x.numerator * (d // x.denominator) for j, x in v.items()})
    largest = max((abs(x) for v in scaled for x in v.values()), default=0)
    largest *= max((abs(x) for row in rows for x in row.values()), default=0)
    width = slot_width(cols, largest)
    # packed[j]: entry j of vector b in slot b (see ``pack``)
    packed = [0] * cols
    for b, v in enumerate(scaled):
        shift = b * width
        for j, x in v.items():
            packed[j] += x << shift
    # each sum packs the products of one row with every vector
    if any(sum(map(mul, row.values(), map(packed.__getitem__, row))) for row in rows):
        return None
    zero = Fraction(0)
    basis = []
    for v in kernel.values():
        dense = [zero] * cols
        for j, x in v.items():
            dense[j] = x
        basis.append(dense)
    return basis


def _rref_mod(rows, p):
    """Reduced echelon form mod p of sparse int rows, pivots last: ``{pivot: {column: x}}``.

    A stored row is 1 at its pivot, its last nonzero column (not stored),
    and 0 at every other pivot, so a new row is reduced in one sweep on
    ints, its entries at the pivots being the multipliers, and taken mod p
    once.  Its last nonzero column becomes a pivot, and the stored rows
    with an entry there are cleared.  Every stored entry sits at a free
    column, left of its row's pivot.
    """
    basis = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            for j, y in basis[c].items():
                row[j] = row.get(j, 0) - f * y
        row = {j: r for j, x in row.items() if (r := x % p)}
        if not row:
            continue
        c = max(row)
        inv = pow(row.pop(c), -1, p)
        new = {j: x * inv % p for j, x in row.items()}
        for other in basis.values():
            f = other.pop(c, 0)
            if f:
                for j, y in new.items():
                    other[j] = (other.get(j, 0) - f * y) % p
        basis[c] = new
    return basis


def _rational(u, p, bound):
    """The a/b with a = b * u mod p and |a|, b <= bound, or None (half extended Euclid).

    The remainders r and cofactors t of Euclid on (p, u) keep r = t * u mod
    p; the first r <= bound gives a/b = r/t when |t| <= bound.
    """
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None


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


def _inverse_rows(matrix):
    """The right half of the int echelon rows of [matrix | I], each with its pivot.

    The pivots are made positive (row and pivot negated together), so that
    a zero numerator over its pivot is +0.  Raises ValueError when singular.
    """
    n = len(matrix)
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)]
    rows, pivots = echelon(_int_rows(augmented)[0])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [
        (row[n:], row[i]) if row[i] > 0 else ([-x for x in row[n:]], -row[i])
        for i, row in enumerate(rows)
    ]


def inverse(matrix):
    """Exact inverse of a rational matrix; raises ValueError when singular.

    Float entries are read exactly, and the inverse is exact all the same.
    """
    return [[Fraction(x, p) for x in half] for half, p in _inverse_rows(matrix)]


def float_inverse(matrix):
    """``inverse`` rounded to floats, each entry once: num / pivot.

    Int true division is correctly rounded, so every entry is
    ``float(Fraction(num, pivot))`` bit for bit, with no Fraction made.
    """
    return [[x / p for x in half] for half, p in _inverse_rows(matrix)]
