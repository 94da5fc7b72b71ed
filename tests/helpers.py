"""Shared builders for the test suite."""

import importlib.util
import os
import random
import sys
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm
from operator import add, mul

from leibrack import linalg
from leibrack.algebra import ZERO, Element, Endomorphism, LeibnizAlgebra, hemi_semi_direct
from leibrack.corpus import CORPUS_NAMES, load_corpus
from leibrack.observables import Covector, PolyObservable
from leibrack.racks import PairElement, bass_product, exp_action, exp_ad, hs_rack_product
from leibrack.reports import check_law, samples
from leibrack.sampling import rational_vector


def checked_fraction(pair):
    """The value of a valid ``[numerator, denominator]`` pair, else None.

    The pair check of ``io.algebra_from_dict`` on its own: two ints
    (``type(x) is int`` also rejects bool), a positive denominator, lowest
    terms.  Every zero is ``algebra.ZERO``, the zero of every built table.
    """
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        num, den = pair
        if type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1:
            return Fraction(num, den) if num else ZERO
    return None


def reference_sparse(alg):
    """The Fraction index of ``alg.table``, built from the dense table alone.

    For each i, the ``(j, ((k, c), ...))`` with [e_i, e_j] nonzero, both
    indices ascending, c the table entry.
    """
    return tuple(
        tuple(
            (j, tuple((k, c) for k, c in enumerate(row) if c != 0))
            for j, row in enumerate(plane)
            if any(c != 0 for c in row)
        )
        for plane in alg.table
    )


def reference_bracket_coords(alg, x, y):
    """[x, y] summed on the dense Fraction table, nonzero terms only.

    Each term c·x_i·y_j is added in table order (i, j, k ascending) onto an
    int 0, as the sparse kernels visit them, so float x and y give the bits
    of the Fraction table.
    """
    out = [0] * alg.dim
    for xi, plane in zip(x, alg.table):
        if xi == 0:
            continue
        for yj, row in zip(y, plane):
            if yj == 0:
                continue
            w = xi * yj
            for k, c in enumerate(row):
                if c != 0:
                    out[k] = out[k] + w * c
    return out


def sparse_int_rows(matrix):
    """The rows of a dense matrix in the row format of ``linalg.nullspace``.

    Each row is scaled by the lcm of its denominators (a pure int row by 1)
    and returned as a dict ``{column: int}`` of its nonzero entries; scaling
    a row keeps the row space.
    """
    rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        rows.append({j: x.numerator * (d // x.denominator) for j, x in enumerate(row) if x})
    return rows


def make_table(dim, entries):
    """Build a dense structure-constant table from a sparse description.

    ``entries`` maps a 0-based pair ``(i, j)`` to a dict ``{k: value}`` giving
    the coordinates of the bracket of the i-th and j-th basis vectors.
    """
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in entries.items():
        for k, value in comps.items():
            table[i][j][k] = Fraction(value)
    return table


def build_hs1_nilpotentized():
    """Nilpotent cousin of the hs1 corpus algebra.

    A one-dimensional abelian Lie algebra acts on a two-dimensional module
    through the nilpotent Jordan block, and the hemi-semi-direct product
    glues them into a three-dimensional Leibniz algebra with the single
    bracket [e3, e2] = e1.
    """
    line = LeibnizAlgebra(make_table(1, {}), basis=("g1",), name="line")
    action = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]]
    return hemi_semi_direct(line, action, 2, name="hs1-nilpotentized")


def sl2_module_action():
    """The defining action of sl2 on column vectors of length two."""
    rho_h = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    rho_e = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    rho_f = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    return [rho_h, rho_e, rho_f]


def n_k(k):
    """Strictly upper-triangular k x k matrices under the commutator.

    Dimension k(k-1)/2, nilpotency class k-1; basis E_ij (i < j) ordered by
    superdiagonal level j - i, then by i.
    """
    basis = [(i, i + d) for d in range(1, k) for i in range(k - d)]
    index = {pair: a for a, pair in enumerate(basis)}
    entries = {}
    # [E_ij, E_pq] = delta_jp E_iq - delta_qi E_pj
    for a, (i, j) in enumerate(basis):
        for b, (p, q) in enumerate(basis):
            comps = {}
            if j == p:
                comps[index[(i, q)]] = comps.get(index[(i, q)], 0) + 1
            if q == i:
                comps[index[(p, j)]] = comps.get(index[(p, j)], 0) - 1
            if comps:
                entries[(a, b)] = comps
    names = [f"E{i + 1}_{j + 1}" for i, j in basis]
    return LeibnizAlgebra(make_table(len(basis), entries), basis=names, name=f"n{k}")


def rebase(algebra, g, name=""):
    """The same algebra in the basis given by the columns of the invertible g."""
    n = algebra.dim
    g_inv = linalg.inverse(g)
    table = []
    for a in range(n):
        col_a = [g[r][a] for r in range(n)]
        plane = []
        for b in range(n):
            col_b = [g[r][b] for r in range(n)]
            plane.append(linalg.mat_vec(g_inv, reference_bracket_coords(algebra, col_a, col_b)))
        table.append(plane)
    return LeibnizAlgebra(table, name=name)


def random_invertible(rng, n):
    """A seeded invertible rational matrix with small, mostly nonzero entries."""
    while True:
        g = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.det(g) != 0:
            return g


def sample_invertible_matrix(rng, n):
    """A random rational matrix redrawn until it is invertible."""
    while True:
        m = [rational_vector(rng, n) for _ in range(n)]
        if linalg.det(m) != 0:
            return m


def sample_vectors(rng, dim, count):
    return [rational_vector(rng, dim) for _ in range(count)]


def load_all_corpus():
    return {name: load_corpus(name) for name in CORPUS_NAMES}


def sl2_semidirect(sl2, m):
    """sl2 acting on binary forms of degree m (dim m + 1), glued hemi-semi-directly.

    v_k = x^(m-k) y^k with e = x d/dy, f = y d/dx, h = x d/dx - y d/dy; the
    action matrices hold images in their columns.
    """
    d = m + 1

    def matrix(images):
        mat = [[Fraction(0)] * d for _ in range(d)]
        for col, (row, value) in images.items():
            mat[row][col] = Fraction(value)
        return mat

    ops = {
        "h": matrix({k: (k, m - 2 * k) for k in range(d)}),
        "e": matrix({k: (k - 1, k) for k in range(1, d)}),
        "f": matrix({k: (k + 1, m - k) for k in range(d - 1)}),
    }
    action = [ops[name] for name in sl2.basis]
    return hemi_semi_direct(sl2, action, d, name=f"sl2xV{m}")


def reference_evaluate_word_table(table, x, y, order):
    """The BCH word sum as a memoised loop over Elements, word by word.

    Sum c_w/|w| [w_1,[w_2,[..]]] over table words of degree <= order; a word
    whose suffix evaluates to zero is zero, so its bracket is never taken.
    Every bracket reads the Fraction table (``reference_bracket_coords``),
    in float mode too, and every sum is a Fraction or float Element sum.
    """
    alg = x.algebra
    values = (x, y)
    memo = {}

    def nested(word):
        if word in memo:
            return memo[word]
        if len(word) == 1:
            value = values[word[0]]
        else:
            inner = nested(word[1:])
            value = None if inner is None else Element(
                alg, reference_bracket_coords(alg, values[word[0]].coords, inner.coords), x.mode
            )
        if value is not None and value.is_zero():
            value = None
        memo[word] = value
        return value

    total = alg.zero(x.mode)
    for word, coeff in table.items():
        if len(word) > order:
            continue
        term = nested(word)
        if term is not None:
            total = total + (coeff / len(word)) * term
    return total


def reference_morphism_residual(algebra, a):
    """Largest defect of a[x,y] = [ax, ay] over basis pairs, by the dense n^5 sum.

    The oracle for the sparse ``bracket_defects`` kernel, and the bracket half
    of the automorphism checks in the tests.
    """
    n = algebra.dim
    c = algebra.table
    worst = 0
    for i in range(n):
        for j in range(n):
            for m in range(n):
                rhs = sum(
                    a[p][i] * a[q][j] * c[p][q][m]
                    for p in range(n)
                    for q in range(n)
                    if c[p][q][m] != 0
                )
                lhs = sum(c[i][j][l] * a[m][l] for l in range(n))
                worst = max(worst, abs(lhs - rhs))
    return worst


def reference_derivation_residual(endo):
    """Largest defect of D[x,y] = [Dx,y] + [x,Dy] over basis pairs, by the dense n^4 sum.

    The oracle for ``derivation_algebra``: D is a derivation exactly when
    the residual is 0.
    """
    n = endo.algebra.dim
    c = endo.algebra.table
    d = endo.matrix
    worst = 0
    for i in range(n):
        for j in range(n):
            for m in range(n):
                r = sum(
                    c[i][j][l] * d[m][l] - d[l][i] * c[l][j][m] - d[l][j] * c[i][l][m]
                    for l in range(n)
                )
                worst = max(worst, abs(r))
    return worst


def dense_derivation_rows(alg):
    """The nonzero rows of the linear system D[e_i,e_j] = [De_i,e_j] + [e_i,De_j]."""
    n = alg.dim
    c = alg.table
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for l in range(n):
                    row[m * n + l] += c[i][j][l]
                    row[l * n + i] -= c[l][j][m]
                    row[l * n + j] -= c[i][l][m]
                if any(row):
                    rows.append(row)
    return rows


def reference_derivation_rows(int_sparse):
    """The derivation system's sparse int rows by the (i, j, m) loop over all n^3 triples.

    The former ``algebra._derivation_rows``, kept as the oracle for the one
    that visits each nonzero constant once.  Yields, for every triple whose
    identity has a term, the dict ``{column: coefficient}`` of ``scale``
    times the m-th entry of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], with
    D[m][l] at m * n + l.
    """
    n = len(int_sparse)
    # With c = c[p][q][m] != 0: left[q][m] holds (p, c) and right[p][m] holds (q, c).
    left = [[[] for _ in range(n)] for _ in range(n)]
    right = [[[] for _ in range(n)] for _ in range(n)]
    for p, plane in enumerate(int_sparse):
        for q, entries in plane:
            for m, c in entries:
                left[q][m].append((p, c))
                right[p][m].append((q, c))
    for i in range(n):
        brackets = dict(int_sparse[i])
        for j in range(n):
            bracket = brackets.get(j, ())
            for m in range(n):
                if not (bracket or left[j][m] or right[i][m]):
                    continue
                row = {}
                terms = [(m * n + l, c) for l, c in bracket]
                terms += [(l * n + i, -c) for l, c in left[j][m]]
                terms += [(l * n + j, -c) for l, c in right[i][m]]
                for col, c in terms:
                    row[col] = row.get(col, 0) + c
                yield row


def reference_nilpotency_class(algebra):
    """The descending chain V_{k+1} = span [e_i, V_k] on Fraction brackets.

    The former ``LeibnizAlgebra.nilpotency_class``, with ``reference_rref``
    for its echelon step, kept as the oracle for the int chain.
    """
    units = linalg.identity_matrix(algebra.dim)
    level = units
    k = 1
    while level:
        images = [reference_bracket_coords(algebra, unit, w) for unit in units for w in level]
        images = [img for img in images if any(img)]
        nxt = reference_rref(images)[0] if images else []
        if len(nxt) >= len(level):
            return None
        if not nxt:
            return k
        level = nxt
        k += 1
    return 0


def reference_left_center_rows(algebra):
    """The left center as Fraction Gauss-Jordan on the dense rows c[.][j][k]."""
    n = algebra.dim
    c = algebra.table
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return reference_nullspace(rows, cols=n)


def reference_derivations(algebra):
    """(vec(D) of the reduced-echelon basis of der(h), dim of the inner part).

    Fraction Gauss-Jordan on the dense derivation system and on the flattened
    ad_{e_i}.
    """
    n = algebra.dim
    basis = reference_nullspace(dense_derivation_rows(algebra), cols=n * n)
    ads = [algebra.ad(algebra.basis_element(i)).matrix for i in range(n)]
    inner = reference_rref([[x for row in ad for x in row] for ad in ads])[0]
    return basis, len(inner)


# -- reference extension checks -------------------------------------------------
# The Element-per-basis-triple loops kept as the oracle for the direct kernels
# in leibrack.extension.  They read the same ExtensionData (section, omega,
# center rows), so a corrupted table shows in both.


def perturb_omega(ext, a, b, delta):
    """Add the n values ``delta`` to omega(e_a, e_b), writing through ``ext.int_omega``."""
    table = [list(row) for row in ext.omega_table]  # never write into a table ext holds
    table[a][b] = [c + d for c, d in zip(table[a][b], delta)]
    dw = lcm(*(Fraction(c).denominator for row in table for cell in row for c in cell))
    cells = [
        [[(k, int(c * dw)) for k, c in enumerate(cell) if c] for cell in row] for row in table
    ]
    ext.int_omega = cells, dw


def reference_omega(ext, x, y):
    """omega(x, y) on quotient elements: the bilinear extension of ``int_omega``."""
    cells, dw = ext.int_omega
    coords = [0] * ext.algebra.dim
    for xa, row in zip(x.coords, cells):
        if xa == 0:
            continue
        for yb, cell in zip(y.coords, row):
            if yb == 0:
                continue
            w = xa * yb
            for k, c in cell:
                coords[k] = coords[k] + w * Fraction(c, dw)
    return Element(ext.algebra, coords, x.mode)


def reference_cocycle_identity_violations(ext):
    quot = ext.quotient
    violations = []
    basis = quot.basis_elements()
    for a, x in enumerate(basis):
        sx = ext.section(x)
        for b, y in enumerate(basis):
            sy = ext.section(y)
            for c, z in enumerate(basis):
                term1 = ext.algebra.bracket(sx, reference_omega(ext, y, z))
                term2 = ext.algebra.bracket(sy, reference_omega(ext, x, z))
                term3 = reference_omega(ext, quot.bracket(x, y), z)
                term4 = reference_omega(ext, x, quot.bracket(y, z))
                term5 = reference_omega(ext, y, quot.bracket(x, z))
                residual = term1 - term2 - term3 + term4 - term5
                if not residual.is_zero():
                    violations.append(((a, b, c), residual.coords))
    return violations


def reference_reconstruction_violations(ext):
    alg = ext.algebra
    quot = ext.quotient
    violations = []
    center_elements = [Element(alg, row) for row in ext.center.basis_rows] + [alg.zero()]
    for i, x in enumerate(quot.basis_elements()):
        sx = ext.section(x)
        for j, y in enumerate(quot.basis_elements()):
            sy = ext.section(y)
            for a in center_elements:
                for b in center_elements:
                    lhs = alg.bracket(sx + a, sy + b)
                    rhs = ext.section(quot.bracket(x, y)) - reference_omega(ext, x, y)
                    rhs = rhs + alg.bracket(sx, b)
                    if lhs != rhs:
                        violations.append(((i, j), (lhs - rhs).coords))
    return violations


# The same two laws as plain sums over the dense tables of h and q, the omega
# cells and the center rows: no sparse view, no section or omega method.


def _dense_sum(terms):
    return sum(terms, Fraction(0))


def _dense_bracket(table, u, v):
    n = len(table)
    return [
        _dense_sum(u[p] * v[r] * table[p][r][k] for p in range(n) for r in range(n))
        for k in range(n)
    ]


def dense_cocycle_identity_violations(ext):
    c, cq, w = ext.algebra.table, ext.quotient.table, ext.omega_table
    n, q, lift = ext.algebra.dim, ext.quotient.dim, ext.complement
    violations = []
    for a in range(q):
        for b in range(q):
            for z in range(q):
                # x.omega(y, z) - y.omega(x, z)
                #   - omega([x, y], z) + omega(x, [y, z]) - omega(y, [x, z])
                residual = tuple(
                    _dense_sum(w[b][z][l] * c[lift[a]][l][k] for l in range(n))
                    - _dense_sum(w[a][z][l] * c[lift[b]][l][k] for l in range(n))
                    - _dense_sum(cq[a][b][d] * w[d][z][k] for d in range(q))
                    + _dense_sum(cq[b][z][d] * w[a][d][k] for d in range(q))
                    - _dense_sum(cq[a][z][d] * w[b][d][k] for d in range(q))
                    for k in range(n)
                )
                if any(residual):
                    violations.append(((a, b, z), residual))
    return violations


def dense_reconstruction_violations(ext):
    c, cq, w = ext.algebra.table, ext.quotient.table, ext.omega_table
    n, q = ext.algebra.dim, ext.quotient.dim
    centers = [list(row) for row in ext.center.basis_rows] + [[Fraction(0)] * n]

    def section(coords):
        out = [Fraction(0)] * n
        for k, x in zip(ext.complement, coords):
            out[k] = x
        return out

    violations = []
    for i in range(q):
        si = section([int(m == i) for m in range(q)])
        for j in range(q):
            sj = section([int(m == j) for m in range(q)])
            s_bracket = section(cq[i][j])
            for a in centers:
                for b in centers:
                    # [s(x) + a, s(y) + b] = s([x, y]) - omega(x, y) + [s(x), b]
                    lhs = _dense_bracket(c, linalg.vec_add(si, a), linalg.vec_add(sj, b))
                    act = _dense_bracket(c, si, b)
                    rhs = [s - x + y for s, x, y in zip(s_bracket, w[i][j], act)]
                    residual = tuple(x - y for x, y in zip(lhs, rhs))
                    if any(residual):
                        violations.append(((i, j), residual))
    return violations


# -- reference eliminations over Fraction -------------------------------------
# Plain Fraction Gauss(-Jordan) and Lagrange congruence, kept as the oracle for
# the integer kernels in leibrack.linalg.


def reference_rref(matrix):
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


def reference_nullspace(matrix, cols=None):
    """Right nullspace read off the Fraction rref, then put in echelon form."""
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    if not matrix:
        return [r[:] for r in linalg.identity_matrix(cols)]
    reduced, pivots = linalg.rref(matrix)
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
    return linalg.rref(basis)[0]


def reference_det(matrix):
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


def reference_inverse(matrix):
    n = len(matrix)
    a = [[Fraction(x) for x in row] + irow for row, irow in zip(matrix, linalg.identity_matrix(n))]
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


def reference_symmetric_signature(matrix):
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


def reference_inertia_and_det(matrix):
    """Inertia (n_plus, n_minus, n_zero) and determinant of an exact symmetric matrix.

    Congruence diagonalization in the style of Lagrange's method: symmetric
    row/column operations, with the classic fix-up (add row+column j into
    row+column k) whenever the whole remaining diagonal vanishes.  Plain
    LDL would break on a zero leading pivot.  It runs on A = D * matrix, D
    the common denominator, which has the same inertia, and updates the
    active block by the Bareiss step a_ij <- (d a_ij - a_ik a_kj) // prev;
    the LDL pivot is then d / prev.

    A symmetric swap and the fix-up are congruences of determinant 1, so
    the Bareiss invariants hold across them and the last pivot is det(A):
    ``det(matrix)`` is that pivot over D**n, or 0 once a zero row is dropped.
    Returns ``((n_plus, n_minus, n_zero), det)``.  The oracle for
    ``quantize.hessian_check``, which reads both off the block structure.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    common = lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (common // x.denominator) for x in row] for row in rows]
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
    determinant = Fraction(0) if n_zero else Fraction(prev, common ** n)
    return (n_plus, n_minus, n_zero), determinant


# -- reference observable algebra ----------------------------------------------
# The object-per-factor PolyObservable products kept as the oracle for the
# one-dict kernels in leibrack.observables and leibrack.quantize: every
# intermediate is a _ReferencePoly whose constructor re-sums and re-sorts.


class _ReferencePoly:
    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        cleaned = {}
        for exponents, coeff in (terms or {}).items():
            if coeff != 0:
                key = tuple(int(e) for e in exponents)
                cleaned[key] = cleaned.get(key, 0) + coeff
        self.terms = {k: v for k, v in sorted(cleaned.items()) if v != 0}

    @classmethod
    def of(cls, poly):
        return cls(poly.nvars, poly.terms)

    def to_observable(self):
        return PolyObservable(self.nvars, self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return _ReferencePoly(self.nvars, terms)

    def __rmul__(self, coeff):
        return _ReferencePoly(self.nvars, {k: coeff * v for k, v in self.terms.items()})

    def __mul__(self, other):
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                terms[key] = terms.get(key, 0) + va * vb
        return _ReferencePoly(self.nvars, terms)

    def partial(self, i):
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + coeff * exps[i]
        return _ReferencePoly(self.nvars, terms)


def _reference_unit(n, i):
    return _ReferencePoly(n, {tuple(1 if t == i else 0 for t in range(n)): Fraction(1)})


def reference_poly_mul(f, g):
    return (_ReferencePoly.of(f) * _ReferencePoly.of(g)).to_observable()


def reference_substitute_linear(f, forms):
    n = f.nvars
    linears = [
        _ReferencePoly(n, {
            tuple(1 if j == t else 0 for t in range(n)): c for j, c in enumerate(form) if c != 0
        })
        for form in forms
    ]
    result = _ReferencePoly(n)
    for exps, coeff in f.terms.items():
        term = coeff * _ReferencePoly(n, {(0,) * n: Fraction(1)})
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * linears[i]
        result = result + term
    return result.to_observable()


def reference_poisson_bracket(algebra, f, g):
    n = algebra.dim
    grad0 = [f.terms.get(tuple(1 if t == i else 0 for t in range(n)), Fraction(0))
             for i in range(n)]
    partials = [_ReferencePoly.of(g).partial(j) for j in range(n)]
    result = _ReferencePoly(n)
    for a_i, plane in zip(grad0, reference_sparse(algebra)):
        if a_i == 0:
            continue
        for j, row in plane:
            if not partials[j].terms:
                continue
            for k, c in row:
                result = result + (c * a_i) * (partials[j] * _reference_unit(n, k))
    return result.to_observable()


# -- reference exponential series ------------------------------------------------
# One loop per series, each with its own factorial weights and stopping rule,
# kept as the oracle for the block exponentials in leibrack.racks.


def reference_rack_cocycle_series(ext, x, y, order, sign=-1):
    """sign/(p+q+1)! * ad_{s(x)}^p omega(x, ad_x^q y), p+q+1 <= order, by Elements."""
    if order < 1:
        raise ValueError("order must be at least 1")
    alg, quot = ext.algebra, ext.quotient
    ad_q = quot.ad(x)
    ad_h = alg.ad(ext.section(x))
    total = alg.zero(x.mode)
    inner = y
    for q in range(order):
        if q:
            inner = ad_q(inner)
        vec = reference_omega(ext, x, inner)
        for p in range(order - q):
            k = p + q + 1
            total = total + (Fraction(sign, factorial(k)) * vec)
            vec = ad_h(vec)
    return total


def reference_rack_cocycle_exact(ext, x, y):
    """The section defect s(x) > s(y) - s(x > y) by Element rack products."""
    return bass_product(ext.section(x), ext.section(y)) - ext.section(bass_product(x, y))


def cocycle_extension(seed=1):
    """A left Leibniz table with omega != 0 whose left center is not central.

    The construction of the paper's section 3 on q = n_3, acting on column
    vectors V of length 3: for omega in ZL^2(q, V), the exact nullspace of

        x.omega(y, z) - y.omega(x, z) + omega(x, [y, z]) - omega([x, y], z)
          - omega(y, [x, z]) = 0,

    h = V + q with [(u, x), (v, y)] = (x v + omega(x, y), [x, y]) is left
    Leibniz, its left center is V (coordinates 0-2; q takes 3-5), and
    [s(x), v] = x v is not 0 on V.  omega is a combination of the nullspace
    basis with seeded coefficients in [-2, 2].
    """
    q = n_k(3)
    m, dv = q.dim, 3
    units = [(i, i + d) for d in range(1, 3) for i in range(3 - d)]  # n_k's basis order

    def unknown(a, b, k):
        """The column of omega(e_a, e_b)_k."""
        return (a * m + b) * dv + k

    rows = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for k in range(dv):
                    row = {}
                    # x.omega(y, z) - y.omega(x, z), with (E_ij v)_k = v_j at k = i
                    for sign, first, rest in ((1, a, b), (-1, b, a)):
                        i, j = units[first]
                        if k == i:
                            col = unknown(rest, c, j)
                            row[col] = row.get(col, 0) + sign
                    # omega(x, [y, z]) - omega([x, y], z) - omega(y, [x, z])
                    for sign, (u, w), slot in ((1, (b, c), lambda d: (a, d)),
                                               (-1, (a, b), lambda d: (d, c)),
                                               (-1, (a, c), lambda d: (b, d))):
                        for d, coef in enumerate(q.table[u][w]):
                            if coef:
                                col = unknown(*slot(d), k)
                                row[col] = row.get(col, 0) + sign * int(coef)  # n_3 has int constants
                    row = {col: v for col, v in row.items() if v}
                    if row:
                        rows.append(row)
    basis = linalg.nullspace(rows, cols=m * m * dv)
    rng = random.Random(seed)
    coeffs = [rng.randint(-2, 2) for _ in basis]
    omega = [sum((c * vec[i] for c, vec in zip(coeffs, basis)), Fraction(0)) for i in range(m * m * dv)]
    n = dv + m
    entries = {}
    for a in range(m):
        i, j = units[a]
        entries[(dv + a, j)] = {i: 1}  # [s(E_ij), v_j] = E_ij v_j = v_i
        for b in range(m):
            comps = {t: omega[unknown(a, b, t)] for t in range(dv) if omega[unknown(a, b, t)]}
            comps.update({dv + d: c for d, c in enumerate(q.table[a][b]) if c})
            if comps:
                entries[(dv + a, dv + b)] = comps
    names = [f"v{k + 1}" for k in range(dv)] + list(q.basis)
    return LeibnizAlgebra(make_table(n, entries), basis=names, name=f"zl2-n3-seed{seed}")


def reference_generating_series_terms(x, y, xi, order=12):
    """<xi, ad_x^k y>/k! by repeated ad; exact stops when the powers vanish."""
    alg = x.algebra
    ad = alg.ad(x)
    exact = x.mode == "exact"
    terms = []
    current = y
    k = 0
    while True:
        weight = Fraction(1, factorial(k)) if exact else 1.0 / factorial(k)
        terms.append(weight * xi.pair(current))
        current = ad(current)
        k += 1
        if exact:
            if current.is_zero():
                break
            if k > alg.dim:
                raise ValueError("exact series needs a nilpotent ad; use float mode")
        elif k > order:
            break
    return terms


def reference_generating_gradients(x, y, xi, order=12):
    """The three gradients of <xi, exp(ad_x) y>, d/dx by dense powers of ad_x."""
    alg = x.algebra
    n = alg.dim
    exact = x.mode == "exact"
    exp_mat = exp_ad(x, order).matrix
    d_xi = alg.element(linalg.mat_vec(exp_mat, list(y.coords)), x.mode)
    d_y = Covector(alg, linalg.vec_mat(list(xi.coords), exp_mat), xi.mode)
    ad_x = alg.ad(x).matrix
    bound = n if exact else order
    powers = [linalg.identity_matrix(n, x.mode)]
    for _ in range(bound):
        powers.append(linalg.mat_mul(powers[-1], ad_x))
    d_x_entries = []
    for i in range(n):
        ad_ei = alg.ad(alg.basis_element(i, x.mode)).matrix
        total = 0
        for p in range(bound):
            mid = linalg.vec_mat(linalg.vec_mat(list(xi.coords), powers[p]), ad_ei)
            for q in range(bound - p):
                k = p + q + 1
                value = linalg.vec_dot(linalg.vec_mat(mid, powers[q]), list(y.coords))
                if value != 0:
                    weight = Fraction(1, factorial(k)) if exact else 1.0 / factorial(k)
                    total = total + weight * value
        d_x_entries.append(total)
    d_x = Covector(alg, d_x_entries, xi.mode)
    return {"x": d_x, "y": d_y, "xi": d_xi}


def _reference_truncated_product(a, b, max_degree):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > max_degree:
                continue
            key = wa + wb
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def reference_log_word_table():
    """``bch.log_word_table`` built on Fractions, one normalisation per term."""
    from leibrack.bch import MAX_ORDER, WordTable, _suffix_tree

    series = {}
    for p in range(MAX_ORDER + 1):
        for q in range(MAX_ORDER + 1 - p):
            if p + q == 0:
                continue
            series[(0,) * p + (1,) * q] = Fraction(1, factorial(p) * factorial(q))
    table = {}
    power = {(): Fraction(1)}
    sign = 1
    for m in range(1, MAX_ORDER + 1):
        power = _reference_truncated_product(power, series, MAX_ORDER)
        for word, coeff in power.items():
            table[word] = table.get(word, Fraction(0)) + Fraction(sign, m) * coeff
        sign = -sign
    words = WordTable(
        (w, c) for w, c in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])) if c != 0
    )
    words.tree = _suffix_tree(words)
    return words


# -- reference exact exponentials ------------------------------------------------
# The Fraction paths that exact bass_product, coadjoint, exp_endo and
# quantum_rack_action took before the int kernel: exp_action on Fraction
# vectors, the matrix exponential column by column, and the object-per-factor
# pullback.  Kept as the oracle for racks.exact_exp_action and its callers.


def reference_bass_product(x, y):
    """exp(ad_x) y by ``exp_action`` on Fraction brackets."""
    alg = x.algebra
    return Element(alg, exp_action(lambda v: reference_bracket_coords(alg, x.coords, v), y.coords))


def reference_dual_bracket(algebra, x, xi):
    """The covector xi o ad_x on the Fraction table: entry j is xi([x, e_j])."""
    out = [0] * algebra.dim
    for xa, plane in zip(x, reference_sparse(algebra)):
        if xa == 0:
            continue
        for j, row in plane:
            for k, c in row:
                out[j] = out[j] + xa * c * xi[k]
    return out


def reference_coadjoint(x, xi):
    """xi o exp(-ad_x) by ``exp_action`` on Fraction dual brackets."""
    alg = x.algebra
    neg = [-c for c in x.coords]
    return Covector(alg, exp_action(lambda v: reference_dual_bracket(alg, neg, v), xi.coords))


def reference_exp_endo(endo):
    """The exact exponential of an endomorphism, one Fraction ``exp_action`` per column."""
    entries = [[(j, a) for j, a in enumerate(row) if a != 0] for row in endo.matrix]

    def apply(v):
        return [sum(a * v[j] for j, a in row if v[j]) for row in entries]

    units = linalg.identity_matrix(endo.algebra.dim)
    columns = [exp_action(apply, unit) for unit in units]
    return Endomorphism(endo.algebra, [list(row) for row in zip(*columns)])


def reference_quantum_rack_action(x, observable):
    """The pullback along xi -> xi o exp(ad_x) with Fraction forms, factor by factor."""
    mat = reference_exp_endo(x.algebra.ad(x)).matrix
    forms = [list(column) for column in zip(*mat)]
    return reference_substitute_linear(observable, forms)


def reference_conjugation_residual(z, x):
    """(a @ exp(ad_x) @ a^-1).distance(exp(ad_{a(x)})), a = exp(ad_z), on matrices."""
    alg = z.algebra
    a = reference_exp_endo(alg.ad(z))
    exp_x = reference_exp_endo(alg.ad(x))
    return (a @ exp_x @ a.inverse()).distance(reference_exp_endo(alg.ad(a(x))))


def reference_rh_product(a, b):
    """(x, A) > (y, B) = (A y, A B A^-1) on (Element, Endomorphism) pairs.

    Computed through the Endomorphism operators, with the float inverse
    rounded from the exact one; the reference for ``racks.hs_rack_product``
    on the points of ``racks.rh_embed``.
    """
    (_, aut_a), (y, aut_b) = a, b
    return aut_a(y), aut_a @ aut_b @ aut_a.inverse()


def mat_add(a, b):
    return [linalg.vec_add(ra, rb) for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [linalg.vec_sub(ra, rb) for ra, rb in zip(a, b)]


def vec_scale(c, v):
    return [c * a for a in v]


def mat_scale(c, a):
    return [vec_scale(c, row) for row in a]


def reference_mat_mul(a, b):
    """``linalg.mat_mul`` as a left fold per entry, whatever the input."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col), 0) for col in cols] for row in a]


def reference_exp_endo_float(matrix, order):
    """The float Taylor loop of ``racks.exp_endo`` on dense products, as a matrix.

    For finite input only: the scaling loop never ends on an infinite norm.
    """
    n = len(matrix)
    norm = linalg.mat_norm_1(matrix)
    squarings = 0
    while norm > 1.0:
        norm /= 2.0
        squarings += 1
    scaled = mat_scale(1.0 / (1 << squarings), matrix) if squarings else matrix
    scaled = [[float(x) for x in row] for row in scaled]
    total = linalg.identity_matrix(n, linalg.FLOAT)
    power = linalg.identity_matrix(n, linalg.FLOAT)
    for k in range(1, order + 1):
        power = mat_scale(1.0 / k, reference_mat_mul(power, scaled))
        total = mat_add(total, power)
    for _ in range(squarings):
        total = reference_mat_mul(total, total)
    return total


# The samplers as they drew before the shared rationals of ``sampling.RATIONALS``:
# a new ``Fraction(randint, choice)`` per coordinate, always times ``scale``.


def reference_rational_vector(rng, dim):
    return [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]


def reference_sample_elements(algebra, count, seed, mode=linalg.EXACT, scale=Fraction(1)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = [scale * c for c in reference_rational_vector(rng, algebra.dim)]
        element = algebra.element(coords)
        out.append(element.to_float() if mode == "float" else element)
    return out


def reference_sample_observables(algebra, count, seed, max_degree=3):
    rng = random.Random(seed)
    n = algebra.dim
    out = []
    for _ in range(count):
        poly = PolyObservable.zero(n)
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            poly = poly + PolyObservable(
                n, {tuple(exps): Fraction(rng.randint(-3, 3), rng.choice((1, 2)))}
            )
        out.append(poly)
    return out


def load_bench_gen():
    """``bench/gen.py`` as a module, read from its file without writing bytecode beside it."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(path, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def reference_ad(algebra, coords):
    """ad_x summed on the dense Fraction ``table``: entry (k, j) is sum_i x_i c[i][j][k]."""
    n, c = algebra.dim, algebra.table
    return [
        [sum((coords[i] * c[i][j][k] for i in range(n)), Fraction(0)) for j in range(n)]
        for k in range(n)
    ]


def reference_int_exp_columns(matrix):
    """The columns of ``reference_exp_endo`` of a matrix, times their least common denominator."""
    n = len(matrix)
    exp = reference_exp_endo(Endomorphism(LeibnizAlgebra(make_table(n, {})), matrix)).matrix
    den = lcm(*(a.denominator for row in exp for a in row))
    return [[int(row[j] * den) for row in exp] for j in range(n)], den


# -- linear digroups -------------------------------------------------------------
# Kinyon, "Leibniz algebras, Lie racks, and digroups", J. Lie Theory 17 (2007):
# the carrier is the set of (vector, invertible matrix) pairs with
#
#     (u, g) |- (v, h) = (g v, g h)        (left product)
#     (u, g) -| (v, h) = (u, g h)          (right product)
#     (u, g)^-1 = (0, g^-1),  bar unit 1 = (0, I),
#
# and conjugation x |- y -| x^-1 lands back on the conjugation rack for pairs.
# No CLI command runs it; acceptance criterion 10 and tests/test_digroup.py do.


def dig_left(a, b):
    return PairElement(
        linalg.mat_vec(a.matrix, list(b.vector)), linalg.mat_mul(a.matrix, b.matrix)
    )


def dig_right(a, b):
    return PairElement(a.vector, linalg.mat_mul(a.matrix, b.matrix))


def dig_inverse(a):
    return PairElement([0 * v for v in a.vector], linalg.inverse(a.matrix))


def dig_unit(dim):
    return PairElement([Fraction(0)] * dim, linalg.identity_matrix(dim))


def digroup_rack_product(a, b):
    """x > y = x |- y -| x^-1."""
    return dig_right(dig_left(a, b), dig_inverse(a))


def digroup_axiom_violations(triples, tol=0):
    """Check the digroup laws on sampled triples of pair elements.

    Covers: both products associative, the three mixed compatibility laws,
    the bar-unit laws 1 |- x = x = x -| 1, and one-sided inverses
    x |- x^-1 = 1 = x^-1 -| x.
    """

    def laws(triple):
        x, y, z = triple
        unit = dig_unit(len(x.vector))
        sides = {
            "left-associative": (dig_left(x, dig_left(y, z)), dig_left(dig_left(x, y), z)),
            "right-associative": (dig_right(x, dig_right(y, z)), dig_right(dig_right(x, y), z)),
            "mixed-left-over-right": (dig_left(x, dig_right(y, z)), dig_right(dig_left(x, y), z)),
            "mixed-right-absorbs": (dig_right(x, dig_left(y, z)), dig_right(x, dig_right(y, z))),
            "mixed-left-ignores": (dig_left(dig_right(x, y), z), dig_left(dig_left(x, y), z)),
            "bar-unit-left": (dig_left(unit, x), x),
            "bar-unit-right": (dig_right(x, unit), x),
            "inverse-left": (dig_left(x, dig_inverse(x)), unit),
            "inverse-right": (dig_right(dig_inverse(x), x), unit),
            "rack-matches-conjugation": (digroup_rack_product(x, y), hs_rack_product(x, y)),
        }
        return {axiom: got.distance(want) for axiom, (got, want) in sides.items()}

    return check_law("digroup-axioms", samples(triples), laws, tol)
