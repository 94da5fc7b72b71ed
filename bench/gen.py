"""Seeded input generators for the benchmark workloads.

Every generator is pure standard library plus the public ``leibrack`` API,
so it can run in the timed worker without pulling numpy in.  The numpy
self-checks live in ``oracle.py``.

* ``n_k``: strictly upper-triangular k x k matrices under the commutator,
  dim k(k-1)/2, nilpotency class k-1.  Basis E_ij (i < j) ordered by
  superdiagonal level, so the table is upper-triangular in the lower central
  series.
* ``rebase``: the same algebra after a random invertible rational change of
  basis g, table c'(a, b) = g^-1 [g e_a, g e_b].  Same algebra, dense table.
* ``sl2_irrep``: sl2 acting on homogeneous polynomials of degree m in x, y
  (e = x d/dy, f = y d/dx, h = x d/dx - y d/dy), glued by
  ``leibrack.algebra.hemi_semi_direct``, which rejects a non-representation.
"""

import random
from fractions import Fraction

from leibrack import linalg
from leibrack.algebra import LeibnizAlgebra, hemi_semi_direct


def upper_triangular_basis(k):
    """Index pairs (i, j), i < j, ordered by level j - i, then by i."""
    return [(i, i + d) for d in range(1, k) for i in range(k - d)]


def n_k(k):
    basis = upper_triangular_basis(k)
    index = {pair: a for a, pair in enumerate(basis)}
    n = len(basis)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    for a, (i, j) in enumerate(basis):
        for b, (p, q) in enumerate(basis):
            if j == p:
                table[a][b][index[(i, q)]] += 1
            if q == i:
                table[a][b][index[(p, j)]] -= 1
    names = [f"E{i + 1}_{j + 1}" for i, j in basis]
    return LeibnizAlgebra(table, basis=names, name=f"n{k}")


def random_basis_change(rng, n, num=2, den=2):
    """A random invertible rational n x n matrix, entries num/den-bounded."""
    while True:
        g = [
            [Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
        if linalg.det(g) != 0:
            return g


def rebase(algebra, g, name):
    """Structure constants of ``algebra`` in the basis given by the columns of g."""
    n = algebra.dim
    c = algebra.table
    g_inv = linalg.inverse(g)
    nonzero = [
        (i, j, k, c[i][j][k])
        for i in range(n) for j in range(n) for k in range(n) if c[i][j][k] != 0
    ]
    table = []
    for a in range(n):
        plane = []
        for b in range(n):
            image = [Fraction(0)] * n
            for i, j, k, cijk in nonzero:
                w = g[i][a] * g[j][b]
                if w:
                    image[k] += w * cijk
            plane.append(linalg.mat_vec(g_inv, image))
        table.append(plane)
    return LeibnizAlgebra(table, name=name)


def sl2_irrep(sl2, m):
    """Action matrices of sl2's basis (by name h, e, f) on V_m, dim m + 1.

    v_k = x^(m-k) y^k; columns are images, as ``hemi_semi_direct`` expects.
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
    return [ops[name] for name in sl2.basis]


def sl2_semidirect(sl2, m):
    return hemi_semi_direct(sl2, sl2_irrep(sl2, m), m + 1, name=f"sl2xV{m}")


def seeded_rng(seed, label):
    """An independent stream per generated input, fixed by (seed, label)."""
    return random.Random(f"{seed}:{label}")
