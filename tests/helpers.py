"""Shared builders for the test suite."""

from fractions import Fraction

from leibrack import linalg
from leibrack.algebra import LeibnizAlgebra, hemi_semi_direct


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
            plane.append(linalg.mat_vec(g_inv, algebra.bracket_coords(col_a, col_b)))
        table.append(plane)
    return LeibnizAlgebra(table, name=name)


def random_invertible(rng, n):
    """A seeded invertible rational matrix with small, mostly nonzero entries."""
    while True:
        g = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.det(g) != 0:
            return g


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
