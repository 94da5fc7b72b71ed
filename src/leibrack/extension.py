"""The canonical abelian extension of a Leibniz algebra by its left center.

Quotienting a left Leibniz algebra h by its left center Z gives a Lie
algebra q, and h is recovered from q, the Z-module structure, and a
2-cocycle.  This module builds all of that data as index maps on the
complement: the coordinates of h that are not pivot columns of the
reduced-echelon basis of Z, one per basis vector of q.

* the section s : q -> h scatters the coordinates of x onto the complement,
* the projection pi, with pi(s(x)) = x, reads the complement coordinates
  of the center-corrected v - z, z = sum_b v[p_b] row_b (row_b the center
  basis row with pivot p_b); ``pi_matrix`` holds it as a matrix,
* the cocycle table omega(x, y) = s([x, y]) - [s(x), s(y)] takes values in
  Z (the "section defect" sign convention; the bracket that rebuilds h uses
  its negative, exposed as ``extension_omega``).  On basis vectors it is
  -z for v = [s(x), s(y)], so one split of each bracket gives both the
  quotient table and omega, and omega lies in Z by construction.

The cocycle identity and the reconstruction of h are evaluated straight
from ``omega_table``, the sparse tables of h and q and the center basis
rows, read at call time; no Element is built per basis triple.  The
cocycle identity sums on ints, over the ``int_sparse`` tables of h and q
and omega scaled to ints; ``build_extension``, ``section``, ``omega`` and
the reconstruction check read the Fraction ``sparse`` tables.
"""

from fractions import Fraction
from math import lcm

from .algebra import Element, LeibnizAlgebra, bracket_defects, left_center


class ExtensionData:
    """Left center, quotient Lie algebra, section, projection, and cocycle."""

    def __init__(self, algebra, center, quotient, pi_matrix, omega_table):
        self.algebra = algebra
        self.center = center
        self.quotient = quotient
        self.pi_matrix = pi_matrix
        self.omega_table = omega_table
        self.complement = [k for k in range(algebra.dim) if k not in center.pivots]

    def section(self, x):
        """s : q -> h, linear right inverse of pi."""
        coords = [0] * self.algebra.dim
        for k, c in zip(self.complement, x.coords):
            coords[k] = c
        return Element(self.algebra, coords, x.mode)

    def omega(self, x, y):
        """Bilinear extension of the cocycle table to quotient elements."""
        coords = [0] * self.algebra.dim
        for xa, row in zip(x.coords, self.omega_table):
            if xa == 0:
                continue
            for yb, cell in zip(y.coords, row):
                if yb == 0:
                    continue
                w = xa * yb
                for k, c in enumerate(cell):
                    if c:
                        coords[k] = coords[k] + w * c
        return Element(self.algebra, coords, x.mode)

    def extension_omega(self, x, y):
        """The cocycle signed as it appears in the reconstruction bracket."""
        return -self.omega(x, y)


def build_extension(algebra):
    """Compute the left-center extension data of a Leibniz algebra.

    Raises ValueError if the quotient fails to be Lie, which cannot happen
    when the input satisfies the Leibniz identity.
    """
    if not algebra.is_leibniz():
        raise ValueError("input does not satisfy the Leibniz identity")
    n = algebra.dim
    center = left_center(algebra)
    complement = [k for k in range(n) if k not in center.pivots]
    # pi(e_k): a unit at the complement index k, minus row_b at the pivot p_b = k
    pi_columns = [[Fraction(int(k == j)) for j in complement] for k in range(n)]
    for p, row in zip(center.pivots, center.basis_rows):
        pi_columns[p] = [-row[j] for j in complement]
    pi_matrix = [list(row) for row in zip(*pi_columns)]

    # w = [e_a, e_b] splits as (w - z) + z, with z = sum_p w[p] row_p its
    # part in the center: the quotient cell is w - z on the complement, and
    # omega(e_a, e_b) = s(pi(w)) - w = -z
    quotient_table, omega_table = [], []
    for k_a in complement:
        plane = dict(algebra.sparse[k_a])
        q_row, omega_row = [], []
        for k_b in complement:
            w = dict(plane.get(k_b, ()))
            z = [Fraction(0)] * n
            for p, row in zip(center.pivots, center.basis_rows):
                if w.get(p):
                    z = [x + w[p] * y for x, y in zip(z, row)]
            q_row.append([w.get(k, 0) - z[k] for k in complement])
            omega_row.append([-c for c in z])
        quotient_table.append(q_row)
        omega_table.append(omega_row)
    quotient = LeibnizAlgebra(
        quotient_table,
        basis=tuple(algebra.basis[k] + "~" for k in complement),
        name=(algebra.name + "/leftcenter") if algebra.name else "quotient",
    )
    if not quotient.is_lie():
        raise ValueError("quotient by the left center is not a Lie algebra")

    return ExtensionData(algebra, center, quotient, pi_matrix, omega_table)


def projection_morphism_violations(ext):
    """Basis pairs where pi fails to intertwine the two brackets."""
    return bracket_defects(ext.algebra, ext.quotient, ext.pi_matrix)


def cocycle_identity_violations(ext):
    """Defects of the Leibniz 2-cocycle identity for the section defect omega.

    With x.v = [s(x), v] acting on center values, omega must satisfy

        x.omega(y, z) - y.omega(x, z)
          - omega([x, y], z) + omega(x, [y, z]) - omega(y, [x, z]) = 0

    on all quotient basis triples (a, b, c).  The actions are the planes of
    ``algebra.int_sparse`` at the complement indices of a and b applied to
    the nonzero entries of an omega cell; each omega of a bracket sums the
    q-coefficients of ``quotient.int_sparse`` times omega cells.  Every term
    is a table entry times an omega entry, so the sums run on ints: omega
    scaled by the lcm dw of its denominators, both tables put on the common
    denominator D of their scales, and each residual entry is an int over
    D * dw.  Returns ``((a, b, c), residual)`` for every triple with a
    nonzero residual.
    """
    alg, quot = ext.algebra, ext.quotient
    n = alg.dim
    dw = lcm(*(c.denominator for row in ext.omega_table for cell in row for c in cell))
    den = lcm(alg.scale, quot.scale)

    def int_planes(table, scale):
        """``int_sparse`` planes as dicts, each entry times den // scale."""
        f = den // scale
        return [{j: [(k, c * f) for k, c in row] for j, row in plane} for plane in table]

    # omega[a][b]: the nonzero (k, dw * c) of the cell
    omega = [
        [[(k, c.numerator * (dw // c.denominator)) for k, c in enumerate(v) if c] for v in row]
        for row in ext.omega_table
    ]
    by_column = list(zip(*omega))  # by_column[c][d] = omega[d][c]
    lifts = int_planes([alg.int_sparse[k] for k in ext.complement], alg.scale)
    q_brackets = int_planes(quot.int_sparse, quot.scale)
    q = quot.dim
    violations = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                residual = [0] * n
                # x.omega(y, z) - y.omega(x, z)
                for sign, plane, cell in ((1, lifts[a], omega[b][c]), (-1, lifts[b], omega[a][c])):
                    for l, w in cell:
                        for k, coef in plane.get(l, ()):
                            residual[k] += sign * w * coef
                # - omega([x, y], z) + omega(x, [y, z]) - omega(y, [x, z])
                for sign, coeffs, cells in (
                    (-1, q_brackets[a].get(b, ()), by_column[c]),
                    (1, q_brackets[b].get(c, ()), omega[a]),
                    (-1, q_brackets[a].get(c, ()), omega[b]),
                ):
                    for d, coef in coeffs:
                        for k, w in cells[d]:
                            residual[k] += sign * coef * w
                if any(residual):
                    violations.append(
                        ((a, b, c), tuple(Fraction(r, den * dw) for r in residual))
                    )
    return violations


def reconstruction_violations(ext):
    """Check the bracket of h against its extension form on basis data.

    For quotient basis vectors x, y and center basis vectors a, b (or 0):

        [s(x) + a, s(y) + b] = s([x, y]) - omega(x, y) + [s(x), b].

    By bilinearity the residual of (x, y, a, b) is D(x, y) + [a, s(y)] +
    [a, b], with D(x, y) = [s(x), s(y)] - s([x, y]) + omega(x, y); the three
    tables are built once and summed in the (x, y, a, b) order.  Returns
    ``((i, j), residual)`` for every nonzero residual.
    """
    alg, quot = ext.algebra, ext.quotient
    n = alg.dim
    complement = ext.complement
    defects = []
    for i, plane in enumerate(ext.omega_table):
        lift = dict(alg.sparse[complement[i]])
        row = []
        for j, cell in enumerate(plane):
            d = list(cell)
            for k, c in lift.get(complement[j], ()):
                d[k] += c
            for k, c in zip(complement, quot.table[i][j]):
                d[k] -= c
            row.append(d)
        defects.append(row)
    centers = ext.center.basis_rows + [[0] * n]
    units = [[int(m == k) for m in range(n)] for k in complement]
    acts = [[alg.bracket_coords(a, unit) for unit in units] for a in centers]
    squares = [[alg.bracket_coords(a, b) for b in centers] for a in centers]
    violations = []
    for i, row in enumerate(defects):
        for j, d in enumerate(row):
            for act, products in zip(acts, squares):
                base = [x + y for x, y in zip(d, act[j])]
                for ab in products:
                    residual = [x + y for x, y in zip(base, ab)]
                    if any(residual):
                        violations.append(((i, j), tuple(map(Fraction, residual))))
    return violations
