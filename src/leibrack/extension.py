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
  its negative).  On basis vectors it is
  -z for v = [s(x), s(y)], so one split of each bracket gives both the
  quotient table and omega, and omega lies in Z by construction.

omega is kept once, on ints: ``int_omega = (cells, dw)``, with
``cells[a][b]`` the nonzero (k, dw * omega(e_a, e_b)_k) and dw the lcm of
its denominators.  ``build_extension`` splits the ``int_sparse`` brackets
of h against the center rows scaled to ints: the quotient comes straight
from its int ``(k, num, den)`` entries (``LeibnizAlgebra.from_entries``),
and omega is -z over one denominator.  ``omega_table`` is a read-only
Fraction view of it for reports and tests.  The cocycle identity, the
reconstruction of h and the cocycle series read ``int_omega`` and the
``int_sparse`` tables at call time, with no Element per basis triple; the
two laws pack each vector once into one int (``linalg.pack``), so a term
is one int multiply-add and only a nonzero total becomes Fractions.
``section`` and the cocycle kernels take elements of ``quotient`` only,
checked by identity as ``join_elements`` checks every binary op.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .algebra import Element, LeibnizAlgebra, bracket_defects, join_elements, left_center


class ExtensionData:
    """Left center, quotient Lie algebra, section, projection, and cocycle."""

    def __init__(self, algebra, center, quotient, pi_matrix, complement, int_omega):
        self.algebra = algebra
        self.center = center
        self.quotient = quotient
        self.pi_matrix = pi_matrix
        self.complement = complement
        self.int_omega = int_omega

    @property
    def omega_table(self):
        """``omega_table[a][b]``: omega(e_a, e_b) as n Fractions, built from ``int_omega``."""
        cells, dw = self.int_omega
        table = [[[Fraction(0)] * self.algebra.dim for _ in row] for row in cells]
        for out, row in zip(table, cells):
            for v, cell in zip(out, row):
                for k, c in cell:
                    v[k] = Fraction(c, dw)
        return table

    def lift(self, coords):
        """s on coordinate lists: ``coords`` on the complement, 0 elsewhere."""
        out = [0] * self.algebra.dim
        for k, c in zip(self.complement, coords):
            out[k] = c
        return out

    def section(self, x):
        """s : q -> h, linear right inverse of pi, on an element x of ``quotient``."""
        join_elements(x, x, self.quotient)
        return Element(self.algebra, self.lift(x.coords), x.mode)


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
    # omega(e_a, e_b) = s(pi(w)) - w = -z.  On ints, with w from int_sparse
    # and the rows times their lcm dc, both are over scale * dc; omega is
    # then divided by the gcd g of that denominator and every entry of z.
    flat, dc = linalg.int_vector([c for row in center.basis_rows for c in row])
    rows = [flat[b * n : (b + 1) * n] for b in range(center.dim)]
    den = g = algebra.scale * dc
    entries, cells = {}, []
    for a, k_a in enumerate(complement):
        plane = dict(algebra.int_sparse[k_a])
        omega_row = []
        for b, k_b in enumerate(complement):
            w = dict(plane.get(k_b, ()))
            z = [0] * n
            for p, row in zip(center.pivots, rows):
                if w.get(p):
                    z = [x + w[p] * y for x, y in zip(z, row)]
            cell = []
            for c, k in enumerate(complement):
                if num := w.get(k, 0) * dc - z[k]:
                    d = gcd(num, den)
                    cell.append((c, num // d, den // d))
            entries[a, b] = cell
            omega_row.append([(k, -c) for k, c in enumerate(z) if c])
            g = gcd(g, *z)
        cells.append(omega_row)
    quotient = LeibnizAlgebra.from_entries(
        len(complement),
        entries,
        basis=tuple(algebra.basis[k] + "~" for k in complement),
        name=(algebra.name + "/leftcenter") if algebra.name else "quotient",
    )
    if not quotient.is_lie():
        raise ValueError("quotient by the left center is not a Lie algebra")

    cells = [[[(k, c // g) for k, c in cell] for cell in row] for row in cells]
    return ExtensionData(algebra, center, quotient, pi_matrix, complement, (cells, den // g))


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
    is a table entry times an omega entry, so the sums run on ints: the
    cells of ``int_omega`` over dw, both tables put on the common
    denominator D of their scales, and each residual entry is an int over
    D * dw.  The action rows and the omega cells are packed once
    (``linalg.pack``), so each term is one int multiply-add, and only a
    nonzero total is unpacked.  Returns ``((a, b, c), residual)`` for every
    triple with a nonzero residual.
    """
    alg, quot = ext.algebra, ext.quotient
    n, q = alg.dim, quot.dim
    omega, dw = ext.int_omega
    den = lcm(alg.scale, quot.scale)

    def int_planes(planes, scale, cols):
        """``int_sparse`` planes as rows by column, each entry times den // scale."""
        f = den // scale
        out = [[()] * cols for _ in planes]
        for rows, plane in zip(out, planes):
            for j, entries in plane:
                rows[j] = [(k, c * f) for k, c in entries]
        return out

    # lifts[a][l]: the nonzero (k, den * c) of [s(e_a), e_l]; q_brackets likewise on q
    lifts = int_planes([alg.int_sparse[k] for k in ext.complement], alg.scale, n)
    q_brackets = int_planes(quot.int_sparse, quot.scale, q)
    terms = 2 * n + 3 * q
    largest_table = max(
        (abs(c) for plane in lifts + q_brackets for entries in plane for _, c in entries),
        default=0,
    )
    largest_omega = max((abs(c) for row in omega for cell in row for _, c in cell), default=0)
    width = linalg.slot_width(terms, largest_table * largest_omega)
    packed_lifts = [[linalg.pack(entries, width) for entries in plane] for plane in lifts]
    cells = [[linalg.pack(cell, width) for cell in row] for row in omega]
    by_column = list(zip(*cells))  # by_column[c][d] = cells[d][c]
    violations = []
    for a in range(q):
        lift_a, cells_a, brackets_a = packed_lifts[a], cells[a], q_brackets[a]
        for b in range(q):
            lift_b, cells_b, brackets_b = packed_lifts[b], cells[b], q_brackets[b]
            ab = brackets_a[b]
            for c in range(q):
                total = 0
                # x.omega(y, z) - y.omega(x, z)
                for l, w in omega[b][c]:
                    total += w * lift_a[l]
                for l, w in omega[a][c]:
                    total -= w * lift_b[l]
                # - omega([x, y], z) + omega(x, [y, z]) - omega(y, [x, z])
                column = by_column[c]
                for d, coef in ab:
                    total -= coef * column[d]
                for d, coef in brackets_b[c]:
                    total += coef * cells_a[d]
                for d, coef in brackets_a[c]:
                    total -= coef * cells_b[d]
                if total:
                    residual = linalg.unpack(total, width, n)
                    violations.append(((a, b, c), tuple(Fraction(r, den * dw) for r in residual)))
    return violations


def reconstruction_violations(ext):
    """Check the bracket of h against its extension form on basis data.

    For quotient basis vectors x, y and center basis vectors a, b (or 0):

        [s(x) + a, s(y) + b] = s([x, y]) - omega(x, y) + [s(x), b].

    By bilinearity the residual of (x, y, a, b) is D(x, y) + [a, s(y)] +
    [a, b], with D(x, y) = [s(x), s(y)] - s([x, y]) + omega(x, y).  The
    three tables are built once on ints over one common denominator: the
    cells of ``int_omega`` over dw, the center rows times the lcm dc
    of theirs, and the ``int_sparse`` tables of h and q, so D is over dw,
    ``scale`` and the scale of q, a center action over dc * scale and a
    center square over dc**2 * scale.  They are packed (``linalg.pack``),
    so each residual is two int additions, summed in the (x, y, a, b)
    order; only a nonzero total is unpacked.  Returns ``((i, j), residual)``
    for every nonzero residual.
    """
    alg, quot = ext.algebra, ext.quotient
    n = alg.dim
    complement = ext.complement
    rows = ext.center.basis_rows
    omega, dw = ext.int_omega
    dc = lcm(*(c.denominator for row in rows for c in row))
    den = lcm(dw, quot.scale, dc * dc * alg.scale)
    f_omega, f_lift, f_quot = den // dw, den // alg.scale, den // quot.scale
    defects = []
    for i, plane in enumerate(omega):
        lift = dict(alg.int_sparse[complement[i]])
        brackets = dict(quot.int_sparse[i])
        row = []
        for j, cell in enumerate(plane):
            d = [0] * n
            for k, c in cell:
                d[k] = c * f_omega
            for k, c in lift.get(complement[j], ()):
                d[k] += c * f_lift
            for k, c in brackets.get(j, ()):
                d[complement[k]] -= c * f_quot
            row.append(d)
        defects.append(row)
    centers = [[c.numerator * (dc // c.denominator) for c in row] for row in rows] + [[0] * n]
    units = [[int(m == k) for m in range(n)] for k in complement]
    f_act, f_square = den // (dc * alg.scale), den // (dc * dc * alg.scale)
    acts = [
        [[x * f_act for x in alg.bracket_coords(a, unit, alg.int_sparse)] for unit in units]
        for a in centers
    ]
    squares = [
        [[x * f_square for x in alg.bracket_coords(a, b, alg.int_sparse)] for b in centers]
        for a in centers
    ]
    tables = (defects, acts, squares)
    largest = max((abs(x) for table in tables for row in table for v in row for x in v), default=0)
    width = linalg.slot_width(3, largest)
    defects, acts, squares = (
        [[linalg.pack(enumerate(v), width) for v in row] for row in table] for table in tables
    )
    violations = []
    for i, row in enumerate(defects):
        for j, d in enumerate(row):
            for act, products in zip(acts, squares):
                base = d + act[j]
                for ab in products:
                    total = base + ab
                    if total:
                        residual = linalg.unpack(total, width, n)
                        violations.append(((i, j), tuple(Fraction(r, den) for r in residual)))
    return violations
