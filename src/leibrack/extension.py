"""The canonical abelian extension of a Leibniz algebra by its left center.

Quotienting a left Leibniz algebra h by its left center Z gives a Lie
algebra q, and h is recovered from q, the Z-module structure, and a
2-cocycle.  This module builds all of that data explicitly:

* a section s : q -> h picked on the coordinate complement of the pivot
  columns of the reduced-echelon basis of Z,
* the projection pi with pi(s(x)) = x,
* the cocycle table omega(x, y) = s([x, y]) - [s(x), s(y)], taking values
  in Z (the "section defect" sign convention; the bracket that rebuilds h
  uses its negative, exposed as ``extension_omega``).
"""

from fractions import Fraction

from . import linalg
from .algebra import Element, LeibnizAlgebra, bracket_defects, left_center


class ExtensionData:
    """Left center, quotient Lie algebra, section, projection, and cocycle."""

    def __init__(self, algebra, center, quotient, pi_matrix, section_matrix, omega_table):
        self.algebra = algebra
        self.center = center
        self.quotient = quotient
        self.pi_matrix = pi_matrix
        self.section_matrix = section_matrix
        self.omega_table = omega_table

    def section(self, x):
        """s : q -> h, linear right inverse of pi."""
        return Element(self.algebra, linalg.mat_vec(self.section_matrix, x.coords), x.mode)

    def omega(self, x, y):
        """Bilinear extension of the cocycle table to quotient elements."""
        q = self.quotient.dim
        coords = [0] * self.algebra.dim
        for a in range(q):
            xa = x.coords[a]
            if xa == 0:
                continue
            for b in range(q):
                yb = y.coords[b]
                if yb == 0:
                    continue
                w = xa * yb
                cell = self.omega_table[a][b]
                coords = [acc + w * c for acc, c in zip(coords, cell)]
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
    pivots = center.pivots
    complement = [q for q in range(n) if q not in pivots]
    dim_q = len(complement)

    # section: s(q-th quotient basis vector) = e_{complement[q]}
    section_matrix = [[Fraction(0)] * dim_q for _ in range(n)]
    for col, q in enumerate(complement):
        section_matrix[q][col] = Fraction(1)

    # projection: strip the center component, read off complement coordinates
    pi_matrix = [[Fraction(0)] * n for _ in range(dim_q)]
    for row, q in enumerate(complement):
        pi_matrix[row][q] = Fraction(1)
        for b, p in enumerate(pivots):
            pi_matrix[row][p] = -center.basis_rows[b][q]

    quotient_table = [[[Fraction(0)] * dim_q for _ in range(dim_q)] for _ in range(dim_q)]
    for a, qa in enumerate(complement):
        for b, qb in enumerate(complement):
            quotient_table[a][b] = linalg.mat_vec(pi_matrix, algebra.table[qa][qb])
    quotient = LeibnizAlgebra(
        quotient_table,
        basis=tuple(algebra.basis[q] + "~" for q in complement),
        name=(algebra.name + "/leftcenter") if algebra.name else "quotient",
    )
    if not quotient.is_lie():
        raise ValueError("quotient by the left center is not a Lie algebra")

    omega_table = []
    for a, qa in enumerate(complement):
        row = []
        for b, qb in enumerate(complement):
            q_bracket = quotient_table[a][b]
            s_of = linalg.mat_vec(section_matrix, q_bracket)
            value = linalg.vec_sub(s_of, algebra.table[qa][qb])
            if linalg.coordinates_in_rowspan(center.basis_rows, value) is None:
                raise ValueError("cocycle value escaped the left center")
            row.append(value)
        omega_table.append(row)

    return ExtensionData(algebra, center, quotient, pi_matrix, section_matrix, omega_table)


def projection_morphism_violations(ext):
    """Basis pairs where pi fails to intertwine the two brackets."""
    return bracket_defects(ext.algebra, ext.quotient, ext.pi_matrix)


def cocycle_identity_violations(ext):
    """Defects of the Leibniz 2-cocycle identity for the section defect omega.

    With x.v = [s(x), v] acting on center values, omega must satisfy

        x.omega(y, z) - y.omega(x, z)
          - omega([x, y], z) + omega(x, [y, z]) - omega(y, [x, z]) = 0

    on all quotient basis triples.
    """
    quot = ext.quotient
    violations = []
    basis = quot.basis_elements()
    for a, x in enumerate(basis):
        sx = ext.section(x)
        for b, y in enumerate(basis):
            sy = ext.section(y)
            for c, z in enumerate(basis):
                term1 = ext.algebra.bracket(sx, ext.omega(y, z))
                term2 = ext.algebra.bracket(sy, ext.omega(x, z))
                term3 = ext.omega(quot.bracket(x, y), z)
                term4 = ext.omega(x, quot.bracket(y, z))
                term5 = ext.omega(y, quot.bracket(x, z))
                residual = term1 - term2 - term3 + term4 - term5
                if not residual.is_zero():
                    violations.append(((a, b, c), residual.coords))
    return violations


def reconstruction_violations(ext):
    """Check the bracket of h against its extension form on basis data.

    For quotient basis vectors x, y and center basis vectors a, b:

        [s(x) + a, s(y) + b] = s([x, y]) - omega(x, y) + [s(x), b].
    """
    alg = ext.algebra
    quot = ext.quotient
    violations = []
    center_elements = ext.center.elements() + [alg.zero()]
    for i, x in enumerate(quot.basis_elements()):
        sx = ext.section(x)
        for j, y in enumerate(quot.basis_elements()):
            sy = ext.section(y)
            for a in center_elements:
                for b in center_elements:
                    lhs = alg.bracket(sx + a, sy + b)
                    rhs = ext.section(quot.bracket(x, y)) - ext.omega(x, y) + alg.bracket(sx, b)
                    if lhs != rhs:
                        violations.append(((i, j), (lhs - rhs).coords))
    return violations
