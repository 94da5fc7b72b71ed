"""Finite-dimensional left Leibniz algebras from rational structure constants.

A left Leibniz algebra is a vector space with a bilinear bracket whose left
multiplications are derivations:

    [x, [y, z]] = [[x, y], z] + [y, [x, z]].

Everything here is driven by the structure-constant table ``c[i][j][k]``,
the coefficient of ``e_k`` in ``[e_i, e_j]``, stored as exact rationals.
Elements and endomorphisms can live in exact (Fraction) or float mode; the
table itself is always exact.

The dense ``table`` is the input and interchange form and the identity of
an algebra (equality, hashing).  Most tables are almost all zeros, so every
kernel that walks the bracket (``bracket_coords``, ``ad``, the Leibniz
check, the left center, the derivation system) reads ``sparse`` instead:
for each i, the pairs ``(j, ((k, c), ...))`` with ``[e_i, e_j]`` nonzero,
both indices ascending.  The kernels visit terms in the same order as a
dense loop would, so float results are bit-for-bit those of the dense sums.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add

from . import linalg
from .linalg import EXACT, FLOAT, check_mode


class LeibnizAlgebra:
    """A Leibniz algebra presented by its structure-constant table."""

    def __init__(self, table, basis=None, name=""):
        dim = len(table)
        self.table = tuple(
            tuple(tuple(Fraction(c) for c in row) for row in plane) for plane in table
        )
        for plane in self.table:
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise ValueError("structure-constant table must be dim x dim x dim")
        self.dim = dim
        self.basis = tuple(basis) if basis else tuple(f"e{i + 1}" for i in range(dim))
        if len(self.basis) != dim:
            raise ValueError("basis name count does not match dimension")
        self.name = name
        self.sparse = tuple(
            tuple(
                (j, tuple((k, c) for k, c in enumerate(row) if c != 0))
                for j, row in enumerate(plane)
                if any(row)
            )
            for plane in self.table
        )
        self._leibniz_violations = None
        self._is_lie = None
        self._exp_ad = {}  # racks.exp_ad: (coords, mode, order) -> exp(ad_x)
        self._nilpotency_class = -2  # sentinel: not yet computed

    def __repr__(self):
        label = self.name or "LeibnizAlgebra"
        return f"<{label} dim={self.dim}>"

    def __eq__(self, other):
        return isinstance(other, LeibnizAlgebra) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    # -- element constructors -------------------------------------------------

    def element(self, coords, mode=EXACT):
        return Element(self, coords, mode)

    def zero(self, mode=EXACT):
        return Element(self, [0] * self.dim, mode)

    def basis_element(self, i, mode=EXACT):
        coords = [0] * self.dim
        coords[i] = 1
        return Element(self, coords, mode)

    def basis_elements(self, mode=EXACT):
        return [self.basis_element(i, mode) for i in range(self.dim)]

    # -- bracket and adjoint operators ----------------------------------------

    def bracket_coords(self, x, y):
        """Bracket of two coordinate vectors, returned as a coordinate vector."""
        out = [0] * self.dim
        for xi, plane in zip(x, self.sparse):
            if xi == 0:
                continue
            for j, row in plane:
                yj = y[j]
                if yj == 0:
                    continue
                w = xi * yj
                for k, c in row:
                    out[k] = out[k] + w * c
        return out

    def dual_bracket_coords(self, x, xi):
        """The covector xi o ad_x: entry j is xi([x, e_j])."""
        out = [0] * self.dim
        for xa, plane in zip(x, self.sparse):
            if xa == 0:
                continue
            for j, row in plane:
                for k, c in row:
                    out[j] = out[j] + xa * c * xi[k]
        return out

    def bracket(self, x, y):
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        mode = _join_modes(x.mode, y.mode)
        return Element(self, self.bracket_coords(x.coords, y.coords), mode)

    def ad(self, x):
        """Left multiplication operator ad_x = [x, .] as an endomorphism."""
        n = self.dim
        coords = x.coords if isinstance(x, Element) else x
        rows = [[0] * n for _ in range(n)]
        for xi, plane in zip(coords, self.sparse):
            if xi == 0:
                continue
            for j, row in plane:
                for k, c in row:
                    rows[k][j] = rows[k][j] + xi * c
        mode = x.mode if isinstance(x, Element) else EXACT
        return Endomorphism(self, rows, mode)

    # -- identities ------------------------------------------------------------

    def leibniz_violations(self):
        """All basis triples violating the left Leibniz identity.

        Returns a list of ``((i, j, k), residual_coords)`` with 0-based
        indices; the residual [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]
        is an exact rational vector.

        The sums run on ints: every entry is scaled by the table's common
        denominator D, and each residual term is a product of two entries, so
        D**2 times the residual is an int vector, divided back at the end.
        """
        if self._leibniz_violations is not None:
            return self._leibniz_violations
        n = self.dim
        scale = lcm(*(c.denominator for plane in self.sparse for _, row in plane for _, c in row))
        # rows[i][j]: the nonzero (k, scale * c) of [e_i, e_j], as ints
        rows = [
            {j: tuple((k, c.numerator * (scale // c.denominator)) for k, c in row)
             for j, row in plane}
            for plane in self.sparse
        ]
        violations = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # (+-a_l, entries of [e_p, e_l] or [e_l, e_k]) for the three nested brackets
                    terms = [(a, rows[i].get(l, ())) for l, a in rows[j].get(k, ())]
                    terms += [(-a, rows[l].get(k, ())) for l, a in rows[i].get(j, ())]
                    terms += [(-a, rows[j].get(l, ())) for l, a in rows[i].get(k, ())]
                    if not terms:
                        continue
                    residual = [0] * n
                    for a, entries in terms:
                        for m, b in entries:
                            residual[m] += a * b
                    if any(residual):
                        residual = [Fraction(r, scale * scale) for r in residual]
                        violations.append(((i, j, k), residual))
        self._leibniz_violations = violations
        return violations

    def is_leibniz(self):
        return not self.leibniz_violations()

    def is_lie(self):
        """True when the bracket is also antisymmetric (hence a Lie bracket)."""
        if self._is_lie is None:
            c = self.table
            n = self.dim
            self._is_lie = self.is_leibniz() and all(
                c[i][j][k] == -c[j][i][k] for i in range(n) for j in range(n) for k in range(n)
            )
        return self._is_lie

    def nilpotency_class(self):
        """Length of the longest nonvanishing bracket, or None if not nilpotent.

        Uses the descending chain V_1 = h, V_{k+1} = span of [e_i, V_k]; by the
        Leibniz identity every bracket word of length k lies in the span of
        such right-nested words.
        """
        if self._nilpotency_class != -2:
            return self._nilpotency_class
        units = linalg.identity_matrix(self.dim)
        level = units
        k = 1
        while level:
            images = []
            for unit in units:
                for w in level:
                    img = self.bracket_coords(unit, w)
                    if not linalg.is_zero_vector(img):
                        images.append(img)
            nxt = linalg.rref(images)[0] if images else []
            if len(nxt) >= len(level):
                self._nilpotency_class = None
                return None
            if not nxt:
                self._nilpotency_class = k
                return k
            level = nxt
            k += 1
        self._nilpotency_class = 0
        return 0

    def is_nilpotent(self):
        return self.nilpotency_class() is not None


def _join_modes(a, b):
    if a != b:
        raise ValueError(f"mixed scalar modes {a!r} and {b!r}")
    return a


def join_elements(x, y):
    """The algebra and scalar mode two elements share; ValueError if they differ.

    Algebras are compared by identity, as ``LeibnizAlgebra.bracket`` does.
    """
    if x.algebra is not y.algebra:
        raise ValueError("elements belong to a different algebra")
    return x.algebra, _join_modes(x.mode, y.mode)


class Element:
    """An algebra element: coordinates in the defining basis plus a scalar mode."""

    __slots__ = ("algebra", "coords", "mode")

    def __init__(self, algebra, coords, mode=EXACT):
        check_mode(mode)
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(linalg.scalar(c, mode) for c in coords))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __repr__(self):
        terms = [
            f"{c}*{name}" for c, name in zip(self.coords, self.algebra.basis) if c != 0
        ]
        return " + ".join(terms) if terms else "0"

    def __add__(self, other):
        alg, mode = join_elements(self, other)
        return Element(alg, linalg.vec_add(self.coords, other.coords), mode)

    def __sub__(self, other):
        alg, mode = join_elements(self, other)
        return Element(alg, linalg.vec_sub(self.coords, other.coords), mode)

    def __neg__(self):
        return Element(self.algebra, [-c for c in self.coords], self.mode)

    def __rmul__(self, scalar):
        return Element(self.algebra, [scalar * c for c in self.coords], self.mode)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.mode == other.mode
            and self.coords == other.coords
            and self.algebra == other.algebra
        )

    def __hash__(self):
        return hash((self.coords, self.mode))

    def bracket(self, other):
        return self.algebra.bracket(self, other)

    def distance(self, other):
        return linalg.max_abs(a - b for a, b in zip(self.coords, other.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def to_float(self):
        return Element(self.algebra, [float(c) for c in self.coords], FLOAT)


class Endomorphism:
    """A linear self-map of the algebra, stored as a matrix acting on coordinates."""

    __slots__ = ("algebra", "matrix", "mode")

    def __init__(self, algebra, matrix, mode=EXACT):
        check_mode(mode)
        n = algebra.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("endomorphism matrix must be dim x dim")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(
            self, "matrix", tuple(tuple(linalg.scalar(x, mode) for x in row) for row in matrix)
        )
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism is immutable")

    def __repr__(self):
        return f"<Endomorphism {self.mode} on dim {self.algebra.dim}>"

    @classmethod
    def identity(cls, algebra, mode=EXACT):
        return cls(algebra, linalg.identity_matrix(algebra.dim, mode), mode)

    def __call__(self, x):
        mode = _join_modes(self.mode, x.mode)
        return Element(self.algebra, linalg.mat_vec(self.matrix, x.coords), mode)

    def __matmul__(self, other):
        mode = _join_modes(self.mode, other.mode)
        return Endomorphism(self.algebra, linalg.mat_mul(self.matrix, other.matrix), mode)

    def __add__(self, other):
        mode = _join_modes(self.mode, other.mode)
        return Endomorphism(self.algebra, linalg.mat_add(self.matrix, other.matrix), mode)

    def __sub__(self, other):
        mode = _join_modes(self.mode, other.mode)
        return Endomorphism(self.algebra, linalg.mat_sub(self.matrix, other.matrix), mode)

    def __neg__(self):
        return Endomorphism(self.algebra, linalg.mat_scale(-1, self.matrix), self.mode)

    def __rmul__(self, scalar):
        return Endomorphism(self.algebra, linalg.mat_scale(scalar, self.matrix), self.mode)

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.mode == other.mode
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.matrix, self.mode))

    def distance(self, other):
        return linalg.max_abs(
            a - b for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)
        )

    def inverse(self):
        inv = linalg.inverse(self.matrix)
        if self.mode == FLOAT:
            inv = [[float(x) for x in row] for row in inv]
        return Endomorphism(self.algebra, inv, self.mode)

    # -- structural predicates -------------------------------------------------

    def derivation_residual(self):
        """Largest defect of D[x,y] = [Dx,y] + [x,Dy] over basis pairs.

        Each defect entry is a row of the derivation system times vec(D).
        """
        flat = [x for row in self.matrix for x in row]
        return linalg.max_abs(
            reduce(add, (c * flat[col] for col, c in row.items()), 0)
            for row in _derivation_rows(self.algebra)
        )

    def is_derivation(self, tol=0):
        return self.derivation_residual() <= tol

    def morphism_residual(self):
        """Largest defect of a[x,y] = [ax, ay] over basis pairs."""
        defects = bracket_defects(self.algebra, self.algebra, self.matrix)
        return linalg.max_abs(c for _, defect in defects for c in defect)

    def is_endomorphism(self, tol=0):
        """True when the map preserves the bracket on basis pairs."""
        return self.morphism_residual() <= tol

    def is_automorphism(self, tol=0):
        return self.is_endomorphism(tol) and linalg.det(self.matrix) != 0


def bracket_defects(source, target, matrix):
    """Basis pairs where a linear map a : source -> target breaks a[x,y] = [ax, ay].

    ``matrix`` is target.dim x source.dim.  Returns ``((i, j), defect)`` for
    every pair with a nonzero defect a[e_i, e_j] - [a e_i, a e_j], 0-based,
    summing nonzero terms only: a[e_i, e_j] over ``source.sparse`` and the
    nonzero entries of a, [a e_i, a e_j] by ``target.bracket_coords``.
    """
    columns = [[row[i] for row in matrix] for i in range(source.dim)]
    support = [[(r, a) for r, a in enumerate(column) if a] for column in columns]
    defects = []
    for i, plane in enumerate(source.sparse):
        brackets = dict(plane)
        for j in range(source.dim):
            image = [0] * target.dim
            for k, c in brackets.get(j, ()):
                for r, a in support[k]:
                    image[r] += c * a
            defect = linalg.vec_sub(image, target.bracket_coords(columns[i], columns[j]))
            if any(defect):
                defects.append(((i, j), defect))
    return defects


class Subspace:
    """A subspace of an algebra, held as a reduced-echelon basis matrix."""

    def __init__(self, algebra, basis_rows):
        self.algebra = algebra
        rows = [list(map(Fraction, row)) for row in basis_rows]
        reduced, pivots = linalg.rref(rows) if rows else ([], [])
        self.basis_rows = reduced
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.basis_rows)

    def coefficients(self, coords):
        """Coefficients of a coordinate vector on ``basis_rows``, or None outside the span.

        The rows are in reduced echelon form, so the coefficient of a row is
        the coordinate at its pivot, and the vector lies in the span iff
        v - sum_b v[p_b] * row_b is 0.
        """
        rest = [Fraction(c) for c in coords]
        coeffs = [rest[p] for p in self.pivots]
        for a, row in zip(coeffs, self.basis_rows):
            if a:
                rest = [x - a * y for x, y in zip(rest, row)]
        return None if any(rest) else coeffs

    def contains(self, element):
        return self.coefficients(element.coords) is not None

    def coordinates(self, element):
        got = self.coefficients(element.coords)
        if got is None:
            raise ValueError("element does not lie in the subspace")
        return got

    def elements(self, mode=EXACT):
        return [Element(self.algebra, row, mode) for row in self.basis_rows]


def left_center(algebra):
    """The left center { x : [x, y] = 0 for all y }, as a Subspace.

    For a left Leibniz algebra this is a two-sided ideal containing all
    squares [x, x], and the quotient by it is a Lie algebra.
    """
    n = algebra.dim
    rows = {}  # (j, k) -> the row of c[i][j][k] over i
    for i, plane in enumerate(algebra.sparse):
        for j, entries in plane:
            for k, c in entries:
                rows.setdefault((j, k), [0] * n)[i] = c
    basis = linalg.nullspace([rows[key] for key in sorted(rows)], cols=n)
    return Subspace(algebra, basis)


class DerivationSummary:
    """Basis of der(h) plus the inner/outer dimension split."""

    def __init__(self, algebra, basis, dim_inner):
        self.algebra = algebra
        self.basis = basis
        self.dim_der = len(basis)
        self.dim_inner = dim_inner
        self.dim_outer = self.dim_der - dim_inner

    def __repr__(self):
        return (
            f"<derivations dim={self.dim_der} inner={self.dim_inner} outer={self.dim_outer}>"
        )


def _derivation_rows(algebra):
    """The linear system cutting out the derivations, one sparse row per entry.

    The unknown is D, flattened to vec(D) with D[m][l] at m * n + l.  For
    every basis pair (i, j) and coordinate m whose identity has a term,
    yields the dict ``{column: coefficient}`` with row . vec(D) equal to
    the m-th entry of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j].
    """
    n = algebra.dim
    # With c = c[p][q][m] != 0: left[q][m] holds (p, c) and right[p][m] holds (q, c).
    left = [[[] for _ in range(n)] for _ in range(n)]
    right = [[[] for _ in range(n)] for _ in range(n)]
    for p, plane in enumerate(algebra.sparse):
        for q, entries in plane:
            for m, c in entries:
                left[q][m].append((p, c))
                right[p][m].append((q, c))
    for i in range(n):
        brackets = dict(algebra.sparse[i])
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


def _primitive(row):
    """A sparse rational row as its primitive int multiple, leading entry positive.

    Two rows that are scalar multiples of each other give the same tuple of
    ``(column, entry)``; the zero row gives ().
    """
    entries = sorted((col, c) for col, c in row.items() if c)
    if not entries:
        return ()
    scale = lcm(*(c.denominator for _, c in entries))
    ints = [c.numerator * (scale // c.denominator) for _, c in entries]
    g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return tuple((col, x // g) for (col, _), x in zip(entries, ints))


def derivation_algebra(algebra):
    """Solve the linear system cutting out all derivations.

    The unknown is the matrix D; for every basis pair (i, j) the identity
    D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] is linear in the entries of D.
    Rows of ``_derivation_rows`` that repeat up to a scalar are eliminated
    once (first occurrence, as a primitive int row): the reduced echelon
    basis of the nullspace depends only on the row space.  Returns a
    DerivationSummary whose basis matrices are the reduced-echelon
    representatives of der(h); inner derivations are the span of the ad_x.
    """
    n = algebra.dim
    unique = dict.fromkeys(map(_primitive, _derivation_rows(algebra)))
    unique.pop((), None)
    rows = []
    for entries in unique:
        row = [0] * (n * n)
        for col, x in entries:
            row[col] = x
        rows.append(row)
    flat_basis = linalg.nullspace(rows, cols=n * n)
    basis = [
        Endomorphism(algebra, [row[k * n : (k + 1) * n] for k in range(n)]) for row in flat_basis
    ]
    ad_flat = []
    for i in range(n):
        mat = algebra.ad(algebra.basis_element(i)).matrix
        ad_flat.append([x for row in mat for x in row])
    dim_inner = linalg.rank(ad_flat)
    return DerivationSummary(algebra, basis, dim_inner)


def hemi_semi_direct(lie_algebra, action, module_dim, name=""):
    """Hemi-semi-direct product of a Lie algebra with a module.

    Carrier V + g with bracket [(v, x), (w, y)] = (x.w, [x, y]); the module
    coordinates come first in the new basis.  The result is a left Leibniz
    algebra that is usually not Lie; V lands inside its left center.

    ``action`` maps each basis vector of g to an (module_dim x module_dim)
    matrix and must be a Lie-algebra representation.
    """
    if not lie_algebra.is_lie():
        raise ValueError("hemi-semi-direct product needs a Lie algebra on the right factor")
    d = lie_algebra.dim
    m = module_dim
    rho = [
        [[Fraction(x) for x in row] for row in action[a]]
        for a in range(d)
    ]
    for a in range(d):
        if len(rho[a]) != m or any(len(row) != m for row in rho[a]):
            raise ValueError("action matrices must be module_dim x module_dim")
    for a in range(d):
        for b in range(d):
            commutator = linalg.mat_sub(
                linalg.mat_mul(rho[a], rho[b]), linalg.mat_mul(rho[b], rho[a])
            )
            expected = linalg.zero_matrix(m, m)
            for k in range(d):
                coeff = lie_algebra.table[a][b][k]
                if coeff != 0:
                    expected = linalg.mat_add(expected, linalg.mat_scale(coeff, rho[k]))
            if commutator != expected:
                raise ValueError(
                    f"action is not a representation on basis pair ({a + 1}, {b + 1})"
                )
    n = m + d
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(d):
        for j in range(m):
            for k in range(m):
                table[m + a][j][k] = rho[a][k][j]
        for b in range(d):
            for k in range(d):
                table[m + a][m + b][m + k] = lie_algebra.table[a][b][k]
    module_names = tuple(f"v{i + 1}" for i in range(m))
    g_names = tuple(lie_algebra.basis)
    return LeibnizAlgebra(table, basis=module_names + g_names, name=name)
