"""Finite-dimensional left Leibniz algebras from rational structure constants.

A left Leibniz algebra is a vector space with a bilinear bracket whose left
multiplications are derivations:

    [x, [y, z]] = [[x, y], z] + [y, [x, z]].

Everything here is driven by the structure-constant table ``c[i][j][k]``,
the coefficient of ``e_k`` in ``[e_i, e_j]``, stored as exact rationals.
Elements and endomorphisms can live in exact (Fraction) or float mode; the
table itself is always exact.

An algebra stores ``int_sparse`` and ``scale``, its identity (equality,
hashing).  Most tables are almost all zeros, so ``int_sparse`` lists for
each i only the pairs ``(j, ((k, a), ...))`` with ``[e_i, e_j]`` nonzero,
both indices ascending, each entry the int ``a = c * scale``, ``scale`` the
lcm of the table's denominators.  The dense Fraction ``table`` is kept
when ``__init__`` is given one, else built on first use (files load
``from_entries``); no command reads it.  ``float_sparse`` has the same index with each entry
``a / scale``, the correctly rounded ``float(c)`` (an entry that underflows
to 0.0 included); it is built on its first use, so an exact run never
converts the table (a coefficient beyond the float range would raise
``OverflowError`` there).

``bracket_coords`` sums on the view it is given; ``left_bracket`` picks
the view from a scalar mode, as every element-level bracket does.  Plane i
of a view is the column list of ad_{e_i}, and ``int_ad`` is the one adjoint
sum: the nonzero int columns of s·ad_x for exact x = X / d, s = d·``scale``
(float ``ad`` runs it on ``float_sparse``); ``int_apply`` applies columns.

* ``int_sparse`` serves every exact kernel: exact ``left_bracket`` and
  ``int_ad``, ``bracket_defects``, the Leibniz check, ``is_lie``,
  ``nilpotency_class``, ``left_center``, ``derivation_algebra``, the
  extension data and laws, the exact Poisson bracket, the Hessian and the
  exact BCH word sum.  They scale rational input to ints
  (``linalg.int_vector``), sum on ints and make canonical Fractions only
  for their results, dividing the scale out once, or never where the
  answer does not depend on it (a span, a nullspace, a zero test).  The
  Leibniz check and the two extension laws pack each int row into one int
  (``linalg.pack``), so a whole scaled row is one int multiply-add and a
  zero residual is a zero int.
* ``float_sparse`` serves float ``left_bracket`` and ``ad``, the float
  Poisson bracket and the float BCH word sum.  A Fraction times a float is
  computed as ``float(c)`` times the float, so reading the converted entry
  gives the bits of the Fraction table without the conversion on every term.

The kernels visit terms in the same order as a dense loop would, so float
results are bit-for-bit those of the dense sums.

``Element``, ``Endomorphism`` and the value types of ``observables`` and
``racks`` are plain classes on ``Value`` (``Element`` and
``observables.Covector`` through ``Coordinates``): each keeps its fields in
``_``-prefixed slots behind read-only properties, so assigning or deleting
a field raises ``AttributeError``; two values are equal when they are of
one class with equal fields, the algebra compared by its int table; the
hash leaves the algebra out; and ``copy``, ``deepcopy`` and ``pickle``
rebuild the slots.  ``LeibnizAlgebra`` shares ``Value``'s equality and
hash, on ``(scale, int_sparse)``: both are canonical, so that is equality
of tables, and comparing two algebras builds no table.
"""

from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from operator import attrgetter

from . import linalg
from .linalg import EXACT, FLOAT, check_mode

ZERO = Fraction(0)  # every zero entry of every built ``table``


class Value:
    """Equality by class and ``_fields``, and a hash of the fields but ``_algebra``.

    A value type makes its fields its ``__slots__`` and exposes each
    through ``read_only``.
    """

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and all(
            getattr(self, f) == getattr(other, f) for f in self._fields
        )

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields if f != "_algebra"))


def read_only(name):
    """The read-only property over the slot ``name``."""
    return property(attrgetter(name))


class LeibnizAlgebra(Value):
    """A Leibniz algebra presented by its structure-constant table."""

    _fields = ("scale", "int_sparse")

    def __init__(self, table, basis=None, name=""):
        dim = len(table)
        self.table = tuple(tuple(_coerce(row, EXACT) for row in plane) for plane in table)
        for plane in self.table:
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise ValueError("structure-constant table must be dim x dim x dim")
        entries = {
            (i, j): [(k, c.numerator, c.denominator) for k, c in enumerate(row) if c]
            for i, plane in enumerate(self.table)
            for j, row in enumerate(plane)
        }
        self._setup(dim, entries, basis, name)

    @classmethod
    def from_entries(cls, dim, entries, basis=None, name=""):
        """The algebra whose [e_i, e_j] has the nonzero entries of ``entries[i, j]``.

        Each entry is ``(k, num, den)``, k ascending, num/den in lowest terms
        with den > 0; the 0-based pairs (i, j) come in any order, and a
        missing pair is a zero bracket.  No dense table is built.
        """
        algebra = cls.__new__(cls)
        algebra._setup(dim, entries, basis, name)
        return algebra

    def _setup(self, dim, entries, basis, name):
        self.dim = dim
        self.basis = tuple(basis) if basis else tuple(f"e{i + 1}" for i in range(dim))
        if len(self.basis) != dim:
            raise ValueError("basis name count does not match dimension")
        self.name = name
        self.scale = scale = lcm(*(den for row in entries.values() for _, _, den in row))
        planes = [[] for _ in range(dim)]
        for (i, j), row in sorted(entries.items()):
            if row:
                planes[i].append((j, tuple((k, num * (scale // den)) for k, num, den in row)))
        self.int_sparse = tuple(map(tuple, planes))
        self._leibniz_violations = None
        self._is_lie = None
        self._left_center = None
        self._exp_ad = {}  # racks.exp_ad: (coords, mode, order) -> exp(ad_x)
        self._nilpotency_class = -2  # sentinel: not yet computed

    def __repr__(self):
        label = self.name or "LeibnizAlgebra"
        return f"<{label} dim={self.dim}>"

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

    # -- table views -------------------------------------------------------------

    @cached_property
    def table(self):
        """The dense Fraction table ``c[i][j][k]``, built from ``int_sparse`` on first use.

        Every zero entry is the shared ``ZERO``.  ``__init__`` keeps the table it is given.
        """
        n = self.dim
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, plane in enumerate(self.int_sparse):
            for j, entries in plane:
                for k, a in entries:
                    table[i][j][k] = Fraction(a, self.scale)
        return tuple(tuple(map(tuple, plane)) for plane in table)

    @cached_property
    def float_sparse(self):
        """``int_sparse`` over ``scale``, built on first use: ``float(c)`` bit for bit."""
        return tuple(
            tuple((j, tuple((k, c / self.scale) for k, c in row)) for j, row in plane)
            for plane in self.int_sparse
        )

    # -- bracket and adjoint operators ----------------------------------------

    def bracket_coords(self, x, y, sparse):
        """Bracket of two coordinate vectors, returned as a coordinate vector.

        ``sparse`` is the view to read: ``float_sparse`` for float
        coordinates, or ``int_sparse`` for int ones, whose bracket comes out
        times ``scale``.
        """
        out = [0] * self.dim
        for xi, plane in zip(x, sparse):
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

    def left_bracket(self, x, mode):
        """y -> [x, y] on coordinate lists, for coordinates x of the mode.

        Exact x = X / d_x is scaled to ints once; each y = Y / d_y is summed
        as Y on ``int_sparse`` by ``bracket_coords`` and comes back with one
        Fraction per nonzero entry over d_x·d_y·``scale`` (zero entries are
        the int 0).  Float x reads ``float_sparse``.
        """
        if mode == FLOAT:
            return partial(self.bracket_coords, x, sparse=self.float_sparse)
        ints, d_x = linalg.int_vector(x)
        den_x = d_x * self.scale

        def apply(y):
            y, d_y = linalg.int_vector(y)
            out, den = self.bracket_coords(ints, y, self.int_sparse), den_x * d_y
            return [Fraction(v, den) if v else 0 for v in out]

        return apply

    def bracket(self, x, y):
        _, mode = join_elements(x, y, self)
        return Element(self, self.left_bracket(x.coords, mode)(y.coords), mode)

    def int_ad(self, coords):
        """ad_x on ints for a rational list x = X / d: (columns, s) with s = d·``scale``.

        ``columns`` lists (j, [(k, a), ...]) for the nonzero columns of the
        int matrix s·ad_x, a = sum_i X_i·c[i][j][k]·``scale``, nonzero.
        """
        x, d = linalg.int_vector(coords)
        columns = enumerate(self._ad_columns(x, self.int_sparse))
        nonzero = [(j, [(k, a) for k, a in enumerate(c) if a]) for j, c in columns if any(c)]
        return nonzero, d * self.scale

    def _ad_columns(self, x, sparse):
        """The dense columns of sum_i x_i·(plane i of ``sparse``): ad_x, times ``scale`` on ints.

        Plane i lists the columns of ad_{e_i}.  Each entry starts from the
        int 0 and adds its terms in ascending i, as a dense loop does.
        """
        columns = [[0] * self.dim for _ in range(self.dim)]
        for xi, plane in zip(x, sparse):
            if xi:
                for j, row in plane:
                    column = columns[j]
                    for k, c in row:
                        column[k] += xi * c
        return columns

    def ad(self, x):
        """Left multiplication operator ad_x = [x, .] as an endomorphism.

        ``x`` is an Element, or an exact coordinate list.  Exact ad_x makes
        one Fraction over s per nonzero entry of ``int_ad``; float ad_x runs
        the same column sum on ``float_sparse``.
        """
        n = self.dim
        coords, mode = (x.coords, x.mode) if isinstance(x, Element) else (x, EXACT)
        if mode == FLOAT:
            columns = self._ad_columns(coords, self.float_sparse)
            return Endomorphism(self, list(zip(*columns)), FLOAT)
        columns, s = self.int_ad(coords)
        rows = [[ZERO] * n for _ in range(n)]
        for j, column in columns:
            for k, a in column:
                rows[k][j] = Fraction(a, s)
        return Endomorphism(self, rows)

    # -- identities ------------------------------------------------------------

    def leibniz_violations(self):
        """All basis triples violating the left Leibniz identity.

        Returns a list of ``((i, j, k), residual_coords)`` with 0-based
        indices; the residual [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]
        is an exact rational vector.

        The sums run on ``int_sparse``: each residual term is a product of two
        entries, so ``scale**2`` times the residual is an int vector.  Each
        bracket row is packed once (``linalg.pack``), so a nested bracket is
        one int multiply-add per coefficient; only a nonzero total is
        unpacked and divided back.
        """
        if self._leibniz_violations is not None:
            return self._leibniz_violations
        n = self.dim
        den = self.scale * self.scale
        # rows[p][q]: the nonzero (l, scale * c) of [e_p, e_q]
        rows = [[()] * n for _ in range(n)]
        for p, plane in enumerate(self.int_sparse):
            for q, entries in plane:
                rows[p][q] = entries
        largest = max((abs(c) for row in rows for entries in row for _, c in entries), default=0)
        width = linalg.slot_width(3 * n, largest * largest)
        packed = [[linalg.pack(entries, width) for entries in row] for row in rows]
        by_column = list(zip(*packed))  # by_column[q][p] = packed[p][q]
        violations = []
        for i in range(n):
            row_i, packed_i = rows[i], packed[i]
            for j in range(n):
                row_j, packed_j, ij = rows[j], packed[j], row_i[j]
                for k in range(n):
                    # [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - [e_j, [e_i, e_k]]
                    total = 0
                    for l, a in row_j[k]:
                        total += a * packed_i[l]
                    column = by_column[k]
                    for l, a in ij:
                        total -= a * column[l]
                    for l, a in row_i[k]:
                        total -= a * packed_j[l]
                    if total:
                        residual = [Fraction(r, den) for r in linalg.unpack(total, width, n)]
                        violations.append(((i, j, k), residual))
        self._leibniz_violations = violations
        return violations

    def is_leibniz(self):
        return not self.leibniz_violations()

    def is_lie(self):
        """True when the bracket is also antisymmetric (hence a Lie bracket).

        Antisymmetry is read off ``int_sparse``: no [e_i, e_i] is nonzero,
        and the row of every nonzero [e_i, e_j] is that of [e_j, e_i] negated.
        """
        if self._is_lie is None:
            planes = [dict(plane) for plane in self.int_sparse]
            self._is_lie = all(
                i != j and planes[j].get(i) == tuple((k, -c) for k, c in entries)
                for i, plane in enumerate(self.int_sparse)
                for j, entries in plane
            ) and self.is_leibniz()
        return self._is_lie

    def nilpotency_class(self):
        """Length of the longest nonvanishing bracket, or None if not nilpotent.

        Uses the descending chain V_1 = h, V_{k+1} = span of [e_i, V_k]; by the
        Leibniz identity every bracket word of length k lies in the span of
        such right-nested words.  A span does not change when the table is
        scaled, so the chain runs on ``int_sparse`` and int echelon rows.
        """
        if self._nilpotency_class != -2:
            return self._nilpotency_class
        n = self.dim
        level = [[int(i == j) for j in range(n)] for i in range(n)]
        k = 1
        while level:
            images = []
            for plane in self.int_sparse:  # the columns of scale·ad_{e_i}
                images += filter(any, map(int_apply(plane, n), level))
            nxt = linalg.echelon(images)[0] if images else []
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


def int_apply(columns, n):
    """The int map of ``columns`` (j, ((k, a), ...)) on lists of length n."""
    def apply(w):
        out = [0] * n
        for j, column in columns:
            wj = w[j]
            if wj:
                for k, a in column:
                    out[k] += wj * a
        return out
    return apply


def join_elements(x, y, algebra=None, mode=None):
    """The algebra and mode two elements, maps or covectors share; ValueError if not.

    Algebras are compared by identity.  A given ``algebra`` or ``mode`` is
    required of both: ``LeibnizAlgebra.bracket`` passes itself, and the
    exact-only cocycle kernels pass the quotient and ``EXACT``.
    """
    if x.algebra is not y.algebra or algebra is not None and x.algebra is not algebra:
        raise ValueError("elements belong to a different algebra")
    if x.mode != y.mode or mode is not None and x.mode != mode:
        raise ValueError(
            f"mixed scalar modes {x.mode!r} and {(y.mode if x.mode != y.mode else mode)!r}"
        )
    return x.algebra, x.mode


def _coerce(values, mode):
    """A tuple of the values as scalars of the mode, as ``linalg.scalar`` makes them."""
    if mode == FLOAT:
        return tuple(map(float, values))
    return tuple(c if type(c) is Fraction else Fraction(c) for c in values)


class Coordinates(Value):
    """Coordinates in a scalar mode: the base of ``Element`` and ``observables.Covector``.

    Equality compares class, coords, mode and then the algebra (by int
    table); the hash leaves the algebra out.  ``Endomorphism`` does the same.
    """

    __slots__ = _fields = ("_coords", "_mode", "_algebra")
    coords, mode, algebra = map(read_only, _fields)

    def __init__(self, algebra, coords, mode=EXACT):
        check_mode(mode)
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        self._algebra = algebra
        self._coords = _coerce(coords, mode)
        self._mode = mode

    def distance(self, other):
        join_elements(self, other)
        return linalg.gap(self.coords, other.coords, self.mode == EXACT)

    def to_float(self):
        return type(self)(self.algebra, [float(c) for c in self.coords], FLOAT)


class Element(Coordinates):
    """An algebra element: coordinates in the defining basis plus a scalar mode."""

    __slots__ = ()

    def __repr__(self):
        terms = [
            f"{c}*{name}" for c, name in zip(self.coords, self.algebra.basis) if c != 0
        ]
        return " + ".join(terms) if terms else "0"

    def __add__(self, other):
        alg, mode = join_elements(self, other)
        return Element(alg, linalg.vec_add(self.coords, other.coords), mode)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Element(self.algebra, [-c for c in self.coords], self.mode)

    def __rmul__(self, scalar):
        return Element(self.algebra, [scalar * c for c in self.coords], self.mode)

    def bracket(self, other):
        return self.algebra.bracket(self, other)

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class Endomorphism(Value):
    """A linear self-map of the algebra, stored as a matrix acting on coordinates."""

    __slots__ = _fields = ("_matrix", "_mode", "_algebra")
    matrix, mode, algebra = map(read_only, _fields)

    def __init__(self, algebra, matrix, mode=EXACT):
        check_mode(mode)
        n = algebra.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("endomorphism matrix must be dim x dim")
        self._algebra = algebra
        self._matrix = tuple(_coerce(row, mode) for row in matrix)
        self._mode = mode

    def __repr__(self):
        return f"<Endomorphism {self.mode} on dim {self.algebra.dim}>"

    def __call__(self, x):
        alg, mode = join_elements(self, x)
        return Element(alg, linalg.mat_vec(self.matrix, x.coords), mode)

    def __matmul__(self, other):
        alg, mode = join_elements(self, other)
        return Endomorphism(alg, linalg.mat_mul(self.matrix, other.matrix), mode)

    def distance(self, other):
        join_elements(self, other)
        return linalg.max_abs(
            a - b for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)
        )

    def inverse(self):
        invert = linalg.float_inverse if self.mode == FLOAT else linalg.inverse
        return Endomorphism(self.algebra, invert(self.matrix), self.mode)


def bracket_defects(source, target, matrix):
    """Basis pairs where a linear map a : source -> target breaks a[x,y] = [ax, ay].

    ``matrix`` is target.dim x source.dim.  Returns ``((i, j), defect)`` for
    every pair with a nonzero defect a[e_i, e_j] - [a e_i, a e_j], 0-based,
    summing nonzero terms only: a[e_i, e_j] over ``source.int_sparse`` and
    the nonzero entries of a = M / d, M on ints, [a e_i, a e_j] by
    ``target.bracket_coords``; a defect is an int vector over s·t·d², s and
    t the scales.  A float a reads ``float_sparse``, with the Fraction bits.
    """
    m = target.dim
    columns = [[row[i] for row in matrix] for i in range(source.dim)]
    exact = not any(type(a) is float for column in columns for a in column)
    if exact:
        flat, d = linalg.int_vector([a for column in columns for a in column])
        columns = [flat[i * m : (i + 1) * m] for i in range(source.dim)]
        s, td, den = source.scale, target.scale * d, source.scale * target.scale * d * d
        planes, sparse = source.int_sparse, target.int_sparse
    else:
        s = td = 1
        planes, sparse = source.float_sparse, target.float_sparse
    support = [[(r, a) for r, a in enumerate(column) if a] for column in columns]
    defects = []
    for i, plane in enumerate(planes):
        brackets = dict(plane)
        for j in range(source.dim):
            image = [0] * m
            for k, c in brackets.get(j, ()):
                for r, a in support[k]:
                    image[r] += c * a
            pushed = target.bracket_coords(columns[i], columns[j], sparse)
            defect = [u * td - v * s for u, v in zip(image, pushed)]
            if any(defect):
                defects.append(((i, j), [Fraction(x, den) for x in defect] if exact else defect))
    return defects


class Subspace:
    """A subspace of an algebra, held as a reduced-echelon basis matrix.

    ``basis_rows`` must be the canonical reduced echelon basis, as
    ``linalg.nullspace`` returns it (Fraction rows, each led by a 1); the
    pivot of a row is its first nonzero column.
    """

    def __init__(self, algebra, basis_rows):
        self.algebra = algebra
        self.basis_rows = basis_rows
        self.pivots = [next(j for j, x in enumerate(row) if x) for row in basis_rows]

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


def left_center(algebra):
    """The left center { x : [x, y] = 0 for all y }, as a Subspace.

    For a left Leibniz algebra this is a two-sided ideal containing all
    squares [x, x], and the quotient by it is a Lie algebra.  The nullspace
    does not change when the table is scaled, so its sparse rows come from
    ``int_sparse``; ``linalg.nullspace`` solves them modulo a prime and
    checks the basis on ints.  Its rows are the canonical reduced echelon
    basis already, so the Subspace takes them as they are, with no second
    elimination.  The algebra keeps the Subspace, so ``build_extension`` and
    ``derivation_algebra`` share one solve.
    """
    if algebra._left_center is None:
        rows = {}  # (j, k) -> the row {i: scale * c[i][j][k]}
        for i, plane in enumerate(algebra.int_sparse):
            for j, entries in plane:
                for k, c in entries:
                    rows.setdefault((j, k), {})[i] = c
        basis = linalg.nullspace([rows[key] for key in sorted(rows)], cols=algebra.dim)
        algebra._left_center = Subspace(algebra, basis)
    return algebra._left_center


class DerivationSummary:
    """Basis of der(h) plus the inner/outer dimension split.

    ``matrices`` holds the basis derivations as n x n lists of Fraction
    rows; ``basis`` makes their Endomorphisms on its first read, which a
    caller that wants only the dimensions, as ``analyze`` does, never pays
    for.
    """

    def __init__(self, algebra, matrices, dim_inner):
        self.algebra = algebra
        self.matrices = matrices
        self.dim_der = len(matrices)
        self.dim_inner = dim_inner
        self.dim_outer = self.dim_der - dim_inner

    @cached_property
    def basis(self):
        return [Endomorphism(self.algebra, matrix) for matrix in self.matrices]


def _derivation_rows(int_sparse):
    """The linear system cutting out the derivations, one sparse row per triple.

    ``int_sparse`` is ``algebra.int_sparse``, so every row is ``scale``
    times a row of the system.  The unknown is D, flattened to vec(D) with
    D[m][l] at m * n + l.  The row of (i, j, m) is the dict ``{column:
    coefficient}`` with row . vec(D) equal to ``scale`` times the m-th entry
    of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]; an entry that cancels stays as 0.
    Each nonzero c = c[p][q][k] is visited once: it puts c at D[m][k] in the
    n rows (p, q, m) of its bracket term, -c at D[p][i] in the n rows (i, q, k)
    of [De_i, e_q], and -c at D[q][j] in the n rows (p, j, k) of [e_p, De_j].
    So at most 3 n nnz rows are built, nnz the nonzero constants.
    """
    n = len(int_sparse)
    rows = {}  # (i * n + j) * n + m -> row
    for p, plane in enumerate(int_sparse):
        for q, entries in plane:
            base = (p * n + q) * n
            for m in range(n):
                rows[base + m] = {m * n + k: c for k, c in entries}
    nn = n * n
    for p, plane in enumerate(int_sparse):
        for q, entries in plane:
            for k, c in entries:
                key, col = q * n + k, p * n  # rows (i, q, k), column D[p][i]
                for i in range(n):
                    row = rows.setdefault(key, {})
                    row[col] = row.get(col, 0) - c
                    key += nn
                    col += 1
                key, col = p * nn + k, q * n  # rows (p, j, k), column D[q][j]
                for j in range(n):
                    row = rows.setdefault(key, {})
                    row[col] = row.get(col, 0) - c
                    key += n
                    col += 1
    return rows.values()


def _primitive(row):
    """A sparse int row divided by its content, leading entry positive.

    Two rows that are scalar multiples of each other give the same tuple of
    ``(column, entry)``; the zero row gives ().  A row of one entry is
    ``((column, 1),)``, with no sort and no gcd.
    """
    if len(row) == 1:
        [(col, c)] = row.items()
        return ((col, 1),) if c else ()
    entries = sorted((col, c) for col, c in row.items() if c)
    if not entries:
        return ()
    g = gcd(*(c for _, c in entries))
    if entries[0][1] < 0:
        g = -g
    return tuple((col, c // g) for col, c in entries)


def derivation_algebra(algebra):
    """Solve the linear system cutting out all derivations.

    The unknown is the matrix D; for every basis pair (i, j) the identity
    D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] is linear in the entries of D.
    ``_derivation_rows`` builds its rows from the nonzero constants of
    ``int_sparse``, each visited once, and rows that repeat up to a scalar
    are eliminated once (as a primitive int row): the reduced echelon
    basis of the nullspace depends only on the row space, which neither
    scaling nor row order changes.  ``linalg.nullspace`` solves those rows
    modulo a prime, rebuilds the rational basis and checks it against every
    row on ints, so the basis is exact.  Returns a DerivationSummary whose
    basis matrices are the reduced-echelon representatives of der(h).  The
    inner derivations are the image of x -> ad_x, whose kernel is the left
    center Z, so dim_inner = n - dim Z by rank-nullity, read off the
    ``left_center`` the algebra keeps.
    """
    n = algebra.dim
    unique = dict.fromkeys(map(_primitive, _derivation_rows(algebra.int_sparse)))
    unique.pop((), None)
    flat_basis = linalg.nullspace(list(map(dict, unique)), cols=n * n)
    matrices = [[row[k : k + n] for k in range(0, n * n, n)] for row in flat_basis]
    return DerivationSummary(algebra, matrices, n - left_center(algebra).dim)


def hemi_semi_direct(lie_algebra, action, module_dim, name=""):
    """Hemi-semi-direct product of a Lie algebra with a module.

    Carrier V + g with bracket [(v, x), (w, y)] = (x.w, [x, y]); the module
    coordinates come first in the new basis.  The result is a left Leibniz
    algebra that is usually not Lie; V lands inside its left center.

    ``action`` maps each basis vector of g to an (module_dim x module_dim)
    matrix and must be a Lie-algebra representation.  The product's Leibniz
    identity checks that: on basis triples (x, y, v) of g x g x V it reads
    rho([x, y]) v = [rho(x), rho(y)] v, and it holds on all others as g is
    Lie, so the first violation names the first failing basis pair of g.
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
    product = LeibnizAlgebra(table, basis=module_names + g_names, name=name)
    violations = product.leibniz_violations()
    if violations:
        (i, j, _), _ = violations[0]
        raise ValueError(
            f"action is not a representation on basis pair ({i - m + 1}, {j - m + 1})"
        )
    return product
