"""Rack structures on Leibniz algebras and matrix groups.

Two kinds of point share one binary operation shape x > y:

* Bass rack on the algebra itself: x > y = exp(ad_x)(y);
* conjugation rack on vector-matrix pairs: (v, g) > (w, h) = (g w, g h g^-1).
  The pairs (x, exp(ad_x)) of ``rh_embed`` form a subrack over the Bass
  rack, with the automorphisms exp(ad_x) acting on the algebra itself.

Both are pointed racks: self-distributive, with invertible left translations,
and unital against the distinguished base point.  A rack is nothing more
than its product function and its unit, which is what ``check_rack_axioms``
takes.

Exact exponentials never form matrix powers.  ``exp_terms``, the one
exact series loop, yields A^k v / k! on one vector, up to the first
vanishing term or a limit, and ``exp_action`` sums them.  Their int form is
the exact exp(ad_x) kernel (von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5): ``int_ad`` reads the int matrix s·ad_x, s = d_x·scale,
off ``algebra.int_sparse`` by columns for rational x = X / d_x, and the sum
T <- T·k·s + (s·ad_x)^k V runs over the one running denominator K!·s^K.
``exact_exp_action`` runs it on one vector v = V / d_v and makes one
canonical Fraction per coordinate (v itself when ad_x v = 0): exact
``bass_product``, and ``coadjoint`` on the columns of the transpose of
s·ad_{-x}.  ``int_exp_columns`` runs it on every unit vector and returns
the columns of exp(A) as ints over their least common denominator, for the
observable pullback and for exact ``exp_endo``, which makes one Fraction
per nonzero entry.  Exact
``conjugation_lemma_violations`` compares exp(ad_z) exp(ad_x) exp(ad_{-z}) e_j
with exp(ad_{a(x)}) e_j column by column on ints, with no inverse and no
matrix product.  ``block_exp_action`` runs the rational series of
``exp_terms`` on [[A, M], [0, B]], whose exponential holds
sum A^p M B^q / (p+q+1)! in its corner: the rack cocycle series and the
x-gradient of the generating function, with ``left_bracket`` maps as A and
B (exact x scaled to ints once, each vector summed on ``int_sparse``).

Float mode keeps the truncated Taylor matrix series with scaling and
squaring (Moler & Van Loan, SIAM Rev. 45(1), 2003): it rejects a matrix
with a non-finite entry or 1-norm, halves it to B of 1-norm at most 1, and
adds B^k / k!, k <= ``order``, into the identity.  Each power is kept as
the nonzero (j, v) of its rows: B itself, then the ``linalg.float_product``
of the last power and B, divided by k entry by entry; an all-zero power
ends the sum.  The squarings are ``float_product`` calls, each checked for
a non-finite entry.  These are the float operations of the dense loop in
its order, so the bits are its bits: a skipped zero leaves a total (never
-0.0) as it is, and a non-finite entry of a square stays non-finite in
every later one (its product with its column's diagonal entry is inf or nan).

Every caller that needs the matrix exp(ad_x) (the float paths and
``rh_embed``) asks ``exp_ad(x, order)``, which computes ``exp_endo(ad_x)``
once per algebra object, keyed by ``(x.coords, x.mode, order)``; nothing is
kept at module level.  ``exp_endo`` is the one place where an exponential
matrix is computed.

A ``PairElement`` is a value type on ``algebra.Value``: its vector and
matrix are read-only fields over slots, equality and the hash compare both,
and ``copy`` and ``pickle`` rebuild it.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, isfinite, lcm

from . import linalg
from .algebra import Element, Endomorphism, Value, bracket_defects, read_only
from .linalg import EXACT, FLOAT, int_vector
from .observables import Covector
from .reports import check_law, samples

DEFAULT_FLOAT_ORDER = 12
DEFAULT_FLOAT_TOL = 1e-9


def exp_terms(apply, v, limit=None, ints=False):
    """Yield A^k v / k!, k = 0, 1, ..., on coordinate lists; ``apply`` applies A.

    Term 0 is v; the terms stop before the first zero one or after term
    ``limit``.  With no limit, a nonzero term n = len(v) raises ValueError:
    A is not nilpotent.  ``Fraction(1, k)`` keeps int and Fraction input exact.
    With ``ints`` no term is divided: for an int map ``apply`` = s·A the
    terms are the numerators (sA)^k v of the terms over k!·s^k.
    """
    n = len(v)
    term = list(v)
    yield term
    k = 0
    while k != limit and any(term):
        k += 1
        if limit is None and k > n:
            raise ValueError(
                f"exact exponential needs a nilpotent matrix: no power up to {n} "
                "vanishes; use float mode"
            )
        term = apply(term)
        if not ints:
            inv = Fraction(1, k)
            term = [inv * t if t else t for t in term]
        if any(term):
            yield term


def exp_action(apply, v, limit=None, step=None):
    """exp(A) v, the sum of ``exp_terms(apply, v, limit)``.

    The int form takes a positive int ``step`` s, an int map ``apply`` = s·A
    and an int list v, and returns (T, D) with exp(A) v = T / D: after the
    last nonzero term K, D = K!·s^K, and T <- T·k·s + (sA)^k v at term k.
    """
    terms = exp_terms(apply, v, limit, ints=step is not None)
    total = next(terms)
    if step is None:
        for term in terms:
            total = [a + t if t else a for a, t in zip(total, term)]
        return total
    den = 1
    for k, term in enumerate(terms, 1):
        grow = k * step
        den *= grow
        total = [a * grow + t for a, t in zip(total, term)]
    return total, den


def int_ad(algebra, x):
    """ad_x on ints for a rational list x = X / d: (columns, s) with s = d·scale.

    ``columns`` lists (j, ((k, a), ...)) for the nonzero columns of the int
    matrix s·ad_x, read off ``algebra.int_sparse``:
    a = sum_i X_i·c[i][j][k]·scale, nonzero.
    """
    x, d = int_vector(x)
    found = {}
    for xi, plane in zip(x, algebra.int_sparse):
        if xi:
            for j, row in plane:
                column = found.setdefault(j, {})
                for k, c in row:
                    column[k] = column.get(k, 0) + xi * c
    columns = [(j, tuple((k, a) for k, a in col.items() if a)) for j, col in found.items()]
    return [column for column in columns if column[1]], d * algebra.scale


def int_apply(columns, n):
    """The int map of ``columns`` on lists of length n."""
    def apply(w):
        out = [0] * n
        for j, column in columns:
            wj = w[j]
            if wj:
                for k, a in column:
                    out[k] += wj * a
        return out
    return apply


def exact_exp_action(columns, step, v):
    """exp(A) v for a rational list v, A = columns / step as ``int_ad`` gives it.

    The sum runs on ints (``exp_action``'s int form) and one canonical
    Fraction is made per coordinate at the end; v comes back as it is when
    A v = 0.
    """
    ints, d = int_vector(v)
    total, den = exp_action(int_apply(columns, len(ints)), ints, step=step)
    if den == 1 and total == ints:
        return v
    den *= d
    return [Fraction(t, den) for t in total]


def int_exp_columns(columns, step, n):
    """The columns of exp(A), A = columns / step as ``int_ad`` gives them: (ints, D).

    ``ints[j]`` is D·exp(A) e_j on ints, D the least common denominator.  A
    column whose series stops at term k has d = k!·step^k, dividing the largest.
    """
    apply = int_apply(columns, n)
    found = [exp_action(apply, [int(i == j) for j in range(n)], step=step) for i in range(n)]
    den = max((d for _, d in found), default=1)
    ints = [[t * (den // d) for t in column] for column, d in found]
    g = gcd(den, *chain.from_iterable(ints))
    return [[t // g for t in column] for column in ints], den // g


def block_exp_action(a, m, b, dim, v, limit):
    """sum_{k<=limit} 1/k! sum_{p+q=k-1} A^p M B^q v: the top of exp([[A, M], [0, B]]) (0, v).

    A acts on lists of length ``dim``, B on those of ``len(v)``, M maps the
    second to the first (Van Loan, IEEE TAC 23(3), 1978).
    """

    def apply(u):
        top, bottom = u[:dim], u[dim:]
        return [s + t for s, t in zip(a(top), m(bottom))] + b(bottom)

    return exp_action(apply, [0] * dim + list(v), limit)[:dim]


def exp_endo(endo, order=DEFAULT_FLOAT_ORDER):
    """Exponential of an endomorphism.

    Exact mode scales A to ints by the lcm of its denominators, takes
    ``int_exp_columns`` and makes one Fraction per nonzero entry; it raises
    when A^n fails to vanish (n the dimension) and returns the identity on a
    0-dimensional algebra.  Float mode truncates the series at the given
    order, after scaling-and-squaring whenever the matrix 1-norm exceeds 1,
    and raises ValueError when the input has a non-finite entry or 1-norm or
    the result overflows to a non-finite entry.
    """
    n = endo.algebra.dim
    if endo.mode == EXACT:
        d = lcm(*(a.denominator for row in endo.matrix for a in row))
        ints = [(j, [(k, a.numerator * (d // a.denominator)) for k, a in enumerate(column) if a])
                for j, column in enumerate(zip(*endo.matrix))]  # d·A by columns, empty ones kept
        columns, den = int_exp_columns(ints, d, n)
        zero = Fraction(0)
        rows = [[Fraction(t, den) if t else zero for t in row] for row in zip(*columns)]
        return Endomorphism(endo.algebra, rows, EXACT)
    norm = linalg.mat_norm_1(endo.matrix)
    if not (isfinite(norm) and all(map(isfinite, chain.from_iterable(endo.matrix)))):
        raise _overflowed(endo)
    squarings = 0
    while norm > 1.0:
        norm /= 2.0
        squarings += 1
    scale = 1.0 / (1 << squarings)
    entries = [[(j, v) for j, x in enumerate(row) if (v := scale * x)] for row in endo.matrix]
    total = linalg.identity_matrix(n, FLOAT)
    power = entries  # the first power: I·B adds 1.0 * v onto 0.0, which is v
    for row, acc in zip(power if order else (), total):
        for j, v in row:
            acc[j] += v
    for k in range(2, order + 1):
        # ||B||_1 <= 1 bounds every power by 1/k!, so all stay finite
        inv = 1.0 / k
        power, product = [], linalg.float_product(power, entries, n)
        for row, acc in zip(product, total):
            kept = []
            for j, v in enumerate(row):
                if v and (v := inv * v):
                    kept.append((j, v))
                    acc[j] += v
            power.append(kept)
        if not any(power):
            break
    for _ in range(squarings):
        rows = linalg.nonzero_rows(total)
        total = linalg.float_product(rows, rows, n)
        if not all(map(isfinite, chain.from_iterable(total))):
            raise _overflowed(endo)
    return Endomorphism(endo.algebra, total, FLOAT)


def _overflowed(endo):
    return ValueError(
        f"float exponential overflowed: exp of a matrix with 1-norm "
        f"{linalg.mat_norm_1(endo.matrix)} has a non-finite entry"
    )


def exp_ad(x, order=DEFAULT_FLOAT_ORDER):
    """exp(ad_x) as an endomorphism, computed once per algebra.

    The key ``(x.coords, x.mode, order)`` is exact: ``ad`` skips zero
    coordinates, so 0.0 and -0.0 (equal keys) give the same matrix, and the
    mode keeps a Fraction apart from the float it equals.  Every caller gets
    the same object, which is safe because an Endomorphism is immutable.
    """
    cache = x.algebra._exp_ad
    key = (x.coords, x.mode, order)
    found = cache.get(key)
    if found is None:
        found = cache[key] = exp_endo(x.algebra.ad(x), order)
    return found


def bass_product(x, y, order=DEFAULT_FLOAT_ORDER):
    """x > y = exp(ad_x)(y)."""
    alg = x.algebra
    if x.mode == y.mode == EXACT:
        return Element(alg, exact_exp_action(*int_ad(alg, x.coords), y.coords))
    return exp_ad(x, order)(y)


def coadjoint(x, xi, order=DEFAULT_FLOAT_ORDER):
    """Coadjoint rack action on covectors: xi composed with exp(-ad_x)."""
    alg = x.algebra
    if x.mode == xi.mode == EXACT:
        # xi o exp(A) = exp(A^T) xi: the columns of s·ad_{-x}, regrouped by row
        columns, s = int_ad(alg, [-c for c in x.coords])
        rows = {}
        for j, column in columns:
            for k, a in column:
                rows.setdefault(k, []).append((j, a))
        return Covector(alg, exact_exp_action(list(rows.items()), s, xi.coords))
    mat = exp_ad(-x, order).matrix
    return Covector(alg, linalg.vec_mat(xi.coords, mat), xi.mode)


class PairElement(Value):
    """A point of the conjugation rack: a module vector and a group matrix."""

    __slots__ = _fields = ("_vector", "_matrix")
    vector, matrix = map(read_only, _fields)

    def __init__(self, vector, matrix):
        self._vector = tuple(vector)
        self._matrix = tuple(tuple(row) for row in matrix)

    def distance(self, other):
        """The larger ``linalg.gap`` of the vectors and of the matrices, exact if all Fractions."""
        a, b = (tuple(chain.from_iterable(m)) for m in (self.matrix, other.matrix))
        exact = all(type(v) is Fraction for v in chain(self.vector, other.vector, a, b))
        dv = linalg.gap(self.vector, other.vector, exact)
        return linalg.max_abs((dv, linalg.gap(a, b, exact)))


def hs_rack_product(a, b):
    """(v, g) > (w, h) = (g w, (g h) g^-1).

    g^-1 is the exact ``linalg.inverse``, or ``linalg.float_inverse`` (each
    entry rounded once) when g is float.
    """
    g = a.matrix
    float_g = any(type(x) is float for row in g for x in row)
    g_inv = (linalg.float_inverse if float_g else linalg.inverse)(g)
    return PairElement(
        linalg.mat_vec(g, b.vector), linalg.mat_mul(linalg.mat_mul(g, b.matrix), g_inv)
    )


def rh_embed(x, order=DEFAULT_FLOAT_ORDER):
    """x -> (x, exp(ad_x)), the point of the conjugation rack over x.

    These points form a subrack: ``hs_rack_product`` of two of them is the
    point over ``bass_product`` (``pair_rack_closure_violations``).
    """
    return PairElement(x.coords, exp_ad(x, order).matrix)


def check_rack_axioms(product, unit, triples, tol=0):
    """Check self-distributivity, left injectivity, and pointedness on a sample.

    ``product`` is the rack operation x > y and ``unit`` its base point;
    points are compared by their own ``distance``.  Returns a CheckReport
    whose violations carry the axiom name, the sample index, and the
    residual.  Left injectivity is tested only where y and z differ, fails
    when x > y and x > z coincide within tol, and stays out of the worst
    residual; the unit laws follow all triple laws.  A triple computes x > y
    and x > z once, for both of its laws.
    """
    p = product

    def laws(w):
        kind, (x, y, z) = w
        if kind == "unit":
            return {
                "unit-acts-trivially": p(unit, x).distance(x),
                "unit-is-fixed": p(x, unit).distance(unit),
            }
        xy, xz = p(x, y), p(x, z)
        return {
            "self-distributivity": p(x, p(y, z)).distance(p(xy, xz)),
            "left-injectivity": xy.distance(xz) if y.distance(z) > tol else None,
        }

    witnesses = [(where, ("triple", t)) for where, t in samples(triples)]
    witnesses += [(where, ("unit", t)) for where, t in samples(triples)]
    return check_law(
        "rack-axioms", witnesses, laws, tol, len(triples), apart=("left-injectivity",)
    )


def conjugation_lemma_violations(pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Check a exp(ad_x) a^-1 = exp(ad_{a(x)}) for automorphisms a = exp(ad_z).

    ``pairs`` is a list of (z, x) element pairs; the automorphism is built
    from z so the identity can be tested without hand-made automorphisms.
    In exact mode the residual comes from ``exact_conjugation_residual``,
    without a matrix.
    """

    def residual(pair):
        z, x = pair
        if z.mode == x.mode == EXACT:
            return exact_conjugation_residual(z, x)
        a = exp_ad(z, order)
        return (a @ exp_ad(x, order) @ a.inverse()).distance(exp_ad(a(x), order))

    return check_law("conjugation-lemma", samples(pairs, "conjugation"), residual, tol)


def exact_conjugation_residual(z, x):
    """Largest entry of |a exp(ad_x) a^-1 - exp(ad_{a(x)})|, a = exp(ad_z), by columns.

    Column j compares exp(ad_z) exp(ad_x) exp(ad_{-z}) e_j with
    exp(ad_{a(x)}) e_j: exp(ad_z)^-1 = exp(ad_{-z}) holds exactly, since an
    exact series only ends where the map is nilpotent on the vectors it
    meets.  Int vectors pass from one action to the next, their
    denominators multiply, and the residual is the one Fraction made; the
    right side is ``int_exp_columns`` of ad_{a(x)}.
    """
    alg = z.algebra
    n = alg.dim
    ad_z, s_z = int_ad(alg, z.coords)
    neg = [(j, tuple((k, -a) for k, a in col)) for j, col in ad_z]
    ad_x = int_ad(alg, x.coords)
    ax = exact_exp_action(ad_z, s_z, x.coords)
    rhs, rhs_den = int_exp_columns(*int_ad(alg, ax), n)
    maps = [(int_apply(m, n), s) for m, s in ((neg, s_z), ad_x, (ad_z, s_z))]
    worst, worst_den = 0, 1
    for j, want in enumerate(rhs):
        lhs, den = [int(i == j) for i in range(n)], 1
        for apply, step in maps:
            lhs, d = exp_action(apply, lhs, step=step)
            den *= d
        gap = max(abs(a * rhs_den - b * den) for a, b in zip(lhs, want))
        den *= rhs_den
        if gap * worst_den > worst * den:
            worst, worst_den = gap, den
    return Fraction(worst, worst_den)


def coadjoint_action_violations(pairs, xis, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Left-action law of the coadjoint rack action on covectors.

    For all x, y and covectors xi:  Ad*_x (Ad*_y xi) = Ad*_{x>y} (Ad*_x xi).
    """

    def residual(w):
        (x, y), xi = w
        lhs = coadjoint(x, coadjoint(y, xi, order), order)
        rhs = coadjoint(bass_product(x, y, order), coadjoint(x, xi, order), order)
        return lhs.distance(rhs)

    witnesses = samples(zip(pairs, xis), "coadjoint-left-action")
    return check_law("coadjoint-action", witnesses, residual, tol, len(pairs))


def pair_rack_closure_violations(pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """The conjugation rack closes over the embedded points.

    For embedded x, y the product (x, exp ad_x) > (y, exp ad_y) must again
    be an embedded point, namely the one over x > y; this is the matrix
    form of conjugation-invariance of exponentials of inner derivations.
    """

    def residual(pair):
        x, y = pair
        got = hs_rack_product(rh_embed(x, order), rh_embed(y, order))
        return got.distance(rh_embed(bass_product(x, y, order), order))

    return check_law("pair-rack-closure", samples(pairs, "pair-rack-closure"), residual, tol)


def rack_morphism_check(source, target, matrix, pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Check that an algebra morphism intertwines the embedded conjugation racks.

    ``matrix`` is a target.dim x source.dim rational matrix; ``pairs`` are
    (x, y) samples in the source.  The map must preserve brackets on basis
    pairs, and phi(x) = (a(x), exp(ad_{a(x)})) must send x > y to
    phi(x) > phi(y) in the conjugation rack of the target.  Both laws are judged
    against ``tol``; the bracket defects come first.
    """

    def push(x):
        return target.element(linalg.mat_vec(matrix, list(x.coords)), x.mode)

    def residual(w):
        kind, value = w
        if kind == "pair":
            return linalg.max_abs(value)
        x, y = value
        got = hs_rack_product(rh_embed(push(x), order), rh_embed(push(y), order))
        return rh_embed(push(bass_product(x, y, order)), order).distance(got)

    witnesses = [
        ({"axiom": "bracket-morphism", "pair": ij}, ("pair", defect))
        for ij, defect in bracket_defects(source, target, matrix)
    ]
    witnesses += [(where, ("sample", p)) for where, p in samples(pairs, "rack-morphism")]
    return check_law("rack-morphism", witnesses, residual, tol, source.dim ** 2 + len(pairs))
