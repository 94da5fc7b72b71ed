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
exact series loop, yields A^k v / k! on one vector, applying A by a sparse
product (a bracket with x for ad_x, its transpose for a covector), up to
the first vanishing term or a limit; ``exp_action`` sums them, so exact
``bass_product`` and ``coadjoint`` cost a few brackets, and ``exp_endo``
builds the exact matrix column by column.  ``block_exp_action`` runs it on
[[A, M], [0, B]], whose exponential holds sum A^p M B^q / (p+q+1)! in its
corner: the rack cocycle series and the x-gradient of the generating
function.  Float mode keeps the truncated Taylor matrix series with
scaling and squaring (Moler & Van Loan, SIAM Rev. 45(1), 2003): it rejects
a matrix with a non-finite entry or 1-norm, halves the matrix until its
1-norm is at most 1, then runs ``order`` products power <- (power @ A) / k,
adding each power to the total.  The nonzero rows of the scaled A are
listed once per call, and each product goes through
``linalg.float_product``, which forms no product with a zero factor and
gives ``mat_mul``'s bits; ad_x of sl2 x| V_m is mostly zero blocks.  The
squarings are ``mat_mul`` calls.

Every caller that needs the matrix exp(ad_x) asks ``exp_ad(x, order)``.  It
computes ``exp_endo(ad_x)`` once and keeps it in a dict on the algebra
object, keyed by ``(x.coords, x.mode, order)``, so a law that reuses a
sampled element many times pays for one exponential.  The cache lives and
dies with the algebra: nothing is kept at module level, and a freshly
loaded algebra starts empty.  ``exp_endo`` stays the one place where an
exponential is computed.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isfinite

from . import linalg
from .algebra import Element, Endomorphism, bracket_defects
from .linalg import EXACT, FLOAT
from .observables import Covector
from .reports import check_law, samples

DEFAULT_FLOAT_ORDER = 12
DEFAULT_FLOAT_TOL = 1e-9


def exp_terms(apply, v, limit=None):
    """Yield A^k v / k!, k = 0, 1, ..., on coordinate lists; ``apply`` applies A.

    Term 0 is v; the terms stop before the first zero one or after term
    ``limit``.  With no limit, a nonzero term n = len(v) raises ValueError:
    A is not nilpotent.  ``Fraction(1, k)`` keeps int and Fraction input exact.
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
        inv = Fraction(1, k)
        term = [inv * t if t else t for t in apply(term)]
        if any(term):
            yield term


def exp_action(apply, v, limit=None):
    """exp(A) v, the sum of ``exp_terms(apply, v, limit)``."""
    terms = exp_terms(apply, v, limit)
    total = next(terms)
    for term in terms:
        total = [a + t if t else a for a, t in zip(total, term)]
    return total


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

    Exact mode applies ``exp_action`` to each basis vector and is exact; it
    raises when A^n fails to vanish (n the dimension) and returns the
    identity on a 0-dimensional algebra.  Float mode truncates the series
    at the given order, after scaling-and-squaring whenever the matrix
    1-norm exceeds 1, and raises ValueError when the input has a non-finite
    entry or 1-norm or the result overflows to a non-finite entry.
    """
    n = endo.algebra.dim
    if endo.mode == EXACT:
        entries = [[(j, a) for j, a in enumerate(row) if a != 0] for row in endo.matrix]

        def apply(v):
            return [sum(a * v[j] for j, a in row if v[j]) for row in entries]

        columns = [exp_action(apply, unit) for unit in linalg.identity_matrix(n)]
        return Endomorphism(endo.algebra, linalg.transpose(columns), EXACT)
    norm = linalg.mat_norm_1(endo.matrix)
    if not (isfinite(norm) and all(map(isfinite, chain.from_iterable(endo.matrix)))):
        raise _overflowed(endo)
    squarings = 0
    while norm > 1.0:
        norm /= 2.0
        squarings += 1
    scaled = linalg.mat_scale(1.0 / (1 << squarings), endo.matrix) if squarings else endo.matrix
    scaled = [[float(x) for x in row] for row in scaled]
    # ||scaled||_1 <= 1 bounds every power by 1/k!, so all stay finite and
    # float_product gives mat_mul's bits without checking again
    entries = linalg.nonzero_rows(scaled)
    total = linalg.identity_matrix(n, FLOAT)
    power = linalg.identity_matrix(n, FLOAT)
    for k in range(1, order + 1):
        inv = 1.0 / k
        power = linalg.float_product(power, entries, n)
        # scale the fresh product in place and add it into the total, skipping
        # zeros: a zero times 1/k is the same zero, and adding a zero to a
        # total that is never -0.0 leaves it as it is; a product that
        # underflows is still added
        for row, acc in zip(power, total):
            for j, v in enumerate(row):
                if v:
                    row[j] = v = inv * v
                    acc[j] += v
    for _ in range(squarings):
        total = linalg.mat_mul(total, total)
    if not all(isfinite(x) for row in total for x in row):
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
        return Element(alg, exp_action(lambda v: alg.bracket_coords(x.coords, v), y.coords))
    return exp_ad(x, order)(y)


def coadjoint(x, xi, order=DEFAULT_FLOAT_ORDER):
    """Coadjoint rack action on covectors: xi composed with exp(-ad_x)."""
    alg = x.algebra
    if x.mode == xi.mode == EXACT:
        neg = [-c for c in x.coords]
        return Covector(alg, exp_action(lambda v: alg.dual_bracket_coords(neg, v), xi.coords))
    mat = exp_ad(-x, order).matrix
    return Covector(alg, linalg.vec_mat(xi.coords, mat), xi.mode)


@dataclass(frozen=True, slots=True)
class PairElement:
    """A point of the conjugation rack: a module vector and a group matrix."""

    vector: tuple
    matrix: tuple

    def __init__(self, vector, matrix):
        object.__setattr__(self, "vector", tuple(vector))
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))

    def distance(self, other):
        dv = linalg.max_abs(a - b for a, b in zip(self.vector, other.vector))
        dm = linalg.max_abs(
            a - b for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)
        )
        return linalg.max_abs((dv, dm))


def hs_rack_product(a, b):
    """(v, g) > (w, h) = (g w, (g h) g^-1).

    g^-1 is the exact ``linalg.inverse``, rounded to floats when g is float.
    """
    g = a.matrix
    g_inv = linalg.inverse(g)
    if any(type(x) is float for row in g for x in row):
        g_inv = [[float(x) for x in row] for row in g_inv]
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
    residual; the unit laws follow all triple laws.
    """
    p = product

    def laws(w):
        kind, (x, y, z) = w
        if kind == "unit":
            return {
                "unit-acts-trivially": p(unit, x).distance(x),
                "unit-is-fixed": p(x, unit).distance(unit),
            }
        return {
            "self-distributivity": p(x, p(y, z)).distance(p(p(x, y), p(x, z))),
            "left-injectivity": p(x, y).distance(p(x, z)) if y.distance(z) > tol else None,
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
    """

    def residual(pair):
        z, x = pair
        a = exp_ad(z, order)
        return (a @ exp_ad(x, order) @ a.inverse()).distance(exp_ad(a(x), order))

    return check_law("conjugation-lemma", samples(pairs, "conjugation"), residual, tol)


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
