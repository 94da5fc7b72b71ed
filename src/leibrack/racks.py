"""Rack structures on Leibniz algebras and matrix groups.

Three carriers share one binary operation shape x > y:

* Bass rack on the algebra itself: x > y = exp(ad_x)(y);
* conjugation rack on module-matrix pairs: (v, g) > (w, h) = (g w, g h g^-1);
* pair rack on (element, automorphism) pairs mixing the two.

All are pointed racks: self-distributive, with invertible left translations,
and unital against the distinguished base point.

Exact exponentials never form matrix powers.  ``exp_action`` sums
A^k v / k! on one vector, applying A by a sparse product (a bracket with x
for ad_x, its transpose for a covector), and stops at the first vanishing
term, so exact ``bass_product`` and ``coadjoint`` cost a few brackets.
``exp_endo`` builds the exact matrix, where a caller needs one, column by
column from the same routine.  Float mode keeps the truncated Taylor
matrix series with scaling and squaring.

Every caller that needs the matrix exp(ad_x) asks ``exp_ad(x, order)``.  It
computes ``exp_endo(ad_x)`` once and keeps it in a dict on the algebra
object, keyed by ``(x.coords, x.mode, order)``, so a law that reuses a
sampled element many times pays for one exponential.  The cache lives and
dies with the algebra: nothing is kept at module level, and a freshly
loaded algebra starts empty.  ``exp_endo`` stays the one place where an
exponential is computed.
"""

from fractions import Fraction

from . import linalg
from .algebra import Element, Endomorphism
from .linalg import EXACT, FLOAT
from .observables import Covector
from .reports import CheckReport
from .sampling import rational_vector, sample_invertible_matrix

DEFAULT_FLOAT_ORDER = 12
DEFAULT_FLOAT_TOL = 1e-9


def exp_action(apply, v):
    """Exact exp(A) v = sum_k A^k v / k! for a nilpotent linear map A.

    ``apply`` maps a coordinate list to its image under A.  The sum stops at
    the first vanishing term; raises ValueError when A^n v is still nonzero
    for n = len(v), since then A is not nilpotent.
    """
    n = len(v)
    total = list(v)
    term = total
    k = 0
    while any(term):
        k += 1
        if k > n:
            raise ValueError(
                f"exact exponential needs a nilpotent matrix: no power up to {n} vanishes"
            )
        inv = Fraction(1, k)
        term = [inv * t if t else t for t in apply(term)]
        total = [a + t if t else a for a, t in zip(total, term)]
    return total


def exp_endo(endo, order=DEFAULT_FLOAT_ORDER):
    """Exponential of an endomorphism.

    Exact mode applies ``exp_action`` to each basis vector and is exact; it
    raises when A^n fails to vanish (n the dimension) and returns the
    identity on a 0-dimensional algebra.  Float mode truncates the series
    at the given order, after scaling-and-squaring whenever the matrix
    1-norm exceeds 1.
    """
    n = endo.algebra.dim
    if endo.mode == EXACT:
        entries = [[(j, a) for j, a in enumerate(row) if a != 0] for row in endo.matrix]

        def apply(v):
            return [sum(a * v[j] for j, a in row if v[j]) for row in entries]

        columns = [exp_action(apply, unit) for unit in linalg.identity_matrix(n)]
        return Endomorphism(endo.algebra, linalg.transpose(columns), EXACT)
    norm = linalg.mat_norm_1(endo.matrix)
    squarings = 0
    while norm > 1.0:
        norm /= 2.0
        squarings += 1
    scaled = linalg.mat_scale(1.0 / (1 << squarings), endo.matrix) if squarings else endo.matrix
    scaled = [[float(x) for x in row] for row in scaled]
    total = linalg.identity_matrix(n, FLOAT)
    power = linalg.identity_matrix(n, FLOAT)
    for k in range(1, order + 1):
        power = linalg.mat_scale(1.0 / k, linalg.mat_mul(power, scaled))
        total = linalg.mat_add(total, power)
    for _ in range(squarings):
        total = linalg.mat_mul(total, total)
    return Endomorphism(endo.algebra, total, FLOAT)


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


class BassRack:
    """The algebra carrier with x > y = exp(ad_x)(y)."""

    def __init__(self, algebra, mode=EXACT, order=DEFAULT_FLOAT_ORDER):
        if mode == EXACT and not algebra.is_nilpotent():
            raise ValueError(
                "exact mode needs a nilpotent algebra; rerun in float mode"
            )
        self.algebra = algebra
        self.mode = mode
        self.order = order

    def product(self, x, y):
        return bass_product(x, y, self.order)

    def unit(self):
        return self.algebra.zero(self.mode)

    def distance(self, x, y):
        return x.distance(y)

    def sample(self, count, seed, scale=Fraction(1)):
        from .sampling import sample_elements

        return sample_elements(self.algebra, count, seed, self.mode, scale)


class PairElement:
    """A point of the conjugation rack: a module vector and a group matrix."""

    __slots__ = ("vector", "matrix")

    def __init__(self, vector, matrix):
        object.__setattr__(self, "vector", tuple(vector))
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))

    def __setattr__(self, name, value):
        raise AttributeError("PairElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PairElement)
            and self.vector == other.vector
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.vector, self.matrix))

    def __repr__(self):
        return f"PairElement({self.vector}, {self.matrix})"

    def distance(self, other):
        dv = max((abs(a - b) for a, b in zip(self.vector, other.vector)), default=0)
        dm = max(
            (
                abs(a - b)
                for ra, rb in zip(self.matrix, other.matrix)
                for a, b in zip(ra, rb)
            ),
            default=0,
        )
        return max(dv, dm)


def hs_rack_product(a, b):
    """(v, g) > (w, h) = (g w, g h g^-1)."""
    g_inv = linalg.inverse(a.matrix)
    return PairElement(
        linalg.mat_vec(a.matrix, list(b.vector)),
        linalg.mat_mul(a.matrix, linalg.mat_mul(b.matrix, g_inv)),
    )


class HsRack:
    """Module-matrix pairs under the conjugation rack product."""

    def __init__(self, module_dim):
        self.module_dim = module_dim

    def product(self, a, b):
        return hs_rack_product(a, b)

    def unit(self):
        n = self.module_dim
        return PairElement([Fraction(0)] * n, linalg.identity_matrix(n))

    def distance(self, a, b):
        return a.distance(b)

    def sample(self, count, seed):
        import random

        rng = random.Random(seed)
        n = self.module_dim
        return [
            PairElement(rational_vector(rng, n), sample_invertible_matrix(rng, n))
            for _ in range(count)
        ]


class RhElement:
    """A point of the pair rack: an algebra element with an automorphism."""

    __slots__ = ("point", "aut")

    def __init__(self, point, aut):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "aut", aut)

    def __setattr__(self, name, value):
        raise AttributeError("RhElement is immutable")

    def __eq__(self, other):
        return isinstance(other, RhElement) and self.point == other.point and self.aut == other.aut

    def __repr__(self):
        return f"RhElement({self.point!r}, {self.aut!r})"

    def distance(self, other):
        return max(self.point.distance(other.point), self.aut.distance(other.aut))


def rh_embed(x, order=DEFAULT_FLOAT_ORDER):
    """x -> (x, exp(ad_x)), the canonical point of the pair rack over x."""
    return RhElement(x, exp_ad(x, order))


def rh_product(a, b):
    """(x, A) > (y, B) = (A y, A B A^-1)."""
    first = a.aut(b.point)
    second = a.aut @ b.aut @ a.aut.inverse()
    return RhElement(first, second)


class RhRack:
    def __init__(self, algebra, mode=EXACT, order=DEFAULT_FLOAT_ORDER):
        self.algebra = algebra
        self.mode = mode
        self.order = order

    def product(self, a, b):
        return rh_product(a, b)

    def unit(self):
        return RhElement(
            self.algebra.zero(self.mode), Endomorphism.identity(self.algebra, self.mode)
        )

    def distance(self, a, b):
        return a.distance(b)

    def sample(self, count, seed, scale=Fraction(1)):
        from .sampling import sample_elements

        return [
            rh_embed(x, self.order)
            for x in sample_elements(self.algebra, count, seed, self.mode, scale)
        ]


def check_rack_axioms(rack, triples, tol=0):
    """Check self-distributivity, left injectivity, and pointedness on a sample.

    Returns a CheckReport whose violations carry the axiom name, the sample
    index, and the residual.
    """
    violations = []
    worst = 0
    for idx, (x, y, z) in enumerate(triples):
        lhs = rack.product(x, rack.product(y, z))
        rhs = rack.product(rack.product(x, y), rack.product(x, z))
        r = rack.distance(lhs, rhs)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "self-distributivity", "sample": idx, "residual": r})
        if rack.distance(y, z) > tol:
            r_inj = rack.distance(rack.product(x, y), rack.product(x, z))
            if r_inj <= tol:
                violations.append(
                    {"axiom": "left-injectivity", "sample": idx, "residual": r_inj}
                )
    unit = rack.unit()
    for idx, (x, _, _) in enumerate(triples):
        r_left = rack.distance(rack.product(unit, x), x)
        r_right = rack.distance(rack.product(x, unit), unit)
        worst = max(worst, r_left, r_right)
        if r_left > tol:
            violations.append({"axiom": "unit-acts-trivially", "sample": idx, "residual": r_left})
        if r_right > tol:
            violations.append({"axiom": "unit-is-fixed", "sample": idx, "residual": r_right})
    return CheckReport(
        name="rack-axioms", checked=len(triples), violations=violations, max_residual=worst
    )


def conjugation_lemma_violations(algebra, pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Check a exp(ad_x) a^-1 = exp(ad_{a(x)}) for automorphisms a = exp(ad_z).

    ``pairs`` is a list of (z, x) element pairs; the automorphism is built
    from z so the identity can be tested without hand-made automorphisms.
    """
    violations = []
    worst = 0
    for idx, (z, x) in enumerate(pairs):
        a = exp_ad(z, order)
        lhs = a @ exp_ad(x, order) @ a.inverse()
        rhs = exp_ad(a(x), order)
        r = lhs.distance(rhs)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "conjugation", "sample": idx, "residual": r})
    return CheckReport(
        name="conjugation-lemma", checked=len(pairs), violations=violations, max_residual=worst
    )


def coadjoint_action_violations(algebra, pairs, xis, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Left-action law of the coadjoint rack action on covectors.

    For all x, y and covectors xi:  Ad*_x (Ad*_y xi) = Ad*_{x>y} (Ad*_x xi).
    """
    violations = []
    worst = 0
    for idx, ((x, y), xi) in enumerate(zip(pairs, xis)):
        lhs = coadjoint(x, coadjoint(y, xi, order), order)
        xy = bass_product(x, y, order)
        rhs = coadjoint(xy, coadjoint(x, xi, order), order)
        r = lhs.distance(rhs)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "coadjoint-left-action", "sample": idx, "residual": r})
    return CheckReport(
        name="coadjoint-action", checked=len(pairs), violations=violations, max_residual=worst
    )


def pair_rack_closure_violations(algebra, pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """The pair rack closes over the embedded points.

    For embedded x, y the product (x, exp ad_x) > (y, exp ad_y) must again
    be an embedded point, namely the one over x > y; this is the matrix
    form of conjugation-invariance of exponentials of inner derivations.
    """
    violations = []
    worst = 0
    for idx, (x, y) in enumerate(pairs):
        got = rh_product(rh_embed(x, order), rh_embed(y, order))
        want = rh_embed(bass_product(x, y, order), order)
        r = got.distance(want)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "pair-rack-closure", "sample": idx, "residual": r})
    return CheckReport(
        name="pair-rack-closure", checked=len(pairs), violations=violations, max_residual=worst
    )


def linear_map_bracket_violations(source, target, matrix):
    """Basis pairs where a linear map fails to preserve the brackets."""
    violations = []
    for i in range(source.dim):
        for j in range(source.dim):
            img = linalg.mat_vec(matrix, source.table[i][j])
            col_i = [matrix[r][i] for r in range(target.dim)]
            col_j = [matrix[r][j] for r in range(target.dim)]
            rhs = target.bracket_coords(col_i, col_j)
            if [Fraction(a) for a in img] != [Fraction(b) for b in rhs]:
                violations.append(((i, j), linalg.vec_sub(img, rhs)))
    return violations


def rack_morphism_check(source, target, matrix, pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Check that an algebra morphism intertwines the pair racks.

    ``matrix`` is a target.dim x source.dim rational matrix; ``pairs`` are
    (x, y) samples in the source.  The map must preserve brackets on basis
    pairs, and phi(x) = (a(x), exp(ad_{a(x)})) must send x > y to
    phi(x) > phi(y) in the pair rack of the target.
    """
    bracket_bad = linear_map_bracket_violations(source, target, matrix)
    violations = [
        {"axiom": "bracket-morphism", "pair": ij, "residual": max(map(abs, res))}
        for ij, res in bracket_bad
    ]
    worst = max((v["residual"] for v in violations), default=0)

    def push(x):
        coords = linalg.mat_vec(matrix, list(x.coords))
        return target.element(coords, x.mode)

    for idx, (x, y) in enumerate(pairs):
        left = rh_embed(push(bass_product(x, y, order)), order)
        right = rh_product(rh_embed(push(x), order), rh_embed(push(y), order))
        r = left.distance(right)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "rack-morphism", "sample": idx, "residual": r})
    return CheckReport(
        name="rack-morphism",
        checked=source.dim * source.dim + len(pairs),
        violations=violations,
        max_residual=worst,
    )
