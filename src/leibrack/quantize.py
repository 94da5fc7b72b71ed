"""Quantization-flavored structures over the dual of a Leibniz algebra.

Three layers, all driven by the same structure constants:

* a Poisson-type bracket on polynomial observables,
  {f, g}(xi) = sum c[i][j][k] (d_i f)(0) (d_j g)(xi) xi_k,
  which satisfies the right Leibniz rule in its second slot;
* a rack product on formal exponentials, E_x > E_y = E_{exp(ad_x) y}, and
  its pullback action on observables through xi -> xi o exp(ad_x).  The
  exact pullback hands ``substitute_linear`` the columns of exp(ad_x) as
  ints over one denominator D (``racks.int_exp_columns``), built once per
  witness for each x: a key of degree d gets num / (L·D^d), L the lcm of
  the coefficient denominators.  E_x is represented by x itself, so this label
  rack is ``racks.bass_product``;
  the star product E_x * E_y = E_{bch(x, y)} is ``bch.bch``, and its
  conjugation rack ``bch.conj_star`` matches the label rack on nilpotent
  Lie algebras;
* the stationary data of the generating function S = <xi, exp(ad_x) y>:
  its gradients, and the bordered extremum Hessian whose determinant is 1
  and signature 0 at the critical point (0, 0, 0, xi).

The graded pieces of S pair xi with ``racks.exp_terms``, and its x-gradient
with the corner of a block exponential, ``racks.block_exp_action``.

The semiclassical parameter stays formal throughout: expansions are
returned as per-order polynomial coefficients, never numbers.
"""

from fractions import Fraction

from . import linalg
from .linalg import EXACT, int_vector
from .observables import Covector, PolyObservable
# exp_endo stays bound here although only exp_ad calls it: the bench tracer
# (bench/spans.py) wraps every binding of it, and its self-test checks this one.
from .racks import DEFAULT_FLOAT_ORDER, bass_product, coadjoint, exp_ad, exp_endo  # noqa: F401
from .racks import block_exp_action, exp_terms, int_exp_columns
from .reports import check_law, samples


# -- observable action ---------------------------------------------------------


def quantum_rack_action(x, observable, order=DEFAULT_FLOAT_ORDER, cache=None):
    """Pull an observable back along xi -> xi o exp(ad_x).

    On linear observables this is exactly the label rack: the observable
    <., y> goes to <., exp(ad_x) y>.  An exact x and exact coefficients take
    the int substitution, on the columns of exp(ad_x) over one denominator
    (``racks.int_exp_columns``).  A caller that acts by x again passes the
    same list as ``cache``, which keeps those columns for the next call.
    """
    if x.mode == EXACT and not any(isinstance(c, float) for c in observable.terms.values()):
        cache = [] if cache is None else cache
        if not cache:
            alg = x.algebra
            cache.append(int_exp_columns(*alg.int_ad(x.coords), alg.dim))
        return observable.substitute_linear(*cache[0])
    mat = exp_ad(x, order).matrix
    return observable.substitute_linear([list(column) for column in zip(*mat)])


def label_action_compatibility_violations(pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """The action on linear observables must mirror the label rack."""

    def residual(pair):
        x, y = pair
        acted = quantum_rack_action(x, PolyObservable.from_element(y), order)
        return acted.distance(PolyObservable.from_element(bass_product(x, y, order)))

    return check_law("label-vs-action", samples(pairs, "action-on-linear"), residual, tol)


def action_left_action_violations(pairs, observables, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Left-action law of the observable action.

    Acting by y then x equals acting by x > y then x, mirroring the
    coadjoint law on covectors.
    """

    def residual(w):
        (x, y), f = w
        by_x = []  # x's int columns, built once for both actions by x
        lhs = quantum_rack_action(x, quantum_rack_action(y, f, order), order, by_x)
        acted_by_x = quantum_rack_action(x, f, order, by_x)
        return lhs.distance(quantum_rack_action(bass_product(x, y, order), acted_by_x, order))

    witnesses = samples(zip(pairs, observables), "action-left-action")
    return check_law("action-left-action", witnesses, residual, tol, len(pairs))


# -- Poisson-type bracket -------------------------------------------------------


def poisson_bracket(algebra, f, g):
    """{f, g}(xi) = sum c[i][j][k] (d_i f)(0) (d_j g)(xi) xi_k.

    The sign follows the convention under which the right Leibniz rule
    {f, gh} = {f, g} h + g {f, h} holds with the stated order.  An exact
    a_i = (d_i f)(0) is divided by ``scale`` once and meets ``int_sparse``;
    a float a_i meets ``float_sparse``, with the bits of the Fraction table.
    """
    n = algebra.dim
    grad0 = f.gradient_at_zero()
    partials = [g.partial(j).terms for j in range(n)]
    result = {}
    for i, a_i in enumerate(grad0):
        if a_i == 0:
            continue
        if isinstance(a_i, float):
            plane = algebra.float_sparse[i]
        else:
            plane, a_i = algebra.int_sparse[i], Fraction(a_i, algebra.scale)
        for j, row in plane:
            partial = partials[j]
            if not partial:
                continue
            for k, c in row:
                scale = c * a_i
                # add scale * (d_j g) * xi_k, term by term.  Zero products and
                # zero sums are dropped at once, as a sum of observables does,
                # so a float 0.0 never turns a later exact coefficient float.
                for key, v in partial.items():
                    term = scale * v
                    if term:
                        bumped = key[:k] + (key[k] + 1,) + key[k + 1:]
                        total = result.get(bumped, 0) + term
                        if total:
                            result[bumped] = total
                        else:
                            del result[bumped]
    return PolyObservable(n, result)


def right_leibniz_violations(algebra, triples):
    """Defects of {f, gh} = {f, g} h + g {f, h} on observable triples."""

    def residual(triple):
        f, g, h = triple
        lhs = poisson_bracket(algebra, f, g * h)
        rhs = poisson_bracket(algebra, f, g) * h + g * poisson_bracket(algebra, f, h)
        return lhs.distance(rhs)

    return check_law("right-leibniz", samples(triples), residual)


def semiclassical_leading_terms(algebra, f, g):
    """First two coefficients of the stationary-phase product of f and g.

    Returns {0: f(0) * g, 1: {f, g}}; the key is the power of the formal
    expansion parameter, which never becomes a number.
    """
    n = algebra.dim
    f_at_zero = f.evaluate([Fraction(0)] * n)
    order0 = f_at_zero * g
    order1 = poisson_bracket(algebra, f, g)
    return {0: order0, 1: order1}


# -- generating function and its stationary data --------------------------------


def generating_function(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """S(x, y, xi) = <xi, exp(ad_x) y>."""
    return xi.pair(bass_product(x, y, order))


def generating_series_terms(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """The graded pieces <xi, ad_x^k y>/k!, k = 0, 1, ...

    In exact mode the list stops when the powers vanish; term 0 is the
    pairing <xi, y>, and every later term has total degree k+1 >= 2 in
    (x, y) jointly.  In float mode it has the ``order + 1`` terms k <= order.
    """
    limit = None if x.mode == "exact" else order
    alg = x.algebra
    series = exp_terms(alg.left_bracket(x.coords, x.mode), y.coords, limit)
    terms = [linalg.vec_dot(xi.coords, term) for term in series]
    return terms if limit is None else terms + [0.0] * (order + 1 - len(terms))


def generating_gradients(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """All three gradients of S at (x, y, xi).

    * d/dxi: the element exp(ad_x) y;
    * d/dy: the covector xi o exp(ad_x);
    * d/dx: the covector whose i-th entry differentiates the exponential
      series term by term,
      sum_{k>=1} 1/k! sum_{p+q=k-1} <xi, ad_x^p ad_{e_i} ad_x^q y>, to k <= n
      (exact) or k <= order (float): a corner of exp([[ad_x, ad_{e_i}], [0, ad_x]]).
    """
    alg = x.algebra
    bound = alg.dim if x.mode == "exact" else order
    ad_x = alg.left_bracket(x.coords, x.mode)

    def corner(e):
        ad_e = alg.left_bracket(e, x.mode)
        return block_exp_action(ad_x, ad_e, ad_x, alg.dim, y.coords, bound)

    d_x = [linalg.vec_dot(xi.coords, corner(e)) for e in linalg.identity_matrix(alg.dim, x.mode)]
    d_y, d_xi = coadjoint(-x, xi, order), bass_product(x, y, order)
    return {"x": Covector(alg, d_x, xi.mode), "y": d_y, "xi": d_xi}


class HessianReport:
    """Exact stationary data of the generating function at its critical point."""

    def __init__(self, algebra, xi, matrix, determinant, inertia):
        self.algebra = algebra
        self.xi = xi
        self.matrix = matrix
        self.determinant = determinant
        self.inertia = inertia
        self.signature = inertia[0] - inertia[1]

    def __repr__(self):
        return (
            f"<HessianReport dim={len(self.matrix)} det={self.determinant} "
            f"signature={self.signature}>"
        )


def hessian_matrix(algebra, xi):
    """The bordered 4n x 4n Hessian at the critical point, blocks (x, y, zeta, eta).

    The only curvature sits in the x-y block, sum_k c[i][j][k] xi_k; the
    multiplier blocks contribute -identities.  Symmetry forces the (y, x)
    block to be the transpose of the (x, y) block.  The sums run on ints:
    ``algebra.int_sparse`` against xi times the lcm of its denominators.
    Every 0 entry is one Fraction object, every -1 entry another, and each
    curvature value sits as one object at (i, n + j) and (n + j, i), which
    lets ``_is_bordered`` compare rows by identity first.
    """
    n = algebra.dim
    ints, den = int_vector([Fraction(x) for x in xi.coords])
    den *= algebra.scale
    zero, minus_one = Fraction(0), Fraction(-1)
    b = [[zero] * (4 * n) for _ in range(4 * n)]
    for i, plane in enumerate(algebra.int_sparse):
        for j, row in plane:
            value = Fraction(sum(c * ints[k] for k, c in row), den)
            b[i][n + j] = value
            b[n + j][i] = value
    for i in range(n):
        b[i][2 * n + i] = minus_one
        b[2 * n + i][i] = minus_one
        b[n + i][3 * n + i] = minus_one
        b[3 * n + i][n + i] = minus_one
    return b


def hessian_check(algebra, xi):
    """Exact determinant and inertia of the extremum Hessian, read off its blocks.

    ``hessian_matrix`` gives B = [[M, -I], [-I, 0]] in 2n x 2n blocks, M
    symmetric.  With T = [[I, 0], [M/2, I]], T^T B T = [[0, -I], [-I, 0]],
    so det B = 1 and the inertia is (2n, 2n, 0) whatever M is (Sylvester's
    law of inertia).  The block structure is checked exactly on B, and a
    ValueError is raised if it does not hold.  Rejects float input, since
    the claim is exact.
    """
    if xi.mode != "exact":
        raise ValueError("the Hessian check is exact; pass a rational covector")
    b = hessian_matrix(algebra, xi)
    m = 2 * algebra.dim
    if not _is_bordered(b, m):
        raise ValueError("bordered Hessian lost its block structure")
    return HessianReport(algebra, xi, b, Fraction(1), (m, m, 0))


def _is_bordered(b, m):
    """Whether b is [[M, -I], [-I, 0]] with m x m blocks and M symmetric.

    The expected rows are built from b's own 0 and -1 entries, after one
    check that they are 0 and -1.  ``hessian_matrix`` shares one object per
    value, and puts the same object at (i, j) and (j, i), so the list
    comparisons below mostly meet identical objects and skip
    ``Fraction.__eq__``; any other entry is still compared by value.
    """
    if len(b) != 2 * m or any(len(row) != 2 * m for row in b):
        return False
    if not m:
        return True
    zero, minus_one = b[m][m], b[m][0]
    if zero != 0 or minus_one != -1:
        return False
    border = [[zero] * i + [minus_one] + [zero] * (m - 1 - i) for i in range(m)]
    zeros = [zero] * m
    top = [row[:m] for row in b[:m]]
    return (
        all(row[m:] == minus for row, minus in zip(b[:m], border))
        and all(row[:m] == minus and row[m:] == zeros for row, minus in zip(b[m:], border))
        and [list(col) for col in zip(*top)] == top
    )
