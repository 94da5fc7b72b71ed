"""Quantization-flavored structures over the dual of a Leibniz algebra.

Four layers, all driven by the same structure constants:

* a Poisson-type bracket on polynomial observables,
  {f, g}(xi) = sum c[i][j][k] (d_i f)(0) (d_j g)(xi) xi_k,
  which satisfies the right Leibniz rule in its second slot;
* a rack product on formal exponential labels E_x, and its pullback action
  on observables through xi -> xi o exp(ad_x);
* group-algebra style star products on labels, E_x * E_y = E_{bch(x,y)},
  whose conjugation rack matches the exponential-label rack on nilpotent
  Lie algebras;
* the stationary data of the generating function S = <xi, exp(ad_x) y>:
  its gradients, and the bordered extremum Hessian whose determinant is 1
  and signature 0 at the critical point (0, 0, 0, xi).

The semiclassical parameter stays formal throughout: expansions are
returned as per-order polynomial coefficients, never numbers.
"""

from fractions import Fraction
from math import factorial

from . import linalg
from .bch import MAX_ORDER, bch, conj_star
from .observables import Covector, PolyObservable
# exp_endo stays bound here although only exp_ad calls it: the bench tracer
# (bench/spans.py) wraps every binding of it, and its self-test checks this one.
from .racks import DEFAULT_FLOAT_ORDER, bass_product, exp_ad, exp_endo  # noqa: F401
from .reports import CheckReport


class ExpLabel:
    """A formal exponential E_x, tagged by its algebra element."""

    __slots__ = ("element",)

    def __init__(self, element):
        object.__setattr__(self, "element", element)

    def __setattr__(self, name, value):
        raise AttributeError("ExpLabel is immutable")

    def __repr__(self):
        return f"E[{self.element!r}]"

    def __eq__(self, other):
        return isinstance(other, ExpLabel) and self.element == other.element

    def __hash__(self):
        return hash(self.element)

    def conjugate(self):
        """The adjoint label E_x -> E_{-x}."""
        return ExpLabel(-self.element)

    def distance(self, other):
        return self.element.distance(other.element)


# -- exponential-label racks ---------------------------------------------------


def quantum_rack_label(a, b, order=DEFAULT_FLOAT_ORDER):
    """E_x > E_y = E_{exp(ad_x) y}."""
    return ExpLabel(bass_product(a.element, b.element, order))


def gutt_star_label(a, b, order=MAX_ORDER):
    """E_x * E_y = E_{bch(x, y)} (needs a Lie bracket)."""
    return ExpLabel(bch(a.element, b.element, order))


def gutt_rack_label(a, b, order=MAX_ORDER):
    """E_x * E_y * E_x^-1 through the star product: the label conj(x, y)."""
    return ExpLabel(conj_star(a.element, b.element, order))


class LabelRack:
    """Exponential labels under the quantum rack product, for axiom checks."""

    def __init__(self, algebra, mode="exact", order=DEFAULT_FLOAT_ORDER):
        self.algebra = algebra
        self.mode = mode
        self.order = order

    def product(self, a, b):
        return quantum_rack_label(a, b, self.order)

    def unit(self):
        return ExpLabel(self.algebra.zero(self.mode))

    def distance(self, a, b):
        return a.distance(b)

    def sample(self, count, seed, scale=Fraction(1)):
        from .sampling import sample_elements

        return [
            ExpLabel(x)
            for x in sample_elements(self.algebra, count, seed, self.mode, scale)
        ]


# -- observable action ---------------------------------------------------------


def quantum_rack_action(x, observable, order=DEFAULT_FLOAT_ORDER):
    """Pull an observable back along xi -> xi o exp(ad_x).

    On linear observables this is exactly the label rack: the observable
    <., y> goes to <., exp(ad_x) y>.
    """
    mat = exp_ad(x, order).matrix
    forms = [[mat[i][j] for i in range(len(mat))] for j in range(len(mat))]
    return observable.substitute_linear(forms)


def label_action_compatibility_violations(algebra, pairs, order=DEFAULT_FLOAT_ORDER, tol=0):
    """The action on linear observables must mirror the label rack."""
    violations = []
    worst = 0
    for idx, (x, y) in enumerate(pairs):
        acted = quantum_rack_action(x, PolyObservable.from_element(y), order)
        expected = PolyObservable.from_element(bass_product(x, y, order))
        diff = acted - expected
        r = max((abs(c) for c in diff.terms.values()), default=0)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "action-on-linear", "sample": idx, "residual": r})
    return CheckReport(
        name="label-vs-action", checked=len(pairs), violations=violations, max_residual=worst
    )


def action_left_action_violations(algebra, pairs, observables, order=DEFAULT_FLOAT_ORDER, tol=0):
    """Left-action law of the observable action.

    Acting by y then x equals acting by x > y then x, mirroring the
    coadjoint law on covectors.
    """
    violations = []
    worst = 0
    for idx, ((x, y), f) in enumerate(zip(pairs, observables)):
        lhs = quantum_rack_action(x, quantum_rack_action(y, f, order), order)
        acted_by_x = quantum_rack_action(x, f, order)
        rhs = quantum_rack_action(bass_product(x, y, order), acted_by_x, order)
        diff = lhs - rhs
        r = max((abs(c) for c in diff.terms.values()), default=0)
        worst = max(worst, r)
        if r > tol:
            violations.append({"axiom": "action-left-action", "sample": idx, "residual": r})
    return CheckReport(
        name="action-left-action", checked=len(pairs), violations=violations, max_residual=worst
    )


# -- Poisson-type bracket -------------------------------------------------------


def poisson_bracket(algebra, f, g, sign=1):
    """{f, g}(xi) = sign * sum c[i][j][k] (d_i f)(0) (d_j g)(xi) xi_k.

    The default sign follows the convention under which the right Leibniz
    rule {f, gh} = {f, g} h + g {f, h} holds with the stated order; the
    opposite convention is exposed through ``sign=-1`` for comparison.
    """
    n = algebra.dim
    grad0 = f.gradient_at_zero()
    partials = [g.partial(j) for j in range(n)]
    result = PolyObservable.zero(n)
    for a_i, plane in zip(grad0, algebra.sparse):
        if a_i == 0:
            continue
        for j, row in plane:
            if not partials[j].terms:
                continue
            for k, c in row:
                result = result + (sign * c * a_i) * (
                    partials[j] * PolyObservable.coordinate(n, k)
                )
    return result


def right_leibniz_violations(algebra, triples, sign=1):
    """Defects of {f, gh} = {f, g} h + g {f, h} on observable triples."""
    violations = []
    for idx, (f, g, h) in enumerate(triples):
        lhs = poisson_bracket(algebra, f, g * h, sign)
        rhs = poisson_bracket(algebra, f, g, sign) * h + g * poisson_bracket(algebra, f, h, sign)
        diff = lhs - rhs
        if diff.terms:
            residual = max(abs(c) for c in diff.terms.values())
            violations.append({"sample": idx, "residual": residual})
    return CheckReport(
        name="right-leibniz",
        checked=len(triples),
        violations=violations,
        max_residual=max((v["residual"] for v in violations), default=0),
    )


def semiclassical_leading_terms(algebra, f, g, sign=1):
    """First two coefficients of the stationary-phase product of f and g.

    Returns {0: f(0) * g, 1: {f, g}}; the key is the power of the formal
    expansion parameter, which never becomes a number.
    """
    n = algebra.dim
    f_at_zero = f.evaluate([Fraction(0)] * n)
    order0 = f_at_zero * g
    order1 = poisson_bracket(algebra, f, g, sign)
    return {0: order0, 1: order1}


# -- generating function and its stationary data --------------------------------


def generating_function(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """S(x, y, xi) = <xi, exp(ad_x) y>."""
    return xi.pair(bass_product(x, y, order))


def generating_series_terms(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """The graded pieces <xi, ad_x^k y>/k!, k = 0, 1, ...

    In exact mode the list stops when the powers vanish; term 0 is the
    pairing <xi, y>, and every later term has total degree k+1 >= 2 in
    (x, y) jointly.
    """
    alg = x.algebra
    ad = alg.ad(x)
    exact = x.mode == "exact"
    terms = []
    current = y
    k = 0
    while True:
        weight = Fraction(1, factorial(k)) if exact else 1.0 / factorial(k)
        terms.append(weight * xi.pair(current))
        current = ad(current)
        k += 1
        if exact:
            if current.is_zero():
                break
            if k > alg.dim:
                raise ValueError("exact series needs a nilpotent ad; use float mode")
        elif k > order:
            break
    return terms


def generating_gradients(x, y, xi, order=DEFAULT_FLOAT_ORDER):
    """All three gradients of S at (x, y, xi).

    * d/dxi: the element exp(ad_x) y;
    * d/dy: the covector xi o exp(ad_x);
    * d/dx: the covector whose i-th entry differentiates the exponential
      series term by term,
      sum_{k>=1} 1/k! sum_{p+q=k-1} <xi, ad_x^p ad_{e_i} ad_x^q y>.
    """
    alg = x.algebra
    n = alg.dim
    exact = x.mode == "exact"
    exp_mat = exp_ad(x, order).matrix
    d_xi = alg.element(linalg.mat_vec(exp_mat, list(y.coords)), x.mode)
    d_y = Covector(alg, linalg.vec_mat(list(xi.coords), exp_mat), xi.mode)

    ad_x = alg.ad(x).matrix
    bound = n if exact else order
    powers = [linalg.identity_matrix(n, x.mode)]
    for _ in range(bound):
        powers.append(linalg.mat_mul(powers[-1], ad_x))
    d_x_entries = []
    for i in range(n):
        ad_ei = alg.ad(alg.basis_element(i, x.mode)).matrix
        total = 0
        for p in range(bound):
            mid = linalg.vec_mat(linalg.vec_mat(list(xi.coords), powers[p]), ad_ei)
            for q in range(bound - p):
                k = p + q + 1
                value = linalg.vec_dot(linalg.vec_mat(mid, powers[q]), list(y.coords))
                if value != 0:
                    weight = Fraction(1, factorial(k)) if exact else 1.0 / factorial(k)
                    total = total + weight * value
        d_x_entries.append(total)
    d_x = Covector(alg, d_x_entries, xi.mode)
    return {"x": d_x, "y": d_y, "xi": d_xi}


class HessianReport:
    """Exact stationary data of the generating function at its critical point."""

    def __init__(self, algebra, xi, matrix, determinant, inertia):
        self.algebra = algebra
        self.xi = xi
        self.matrix = matrix
        self.determinant = determinant
        self.inertia = inertia
        self.signature = inertia[0] - inertia[1]
        n = algebra.dim
        self.critical_point = {
            "x": [Fraction(0)] * n,
            "y": [Fraction(0)] * n,
            "zeta": [Fraction(0)] * n,
            "eta": [Fraction(c) for c in xi.coords],
        }

    def __repr__(self):
        return (
            f"<HessianReport dim={len(self.matrix)} det={self.determinant} "
            f"signature={self.signature}>"
        )


def hessian_matrix(algebra, xi):
    """The bordered 4n x 4n Hessian at the critical point, blocks (x, y, zeta, eta).

    The only curvature sits in the x-y block, sum_k c[i][j][k] xi_k; the
    multiplier blocks contribute -identities.  Symmetry forces the (y, x)
    block to be the transpose of the (x, y) block.
    """
    n = algebra.dim
    c = algebra.table
    b = linalg.zero_matrix(4 * n, 4 * n)
    for i in range(n):
        for j in range(n):
            value = sum((Fraction(c[i][j][k]) * Fraction(xi.coords[k]) for k in range(n)), Fraction(0))
            b[i][n + j] = value
            b[n + j][i] = value
    for i in range(n):
        b[i][2 * n + i] = Fraction(-1)
        b[2 * n + i][i] = Fraction(-1)
        b[n + i][3 * n + i] = Fraction(-1)
        b[3 * n + i][n + i] = Fraction(-1)
    return b


def hessian_check(algebra, xi):
    """Exact determinant and inertia of the extremum Hessian.

    The determinant is always 1 and the signature always 0: the multiplier
    blocks pair every direction hyperbolically.  Rejects float input, since
    the claim is exact.
    """
    if xi.mode != "exact":
        raise ValueError("the Hessian check is exact; pass a rational covector")
    b = hessian_matrix(algebra, xi)
    determinant = linalg.det(b)
    inertia = linalg.symmetric_signature(b)
    return HessianReport(algebra, xi, b, determinant, inertia)
