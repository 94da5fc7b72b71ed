"""Rack cocycles obtained by integrating the center-valued 2-cocycle.

For the left-center extension of a nilpotent Leibniz algebra, the defect

    f(x, y) = exp(ad_{s(x)})(s(y)) - s(exp(ad_x)(y))

measures how far the section s is from intertwining the rack products of
the algebra and its Lie quotient; it lands in the left center.  The same
defect has a closed series form in the linear 2-cocycle omega,

    f(x, y) = sign * sum_{p,q >= 0} ad_{s(x)}^p omega(x, ad_x^q y) / (p+q+1)!

with sign = ``SERIES_SIGN`` = -1 against the section-defect convention
omega(x, y) = s([x, y]) - [s(x), s(y)] used by ExtensionData (+1 against
its negative, the cocycle of the reconstruction bracket); it is the one
sign, with no knob.  The sum is the corner of the block exponential
exp([[ad_{s(x)}, omega(x, .)], [0, ad_x]]) (0, y), which
``racks.block_exp_action`` computes.  The sign and the 1/(p+q+1)!
coefficient law are pinned by comparing against the exact defect on the
nilpotent bundled algebras; see ``tests/test_cocycle.py``.

Both sides run on ints, as the rack product does (``racks.exp_action``'s
int form).  For x = X / d, the series takes its three blocks as int maps
over one common step s: s·ad_{s(x)} from ``algebra.int_ad``, s·ad_x from
``quotient.int_ad``, and the columns s·omega(x, e_b), summed from
``ExtensionData.int_omega``, the omega table on ints over one denominator.
The defect takes the two int exponential actions and subtracts them over
one denominator.  Each makes one Fraction per coordinate, at the end.  Both
take exact elements of ``ext.quotient`` only (``join_elements`` checks them),
and give 0 before building any map when x or y is 0.
"""

from fractions import Fraction
from math import lcm

from .algebra import int_apply, join_elements
from .linalg import EXACT, int_vector, vec_sub
from .racks import block_exp_action, exp_action

SERIES_SIGN = -1


def rack_cocycle_exact(ext, x, y):
    """The exact section defect of the rack products, as an element of h.

    ``x`` and ``y`` are exact quotient elements.  Both the algebra and its
    quotient must be nilpotent (the exponentials must terminate).
    """
    join_elements(x, y, ext.quotient, EXACT)
    alg = ext.algebra
    if x.is_zero() or y.is_zero():  # f(0, y) = s(y) - s(y) and f(x, 0) = 0
        return alg.zero()
    lift, s_lift = alg.int_ad(ext.section(x).coords)
    ad_x, s_x = ext.quotient.int_ad(x.coords)
    ys, d_y = int_vector(y.coords)
    lifted, d_lifted = exp_action(int_apply(lift, alg.dim), ext.lift(ys), step=s_lift)
    pushed, d_pushed = exp_action(int_apply(ad_x, len(ys)), ys, step=s_x)
    den = lcm(d_lifted, d_pushed)
    f_lifted, f_pushed = den // d_lifted, den // d_pushed
    out = vec_sub([t * f_lifted for t in lifted], ext.lift([t * f_pushed for t in pushed]))
    den *= d_y
    return alg.element([Fraction(t, den) for t in out])


def rack_cocycle_series(ext, x, y, order):
    """Truncated series form of the rack cocycle.

    Sums ``SERIES_SIGN``/(p+q+1)! * ad_{s(x)}^p omega(x, ad_x^q y) over
    p+q+1 <= order, as a block exponential on int maps.  On nilpotent
    algebras the series terminates and equals the exact defect once the
    order reaches the nilpotency class.
    """
    join_elements(x, y, ext.quotient, EXACT)
    if order < 1:
        raise ValueError("order must be at least 1")
    alg, quot = ext.algebra, ext.quotient
    if x.is_zero() or y.is_zero():  # omega(0, .) = 0, and the corner is linear in y
        return alg.zero()
    n = alg.dim
    lift, s_lift = alg.int_ad(ext.section(x).coords)
    ad_x, s_x = quot.int_ad(x.coords)
    (xs, d_x), (ys, d_y) = int_vector(x.coords), int_vector(y.coords)
    cells, dw = ext.int_omega
    step = lcm(s_lift, s_x, d_x * dw)
    # step·SERIES_SIGN·omega(x, e_b) = f·sum_a X_a cells[a][b], f = SERIES_SIGN·step / (d_x dw)
    f = SERIES_SIGN * (step // (d_x * dw))
    omega = []
    for b in range(quot.dim):
        column = [0] * n
        for xa, row in zip(xs, cells):
            if xa:
                w = xa * f
                for k, c in row[b]:
                    column[k] += w * c
        if any(column):
            omega.append((b, [(k, c) for k, c in enumerate(column) if c]))
    top, den = block_exp_action(
        int_apply(_times(lift, step // s_lift), n),
        int_apply(omega, n),
        int_apply(_times(ad_x, step // s_x), quot.dim),
        n, ys, order, step,
    )
    den *= d_y
    return alg.element([Fraction(t, den) for t in top])


def _times(columns, factor):
    """``int_ad`` columns times an int factor (the same list for a factor of 1)."""
    if factor == 1:
        return columns
    return [(j, [(k, a * factor) for k, a in column]) for j, column in columns]
