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
``racks.block_exp_action`` computes on ``left_bracket`` maps.  The sign
and the 1/(p+q+1)! coefficient law are pinned by comparing against the
exact defect on the nilpotent bundled algebras; see
``tests/test_cocycle.py``.
"""

from .racks import bass_product, block_exp_action

SERIES_SIGN = -1


def rack_cocycle_exact(ext, x, y):
    """The exact section defect of the rack products, as an element of h.

    ``x`` and ``y`` are quotient elements.  Exact mode needs both the
    algebra and its quotient nilpotent (the exponentials must terminate).
    """
    lifted = bass_product(ext.section(x), ext.section(y))
    pushed = ext.section(bass_product(x, y))
    return lifted - pushed


def rack_cocycle_series(ext, x, y, order):
    """Truncated series form of the rack cocycle.

    Sums ``SERIES_SIGN``/(p+q+1)! * ad_{s(x)}^p omega(x, ad_x^q y) over
    p+q+1 <= order, as a block exponential.  On nilpotent algebras the
    series terminates and equals the exact defect once the order reaches
    the nilpotency class.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    alg, quot = ext.algebra, ext.quotient
    lift = alg.left_bracket(ext.section(x).coords, x.mode)
    omega = lambda v: ext.omega(x, quot.element(v, x.mode)).coords  # noqa: E731
    ad_x = quot.left_bracket(x.coords, x.mode)
    corner = block_exp_action(lift, omega, ad_x, alg.dim, y.coords, order)
    return SERIES_SIGN * alg.element(corner, x.mode)
