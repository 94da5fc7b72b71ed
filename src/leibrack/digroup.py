"""Linear digroups: two associative products sharing inverses and a bar-unit.

The carrier is the set of (vector, invertible matrix) pairs with

    (u, g) |- (v, h) = (g v, g h)        (left product)
    (u, g) -| (v, h) = (u, g h)          (right product)
    (u, g)^-1 = (0, g^-1),  bar unit 1 = (0, I).

Conjugation x |- y -| x^-1 lands back on the conjugation rack for pairs.
"""

from fractions import Fraction

from . import linalg
from .racks import PairElement, hs_rack_product
from .reports import check_law, samples


def dig_left(a, b):
    return PairElement(
        linalg.mat_vec(a.matrix, list(b.vector)), linalg.mat_mul(a.matrix, b.matrix)
    )


def dig_right(a, b):
    return PairElement(a.vector, linalg.mat_mul(a.matrix, b.matrix))


def dig_inverse(a):
    return PairElement([0 * v for v in a.vector], linalg.inverse(a.matrix))


def dig_unit(dim):
    return PairElement([Fraction(0)] * dim, linalg.identity_matrix(dim))


def digroup_rack_product(a, b):
    """x > y = x |- y -| x^-1."""
    return dig_right(dig_left(a, b), dig_inverse(a))


def digroup_axiom_violations(triples, tol=0):
    """Check the digroup laws on sampled triples of pair elements.

    Covers: both products associative, the three mixed compatibility laws,
    the bar-unit laws 1 |- x = x = x -| 1, and one-sided inverses
    x |- x^-1 = 1 = x^-1 -| x.
    """

    def laws(triple):
        x, y, z = triple
        unit = dig_unit(len(x.vector))
        sides = {
            "left-associative": (dig_left(x, dig_left(y, z)), dig_left(dig_left(x, y), z)),
            "right-associative": (dig_right(x, dig_right(y, z)), dig_right(dig_right(x, y), z)),
            "mixed-left-over-right": (dig_left(x, dig_right(y, z)), dig_right(dig_left(x, y), z)),
            "mixed-right-absorbs": (dig_right(x, dig_left(y, z)), dig_right(x, dig_right(y, z))),
            "mixed-left-ignores": (dig_left(dig_right(x, y), z), dig_left(dig_left(x, y), z)),
            "bar-unit-left": (dig_left(unit, x), x),
            "bar-unit-right": (dig_right(x, unit), x),
            "inverse-left": (dig_left(x, dig_inverse(x)), unit),
            "inverse-right": (dig_right(dig_inverse(x), x), unit),
            "rack-matches-conjugation": (digroup_rack_product(x, y), hs_rack_product(x, y)),
        }
        return {axiom: got.distance(want) for axiom, (got, want) in sides.items()}

    return check_law("digroup-axioms", samples(triples), laws, tol)
