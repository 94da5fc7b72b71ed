"""Deterministic rational samplers used by the property suites.

All sampling is driven by ``random.Random(seed)`` so that reports are
reproducible byte for byte.  Coordinates are small rationals: numerators in
[-3, 3], denominators in {1, 2}, drawn by ``randint`` then ``choice`` and
returned as one of the shared Fractions of ``RATIONALS``.
"""

import random
from fractions import Fraction

from .linalg import EXACT

RATIONALS = {(n, d): Fraction(n, d) for n in range(-3, 4) for d in (1, 2)}


def rational_scalar(rng):
    return RATIONALS[rng.randint(-3, 3), rng.choice((1, 2))]


def rational_vector(rng, dim):
    return [rational_scalar(rng) for _ in range(dim)]


def sample_elements(algebra, count, seed, mode=EXACT, scale=Fraction(1)):
    """``count`` algebra elements with coordinates scaled by ``scale``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = rational_vector(rng, algebra.dim)
        if scale != 1:
            coords = [scale * c for c in coords]
        element = algebra.element(coords)
        out.append(element.to_float() if mode == "float" else element)
    return out


def sample_pairs(algebra, count, seed, mode=EXACT, scale=Fraction(1)):
    flat = sample_elements(algebra, 2 * count, seed, mode, scale)
    return [(flat[2 * t], flat[2 * t + 1]) for t in range(count)]


def sample_triples(algebra, count, seed, mode=EXACT, scale=Fraction(1)):
    flat = sample_elements(algebra, 3 * count, seed, mode, scale)
    return [tuple(flat[3 * t : 3 * t + 3]) for t in range(count)]


def sample_observables(algebra, count, seed, max_degree=3):
    """Random sparse polynomial observables of bounded degree, each summed in one dict."""
    from .observables import PolyObservable

    rng = random.Random(seed)
    n = algebra.dim
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            picks = [rng.randrange(n) for _ in range(rng.randint(0, max_degree))]
            exps = tuple(map(picks.count, range(n)))
            terms[exps] = terms.get(exps, 0) + rational_scalar(rng)
        out.append(PolyObservable(n, terms))
    return out

