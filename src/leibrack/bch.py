"""Truncated Baker-Campbell-Hausdorff products from an exact word table.

The coefficient table is produced once per process: expand
log(exp X exp Y) in the free associative algebra on two letters, keeping
words up to degree 8 with exact rational coefficients.  The Dynkin-Specht-
Wever projection turns the word expansion into a Lie element: a word
w = a1 a2 .. ad of degree d contributes coefficient c_w / d on the
right-nested bracket [a1, [a2, [.., ad]]].  Evaluation against a structure
table then just walks those nested brackets, sharing suffixes.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .reports import check_law, samples

MAX_ORDER = 8


def _truncated_product(a, b, max_degree):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > max_degree:
                continue
            key = wa + wb
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


@lru_cache(maxsize=1)
def log_word_table():
    """Coefficients of log(exp X exp Y) on words over {0: X, 1: Y}, degree <= 8."""
    series = {}
    for p in range(MAX_ORDER + 1):
        for q in range(MAX_ORDER + 1 - p):
            if p + q == 0:
                continue
            series[(0,) * p + (1,) * q] = Fraction(1, factorial(p) * factorial(q))
    table = {}
    power = {(): Fraction(1)}
    sign = 1
    for m in range(1, MAX_ORDER + 1):
        power = _truncated_product(power, series, MAX_ORDER)
        for word, coeff in power.items():
            table[word] = table.get(word, Fraction(0)) + Fraction(sign, m) * coeff
        sign = -sign
    return {w: c for w, c in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])) if c != 0}


def evaluate_word_table(table, x, y, order):
    """Sum c_w/|w| [w_1,[w_2,[..]]] over table words of degree <= order.

    A word whose suffix evaluates to zero is zero, so its bracket is never
    taken; zero values are memoised as None.
    """
    alg = x.algebra
    values = (x, y)
    memo = {}

    def nested(word):
        if word in memo:
            return memo[word]
        if len(word) == 1:
            value = values[word[0]]
        else:
            inner = nested(word[1:])
            value = None if inner is None else alg.bracket(values[word[0]], inner)
        if value is not None and value.is_zero():
            value = None
        memo[word] = value
        return value

    total = alg.zero(x.mode)
    for word, coeff in table.items():
        if len(word) > order:
            continue
        term = nested(word)
        if term is not None:
            total = total + (coeff / len(word)) * term
    return total


def bch(x, y, order=MAX_ORDER):
    """Truncated X * Y = log(exp X exp Y) evaluated through the bracket.

    Needs a Lie bracket; exact on nilpotent algebras whose class is at most
    the order, where the series terminates by itself.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    if not x.algebra.is_lie():
        raise ValueError("the BCH product needs a Lie algebra")
    return evaluate_word_table(log_word_table(), x, y, order)


def conj_star(x, y, order=MAX_ORDER):
    """conj(x, y) = (x * y) * (-x) in the truncated BCH product."""
    return bch(bch(x, y, order), -x, order)


def verify_conj_identity(algebra, pairs, order=MAX_ORDER, tol=0, float_exp_order=12):
    """Check conj(x, y) = exp(ad_x)(y) on sampled pairs.

    Exact on nilpotent Lie algebras of class <= order; in float mode the
    residual is the truncation error of both series.
    """
    from .racks import bass_product

    def residual(pair):
        x, y = pair
        return conj_star(x, y, order).distance(bass_product(x, y, float_exp_order))

    return check_law("conj-identity", samples(pairs, "conj-vs-exp-ad"), residual, tol)
