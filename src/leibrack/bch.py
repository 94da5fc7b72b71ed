"""Truncated Baker-Campbell-Hausdorff products from an exact word table.

The coefficient table is produced once per process: expand
log(exp X exp Y) in the free associative algebra on two letters, keeping
words up to degree 8 with exact rational coefficients.  The expansion runs
on ints: a word of degree d carries d! times its coefficient in each power
of exp X exp Y - 1, and each table entry becomes one Fraction at the end.
The Dynkin-Specht-Wever projection turns the word expansion into a Lie
element: a word w = a1 a2 .. ad of degree d contributes coefficient
c_w / d on the right-nested bracket [a1, [a2, [.., ad]]].

The same cached call lays the words out as a suffix tree: a node is a
suffix of some table word, and its children prepend one letter, so the
value of a child is one bracket of that letter with the node's value.
Evaluation walks the tree on coordinate lists, taking each bracket at most
once, and drops a subtree as soon as its value is zero or it holds no word
of degree <= order.  The nonzero terms are then added in table order, so
exact and float results are the sums of the plain word-by-word loop.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .algebra import join_elements
from .racks import bass_product
from .reports import check_law, samples

MAX_ORDER = 8


def _truncated_product(a, b, max_degree):
    """Product of two word series on ints, dropping words above ``max_degree``.

    An int c on a word of degree d stands for the coefficient c / d!, so
    words of degree i and j multiply with the factor C(i + j, i).
    """
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            degree = len(wa) + len(wb)
            if degree > max_degree:
                continue
            key = wa + wb
            out[key] = out.get(key, 0) + ca * cb * comb(degree, len(wa))
    return out


class WordTable(dict):
    """The word -> coefficient dict of ``log_word_table``, plus its suffix tree.

    ``tree`` holds the degree-1 nodes.  A node is a tuple
    ``(letter, reach, position, weight, children)``: ``letter`` is the first
    letter of its word, ``reach`` the lowest degree of a table word in its
    subtree (the word itself included), and ``position`` and ``weight`` the
    word's index in table order and c_w / |w|, or None off the table.
    """

    __slots__ = ("tree",)


def _suffix_tree(table):
    reach = {}
    for word in table:  # ascending degree: the first word met is the lowest
        for i in range(len(word)):
            reach.setdefault(word[i:], len(word))
    position = {word: i for i, word in enumerate(table)}
    nodes = {}
    for word in sorted(reach, key=len, reverse=True):
        children = tuple(nodes[(a,) + word] for a in (0, 1) if (a,) + word in nodes)
        i = position.get(word)
        weight = None if i is None else table[word] / len(word)
        nodes[word] = (word[0], reach[word], i, weight, children)
    return tuple(nodes[(a,)] for a in (0, 1) if (a,) in nodes)


@lru_cache(maxsize=1)
def log_word_table():
    """Coefficients of log(exp X exp Y) on words over {0: X, 1: Y}, degree <= 8.

    A ``WordTable``: the dict in (degree, word) order, with the words as a
    suffix tree in ``.tree``.
    """
    # X^p Y^q / (p! q!) is C(p + q, p) / (p + q)!; every power of the series
    # keeps that form, and the weights (-1)^(m+1) / m, m <= 8, are ints / 840
    series = {
        (0,) * p + (1,) * q: comb(p + q, p)
        for p in range(MAX_ORDER + 1)
        for q in range(MAX_ORDER + 1 - p)
        if p + q
    }
    scale = lcm(*range(1, MAX_ORDER + 1))
    sums = {}
    power = {(): 1}
    sign = 1
    for m in range(1, MAX_ORDER + 1):
        power = _truncated_product(power, series, MAX_ORDER)
        for word, c in power.items():
            sums[word] = sums.get(word, 0) + sign * (scale // m) * c
        sign = -sign
    words = WordTable(
        (w, Fraction(c, scale * factorial(len(w))))
        for w, c in sorted(sums.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if c
    )
    words.tree = _suffix_tree(words)
    return words


def evaluate_word_table(table, x, y, order):
    """Sum c_w/|w| [w_1,[w_2,[..]]] over table words of degree <= order.

    ``table`` is a ``WordTable``.  Brackets are taken on coordinate lists
    with ``bracket_coords``, one per tree node, and never below a zero value
    or for a node with no word of degree <= order under it.  Each nonzero
    term is added in table order as ``total_k + weight * v_k``, skipping
    zero coordinates: a sum that starts at +0 is never -0, so adding a
    signed zero would leave it as it is.  One Element is built at the end.
    """
    alg, mode = join_elements(x, y)
    bracket = alg.bracket_coords
    letters = (x.coords, y.coords)
    terms = []

    def walk(nodes, inner):
        for letter, reach, position, weight, children in nodes:
            if reach > order:
                continue
            value = letters[letter] if inner is None else bracket(letters[letter], inner)
            if any(value):
                if position is not None:
                    terms.append((position, weight, value))
                walk(children, value)

    walk(table.tree, None)
    total = list(alg.zero(mode).coords)
    for _, weight, value in sorted(terms):
        for k, v in enumerate(value):
            if v:
                total[k] = total[k] + weight * v
    return alg.element(total, mode)


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


def verify_conj_identity(pairs, order=MAX_ORDER, tol=0):
    """Check conj(x, y) = exp(ad_x)(y) on sampled pairs.

    Exact on nilpotent Lie algebras of class <= order; in float mode the
    residual is the truncation error of both series.
    """

    def residual(pair):
        x, y = pair
        return conj_star(x, y, order).distance(bass_product(x, y))

    return check_law("conj-identity", samples(pairs, "conj-vs-exp-ad"), residual, tol)
