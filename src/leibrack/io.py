"""JSON interchange for algebras.

An algebra file looks like::

    {
      "name": "heisenberg",
      "dim": 3,
      "basis": ["e1", "e2", "e3"],
      "brackets": [
        {"i": 1, "j": 2, "value": [[0, 1], [0, 1], [1, 1]]},
        {"i": 2, "j": 1, "value": [[0, 1], [0, 1], [-1, 1]]}
      ]
    }

Indices are 1-based, each value is a dense coordinate vector of fractions as
``[numerator, denominator]`` pairs in lowest terms with positive denominator,
and omitted (i, j) pairs mean a zero bracket.

Loading keeps the nonzero pairs as ints for ``LeibnizAlgebra.from_entries``,
with no Fraction and no dense table; saving walks ``int_sparse``.
"""

import json
from fractions import Fraction
from math import gcd

from .algebra import LeibnizAlgebra


class InterchangeError(ValueError):
    """Raised when an algebra JSON document is malformed."""


def pair_defect(pair):
    """What makes ``pair`` invalid, for a pair that ``algebra_from_dict`` refuses."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(type(x) is int for x in pair)):
        return f"expected [numerator, denominator] integers, got {pair!r}"
    num, den = pair
    if den <= 0:
        return f"denominator must be positive, got {den}"
    return f"fraction {num}/{den} is not in lowest terms"


def fraction_to_pair(num, den=1):
    """``num / den`` in lowest terms, as a ``[numerator, denominator]`` pair."""
    f = Fraction(num, den)
    return [f.numerator, f.denominator]


def algebra_from_dict(doc):
    if not isinstance(doc, dict):
        raise InterchangeError("top level must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InterchangeError(f"dim: expected a positive integer, got {dim!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InterchangeError("name: expected a string")
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or not all(
            isinstance(b, str) for b in basis
        ):
            raise InterchangeError(f"basis: expected {dim} strings")
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise InterchangeError("brackets: expected a list")
    rows = {}  # 0-based (i, j) -> the nonzero (k, num, den) of its value
    for pos, entry in enumerate(entries):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise InterchangeError(f"{where}: expected an object")
        unknown = set(entry) - {"i", "j", "value"}
        if unknown:
            raise InterchangeError(f"{where}: unknown fields {sorted(unknown)}")
        try:
            i, j, value = entry["i"], entry["j"], entry["value"]
        except KeyError as missing:
            raise InterchangeError(f"{where}: missing field {missing.args[0]!r}") from None
        for label, idx in (("i", i), ("j", j)):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= dim:
                raise InterchangeError(f"{where}.{label}: index {idx!r} outside 1..{dim}")
        if (i - 1, j - 1) in rows:
            raise InterchangeError(f"{where}: duplicate bracket for pair ({i}, {j})")
        if not isinstance(value, list) or len(value) != dim:
            raise InterchangeError(f"{where}.value: expected {dim} fraction pairs")
        rows[i - 1, j - 1] = row = []
        for k, pair in enumerate(value):
            # two ints (``type(x) is int`` also rejects bool), a positive
            # denominator, lowest terms
            if isinstance(pair, (list, tuple)) and len(pair) == 2:
                num, den = pair
                if type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1:
                    if num:
                        row.append((k, num, den))
                    continue
            raise InterchangeError(f"{where}.value[{k}]: {pair_defect(pair)}")
    return LeibnizAlgebra.from_entries(dim, rows, basis=basis, name=name)


def algebra_to_dict(algebra):
    brackets = []
    for i, plane in enumerate(algebra.int_sparse):
        for j, entries in plane:
            value = [[0, 1] for _ in range(algebra.dim)]
            for k, a in entries:
                value[k] = fraction_to_pair(a, algebra.scale)
            brackets.append({"i": i + 1, "j": j + 1, "value": value})
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.basis),
        "brackets": brackets,
    }


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as err:  # bad JSON, bad UTF-8, an int past the digit limit
            raise InterchangeError(f"{path}: invalid JSON ({err})") from None
    return algebra_from_dict(doc)


def save_algebra(algebra, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(algebra_to_dict(algebra), handle, indent=2, sort_keys=True)
        handle.write("\n")


def scalar_repr(value):
    """Deterministic string form of an exact or float scalar for reports.

    Any exact value but an int or a Fraction goes through ``Fraction``: ``True`` prints ``1``.
    """
    if isinstance(value, float):
        return repr(value)
    return str(value if type(value) in (int, Fraction) else Fraction(value))
