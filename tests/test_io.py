"""JSON interchange format: round trips and validation."""

import json
import re
from fractions import Fraction

import pytest

from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import (
    InterchangeError,
    algebra_from_dict,
    algebra_to_dict,
    checked_fraction,
    fraction_to_pair,
    load_algebra,
    pair_defect,
    save_algebra,
    scalar_repr,
)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_round_trip_through_dict(corpus, name):
    alg = corpus[name]
    again = algebra_from_dict(algebra_to_dict(alg))
    assert again.table == alg.table
    assert again.basis == alg.basis
    assert again.name == alg.name


def test_round_trip_through_file(tmp_path, heisenberg):
    path = tmp_path / "h.json"
    save_algebra(heisenberg, path)
    again = load_algebra(path)
    assert again.table == heisenberg.table
    # saved documents are stable under a second round trip
    save_algebra(again, tmp_path / "h2.json")
    assert (tmp_path / "h.json").read_bytes() == (tmp_path / "h2.json").read_bytes()


def test_corpus_files_match_schema():
    for name in CORPUS_NAMES:
        doc = json.loads(corpus_path(name).read_text(encoding="utf-8"))
        alg = algebra_from_dict(doc)
        assert alg.name == name
        assert alg.dim == doc["dim"]


def test_pair_to_fraction_accepts_lowest_terms():
    assert checked_fraction([3, 2]) == Fraction(3, 2)
    assert checked_fraction([0, 1]) == 0
    assert checked_fraction([-5, 3]) == Fraction(-5, 3)


REJECTED_PAIRS = [
    ([1, 0], "denominator must be positive, got 0"),
    ([1, -2], "denominator must be positive, got -2"),
    ([2, 4], "fraction 2/4 is not in lowest terms"),
    ([1.5, 2], "expected [numerator, denominator] integers, got [1.5, 2]"),
    ([True, 1], "expected [numerator, denominator] integers, got [True, 1]"),  # bool
    ([1], "expected [numerator, denominator] integers, got [1]"),
    ("1/2", "expected [numerator, denominator] integers, got '1/2'"),
    ([0, 2], "fraction 0/2 is not in lowest terms"),  # zero is [0, 1]
    ([1, True], "expected [numerator, denominator] integers, got [1, True]"),
    ([3, -1], "denominator must be positive, got -1"),
]


@pytest.mark.parametrize(
    "pair, message",
    REJECTED_PAIRS,
    ids=[p if isinstance(p, str) else f"pair{k}" for k, (p, _) in enumerate(REJECTED_PAIRS)],
)
def test_pair_to_fraction_rejects(pair, message):
    assert checked_fraction(pair) is None
    assert pair_defect(pair) == message
    doc = base_doc()
    doc["brackets"][0]["value"][1] = pair
    where = re.escape("brackets[0].value[1]")
    with pytest.raises(InterchangeError, match=f"^{where}: {re.escape(message)}$"):
        algebra_from_dict(doc)


def test_zero_entries_share_one_fraction():
    alg = algebra_from_dict(base_doc())
    assert alg.table[0][0][0] == 0 and alg.table[0][0][1] == 1
    zeros = {id(c) for plane in alg.table for row in plane for c in row if c == 0}
    assert zeros == {id(checked_fraction([0, 1]))}


def test_fraction_to_pair_lowest_terms():
    assert fraction_to_pair(Fraction(6, 4)) == [3, 2]
    assert fraction_to_pair(2) == [2, 1]


def base_doc():
    return {
        "name": "t",
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": 1, "j": 1, "value": [[0, 1], [1, 1]]}],
    }


def test_from_dict_accepts_minimal_document():
    alg = algebra_from_dict({"dim": 1})
    assert alg.dim == 1
    assert alg.table == ((((Fraction(0),),),))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.update(dim=0), "dim"),
        (lambda d: d.update(dim="3"), "dim"),
        (lambda d: d.update(name=7), "name"),
        (lambda d: d.update(basis=["a"]), "basis"),
        (lambda d: d.update(basis=["a", 3]), "basis"),
        (lambda d: d.update(brackets="nope"), "brackets"),
        (lambda d: d["brackets"].append("nope"), "expected an object"),
        (lambda d: d["brackets"][0].pop("i"), "missing field"),
        (lambda d: d["brackets"][0].update(i=0), "outside"),
        (lambda d: d["brackets"][0].update(j=3), "outside"),
        (lambda d: d["brackets"][0].update(i=True), "outside"),
        (lambda d: d["brackets"][0].update(extra=1), "unknown"),
        (lambda d: d["brackets"][0].update(value=[[0, 1]]), "fraction pairs"),
        (lambda d: d["brackets"][0].update(value=[[0, 1], [2, 4]]), "lowest terms"),
        (
            lambda d: d["brackets"].append({"i": 1, "j": 1, "value": [[0, 1], [0, 1]]}),
            "duplicate",
        ),
    ],
)
def test_from_dict_rejects_malformed(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(InterchangeError, match=fragment):
        algebra_from_dict(doc)


def test_from_dict_rejects_non_object():
    with pytest.raises(InterchangeError):
        algebra_from_dict([1, 2, 3])


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InterchangeError, match="invalid JSON"):
        load_algebra(path)


def test_interchange_error_is_value_error():
    assert issubclass(InterchangeError, ValueError)


def test_scalar_repr():
    assert scalar_repr(Fraction(1, 2)) == "1/2"
    assert scalar_repr(Fraction(-3)) == "-3"
    assert scalar_repr(0.5) == "0.5"
    assert scalar_repr(1e-17) == "1e-17"
