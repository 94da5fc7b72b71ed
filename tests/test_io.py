"""JSON interchange format: round trips and validation."""

import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import checked_fraction, load_bench_gen
from leibrack.algebra import LeibnizAlgebra
from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import (
    InterchangeError,
    algebra_from_dict,
    algebra_to_dict,
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


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DATA_PATHS = {name: str(corpus_path(name)) for name in CORPUS_NAMES}
DATA_PATHS.update(
    (file.removesuffix(".json"), os.path.join(DATA, file)) for file in sorted(os.listdir(DATA))
)
GEN = load_bench_gen()


def dense_algebra(doc):
    """The algebra of a document, through the dense constructor and not the loader."""
    n = doc["dim"]
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for entry in doc.get("brackets", []):
        table[entry["i"] - 1][entry["j"] - 1] = [Fraction(*pair) for pair in entry["value"]]
    return LeibnizAlgebra(table, basis=doc.get("basis"), name=doc.get("name", ""))


def reference_document_bytes(alg):
    """What ``save_algebra`` wrote when it walked the dense table."""
    doc = {"name": alg.name, "dim": alg.dim, "basis": list(alg.basis), "brackets": []}
    for i, plane in enumerate(alg.table):
        for j, row in enumerate(plane):
            if any(row):
                doc["brackets"].append(
                    {"i": i + 1, "j": j + 1, "value": [[c.numerator, c.denominator] for c in row]}
                )
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def assert_loads_as(path, expected):
    alg = load_algebra(path)
    assert "table" not in vars(alg)
    assert alg.int_sparse == expected.int_sparse and alg.scale == expected.scale
    assert alg == expected and hash(alg) == hash(expected)
    assert (alg.basis, alg.name) == (expected.basis, expected.name)
    assert "table" not in vars(alg)  # equality and hash read the int table
    assert alg.table == expected.table


def loading_cases():
    """Each data file as its document, and n_4..n_6 of ``bench/gen.py`` as algebras."""
    cases = [
        pytest.param(json.loads(open(path, encoding="utf-8").read()), id=name)
        for name, path in DATA_PATHS.items()
    ]
    return cases + [pytest.param(GEN.n_k(k), id=f"gen-n{k}") for k in (4, 5, 6)]


@pytest.mark.parametrize("source", loading_cases())
def test_loading_gives_the_dense_algebra_without_its_table(tmp_path, source):
    if isinstance(source, dict):
        base = dense_algebra(source)
        path = tmp_path / "file.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        assert_loads_as(path, base)
    else:
        base = source
    g = GEN.random_basis_change(GEN.seeded_rng(7, base.name or "unnamed"), base.dim)
    for expected in (base, GEN.rebase(base, g, f"{base.name}r")):
        path = tmp_path / "saved.json"
        save_algebra(expected, path)
        assert path.read_bytes() == reference_document_bytes(expected)
        assert_loads_as(path, expected)


@pytest.mark.parametrize("name", list(DATA_PATHS))
def test_saving_writes_the_dense_bytes_without_building_the_table(tmp_path, name):
    alg = load_algebra(DATA_PATHS[name])
    save_algebra(alg, tmp_path / "saved.json")
    assert "table" not in vars(alg)
    assert (tmp_path / "saved.json").read_bytes() == reference_document_bytes(alg)


def test_empty_wide_document_loads_without_dense_cells(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dim": 200, "brackets": []}), encoding="utf-8")
    alg = load_algebra(path)
    assert alg.int_sparse == ((),) * 200 and alg.scale == 1
    assert "table" not in vars(alg)


BIG = 2**80
ENTRY = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)).filter(bool)


@st.composite
def sparse_tables(draw):
    n = draw(st.integers(1, 5))
    index = st.tuples(*[st.integers(0, n - 1)] * 3)
    entries = draw(st.dictionaries(index, ENTRY, max_size=2 * n * n))
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in entries.items():
        table[i][j][k] = c
    return table


@settings(max_examples=60, deadline=None)
@given(sparse_tables())
def test_save_load_round_trip_on_random_sparse_tables(table):
    alg = LeibnizAlgebra(table, name="random")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.json")
        save_algebra(alg, path)
        with open(path, "rb") as handle:
            assert handle.read() == reference_document_bytes(alg)
        assert_loads_as(path, alg)
