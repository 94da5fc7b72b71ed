"""Bundled example algebras.

Six small algebras exercise every code path: an abelian Lie algebra, the
smallest non-Lie nilpotent Leibniz algebra, the smallest non-nilpotent one,
the Heisenberg algebra, the free nilpotent Lie algebra of class 3 on two
generators, and sl2.
"""

import json
from importlib import resources

from .io import algebra_from_dict

CORPUS_NAMES = ("abelian3", "leib2", "hs1", "heisenberg", "freenil3", "sl2")


def corpus_path(name):
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus algebra {name!r}; choose from {CORPUS_NAMES}")
    return resources.files("leibrack").joinpath("corpus_data").joinpath(f"{name}.json")


def load_corpus(name):
    doc = json.loads(corpus_path(name).read_text(encoding="utf-8"))
    return algebra_from_dict(doc)

