import pytest

from leibrack import linalg
from leibrack.corpus import CORPUS_NAMES, load_corpus

from helpers import build_hs1_nilpotentized


@pytest.fixture(scope="session")
def corpus():
    """All bundled algebras, keyed by name."""
    return {name: load_corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def abelian3(corpus):
    return corpus["abelian3"]


@pytest.fixture(scope="session")
def leib2(corpus):
    return corpus["leib2"]


@pytest.fixture(scope="session")
def hs1(corpus):
    return corpus["hs1"]


@pytest.fixture(scope="session")
def heisenberg(corpus):
    return corpus["heisenberg"]


@pytest.fixture(scope="session")
def freenil3(corpus):
    return corpus["freenil3"]


@pytest.fixture(scope="session")
def sl2(corpus):
    return corpus["sl2"]


@pytest.fixture(scope="session")
def hs1n():
    return build_hs1_nilpotentized()


@pytest.fixture
def rungs(monkeypatch):
    """The (prime, passed) of each modular solve that ``linalg.nullspace`` runs."""
    tried = []
    solve = linalg._modular_nullspace

    def spy(rows, cols, p):
        basis = solve(rows, cols, p)
        tried.append((p, basis is not None))
        return basis

    monkeypatch.setattr(linalg, "_modular_nullspace", spy)
    return tried
