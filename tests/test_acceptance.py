"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single CRITERION line on success; a failing criterion
shows up as the usual pytest failure for that test.  All exact checks demand
residual zero, and the float checks use the stated tolerances, never looser.
"""

import json
import random
import time
from fractions import Fraction

from leibrack.bch import conj_star, verify_conj_identity
from leibrack.cli import main as cli_main
from leibrack.cocycle import rack_cocycle_exact, rack_cocycle_series
from leibrack.corpus import CORPUS_NAMES, corpus_path, load_all_corpus
from leibrack.digroup import digroup_axiom_violations, digroup_rack_product
from leibrack.extension import (
    build_extension,
    cocycle_identity_violations,
    reconstruction_violations,
)
from leibrack.observables import Covector, PolyObservable
from leibrack.quantize import (
    action_left_action_violations,
    hessian_check,
    poisson_bracket,
    right_leibniz_violations,
    semiclassical_leading_terms,
)
from leibrack.racks import (
    PairElement,
    bass_product,
    check_rack_axioms,
    hs_rack_product,
)
from leibrack.algebra import LeibnizAlgebra
from leibrack.sampling import (
    sample_elements,
    sample_invertible_matrix,
    sample_observables,
    sample_triples,
    sample_vectors,
)
from leibrack.tangent import max_table_error, tangent_recover

from helpers import build_hs1_nilpotentized

NILPOTENT = ("abelian3", "leib2", "heisenberg", "freenil3")
NILPOTENT_LIE = ("abelian3", "heisenberg", "freenil3")


def test_criterion_01_leibniz_validator():
    start = time.perf_counter()
    fresh = load_all_corpus()
    for name, alg in fresh.items():
        assert alg.is_leibniz(), f"{name} must satisfy the Leibniz identity"

    heis = fresh["heisenberg"]
    base = [[list(row) for row in plane] for plane in heis.table]
    rng = random.Random(101)
    # Entries c[i][j][k] with i, j < 2 and k = 2 describe brackets of the
    # generators that land in the central direction.  Any such change is a
    # central extension of an abelian algebra and provably stays Leibniz,
    # so genuine perturbations are drawn from the remaining entries.
    candidates = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if not (i < 2 and j < 2 and k == 2)
    ]
    for trial in range(10):
        i, j, k = rng.choice(candidates)
        delta = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        table = [[list(row) for row in plane] for plane in base]
        table[i][j][k] += delta
        perturbed = LeibnizAlgebra(table)
        assert not perturbed.is_leibniz(), f"perturbation {trial} at {(i, j, k)}"
        assert perturbed.leibniz_violations()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"validator took {elapsed:.3f} s"
    print(
        f"CRITERION 1: PASS - 6 corpus algebras verified, "
        f"10 perturbations rejected in {elapsed:.3f} s"
    )


def test_criterion_02_rack_axioms():
    corpus = load_all_corpus()
    exact_targets = [
        corpus["heisenberg"],
        corpus["leib2"],
        build_hs1_nilpotentized(),
        corpus["freenil3"],
    ]
    for alg in exact_targets:
        report = check_rack_axioms(bass_product, alg.zero(), sample_triples(alg, 50, seed=202))
        assert report.passed, f"{alg.name}: {report.violations[:1]}"
        assert report.max_residual == 0

    sl2 = corpus["sl2"]
    triples = sample_triples(sl2, 50, seed=202, mode="float", scale=Fraction(1, 3))
    float_report = check_rack_axioms(bass_product, sl2.zero("float"), triples, tol=1e-9)
    assert float_report.passed
    assert float_report.max_residual <= 1e-9
    print(
        "CRITERION 2: PASS - self-distributivity exact on 4 nilpotent algebras "
        f"(50 triples each), sl2 float residual {float_report.max_residual:.2e} <= 1e-9"
    )


def test_criterion_03_bch_conjugation():
    corpus = load_all_corpus()
    for name in ("heisenberg", "freenil3"):
        alg = corpus[name]
        cls = alg.nilpotency_class()
        els = sample_elements(alg, 50, seed=303)
        for x, y in zip(els[::2], els[1::2]):
            truth = bass_product(x, y)
            for order in (cls, 8):
                assert conj_star(x, y, order=order) == truth

    sl2 = corpus["sl2"]
    triples = sample_triples(sl2, 50, seed=23, mode="float", scale=Fraction(1, 12))
    pairs = [(a, b) for a, b, _ in triples]
    report = verify_conj_identity(pairs, order=8, tol=1e-6)
    assert report.passed
    assert report.max_residual <= 1e-6
    print(
        "CRITERION 3: PASS - conj_star = bass product exact on heisenberg and "
        f"freenil3, sl2 float residual {report.max_residual:.2e} <= 1e-6"
    )


def test_criterion_04_tangent_recovery():
    worst = 0.0
    for name, alg in load_all_corpus().items():
        def product(a, b, alg=alg):
            x = alg.element(a, mode="float")
            y = alg.element(b, mode="float")
            return bass_product(x, y).coords

        table = tangent_recover(product, alg.dim, step=1e-3)
        err = max_table_error(table, alg)
        assert err <= 1e-5, f"{name}: recovery error {err:.2e}"
        worst = max(worst, err)
    print(
        f"CRITERION 4: PASS - structure constants recovered on all 6 algebras, "
        f"worst error {worst:.2e} <= 1e-5"
    )


def test_criterion_05_extension_layer():
    for name, alg in load_all_corpus().items():
        ext = build_extension(alg)
        assert ext.quotient.is_lie(), f"{name}: quotient must be Lie"
        assert cocycle_identity_violations(ext) == [], name
        assert reconstruction_violations(ext) == [], name
    print(
        "CRITERION 5: PASS - quotients are Lie, cocycle identity and "
        "reconstruction exact on all 6 algebras"
    )


def test_criterion_06_cocycle_series(tmp_path):
    corpus = load_all_corpus()
    for name in ("leib2", "heisenberg", "freenil3"):
        alg = corpus[name]
        ext = build_extension(alg)
        cls = alg.nilpotency_class()
        els = sample_elements(ext.quotient, 20, seed=404)
        for x, y in zip(els[::2], els[1::2]):
            truth = rack_cocycle_exact(ext, x, y)
            for order in range(cls, 9):
                assert rack_cocycle_series(ext, x, y, order=order) == truth

    out = tmp_path / "cocycle.json"
    rc = cli_main(["cocycle", str(corpus_path("heisenberg")), "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["details"]["series_sign"] == -1
    assert "omega_convention" in doc["details"]
    print(
        "CRITERION 6: PASS - series matches exact cocycle for orders up to 8 "
        f"on 3 algebras; report emits series_sign={doc['details']['series_sign']}"
    )


def test_criterion_07_quantum_rack():
    corpus = load_all_corpus()
    for name in NILPOTENT:
        alg = corpus[name]
        elements = sample_elements(alg, 30, seed=505)
        triples = [tuple(elements[i : i + 3]) for i in range(0, 30, 3)]
        report = check_rack_axioms(bass_product, alg.zero(), triples)
        assert report.passed and report.max_residual == 0, name

        pair_triples = sample_triples(alg, 10, seed=506)
        pairs = [(a, b) for a, b, _ in pair_triples]
        observables = sample_observables(alg, 10, seed=507)
        action = action_left_action_violations(pairs, observables)
        assert action.passed and action.max_residual == 0, name

    for name in NILPOTENT_LIE:
        alg = corpus[name]
        els = sample_elements(alg, 30, seed=508)
        for x, y in zip(els[::2], els[1::2]):
            assert conj_star(x, y) == bass_product(x, y), name
    print(
        "CRITERION 7: PASS - label rack axioms and left-action law exact on "
        "nilpotent corpus; BCH conjugation rack = exponential rack on Lie corpus"
    )


def test_criterion_08_hessian():
    start = time.perf_counter()
    instances = 0
    for name, alg in load_all_corpus().items():
        rng = random.Random(606)
        for _ in range(20):
            xi = Covector(
                alg,
                [
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                    for _ in range(alg.dim)
                ],
            )
            report = hessian_check(alg, xi)
            assert report.determinant == 1, name
            assert report.signature == 0, name
            instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 120
    assert elapsed < 5.0, f"hessian batch took {elapsed:.3f} s"
    print(
        f"CRITERION 8: PASS - det=1 and signature=0 on {instances} instances "
        f"in {elapsed:.3f} s"
    )


def test_criterion_09_bracket_layer():
    for name, alg in load_all_corpus().items():
        obs = sample_observables(alg, 300, seed=707)
        triples = [tuple(obs[i : i + 3]) for i in range(0, 300, 3)]
        report = right_leibniz_violations(alg, triples)
        assert report.passed and report.max_residual == 0, name
        assert report.checked == 100

        rng = random.Random(708)
        for _ in range(20):
            a, b = sample_elements(alg, 2, seed=rng.randint(0, 10**6))
            xi = Covector(
                alg, [Fraction(rng.randint(-3, 3), 2) for _ in range(alg.dim)]
            )
            bracket = poisson_bracket(
                alg, PolyObservable.from_element(a), PolyObservable.from_element(b)
            )
            assert bracket.evaluate(xi) == xi.pair(a.bracket(b)), name

        zero = [Fraction(0)] * alg.dim
        star0 = lambda f, g, alg=alg: semiclassical_leading_terms(alg, f, g)[0]
        obs = sample_observables(alg, 150, seed=709)
        for f, g, h in (tuple(obs[i : i + 3]) for i in range(0, 150, 3)):
            assert star0(star0(f, g), h) == star0(f, star0(g, h)), name
    print(
        "CRITERION 9: PASS - right Leibniz rule on 100 triples per algebra, "
        "linear-observable identity, and order-zero associativity all exact"
    )


def test_criterion_10_digroup():
    rng = random.Random(808)
    vectors = sample_vectors(rng, 3, 150)
    elements = [
        PairElement(v, sample_invertible_matrix(rng, 3)) for v in vectors
    ]
    triples = [tuple(elements[i : i + 3]) for i in range(0, 150, 3)]
    report = digroup_axiom_violations(triples)
    assert report.passed
    assert report.max_residual == 0
    assert report.checked == 50

    for a, b, c in triples:
        for x, y in ((a, b), (b, c), (a, c)):
            assert digroup_rack_product(x, y).distance(hs_rack_product(x, y)) == 0
    print(
        "CRITERION 10: PASS - digroup axioms on 50 matrix-pair triples and "
        "digroup rack = conjugation rack pointwise"
    )
