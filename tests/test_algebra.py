"""Structure constants, brackets, derivations, and product constructions."""

import copy
import pickle
from fractions import Fraction

import pytest

from leibrack import linalg
from leibrack.algebra import (
    Element,
    Endomorphism,
    LeibnizAlgebra,
    derivation_algebra,
    hemi_semi_direct,
    left_center,
)
from leibrack.corpus import CORPUS_NAMES, corpus_path
from leibrack.io import load_algebra
from leibrack.observables import Covector, PolyObservable
from leibrack.racks import PairElement, exp_endo

from helpers import (
    make_table,
    mat_sub,
    reference_derivation_residual,
    reference_morphism_residual,
    sl2_module_action,
)

FLAGS = {
    # name: (is_leibniz, is_lie, nilpotency_class)
    "abelian3": (True, True, 1),
    "leib2": (True, False, 2),
    "hs1": (True, False, None),
    "heisenberg": (True, True, 2),
    "freenil3": (True, True, 3),
    "sl2": (True, True, None),
}

DERIVATION_DIMS = {
    # name: (dim_der, dim_inner)
    "abelian3": (9, 0),
    "leib2": (2, 1),
    "hs1": (1, 1),
    "heisenberg": (6, 2),
    "freenil3": (10, 3),
    "sl2": (3, 3),
}

LEFT_CENTER_DIMS = {
    "abelian3": 3,
    "leib2": 1,
    "hs1": 1,
    "heisenberg": 1,
    "freenil3": 2,
    "sl2": 0,
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_flags(corpus, name):
    alg = corpus[name]
    is_leibniz, is_lie, cls = FLAGS[name]
    assert alg.is_leibniz() is is_leibniz
    assert alg.is_lie() is is_lie
    assert alg.nilpotency_class() == cls
    assert alg.is_nilpotent() is (cls is not None)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_left_center_dims(corpus, name):
    assert left_center(corpus[name]).dim == LEFT_CENTER_DIMS[name]


def test_bracket_worked_examples(heisenberg, leib2, sl2):
    e1, e2, e3 = heisenberg.basis_elements()
    assert e1.bracket(e2) == e3
    assert e2.bracket(e1) == -e3
    assert e3.bracket(e1).is_zero()

    a1, a2 = leib2.basis_elements()
    assert a1.bracket(a1) == a2

    h, e, f = sl2.basis_elements()
    assert h.bracket(e) == 2 * e
    assert e.bracket(f) == h
    assert h.bracket(f) == -2 * f


def test_bracket_is_bilinear(freenil3):
    x1, x2, x12, *_ = freenil3.basis_elements()
    lhs = (2 * x1 + x2).bracket(x2 - Fraction(1, 2) * x1)
    rhs = 2 * x1.bracket(x2) - x1.bracket(x1) + x2.bracket(x2) - Fraction(1, 2) * x2.bracket(x1)
    assert lhs == rhs


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_ad_maps_are_derivations(corpus, name):
    alg = corpus[name]
    for x in alg.basis_elements():
        ad = alg.ad(x)
        assert reference_derivation_residual(ad) == 0
        # ad(x)(y) is the bracket [x, y]
        for y in alg.basis_elements():
            assert ad(y) == x.bracket(y)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_derivation_dims(corpus, name):
    summary = derivation_algebra(corpus[name])
    dim_der, dim_inner = DERIVATION_DIMS[name]
    assert summary.dim_der == dim_der
    assert summary.dim_inner == dim_inner
    assert summary.dim_outer == dim_der - dim_inner
    for d in summary.basis:
        assert reference_derivation_residual(d) == 0


def commutator(a, b):
    return Endomorphism(a.algebra, mat_sub((a @ b).matrix, (b @ a).matrix))


def test_derivations_closed_under_commutator(heisenberg):
    basis = derivation_algebra(heisenberg).basis
    for a in basis:
        for b in basis:
            assert reference_derivation_residual(commutator(a, b)) == 0


def test_derivation_bracket_with_inner(heisenberg):
    # [D, ad_x] = ad_{D x} for any derivation D
    basis = derivation_algebra(heisenberg).basis
    for d in basis:
        for x in heisenberg.basis_elements():
            adx = heisenberg.ad(x)
            lhs = commutator(d, adx)
            rhs = heisenberg.ad(d(x))
            assert lhs.distance(rhs) == 0


def is_automorphism(endo):
    return (
        reference_morphism_residual(endo.algebra, endo.matrix) == 0
        and linalg.det(endo.matrix) != 0
    )


def test_exp_of_inner_derivation_is_automorphism(heisenberg, freenil3):
    for alg in (heisenberg, freenil3):
        for x in alg.basis_elements():
            assert is_automorphism(exp_endo(alg.ad(x)))


def test_element_arithmetic(heisenberg):
    e1, e2, e3 = heisenberg.basis_elements()
    v = e1 + 2 * e2 - Fraction(1, 2) * e3
    assert v.coords == (Fraction(1), Fraction(2), Fraction(-1, 2))
    assert (-v).coords == (Fraction(-1), Fraction(-2), Fraction(1, 2))
    assert v - v == heisenberg.zero()
    assert (v - v).is_zero()
    assert v.distance(e1) == 2
    assert hash(e1 + e2) == hash(e2 + e1)


def test_element_is_immutable(heisenberg):
    e1 = heisenberg.basis_element(0)
    with pytest.raises(AttributeError):
        e1.coords = (0, 0, 0)


VALUE_FIELDS = {
    "element": "coords",
    "endomorphism": "matrix",
    "covector": "coords",
    "poly": "terms",
    "pair": "matrix",
}


def _make_value(alg, kind):
    """A fresh value of one of the immutable value types on a 3-dim algebra."""
    coords = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    ident = linalg.identity_matrix(3)
    return {
        "element": lambda: Element(alg, coords),
        "endomorphism": lambda: Endomorphism(alg, ident),
        "covector": lambda: Covector(alg, coords),
        "poly": lambda: PolyObservable(2, {(0, 1): Fraction(1), (2, 0): Fraction(-3)}),
        "pair": lambda: PairElement(coords, ident),
    }[kind]()


@pytest.mark.parametrize("kind", sorted(VALUE_FIELDS))
def test_value_types_are_frozen_and_hash_by_value(heisenberg, freenil3, kind):
    a, b = _make_value(heisenberg, kind), _make_value(heisenberg, kind)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    field = VALUE_FIELDS[kind]
    for copied in (a, copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == b and hash(copied) == hash(b)
        with pytest.raises(AttributeError):
            setattr(copied, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(copied, field)
    # algebras share the value base: equal and hashed by table
    one, two = (load_algebra(corpus_path("heisenberg")) for _ in range(2))
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != freenil3


def test_element_hash_ignores_the_algebra_object():
    one, two = (load_algebra(corpus_path("heisenberg")) for _ in range(2))
    assert one is not two
    x, y = one.element([1, 2, 3]), two.element([1, 2, 3])
    assert x == y and hash(x) == hash(y)
    xi = Covector(one, [1, 2, 3])
    assert (x.coords, x.mode) == (xi.coords, xi.mode)
    assert x != xi and xi != x


def test_mode_mixing_rejected(heisenberg):
    exact = heisenberg.basis_element(0)
    floaty = exact.to_float()
    with pytest.raises(ValueError):
        exact + floaty
    with pytest.raises(ValueError, match="^mixed scalar modes 'exact' and 'float'$"):
        exact.bracket(floaty)
    with pytest.raises(ValueError, match="^mixed scalar modes 'float' and 'exact'$"):
        heisenberg.bracket(floaty, exact)


@pytest.mark.parametrize("other", ["freenil3", "heisenberg-copy"])
def test_element_sum_rejects_other_algebras(heisenberg, freenil3, other):
    # a second heisenberg object has an equal table but is still another algebra
    alg = freenil3 if other == "freenil3" else LeibnizAlgebra(heisenberg.table)
    x = heisenberg.basis_element(0)
    y = alg.basis_element(1)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="different algebra"):
            a + b
        with pytest.raises(ValueError, match="different algebra"):
            a - b


def test_float_round_trip(heisenberg):
    e1, e2, _ = heisenberg.basis_elements()
    fx = (e1 + 2 * e2).to_float()
    assert fx.mode == "float"


def test_element_constructor_validates_length(heisenberg):
    with pytest.raises(ValueError):
        heisenberg.element([1, 2])


def test_table_rejects_ragged_input():
    with pytest.raises(ValueError):
        LeibnizAlgebra([[[Fraction(0)]], [[Fraction(0)]]])


def test_table_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    raw = [[[half, 1], ["3/4", 0.25]], [[0, True], [Fraction(-2), 0]]]
    alg = LeibnizAlgebra(raw)
    assert alg.table[0][0][0] is half
    entries = [c for plane in alg.table for row in plane for c in row]
    assert all(type(c) is Fraction for c in entries)
    assert entries == [half, 1, Fraction(3, 4), Fraction(1, 4), 0, 1, -2, 0]
    converted = [[[Fraction(c) for c in row] for row in plane] for plane in raw]
    assert alg == LeibnizAlgebra(converted)
    assert hash(alg) == hash(LeibnizAlgebra(converted))


def identity(algebra):
    return Endomorphism(algebra, linalg.identity_matrix(algebra.dim))


def test_endomorphism_algebra(heisenberg):
    ident = identity(heisenberg)
    assert reference_morphism_residual(heisenberg, ident.matrix) == 0
    assert is_automorphism(ident)
    scale = Endomorphism(
        heisenberg, [[Fraction(1), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(2)]]
    )
    # scaling e2 and e3 by two respects [e1, e2] = e3
    assert is_automorphism(scale)
    assert (scale @ scale.inverse()).distance(ident) == 0
    bad = Endomorphism(
        heisenberg, [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(5)]]
    )
    assert reference_morphism_residual(heisenberg, bad.matrix) > 0


def test_heisenberg_single_entry_perturbation_fails(heisenberg):
    table = [[list(row) for row in plane] for plane in heisenberg.table]
    table[2][0][0] = Fraction(1)  # make the central element act
    perturbed = LeibnizAlgebra(table)
    assert not perturbed.is_leibniz()
    assert perturbed.leibniz_violations()


def test_leibniz_violation_reports_triple():
    table = make_table(1, {(0, 0): {0: 1}})
    alg = LeibnizAlgebra(table)
    violations = alg.leibniz_violations()
    assert violations
    triple, residual = violations[0]
    assert triple == (0, 0, 0)
    assert any(c != 0 for c in residual)


def test_hs1_nilpotentized_structure(hs1n):
    assert hs1n.dim == 3
    assert hs1n.is_leibniz()
    assert not hs1n.is_lie()
    assert hs1n.nilpotency_class() == 2
    v1, v2, g1 = hs1n.basis_elements()
    assert g1.bracket(v2) == v1
    assert v2.bracket(g1).is_zero()
    # the module sits inside the left center
    zl = left_center(hs1n)
    assert zl.dim == 2
    assert zl.contains(v1)
    assert zl.contains(v2)


def test_hemi_semi_direct_with_sl2_module(sl2):
    prod = hemi_semi_direct(sl2, sl2_module_action(), 2, name="sl2-on-plane")
    assert prod.dim == 5
    assert prod.is_leibniz()
    assert not prod.is_lie()
    zl = left_center(prod)
    assert zl.contains(prod.basis_element(0))
    assert zl.contains(prod.basis_element(1))
    # [g, v] follows the module action: rho_h(v1) = v1
    v1 = prod.basis_element(0)
    g_h = prod.basis_element(2)
    assert g_h.bracket(v1) == v1


def test_hemi_semi_direct_rejects_non_lie(leib2):
    action = [[[Fraction(0)]], [[Fraction(0)]]]
    with pytest.raises(ValueError):
        hemi_semi_direct(leib2, action, 1)


def test_hemi_semi_direct_rejects_non_representation(sl2):
    broken = sl2_module_action()
    broken[2] = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    with pytest.raises(ValueError, match=r"basis pair \(2, 3\)"):
        hemi_semi_direct(sl2, broken, 2)


def test_subspace_membership(heisenberg):
    center = left_center(heisenberg)
    e3 = heisenberg.basis_element(2)
    assert center.contains(2 * e3)
    assert center.coefficients((2 * e3).coords) == [Fraction(2)]
    assert not center.contains(heisenberg.basis_element(0))
    assert center.coefficients(heisenberg.basis_element(0).coords) is None


# -- every binary op joins its operands: same algebra (by identity), same mode -------


def _cross(heisenberg, freenil3):
    """heisenberg ad(e1), e1 and a covector; freenil3 ad(e2), e1, e2 and a covector."""
    h1 = heisenberg.basis_element(0)
    f1, f2 = freenil3.basis_element(0), freenil3.basis_element(1)
    return {
        "h_ad": heisenberg.ad(h1), "h1": h1, "h_xi": Covector(heisenberg, h1.coords),
        "f_ad": freenil3.ad(f2), "f1": f1, "f2": f2, "f_xi": Covector(freenil3, f1.coords),
    }


CROSS_ALGEBRA_OPS = {
    "endomorphism-call": lambda c: c["h_ad"](c["f1"]),
    "endomorphism-matmul": lambda c: c["h_ad"] @ c["f_ad"],
    "endomorphism-distance": lambda c: c["h_ad"].distance(c["f_ad"]),
    "element-distance": lambda c: c["h1"].distance(c["f2"]),
    "covector-distance": lambda c: c["h_xi"].distance(c["f_xi"]),
    "covector-pair": lambda c: c["h_xi"].pair(c["f1"]),
    "element-bracket": lambda c: c["h1"].bracket(c["f1"]),
    "element-bracket-reversed": lambda c: c["f1"].bracket(c["h1"]),
    "algebra-bracket": lambda c: c["h1"].algebra.bracket(c["f1"], c["f2"]),
}


@pytest.mark.parametrize("op", list(CROSS_ALGEBRA_OPS))
def test_binary_ops_reject_operands_of_another_algebra(heisenberg, freenil3, op):
    operands = _cross(heisenberg, freenil3)
    with pytest.raises(ValueError, match="elements belong to a different algebra"):
        CROSS_ALGEBRA_OPS[op](operands)


def test_endomorphism_equality_compares_the_algebra(heisenberg, abelian3):
    assert identity(heisenberg) != identity(abelian3)
    assert identity(heisenberg) == identity(heisenberg)
    copy = LeibnizAlgebra(heisenberg.table)
    assert identity(heisenberg) == identity(copy)


def test_covector_equality_compares_the_algebra(heisenberg, abelian3):
    assert Covector(heisenberg, [1, 0, 0]) != Covector(abelian3, [1, 0, 0])
    assert Covector(heisenberg, [1, 0, 0]) == Covector(heisenberg, [1, 0, 0])
    copy = LeibnizAlgebra(heisenberg.table)
    assert Covector(heisenberg, [1, 0, 0]) == Covector(copy, [1, 0, 0])
