"""The law runner: judging, violation records and the worst-residual fold."""

import math
from fractions import Fraction

import pytest

from leibrack.algebra import Endomorphism, LeibnizAlgebra
from leibrack.observables import Covector, PolyObservable
from leibrack.racks import PairElement, rh_embed
from leibrack.reports import check_law, samples

NAN = float("nan")


def test_nan_residual_fails_and_is_reported():
    report = check_law("law", samples([0.0, float("nan"), 1e-10]), lambda r: r, tol=1e-9)
    assert not report.passed
    assert report.violations == [{"sample": 1, "residual": report.violations[0]["residual"]}]
    assert math.isnan(report.violations[0]["residual"])
    assert math.isnan(report.max_residual)
    assert report.checked == 3


def test_residual_equal_to_tol_passes():
    report = check_law("law", samples([1e-9, 0.5e-9]), lambda r: r, tol=1e-9)
    assert report.passed
    assert report.max_residual == 1e-9


def test_all_zero_float_residuals_report_int_zero():
    report = check_law("law", samples([0.0, 0.0]), lambda r: r, tol=1e-9)
    assert report.max_residual == 0 and type(report.max_residual) is int
    report = check_law("law", samples([0.0]), lambda r: r, tol=1e-9, start=0.0)
    assert type(report.max_residual) is float


def test_first_of_equal_residuals_is_kept():
    report = check_law("law", samples([1, 1.0]), lambda r: r, tol=2)
    assert type(report.max_residual) is int


def test_axiom_dicts_are_judged_in_order_and_none_is_skipped():
    def laws(w):
        return {"first": w, "second": None if w == 0 else 2 * w}

    report = check_law("law", samples([0, 1]), laws, checked=7)
    assert report.violations == [
        {"axiom": "first", "sample": 1, "residual": 1},
        {"axiom": "second", "sample": 1, "residual": 2},
    ]
    assert report.max_residual == 2
    assert report.checked == 7


def test_apart_axioms_fail_when_points_collide_and_stay_out_of_the_fold():
    report = check_law(
        "law", samples([0, 5]), lambda w: {"apart": w}, tol=1, apart=("apart",)
    )
    assert report.violations == [{"axiom": "apart", "sample": 0, "residual": 0}]
    assert report.max_residual == 0
    report = check_law("law", samples([float("nan")]), lambda w: {"apart": w}, apart=("apart",))
    assert not report.passed


def test_vector_residuals_are_judged_by_their_largest_entry_and_shown_whole():
    report = check_law("law", [({"pair": [1, 2]}, [0, -3, 1])], checked=4)
    assert report.violations == [{"pair": [1, 2], "residual": [0, -3, 1]}]
    assert report.max_residual == 3
    assert report.checked == 4


def test_no_witnesses_pass_with_zero_checked():
    report = check_law("law", [])
    assert report.passed
    assert (report.checked, report.max_residual) == (0, 0)


def test_samples_label_by_index_and_axiom():
    assert samples("ab") == [({"sample": 0}, "a"), ({"sample": 1}, "b")]
    assert samples("a", "ax") == [({"axiom": "ax", "sample": 0}, "a")]


def test_nan_coordinate_after_the_first_fails_the_law(heisenberg):
    x = heisenberg.element([1.0, NAN, 0.0], "float")
    y = heisenberg.element([1.0, 2.0, 0.0], "float")
    report = check_law("law", samples([(x, y)]), lambda w: w[0].distance(w[1]), tol=1e-9)
    assert not report.passed
    assert math.isnan(report.max_residual)


def test_vector_residual_with_a_later_nan_fails():
    report = check_law("law", [({}, [0.0, NAN, 1.0])], tol=1e-9)
    assert not report.passed
    assert math.isnan(report.max_residual)


def _nan_pairs(alg):
    """(point, point with a NaN after the first coordinate) for every distance."""
    floats = [float(k) for k in range(alg.dim)]
    spoiled = floats[:1] + [NAN] + floats[2:]
    ident = [[float(i == j) for j in range(alg.dim)] for i in range(alg.dim)]
    bad = [row[:] for row in ident]
    bad[1][0] = NAN
    x, y = alg.element(floats, "float"), alg.element(spoiled, "float")
    a, b = Endomorphism(alg, ident, "float"), Endomorphism(alg, bad, "float")
    return {
        "element": (x, y),
        "covector": (Covector(alg, floats, "float"), Covector(alg, spoiled, "float")),
        "endomorphism": (a, b),
        "pair": (PairElement(floats, ident), PairElement(floats, bad)),
        "poly": (
            PolyObservable(2, {(0, 1): 1.0, (1, 0): 2.0}),
            PolyObservable(2, {(0, 1): 3.0, (1, 0): NAN}),
        ),
        # the NaN in the vector of an embedded point (x, exp ad_x)
        "rh": (rh_embed(x), PairElement(y.coords, rh_embed(x).matrix)),
    }


@pytest.mark.parametrize("kind", ["element", "covector", "endomorphism", "pair", "poly", "rh"])
def test_every_distance_keeps_a_later_nan(heisenberg, kind):
    p, q = _nan_pairs(heisenberg)[kind]
    assert math.isnan(p.distance(q))
    assert math.isnan(q.distance(p))


def _shared_nan_pairs(alg):
    """Two equal-looking float points of each kind that hold one NaN object."""
    coords = [NAN] + [float(k) for k in range(1, alg.dim)]
    ident = [[float(i == j) for j in range(alg.dim)] for i in range(alg.dim)]
    poly = {(1, 0, 0): NAN, (0, 1, 0): 2.0}
    return {
        "element": (alg.element(coords, "float"), alg.element(coords, "float")),
        "covector": (Covector(alg, coords, "float"), Covector(alg, coords, "float")),
        "pair": (PairElement(coords, ident), PairElement(coords, ident)),
        "poly": (PolyObservable(3, poly), PolyObservable(3, poly)),
    }


@pytest.mark.parametrize("kind", ["element", "covector", "pair", "poly"])
def test_a_shared_nan_object_still_gives_a_nan_distance(heisenberg, kind):
    # the containers compare equal, identity first, yet the distance is NaN
    # and the check fails: no equality shortcut may apply to floats
    p, q = _shared_nan_pairs(heisenberg)[kind]
    assert (p.terms == q.terms) if kind == "poly" else (p == q)
    assert math.isnan(p.distance(q))
    report = check_law("law", samples([q]), p.distance, tol=1e-9)
    assert not report.passed and math.isnan(report.max_residual)


def test_equal_exact_points_give_the_subtracted_zero(heisenberg):
    # Fraction(0) where the entries are Fractions, the int 0 on empty points,
    # int entries and observables: what subtracting gives
    x = heisenberg.element([Fraction(1, 2), 0, -3])
    xi = Covector(heisenberg, x.coords)
    mat = rh_embed(x).matrix
    point = LeibnizAlgebra(())
    cases = [
        (x.distance(heisenberg.element(x.coords)), Fraction),
        (xi.distance(Covector(heisenberg, x.coords)), Fraction),
        (PairElement(x.coords, mat).distance(PairElement(x.coords, mat)), Fraction),
        # int entries are subtracted, as before: int 0
        (PairElement([1, 2], [[1, 0], [0, 1]]).distance(PairElement([1, 2], [[1, 0], [0, 1]])),
         int),
        (point.zero().distance(point.zero()), int),
        (Covector(point, []).distance(Covector(point, [])), int),
        (PairElement([], []).distance(PairElement([], [])), int),
        (PolyObservable(3, {(1, 0, 0): Fraction(1, 3)}).distance(
            PolyObservable(3, {(1, 0, 0): Fraction(1, 3)})), int),
        (PolyObservable.zero(3).distance(PolyObservable.zero(3)), int),
    ]
    for got, kind in cases:
        assert got == 0 and type(got) is kind


def test_a_poly_distance_still_checks_the_variable_count():
    with pytest.raises(ValueError, match="different dimensions"):
        PolyObservable.zero(2).distance(PolyObservable.zero(3))
