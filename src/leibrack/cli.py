"""Command-line front end.

    leibrack <command> <algebra.json> [flags]

Commands: validate, analyze, rack, bch, cocycle, quantize (alias
quantize-check), hessian, tangent.  Every command prints one line per check
and, with --json OUT, writes a deterministic JSON report (same input and
seed give byte-identical bytes).  Exit codes: 0 all checks pass, 1 at least
one check failed, 2 usage or parse error.

Vector-valued flags take comma-separated exact fractions, e.g. --xi 1,1/2,-3.
"""

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .algebra import derivation_algebra, left_center
from .bch import MAX_ORDER, bch, conj_star, verify_conj_identity
from .cocycle import SERIES_SIGN, rack_cocycle_exact, rack_cocycle_series
from .extension import (
    build_extension,
    cocycle_identity_violations,
    projection_morphism_violations,
    reconstruction_violations,
)
from .io import InterchangeError, load_algebra, scalar_repr
from .linalg import EXACT, FLOAT
from .observables import Covector, PolyObservable
from .quantize import (
    LabelRack,
    action_left_action_violations,
    hessian_check,
    label_action_compatibility_violations,
    poisson_bracket,
    right_leibniz_violations,
    semiclassical_leading_terms,
)
from .racks import (
    DEFAULT_FLOAT_ORDER,
    DEFAULT_FLOAT_TOL,
    BassRack,
    check_rack_axioms,
    coadjoint_action_violations,
    conjugation_lemma_violations,
    pair_rack_closure_violations,
)
from .reports import CheckReport
from .sampling import (
    rational_vector,
    sample_elements,
    sample_observables,
    sample_triples,
)
from .tangent import max_table_error, tangent_recover

FLOAT_SCALE = Fraction(1, 3)   # float-mode samples stay inside the unit box
BCH_FLOAT_SCALE = Fraction(1, 12)  # quarter box, where order-8 truncation is sharp


class UsageError(Exception):
    """Bad flags or preconditions; maps to exit code 2."""


def parse_fraction_csv(text, expected_len, flag):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected_len:
        raise UsageError(f"{flag}: expected {expected_len} comma-separated fractions")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"{flag}: {err}") from None


def serialize_violation(violation):
    out = {}
    for key, value in violation.items():
        if key == "residual":
            out[key] = (
                [scalar_repr(v) for v in value]
                if isinstance(value, (list, tuple))
                else scalar_repr(value)
            )
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def serialize_check(report, status=None):
    return {
        "name": report.name,
        "status": status or ("pass" if report.passed else "fail"),
        "checked": report.checked,
        "residual": scalar_repr(report.max_residual),
        "violations": [serialize_violation(v) for v in report.violations],
        "details": report.details,
    }


def vector_repr(coords):
    return [scalar_repr(c) for c in coords]


def emit(command, algebra, checks, config, seed, json_path, extra_details=None):
    doc = {
        "command": command,
        "algebra_name": algebra.name or "(unnamed)",
        "dim": algebra.dim,
        "seed": seed,
        "config": config,
        "checks": checks,
        "details": extra_details or {},
        "status": "pass" if all(c["status"] != "fail" for c in checks) else "fail",
        "versions": {"leibrack": __version__},
    }
    for check in checks:
        residual = check.get("residual", "0")
        print(f"{check['name']}: {check['status']} "
              f"({check['checked']} checked, max residual {residual})")
    print(f"overall: {doc['status']}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if doc["status"] == "pass" else 1


EXACT_ONLY = ("cocycle", "hessian")


def check_args(command, args):
    """Reject flag values that would fail obscurely or pass vacuously."""
    if args.samples <= 0:
        raise UsageError(f"--samples must be positive, got {args.samples}")
    if command in EXACT_ONLY and args.mode == FLOAT:
        raise UsageError(f"{command} is exact-only; drop --mode float")
    float_exp = command == "tangent" or (command in ("rack", "quantize") and args.mode == FLOAT)
    if float_exp and args.order <= 0:
        raise UsageError(f"--order must be positive for the float exponential, got {args.order}")
    if command == "tangent" and not (math.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be a positive finite number, got {args.step}")
    if command == "tangent" and not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a positive finite number, got {args.tol}")


def require_nilpotent(algebra, mode, what):
    if mode == EXACT and not algebra.is_nilpotent():
        raise UsageError(
            f"{what} in exact mode needs a nilpotent algebra; rerun with --mode float"
        )


def sample_scale(mode, for_bch=False):
    if mode == FLOAT:
        return BCH_FLOAT_SCALE if for_bch else FLOAT_SCALE
    return Fraction(1)


# -- commands -------------------------------------------------------------------


def cmd_validate(algebra, args):
    violations = [
        {"triple": [i + 1, j + 1, k + 1], "residual": residual}
        for (i, j, k), residual in algebra.leibniz_violations()
    ]
    report = CheckReport(
        name="leibniz-identity",
        checked=algebra.dim ** 3,
        violations=violations,
        max_residual=max(
            (abs(x) for v in violations for x in v["residual"]), default=Fraction(0)
        ),
    )
    details = {
        "dim": algebra.dim,
        "basis": list(algebra.basis),
        "is_lie": algebra.is_lie(),
        "nilpotency_class": algebra.nilpotency_class(),
    }
    return [serialize_check(report)], details


def cmd_analyze(algebra, args):
    if not algebra.is_leibniz():
        raise UsageError("analyze needs a Leibniz algebra; run validate first")
    ext = build_extension(algebra)
    ders = derivation_algebra(algebra)
    quotient_entries = [
        {
            "i": a + 1,
            "j": b + 1,
            "value": vector_repr(ext.quotient.table[a][b]),
        }
        for a in range(ext.quotient.dim)
        for b in range(ext.quotient.dim)
        if any(c != 0 for c in ext.quotient.table[a][b])
    ]
    details = {
        "left_center_dim": ext.center.dim,
        "left_center_basis": [vector_repr(row) for row in ext.center.basis_rows],
        "quotient_dim": ext.quotient.dim,
        "quotient_is_lie": ext.quotient.is_lie(),
        "quotient_brackets": quotient_entries,
        "omega_table": [
            [vector_repr(cell) for cell in row] for row in ext.omega_table
        ],
        "omega_convention": "section defect s([x,y]) - [s(x),s(y)]",
        "derivations": {
            "dim_der": ders.dim_der,
            "dim_inner": ders.dim_inner,
            "dim_outer": ders.dim_outer,
        },
    }

    def table_check(name, violations, checked):
        converted = [
            {"pair": [i + 1 for i in idx], "residual": vector_repr(res)}
            for idx, res in violations
        ]
        worst = max(
            (abs(Fraction(x)) for _, res in violations for x in res), default=Fraction(0)
        )
        return serialize_check(
            CheckReport(name=name, checked=checked, violations=converted, max_residual=worst)
        )

    q = ext.quotient.dim
    checks = [
        serialize_check(
            CheckReport(
                name="quotient-is-lie",
                checked=1,
                violations=[] if ext.quotient.is_lie() else [{"residual": Fraction(1)}],
            )
        ),
        table_check("cocycle-identity", cocycle_identity_violations(ext), q ** 3),
        table_check("reconstruction", reconstruction_violations(ext), (q * (ext.center.dim + 1)) ** 2),
        table_check(
            "projection-morphism",
            projection_morphism_violations(ext),
            algebra.dim ** 2,
        ),
    ]
    return checks, details


def cmd_rack(algebra, args):
    mode = args.mode
    require_nilpotent(algebra, mode, "the exponential rack")
    tol = 0 if mode == EXACT else DEFAULT_FLOAT_TOL
    scale = sample_scale(mode)
    rack = BassRack(algebra, mode, args.order)
    triples = sample_triples(algebra, args.samples, args.seed, mode, scale)
    pairs = [(x, y) for x, y, _ in triples]
    zx_pairs = [(z, x) for x, _, z in triples]
    xi_rng = random.Random(args.seed + 1)
    xis = [Covector(algebra, rational_vector(xi_rng, algebra.dim)) for _ in range(len(pairs))]
    if mode == FLOAT:
        xis = [xi.to_float() for xi in xis]
    checks = [
        serialize_check(check_rack_axioms(rack, triples, tol)),
        serialize_check(conjugation_lemma_violations(algebra, zx_pairs, args.order, tol)),
        serialize_check(coadjoint_action_violations(algebra, pairs, xis, args.order, tol)),
        serialize_check(pair_rack_closure_violations(algebra, pairs, args.order, tol)),
    ]
    return checks, {"tolerance": scalar_repr(tol)}


def cmd_bch(algebra, args):
    if not algebra.is_lie():
        raise UsageError("the BCH product needs a Lie algebra")
    mode = args.mode
    order = args.order if args.order is not None else MAX_ORDER
    if not 1 <= order <= MAX_ORDER:
        raise UsageError(f"--order must be between 1 and {MAX_ORDER} for bch")
    require_nilpotent(algebra, mode, "exact BCH comparison")
    tol = 0 if mode == EXACT else 1e-6
    details = {}
    if (args.x is None) != (args.y is None):
        raise UsageError("--x and --y must be given together")
    if args.x is not None:
        coords_x = parse_fraction_csv(args.x, algebra.dim, "--x")
        coords_y = parse_fraction_csv(args.y, algebra.dim, "--y")
        x = algebra.element(coords_x, EXACT)
        y = algebra.element(coords_y, EXACT)
        if mode == FLOAT:
            x, y = x.to_float(), y.to_float()
        pairs = [(x, y)]
        details["bch"] = vector_repr(bch(x, y, order).coords)
        details["conj"] = vector_repr(conj_star(x, y, order).coords)
    else:
        scale = sample_scale(mode, for_bch=True)
        flat = sample_elements(algebra, 2 * args.samples, args.seed, mode, scale)
        pairs = [(flat[2 * t], flat[2 * t + 1]) for t in range(args.samples)]
    report = verify_conj_identity(algebra, pairs, order, tol)
    details["order"] = order
    return [serialize_check(report)], details


def cmd_cocycle(algebra, args):
    if not algebra.is_leibniz():
        raise UsageError("cocycle analysis needs a Leibniz algebra")
    if not algebra.is_nilpotent():
        raise UsageError("the exact rack cocycle needs a nilpotent algebra")
    ext = build_extension(algebra)
    cls = algebra.nilpotency_class()
    order = args.order if args.order is not None else cls
    if order < 1:
        raise UsageError("--order must be at least 1")
    flat = sample_elements(ext.quotient, 2 * args.samples, args.seed)
    pairs = [(flat[2 * t], flat[2 * t + 1]) for t in range(args.samples)]
    mismatch = []
    escaped = []
    worst = Fraction(0)
    for idx, (x, y) in enumerate(pairs):
        exact = rack_cocycle_exact(ext, x, y)
        series = rack_cocycle_series(ext, x, y, order)
        r = exact.distance(series)
        worst = max(worst, r)
        if r != 0:
            mismatch.append({"sample": idx, "residual": r})
        if not ext.center.contains(exact):
            escaped.append({"sample": idx, "residual": Fraction(1)})
    checks = [
        serialize_check(
            CheckReport(
                name="cocycle-series-vs-exact",
                checked=len(pairs),
                violations=mismatch,
                max_residual=worst,
            )
        ),
        serialize_check(
            CheckReport(
                name="cocycle-in-center", checked=len(pairs), violations=escaped
            )
        ),
    ]
    details = {
        "order": order,
        "nilpotency_class": cls,
        "series_sign": SERIES_SIGN,
        "omega_convention": "section defect s([x,y]) - [s(x),s(y)]",
    }
    return checks, details


def cmd_quantize(algebra, args):
    mode = args.mode
    require_nilpotent(algebra, mode, "the exponential-label rack")
    tol = 0 if mode == EXACT else DEFAULT_FLOAT_TOL
    scale = sample_scale(mode)
    label_rack = LabelRack(algebra, mode, args.order)
    labels = label_rack.sample(3 * args.samples, args.seed, scale)
    label_triples = [tuple(labels[3 * t : 3 * t + 3]) for t in range(args.samples)]
    element_triples = sample_triples(algebra, args.samples, args.seed, mode, scale)
    pairs = [(x, y) for x, y, _ in element_triples]
    observables = sample_observables(algebra, args.samples, args.seed + 2)
    triples_obs = list(
        zip(
            observables,
            sample_observables(algebra, args.samples, args.seed + 3),
            sample_observables(algebra, args.samples, args.seed + 4),
        )
    )
    checks = [
        serialize_check(check_rack_axioms(label_rack, label_triples, tol)),
        serialize_check(label_action_compatibility_violations(algebra, pairs, args.order, tol)),
        serialize_check(
            action_left_action_violations(algebra, pairs, observables, args.order, tol)
        ),
        serialize_check(right_leibniz_violations(algebra, triples_obs)),
        serialize_check(_linear_observable_check(algebra, pairs_exact(algebra, args))),
        serialize_check(_order0_associativity_check(algebra, triples_obs)),
    ]
    if algebra.is_lie() and algebra.is_nilpotent():
        checks.append(serialize_check(_gutt_match_check(algebra, args)))
    else:
        checks.append(
            serialize_check(
                CheckReport(name="gutt-vs-quantum", checked=0),
                status="skipped",
            )
        )
    return checks, {"tolerance": scalar_repr(tol)}


def pairs_exact(algebra, args):
    flat = sample_elements(algebra, 2 * args.samples, args.seed + 5)
    return [(flat[2 * t], flat[2 * t + 1]) for t in range(args.samples)]


def _linear_observable_check(algebra, pairs):
    violations = []
    for idx, (a, b) in enumerate(pairs):
        lhs = poisson_bracket(
            algebra, PolyObservable.from_element(a), PolyObservable.from_element(b)
        )
        rhs = PolyObservable.from_element(algebra.bracket(a, b))
        diff = lhs - rhs
        if diff.terms:
            violations.append(
                {"sample": idx, "residual": max(abs(c) for c in diff.terms.values())}
            )
    return CheckReport(
        name="linear-observable-bracket",
        checked=len(pairs),
        violations=violations,
        max_residual=max((v["residual"] for v in violations), default=0),
    )


def _order0_associativity_check(algebra, triples):
    violations = []
    for idx, (f, g, h) in enumerate(triples):
        left = semiclassical_leading_terms(
            algebra, semiclassical_leading_terms(algebra, f, g)[0], h
        )[0]
        right = semiclassical_leading_terms(
            algebra, f, semiclassical_leading_terms(algebra, g, h)[0]
        )[0]
        diff = left - right
        if diff.terms:
            violations.append(
                {"sample": idx, "residual": max(abs(c) for c in diff.terms.values())}
            )
    return CheckReport(
        name="order0-associativity",
        checked=len(triples),
        violations=violations,
        max_residual=max((v["residual"] for v in violations), default=0),
    )


def _gutt_match_check(algebra, args):
    from .quantize import ExpLabel, gutt_rack_label, quantum_rack_label

    flat = sample_elements(algebra, 2 * args.samples, args.seed + 6)
    violations = []
    worst = Fraction(0)
    for t in range(args.samples):
        a, b = ExpLabel(flat[2 * t]), ExpLabel(flat[2 * t + 1])
        got = gutt_rack_label(a, b)
        want = quantum_rack_label(a, b)
        r = got.distance(want)
        worst = max(worst, r)
        if r != 0:
            violations.append({"sample": t, "residual": r})
    return CheckReport(
        name="gutt-vs-quantum", checked=args.samples, violations=violations, max_residual=worst
    )


def cmd_hessian(algebra, args):
    if args.xi is not None:
        xi_list = [parse_fraction_csv(args.xi, algebra.dim, "--xi")]
    else:
        rng = random.Random(args.seed)
        xi_list = [rational_vector(rng, algebra.dim) for _ in range(args.samples)]
    violations = []
    results = []
    for idx, coords in enumerate(xi_list):
        report = hessian_check(algebra, Covector(algebra, coords))
        results.append(
            {
                "xi": vector_repr(coords),
                "det": scalar_repr(report.determinant),
                "signature": report.signature,
                "inertia": list(report.inertia),
            }
        )
        if report.determinant != 1 or report.signature != 0:
            violations.append({"sample": idx, "residual": abs(report.determinant - 1)})
    check = CheckReport(
        name="hessian-extremum",
        checked=len(xi_list),
        violations=violations,
        max_residual=max((v["residual"] for v in violations), default=Fraction(0)),
    )
    return [serialize_check(check)], {"instances": results}


def cmd_tangent(algebra, args):
    rack = BassRack(algebra, FLOAT, args.order)

    def product(xc, yc):
        return list(
            rack.product(algebra.element(xc, FLOAT), algebra.element(yc, FLOAT)).coords
        )

    table = tangent_recover(product, algebra.dim, args.step)
    err = max_table_error(table, algebra)
    check = CheckReport(
        name="tangent-recovery",
        checked=algebra.dim ** 2,
        violations=[] if err < args.tol else [{"residual": err}],
        max_residual=err,
    )
    return [serialize_check(check)], {"step": args.step, "tolerance": args.tol}


HANDLERS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "rack": cmd_rack,
    "bch": cmd_bch,
    "cocycle": cmd_cocycle,
    "quantize": cmd_quantize,
    "hessian": cmd_hessian,
    "tangent": cmd_tangent,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibrack",
        description="Exact verification suites for Leibniz algebras and their racks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, aliases=()):
        p = sub.add_parser(name, help=help_text, aliases=list(aliases))
        p.add_argument("algebra", help="path to an algebra JSON file")
        p.add_argument("--json", dest="json_out", metavar="OUT", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
        p.add_argument("--samples", type=int, default=50, help="sample count (default 50)")
        p.add_argument(
            "--mode", choices=(EXACT, FLOAT), default=EXACT, help="scalar mode (default exact)"
        )
        return p

    add("validate", "check the Leibniz identity and report basic structure")
    add("analyze", "left center, derivations, quotient, and extension cocycle")
    rack = add("rack", "rack axioms, conjugation lemma, coadjoint action")
    rack.add_argument("--order", type=int, default=DEFAULT_FLOAT_ORDER,
                      help="float exponential truncation order (default 12)")
    bch_p = add("bch", "BCH product and the conj identity against exp(ad)")
    bch_p.add_argument("--order", type=int, default=None, help="BCH truncation order (1..8)")
    bch_p.add_argument("--x", help="first element, comma-separated fractions")
    bch_p.add_argument("--y", help="second element, comma-separated fractions")
    coc = add("cocycle", "rack cocycle: exact defect versus its series form")
    coc.add_argument("--order", type=int, default=None,
                     help="series truncation order (default: nilpotency class)")
    quant = add("quantize", "label rack, observable action, Poisson bracket laws",
                aliases=("quantize-check",))
    quant.add_argument("--order", type=int, default=DEFAULT_FLOAT_ORDER,
                       help="float exponential truncation order (default 12)")
    hess = add("hessian", "exact determinant and signature of the extremum Hessian")
    hess.add_argument("--xi", help="dual point, comma-separated fractions")
    hess.set_defaults(samples=20)
    tang = add("tangent", "recover structure constants from the float rack")
    tang.add_argument("--step", type=float, default=1e-3, help="difference step (default 1e-3)")
    tang.add_argument("--order", type=int, default=DEFAULT_FLOAT_ORDER,
                      help="float exponential truncation order (default 12)")
    tang.add_argument("--tol", type=float, default=1e-5,
                      help="acceptance threshold on the max error (default 1e-5)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = "quantize" if args.command == "quantize-check" else args.command
    try:
        algebra = load_algebra(args.algebra)
    except (InterchangeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        check_args(command, args)
        checks, details = HANDLERS[command](algebra, args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    config = {
        key: getattr(args, key)
        for key in ("mode", "order", "samples", "seed", "step", "tol", "x", "y", "xi")
        if hasattr(args, key) and getattr(args, key) is not None
    }
    return emit(command, algebra, checks, config, args.seed, args.json_out, details)


if __name__ == "__main__":
    sys.exit(main())
