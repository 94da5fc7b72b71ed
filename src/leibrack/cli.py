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
from functools import partial

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
    action_left_action_violations,
    hessian_check,
    label_action_compatibility_violations,
    poisson_bracket,
    right_leibniz_violations,
)
from .racks import (
    DEFAULT_FLOAT_ORDER,
    DEFAULT_FLOAT_TOL,
    bass_product,
    check_rack_axioms,
    coadjoint_action_violations,
    conjugation_lemma_violations,
    pair_rack_closure_violations,
)
from .reports import check_law, samples
from .sampling import (
    rational_vector,
    sample_observables,
    sample_pairs,
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
    residual = violation["residual"]
    if isinstance(residual, (list, tuple)):
        return {**violation, "residual": [scalar_repr(v) for v in residual]}
    return {**violation, "residual": scalar_repr(residual)}


def serialize_check(report, status=None):
    return {
        "name": report.name,
        "status": status or ("pass" if report.passed else "fail"),
        "checked": report.checked,
        "residual": scalar_repr(report.max_residual),
        "violations": [serialize_violation(v) for v in report.violations],
        "details": {},
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


EXACT_ONLY = ("validate", "analyze", "cocycle", "hessian")


def check_args(command, args, algebra):
    """Reject flag values and tables that would fail obscurely or pass vacuously."""
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
    if float_exp or (command == "bch" and args.mode == FLOAT):
        require_float_table(algebra)


def require_float(value, what):
    """Reject an exact number that has no float value (beyond about 1.8e308)."""
    try:
        float(value)
    except OverflowError:
        raise UsageError(f"float mode: {what} is too large for a float") from None


def require_float_table(algebra):
    names = algebra.basis
    for i, plane in enumerate(algebra.sparse):
        for j, row in plane:
            for k, c in row:
                require_float(
                    c,
                    f"the coefficient of {names[k]} in [{names[i]}, {names[j]}] "
                    f"(bracket i={i + 1}, j={j + 1})",
                )


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


def basis_defects(defects, key):
    """A kernel's ``((i, j, ...), defect)`` list as witnesses named by 1-based indices."""
    return [({key: [i + 1 for i in idx]}, defect) for idx, defect in defects]


def cmd_validate(algebra, args):
    defects = basis_defects(algebra.leibniz_violations(), "triple")
    report = check_law("leibniz-identity", defects, checked=algebra.dim ** 3)
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

    q = ext.quotient.dim
    tables = [
        ("cocycle-identity", cocycle_identity_violations(ext), q ** 3),
        ("reconstruction", reconstruction_violations(ext), (q * (ext.center.dim + 1)) ** 2),
        ("projection-morphism", projection_morphism_violations(ext), algebra.dim ** 2),
    ]
    checks = [check_law("quotient-is-lie", [({}, int(not ext.quotient.is_lie()))])]
    checks += [
        check_law(name, basis_defects(found, "pair"), checked=count)
        for name, found, count in tables
    ]
    return [serialize_check(check) for check in checks], details


def cmd_rack(algebra, args):
    mode = args.mode
    require_nilpotent(algebra, mode, "the exponential rack")
    tol = 0 if mode == EXACT else DEFAULT_FLOAT_TOL
    scale = sample_scale(mode)
    product = partial(bass_product, order=args.order)
    triples = sample_triples(algebra, args.samples, args.seed, mode, scale)
    pairs = [(x, y) for x, y, _ in triples]
    zx_pairs = [(z, x) for x, _, z in triples]
    xi_rng = random.Random(args.seed + 1)
    xis = [Covector(algebra, rational_vector(xi_rng, algebra.dim)) for _ in range(len(pairs))]
    if mode == FLOAT:
        xis = [xi.to_float() for xi in xis]
    checks = [
        serialize_check(check_rack_axioms(product, algebra.zero(mode), triples, tol)),
        serialize_check(conjugation_lemma_violations(zx_pairs, args.order, tol)),
        serialize_check(coadjoint_action_violations(pairs, xis, args.order, tol)),
        serialize_check(pair_rack_closure_violations(pairs, args.order, tol)),
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
            for flag, coords in (("--x", coords_x), ("--y", coords_y)):
                for k, c in enumerate(coords):
                    require_float(c, f"{flag} coordinate {k + 1}")
            x, y = x.to_float(), y.to_float()
        pairs = [(x, y)]
        details["bch"] = vector_repr(bch(x, y, order).coords)
        details["conj"] = vector_repr(conj_star(x, y, order).coords)
    else:
        scale = sample_scale(mode, for_bch=True)
        pairs = sample_pairs(algebra, args.samples, args.seed, mode, scale)
    report = verify_conj_identity(pairs, order, tol)
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
    pairs = sample_pairs(ext.quotient, args.samples, args.seed)
    exact = samples((x, y, rack_cocycle_exact(ext, x, y)) for x, y in pairs)

    def series_gap(w):
        x, y, value = w
        return value.distance(rack_cocycle_series(ext, x, y, order))

    checks = [
        check_law("cocycle-series-vs-exact", exact, series_gap),
        check_law("cocycle-in-center", exact, lambda w: int(not ext.center.contains(w[2]))),
    ]
    details = {
        "order": order,
        "nilpotency_class": cls,
        "series_sign": SERIES_SIGN,
        "omega_convention": "section defect s([x,y]) - [s(x),s(y)]",
    }
    return [serialize_check(check) for check in checks], details


def cmd_quantize(algebra, args):
    mode = args.mode
    require_nilpotent(algebra, mode, "the exponential-label rack")
    tol = 0 if mode == EXACT else DEFAULT_FLOAT_TOL
    scale = sample_scale(mode)
    product = partial(bass_product, order=args.order)
    triples = sample_triples(algebra, args.samples, args.seed, mode, scale)
    pairs = [(x, y) for x, y, _ in triples]
    observables = sample_observables(algebra, args.samples, args.seed + 2)
    triples_obs = list(
        zip(
            observables,
            sample_observables(algebra, args.samples, args.seed + 3),
            sample_observables(algebra, args.samples, args.seed + 4),
        )
    )
    linear_pairs = sample_pairs(algebra, args.samples, args.seed + 5)
    checks = [
        serialize_check(check_rack_axioms(product, algebra.zero(mode), triples, tol)),
        serialize_check(label_action_compatibility_violations(pairs, args.order, tol)),
        serialize_check(action_left_action_violations(pairs, observables, args.order, tol)),
        serialize_check(right_leibniz_violations(algebra, triples_obs)),
        serialize_check(_linear_observable_check(algebra, linear_pairs)),
        serialize_check(_order0_associativity_check(algebra, triples_obs)),
    ]
    if algebra.is_lie() and algebra.is_nilpotent():
        checks.append(serialize_check(_gutt_match_check(algebra, args)))
    else:
        checks.append(serialize_check(check_law("gutt-vs-quantum", []), status="skipped"))
    return checks, {"tolerance": scalar_repr(tol)}


def _linear_observable_check(algebra, pairs):
    def residual(pair):
        a, b = (PolyObservable.from_element(x) for x in pair)
        return poisson_bracket(algebra, a, b).distance(
            PolyObservable.from_element(algebra.bracket(*pair))
        )

    return check_law("linear-observable-bracket", samples(pairs), residual)


def _order0_associativity_check(algebra, triples):
    origin = [Fraction(0)] * algebra.dim

    def product(f, g):
        """The order-0 term f(0) g of the stationary-phase product."""
        return f.evaluate(origin) * g

    def residual(triple):
        f, g, h = triple
        return product(product(f, g), h).distance(product(f, product(g, h)))

    return check_law("order0-associativity", samples(triples), residual)


def _gutt_match_check(algebra, args):
    pairs = sample_pairs(algebra, args.samples, args.seed + 6)
    return check_law(
        "gutt-vs-quantum",
        samples(pairs),
        lambda pair: conj_star(*pair).distance(bass_product(*pair)),
    )


def cmd_hessian(algebra, args):
    if args.xi is not None:
        xi_list = [parse_fraction_csv(args.xi, algebra.dim, "--xi")]
    else:
        rng = random.Random(args.seed)
        xi_list = [rational_vector(rng, algebra.dim) for _ in range(args.samples)]
    results = []

    def residual(coords):
        """Distance of (det, signature) from (1, 0); records the instance."""
        report = hessian_check(algebra, Covector(algebra, coords))
        results.append(
            {
                "xi": vector_repr(coords),
                "det": scalar_repr(report.determinant),
                "signature": report.signature,
                "inertia": list(report.inertia),
            }
        )
        return max(abs(report.determinant - 1), abs(report.signature))

    check = check_law("hessian-extremum", samples(xi_list), residual)
    return [serialize_check(check)], {"instances": results}


def cmd_tangent(algebra, args):
    def product(xc, yc):
        x, y = algebra.element(xc, FLOAT), algebra.element(yc, FLOAT)
        return list(bass_product(x, y, args.order).coords)

    table = tangent_recover(product, algebra.dim, args.step)
    err = max_table_error(table, algebra)
    check = check_law(
        "tangent-recovery", [({}, err)], tol=args.tol, checked=algebra.dim ** 2, start=0.0
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

    def add(name, help_text, aliases=(), samples=50, order=None):
        """A subcommand; ``order`` is (default, help) for an --order flag, or None."""
        p = sub.add_parser(name, help=help_text, aliases=list(aliases))
        p.add_argument("algebra", help="path to an algebra JSON file")
        p.add_argument("--json", dest="json_out", metavar="OUT", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
        p.add_argument("--samples", type=int, default=samples,
                       help=f"sample count (default {samples})")
        mode_help = "scalar mode (default exact)"
        if name in EXACT_ONLY:
            mode_help = f"{name} is exact-only: --mode float exits 2 (default exact)"
        p.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT, help=mode_help)
        if order is not None:
            default, text = order
            if default is not None:
                text = f"{text} (default {default})"
            p.add_argument("--order", type=int, default=default, help=text)
        return p

    float_order = (DEFAULT_FLOAT_ORDER, "float exponential truncation order")
    add("validate", "check the Leibniz identity and report basic structure")
    add("analyze", "left center, derivations, quotient, and extension cocycle")
    add("rack", "rack axioms, conjugation lemma, coadjoint action", order=float_order)
    bch_p = add("bch", "BCH product and the conj identity against exp(ad)",
                order=(None, f"BCH truncation order, 1..{MAX_ORDER} (default {MAX_ORDER})"))
    bch_p.add_argument("--x", help="first element, comma-separated fractions")
    bch_p.add_argument("--y", help="second element, comma-separated fractions")
    add("cocycle", "rack cocycle: exact defect versus its series form",
        order=(None, "series truncation order (default: nilpotency class)"))
    add("quantize", "label rack, observable action, Poisson bracket laws",
        aliases=("quantize-check",), order=float_order)
    hess = add("hessian", "exact determinant and signature of the extremum Hessian", samples=20)
    hess.add_argument("--xi", help="dual point, comma-separated fractions")
    tang = add("tangent", "recover structure constants from the float rack", order=float_order)
    tang.add_argument("--step", type=float, default=1e-3, help="difference step (default 1e-3)")
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
        check_args(command, args, algebra)
        checks, details = HANDLERS[command](algebra, args)
    except (UsageError, ValueError) as err:
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
