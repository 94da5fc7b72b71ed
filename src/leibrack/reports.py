"""Check reports, and the one loop that judges a law on its witnesses.

Every identity leibrack checks, from the rack axioms to the Hessian, is a
call to ``check_law``: a list of witnesses, a residual per witness, and a
tolerance.  A witness passes iff its residual r satisfies ``r <= tol``, so
a NaN residual fails.

A ``CheckReport`` is a plain mutable record of four attributes set in
``__init__``: not a value type, so it compares and hashes by identity.
"""

from .linalg import max_abs


class CheckReport:
    """Outcome of one sampled or exhaustive property check."""

    def __init__(self, name, checked, violations, max_residual):
        self.name = name
        self.checked = checked
        self.violations = violations
        self.max_residual = max_residual

    @property
    def passed(self):
        return not self.violations


def samples(items, axiom=None):
    """Witnesses labelled by their index, ``({"sample": i}, item)``.

    With ``axiom`` every label also names the axiom the items test.
    """
    named = {"axiom": axiom} if axiom else {}
    return [({**named, "sample": i}, item) for i, item in enumerate(items)]


def check_law(name, witnesses, residual=None, tol=0, checked=None, apart=(), start=0):
    """Judge one law on every witness and return its CheckReport.

    ``witnesses`` yields ``(where, w)`` pairs.  ``where`` is the dict that
    names w in a violation (``{"sample": 3}``, ``{"pair": [1, 2]}``, ``{}``)
    and ``residual(w)`` is its residual; with no ``residual``, w is its own
    (a kernel's defect list).  A witness that tests several axioms returns
    a dict ``{axiom: residual}``, judged in order; a None entry is skipped.
    A vector residual (list or tuple) is judged by its largest absolute
    entry and shown whole.

    A violation is ``where`` plus ``"residual"`` (and ``"axiom"`` from a
    dict).  ``max_residual`` folds every judged residual from ``start``,
    keeping the first largest value, so all-0.0 float residuals report the
    int 0 by default; a NaN, once met, stays.  The axioms named in ``apart``
    say that two points stay apart: they fail iff ``r > tol`` does not
    hold, and their r is left out of ``max_residual``.  ``checked``
    defaults to the number of witnesses.
    """
    violations = []
    worst = start
    count = 0
    for where, w in witnesses:
        count += 1
        found = w if residual is None else residual(w)
        for axiom, r in found.items() if isinstance(found, dict) else [(None, found)]:
            if r is None:
                continue
            shown = r
            if isinstance(r, (list, tuple)):
                r = max_abs(r)
            if axiom in apart:
                failed = not r > tol
            else:
                failed = not r <= tol
                if r > worst or (r != r and worst == worst):
                    worst = r
            if failed:
                named = {"axiom": axiom} if axiom else {}
                violations.append({**named, **where, "residual": shown})
    return CheckReport(name, count if checked is None else checked, violations, worst)
