"""Covectors and polynomial observables on the dual of an algebra.

A covector is a point xi of the dual space in the dual basis.  An observable
is a polynomial function of the dual coordinates xi_1 .. xi_n, kept as a
sparse map from exponent tuples to coefficients; exact rationals unless the
caller feeds floats.

The public ``PolyObservable`` constructor is the only place that validates
terms: every key must be a tuple of ``nvars`` non-negative ints.  Every
operator builds a plain dict and hands it to one private normaliser,
``_normalised``, which sorts the keys and drops zero coefficients; results of
operators are never re-validated.  ``substitute_linear`` expands each
monomial factor by factor in one working dict, on keys packed into ints,
adds the expansions into one result dict, and builds one observable at the
end, unpacking its keys to tuples once.  Given int forms over one
denominator, as the exact ``quantize.quantum_rack_action`` passes them, it
runs that expansion on ints and makes one Fraction per result key.

Both are value types on ``algebra.Value``: read-only fields over slots,
equality by class and fields (a covector's algebra by table), a hash
without the algebra, and ``copy``/``pickle`` support.  A covector coerces
its coordinates as ``Element`` does.
"""

from fractions import Fraction
from operator import add
from struct import Struct

from .algebra import Value, _coerce, join_elements, read_only
from .linalg import EXACT, check_mode, gap, int_vector, max_abs, vec_dot

SLOTS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))  # a packed key's slot bytes, struct code


class Covector(Value):
    """A dual-space point: coordinates against the dual basis."""

    __slots__ = _fields = ("_coords", "_mode", "_algebra")
    coords, mode, algebra = map(read_only, _fields)

    def __init__(self, algebra, coords, mode=EXACT):
        check_mode(mode)
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        self._algebra = algebra
        self._coords = _coerce(coords, mode)
        self._mode = mode

    def __repr__(self):
        return f"Covector({list(self.coords)!r})"

    def pair(self, element):
        """Natural pairing <xi, x> in dual coordinates."""
        join_elements(self, element)
        return vec_dot(self.coords, element.coords)

    def distance(self, other):
        join_elements(self, other)
        return gap(self.coords, other.coords, self.mode == EXACT)

    def to_float(self):
        return Covector(self.algebra, [float(c) for c in self.coords], "float")


def _normalised(terms):
    """``terms`` with its keys sorted and its zero coefficients dropped."""
    return {k: terms[k] for k in sorted(terms) if terms[k] != 0}


def _unit(n, i):
    """The exponent tuple of xi_{i+1}."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


class PolyObservable(Value):
    """Sparse polynomial in the dual coordinates.

    ``terms`` maps exponent tuples to nonzero coefficients, in sorted key
    order; the zero polynomial has no terms.  ``terms`` is a dict, so the
    hash is written out over its items.
    """

    __slots__ = _fields = ("_nvars", "_terms")
    nvars, terms = map(read_only, _fields)

    def __init__(self, nvars, terms=None):
        terms = terms or {}
        for exponents in terms:
            if len(exponents) != nvars:
                raise ValueError("exponent tuple length does not match variable count")
            if not all(type(e) is int and e >= 0 for e in exponents):
                raise ValueError(f"exponents must be non-negative ints, got {exponents!r}")
        self._nvars = nvars
        self._terms = _normalised({tuple(k): v for k, v in terms.items()})

    @classmethod
    def _from_terms(cls, nvars, terms):
        """An observable from a dict of valid keys, without validation."""
        poly = object.__new__(cls)
        poly._nvars = nvars
        poly._terms = _normalised(terms)
        return poly

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls._from_terms(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls._from_terms(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def coordinate(cls, nvars, i):
        """The observable xi_{i+1}."""
        return cls._from_terms(nvars, {_unit(nvars, i): Fraction(1)})

    @classmethod
    def from_element(cls, element):
        """The linear observable xi -> <xi, x>."""
        n = element.algebra.dim
        return cls._from_terms(n, {_unit(n, i): c for i, c in enumerate(element.coords)})

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        self._match(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return PolyObservable._from_terms(self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def distance(self, other):
        """Largest absolute coefficient of self - other: 0, unsubtracted, if equal and exact."""
        self._match(other)
        if self.terms == other.terms and not any(type(c) is float for c in self.terms.values()):
            return 0  # a float, even a shared NaN, is subtracted (``linalg.gap``)
        return max_abs((self - other).terms.values())

    def __neg__(self):
        return PolyObservable._from_terms(self.nvars, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, coeff):
        return PolyObservable._from_terms(
            self.nvars, {k: coeff * v for k, v in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, PolyObservable):
            return NotImplemented
        self._match(other)
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(map(add, ka, kb))
                terms[key] = terms.get(key, 0) + va * vb
        return PolyObservable._from_terms(self.nvars, terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.terms.items():
            mono = "*".join(
                f"xi{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def _match(self, other):
        if self.nvars != other.nvars:
            raise ValueError("observables live on duals of different dimensions")

    # -- calculus --------------------------------------------------------------

    def evaluate(self, point):
        coords = point.coords if isinstance(point, Covector) else point
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(coords, exps):
                for _ in range(e):
                    value = value * x
            total = total + value
        return total

    def partial(self, i):
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i]:
                terms[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = coeff * exps[i]
        return PolyObservable._from_terms(self.nvars, terms)

    def gradient_at_zero(self):
        """The differential at the origin, as element coordinates."""
        return [self.terms.get(_unit(self.nvars, i), Fraction(0)) for i in range(self.nvars)]

    def substitute_linear(self, forms, den=None):
        """Substitute xi_i -> sum_j forms[i][j] xi_j (a linear change of point).

        ``forms[i]`` lists the ``nvars`` coefficients of the linear form
        replacing the i-th coordinate.  Float results are bit-for-bit those
        of multiplying each monomial out one linear factor at a time: each
        partial product walks its keys in sorted order and drops exact zeros
        before the next factor, and no sum goes through ``sum()``.  A key is
        one int, xi_{j+1}'s exponent in the slot at byte (n-1-j)·size, slots
        as wide as the largest degree needs: int order is tuple order, so
        every sum keeps its order, and a bump is one int add.

        With ``den`` the forms are int numerators over the int ``den`` and
        every coefficient is exact.  The expansion then runs on ints, on the
        coefficients times L, the lcm of their denominators, and a key of
        degree d gets its coefficient as num / (L·den^d).
        """
        n = self.nvars
        if len(forms) != n:
            raise ValueError("need one linear form per variable")
        if any(len(form) != n for form in forms):
            raise ValueError(f"each linear form needs {n} coefficients")
        degree = max(map(sum, self.terms), default=0)
        size, code = next(slot for slot in SLOTS if degree < 256 ** slot[0])
        unpack = Struct(f">{n}{code}").unpack
        linears = [[(1 << 8 * size * (n - 1 - j), c) for j, c in enumerate(form) if c != 0]
                   for form in forms]
        if den is None:
            one = Fraction(1)  # an int coeff turns Fraction, as in a product
            start = {exps: coeff * one for exps, coeff in self.terms.items()}
        else:
            nums, lcd = int_vector(list(self.terms.values()))
            start = dict(zip(self.terms, nums))
        result = {}
        for exps, coeff in start.items():
            term = {0: coeff}
            for e, linear in zip(exps, linears):
                for _ in range(e):
                    product = {}
                    for key, value in term.items():
                        for unit, c in linear:
                            bumped = key + unit
                            product[bumped] = product.get(bumped, 0) + value * c
                    # int sums do not depend on their order
                    term = _normalised(product) if den is None else product
            for key, value in term.items():
                result[key] = result.get(key, 0) + value
        result = {unpack(key.to_bytes(n * size, "big")): v for key, v in result.items()}
        if den is not None:
            result = {key: Fraction(v, lcd * den ** sum(key)) for key, v in result.items() if v}
        return PolyObservable._from_terms(n, result)
