"""Covectors and polynomial observables on the dual of an algebra.

A covector is a point xi of the dual space in the dual basis.  An observable
is a polynomial function of the dual coordinates xi_1 .. xi_n, kept as a
sparse map from exponent tuples to coefficients; exact rationals unless the
caller feeds floats.
"""

from fractions import Fraction

from .linalg import EXACT, check_mode, scalar, vec_dot


class Covector:
    """A dual-space point: coordinates against the dual basis."""

    __slots__ = ("algebra", "coords", "mode")

    def __init__(self, algebra, coords, mode=EXACT):
        check_mode(mode)
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(scalar(c, mode) for c in coords))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Covector is immutable")

    def __repr__(self):
        return f"Covector({list(self.coords)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Covector)
            and self.mode == other.mode
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.coords, self.mode))

    def pair(self, element):
        """Natural pairing <xi, x> in dual coordinates."""
        return vec_dot(self.coords, element.coords)

    def distance(self, other):
        return max(abs(a - b) for a, b in zip(self.coords, other.coords)) if self.coords else 0

    def to_float(self):
        return Covector(self.algebra, [float(c) for c in self.coords], "float")


class PolyObservable:
    """Sparse polynomial in the dual coordinates.

    ``terms`` maps exponent tuples to nonzero coefficients; the zero
    polynomial has no terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        object.__setattr__(self, "nvars", nvars)
        cleaned = {}
        for exponents, coeff in (terms or {}).items():
            if len(exponents) != nvars:
                raise ValueError("exponent tuple length does not match variable count")
            if coeff != 0:
                key = tuple(int(e) for e in exponents)
                cleaned[key] = cleaned.get(key, 0) + coeff
        object.__setattr__(
            self, "terms", {k: v for k, v in sorted(cleaned.items()) if v != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("PolyObservable is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def coordinate(cls, nvars, i):
        """The observable xi_{i+1}."""
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def from_element(cls, element):
        """The linear observable xi -> <xi, x>."""
        n = element.algebra.dim
        terms = {}
        for i, c in enumerate(element.coords):
            if c != 0:
                exps = [0] * n
                exps[i] = 1
                terms[tuple(exps)] = c
        return cls(n, terms)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        self._match(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return PolyObservable(self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyObservable(self.nvars, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, coeff):
        return PolyObservable(self.nvars, {k: coeff * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PolyObservable):
            return NotImplemented
        self._match(other)
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                terms[key] = terms.get(key, 0) + va * vb
        return PolyObservable(self.nvars, terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyObservable)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

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

    def degree(self):
        return max((sum(k) for k in self.terms), default=0)

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
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + coeff * exps[i]
        return PolyObservable(self.nvars, terms)

    def gradient_at_zero(self):
        """The differential at the origin, as element coordinates."""
        grad = [Fraction(0)] * self.nvars
        for i in range(self.nvars):
            exps = [0] * self.nvars
            exps[i] = 1
            grad[i] = self.terms.get(tuple(exps), Fraction(0))
        return grad

    def substitute_linear(self, forms):
        """Substitute xi_i -> sum_j forms[i][j] xi_j (a linear change of point).

        ``forms[i]`` lists the coefficients of the linear form replacing the
        i-th coordinate.
        """
        if len(forms) != self.nvars:
            raise ValueError("need one linear form per variable")
        linears = [
            PolyObservable(self.nvars, {
                tuple(1 if j == t else 0 for t in range(self.nvars)): c
                for j, c in enumerate(form)
                if c != 0
            })
            for form in forms
        ]
        result = PolyObservable.zero(self.nvars)
        for exps, coeff in self.terms.items():
            term = PolyObservable.constant(self.nvars, 1)
            term = coeff * term
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * linears[i]
            result = result + term
        return result
