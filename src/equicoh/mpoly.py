"""Exact multivariate polynomials over the rationals.

Terms are stored as a map from exponent tuples to nonzero Fraction
coefficients, so every operation is exact and serialization is canonical
(terms sort in descending lexicographic order of the exponent tuple).
The module also provides the unimodular change of basis that turns a
primitive integer character into the first coordinate; divisibility by
the corresponding linear form becomes a test on first-slot exponents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Exponents = tuple[int, ...]

_SCALARS = (int, Fraction)


def as_fraction(value) -> Fraction:
    """``Fraction(value)``, returning a Fraction argument itself instead of a copy."""
    return value if type(value) is Fraction else Fraction(value)


def monomials_of_degree(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, descending lex order."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[Exponents] = []

    def emit(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            emit(prefix + (e,), remaining - e, slots - 1)

    emit((), degree, nvars)
    return out


class MPoly:
    """A polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise InputError(f"bad exponent tuple {exps} for {nvars} variables")
                value = as_fraction(coeff)
                if exps in clean:
                    value = clean[exps] + value
                    if not value:
                        del clean[exps]
                        continue
                if value:
                    clean[exps] = value
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Fraction]) -> MPoly:
        """Wrap terms that already have the stored form: int tuples of length
        ``nvars`` mapping to nonzero Fractions.  The dict is taken, not copied."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> MPoly:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> MPoly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MPoly:
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff) -> MPoly:
        exps = tuple(int(e) for e in exps)
        return cls(len(exps), {exps: Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, _SCALARS):
            return self == MPoly.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> MPoly:
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return MPoly(self.nvars, merged)

    __radd__ = __add__

    def __sub__(self, other) -> MPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MPoly:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> MPoly:
        if isinstance(other, _SCALARS):
            if not other:
                return MPoly.zero(self.nvars)
            return MPoly._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, prod)

    __rmul__ = __mul__

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise InputError("polynomials over different variable counts")
            return other
        if isinstance(other, _SCALARS):
            return MPoly.constant(self.nvars, other)
        return NotImplemented

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(int(e) for e in exps), Fraction(0))

    def total_degree(self) -> int | None:
        """Maximal term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> MPoly:
        """Replace variable i by the linear form ``sum_j matrix[i][j] * v_j``."""
        return LinearSubstitution(matrix)(self)

    def split_leading(self) -> dict[int, MPoly]:
        """Decompose as ``sum_d v_1^d * q_d(v_2..)``; returns {d: q_d}."""
        if self.nvars == 0:
            raise InputError("cannot split a polynomial in zero variables")
        parts: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in self.terms.items():
            parts.setdefault(exps[0], {})[exps[1:]] = coeff
        return {d: MPoly._trusted(self.nvars - 1, t) for d, t in parts.items()}

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong length")
        values = [Fraction(p) for p in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v ** e
            total += term
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"u{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return " + ".join(bits)


class LinearSubstitution:
    """The change of variables ``u_i = sum_j matrix[i][j] * v_j``.

    Calling the object on a polynomial in the ``u`` variables returns its
    image in the ``v`` variables.  The image of each monomial is expanded
    once, from the image of a monomial one degree lower, and kept for
    later calls on the same object; every result gets a dict of its own,
    so mutating it cannot reach the memo.
    """

    __slots__ = ("nvars", "nout", "_variables", "_monomials")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.nvars = len(matrix)
        self.nout = len(matrix[0]) if matrix else 0
        self._variables = [
            {tuple(1 if j == k else 0 for k in range(self.nout)): Fraction(m)
             for j, m in enumerate(row) if m}
            for row in matrix
        ]
        self._monomials: dict[Exponents, dict[Exponents, Fraction]] = {
            (0,) * self.nvars: {(0,) * self.nout: Fraction(1)}
        }

    def _monomial(self, exps: Exponents) -> dict[Exponents, Fraction]:
        """The expanded image of one monomial; shared with the memo, read only."""
        pending = []
        while exps not in self._monomials:
            i = next(i for i, e in enumerate(exps) if e)
            pending.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        image = self._monomials[exps]
        while pending:
            exps, i = pending.pop()
            product: dict[Exponents, Fraction] = {}
            for e1, c1 in image.items():
                for e2, c2 in self._variables[i].items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
            image = {e: c for e, c in product.items() if c}
            self._monomials[exps] = image
        return image

    def __call__(self, p: MPoly) -> MPoly:
        if p.nvars != self.nvars:
            raise InputError("substitution matrix has wrong number of rows")
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in p.terms.items():
            for e, c in self._monomial(exps).items():
                acc[e] = acc.get(e, 0) + coeff * c
        return MPoly._trusted(self.nout, {e: c for e, c in acc.items() if c})


def is_primitive(lam: Sequence[int]) -> bool:
    """True when the integer vector is nonzero with coprime entries."""
    g = 0
    for a in lam:
        g = _gcd(g, abs(int(a)))
    return g == 1


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def unimodular_completion(lam: Sequence[int]) -> list[list[int]]:
    """An integer matrix V of determinant +-1 with ``lam . V = (1, 0, .., 0)``.

    Substituting ``u = V . v`` rewrites a polynomial in coordinates where the
    linear form of ``lam`` is exactly the first variable.  Raises InputError
    when ``lam`` is not primitive.
    """
    r = len(lam)
    if r == 0:
        raise InputError("empty character")
    a = [int(x) for x in lam]
    V = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for j in range(1, r):
        while a[j]:
            if a[0]:
                q = a[0] // a[j]
                a[0] -= q * a[j]
                for row in V:
                    row[0] -= q * row[j]
            a[0], a[j] = a[j], a[0]
            for row in V:
                row[0], row[j] = row[j], row[0]
    if a[0] < 0:
        a[0] = -a[0]
        for row in V:
            row[0] = -row[0]
    if a[0] != 1:
        raise InputError(f"character {tuple(lam)} is not primitive")
    return V


def poly_to_pairs(p: MPoly) -> list[list]:
    """Canonical JSON form: sorted [exponent-vector, coefficient] pairs."""
    return [[list(exps), str(coeff)] for exps, coeff in p.sorted_terms()]


def poly_from_pairs(pairs: Iterable, nvars: int, parse_scalar) -> MPoly:
    terms: dict[Exponents, Fraction] = {}
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError("polynomial term must be an [exponents, coefficient] pair")
        exps, coeff = pair
        if not isinstance(exps, (list, tuple)) or len(exps) != nvars:
            raise InputError(f"exponent vector must have length {nvars}")
        if any(not isinstance(e, int) or isinstance(e, bool) for e in exps):
            raise InputError(f"exponents must be integers, got {list(exps)}")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + parse_scalar(coeff)
    return MPoly(nvars, terms)
