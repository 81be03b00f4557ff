"""Exact multivariate polynomials over the rationals.

An exact rational is a value whose exact type is in :data:`RATIONAL_TYPES`,
an ``int`` or a ``Fraction`` (no bool, float, string or Decimal).  It keeps
the type it was given or computed as; the one division is :func:`ratio`.
Terms are stored as a map from exponent tuples to nonzero rational
coefficients, so every operation is exact and serialization is canonical
(terms sort in descending lexicographic order of the exponent tuple).
The module also provides the unimodular change of basis that turns a
primitive integer character into the first coordinate; divisibility by
the corresponding linear form becomes a test on first-slot exponents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Exponents = tuple[int, ...]

RATIONAL_TYPES = frozenset((int, Fraction))
_INT = frozenset((int,))


def ratio(num, den):
    """``num / den`` exactly: an ``int`` when both are ints and ``den``
    divides ``num``, and a Fraction otherwise, never a float."""
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return num / den


def monomials_of_degree(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, in descending lex order,
    as ``combinations_with_replacement`` lists the multisets of variables."""
    if degree < 0:
        return []
    out: list[Exponents] = []
    for chosen in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in chosen:
            exps[i] += 1
        out.append(tuple(exps))
    return out


class MPoly:
    """A polynomial in ``nvars`` variables with rational coefficients, stored as given."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int | Fraction] | None = None):
        if type(nvars) is not int or nvars < 0:
            raise InputError(f"nvars must be a nonnegative integer, got {nvars!r}")
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            for exps, value in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                    raise InputError(f"bad exponent tuple {exps} for {nvars} variables")
                if type(value) not in RATIONAL_TYPES:
                    raise InputError(f"coefficients must be ints or Fractions, got {value!r}")
                clean[exps] = clean.get(exps, 0) + value
        self.nvars = nvars
        self.terms = {exps: c for exps, c in clean.items() if c}

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, int | Fraction]) -> MPoly:
        """Wrap terms that already have the stored form: int tuples of length
        ``nvars`` mapping to nonzero ints and Fractions.  The dict is taken,
        not copied."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> MPoly:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> MPoly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MPoly:
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff) -> MPoly:
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if type(other) in RATIONAL_TYPES:
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
            merged[exps] = merged.get(exps, 0) + coeff
        return MPoly(self.nvars, merged)

    __radd__ = __add__

    def __sub__(self, other) -> MPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MPoly:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> MPoly:
        if type(other) in RATIONAL_TYPES:
            if not other:
                return MPoly.zero(self.nvars)
            return MPoly._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod: dict[Exponents, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0) + c1 * c2
        return MPoly(self.nvars, prod)

    __rmul__ = __mul__

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise InputError("polynomials over different variable counts")
            return other
        if type(other) in RATIONAL_TYPES:
            return MPoly.constant(self.nvars, other)
        return NotImplemented

    def coefficient(self, exps: Sequence[int]) -> int | Fraction:
        if any(type(e) is not int for e in exps):
            raise InputError(f"exponents must be integers, got {list(exps)}")
        return self.terms.get(tuple(exps), 0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> MPoly:
        """Replace variable i by the linear form ``sum_j matrix[i][j] * v_j``."""
        return LinearSubstitution(matrix)(self)

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
    once, from the image of a monomial one degree lower, and kept for later
    calls on the same object.  A polynomial's image gets a dict of its own,
    so mutating it cannot reach the memo; a monomial's image from
    :meth:`_monomial` is the memo's own, read only.  The variable images
    and the memo hold the matrix's integer entries as ``int``, so a
    monomial's image has ``int`` coefficients, and so has the image of a
    polynomial with ``int`` coefficients; one with Fraction coefficients
    still maps to one with Fraction coefficients.
    """

    __slots__ = ("nvars", "nout", "_variables", "_monomials")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.nvars = len(matrix)
        self.nout = len(matrix[0]) if matrix else 0
        self._variables = [
            {tuple(1 if j == k else 0 for k in range(self.nout)): m
             for j, m in enumerate(row) if m}
            for row in matrix
        ]
        self._monomials: dict[Exponents, dict[Exponents, int]] = {
            (0,) * self.nvars: {(0,) * self.nout: 1}
        }

    def _monomial(self, exps: Exponents) -> dict[Exponents, int]:
        """The expanded image of one monomial, with ``int`` coefficients;
        shared with the memo, read only."""
        image = self._monomials.get(exps)
        if image is not None:
            return image
        pending = []
        while exps not in self._monomials:
            i = next(i for i, e in enumerate(exps) if e)
            pending.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        image = self._monomials[exps]
        while pending:
            exps, i = pending.pop()
            product: dict[Exponents, int] = {}
            for e1, c1 in image.items():
                for e2, c2 in self._variables[i].items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    product[key] = product.get(key, 0) + c1 * c2
            image = {e: c for e, c in product.items() if c}
            self._monomials[exps] = image
        return image

    def __call__(self, p: MPoly) -> MPoly:
        """The image of ``p``, its terms' images summed: each coefficient is
        multiplied only by the memo's ``int`` coefficients, so ``int``
        coefficients map to ``int`` ones."""
        if p.nvars != self.nvars:
            raise InputError("substitution matrix has wrong number of rows")
        acc: dict = {}
        for exps, coeff in p.terms.items():
            for e, c in self._monomial(exps).items():
                acc[e] = acc.get(e, 0) + coeff * c
        return MPoly._trusted(self.nout, {e: c for e, c in acc.items() if c})


def _integer_entries(lam: Sequence[int]) -> list[int]:
    """The entries of a character, refusing any that is not an int (a bool
    included): truncating one would give another character."""
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in lam):
        raise InputError(f"character {tuple(lam)} must have integer entries")
    return list(lam)


def is_primitive(lam: Sequence[int]) -> bool:
    """True when the integer vector is nonzero with coprime entries."""
    return gcd(*_integer_entries(lam)) == 1


def unimodular_completion(lam: Sequence[int]) -> list[list[int]]:
    """An integer matrix V of determinant +-1 with ``lam . V = (1, 0, .., 0)``.

    Substituting ``u = V . v`` rewrites a polynomial in coordinates where the
    linear form of ``lam`` is exactly the first variable.  Raises InputError
    when ``lam`` is not a primitive integer vector.
    """
    a = _integer_entries(lam)
    r = len(a)
    if r == 0:
        raise InputError("empty character")
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


def poly_from_pairs(pairs: Iterable, nvars: int, parse_scalar, *args) -> MPoly:
    """The sum of ``[exponents, coefficient]`` pairs, each checked once by the
    constructor's rules, built in the stored form without the constructor;
    ``parse_scalar(coefficient, *args)`` reads each coefficient as an exact
    rational."""
    terms: dict[Exponents, int | Fraction] = {}
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError("polynomial term must be an [exponents, coefficient] pair")
        exps, coeff = pair
        if not isinstance(exps, (list, tuple)) or len(exps) != nvars:
            raise InputError(f"exponent vector must have length {nvars}")
        key = tuple(exps)
        if not _INT.issuperset(map(type, key)):
            raise InputError(f"exponents must be integers, got {list(exps)}")
        if key and min(key) < 0:
            raise InputError(f"bad exponent tuple {key} for {nvars} variables")
        value = parse_scalar(coeff, *args)
        # a repeated key only adds: 0 + Fraction goes through Fraction.__radd__
        if key in terms:
            terms[key] += value
        else:
            terms[key] = value
    return MPoly._trusted(nvars, {key: c for key, c in terms.items() if c})
