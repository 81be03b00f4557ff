"""Graded building blocks for equivariant cohomology computations.

Everything here is exact.  Scalars are the exact rationals of
:mod:`equicoh.mpoly` (:data:`~equicoh.mpoly.RATIONAL_TYPES`: an ``int`` or a
``Fraction``, kept as given); in the torus setting they are replaced by
:class:`~equicoh.mpoly.MPoly` values and all the algebra below is agnostic
to that choice.

``SurfaceClass`` models the cohomology of a closed oriented genus-g surface
in the ordered basis ``1, a_1..a_g, b_1..b_g, [S]`` with the intersection
pairing ``a_i . b_i = [S] = -b_i . a_i`` and all other products of
degree-one generators zero.  ``Laurent`` is a finitely supported sum of
integer powers of the equivariant parameter with coefficients in any of the
scalar or surface domains.  ``PoincareSeries`` is a rational function
``numerator / (1 - t^2)^m`` with integer numerator, which is the closed
form every Poincare series in this package takes.  ``ComponentClass`` is
a class's restriction to one fixed component; its constructor is the one
check of a record's rules (:func:`record_rule`, then :func:`_checked_entry`
on each entry), the class parser's included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import is_
from types import MappingProxyType
from typing import Mapping

from .errors import InputError, InternalInconsistencyError
from .mpoly import RATIONAL_TYPES, MPoly


class SurfaceClass:
    """An element of H^*(surface of genus g) with coefficients held as given."""

    __slots__ = ("genus", "c0", "c1", "c2")

    def __init__(self, genus: int, c0=0, c1=(), c2=0):
        if type(genus) is not int:
            raise InputError(f"genus must be an integer, got {genus!r}")
        if genus < 0:
            raise InputError("genus must be nonnegative")
        c1 = tuple(c1) if c1 else (0,) * (2 * genus)
        if len(c1) != 2 * genus:
            raise InputError(f"H^1 part must have {2 * genus} slots, got {len(c1)}")
        self.genus = genus
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @classmethod
    def unit(cls, genus: int) -> SurfaceClass:
        return cls(genus, c0=1)

    def __bool__(self) -> bool:
        return bool(self.c0) or any(bool(x) for x in self.c1) or bool(self.c2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.c0 == other.c0
            and all(x == y for x, y in zip(self.c1, other.c1))
            and self.c2 == other.c2
        )

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> SurfaceClass:
        return SurfaceClass(self.genus, -self.c0, tuple(-x for x in self.c1), -self.c2)

    def __add__(self, other) -> SurfaceClass:
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        if other.genus != self.genus:
            raise InputError("cannot add classes on surfaces of different genus")
        return SurfaceClass(
            self.genus,
            self.c0 + other.c0,
            tuple(x + y for x, y in zip(self.c1, other.c1)),
            self.c2 + other.c2,
        )

    def __sub__(self, other) -> SurfaceClass:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SurfaceClass):
            return cup_surface(self, other)
        if type(other) in RATIONAL_TYPES or isinstance(other, MPoly):
            return SurfaceClass(
                self.genus,
                self.c0 * other,
                tuple(x * other for x in self.c1),
                self.c2 * other,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        bits = []
        if self.c0:
            bits.append(f"({self.c0})*1")
        # the H^1 parts are those of an odd-degree entry, named a1.., b1..
        for (_, _, name), x in zip(entry_parts("surface", self.genus, 1), self.c1):
            if x:
                bits.append(f"({x})*{name}")
        if self.c2:
            bits.append(f"({self.c2})*[S]")
        return " + ".join(bits) if bits else "0"


def cup_surface(x: SurfaceClass, y: SurfaceClass) -> SurfaceClass:
    """Cup product on a genus-g surface; raises InputError on genus mismatch."""
    if not isinstance(x, SurfaceClass) or not isinstance(y, SurfaceClass):
        raise InputError("cup_surface expects two surface classes")
    if x.genus != y.genus:
        raise InputError(f"genus mismatch: {x.genus} vs {y.genus}")
    g = x.genus
    c0 = x.c0 * y.c0
    c1 = tuple(x.c0 * y.c1[i] + x.c1[i] * y.c0 for i in range(2 * g))
    pairing = sum(x.c1[i] * y.c1[g + i] - x.c1[g + i] * y.c1[i] for i in range(g))
    c2 = x.c0 * y.c2 + x.c2 * y.c0 + pairing
    return SurfaceClass(g, c0, c1, c2)


def integrate_surface(x: SurfaceClass):
    """Integration over the surface: the coefficient of [S]."""
    if not isinstance(x, SurfaceClass):
        raise InputError("integrate_surface expects a surface class")
    return x.c2


class Laurent:
    """A finite sum ``sum_k coeff_k * u^k`` with integer (possibly negative) k,
    each coefficient a rational, a surface class or a polynomial, kept as given."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, object] | None = None):
        clean: dict[int, object] = {}
        if terms:
            for power, coeff in terms.items():
                if type(power) is not int:
                    raise InputError(f"powers must be integers, got {power!r}")
                if type(coeff) not in RATIONAL_TYPES and type(coeff) not in (SurfaceClass, MPoly):
                    raise InputError(f"not a rational, surface class or polynomial: {coeff!r}")
                if coeff:
                    clean[power] = coeff
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> Laurent:
        return Laurent({k: -c for k, c in self.terms.items()})

    def __add__(self, other: Laurent) -> Laurent:
        if not isinstance(other, Laurent):
            return NotImplemented
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = merged[k] + c if k in merged else c
        return Laurent(merged)

    def __sub__(self, other: Laurent) -> Laurent:
        return self + (-other)

    def __mul__(self, other: Laurent) -> Laurent:
        if not isinstance(other, Laurent):
            return NotImplemented
        prod: dict[int, object] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                piece = c1 * c2
                prod[k] = prod[k] + piece if k in prod else piece
        return Laurent(prod)

    def coefficient(self, power: int):
        return self.terms.get(power, 0)

    def powers(self) -> list[int]:
        return sorted(self.terms)

    def is_polynomial(self) -> bool:
        return all(k >= 0 for k in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*u^{k}" for k, c in sorted(self.terms.items(), reverse=True))


def _coefficient_domain(x: Laurent) -> tuple[str, int | None]:
    """(kind, genus-or-nvars) of the coefficients; InputError when mixed."""
    kind = None
    detail: int | None = None
    for coeff in x.terms.values():
        if isinstance(coeff, SurfaceClass):
            this = ("surface", coeff.genus)
        elif isinstance(coeff, MPoly):
            this = ("poly", coeff.nvars)
        else:
            this = ("scalar", None)
        if kind is None:
            kind, detail = this
        elif (kind, detail) != this:
            raise InputError("mixed coefficient domains in one Laurent element")
    return (kind or "scalar", detail)


def laurent_mul(x: Laurent, y: Laurent) -> Laurent:
    """Product of Laurent elements over a common coefficient domain."""
    kx = _coefficient_domain(x)
    ky = _coefficient_domain(y)
    if x.terms and y.terms and kx != ky:
        raise InputError(f"coefficient domain mismatch: {kx} vs {ky}")
    return x * y


def _poly_mul_int(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _trim(coeffs) -> tuple[int, ...]:
    """The coefficients without trailing zeros; InputError names the first
    that is not an ``int`` (a float or a bool is refused, not truncated)."""
    coeffs = tuple(coeffs)
    for c in coeffs:
        if type(c) is not int:
            raise InputError(f"series coefficients must be integers, got {c!r}")
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class PoincareSeries:
    """The rational function ``numerator(t) / (1 - t^2)^denominator_power``."""

    numerator: tuple[int, ...]
    denominator_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "numerator", _trim(self.numerator))
        if type(self.denominator_power) is not int:
            raise InputError(
                f"denominator power must be an integer, got {self.denominator_power!r}"
            )
        if self.denominator_power < 0:
            raise InputError("denominator power must be nonnegative")

    def coefficient(self, k: int) -> int:
        """Series coefficient of t^k; negative results are invalid by contract."""
        if type(k) is not int:
            raise InputError(f"degree must be an integer, got {k!r}")
        if k < 0:
            return 0
        m = self.denominator_power
        if m == 0:
            value = self.numerator[k] if k < len(self.numerator) else 0
        else:
            value = 0
            # t^(k - 2j) lies in the numerator only from this j on
            for j in range(max(0, (k - len(self.numerator) + 2) // 2), k // 2 + 1):
                value += self.numerator[k - 2 * j] * math.comb(m - 1 + j, m - 1)
        if value < 0:
            raise InternalInconsistencyError(
                f"negative series coefficient {value} at degree {k}"
            )
        return value

    def _scaled_numerator(self, extra: int) -> tuple[int, ...]:
        num = self.numerator
        for _ in range(extra):
            num = _poly_mul_int(num, (1, 0, -1))
        return num

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        m = max(self.denominator_power, other.denominator_power)
        return self._scaled_numerator(m - self.denominator_power) == other._scaled_numerator(
            m - other.denominator_power
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: PoincareSeries) -> PoincareSeries:
        m = max(self.denominator_power, other.denominator_power)
        a = self._scaled_numerator(m - self.denominator_power)
        b = other._scaled_numerator(m - other.denominator_power)
        width = max(len(a), len(b))
        num = tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(width)
        )
        return PoincareSeries(num, m)

    def __sub__(self, other: PoincareSeries) -> PoincareSeries:
        neg = PoincareSeries(tuple(-c for c in other.numerator), other.denominator_power)
        return self + neg

    def __mul__(self, other: PoincareSeries) -> PoincareSeries:
        return PoincareSeries(
            _poly_mul_int(self.numerator, other.numerator),
            self.denominator_power + other.denominator_power,
        )

    def __repr__(self) -> str:
        num = " + ".join(
            f"{c}*t^{i}" for i, c in enumerate(self.numerator) if c
        ) or "0"
        if self.denominator_power == 0:
            return num
        return f"({num}) / (1 - t^2)^{self.denominator_power}"


@functools.lru_cache(maxsize=256)
def entry_parts(kind: str, genus: int, degree: int) -> tuple[tuple[str, int, str], ...]:
    """The ``(part, index, name)`` a degree-k entry holds, in slot order: a
    point's value "c" or a surface's H^0 part "c0" (and from degree 2 its
    H^2 part "c2") in even degree, a surface's H^1 parts "c1", named
    a1..ag, b1..bg, in odd degree."""
    if kind == "point":
        return () if degree % 2 else (("c", 0, "c"),)
    if degree % 2:
        a = tuple(("c1", i, f"a{i + 1}") for i in range(genus))
        return a + tuple(("c1", genus + i, f"b{i + 1}") for i in range(genus))
    return (("c0", 0, "c0"), ("c2", 0, "c2")) if degree >= 2 else (("c0", 0, "c0"),)


def part_power(part: str, degree: int) -> int:
    """The power of the parameter that a part of a degree-k entry carries:
    k/2 for "c" and "c0", (k-1)/2 for "c1" and (k-2)/2 for "c2"."""
    return degree // 2 - (part == "c2")


def entry_part(entry, part: str, index: int = 0):
    """One part of a restriction entry: the point value itself ("c"), or a
    surface's H^0 part, H^1 part ``index`` or H^2 part."""
    if part == "c":
        return entry
    value = getattr(entry, part)
    return value[index] if part == "c1" else value


def map_parts(kind: str, entry, f, arg):
    """The entry with each part ``value`` replaced by ``f(part, value, arg)``,
    in slot order; ``entry`` itself when each result is the part it replaces."""
    if kind == "point":
        return f("c", entry, arg)
    c0 = f("c0", entry.c0, arg)
    c1 = tuple([f("c1", x, arg) for x in entry.c1])
    c2 = f("c2", entry.c2, arg)
    if c0 is entry.c0 and c2 is entry.c2 and all(map(is_, c1, entry.c1)):
        return entry
    return SurfaceClass(entry.genus, c0, c1, c2)


def _vanishing(part: str, listed) -> str:
    """Why a nonzero ``part`` of an entry is refused, given the ``listed``
    parts of its degree (:func:`entry_parts`), none of which it is."""
    if part == "c1":
        return "H^1 part must vanish in even degree"
    if ("c0", 0, "c0") in listed:
        return "H^2 part needs degree at least 2"
    return "H^0 and H^2 parts must vanish in odd degree"


def genus_rule(genus) -> None:
    """Refuse a genus that is not a nonnegative int."""
    if type(genus) is not int or genus < 0:
        raise InputError(f"genus must be a nonnegative integer, got {genus!r}")


def record_rule(kind: str, genus: int, rank: int | None) -> None:
    """Refuse the header of a record: an unknown kind, a point with a genus,
    a genus or a rank that is not a nonnegative int (a rank may be None)."""
    if kind not in ("point", "surface"):
        raise InputError(f"unknown component kind {kind!r}")
    if kind == "point" and genus:
        raise InputError("point components have no genus")
    genus_rule(genus)
    if rank is not None and (type(rank) is not int or rank < 0):
        raise InputError(f"rank must be None or a nonnegative integer, got {rank!r}")


def _checked_entry(kind: str, genus: int, degree, entry, rank: int | None):
    """A degree-k entry of a record with each part in its domain, ``entry``
    itself when every part is already there.  The degree must be a
    nonnegative int, a point carries no odd-degree entry, even a zero one,
    and a surface's entry is a SurfaceClass of its genus; then each part,
    in :func:`map_parts` order, goes through :func:`_checked_part`."""
    if type(degree) is not int or degree < 0:
        raise InputError(f"degrees must be nonnegative integers, got {degree!r}")
    where = f"degree {degree}"
    listed = entry_parts(kind, genus, degree)
    if kind == "point" and not listed:
        raise InputError(f"{where}: a point carries no odd-degree classes")
    if kind == "surface" and not isinstance(entry, SurfaceClass):
        raise InputError(f"{where}: expected a surface class entry")
    if kind == "surface" and entry.genus != genus:
        raise InputError(f"{where}: genus {entry.genus} != component genus {genus}")
    return map_parts(kind, entry, _checked_part, (degree, rank, where, listed))


def _checked_part(part: str, value, context: tuple):
    """A part of a degree-k entry in its domain, itself if already there,
    with ``context`` the entry's ``(degree, rank, where, listed)``.  A
    nonzero value in a part that is not ``listed`` is refused
    (:func:`_vanishing`); then the part must be a rational for a circle
    action (``rank`` None), else a polynomial in ``rank`` variables,
    homogeneous of its :func:`part_power`, or a zero int or Fraction.  A
    zero polynomial of that rank is returned at once."""
    degree, rank, where, listed = context
    if value:
        for held, _, _ in listed:
            if held == part:
                break
        else:
            why = _vanishing(part, listed)
            raise InputError(f"{where}: {why}")
    if rank is None:
        if type(value) in RATIONAL_TYPES:
            return value
        raise InputError(f"{where}: expected a rational coefficient")
    if isinstance(value, MPoly) and value.nvars == rank:
        if value.terms and not value.is_homogeneous(power := part_power(part, degree)):
            raise InputError(f"{where}: polynomial must be homogeneous of degree {power}")
        return value
    if type(value) in RATIONAL_TYPES and not value:
        return MPoly.zero(rank)
    raise InputError(f"{where}: expected a polynomial in {rank} variables")


@dataclass(frozen=True)
class ComponentClass:
    """Restriction of an equivariant class to one fixed component, by degree.

    A point's degree-k entry is its value, a surface's a SurfaceClass of
    values.  The header must hold to :func:`record_rule`, and each entry
    to :func:`_checked_entry`: a nonzero value in a part that
    :func:`entry_parts` does not list is refused, and every part of a point
    or a surface is checked in its domain at its :func:`part_power`.  An
    entry whose parts are all in their domain is kept, not copied.  This
    is the one check of a record, for every caller, the class parser
    included; only :meth:`_trusted` builds a record without it.  The record
    is frozen and ``entries`` a read-only mapping of the nonzero entries.
    """

    kind: str
    genus: int = 0
    entries: Mapping[int, object] = field(default_factory=dict)
    rank: int | None = None

    def __post_init__(self):
        record_rule(self.kind, self.genus, self.rank)
        clean: dict[int, object] = {}
        for degree, entry in self.entries.items():
            entry = _checked_entry(self.kind, self.genus, degree, entry, self.rank)
            if entry:
                clean[degree] = entry
        object.__setattr__(self, "entries", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, kind: str, genus: int, entries: dict, rank: int | None) -> ComponentClass:
        """Wrap fields that already hold to the constructor's rules: nonzero
        entries with every part in its domain, the dict wrapped, not copied."""
        record = object.__new__(cls)
        record.__dict__.update(kind=kind, genus=genus, entries=MappingProxyType(entries), rank=rank)
        return record
