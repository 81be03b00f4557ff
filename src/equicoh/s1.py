"""Equivariant cohomology of a circle action from its decorated graph.

The fixed-point data determines everything computed here: Betti numbers
assemble from a five-row table of local contributions, the equivariant
Poincare series of the manifold and of its fixed set differ by a finite
polynomial counting the relations among the fixed components, and the
image of the restriction map to the fixed set is cut out by three kinds of
linear conditions: equality of degree-zero parts, matching of the
degree-one parts on the two fixed surfaces, and integrality of the
localization sum.  One table states these conditions once, part by part:
each part of a component's restriction lists the divisions it enters
(differences of H^0 parts of adjacent components, the H^1 matching through
the identification) and its poles (the closed form of its localization
term, never hard-coded per graph).  Every query routes terms through that
table: image bases route each slot's unit part and take the nullspace of
the resulting rows, membership routes the class's own terms and reads the
violations off the keys, and the localization sum is the class's terms
under every pole at every power, not only the negative ones.  There is no
second description.  Every division factor and pole numerator of the table
is an integer, the poles over one denominator per table, so a query adds
and multiplies integers only and divides back once.  A basis reads the
table of its degree alone: in a given degree, each part of a circle action
carries a fixed power of the parameter, so only the rules that power can
meet are stated, and a graph has none from degree 3 on.

Graphs and x-rays are one kind of document here: each gives its fixed
components as ``(id, kind, genus)`` sorted by id and a rank (None for a
graph).  Those two values fix the slot space in each degree (one slot per
part of a component's entry, or per monomial of each part for a torus),
and the slot and class helpers and the one image-basis body read only
them.  A graph is one constraint group, built per query, and an x-ray
keeps one per piece, with one substitution per character.
Every entry point that computes on a graph refuses an invalid one, then
reads where each component sits and its extremal labels off the graph.

The same table serves a higher-rank torus along a primitive integer
character: each term is read through its monomial's memoised image in
coordinates where the character is the first variable, as a slot is,
divisibility becomes an exponent test, and the localization sum must
again be free of negative powers.  A circle-action value is the rank-1
case, a single power of the parameter.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    ComponentClass,
    Laurent,
    PoincareSeries,
    SurfaceClass,
    entry_part,
    entry_parts,
    genus_rule,
    map_parts,
    part_power,
)
from .errors import InputError, InternalInconsistencyError, SchemaError
from .graph import (
    _FIRST,
    DecoratedGraph,
    FatVertex,
    IsolatedVertex,
    _check_keys,
    _load_document,
    _order,
    _refuse_invalid,
    _require,
    _sorted_by_id,
    format_rational,
    parse_rational,
    weight_product,
)
from .linalg import nullspace
from .mpoly import (
    RATIONAL_TYPES,
    LinearSubstitution,
    MPoly,
    monomials_of_degree,
    poly_from_pairs,
    poly_to_pairs,
    ratio,
    unimodular_completion,
)

DEFAULT_MAX_DEGREE = 12

_CLASS_KEYS = {"kind", "graph", "components"}

BETTI_TABLE = {
    ("surface", "min"): lambda g: (1, 2 * g, 1, 0, 0),
    ("surface", "max"): lambda g: (0, 0, 1, 2 * g, 1),
    ("point", "min"): lambda g: (1, 0, 0, 0, 0),
    ("point", "interior"): lambda g: (0, 0, 1, 0, 0),
    ("point", "max"): lambda g: (0, 0, 0, 0, 1),
}


def betti_contribution(kind: str, position: str, genus: int = 0) -> tuple[int, ...]:
    """Contribution of one fixed component to the Betti numbers b_0..b_4."""
    if kind == "surface" and position == "interior":
        raise InputError("fixed surfaces occur only at the extrema")
    try:
        row = BETTI_TABLE[(kind, position)]
    except KeyError:
        raise InputError(f"unknown component ({kind!r}, {position!r})") from None
    genus_rule(genus)
    return row(genus)


def poincare_manifold(graph: DecoratedGraph) -> PoincareSeries:
    """Ordinary Poincare polynomial of the manifold, as a degree-4 numerator."""
    _refuse_invalid(graph)
    total = [0] * 5
    for cid, kind, genus in graph._fixed_components:
        row = betti_contribution(kind, graph._places[cid], genus)
        total = [a + b for a, b in zip(total, row)]
    return PoincareSeries(tuple(total), 0)


def poincare_fixed_set(graph: DecoratedGraph) -> PoincareSeries:
    """Ordinary Poincare polynomial of the fixed set."""
    _refuse_invalid(graph)
    total = [0, 0, 0]
    for _ in graph.isolated:
        total[0] += 1
    for v in graph.surfaces:
        total[0] += 1
        total[1] += 2 * v.genus
        total[2] += 1
    return PoincareSeries(tuple(total), 0)


def equivariant_series(graph: DecoratedGraph, which: str = "manifold") -> PoincareSeries:
    """Equivariant Poincare series: the ordinary one over (1 - t^2)."""
    _refuse_invalid(graph)
    if which == "manifold":
        ordinary = poincare_manifold(graph)
    elif which == "fixed":
        ordinary = poincare_fixed_set(graph)
    else:
        raise InputError(f"unknown series {which!r}")
    return PoincareSeries(ordinary.numerator, ordinary.denominator_power + 1)


def relation_counts(graph: DecoratedGraph) -> tuple[int, int, int]:
    """Number of relations in degrees 0, 1, 2 between fixed-set and manifold series.

    Also asserts the series identity these counts must satisfy; a failure
    means the graph data is internally inconsistent.
    """
    _refuse_invalid(graph)
    ncomp = len(graph.isolated) + len(graph.surfaces)
    r0 = ncomp - 1
    r1 = 2 * graph.surfaces[0].genus if len(graph.surfaces) == 2 else 0
    r2 = 1
    difference = equivariant_series(graph, "fixed") - equivariant_series(graph, "manifold")
    if difference != PoincareSeries((r0, r1, r2), 0):
        raise InternalInconsistencyError(
            "fixed-set and manifold series do not differ by the relation polynomial"
        )
    return r0, r1, r2


@dataclass(frozen=True)
class EquivariantEuler:
    """Equivariant Euler class of the normal bundle of one fixed component."""

    component: str
    kind: str
    laurent: Laurent


def _extremal(graph: DecoratedGraph, surface: FatVertex) -> tuple[int, int | Fraction]:
    """The sign of a fixed surface of a valid graph, -1 at the minimum and +1
    at the maximum, and its self-intersection: the label the extremal
    equations force there, which a given label equals on a valid graph."""
    e_min, e_max = graph._labels
    return (-1, e_min) if graph._places[surface.id] == "min" else (1, e_max)


def euler_class(graph: DecoratedGraph, component_id: str) -> EquivariantEuler:
    _refuse_invalid(graph)
    comp = graph.find(component_id)
    if isinstance(comp, IsolatedVertex):
        return EquivariantEuler(component_id, "point", Laurent({2: weight_product(comp)}))
    sign, e = _extremal(graph, comp)
    g = comp.genus
    return EquivariantEuler(
        component_id,
        "surface",
        Laurent({1: SurfaceClass(g, c0=sign), 0: SurfaceClass(g, c2=e)}),
    )


def inverse_euler(graph: DecoratedGraph, component_id: str) -> Laurent:
    """The inverse of the Euler class in the localized module."""
    _refuse_invalid(graph)
    comp = graph.find(component_id)
    if isinstance(comp, IsolatedVertex):
        return Laurent({-2: ratio(1, weight_product(comp))})
    sign, e = _extremal(graph, comp)
    g = comp.genus
    return Laurent({-1: SurfaceClass(g, c0=sign), -2: SurfaceClass(g, c2=-e)})


@dataclass(frozen=True)
class EquivariantClass:
    """A tuple of fixed-component restrictions indexed by component id.

    A class addresses the ``(id, kind, genus)`` tuple ``fixed_components``,
    in the id order of a document's ``_fixed_components``, fixed when the
    class is built: a class built from a dict alone addresses exactly its
    keys, and refuses a record of another rank; a class the library builds
    (:func:`parse_class`, a basis class, :func:`class_from_vector`,
    :func:`unit_class`, and what the methods below and
    :func:`promote_to_torus` make of one) carries its document's tuple,
    shared.  ``components`` is a read-only mapping holding a record for each
    component with an entry, and no other: a component the class addresses
    but holds no record for reads as zero in every degree.
    """

    components: Mapping[str, ComponentClass] = field(default_factory=dict)
    rank: int | None = None
    fixed_components: tuple[tuple[str, str, int], ...] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        records = self.components
        if self.fixed_components is None:
            for cid, cls in records.items():
                if cls.rank != self.rank:
                    raise InputError(
                        f"component {cid!r}: a record of rank {cls.rank} "
                        f"in a class of rank {self.rank}"
                    )
            found = [(cid, cls.kind, cls.genus) for cid, cls in records.items()]
            object.__setattr__(self, "fixed_components", _sorted_by_id(found, _FIRST))
        kept = {cid: cls for cid, cls in records.items() if cls.entries}
        object.__setattr__(self, "components", MappingProxyType(kept))

    def addressed(self) -> tuple[tuple[str, str, int], ...]:
        """The ``(id, kind, genus)`` of every component the class addresses."""
        return self.fixed_components

    def restriction(self, cid: str) -> dict:
        """``{degree: entry}`` of one component, ``{}`` when it holds no record."""
        cls = self.components.get(cid)
        return {} if cls is None else cls.entries

    def degrees(self) -> list[int]:
        out: set[int] = set()
        for cls in self.components.values():
            out.update(cls.entries)
        return sorted(out)

    def homogeneous(self, degree: int) -> EquivariantClass:
        comps = {
            cid: ComponentClass(cls.kind, cls.genus, {degree: cls.entries[degree]}, cls.rank)
            for cid, cls in self.components.items()
            if degree in cls.entries
        }
        return EquivariantClass(comps, self.rank, self.fixed_components)

    def restricted(self, ids) -> EquivariantClass:
        """The class on the components ``ids`` alone; KeyError names the
        least one, in :func:`~equicoh.graph._order`, that it does not
        address."""
        kept = set(ids)
        missing = kept.difference(c[0] for c in self.fixed_components)
        if missing:
            raise KeyError(min(missing, key=_order))
        comps = {cid: cls for cid in ids if (cls := self.components.get(cid)) is not None}
        fixed = tuple(c for c in self.fixed_components if c[0] in kept)
        return EquivariantClass(comps, self.rank, fixed)

    def times_u(self) -> EquivariantClass:
        """Multiplication by the degree-2 equivariant parameter."""
        if self.rank is not None:
            raise InputError("times_u is defined for circle-action classes")
        comps = {
            cid: ComponentClass(
                cls.kind,
                cls.genus,
                {k + 2: value for k, value in cls.entries.items()},
                None,
            )
            for cid, cls in self.components.items()
        }
        return EquivariantClass(comps, None, self.fixed_components)


def _check_addressing(document, rank: int | None, alpha: EquivariantClass) -> None:
    """Raise unless ``alpha`` addresses exactly the components of the graph
    or x-ray ``document`` at ``rank`` (None for a circle action): its
    ``fixed_components`` must be the document's, and its rank that one."""
    components, found = document._fixed_components, alpha.fixed_components
    if found == components and alpha.rank == rank:
        return
    owner = "graph" if document.rank is None else "x-ray"
    _check_ids(owner, [cid for cid, _, _ in components], [cid for cid, _, _ in found])
    for (cid, kind, genus), got in zip(components, found):
        if got[1:] != (kind, genus) or alpha.rank != rank:
            what = "point" if kind == "point" else f"genus-{genus} surface"
            raise InputError(f"component {cid!r}: expected a {what} entry of rank {rank}")


def _check_ids(owner: str, ids: list[str], found: list[str]) -> None:
    """Raise unless a class addresses exactly the sorted component ``ids`` of
    the graph or x-ray named by ``owner``; ``found`` are its own, sorted."""
    if found != ids:
        raise InputError(f"class addresses {found} but the {owner} has {ids}")


# The power of the parameter each part's localization term drops by: a
# point's value and a surface's H^0 part meet u^-2, its H^2 part u^-1.
_POLE_SHIFTS = {"c": -2, "c0": -2, "c2": -1}


def _localization_rules(
    graph: DecoratedGraph, comp: IsolatedVertex | FatVertex
) -> dict[str, tuple[int, int]]:
    """The closed form of one fixed component's term of the localization sum.

    Maps each part of the component's restriction that contributes to its
    scale ``(num, den)``, two ``int``s: the part's value at ``u^p`` adds
    ``num / den`` times itself at ``u^(p + shift)``, the shift being the
    part's :data:`_POLE_SHIFTS`.  The term is the integral over the
    component of its restriction times the inverse Euler class of its
    normal bundle.  A point of weights w1, w2 has inverse Euler class
    ``u^-2 / (w1 w2)``, so its value has shift -2 and scale ``1 / (w1 w2)``.
    A surface of self-intersection e has ``sign u^-1 - e [S] u^-2``, the
    sign being -1 at the minimum and +1 at the maximum: integrated over the
    surface, its H^0 part has shift -2 and scale ``-e`` (no term when e is
    0), its H^2 part shift -1 and scale the sign, and its H^1 parts
    contribute nothing.  Sign and e are read off the valid ``graph``
    (:func:`_extremal`).
    """
    if isinstance(comp, IsolatedVertex):
        return {"c": (1, weight_product(comp))}
    sign, e = _extremal(graph, comp)
    rules = {"c2": (sign, 1)}
    if e:
        rules["c0"] = (-e.numerator, e.denominator)
    return rules


def localize(graph: DecoratedGraph, alpha: EquivariantClass) -> Laurent:
    """The localization sum over the fixed components, a scalar Laurent element.

    Each restriction is paired with the inverse Euler class of its normal
    bundle and surfaces are integrated out; for classes in the image of the
    restriction map the result is a polynomial.

    The pairing has a closed form, part by part (see
    :func:`_localization_rules`): only point values and the H^0 and H^2
    parts of a surface contribute, each shifted and scaled.  The sum reads
    those poles off the graph's :func:`_constraint_table`.
    """
    return _localization_sum(_graph_group(graph), _scaled_parts(graph, None, alpha))


class Slot(NamedTuple):
    """One coordinate of the degree-k restriction tuple space.

    A circle action has one slot per part of a component's degree-k entry;
    a rank-r torus has one per monomial ``exps`` of each part.  ``name`` is
    the part's name as :func:`~equicoh.core.entry_parts` gives it.
    """

    component: str
    part: str  # "c" (point), "c0", "c1" or "c2" (surface)
    index: int = 0
    name: str = ""
    exps: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        """``<component>.<name>``, and for a torus slot its exponents in
        brackets (``Smax_0.c0[1,0]``); built when read."""
        if not self.exps:
            return f"{self.component}.{self.name}"
        return f"{self.component}.{self.name}[{','.join(map(str, self.exps))}]"


def degree_slots(document, degree: int) -> list[Slot]:
    """Canonical coordinate order of the degree-k restriction space of a
    graph or an x-ray: empty in a negative degree, refused in a non-int one.

    Components come by id, each with the parts its degree-k entry holds,
    named as :func:`~equicoh.core.entry_parts` names them.  A graph has one
    slot per part; an x-ray of rank r has one per monomial of the part's
    power of the parameter in descending lex order, and its labels end in
    the exponents.  Each slot is built as the tuple it is, and the
    monomials of each power are listed once.
    """
    _check_degree(degree)
    if degree < 0:
        return []
    rank = document.rank
    new = tuple.__new__
    monomials: dict[int, list[tuple[int, ...]]] = {}
    slots: list[Slot] = []
    for cid, kind, genus in document._fixed_components:
        for part, index, name in entry_parts(kind, genus, degree):
            if rank is None:
                slots.append(new(Slot, (cid, part, index, name, ())))
                continue
            power = part_power(part, degree)
            if power not in monomials:
                monomials[power] = monomials_of_degree(rank, power)
            slots += [new(Slot, (cid, part, index, name, exps)) for exps in monomials[power]]
    return slots


def slot_value(alpha: EquivariantClass, degree: int, slot: Slot) -> int | Fraction:
    """The coordinate of the degree-k part of alpha at one slot.

    That is the slot's part itself for a circle action and the part's
    coefficient at ``slot.exps`` for a torus; an absent component or entry
    reads 0.
    """
    entry = alpha.restriction(slot.component).get(degree)
    if entry is None:
        return 0
    value = entry_part(entry, slot.part, slot.index)
    return value if alpha.rank is None else value.terms.get(slot.exps, 0)


def class_to_vector(document, degree: int, alpha: EquivariantClass) -> list[int | Fraction]:
    return [slot_value(alpha, degree, slot) for slot in degree_slots(document, degree)]


def _class_from_sparse(
    document, degree: int, slots: list[Slot], vector: dict[int, int | Fraction]
) -> EquivariantClass:
    """The class of a graph or an x-ray with coordinate ``vector[i]`` at
    ``slots[i]`` and zero elsewhere.

    A part's value is the rational for a graph and, for an x-ray of rank r,
    the polynomial whose terms are its slots' monomials, with the vector's
    coefficients as they are.  ``vector`` holds nonzero ints and Fractions
    only, and only the components it touches get a record, with its kind
    and genus read off the document's ``_kinds``; the class carries the
    document's ``_fixed_components``.  Each record's entry is built once,
    afresh, with its parts in their domain, so the record is built by
    :meth:`ComponentClass._trusted` without a second check, and no two
    classes share a mutable part.
    """
    rank = document.rank
    parts: dict[str, dict[tuple[str, int], object]] = {}
    for i, value in sorted(vector.items()):
        slot = slots[i]
        rec = parts.setdefault(slot.component, {})
        if rank is None:
            rec[(slot.part, slot.index)] = value
        else:
            rec.setdefault((slot.part, slot.index), {})[slot.exps] = value

    def part_value(rec, part: str, index: int = 0):
        if rank is None:
            return rec.get((part, index), 0)
        return MPoly._trusted(rank, rec.get((part, index), {}))

    comps: dict[str, ComponentClass] = {}
    for cid, rec in parts.items():
        kind, genus = document._kinds[cid]
        if kind == "point":
            entry = part_value(rec, "c")
        else:
            c1 = tuple(part_value(rec, "c1", i) for i in range(2 * genus))
            entry = SurfaceClass(genus, part_value(rec, "c0"), c1, part_value(rec, "c2"))
        comps[cid] = ComponentClass._trusted(kind, genus, {degree: entry}, rank)
    return EquivariantClass(comps, rank, document._fixed_components)


def class_from_vector(document, degree: int, values) -> EquivariantClass:
    """The degree-k class of a graph or an x-ray with the exact coordinates
    ``values`` (ints or Fractions, in :func:`degree_slots` order), each kept
    as given."""
    slots = degree_slots(document, degree)
    if len(values) != len(slots):
        raise InputError(f"expected {len(slots)} coordinates, got {len(values)}")
    for x in values:
        if type(x) not in RATIONAL_TYPES:
            raise InputError(f"coordinates must be ints or Fractions, got {x!r}")
    vector = {i: x for i, x in enumerate(values) if x}
    return _class_from_sparse(document, degree, slots, vector)


def unit_class(document, degree: int, slot: Slot) -> EquivariantClass:
    """The degree-k class that is 1 at ``slot``, one of the document's
    :func:`degree_slots` in that degree, and 0 elsewhere."""
    if slot.component not in document._kinds:
        raise InputError(f"slot {slot.label!r} is not on a component of this document")
    key = (slot.component, slot.part, slot.index, slot.exps)
    if all((s.component, s.part, s.index, s.exps) != key for s in degree_slots(document, degree)):
        raise InputError(f"slot {slot.label!r} is not a degree-{degree} slot of this document")
    return _class_from_sparse(document, degree, [slot], {0: 1})


def _check_degree(degree, name: str = "degree") -> None:
    """Refuse a degree (or the cutoff ``name``) that is not an int: a class's
    slots must be those of one degree, as :func:`_class_from_sparse` trusts."""
    if type(degree) is not int:
        raise InputError(f"{name} must be an integer, got {degree!r}")


def _constraint_table(
    components, graph: DecoratedGraph | None = None, degree: int | None = None
) -> tuple[dict[tuple[str, str, int], tuple], int]:
    """The image conditions, part by part: the one description every query reads.

    Returns ``(table, denominator)``.  The table maps ``(component, part,
    index)`` to the part's divisions and poles.  A division ``(head,
    factor)`` says that the part, times ``factor``, enters a sum that the
    parameter must divide:

    - ``("div", (a, b), ("h0",))`` for each adjacent pair of ``components``
      (``(id, kind, genus)`` sorted by id): the point value or H^0 part of
      ``a`` with factor 1, that of ``b`` with factor -1;
    - ``("div", (lower, upper), ("h1", j))`` when ``graph`` has two fixed
      surfaces: H^1 part i of the lower surface with the identification
      entry ``(j, i)``, H^1 part j of the upper one with -1.

    A pole ``(shift, n)`` is the part's term of the localization sum over
    ``graph`` (:func:`_localization_rules`), with scale ``n / denominator``:
    every factor and numerator is an ``int``, and the denominator is the
    lcm of the scales' denominators, that of the points' weight products
    and of the surfaces' self-intersections (1 without poles).  A graph
    passes its own components; a 2-dimensional x-ray piece passes its two
    points and no graph, so it has one division and no poles.

    With a ``degree``, the table holds only the rules a circle action's
    degree-k part can meet: its power of the parameter (:func:`part_power`)
    is fixed, so a division is stated only where that power is 0 and a pole
    only where the power plus the shift is negative.  A graph has none in
    degree 3 or more, and only its H^1 divisions in degree 1.  Only a graph
    basis reads one degree's table (:func:`_groups`); every other graph
    query reads every rule, as an x-ray query reads the kept groups.
    """
    table: dict[tuple[str, str, int], tuple] = {}
    if degree is None:
        h0 = h1 = True
        live = _POLE_SHIFTS
    else:
        # the power of each part a degree-k entry holds (a genus-1 surface
        # holds every surface part of its degree); a division needs power 0,
        # and a point's value and an H^0 part share theirs
        powers = {
            part: part_power(part, degree)
            for kind, genus in (("point", 0), ("surface", 1))
            for part, _, _ in entry_parts(kind, genus, degree)
        }
        h0, h1 = powers.get("c0") == 0, powers.get("c1") == 0
        live = [part for part, shift in _POLE_SHIFTS.items() if powers.get(part, -shift) < -shift]

    def rules(cid: str, part: str, index: int = 0) -> tuple:
        return table.setdefault((cid, part, index), ([], ()))

    if h0:
        for (a, kind_a, _), (b, kind_b, _) in zip(components, components[1:]):
            head = ("div", (a, b), ("h0",))
            rules(a, "c" if kind_a == "point" else "c0")[0].append((head, 1))
            rules(b, "c" if kind_b == "point" else "c0")[0].append((head, -1))
    if graph is None:
        return table, 1
    if h1 and len(graph.surfaces) == 2:
        lower, upper = _surface_pair(graph)
        for j, row in enumerate(graph._h1_rows):
            head = ("div", (lower.id, upper.id), ("h1", j))
            for i, m in row:
                rules(lower.id, "c1", i)[0].append((head, m))
            rules(upper.id, "c1", j)[0].append((head, -1))
    if not live:
        return table, 1
    # the one denominator is the lcm of the scales' denominators, taken in
    # the loop that finds the poles
    found = []
    denominator = 1
    for v in graph.isolated + graph.surfaces:
        for part, (num, den) in _localization_rules(graph, v).items():
            if part in live:
                found.append(((v.id, part, 0), _POLE_SHIFTS[part], num, den))
                if den != 1:
                    denominator = lcm(denominator, den)
    # a part has at most one pole, stated last; equal poles share one tuple,
    # so the points of one weight product hold one between them
    poles: dict[tuple[int, int], tuple] = {}
    for key, shift, num, den in found:
        pole = (shift, num * (denominator // den))
        entry = table.get(key)
        table[key] = (entry[0] if entry else (), poles.setdefault(pole, (pole,)))
    return table, denominator


def _surface_pair(graph: DecoratedGraph) -> tuple[FatVertex, FatVertex]:
    """The two fixed surfaces of a valid graph, the one at the minimum first."""
    a, b = graph.surfaces
    return (a, b) if graph._places[a.id] == "min" else (b, a)


def _route(out: dict, rules: tuple, degree: int, terms: dict, c: int = 1) -> None:
    """Add ``c`` times a degree-k part's obstructions to ``out``.

    ``terms`` are the part's terms in adapted coordinates, where the
    parameter (or the character) is the first variable: a slot's or a
    class term's monomial image (:func:`_rows`, :func:`_class_terms`).  A
    term ``t * v^E`` with ``E[0] = 0`` adds ``factor * c * t`` at
    ``head + (degree, E)`` for each division; it adds ``n * c * t`` at
    ``("pole", E[0] + shift, E[1:])`` for each pole ``(shift, n)`` whose
    power ``E[0] + shift`` is negative.  The factors
    and numerators of :func:`_constraint_table` are ``int``s, so integer
    terms and coefficients give integer sums: a pole key holds its value
    times the table's denominator.  Terms of different images that meet at
    one key are summed there, so a key may end at zero.
    """
    divisions, poles = rules
    for exps, t in terms.items():
        t *= c
        if not exps[0]:
            for head, factor in divisions:
                key = head + (degree, exps)
                out[key] = out.get(key, 0) + factor * t
        for shift, n in poles:
            power = exps[0] + shift
            if power < 0:
                key = ("pole", power, exps[1:])
                out[key] = out.get(key, 0) + n * t


def _scaled_parts(
    document, rank: int | None, alpha: EquivariantClass
) -> tuple[int, dict[tuple[str, str, int], list]]:
    """The nonzero parts of ``alpha``, a class of the graph or x-ray
    ``document`` at ``rank`` (:func:`_check_addressing`, checked first), as
    integers over one common denominator.

    Returns ``(d, parts)``: ``d`` is the least common multiple of the
    denominators of every coefficient of the class, and ``parts`` maps
    ``(component, part, index)`` to the ``(degree, value)`` of each nonzero
    part in that place, ``value`` being the part times ``d``: an ``int`` for
    a circle action, an ``{exponents: int}`` term dict for a torus.  The
    class is read once; a query reads these parts only, so it adds
    integers (times a division's factor or a pole's numerator, both
    ``int``s) and divides by ``d`` at the end.
    """
    _check_addressing(document, rank, alpha)
    found = []
    for cid, cls in alpha.components.items():
        for degree, entry in cls.entries.items():
            for part, index, _ in entry_parts(cls.kind, cls.genus, degree):
                value = entry_part(entry, part, index)
                if value:
                    found.append(((cid, part, index), degree, value))
    parts: dict[tuple[str, str, int], list] = {}
    if alpha.rank is None:
        d = lcm(*(value.denominator for _, _, value in found))
        for key, degree, value in found:
            parts.setdefault(key, []).append((degree, value.numerator * (d // value.denominator)))
        return d, parts
    d = lcm(*(c.denominator for _, _, value in found for c in value.terms.values()))
    for key, degree, value in found:
        scaled = {e: c.numerator * (d // c.denominator) for e, c in value.terms.items()}
        parts.setdefault(key, []).append((degree, scaled))
    return d, parts


def _class_terms(table, parts: dict, substitution: LinearSubstitution | None):
    """Every term of every scaled part (:func:`_scaled_parts`) the table
    names, in every degree, as ``(rules, degree, image, c)``: the part's
    rules, the term's monomial image in adapted coordinates (see
    :func:`_route`) and its ``int`` coefficient ``c``.  A torus term's image
    is the substitution's memoised image of its monomial, shared and read
    only, as :func:`_rows` routes a basis slot; a circle-action value is one
    term of image ``{(p,): 1}``, p its power of the parameter
    (:func:`part_power`)."""
    for key, rules in table.items():
        for degree, value in parts.get(key, ()):
            if substitution is None:
                yield rules, degree, {(part_power(key[1], degree),): 1}, value
            else:
                for exps, c in value.items():
                    yield rules, degree, substitution._monomial(exps), c


def _class_obstructions(group: tuple, scaled: tuple[int, dict]) -> dict[tuple, Fraction]:
    """The nonzero obstructions of a class under one constraint group (see
    :func:`_graph_group`), from its :func:`_scaled_parts` ``(d, parts)``:
    each term of each part routed once through its monomial's image, times
    its ``int`` coefficient (:func:`_class_terms`), and each nonzero sum
    divided back by ``d``, a pole's by ``d`` times the group's pole
    denominator."""
    _, table, substitution, denominator = group
    d, parts = scaled
    out: dict[tuple, int] = {}
    for rules, degree, image, c in _class_terms(table, parts, substitution):
        _route(out, rules, degree, image, c)
    poles = d * denominator
    return {key: Fraction(c, poles if key[0] == "pole" else d) for key, c in out.items() if c}


def _localization_sum(group: tuple, scaled: tuple[int, dict]) -> Laurent:
    """The localization sum of a class under a graph's constraint group (see
    :func:`_graph_group`), from its :func:`_scaled_parts` ``(d, parts)``,
    read off the terms of :func:`_class_terms`: each pole ``(shift, n)`` of
    a part adds ``n * c * t`` for each term ``t * v^E`` of a class term's
    image, ``c`` its coefficient, at the power ``E[0] + shift``, negative
    or not (:func:`_route` keeps only the negative ones), in integers, and
    every coefficient is divided back once by ``d`` times the group's pole
    denominator.  The coefficients are scalars for a circle action and,
    along a character, polynomials in the ``rank - 1`` remaining variables
    ``E[1:]``."""
    _, table, substitution, denominator = group
    d, parts = scaled
    d *= denominator
    total: dict[int, dict[tuple, int]] = {}
    for (_, poles), _, image, c in _class_terms(table, parts, substitution):
        for exps, t in image.items():
            t *= c
            for shift, n in poles:
                coeff = total.setdefault(exps[0] + shift, {})
                coeff[exps[1:]] = coeff.get(exps[1:], 0) + n * t
    if substitution is None:
        return Laurent({power: Fraction(coeff[()], d) for power, coeff in total.items()})
    nvars = substitution.nout - 1
    return Laurent({
        power: MPoly._trusted(nvars, {e: Fraction(c, d) for e, c in coeff.items() if c})
        for power, coeff in total.items()
    })


def _graph_group(graph: DecoratedGraph, rank=None, lam=None) -> tuple:
    """The one constraint group of a graph, along the character ``lam`` of a
    rank-``rank`` torus or, without one, for the circle action.

    A group ``(tag, table, substitution, denominator)`` is all of a graph's
    image conditions or one x-ray piece's (``XRay._groups``): ``tag``
    prefixes its obstruction keys (the piece id, or nothing), ``table`` and
    ``denominator`` are the full :func:`_constraint_table` of its
    components, and ``substitution`` rewrites a part along the character
    (None for a circle action).  Every graph query but a basis reads this
    group (a basis reads one degree's table, :func:`_groups`), as every
    x-ray query reads the x-ray's kept groups.  Raises unless the
    character has ``rank`` primitive integer entries and the graph is
    valid, checked in that order; a class's addressing is checked after
    both, as its parts are read (:func:`_scaled_parts`).
    """
    substitution = None
    if lam is not None:
        if len(lam) != rank:
            raise InputError(f"character must have {rank} entries")
        substitution = character_substitution(lam)
    _refuse_invalid(graph)
    table, denominator = _constraint_table(graph._fixed_components, graph)
    return (), table, substitution, denominator


def _groups(document, degree: int):
    """The constraint groups of a degree-k basis: a graph's one group, built
    per query from the table of that degree only (no other graph query reads
    one, :func:`_graph_group`), or an x-ray's kept groups, one per piece,
    for every degree alike (along a character a part's power of the
    parameter varies by monomial, so no rule is left out by degree)."""
    if document.rank is None:
        table, denominator = _constraint_table(document._fixed_components, document, degree)
        return [((), table, None, denominator)]
    return document._groups.values()


def _rows(groups, degree: int, slots: list[Slot]) -> dict[tuple, dict[int, int]]:
    """The rows of the degree-k image conditions of ``groups`` over
    ``slots``, ``{tag + obstruction key: {slot position: int}}``: each
    group's table is walked by its keys, as :func:`_class_terms` walks a
    class, and every slot at a key routes its unit terms through the key's
    rules (``{(p,): 1}`` for a circle action, p the part's power of the
    parameter; the memoised image of the slot's monomial under the
    substitution for a torus), all in ints: a pole entry is its value
    times the group's denominator."""
    positions: dict[tuple, list[int]] = {}  # by (component, part, index)
    for i, slot in enumerate(slots):
        positions.setdefault(slot[:3], []).append(i)
    rows: dict[tuple, dict[int, int]] = {}
    for tag, table, substitution, _ in groups:
        for key, rules in table.items():
            for i in positions.get(key, ()):
                if substitution is None:
                    terms = {(part_power(key[1], degree),): 1}
                else:
                    terms = substitution._monomial(slots[i].exps)
                column: dict[tuple, int] = {}
                _route(column, rules, degree, terms)
                for obstruction, value in column.items():
                    rows.setdefault(tag + obstruction, {})[i] = value
    return rows


def _image_vectors(
    document, degree: int, max_degree: int
) -> tuple[list[Slot], list[dict[int, int | Fraction]]]:
    """The slots of the degree-k image of a graph or an x-ray and its
    canonical basis (reduced echelon, fixed slot order) as sparse vectors
    over them, cut out by the :func:`_rows` of the document's
    :func:`_groups`.

    An invalid document is refused first, then a degree or a cutoff that
    is not an int, then a negative degree or one over the cutoff; the
    groups are built only when the degree has slots."""
    _refuse_invalid(document)
    _check_degree(degree)
    _check_degree(max_degree, "max_degree")
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree > max_degree:
        raise InputError(f"degree {degree} exceeds the cutoff {max_degree}")
    slots = degree_slots(document, degree)
    if not slots:
        return slots, []
    rows = _rows(_groups(document, degree), degree, slots)
    return slots, nullspace(list(rows.values()), len(slots))


def _image_basis(document, degree: int, max_degree: int) -> list[EquivariantClass]:
    """The canonical basis of :func:`_image_vectors` as classes."""
    slots, vectors = _image_vectors(document, degree, max_degree)
    return [_class_from_sparse(document, degree, slots, vec) for vec in vectors]


def abbv_degree2_functional(graph: DecoratedGraph) -> dict[str, int | Fraction]:
    """The linear functional cutting out degree 2 of the image, slot by slot.

    This is the coefficient of u^-1 in each unit class's localization sum,
    with a zero for every slot it does not involve, read off the graph's one
    group: every pole of its table meets a degree-2 part.
    """
    group = _graph_group(graph)
    slots = degree_slots(graph, 2)
    pole = _rows([group], 2, slots).get(("pole", -1, ()), {})
    return {slot.label: ratio(pole.get(i, 0), group[3]) for i, slot in enumerate(slots)}


@dataclass(frozen=True)
class MembershipViolation:
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class MembershipDecision:
    member: bool
    violations: tuple[MembershipViolation, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": "membership",
            "member": self.member,
            "violations": [v.to_dict() for v in self.violations],
        }


def check_membership(graph: DecoratedGraph, alpha: EquivariantClass) -> MembershipDecision:
    """Is the restriction tuple in the image of the equivariant restriction map?

    Routes the class's parts through the graph's :func:`_constraint_table`
    and reads the violations off the obstruction keys: an H^0 division
    (only degree 0 reaches one) reports "degree0-constancy", an H^1
    division (only degree 1) "degree1-surface-match", the pole at u^-1
    (only degree 2 reaches it) is the "abbv-degree2" residue, and all poles
    together are those of the localization sum ("localization-pole").
    """
    found = _class_obstructions(_graph_group(graph), _scaled_parts(graph, None, alpha))
    divisions = {key[2][0] for key in found if key[0] == "div"}
    violations: list[MembershipViolation] = []

    if "h0" in divisions:
        rendered = ", ".join(
            f"{s.component}: {slot_value(alpha, 0, s)}" for s in degree_slots(graph, 0)
        )
        violations.append(
            MembershipViolation("degree0-constancy", f"degree-0 parts differ ({rendered})")
        )

    if "h1" in divisions:
        lower, upper = _surface_pair(graph)
        v_lower, v_upper = (
            alpha.restriction(s.id).get(1, SurfaceClass(s.genus)).c1 for s in (lower, upper)
        )
        # pinned bytes: each H^1 part shows as the repr of the equal Fraction
        violations.append(
            MembershipViolation(
                "degree1-surface-match",
                f"H^1 parts disagree under the identification "
                f"({lower.id}: {list(map(Fraction, v_lower))} "
                f"vs {upper.id}: {list(map(Fraction, v_upper))})",
            )
        )

    residue = found.get(("pole", -1, ()))
    if residue:
        violations.append(
            MembershipViolation(
                "abbv-degree2", f"degree-2 localization relation fails with residue {residue}"
            )
        )

    poles = Laurent({key[1]: c for key, c in found.items() if key[0] == "pole"})
    if poles:
        violations.append(
            MembershipViolation("localization-pole", f"localization sum has poles: {poles!r}")
        )

    return MembershipDecision(not violations, tuple(violations))


def image_basis(
    graph: DecoratedGraph, degree: int, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[EquivariantClass]:
    """Canonical basis (reduced echelon, fixed slot order) of the degree-k image."""
    return _image_basis(graph, degree, max_degree)


def in_image_span(graph: DecoratedGraph, degree: int, alpha: EquivariantClass) -> bool:
    """Whether the degree-k part of alpha lies in the degree-k image: the
    :func:`check_membership` verdict on that part, read off the graph's one
    group (:func:`_graph_group`) like every graph query but a basis."""
    return check_membership(graph, alpha.homogeneous(degree)).member


def promote_to_torus(alpha: EquivariantClass) -> EquivariantClass:
    """Rewrite a circle-action class as a rank-1 polynomial class: a part
    carrying a power of the parameter (:func:`~equicoh.core.part_power`)
    becomes that power of the one variable."""
    if alpha.rank is not None:
        raise InputError("class is already in polynomial form")

    def lift(part: str, value, k: int) -> MPoly:
        return MPoly.monomial((part_power(part, k),), value) if value else MPoly.zero(1)

    comps: dict[str, ComponentClass] = {}
    for cid, cls in alpha.components.items():
        entries = {}
        for k, value in cls.entries.items():
            entries[k] = map_parts(cls.kind, value, lift, k)
        comps[cid] = ComponentClass(cls.kind, cls.genus, entries, 1)
    return EquivariantClass(comps, 1, alpha.fixed_components)


def character_substitution(lam) -> LinearSubstitution:
    """The substitution into coordinates where the character is the first variable."""
    return LinearSubstitution(unimodular_completion(lam))


def localize_torus(graph: DecoratedGraph, rank: int, lam, alpha: EquivariantClass) -> Laurent:
    """Localization sum with the parameter replaced by the character form.

    Returns a Laurent element in the character direction whose coefficients
    are polynomials in the complementary directions.  Each term of the class
    is read through its monomial's image in coordinates where the character
    is the first variable (:func:`_class_terms`), and the poles of the
    graph's :func:`_constraint_table` apply power by power, as in
    :func:`localize`; H^1 parts have none.
    :func:`torus_obstructions` keeps the negative powers of this sum.
    """
    return _localization_sum(_graph_group(graph, rank, lam), _scaled_parts(graph, rank, alpha))


def torus_obstructions(
    graph: DecoratedGraph,
    rank: int,
    lam,
    alpha: EquivariantClass,
) -> dict[tuple, Fraction]:
    """All nonzero obstruction coefficients for membership under a character.

    Keys tag divisibility residues ("div", pair, part, degree, monomial)
    and localization poles ("pole", power, monomial).  The class is in the
    image locally along this character iff the dict is empty.  Each term
    of the class is routed through its monomial's image and the graph's
    :func:`_constraint_table` (:func:`_class_obstructions`).
    """
    group = _graph_group(graph, rank, lam)
    return _class_obstructions(group, _scaled_parts(graph, rank, alpha))


def check_membership_torus(
    graph: DecoratedGraph, rank: int, lam, alpha: EquivariantClass
) -> MembershipDecision:
    """Membership along one primitive character of a higher-rank torus.

    The restriction differences must be divisible by the character form and
    the localization sum under the substituted parameter must be pole-free.
    With rank 1 this reduces to :func:`check_membership` verdicts exactly.
    """
    violations = _obstruction_violations(torus_obstructions(graph, rank, lam, alpha))
    return MembershipDecision(not violations, tuple(violations))


def _obstruction_violations(obstructions: dict[tuple, Fraction]) -> list[MembershipViolation]:
    """The violations reported for a dict of :func:`torus_obstructions` keys:
    one "divisibility" per pair and degree, one "localization-pole" for all
    poles together."""
    divisions = sorted({(key[1], key[3]) for key in obstructions if key[0] == "div"})
    violations = [
        MembershipViolation(
            "divisibility",
            f"restrictions to {pair[0]!r} and {pair[1]!r} are not congruent "
            f"modulo the character at degree {degree}",
        )
        for pair, degree in divisions
    ]
    powers = sorted({key[1] for key in obstructions if key[0] == "pole"})
    if powers:
        violations.append(
            MembershipViolation(
                "localization-pole",
                f"localization under the character has poles of order {powers}",
            )
        )
    return violations


def parse_class(text, graph: DecoratedGraph) -> EquivariantClass:
    """Parse a circle-action class document against its graph."""
    return _parse_class(text, graph)


def _parse_class(text, document) -> EquivariantClass:
    """Parse a class document against its graph or x-ray.

    A point entry and each part of a surface's ``{c0, c1, c2}`` object is a
    rational for a graph and, for an x-ray of rank r, a polynomial in r
    variables written as ``[exponents, coefficient]`` pairs; a missing part
    is zero.  The component ids must be the document's, and the class
    carries the document's ``_fixed_components``.

    Each part is read into its domain, and once a component's entries are
    read, its record is built by the checked constructor of
    :class:`ComponentClass`, so a record's rules are checked on one path.
    Each distinct coefficient text is read by :func:`parse_rational` once
    per document, at its first place, through a dict local to this call
    (``rational``, also the scalar reader a polynomial's pairs go through),
    so a repeated text costs one lookup.
    """
    doc = _load_document(text)
    _check_keys_class(doc)
    comps_doc = doc["components"]
    if not isinstance(comps_doc, dict):
        raise SchemaError('"components" must be an object', "class")
    components = document._fixed_components
    rank = document.rank
    seen: dict[str, int | Fraction] = {}  # each coefficient text, read once

    def rational(value, where: str) -> int | Fraction:
        if type(value) is not str:
            return parse_rational(value, where)
        if (found := seen.get(value)) is None:
            found = seen[value] = parse_rational(value, where)
        return found

    def polynomial(value, where: str) -> MPoly:
        if not isinstance(value, list):
            raise SchemaError("polynomials are arrays of [exponents, coefficient] pairs", where)
        try:
            return poly_from_pairs(value, rank, rational, where)
        except InputError as exc:
            raise SchemaError(str(exc), where) from None

    if rank is None:
        owner, noun, zero, scalar = "graph", "rationals", 0, rational
    else:
        owner, noun, zero, scalar = "x-ray", "polynomials", MPoly.zero(rank), polynomial

    _check_ids(owner, [cid for cid, _, _ in components], sorted(comps_doc))
    comps: dict[str, ComponentClass] = {}
    for cid, kind, genus in components:
        entries = {}
        for key, value in _degree_items(comps_doc[cid], cid):
            where = f"components.{cid}.{key}"
            if kind == "point":
                entries[key] = scalar(value, where)
                continue
            if not isinstance(value, dict):
                raise SchemaError("surface entries are {c0, c1, c2} objects", where)
            extra = set(value) - {"c0", "c1", "c2"}
            if extra:
                raise SchemaError(f"unknown field(s) {sorted(extra)}", where)
            c0 = scalar(value["c0"], where) if "c0" in value else zero
            c2 = scalar(value["c2"], where) if "c2" in value else zero
            c1_doc = value.get("c1", [])
            if not isinstance(c1_doc, list) or len(c1_doc) not in (0, 2 * genus):
                raise SchemaError(f'"c1" must be a list of {2 * genus} {noun}', where)
            c1 = tuple(scalar(x, where) for x in c1_doc) or (zero,) * (2 * genus)
            entries[key] = SurfaceClass(genus, c0, c1, c2)
        comps[cid] = ComponentClass(kind, genus, entries, rank)
    return EquivariantClass(comps, rank, components)


def _check_keys_class(doc: dict) -> None:
    """The header of a class document, for a graph's class or an x-ray's:
    its fields, then "kind", "graph" and "components" in that order."""
    _check_keys(doc, _CLASS_KEYS, "class")
    if _require(doc, "kind", "class") != "class":
        raise SchemaError('field "kind" must be "class"', "class")
    if not isinstance(_require(doc, "graph", "class"), str):
        raise SchemaError('field "graph" must be a string', "class")
    _require(doc, "components", "class")


def _degree_items(obj, cid: str):
    if not isinstance(obj, dict):
        raise SchemaError("component entries must be objects", f"components.{cid}")
    items = []
    for key, value in obj.items():
        try:
            degree = int(key)
        except ValueError:
            raise SchemaError(f"degree key {key!r} is not an integer", f"components.{cid}") from None
        if str(degree) != key or degree < 0:
            raise SchemaError(f"degree key {key!r} is not canonical", f"components.{cid}")
        items.append((degree, value))
    return sorted(items)


def _entry_to_dict(entry, fmt) -> object:
    """JSON form of one restriction entry: ``fmt`` of a point value, or a
    surface's ``{c0, c1, c2}`` object of ``fmt``-ed parts."""
    if not isinstance(entry, SurfaceClass):
        return fmt(entry)
    return {"c0": fmt(entry.c0), "c1": [fmt(x) for x in entry.c1], "c2": fmt(entry.c2)}


def class_to_dict(alpha: EquivariantClass, graph_ref: str = "") -> dict:
    """Canonical JSON form of a class document: rationals as strings for a
    graph's class, polynomials as exponent-coefficient pairs for an x-ray's.
    Every component the class addresses is written, ``{}`` where it holds
    no entry."""
    fmt = format_rational if alpha.rank is None else poly_to_pairs
    comps: dict[str, dict] = {}
    for cid, _, _ in alpha.addressed():
        entries = alpha.restriction(cid)
        comps[cid] = {str(k): _entry_to_dict(entries[k], fmt) for k in sorted(entries)}
    return {"kind": "class", "graph": graph_ref, "components": comps}
