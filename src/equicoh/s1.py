"""Equivariant cohomology of a circle action from its decorated graph.

The fixed-point data determines everything computed here: Betti numbers
assemble from a five-row table of local contributions, the equivariant
Poincare series of the manifold and of its fixed set differ by a finite
polynomial counting the relations among the fixed components, and the
image of the restriction map to the fixed set is cut out by three kinds of
linear conditions: equality of degree-zero parts, matching of the
degree-one parts on the two fixed surfaces, and integrality of the
localization sum.  The degree-two instance of the localization condition
is assembled at runtime by localizing unit coordinate classes, never
hard-coded.

The same machinery runs with the equivariant parameter replaced by a
primitive integer character of a higher-rank torus: polynomials are moved
into coordinates where the character is the first variable, divisibility
becomes an exponent test, and the localization sum must again be free of
negative powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import ComponentClass, Laurent, PoincareSeries, SurfaceClass
from .errors import (
    DegenerateInputError,
    InputError,
    InternalInconsistencyError,
    SchemaError,
)
from .graph import (
    DecoratedGraph,
    FatVertex,
    IsolatedVertex,
    _load_document,
    format_rational,
    parse_rational,
    resolve_self_intersections,
    weight_product,
)
from .linalg import coordinates_in_span, nullspace, rref
from .mpoly import LinearSubstitution, MPoly, poly_to_pairs, unimodular_completion

DEFAULT_MAX_DEGREE = 12

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
    if genus < 0:
        raise InputError("genus must be nonnegative")
    return row(genus)


def _positions(graph: DecoratedGraph) -> dict[str, str]:
    y_min, y_max = graph.momentum_span()
    if y_min == y_max:
        raise DegenerateInputError("momentum map is constant")
    out = {}
    for v in list(graph.isolated) + list(graph.surfaces):
        out[v.id] = "min" if v.y == y_min else "max" if v.y == y_max else "interior"
    return out


def poincare_manifold(graph: DecoratedGraph) -> PoincareSeries:
    """Ordinary Poincare polynomial of the manifold, as a degree-4 numerator."""
    positions = _positions(graph)
    total = [0] * 5
    for v in graph.isolated:
        row = betti_contribution("point", positions[v.id])
        total = [a + b for a, b in zip(total, row)]
    for v in graph.surfaces:
        row = betti_contribution("surface", positions[v.id], v.genus)
        total = [a + b for a, b in zip(total, row)]
    return PoincareSeries(tuple(total), 0)


def poincare_fixed_set(graph: DecoratedGraph) -> PoincareSeries:
    """Ordinary Poincare polynomial of the fixed set."""
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
    if which in ("manifold", "M"):
        ordinary = poincare_manifold(graph)
    elif which in ("fixed", "fixed-set"):
        ordinary = poincare_fixed_set(graph)
    else:
        raise InputError(f"unknown series {which!r}")
    return PoincareSeries(ordinary.numerator, ordinary.denominator_power + 1)


def relation_counts(graph: DecoratedGraph) -> tuple[int, int, int]:
    """Number of relations in degrees 0, 1, 2 between fixed-set and manifold series.

    Also asserts the series identity these counts must satisfy; a failure
    means the graph data is internally inconsistent.
    """
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


def _surface_sign(vertex: FatVertex, graph: DecoratedGraph) -> int:
    y_min, y_max = graph.momentum_span()
    if vertex.y == y_min:
        return -1
    if vertex.y == y_max:
        return 1
    raise InputError(f"surface {vertex.id!r} is not extremal")


def euler_class(graph: DecoratedGraph, component_id: str) -> EquivariantEuler:
    resolved = resolve_self_intersections(graph)
    comp = resolved.find(component_id)
    if isinstance(comp, IsolatedVertex):
        return EquivariantEuler(
            component_id, "point", Laurent({2: Fraction(weight_product(comp))})
        )
    sign = _surface_sign(comp, resolved)
    g = comp.genus
    return EquivariantEuler(
        component_id,
        "surface",
        Laurent(
            {
                1: SurfaceClass(g, c0=sign),
                0: SurfaceClass(g, c2=comp.self_intersection),
            }
        ),
    )


def inverse_euler(graph: DecoratedGraph, component_id: str) -> Laurent:
    """The inverse of the Euler class in the localized module."""
    resolved = resolve_self_intersections(graph)
    comp = resolved.find(component_id)
    if isinstance(comp, IsolatedVertex):
        return Laurent({-2: Fraction(1, weight_product(comp))})
    sign = _surface_sign(comp, resolved)
    g = comp.genus
    return Laurent(
        {
            -1: SurfaceClass(g, c0=sign),
            -2: SurfaceClass(g, c2=-comp.self_intersection),
        }
    )


@dataclass
class EquivariantClass:
    """A tuple of fixed-component restrictions indexed by component id."""

    components: dict[str, ComponentClass] = field(default_factory=dict)
    rank: int | None = None

    def degrees(self) -> list[int]:
        out: set[int] = set()
        for cls in self.components.values():
            out.update(cls.entries)
        return sorted(out)

    def homogeneous(self, degree: int) -> EquivariantClass:
        comps = {
            cid: ComponentClass(
                cls.kind,
                cls.genus,
                {degree: cls.entries[degree]} if degree in cls.entries else {},
                cls.rank,
            )
            for cid, cls in self.components.items()
        }
        return EquivariantClass(comps, self.rank)

    def restricted(self, ids) -> EquivariantClass:
        return EquivariantClass({cid: self.components[cid] for cid in ids}, self.rank)

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
        return EquivariantClass(comps, None)


def _check_addressing(graph: DecoratedGraph, alpha: EquivariantClass, rank=None) -> None:
    expected = graph.component_ids()
    if sorted(alpha.components) != expected:
        raise InputError(
            f"class addresses {sorted(alpha.components)} but the graph has {expected}"
        )
    for v in graph.isolated:
        cls = alpha.components[v.id]
        if cls.kind != "point" or cls.rank != rank:
            raise InputError(f"component {v.id!r}: expected a point entry of rank {rank}")
    for v in graph.surfaces:
        cls = alpha.components[v.id]
        if cls.kind != "surface" or cls.genus != v.genus or cls.rank != rank:
            raise InputError(
                f"component {v.id!r}: expected a genus-{v.genus} surface entry of rank {rank}"
            )


def _add_localization(
    total: dict,
    resolved: DecoratedGraph,
    comp: IsolatedVertex | FatVertex,
    entries: dict,
    powers,
) -> None:
    """Add one fixed component's term of the localization sum to ``total``.

    The term is the integral over the component of its restriction times
    the inverse Euler class of its normal bundle, in the closed form stated
    in :func:`localize`: only point values and the H^0 and H^2 parts of a
    surface contribute, each shifted and scaled.  ``entries`` maps degree
    to restriction entry (a scalar for a point, a SurfaceClass for a
    surface); ``powers(value, half)`` lists the ``(p, coefficient of u^p)``
    pairs of a scalar of degree ``half`` in the parameter, which is
    :func:`_circle_powers` for a circle action.
    """

    def add(shift: int, scale, value, half: int) -> None:
        for p, coeff in powers(value, half):
            term = coeff * scale
            p += shift
            total[p] = total[p] + term if p in total else term

    if isinstance(comp, IsolatedVertex):
        scale = Fraction(1, weight_product(comp))
        for k, value in entries.items():
            add(-2, scale, value, k // 2)
        return
    sign = _surface_sign(comp, resolved)
    e = comp.self_intersection
    for k, entry in entries.items():
        if k % 2:
            continue
        if e:
            add(-2, -e, entry.c0, k // 2)
        if k >= 2:
            add(-1, sign, entry.c2, k // 2 - 1)


def _circle_powers(value: Fraction, half: int) -> tuple[tuple[int, Fraction], ...]:
    return ((half, value),)


def _vertices(graph: DecoratedGraph) -> dict[str, IsolatedVertex | FatVertex]:
    return {v.id: v for v in graph.isolated + graph.surfaces}


def localize(graph: DecoratedGraph, alpha: EquivariantClass) -> Laurent:
    """The localization sum over the fixed components, a scalar Laurent element.

    Each restriction is paired with the inverse Euler class of its normal
    bundle and surfaces are integrated out; for classes in the image of the
    restriction map the result is a polynomial.

    The pairing has a closed form.  A point of weights w1, w2 has inverse
    Euler class ``u^-2 / (w1 w2)``, so its value at ``u^p`` contributes at
    ``u^(p-2)``, scaled by ``1 / (w1 w2)``.  A surface of self-intersection
    e has ``sign u^-1 - e [S] u^-2``, the sign being -1 at the minimum and
    +1 at the maximum; integrated over the surface, its H^0 part at ``u^p``
    contributes at ``u^(p-2)`` scaled by ``-e``, its H^2 part at ``u^p``
    contributes at ``u^(p-1)`` scaled by the sign, and its H^1 parts
    contribute nothing.
    """
    _check_addressing(graph, alpha)
    resolved = resolve_self_intersections(graph)
    vertices = _vertices(resolved)
    total: dict[int, Fraction] = {}
    for cid in sorted(alpha.components):
        _add_localization(
            total, resolved, vertices[cid], alpha.components[cid].entries, _circle_powers
        )
    return Laurent(total)


@dataclass(frozen=True)
class Slot:
    """One coordinate of the degree-k restriction tuple space."""

    component: str
    part: str  # "c" (point), "c0", "c1" or "c2" (surface)
    index: int = 0
    label: str = ""


def _h1_name(index: int, genus: int) -> str:
    return f"a{index + 1}" if index < genus else f"b{index - genus + 1}"


def degree_slots(graph: DecoratedGraph, degree: int) -> list[Slot]:
    """Canonical coordinate order: components by id, then part order."""
    slots: list[Slot] = []
    for v in graph.isolated:
        if degree % 2 == 0:
            slots.append(Slot(v.id, "c", 0, f"{v.id}.c"))
    for v in graph.surfaces:
        if degree % 2 == 0:
            slots.append(Slot(v.id, "c0", 0, f"{v.id}.c0"))
            if degree >= 2:
                slots.append(Slot(v.id, "c2", 0, f"{v.id}.c2"))
        else:
            for i in range(2 * v.genus):
                slots.append(Slot(v.id, "c1", i, f"{v.id}.{_h1_name(i, v.genus)}"))
    slots.sort(key=lambda s: (s.component, {"c": 0, "c0": 0, "c1": 1, "c2": 2}[s.part], s.index))
    return slots


def _unit_restriction(
    comp: IsolatedVertex | FatVertex, degree: int, slot: Slot
) -> ComponentClass:
    """The restriction of ``unit_class(graph, degree, slot)`` to the slot's component."""
    if isinstance(comp, IsolatedVertex):
        return ComponentClass("point", 0, {degree: Fraction(1)}, None)
    g = comp.genus
    if slot.part == "c0":
        entry = SurfaceClass(g, c0=1)
    elif slot.part == "c2":
        entry = SurfaceClass(g, c2=1)
    else:
        c1 = tuple(Fraction(1 if i == slot.index else 0) for i in range(2 * g))
        entry = SurfaceClass(g, c1=c1)
    return ComponentClass("surface", g, {degree: entry}, None)


def unit_class(graph: DecoratedGraph, degree: int, slot: Slot) -> EquivariantClass:
    comps: dict[str, ComponentClass] = {}
    for v in graph.isolated:
        comps[v.id] = (
            _unit_restriction(v, degree, slot)
            if v.id == slot.component
            else ComponentClass("point", 0, {}, None)
        )
    for v in graph.surfaces:
        comps[v.id] = (
            _unit_restriction(v, degree, slot)
            if v.id == slot.component
            else ComponentClass("surface", v.genus, {}, None)
        )
    return EquivariantClass(comps, None)


def _unit_localizations(graph: DecoratedGraph, degree: int, slots: list[Slot]) -> list[Laurent]:
    """``localize(graph, unit_class(graph, degree, slot))`` for every slot.

    A unit class restricts to zero off its slot's component, so its
    localization sum is that component's single term, read off one
    resolved graph; the cost is linear in the number of slots.
    """
    resolved = resolve_self_intersections(graph)
    vertices = _vertices(resolved)
    out = []
    for slot in slots:
        comp = vertices[slot.component]
        terms: dict[int, Fraction] = {}
        unit = _unit_restriction(comp, degree, slot)
        _add_localization(terms, resolved, comp, unit.entries, _circle_powers)
        out.append(Laurent(terms))
    return out


def slot_value(alpha: EquivariantClass, degree: int, slot: Slot) -> Fraction:
    """The coordinate of the degree-k part of alpha at one slot."""
    cls = alpha.components[slot.component]
    if slot.part == "c":
        return Fraction(cls.entries.get(degree, Fraction(0)))
    entry = cls.entry(degree)
    if slot.part == "c0":
        return Fraction(entry.c0)
    if slot.part == "c2":
        return Fraction(entry.c2)
    return Fraction(entry.c1[slot.index])


def class_to_vector(graph: DecoratedGraph, degree: int, alpha: EquivariantClass) -> list[Fraction]:
    return [slot_value(alpha, degree, slot) for slot in degree_slots(graph, degree)]


def class_from_vector(
    graph: DecoratedGraph, degree: int, values
) -> EquivariantClass:
    return _class_from_slots(graph, degree, degree_slots(graph, degree), values)


def _class_from_slots(
    graph: DecoratedGraph, degree: int, slots: list[Slot], values
) -> EquivariantClass:
    if len(values) != len(slots):
        raise InputError(f"expected {len(slots)} coordinates, got {len(values)}")
    parts: dict[str, dict[tuple[str, int], Fraction]] = {}
    for slot, value in zip(slots, values):
        parts.setdefault(slot.component, {})[(slot.part, slot.index)] = Fraction(value)
    comps: dict[str, ComponentClass] = {}
    for v in graph.isolated:
        value = parts.get(v.id, {}).get(("c", 0), Fraction(0))
        comps[v.id] = ComponentClass("point", 0, {degree: value} if value else {}, None)
    for v in graph.surfaces:
        rec = parts.get(v.id, {})
        g = v.genus
        entry = SurfaceClass(
            g,
            rec.get(("c0", 0), Fraction(0)),
            tuple(rec.get(("c1", i), Fraction(0)) for i in range(2 * g)),
            rec.get(("c2", 0), Fraction(0)),
        )
        comps[v.id] = ComponentClass("surface", g, {degree: entry} if entry else {}, None)
    return EquivariantClass(comps, None)


def abbv_degree2_functional(graph: DecoratedGraph) -> dict[str, Fraction]:
    """The linear functional cutting out degree 2 of the image, slot by slot.

    Assembled by localizing each unit coordinate class and reading off the
    u^-1 coefficient.
    """
    slots = degree_slots(graph, 2)
    return {
        slot.label: Fraction(loc.coefficient(-1))
        for slot, loc in zip(slots, _unit_localizations(graph, 2, slots))
    }


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

    Checks the three conditions cutting out the image (degree-0 constancy,
    degree-1 surface matching, the degree-2 localization relation) and, as
    a redundant cross-check, that the full localization sum has no poles.
    """
    _check_addressing(graph, alpha)
    violations: list[MembershipViolation] = []

    degree0 = []
    for cid in sorted(alpha.components):
        cls = alpha.components[cid]
        value = cls.entries.get(0, Fraction(0))
        degree0.append((cid, value.c0 if isinstance(value, SurfaceClass) else value))
    if any(v != degree0[0][1] for _, v in degree0):
        rendered = ", ".join(f"{cid}: {v}" for cid, v in degree0)
        violations.append(
            MembershipViolation("degree0-constancy", f"degree-0 parts differ ({rendered})")
        )

    if len(graph.surfaces) == 2:
        lower, upper = sorted(graph.surfaces, key=lambda v: v.y)
        g = lower.genus
        matrix = graph.identification_matrix()
        v_lower = alpha.components[lower.id].entry(1).c1
        v_upper = alpha.components[upper.id].entry(1).c1
        mapped = tuple(
            sum((matrix[j][i] * v_lower[i] for i in range(2 * g)), start=Fraction(0))
            for j in range(2 * g)
        )
        if any(a != b for a, b in zip(mapped, v_upper)):
            violations.append(
                MembershipViolation(
                    "degree1-surface-match",
                    f"H^1 parts disagree under the identification "
                    f"({lower.id}: {list(v_lower)} vs {upper.id}: {list(v_upper)})",
                )
            )

    functional = abbv_degree2_functional(graph)
    vector = class_to_vector(graph, 2, alpha.homogeneous(2))
    total = sum(
        (coeff * value for coeff, value in zip(functional.values(), vector)),
        start=Fraction(0),
    )
    if total != 0:
        violations.append(
            MembershipViolation(
                "abbv-degree2", f"degree-2 localization relation fails with residue {total}"
            )
        )

    poles = localize(graph, alpha).negative_part()
    if poles:
        violations.append(
            MembershipViolation("localization-pole", f"localization sum has poles: {poles!r}")
        )

    return MembershipDecision(not violations, tuple(violations))


def image_basis(
    graph: DecoratedGraph, degree: int, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[EquivariantClass]:
    """Canonical basis (reduced echelon, fixed slot order) of the degree-k image."""
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree > max_degree:
        raise InputError(f"degree {degree} exceeds the cutoff {max_degree}")
    slots = degree_slots(graph, degree)
    if not slots:
        return []
    rows: list[list[Fraction]] = []
    if degree == 0:
        for i in range(len(slots) - 1):
            row = [Fraction(0)] * len(slots)
            row[i] = Fraction(1)
            row[i + 1] = Fraction(-1)
            rows.append(row)
    if degree == 1 and len(graph.surfaces) == 2:
        lower, upper = sorted(graph.surfaces, key=lambda v: v.y)
        g = lower.genus
        matrix = graph.identification_matrix()
        position = {(s.component, s.index): i for i, s in enumerate(slots)}
        for j in range(2 * g):
            row = [Fraction(0)] * len(slots)
            for i in range(2 * g):
                if matrix[j][i]:
                    row[position[(lower.id, i)]] += Fraction(matrix[j][i])
            row[position[(upper.id, j)]] -= Fraction(1)
            rows.append(row)
    localizations = _unit_localizations(graph, degree, slots)
    negative_powers = sorted(
        {p for loc in localizations for p in loc.terms if p < 0}
    )
    for p in negative_powers:
        rows.append([Fraction(loc.coefficient(p)) for loc in localizations])
    return [
        _class_from_slots(graph, degree, slots, vec) for vec in nullspace(rows, len(slots))
    ]


def in_image_span(
    graph: DecoratedGraph, degree: int, alpha: EquivariantClass,
    basis: list[EquivariantClass] | None = None,
) -> bool:
    """Whether the degree-k part of alpha lies in the span of the image basis."""
    if basis is None:
        basis = image_basis(graph, degree)
    matrix, _ = rref([class_to_vector(graph, degree, b) for b in basis])
    vector = class_to_vector(graph, degree, alpha.homogeneous(degree))
    return coordinates_in_span(matrix, vector) is not None


def promote_to_torus(alpha: EquivariantClass) -> EquivariantClass:
    """Rewrite a circle-action class as a rank-1 polynomial class."""
    if alpha.rank is not None:
        raise InputError("class is already in polynomial form")
    comps: dict[str, ComponentClass] = {}
    for cid, cls in alpha.components.items():
        entries: dict[int, object] = {}
        for k, value in cls.entries.items():
            if cls.kind == "point":
                entries[k] = MPoly.monomial((k // 2,), value)
            else:
                g = cls.genus
                zero = MPoly.zero(1)
                if k % 2 == 0:
                    c0 = MPoly.monomial((k // 2,), value.c0)
                    c2 = (
                        MPoly.monomial(((k - 2) // 2,), value.c2)
                        if k >= 2
                        else zero
                    )
                    entries[k] = SurfaceClass(g, c0, tuple(zero for _ in range(2 * g)), c2)
                else:
                    c1 = tuple(MPoly.monomial(((k - 1) // 2,), x) for x in value.c1)
                    entries[k] = SurfaceClass(g, zero, c1, zero)
        comps[cid] = ComponentClass(cls.kind, cls.genus, entries, 1)
    return EquivariantClass(comps, 1)


def _adapted_split(p: MPoly, substitution: LinearSubstitution) -> dict[int, MPoly]:
    """Rewrite in character-adapted coordinates and split off powers of it."""
    return substitution(p).split_leading()


def character_substitution(lam) -> LinearSubstitution:
    """The substitution into coordinates where the character is the first variable."""
    return LinearSubstitution(unimodular_completion(lam))


def localize_torus(
    graph: DecoratedGraph,
    rank: int,
    lam,
    alpha: EquivariantClass,
    *,
    substitution: LinearSubstitution | None = None,
    resolved: DecoratedGraph | None = None,
) -> Laurent:
    """Localization sum with the parameter replaced by the character form.

    Returns a Laurent element in the character direction whose coefficients
    are polynomials in the complementary directions.  Each point value and
    each H^0 and H^2 part of a surface is rewritten in coordinates where the
    character is the first variable and split into powers of it; the closed
    form of :func:`localize` then applies power by power.  A point of
    weights w1, w2 sends the part at power p to ``p - 2`` scaled by
    ``1 / (w1 w2)``; a surface of self-intersection e sends its H^0 part at
    p to ``p - 2`` scaled by ``-e`` and its H^2 part at p to ``p - 1``
    scaled by its sign.  H^1 parts contribute nothing and are never
    substituted.  A caller that localizes many classes
    along one character passes the prepared ``substitution`` (see
    :func:`character_substitution`) and the ``resolved`` graph
    (``resolve_self_intersections(graph)``); otherwise both are built here.
    """
    if len(lam) != rank:
        raise InputError(f"character must have {rank} entries")
    if substitution is None:
        substitution = character_substitution(lam)
    if resolved is None:
        resolved = resolve_self_intersections(graph)

    def powers(value: MPoly, half: int):
        return _adapted_split(value, substitution).items()

    total: dict[int, MPoly] = {}
    for cid in sorted(alpha.components):
        _add_localization(
            total, resolved, resolved.find(cid), alpha.components[cid].entries, powers
        )
    return Laurent(total)


def torus_obstructions(
    graph: DecoratedGraph,
    rank: int,
    lam,
    alpha: EquivariantClass,
    *,
    substitution: LinearSubstitution | None = None,
    resolved: DecoratedGraph | None = None,
) -> dict[tuple, Fraction]:
    """All nonzero obstruction coefficients for membership under a character.

    Keys tag divisibility residues ("div", pair, part, degree, monomial)
    and localization poles ("pole", power, monomial).  The class is in the
    image locally along this character iff the dict is empty.  The
    optional ``substitution`` and ``resolved`` graph are passed on to
    :func:`localize_torus`; they are built here when omitted.
    """
    if len(lam) != rank:
        raise InputError(f"character must have {rank} entries")
    if substitution is None:
        substitution = character_substitution(lam)
    _check_addressing(graph, alpha, rank)
    out: dict[tuple, Fraction] = {}

    ids = graph.component_ids()
    degrees = alpha.degrees()

    def h0_part(cid: str, k: int) -> MPoly:
        cls = alpha.components[cid]
        if cls.kind == "point":
            value = cls.entries.get(k)
            return value if value is not None else MPoly.zero(rank)
        return cls.entry(k).c0

    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        for k in degrees:
            if k % 2:
                continue
            diff = h0_part(a, k) - h0_part(b, k)
            if not diff:
                continue
            for exps, coeff in substitution(diff).terms.items():
                if exps[0] == 0:
                    out[("div", (a, b), ("h0",), k, exps)] = coeff

    if len(graph.surfaces) == 2:
        lower, upper = sorted(graph.surfaces, key=lambda v: v.y)
        g = lower.genus
        matrix = graph.identification_matrix()
        for k in degrees:
            if k % 2 == 0:
                continue
            c1_lower = alpha.components[lower.id].entry(k).c1
            c1_upper = alpha.components[upper.id].entry(k).c1
            for j in range(2 * g):
                diff = sum(
                    (matrix[j][i] * c1_lower[i] for i in range(2 * g) if matrix[j][i]),
                    start=MPoly.zero(rank),
                ) - c1_upper[j]
                if not diff:
                    continue
                for exps, coeff in substitution(diff).terms.items():
                    if exps[0] == 0:
                        out[("div", (lower.id, upper.id), ("h1", j), k, exps)] = coeff

    localization = localize_torus(
        graph, rank, lam, alpha, substitution=substitution, resolved=resolved
    )
    for power, value in localization.terms.items():
        if power < 0:
            for exps, coeff in value.terms.items():
                out[("pole", power, exps)] = coeff
    return out


def check_membership_torus(
    graph: DecoratedGraph, rank: int, lam, alpha: EquivariantClass
) -> MembershipDecision:
    """Membership along one primitive character of a higher-rank torus.

    The restriction differences must be divisible by the character form and
    the localization sum under the substituted parameter must be pole-free.
    With rank 1 this reduces to :func:`check_membership` verdicts exactly.
    """
    obstructions = torus_obstructions(graph, rank, lam, alpha)
    seen: dict[tuple, list] = {}
    poles: list[tuple] = []
    for key in sorted(obstructions, key=repr):
        if key[0] == "div":
            seen.setdefault((key[1], key[3]), []).append(key)
        else:
            poles.append(key)
    violations = [
        MembershipViolation(
            "divisibility",
            f"restrictions to {pair[0]!r} and {pair[1]!r} are not congruent "
            f"modulo the character at degree {degree}",
        )
        for pair, degree in sorted(seen)
    ]
    if poles:
        powers = sorted({key[1] for key in poles})
        violations.append(
            MembershipViolation(
                "localization-pole",
                f"localization under the character has poles of order {powers}",
            )
        )
    return MembershipDecision(not violations, tuple(violations))


def parse_class(text, graph: DecoratedGraph) -> EquivariantClass:
    """Parse a circle-action class document against its graph."""
    doc = _load_document(text)
    _check_keys_class(doc)
    comps_doc = doc["components"]
    if not isinstance(comps_doc, dict):
        raise SchemaError('"components" must be an object', "class")
    if sorted(comps_doc) != graph.component_ids():
        raise InputError(
            f"class addresses {sorted(comps_doc)} but the graph has {graph.component_ids()}"
        )
    comps: dict[str, ComponentClass] = {}
    for v in graph.isolated:
        entries = {}
        for key, value in _degree_items(comps_doc[v.id], v.id):
            entries[key] = parse_rational(value, f"components.{v.id}.{key}")
        comps[v.id] = ComponentClass("point", 0, entries, None)
    for v in graph.surfaces:
        g = v.genus
        entries = {}
        for key, value in _degree_items(comps_doc[v.id], v.id):
            where = f"components.{v.id}.{key}"
            if not isinstance(value, dict):
                raise SchemaError("surface entries are {c0, c1, c2} objects", where)
            extra = set(value) - {"c0", "c1", "c2"}
            if extra:
                raise SchemaError(f"unknown field(s) {sorted(extra)}", where)
            c0 = parse_rational(value.get("c0", 0), where)
            c2 = parse_rational(value.get("c2", 0), where)
            c1_doc = value.get("c1", [])
            if not isinstance(c1_doc, list) or len(c1_doc) not in (0, 2 * g):
                raise SchemaError(f'"c1" must be a list of {2 * g} rationals', where)
            c1 = tuple(parse_rational(x, where) for x in c1_doc) or tuple(
                Fraction(0) for _ in range(2 * g)
            )
            entries[key] = SurfaceClass(g, c0, c1, c2)
        comps[v.id] = ComponentClass("surface", g, entries, None)
    return EquivariantClass(comps, None)


def _check_keys_class(doc: dict) -> None:
    extra = set(doc) - {"kind", "graph", "components"}
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)}", "class")
    for key in ("kind", "graph", "components"):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}", "class")
    if doc["kind"] != "class":
        raise SchemaError('field "kind" must be "class"', "class")
    if not isinstance(doc["graph"], str):
        raise SchemaError('field "graph" must be a string', "class")


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


def class_to_dict(alpha: EquivariantClass, graph_ref: str = "") -> dict:
    """Canonical JSON form of a class document."""
    comps: dict[str, dict] = {}
    for cid in sorted(alpha.components):
        cls = alpha.components[cid]
        entry_doc: dict[str, object] = {}
        for k in cls.degrees():
            value = cls.entries[k]
            if cls.kind == "point":
                entry_doc[str(k)] = (
                    poly_to_pairs(value) if alpha.rank is not None else format_rational(value)
                )
            else:
                if alpha.rank is not None:
                    entry_doc[str(k)] = {
                        "c0": poly_to_pairs(value.c0),
                        "c1": [poly_to_pairs(x) for x in value.c1],
                        "c2": poly_to_pairs(value.c2),
                    }
                else:
                    entry_doc[str(k)] = {
                        "c0": format_rational(value.c0),
                        "c1": [format_rational(x) for x in value.c1],
                        "c2": format_rational(value.c2),
                    }
        comps[cid] = entry_doc
    return {"kind": "class", "graph": graph_ref, "components": comps}
