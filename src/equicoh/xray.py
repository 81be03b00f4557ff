"""Complexity-one torus actions from their x-rays.

An x-ray lists the fixed components with vector momentum labels and the
declared pieces of the one-skeleton.  Every piece is tagged with the
primitive character cut out by the subtorus that fixes it; membership in
the image of the fixed-set restriction reduces piece by piece, with
four-dimensional pieces delegating to the circle-action machinery under a
substitution that turns the character into the equivariant parameter, and
two-dimensional pieces contributing a single divisibility condition.
Graded bases of the image come from one exact nullspace solve over all
piece constraints at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import ComponentClass, SurfaceClass
from .errors import InputError, SchemaError
from .graph import (
    DecoratedGraph,
    IsolatedVertex,
    Violation,
    _check_keys,
    _load_document,
    _parse_id,
    _require,
    _sorted_report,
    format_rational,
    graph_to_dict,
    parse_graph,
    parse_rational,
    resolve_self_intersections,
    validate_graph,
)
from .linalg import nullspace
from .mpoly import (
    LinearSubstitution,
    MPoly,
    is_primitive,
    monomials_of_degree,
    poly_from_pairs,
)
from .s1 import (
    EquivariantClass,
    MembershipDecision,
    MembershipViolation,
    _degree_items,
    character_substitution,
    check_membership_torus,
    torus_obstructions,
)

DEFAULT_XRAY_MAX_DEGREE = 8

XRAY_KEYS = {"kind", "rank", "components", "pieces"}
COMPONENT_KEYS = {"id", "y", "weights", "genus", "area"}
PIECE_KEYS = {"id", "lambda", "dim", "members", "induced_graph", "ell"}


@dataclass(frozen=True)
class TorusFixedComponent:
    id: str
    kind: str  # "point" | "surface"
    y: tuple[Fraction, ...]
    weights: tuple[tuple[int, ...], ...]
    genus: int = 0
    area: Fraction | None = None


@dataclass(frozen=True)
class SkeletonPiece:
    id: str
    lam: tuple[int, ...]
    dim: int
    members: tuple[str, ...]
    induced: DecoratedGraph | None = None
    ell: int | None = None


@dataclass(frozen=True)
class XRay:
    rank: int
    components: tuple[TorusFixedComponent, ...]
    pieces: tuple[SkeletonPiece, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=lambda c: c.id))
        )
        object.__setattr__(self, "pieces", tuple(sorted(self.pieces, key=lambda p: p.id)))

    def component_ids(self) -> list[str]:
        return [c.id for c in self.components]

    def find(self, component_id: str) -> TorusFixedComponent:
        for c in self.components:
            if c.id == component_id:
                return c
        raise InputError(f"no component named {component_id!r}")


def _parse_int_vector(value, length: int, where: str) -> tuple[int, ...]:
    if (
        not isinstance(value, list)
        or len(value) != length
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise SchemaError(f"expected a vector of {length} integers", where)
    return tuple(value)


def parse_xray(text) -> XRay:
    """Strictly parse an x-ray document (JSON text or an already-loaded dict)."""
    doc = _load_document(text)
    _check_keys(doc, XRAY_KEYS, "xray")
    if _require(doc, "kind", "xray") != "xray":
        raise SchemaError('field "kind" must be "xray"', "xray")
    rank = _require(doc, "rank", "xray")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise SchemaError('"rank" must be a positive integer', "xray")
    raw_components = _require(doc, "components", "xray")
    raw_pieces = _require(doc, "pieces", "xray")
    if not isinstance(raw_components, list) or not isinstance(raw_pieces, list):
        raise SchemaError('"components" and "pieces" must be arrays', "xray")

    seen: set[str] = set()
    components = []
    for i, item in enumerate(raw_components):
        where = f"components[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("expected an object", where)
        _check_keys(item, COMPONENT_KEYS, where)
        cid = _parse_id(_require(item, "id", where), where)
        if cid in seen:
            raise SchemaError(f"duplicate id {cid!r}", where)
        seen.add(cid)
        raw_y = _require(item, "y", where)
        if not isinstance(raw_y, list) or len(raw_y) != rank:
            raise SchemaError(f'"y" must be a vector of {rank} rationals', where)
        y = tuple(parse_rational(x, where) for x in raw_y)
        is_surface = "genus" in item or "area" in item
        if is_surface and not ("genus" in item and "area" in item):
            raise SchemaError('surfaces need both "genus" and "area"', where)
        genus = 0
        area = None
        if is_surface:
            genus = item["genus"]
            if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
                raise SchemaError('"genus" must be a nonnegative integer', where)
            area = parse_rational(item["area"], where)
            if area <= 0:
                raise SchemaError("area must be positive", where)
        raw_weights = _require(item, "weights", where)
        expected = rank if is_surface else rank + 1
        if not isinstance(raw_weights, list) or len(raw_weights) != expected:
            raise SchemaError(
                f'"weights" must list {expected} vectors for this component', where
            )
        weights = tuple(_parse_int_vector(w, rank, where) for w in raw_weights)
        if any(not any(w) for w in weights):
            raise SchemaError("weight vectors must be nonzero", where)
        components.append(
            TorusFixedComponent(
                cid, "surface" if is_surface else "point", y, weights, genus, area
            )
        )
    if not components:
        raise SchemaError("an x-ray needs at least one fixed component", "xray")

    piece_ids: set[str] = set()
    pieces = []
    for i, item in enumerate(raw_pieces):
        where = f"pieces[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("expected an object", where)
        _check_keys(item, PIECE_KEYS, where)
        pid = _parse_id(_require(item, "id", where), where)
        if pid in piece_ids:
            raise SchemaError(f"duplicate piece id {pid!r}", where)
        piece_ids.add(pid)
        lam = _parse_int_vector(_require(item, "lambda", where), rank, where)
        if not any(lam):
            raise SchemaError("the character must be nonzero", where)
        dim = _require(item, "dim", where)
        if dim not in (2, 4) or isinstance(dim, bool):
            raise SchemaError('"dim" must be 2 or 4', where)
        raw_members = _require(item, "members", where)
        if not isinstance(raw_members, list) or not raw_members:
            raise SchemaError('"members" must be a nonempty array of ids', where)
        members = tuple(_parse_id(m, where) for m in raw_members)
        if len(set(members)) != len(members):
            raise SchemaError("duplicate member id", where)
        for m in members:
            if m not in seen:
                raise SchemaError(f"piece references an unknown id {m!r}", where)
        induced = None
        ell = None
        if dim == 2:
            if "induced_graph" in item:
                raise SchemaError("a 2-dimensional piece carries no induced graph", where)
            ell = _require(item, "ell", where)
            if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
                raise SchemaError('"ell" must be a positive integer', where)
        else:
            if "ell" in item:
                raise SchemaError('only 2-dimensional pieces carry "ell"', where)
            raw_graph = _require(item, "induced_graph", where)
            if not isinstance(raw_graph, dict):
                raise SchemaError("expected a graph object", f"{where}.induced_graph")
            try:
                induced = parse_graph(raw_graph)
            except SchemaError as exc:
                raise SchemaError(str(exc), f"{where}.induced_graph") from None
        pieces.append(SkeletonPiece(pid, lam, dim, tuple(sorted(members)), induced, ell))

    return XRay(rank, tuple(components), tuple(pieces))


def xray_to_dict(xray: XRay) -> dict:
    components = []
    for c in xray.components:
        item: dict = {
            "id": c.id,
            "y": [format_rational(x) for x in c.y],
            "weights": [list(w) for w in c.weights],
        }
        if c.kind == "surface":
            item["genus"] = c.genus
            item["area"] = format_rational(c.area)
        components.append(item)
    pieces = []
    for p in xray.pieces:
        item = {
            "id": p.id,
            "lambda": list(p.lam),
            "dim": p.dim,
            "members": list(p.members),
        }
        if p.dim == 2:
            item["ell"] = p.ell
        else:
            item["induced_graph"] = graph_to_dict(p.induced)
        pieces.append(item)
    return {"kind": "xray", "rank": xray.rank, "components": components, "pieces": pieces}


def serialize_xray(xray: XRay) -> str:
    return json.dumps(xray_to_dict(xray), indent=2, sort_keys=True) + "\n"


def _parallel_ratio(vector, lam) -> Fraction | None:
    """The scalar c with vector = c * lam, or None when not parallel."""
    pivot = next((i for i, x in enumerate(lam) if x), None)
    if pivot is None:
        raise InputError("the character must be nonzero")
    c = Fraction(vector[pivot], lam[pivot])
    if all(Fraction(v) == c * l for v, l in zip(vector, lam)):
        return c
    return None


def validate_xray(xray: XRay) -> list[Violation]:
    """Semantic checks: characters, piece shapes, projections, induced graphs."""
    violations: list[Violation] = []
    for piece in xray.pieces:
        pid = piece.id
        if not is_primitive(piece.lam):
            violations.append(
                Violation(
                    "character-not-primitive",
                    f"piece {pid}: character {list(piece.lam)} is not primitive",
                    (pid,),
                )
            )
            continue
        members = [xray.find(m) for m in piece.members]
        if piece.dim == 2:
            violations.extend(_validate_dim2_piece(piece, members))
        else:
            violations.extend(_validate_dim4_piece(xray, piece, members))
    return _sorted_report(violations)


def _validate_dim2_piece(piece: SkeletonPiece, members) -> list[Violation]:
    pid = piece.id
    if len(members) != 2 or any(c.kind != "point" for c in members):
        return [
            Violation(
                "piece-members",
                f"piece {pid}: a 2-dimensional piece joins exactly two isolated points",
                (pid,),
            )
        ]
    a, b = members
    delta = tuple(x - y for x, y in zip(a.y, b.y))
    ratio = _parallel_ratio(delta, piece.lam)
    if ratio is None or ratio == 0:
        return [
            Violation(
                "piece-momentum",
                f"piece {pid}: momenta of {a.id!r} and {b.id!r} must differ along the character",
                (pid, a.id, b.id),
            )
        ]
    lower, upper = (b, a) if ratio > 0 else (a, b)
    out = []
    for member, sign in ((lower, 1), (upper, -1)):
        ratios = [
            r
            for w in member.weights
            if (r := _parallel_ratio(w, piece.lam)) is not None
        ]
        if ratios != [sign * piece.ell]:
            out.append(
                Violation(
                    "piece-weights",
                    f"piece {pid}: {member.id!r} must carry exactly one weight along the "
                    f"character, equal to {sign * piece.ell} times it",
                    (pid, member.id),
                )
            )
    return out


def _validate_dim4_piece(xray: XRay, piece: SkeletonPiece, members) -> list[Violation]:
    pid = piece.id
    out = []
    for v in validate_graph(piece.induced):
        out.append(Violation(v.code, f"piece {pid}: {v.message}", (pid,) + v.components))
    if piece.induced.component_ids() != sorted(piece.members):
        out.append(
            Violation(
                "piece-members",
                f"piece {pid}: induced components {piece.induced.component_ids()} "
                f"differ from members {sorted(piece.members)}",
                (pid,),
            )
        )
        return out
    induced = piece.induced
    y_min, y_max = induced.momentum_span()
    for member in members:
        vertex = induced.find(member.id)
        if member.kind == "point":
            if not isinstance(vertex, IsolatedVertex):
                out.append(
                    Violation(
                        "member-data",
                        f"piece {pid}: {member.id!r} is a point but the induced "
                        "graph lists a surface",
                        (pid, member.id),
                    )
                )
                continue
            ratios = sorted(
                r
                for w in member.weights
                if (r := _parallel_ratio(w, piece.lam)) is not None
            )
            if ratios != sorted(Fraction(b) for b in vertex.weights):
                out.append(
                    Violation(
                        "piece-weights",
                        f"piece {pid}: weights of {member.id!r} along the character "
                        f"are {ratios}, induced graph says {sorted(vertex.weights)}",
                        (pid, member.id),
                    )
                )
        else:
            if isinstance(vertex, IsolatedVertex):
                out.append(
                    Violation(
                        "member-data",
                        f"piece {pid}: {member.id!r} is a surface but the induced "
                        "graph lists a point",
                        (pid, member.id),
                    )
                )
                continue
            if vertex.genus != member.genus or vertex.area != member.area:
                out.append(
                    Violation(
                        "member-data",
                        f"piece {pid}: genus/area of {member.id!r} disagree with "
                        "the induced graph",
                        (pid, member.id),
                    )
                )
            ratios = [
                r
                for w in member.weights
                if (r := _parallel_ratio(w, piece.lam)) is not None
            ]
            expected = Fraction(1) if vertex.y == y_min else Fraction(-1)
            if ratios != [expected]:
                out.append(
                    Violation(
                        "piece-weights",
                        f"piece {pid}: {member.id!r} must carry exactly one weight "
                        f"along the character, equal to {expected} times it",
                        (pid, member.id),
                    )
                )
    ordered = sorted(members, key=lambda c: c.id)
    for a, b in zip(ordered, ordered[1:]):
        delta = tuple(x - y for x, y in zip(a.y, b.y))
        step = induced.find(a.id).y - induced.find(b.id).y
        if delta != tuple(step * l for l in piece.lam):
            out.append(
                Violation(
                    "piece-momentum",
                    f"piece {pid}: momentum difference of {a.id!r} and {b.id!r} does "
                    "not project to the induced labels",
                    (pid, a.id, b.id),
                )
            )
    return out


def _check_addressing_xray(xray: XRay, alpha: EquivariantClass) -> None:
    if sorted(alpha.components) != xray.component_ids():
        raise InputError(
            f"class addresses {sorted(alpha.components)} but the x-ray has "
            f"{xray.component_ids()}"
        )
    for c in xray.components:
        cls = alpha.components[c.id]
        if cls.kind != c.kind or cls.genus != c.genus or cls.rank != xray.rank:
            raise InputError(
                f"component {c.id!r}: expected a rank-{xray.rank} {c.kind} entry"
                + (f" of genus {c.genus}" if c.kind == "surface" else "")
            )


def _dim2_residues(
    xray: XRay,
    piece: SkeletonPiece,
    alpha: EquivariantClass,
    substitution: LinearSubstitution | None = None,
) -> dict[tuple, Fraction]:
    """Nonzero coefficients obstructing divisibility along a 2-dimensional piece."""
    if substitution is None:
        substitution = character_substitution(piece.lam)
    a, b = piece.members
    out: dict[tuple, Fraction] = {}
    degrees = sorted(
        set(alpha.components[a].entries) | set(alpha.components[b].entries)
    )
    for k in degrees:
        diff = alpha.components[a].entries.get(k, MPoly.zero(xray.rank)) - \
            alpha.components[b].entries.get(k, MPoly.zero(xray.rank))
        if not diff:
            continue
        for exps, coeff in substitution(diff).terms.items():
            if exps[0] == 0:
                out[("div", (a, b), ("h0",), k, exps)] = coeff
    return out


def piece_obstructions(
    xray: XRay,
    piece: SkeletonPiece,
    alpha: EquivariantClass,
    substitution: LinearSubstitution | None = None,
    resolved: DecoratedGraph | None = None,
) -> dict[tuple, Fraction]:
    """All nonzero membership obstructions contributed by one piece.

    Every obstruction is a coefficient of a linear expression in the
    restrictions to the piece's members, so a class vanishing on all of
    them has none.  Callers obstructing many classes along one piece pass
    its ``character_substitution`` and, for a 4-dimensional piece, its
    resolved induced graph; both are built per call when omitted.
    """
    if piece.dim == 2:
        return _dim2_residues(xray, piece, alpha, substitution)
    restricted = alpha.restricted(piece.members)
    return torus_obstructions(
        piece.induced,
        xray.rank,
        piece.lam,
        restricted,
        substitution=substitution,
        resolved=resolved,
    )


def check_membership_xray(xray: XRay, alpha: EquivariantClass) -> MembershipDecision:
    """Piece-by-piece membership for the full torus image.

    Four-dimensional pieces delegate to the circle-action criterion under
    the character substitution; two-dimensional pieces demand divisibility
    of the two point restrictions' difference by the character form.
    """
    _check_addressing_xray(xray, alpha)
    violations: list[MembershipViolation] = []
    for piece in xray.pieces:
        if piece.dim == 4:
            restricted = alpha.restricted(piece.members)
            decision = check_membership_torus(
                piece.induced, xray.rank, piece.lam, restricted
            )
            violations.extend(
                MembershipViolation(v.kind, f"piece {piece.id}: {v.detail}")
                for v in decision.violations
            )
        else:
            residues = _dim2_residues(xray, piece, alpha)
            degrees = sorted({key[3] for key in residues})
            a, b = piece.members
            violations.extend(
                MembershipViolation(
                    "divisibility",
                    f"piece {piece.id}: restrictions to {a!r} and {b!r} are not "
                    f"congruent modulo the character at degree {k}",
                )
                for k in degrees
            )
    return MembershipDecision(not violations, tuple(violations))


@dataclass(frozen=True)
class XraySlot:
    """One monomial coordinate of the degree-k multivariate restriction space."""

    component: str
    part: str  # "c" (point), "c0", "c1" or "c2" (surface)
    index: int
    exps: tuple[int, ...]
    label: str


def _part_label(cid: str, part: str, index: int, genus: int, exps) -> str:
    if part == "c1":
        name = f"a{index + 1}" if index < genus else f"b{index - genus + 1}"
    elif part == "c":
        name = "c"
    else:
        name = part
    return f"{cid}.{name}[{','.join(str(e) for e in exps)}]"


def xray_degree_slots(xray: XRay, degree: int) -> list[XraySlot]:
    """Canonical coordinate order: component id, part, then descending lex monomials."""
    slots: list[XraySlot] = []
    r = xray.rank
    for c in xray.components:
        if c.kind == "point":
            if degree % 2 == 0:
                for exps in monomials_of_degree(r, degree // 2):
                    slots.append(
                        XraySlot(c.id, "c", 0, exps, _part_label(c.id, "c", 0, 0, exps))
                    )
            continue
        if degree % 2 == 0:
            for exps in monomials_of_degree(r, degree // 2):
                slots.append(
                    XraySlot(c.id, "c0", 0, exps, _part_label(c.id, "c0", 0, c.genus, exps))
                )
            if degree >= 2:
                for exps in monomials_of_degree(r, (degree - 2) // 2):
                    slots.append(
                        XraySlot(c.id, "c2", 0, exps, _part_label(c.id, "c2", 0, c.genus, exps))
                    )
        else:
            for i in range(2 * c.genus):
                for exps in monomials_of_degree(r, (degree - 1) // 2):
                    slots.append(
                        XraySlot(c.id, "c1", i, exps, _part_label(c.id, "c1", i, c.genus, exps))
                    )
    order = {"c": 0, "c0": 0, "c1": 1, "c2": 2}
    slots.sort(key=lambda s: (s.component, order[s.part], s.index, tuple(-e for e in s.exps)))
    return slots


def _empty_components(xray: XRay) -> dict[str, ComponentClass]:
    return {
        c.id: ComponentClass(c.kind, c.genus, {}, xray.rank) for c in xray.components
    }


def xray_unit_class(xray: XRay, degree: int, slot: XraySlot) -> EquivariantClass:
    comps = _empty_components(xray)
    c = xray.find(slot.component)
    mono = MPoly.monomial(slot.exps, 1)
    if c.kind == "point":
        entry: object = mono
    else:
        zero = MPoly.zero(xray.rank)
        c1 = tuple(
            mono if slot.part == "c1" and i == slot.index else zero
            for i in range(2 * c.genus)
        )
        entry = SurfaceClass(
            c.genus,
            mono if slot.part == "c0" else zero,
            c1,
            mono if slot.part == "c2" else zero,
        )
    comps[c.id] = ComponentClass(c.kind, c.genus, {degree: entry}, xray.rank)
    return EquivariantClass(comps, xray.rank)


def xray_class_from_vector(xray: XRay, degree: int, values) -> EquivariantClass:
    return _xray_class_from_slots(xray, degree, xray_degree_slots(xray, degree), values)


def _xray_class_from_slots(
    xray: XRay, degree: int, slots: list[XraySlot], values
) -> EquivariantClass:
    if len(values) != len(slots):
        raise InputError(f"expected {len(slots)} coordinates, got {len(values)}")
    terms: dict[tuple[str, str, int], dict] = {}
    for slot, value in zip(slots, values):
        if value:
            terms.setdefault((slot.component, slot.part, slot.index), {})[slot.exps] = value
    comps = _empty_components(xray)
    for c in xray.components:
        def poly(part: str, index: int = 0) -> MPoly:
            return MPoly(xray.rank, terms.get((c.id, part, index), {}))

        if c.kind == "point":
            p = poly("c")
            entries = {degree: p} if p else {}
        else:
            entry = SurfaceClass(
                c.genus,
                poly("c0"),
                tuple(poly("c1", i) for i in range(2 * c.genus)),
                poly("c2"),
            )
            entries = {degree: entry} if entry else {}
        comps[c.id] = ComponentClass(c.kind, c.genus, entries, xray.rank)
    return EquivariantClass(comps, xray.rank)


def xray_slot_value(alpha: EquivariantClass, degree: int, slot: XraySlot) -> Fraction:
    """The coefficient of the degree-k part of alpha at one monomial slot."""
    cls = alpha.components[slot.component]
    if slot.part == "c":
        entry = cls.entries.get(degree)
        return entry.coefficient(slot.exps) if entry is not None else Fraction(0)
    surface = cls.entry(degree)
    if slot.part == "c0":
        entry = surface.c0
    elif slot.part == "c2":
        entry = surface.c2
    else:
        entry = surface.c1[slot.index]
    return entry.coefficient(slot.exps)


def xray_class_to_vector(xray: XRay, degree: int, alpha: EquivariantClass) -> list[Fraction]:
    return [xray_slot_value(alpha, degree, slot) for slot in xray_degree_slots(xray, degree)]


def image_basis_xray(
    xray: XRay, degree: int, max_degree: int = DEFAULT_XRAY_MAX_DEGREE
) -> list[EquivariantClass]:
    """Canonical basis of the degree-k image over the multivariate parameter ring.

    Columns are monomial slots; rows are the union of all pieces' linearized
    obstruction coefficients evaluated on unit slot classes.  The loop runs
    piece by piece: each piece is prepared once and visits only the slots
    on its own members, since a unit class elsewhere has no obstruction
    along it.
    """
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree > max_degree:
        raise InputError(f"degree {degree} exceeds the cutoff {max_degree}")
    slots = xray_degree_slots(xray, degree)
    if not slots:
        return []
    per_slot: list[dict[tuple, Fraction]] = [{} for _ in slots]
    for piece in xray.pieces:
        substitution = character_substitution(piece.lam)
        resolved = resolve_self_intersections(piece.induced) if piece.dim == 4 else None
        for slot, obstructions in zip(slots, per_slot):
            if slot.component not in piece.members:
                continue
            unit = xray_unit_class(xray, degree, slot)
            found = piece_obstructions(xray, piece, unit, substitution, resolved)
            for key, value in found.items():
                obstructions[(piece.id,) + key] = value
    keys = sorted({key for obs in per_slot for key in obs}, key=repr)
    rows = [[obs.get(key, Fraction(0)) for obs in per_slot] for key in keys]
    return [
        _xray_class_from_slots(xray, degree, slots, vec)
        for vec in nullspace(rows, len(slots))
    ]


def parse_class_torus(text, xray: XRay) -> EquivariantClass:
    """Parse a multivariate class document against its x-ray."""
    doc = _load_document(text)
    extra = set(doc) - {"kind", "graph", "components"}
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)}", "class")
    if doc.get("kind") != "class":
        raise SchemaError('field "kind" must be "class"', "class")
    comps_doc = _require(doc, "components", "class")
    if not isinstance(comps_doc, dict):
        raise SchemaError('"components" must be an object', "class")
    if sorted(comps_doc) != xray.component_ids():
        raise InputError(
            f"class addresses {sorted(comps_doc)} but the x-ray has {xray.component_ids()}"
        )
    r = xray.rank
    comps: dict[str, ComponentClass] = {}
    for c in xray.components:
        entries: dict[int, object] = {}
        for key, value in _degree_items(comps_doc[c.id], c.id):
            where = f"components.{c.id}.{key}"
            if c.kind == "point":
                entries[key] = _pairs_to_poly(value, r, where)
            else:
                if not isinstance(value, dict):
                    raise SchemaError("surface entries are {c0, c1, c2} objects", where)
                bad = set(value) - {"c0", "c1", "c2"}
                if bad:
                    raise SchemaError(f"unknown field(s) {sorted(bad)}", where)
                zero = MPoly.zero(r)
                c0 = _pairs_to_poly(value.get("c0", []), r, where)
                c2 = _pairs_to_poly(value.get("c2", []), r, where)
                c1_doc = value.get("c1", [])
                if not isinstance(c1_doc, list) or len(c1_doc) not in (0, 2 * c.genus):
                    raise SchemaError(
                        f'"c1" must be a list of {2 * c.genus} polynomials', where
                    )
                c1 = tuple(_pairs_to_poly(x, r, where) for x in c1_doc) or tuple(
                    zero for _ in range(2 * c.genus)
                )
                entries[key] = SurfaceClass(c.genus, c0, c1, c2)
        comps[c.id] = ComponentClass(c.kind, c.genus, entries, r)
    return EquivariantClass(comps, r)


def _pairs_to_poly(value, nvars: int, where: str) -> MPoly:
    if not isinstance(value, list):
        raise SchemaError("polynomials are arrays of [exponents, coefficient] pairs", where)
    try:
        return poly_from_pairs(value, nvars, lambda v: parse_rational(v, where))
    except SchemaError:
        raise
    except (InputError, ValueError, TypeError) as exc:
        raise SchemaError(str(exc), where) from None
