"""Complexity-one torus actions from their x-rays.

An x-ray lists the fixed components with vector momentum labels and the
declared pieces of the one-skeleton.  Every piece is tagged with the
primitive character cut out by the subtorus that fixes it, so validation
reads a weight along it as an integer ratio; membership in the image of
the fixed-set restriction reduces piece by piece, with four-dimensional
pieces carrying the circle-action conditions under a substitution that
turns the character into the equivariant parameter, and two-dimensional
pieces contributing a single divisibility condition.

To :mod:`equicoh.s1` an x-ray is a document like a graph, given by its
fixed components and its rank, so the slot and class helpers there accept
it.  Each piece is one constraint group, kept on the x-ray: its members
under its induced graph's table, or the H^0 difference of its two points,
along its character, one substitution serving every piece along it.
Every query reads these groups: membership routes the class through each
piece's group once, and a graded basis is the one image-basis body over
all of them.  Every entry point refuses an invalid x-ray.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError, SchemaError
from .graph import (
    _INT_TYPES,
    _RATIONAL_TYPES,
    _SEQUENCE_TYPES,
    DecoratedGraph,
    IsolatedVertex,
    Violation,
    _check_keys,
    _find,
    _id_index,
    _is_vector,
    _kept,
    _load_document,
    _parse_id,
    _refuse_invalid,
    _require,
    _sorted_report,
    format_rational,
    graph_to_dict,
    parse_graph,
    parse_rational,
    validate_graph,
)
from .mpoly import is_primitive
from .s1 import (
    EquivariantClass,
    MembershipDecision,
    MembershipViolation,
    _check_addressing,
    _class_obstructions,
    _constraint_table,
    _image_basis,
    _obstruction_violations,
    _parse_class,
    character_substitution,
)

DEFAULT_XRAY_MAX_DEGREE = 8

XRAY_KEYS = {"kind", "rank", "components", "pieces"}
COMPONENT_KEYS = {"id", "y", "weights", "genus", "area"}
PIECE_KEYS = {"id", "lambda", "dim", "members", "induced_graph", "ell"}
# (type of dim, dim, no induced graph, no ell) of a piece a document can hold
_PIECE_SHAPES = {(int, 2, True, False), (int, 4, False, True)}


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
        return _find(self._by_id, component_id)

    # Derived values, kept on the frozen x-ray as on a graph.
    @_kept
    def _by_id(self) -> dict[str, TorusFixedComponent]:
        return _id_index(self.components)

    @_kept
    def _pieces_by_id(self) -> dict[str, SkeletonPiece]:
        return _id_index(self.pieces)

    @_kept
    def _fixed_components(self) -> tuple[tuple[str, str, int], ...]:
        """``(id, kind, genus)`` of every fixed component, sorted by id."""
        return tuple((c.id, c.kind, c.genus) for c in self.components)

    @_kept
    def _kinds(self) -> dict[str, tuple[str, int]]:
        """``{id: (kind, genus)}``, read off :attr:`_fixed_components`."""
        return {cid: (kind, genus) for cid, kind, genus in self._fixed_components}

    @_kept
    def _groups(self) -> dict[str, tuple]:
        """``{piece id: (tag, members, table, substitution)}``: each piece's
        constraint group (see :func:`~equicoh.s1._graph_group`), built once
        behind the validity gate.  A valid x-ray's induced graphs have their
        pieces' members, so no group needs an addressing check; pieces along
        one character share its substitution."""
        _refuse_invalid(self)
        substitutions: dict[tuple[int, ...], object] = {}
        groups: dict[str, tuple] = {}
        for piece in self.pieces:
            members = tuple((c.id, c.kind, c.genus) for c in map(self.find, sorted(piece.members)))
            if piece.lam not in substitutions:
                substitutions[piece.lam] = character_substitution(piece.lam)
            table = _constraint_table(members, piece.induced)
            groups[piece.id] = ((piece.id,), members, table, substitutions[piece.lam])
        return groups

    @_kept
    def _report(self) -> tuple[Violation, ...]:
        return tuple(_xray_violations(self))

    @_kept
    def _shapes(self) -> tuple[Violation, ...]:
        """A ``component-shape`` violation for each fixed component whose
        fields do not have the shape parse gives them; parse fills in ``()``."""
        return tuple(
            Violation("component-shape", rule, (c.id,))
            for c in self.components
            if (rule := _component_shape(c, self.rank)) is not None
        )

    @_kept
    def _levels(self) -> tuple[int, dict[str, tuple[int, ...]]]:
        """``(D, {id: levels})``: every component momentum as an integer
        vector over one common denominator D, the lcm of all coordinates'
        denominators, so that ``y == levels / D``."""
        denominator = lcm(*(x.denominator for c in self.components for x in c.y))
        levels: dict[str, tuple[int, ...]] = {}
        for c in self.components:
            levels.setdefault(
                c.id, tuple(x.numerator * (denominator // x.denominator) for x in c.y)
            )
        return denominator, levels


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
            if area.numerator <= 0:
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
        if type(dim) is not int or dim not in (2, 4):
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

    xray = XRay(rank, tuple(components), tuple(pieces))
    xray.__dict__["_shapes"] = ()  # every other shape was refused above
    return xray


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


def _parallel_ratio(vector, lam) -> int | None:
    """The integer c with vector = c * lam, or None when not parallel: an
    integer vector parallel to a primitive character is a multiple of it."""
    pivot = next(i for i, x in enumerate(lam) if x)
    c = vector[pivot] // lam[pivot]
    return c if all(v == c * l for v, l in zip(vector, lam)) else None


def _ratios(member: TorusFixedComponent, lam) -> list:
    """The integer ratios of the member's weights that are parallel to lam."""
    return [r for w in member.weights if (r := _parallel_ratio(w, lam)) is not None]


def validate_xray(xray: XRay) -> list[Violation]:
    """Semantic checks: characters, piece shapes, projections, induced graphs.
    Computed once per x-ray and kept on it."""
    return list(xray._report)


def _component_shape(c: TorusFixedComponent, rank: int) -> str | None:
    """The rule a directly built fixed component breaks that parse would
    have refused it for, or None."""
    if c.kind == "point":
        count, rest = rank + 1, "genus 0 and no area"
        rest_ok = c.genus == 0 and c.area is None
    elif c.kind == "surface":
        count, rest = rank, "a nonnegative integer genus and a positive rational area"
        rest_ok = (
            type(c.genus) is int and c.genus >= 0
            and type(c.area) in _RATIONAL_TYPES and c.area > 0
        )
    else:
        return f'component {c.id}: kind must be "point" or "surface", got {c.kind!r}'
    if (
        rest_ok
        and _is_vector(c.y, rank, _RATIONAL_TYPES)
        and _is_vector(c.weights, count, _SEQUENCE_TYPES)
        and all(_is_vector(w, rank, _INT_TYPES) and any(w) for w in c.weights)
    ):
        return None
    return (
        f"component {c.id}: expected a {c.kind} with a momentum of {rank} rationals, "
        f"{count} nonzero weight vectors of {rank} integers, {rest}"
    )


def _xray_violations(xray: XRay) -> list[Violation]:
    """The report of :func:`validate_xray`.

    A fixed component whose fields do not have the shape parse gives them
    gets a ``component-shape`` violation, and then nothing else is checked.
    Momenta are compared as integer vectors over the x-ray's common
    denominator (``xray._levels``), against an induced graph's own levels
    by cross-multiplying.
    """
    if xray._shapes:
        return _sorted_report(list(xray._shapes))
    violations: list[Violation] = []
    for piece in xray.pieces:
        pid = piece.id
        shape = (type(piece.dim), piece.dim, piece.induced is None, piece.ell is None)
        if shape not in _PIECE_SHAPES or len(piece.lam) != xray.rank:
            rule = "dimension 2 with an ell or 4 with an induced graph"
            message = f"piece {pid}: expected {rule}, along a character of length {xray.rank}"
            violations.append(Violation("piece-shape", message, (pid,)))
            continue
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
            violations.extend(_validate_dim2_piece(xray, piece, members))
        else:
            violations.extend(_validate_dim4_piece(xray, piece, members))
    return _sorted_report(violations)


def _validate_dim2_piece(xray: XRay, piece: SkeletonPiece, members) -> list[Violation]:
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
    levels = xray._levels[1]
    # a.y - b.y scaled by the common denominator, which keeps the ratio's sign
    delta = tuple(x - y for x, y in zip(levels[a.id], levels[b.id]))
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
    return _one_weight(piece, lower, piece.ell) + _one_weight(piece, upper, -piece.ell)


def _one_weight(piece: SkeletonPiece, member, ratio: int) -> list[Violation]:
    """The violation of a member that does not carry exactly one weight
    along the piece's character, equal to ``ratio`` times it."""
    if _ratios(member, piece.lam) == [ratio]:
        return []
    return [
        Violation(
            "piece-weights",
            f"piece {piece.id}: {member.id!r} must carry exactly one weight along the "
            f"character, equal to {ratio} times it",
            (piece.id, member.id),
        )
    ]


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
    graph_levels = induced._levels
    # the ids are the members', so each names one component
    level = dict(
        zip(
            [v.id for v in induced.isolated + induced.surfaces],
            graph_levels.isolated + graph_levels.surfaces,
        )
    )
    for member in members:
        vertex = induced.find(member.id)
        listed = "point" if isinstance(vertex, IsolatedVertex) else "surface"
        if member.kind != listed:
            out.append(
                Violation(
                    "member-data",
                    f"piece {pid}: {member.id!r} is a {member.kind} "
                    f"but the induced graph lists a {listed}",
                    (pid, member.id),
                )
            )
        elif member.kind == "point":
            ratios = sorted(_ratios(member, piece.lam))
            if ratios != sorted(vertex.weights):
                out.append(
                    Violation(
                        "piece-weights",
                        f"piece {pid}: weights of {member.id!r} along the character "
                        f"are {ratios}, induced graph says {sorted(vertex.weights)}",
                        (pid, member.id),
                    )
                )
        else:
            if vertex.genus != member.genus or vertex.area != member.area:
                out.append(
                    Violation(
                        "member-data",
                        f"piece {pid}: genus/area of {member.id!r} disagree with "
                        "the induced graph",
                        (pid, member.id),
                    )
                )
            out += _one_weight(piece, member, 1 if induced._places[member.id] == "min" else -1)
    # a.y - b.y == (induced step) * lam, each side over its own denominator
    x_denominator, x_levels = xray._levels
    g_denominator = graph_levels.denominator
    ordered = sorted(members, key=lambda c: c.id)
    for a, b in zip(ordered, ordered[1:]):
        step = (level[a.id] - level[b.id]) * x_denominator
        if any(
            (x - y) * g_denominator != step * l
            for x, y, l in zip(x_levels[a.id], x_levels[b.id], piece.lam)
        ):
            out.append(
                Violation(
                    "piece-momentum",
                    f"piece {pid}: momentum difference of {a.id!r} and {b.id!r} does "
                    "not project to the induced labels",
                    (pid, a.id, b.id),
                )
            )
    return out


def piece_obstructions(
    xray: XRay,
    piece: SkeletonPiece,
    alpha: EquivariantClass,
) -> dict[tuple, Fraction]:
    """All nonzero membership obstructions contributed by one piece.

    Every obstruction is a coefficient of a linear expression in the
    restrictions to the piece's members, so a class vanishing on all of
    them has none.  They are read off the piece's kept group: a
    4-dimensional piece's are those of its induced graph's conditions along
    its character; a 2-dimensional piece's are the terms of its two point restrictions'
    difference that the character does not divide.  The class must address
    exactly the x-ray's components, as in :func:`check_membership_xray`,
    and ``piece`` must be one of its pieces.
    """
    _refuse_invalid(xray)
    _check_addressing("x-ray", xray._fixed_components, xray.rank, alpha)
    if xray._pieces_by_id.get(piece.id) != piece:
        raise InputError(f"piece {piece.id!r} is not a piece of this x-ray")
    _, _, table, substitution = xray._groups[piece.id]
    return _class_obstructions(table, alpha, substitution)


def check_membership_xray(xray: XRay, alpha: EquivariantClass) -> MembershipDecision:
    """Piece-by-piece membership for the full torus image.

    The x-ray and the addressing are checked once; each piece's
    :func:`piece_obstructions`, read off its kept group, are reported as
    violations the way :func:`check_membership_torus` reports them,
    prefixed with the piece.
    """
    _refuse_invalid(xray)
    _check_addressing("x-ray", xray._fixed_components, xray.rank, alpha)
    violations = [
        MembershipViolation(v.kind, f"piece {tag[0]}: {v.detail}")
        for tag, _, table, substitution in xray._groups.values()
        for v in _obstruction_violations(_class_obstructions(table, alpha, substitution))
    ]
    return MembershipDecision(not violations, tuple(violations))


def image_basis_xray(
    xray: XRay, degree: int, max_degree: int = DEFAULT_XRAY_MAX_DEGREE
) -> list[EquivariantClass]:
    """Canonical basis of the degree-k image over the multivariate parameter ring.

    Columns are monomial slots; rows are the union of all pieces'
    obstruction coefficients, keyed by piece id and obstruction key: the
    one image-basis body of :mod:`equicoh.s1` over the x-ray's groups.
    """
    return _image_basis(xray, degree, max_degree, xray._groups.values())


def parse_class_torus(text, xray: XRay) -> EquivariantClass:
    """Parse a multivariate class document against its x-ray."""
    return _parse_class(text, xray)
