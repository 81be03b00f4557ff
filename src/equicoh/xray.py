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
it.  Each piece is one constraint group, kept on the x-ray: its induced
graph's table, or the H^0 difference of its two points, along its
character, one substitution serving every piece along it.
Every query reads these groups: membership routes the class through each
piece's group once, and a graded basis is the one image-basis body over
all of them.  Every entry point refuses an invalid x-ray.  Its records
have a shape rule each, as a graph's do, read against its rank.

A 4-dimensional piece is checked off values kept on its induced graph
(its index of components by id, its momentum levels and the place of each
component) and on the x-ray (each component's weights by primitive
direction), each read once per piece.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, SchemaError
from .graph import (
    _GENUS_RULE,
    _ID_RULE,
    _INT_TYPES,
    _NO_COMPONENTS,
    _SEQUENCE_TYPES,
    DecoratedGraph,
    Violation,
    _admit,
    _area_rule,
    _check_keys,
    _is_id,
    _is_vector,
    _kept,
    _load_document,
    _missing,
    _positive_rule,
    _rational_rule,
    _refuse_invalid,
    _shape_violations,
    _sorted_by_id,
    _sorted_report,
    _tuple,
    format_rational,
    graph_to_dict,
    parse_graph,
    parse_rational,
    validate_graph,
)
from .mpoly import RATIONAL_TYPES
from .s1 import (
    EquivariantClass,
    MembershipDecision,
    MembershipViolation,
    _class_obstructions,
    _constraint_table,
    _image_basis,
    _obstruction_violations,
    _parse_class,
    _scaled_parts,
    character_substitution,
)

DEFAULT_XRAY_MAX_DEGREE = 8

XRAY_KEYS = {"kind", "rank", "components", "pieces"}
COMPONENT_KEYS = {"id", "y", "weights", "genus", "area"}
PIECE_KEYS = {"id", "lambda", "dim", "members", "induced_graph", "ell"}
_NO_ELL = 'only 2-dimensional pieces carry "ell"'
_NO_INDUCED_GRAPH = "a 2-dimensional piece carries no induced graph"
_EMPTY_XRAY = f"an x-ray {_NO_COMPONENTS}"
_DUPLICATE_PIECE = "duplicate piece id"
_GRAPH_RULE = "expected a graph object"
_INT_VECTOR = "expected a vector of {} integers"


@dataclass(frozen=True)
class TorusFixedComponent:
    id: str
    kind: str  # "point" | "surface"
    y: tuple[int | Fraction, ...]
    weights: tuple[tuple[int, ...], ...]
    genus: int = 0
    area: int | Fraction | None = None

    def _shape_rule(self, rank: int) -> str | None:
        if not _is_id(self.id):
            return _ID_RULE
        if type(self.y) not in _SEQUENCE_TYPES or len(self.y) != rank:
            return f'"y" must be a vector of {rank} rationals'
        for x in self.y:
            if type(x) not in RATIONAL_TYPES:
                return _rational_rule(x)
        if self.kind == "surface":
            if type(self.genus) is not int or self.genus < 0:
                return _GENUS_RULE
            if (rule := _area_rule(self.area)) is not None:
                return rule
            count = rank
        elif self.kind == "point":
            if type(self.genus) is not int or self.genus != 0 or self.area is not None:
                return "a point has genus 0 and no area"
            count = rank + 1
        else:
            return f'kind must be "point" or "surface", got {self.kind!r}'
        if type(self.weights) not in _SEQUENCE_TYPES or len(self.weights) != count:
            return f'"weights" must list {count} vectors for this component'
        if not all(_is_vector(w, rank, _INT_TYPES) for w in self.weights):
            return _INT_VECTOR.format(rank)
        if not all(map(any, self.weights)):
            return "weight vectors must be nonzero"
        return None


@dataclass(frozen=True)
class SkeletonPiece:
    id: str
    lam: tuple[int, ...]
    dim: int
    members: tuple[str, ...]
    induced: DecoratedGraph | None = None
    ell: int | None = None

    def _shape_rule(self, rank: int) -> str | None:
        if not _is_id(self.id):
            return _ID_RULE
        if not _is_vector(self.lam, rank, _INT_TYPES):
            return _INT_VECTOR.format(rank)
        if not any(self.lam):
            return "the character must be nonzero"
        if type(self.dim) is not int or self.dim not in (2, 4):
            return '"dim" must be 2 or 4'
        if type(self.members) not in _SEQUENCE_TYPES or not self.members:
            return '"members" must be a nonempty array of ids'
        if not all(map(_is_id, self.members)):
            return _ID_RULE
        if len(set(self.members)) != len(self.members):
            return "duplicate member id"
        if self.dim == 2 and self.induced is not None:
            return _NO_INDUCED_GRAPH
        if self.dim == 2 and (rule := _positive_rule("ell", self.ell)) is not None:
            return rule
        if self.dim == 4 and self.ell is not None:
            return _NO_ELL
        if self.dim == 4 and not isinstance(self.induced, DecoratedGraph):
            return _GRAPH_RULE
        return None

    def _member_rule(self, ids) -> str | None:
        for m in self.members:
            if m not in ids:
                return f"piece references an unknown id {m!r}"
        return None


@dataclass(frozen=True)
class XRay:
    rank: int
    components: tuple[TorusFixedComponent, ...]
    pieces: tuple[SkeletonPiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", _sorted_by_id(self.components))
        object.__setattr__(self, "pieces", _sorted_by_id(self.pieces))

    component_ids = DecoratedGraph.component_ids
    find = DecoratedGraph.find

    # Derived values, kept on the frozen x-ray as on a graph.
    @_kept
    def _by_id(self) -> dict[str, TorusFixedComponent]:
        return {c.id: c for c in self.components}

    @_kept
    def _along(self) -> dict[str, dict[tuple[int, ...], list[int]]]:
        """``{id: {direction: ratios}}``: each weight of a component as a
        positive ratio times its primitive direction, read once behind the
        shape gate (every weight is a nonzero int vector)."""
        along: dict[str, dict[tuple[int, ...], list[int]]] = {}
        for cid, component in self._by_id.items():
            directions: dict[tuple[int, ...], list[int]] = {}
            for w in component.weights:
                c = gcd(*w)
                direction = tuple(w) if c == 1 else tuple([x // c for x in w])
                directions.setdefault(direction, []).append(c)
            along[cid] = directions
        return along

    @_kept
    def _fixed_components(self) -> tuple[tuple[str, str, int], ...]:
        """``(id, kind, genus)`` of every fixed component, in the :func:`_order` of the ids."""
        return tuple((c.id, c.kind, c.genus) for c in self.components)

    _kinds = DecoratedGraph._kinds  # {id: (kind, genus)}, as a graph reads it

    @_kept
    def _groups(self) -> dict[str, tuple]:
        """``{piece id: (tag, table, substitution, denominator)}``: each piece's
        constraint group over its members (see :func:`~equicoh.s1._graph_group`),
        built once behind the validity gate.  A valid x-ray's induced graphs have
        their pieces' members, so no group needs an addressing check; pieces
        along one character share its substitution."""
        _refuse_invalid(self)
        substitutions: dict[tuple[int, ...], object] = {}
        groups: dict[str, tuple] = {}
        for piece in self.pieces:
            members = tuple((c.id, c.kind, c.genus) for c in map(self.find, sorted(piece.members)))
            if piece.lam not in substitutions:
                substitutions[piece.lam] = character_substitution(piece.lam)
            table, denominator = _constraint_table(members, piece.induced)
            groups[piece.id] = ((piece.id,), table, substitutions[piece.lam], denominator)
        return groups

    @_kept
    def _report(self) -> tuple[Violation, ...]:
        return tuple(_xray_violations(self))

    @_kept
    def _shapes(self) -> tuple[Violation, ...]:
        """A violation for each fault parse refuses; parse fills in ``()``."""
        rule = _positive_rule("rank", self.rank)
        if rule is None and not self.components:
            rule = _EMPTY_XRAY
        if rule is not None:
            return (Violation("xray-shape", f"xray: {rule}"),)
        shapes = _shape_violations("component", self.components, self.rank)
        members = None if shapes else lambda p: p._member_rule(self._by_id)
        pieces = _shape_violations(
            "piece", self.pieces, self.rank, duplicate=_DUPLICATE_PIECE, then=members
        )
        return tuple(shapes + pieces)

    @_kept
    def _levels(self) -> tuple[int, dict[str, tuple[int, ...]]]:
        """``(D, {id: levels})``: every component momentum as an integer
        vector over one common denominator D, the lcm of all coordinates'
        denominators, so that ``y == levels / D``."""
        denominator = lcm(*(x.denominator for c in self.components for x in c.y))
        return denominator, {
            c.id: tuple([x.numerator * (denominator // x.denominator) for x in c.y])
            for c in self.components
        }


def parse_xray(text) -> XRay:
    """Strictly parse an x-ray document (JSON text or an already-loaded dict),
    each record's keys checked once and its fields then read directly, as
    :func:`~equicoh.graph.parse_graph` reads them."""
    doc = _load_document(text)
    _check_keys(doc, XRAY_KEYS, "xray")
    try:
        if doc["kind"] != "xray":
            raise SchemaError('field "kind" must be "xray"', "xray")
        rank = doc["rank"]
        if (rule := _positive_rule("rank", rank)) is not None:
            raise SchemaError(rule, "xray")
        raw_components, raw_pieces = doc["components"], doc["pieces"]
    except KeyError as exc:
        raise _missing(exc, "xray") from None
    if not isinstance(raw_components, list) or not isinstance(raw_pieces, list):
        raise SchemaError('"components" and "pieces" must be arrays', "xray")

    seen: set[str] = set()
    components = []
    for i, item in enumerate(raw_components):
        where = f"components[{i}]"
        _check_keys(item, COMPONENT_KEYS, where)
        try:
            cid, y = item["id"], item["y"]
            if type(y) is list and len(y) == rank:  # any other y breaks the shape rule
                y = tuple([parse_rational(x, where) for x in y])
            if "genus" in item or "area" in item:
                if not ("genus" in item and "area" in item):
                    raise SchemaError('surfaces need both "genus" and "area"', where)
                kind, genus, area = "surface", item["genus"], parse_rational(item["area"], where)
            else:
                kind, genus, area = "point", 0, None
            weights = item["weights"]
        except KeyError as exc:
            raise _missing(exc, where) from None
        if type(weights) is list:
            weights = tuple(map(_tuple, weights))
        component = TorusFixedComponent(cid, kind, y, weights, genus, area)
        _admit(component._shape_rule(rank), cid, seen, where)
        components.append(component)
    if not components:
        raise SchemaError(_EMPTY_XRAY, "xray")

    piece_ids: set[str] = set()
    pieces = []
    for i, item in enumerate(raw_pieces):
        where = f"pieces[{i}]"
        _check_keys(item, PIECE_KEYS, where)
        try:
            pid, lam, dim, members = item["id"], item["lambda"], item["dim"], item["members"]
            induced = ell = None
            # the keys a piece carries, by its dimension
            if type(dim) is int and dim == 2:
                if "induced_graph" in item:
                    raise SchemaError(_NO_INDUCED_GRAPH, where)
                ell = item["ell"]
            elif type(dim) is int and dim == 4:
                if "ell" in item:
                    raise SchemaError(_NO_ELL, where)
                raw_graph = item["induced_graph"]
        except KeyError as exc:
            raise _missing(exc, where) from None
        if type(dim) is int and dim == 4:
            if not isinstance(raw_graph, dict):
                raise SchemaError(_GRAPH_RULE, f"{where}.induced_graph")
            try:
                induced = parse_graph(raw_graph)
            except SchemaError as exc:
                raise SchemaError(str(exc), f"{where}.induced_graph") from None
        lam, members = _tuple(lam), _tuple(members)
        piece = SkeletonPiece(pid, lam, dim, members, induced, ell)
        _admit(piece._shape_rule(rank), pid, piece_ids, where, _DUPLICATE_PIECE)
        if (rule := piece._member_rule(seen)) is not None:
            raise SchemaError(rule, where)
        if members != tuple(sorted(members)):  # a parsed piece lists its members sorted
            piece = SkeletonPiece(pid, lam, dim, tuple(sorted(members)), induced, ell)
        pieces.append(piece)

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


def _ratios(directions: dict, lam: tuple, against: tuple) -> list:
    """The integer ratios of a member's weights that are parallel to the
    primitive character lam, in no particular order: those along lam and,
    negated, those along ``against`` (``-lam``), read off the member's
    ``xray._along`` entry ``directions``."""
    return directions.get(lam, []) + [-c for c in directions.get(against, ())]


def validate_xray(xray: XRay) -> list[Violation]:
    """Semantic checks: record shapes, characters, projections, induced
    graphs.  Computed once per x-ray and kept on it."""
    return list(xray._report)


def _xray_violations(xray: XRay) -> list[Violation]:
    """The report of :func:`validate_xray`.

    An x-ray that breaks a rule parse refuses gets the violations of
    ``xray._shapes``, and then nothing else is checked, so every member is
    a component and a character is a nonzero integer vector, primitive
    when the gcd of its entries is 1.  Momenta are compared as integer
    vectors over the x-ray's common denominator (``xray._levels``), against
    an induced graph's own levels by cross-multiplying.
    """
    if xray._shapes:
        return _sorted_report(list(xray._shapes))
    violations: list[Violation] = []
    for piece in xray.pieces:
        pid = piece.id
        if gcd(*piece.lam) != 1:
            violations.append(
                Violation(
                    "character-not-primitive",
                    f"piece {pid}: character {list(piece.lam)} is not primitive",
                    (pid,),
                )
            )
            continue
        validate = _validate_dim2_piece if piece.dim == 2 else _validate_dim4_piece
        violations.extend(validate(xray, piece))
    return _sorted_report(violations)


def _character(piece: SkeletonPiece) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The piece's character and its negative, as the tuples ``_along`` keys."""
    lam = tuple(piece.lam)
    return lam, tuple([-x for x in lam])


def _validate_dim2_piece(xray: XRay, piece: SkeletonPiece) -> list[Violation]:
    pid = piece.id
    members = [xray._by_id[m] for m in piece.members]
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
    character, along = _character(piece), xray._along
    return _one_weight(piece, lower, along[lower.id], character, piece.ell) + _one_weight(
        piece, upper, along[upper.id], character, -piece.ell
    )


def _one_weight(piece: SkeletonPiece, member, directions: dict, character, ratio: int):
    """The violation of a member that does not carry exactly one weight
    along the piece's character, equal to ``ratio`` times it: its
    ``directions`` (its ``xray._along`` entry, whose ratios are positive)
    must list that one ratio on the side of ``ratio``'s sign and nothing on
    the other."""
    lam, against = character if ratio > 0 else character[::-1]
    if directions.get(lam) == [abs(ratio)] and against not in directions:
        return []
    return [
        Violation(
            "piece-weights",
            f"piece {piece.id}: {member.id!r} must carry exactly one weight along the "
            f"character, equal to {ratio} times it",
            (piece.id, member.id),
        )
    ]


def _validate_dim4_piece(xray: XRay, piece: SkeletonPiece) -> list[Violation]:
    """The induced graph's report, prefixed with the piece, and the checks of
    its members against the graph, each read once off the graph's kept
    ``_by_id``, ``_levels`` and ``_places`` and the x-ray's ``_along``.  An
    induced graph that breaks its own shape rules gets its report alone:
    its ids need not sort and its momenta need not be rational."""
    pid = piece.id
    induced = piece.induced
    out = [
        Violation(v.code, f"piece {pid}: {v.message}", (pid,) + v.components)
        for v in validate_graph(induced)
    ]
    if induced._shapes:
        return out
    if induced._by_id.keys() != set(piece.members):
        out.append(
            Violation(
                "piece-members",
                f"piece {pid}: induced components {induced.component_ids()} "
                f"differ from members {sorted(piece.members)}",
                (pid,),
            )
        )
        return out
    character = lam, against = _character(piece)
    along, places = xray._along, induced._places
    for listed, vertices in (("point", induced.isolated), ("surface", induced.surfaces)):
        for vertex in vertices:
            member = xray._by_id[vertex.id]
            if member.kind != listed:
                out.append(
                    Violation(
                        "member-data",
                        f"piece {pid}: {member.id!r} is a {member.kind} "
                        f"but the induced graph lists a {listed}",
                        (pid, member.id),
                    )
                )
            elif listed == "point":
                ratios = sorted(_ratios(along[member.id], lam, against))
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
                ratio = 1 if places[vertex.id] == "min" else -1
                out += _one_weight(piece, member, along[member.id], character, ratio)
    # a.y - b.y == (induced step) * lam, each side over its own denominator
    g_denominator, levels, _, _ = induced._levels
    x_denominator, x_levels = xray._levels
    ordered = sorted(levels)
    for a, b in zip(ordered, ordered[1:]):
        step = (levels[a] - levels[b]) * x_denominator
        if any(
            (x - y) * g_denominator != step * l
            for x, y, l in zip(x_levels[a], x_levels[b], lam)
        ):
            out.append(
                Violation(
                    "piece-momentum",
                    f"piece {pid}: momentum difference of {a!r} and {b!r} does "
                    "not project to the induced labels",
                    (pid, a, b),
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
    scaled = _scaled_parts(xray, xray.rank, alpha)
    if piece not in xray.pieces:
        raise InputError(f"piece {piece.id!r} is not a piece of this x-ray")
    return _class_obstructions(xray._groups[piece.id], scaled)


def check_membership_xray(xray: XRay, alpha: EquivariantClass) -> MembershipDecision:
    """Piece-by-piece membership for the full torus image.

    The x-ray and the addressing are checked once; each piece's
    :func:`piece_obstructions`, read off its kept group, are reported as
    violations the way :func:`check_membership_torus` reports them,
    prefixed with the piece.
    """
    _refuse_invalid(xray)
    scaled = _scaled_parts(xray, xray.rank, alpha)
    violations = [
        MembershipViolation(v.kind, f"piece {group[0][0]}: {v.detail}")
        for group in xray._groups.values()
        for v in _obstruction_violations(_class_obstructions(group, scaled))
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
    return _image_basis(xray, degree, max_degree)


def parse_class_torus(text, xray: XRay) -> EquivariantClass:
    """Parse a multivariate class document against its x-ray."""
    return _parse_class(text, xray)
