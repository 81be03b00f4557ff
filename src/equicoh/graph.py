"""Decorated graphs encoding Hamiltonian circle actions on 4-manifolds.

A graph records the fixed-point data of the action: isolated fixed points
carry a momentum level and the two signed isotropy weights; fixed surfaces
(fat vertices) carry momentum, symplectic area, genus and optionally a
normal-bundle self-intersection number; edges record isotropy spheres
joining isolated fixed points.  Validation checks the combinatorial
compatibility conditions such a graph must satisfy, and the two extremal
self-intersection numbers are determined by the rest of the data through
exact rational formulas implemented in :func:`extremal_self_intersections`.

A graph is frozen, so what is derived from it is computed at most once, when
first needed, and kept on the graph: its momenta as integer levels over one
common denominator, keyed by id as an x-ray's are, the place of each
component (minimum, maximum or interior), its two extremal labels, its
resolved graph, its index of components by id, the ``(id, kind, genus)`` of
its components, the nonzero entries of its H^1 identification, its
validation report and its shape check, which reports every fault parse
refuses (parse records an empty one): each such rule is stated once, in
parse's order and words, for parse to raise and validation to report.
Validation and every later query of the same graph share them.  ``_places``
is the one placement: validation, the extremal labels and resolution read a
component's place off it, and no other module places a component.
Validation compares and sums momenta as those integers, and compares the
inverse Euler numbers with the labels in integers over one lcm of their
denominators, so it adds no two fractions; it divides only for a value it
returns or prints, through :func:`~equicoh.mpoly.ratio`, so an integral
value is an ``int``.  A computation that raises (a degenerate span, a zero
weight) keeps nothing and raises again on the next call.

Parse checks each record's keys once and then reads its fields directly,
in a fixed order, so the first fault in that order is the one reported.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import DegenerateInputError, InputError, ParseError, SchemaError
from .mpoly import RATIONAL_TYPES, ratio

GRAPH_KEYS = {"kind", "isolated", "surfaces", "edges", "h1_identification"}
ISOLATED_KEYS = {"id", "y", "weights"}
SURFACE_KEYS = {"id", "y", "area", "genus", "self_intersection"}
EDGE_KEYS = {"from", "to", "ell", "area"}


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_RATIONAL_RULE = "expected a rational number"
_FLOAT_RULE = 'floats are rejected; use an integer or a "p/q" string'
_ID_RULE = "id must be a nonempty string"
_GENUS_RULE = '"genus" must be a nonnegative integer'
_TWO_SURFACES = "an identification needs exactly two fat vertices"
_NO_COMPONENTS = "needs at least one fixed component"
_EMPTY_GRAPH = f"a graph {_NO_COMPONENTS}"


def parse_rational(value, where: str) -> int | Fraction:
    """Exact rational from a JSON value: an integer, or a string of an
    optional sign, decimal digits and an optional ``/`` with a positive
    denominator of decimal digits (``"-3"``, ``"3/2"``).  An integral value
    is an ``int`` (``"6/3"`` is 2), any other a Fraction in lowest terms."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise SchemaError(_RATIONAL_RULE, where)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is not None:
            numerator, denominator = match.groups()
            try:
                return ratio(int(numerator), int(denominator or 1))
            except (ValueError, ZeroDivisionError):  # too many digits, or "/0"
                pass
        raise SchemaError(f"cannot parse rational {value!r}", where)
    raise SchemaError(_FLOAT_RULE if isinstance(value, float) else _RATIONAL_RULE, where)


def format_rational(x: int | Fraction) -> str:
    """``"p/q"`` in lowest terms, or the integer: an exact rational (an int
    or a Fraction) prints as it is."""
    return str(x)


class _kept:
    """``functools.cached_property`` without the lock it takes on every first
    read before Python 3.12: the value goes into the instance dict, which
    ==, hash and repr never read, and a getter that raises keeps nothing."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


@dataclass(frozen=True)
class IsolatedVertex:
    id: str
    y: int | Fraction
    weights: tuple[int, int]

    def _shape_rule(self) -> str | None:
        if not _is_id(self.id):
            return _ID_RULE
        if type(self.y) not in RATIONAL_TYPES:
            return _rational_rule(self.y)
        if not _is_vector(self.weights, 2, _INT_TYPES):
            return '"weights" must be a pair of integers'
        if 0 in self.weights:
            return "weights must be nonzero"
        return None


@dataclass(frozen=True)
class FatVertex:
    id: str
    y: int | Fraction
    area: int | Fraction
    genus: int
    self_intersection: int | Fraction | None = None

    def _shape_rule(self) -> str | None:
        if not _is_id(self.id):
            return _ID_RULE
        if type(self.y) not in RATIONAL_TYPES:
            return _rational_rule(self.y)
        if (rule := _area_rule(self.area)) is not None:
            return rule
        if type(self.genus) is not int or self.genus < 0:
            return _GENUS_RULE
        if self.self_intersection is not None:
            return _rational_rule(self.self_intersection)
        return None


@dataclass(frozen=True)
class GraphEdge:
    start: str  # serialized as "from"
    end: str  # serialized as "to"
    ell: int
    area: int | Fraction | None = None

    def _shape_rule(self) -> str | None:
        if not (_is_id(self.start) and _is_id(self.end)):
            return _ID_RULE
        if self.start == self.end:
            return "edge endpoints must differ"
        if (rule := _positive_rule("ell", self.ell)) is not None:
            return rule
        if self.area is not None:
            return _area_rule(self.area)
        return None

    def _endpoint_rule(self, ids, isolated) -> str | None:
        for endpoint in (self.start, self.end):
            if endpoint not in ids:
                return f"edge references an unknown id {endpoint!r}"
            if endpoint not in isolated:
                return f"edge endpoint {endpoint!r} is not an isolated vertex"
        return None


@dataclass(frozen=True)
class DecoratedGraph:
    isolated: tuple[IsolatedVertex, ...]
    surfaces: tuple[FatVertex, ...]
    edges: tuple[GraphEdge, ...]
    h1_identification: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "isolated", _sorted_by_id(self.isolated))
        object.__setattr__(self, "surfaces", _sorted_by_id(self.surfaces))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=_edge_order)))
        if self.h1_identification is not None:
            object.__setattr__(
                self,
                "h1_identification",
                tuple(tuple(row) for row in self.h1_identification),
            )

    def component_ids(self) -> list[str]:
        """The ids of :attr:`_fixed_components`, in their order."""
        return [cid for cid, _, _ in self._fixed_components]

    def find(self, component_id: str) -> IsolatedVertex | FatVertex:
        try:
            return self._by_id[component_id]
        except KeyError:
            raise InputError(f"no component named {component_id!r}") from None

    rank = None  # not a field: a graph's classes are a circle action's

    @_kept
    def _by_id(self) -> dict[str, IsolatedVertex | FatVertex]:
        return {v.id: v for v in self.isolated + self.surfaces}

    @_kept
    def _levels(self) -> _Levels:
        vertices = self.isolated + self.surfaces
        ys = [v.y for v in vertices]
        if _INT_TYPES.issuperset(map(type, ys)):
            denominator, levels = 1, ys
        else:
            denominator = lcm(*(y.denominator for y in ys))
            levels = [y.numerator * (denominator // y.denominator) for y in ys]
        by_id = {v.id: n for v, n in zip(vertices, levels)}
        return _Levels(denominator, by_id, min(levels), max(levels))

    @_kept
    def _places(self) -> dict[str, str]:
        """``{id: "min" | "max" | "interior"}``, the one placement, read off
        the levels; on a constant momentum every component is "min"."""
        _, levels, lo, hi = self._levels
        return {
            cid: "min" if n == lo else "max" if n == hi else "interior"
            for cid, n in levels.items()
        }

    @_kept
    def _labels(self) -> tuple[int | Fraction, int | Fraction]:
        return _extremal_labels(self)

    @_kept
    def _fixed_components(self) -> tuple[tuple[str, str, int], ...]:
        """``(id, kind, genus)`` of every fixed component, in the :func:`_order` of the ids."""
        points = [(v.id, "point", 0) for v in self.isolated]
        return _sorted_by_id(points + [(v.id, "surface", v.genus) for v in self.surfaces], _FIRST)

    @_kept
    def _kinds(self) -> dict[str, tuple[str, int]]:
        """``{id: (kind, genus)}``, read off :attr:`_fixed_components`."""
        return {cid: (kind, genus) for cid, kind, genus in self._fixed_components}

    @_kept
    def _report(self) -> tuple[Violation, ...]:
        return tuple(_graph_violations(self))

    @_kept
    def _shapes(self) -> tuple[Violation, ...]:
        """A violation for each fault parse refuses; parse fills in ``()``."""
        if not (self.isolated or self.surfaces):
            return (Violation("graph-shape", f"graph: {_EMPTY_GRAPH}"),)
        shapes = _shape_violations("component", self.isolated + self.surfaces)
        isolated = None if shapes else {v.id for v in self.isolated}
        for e in self.edges:
            rule = e._shape_rule()
            if rule is None and isolated is not None:
                rule = e._endpoint_rule(self._by_id, isolated)
            if rule is not None:
                pair = tuple(sorted((e.start, e.end), key=_order))
                shapes.append(Violation("edge-shape", f"edge {e.start}-{e.end}: {rule}", pair))
        return tuple(shapes)

    @_kept
    def _resolved(self) -> DecoratedGraph:
        """The graph with its missing extremal labels filled in; read only
        when one is missing, since keeping the graph itself would make a
        reference cycle."""
        labels = dict(zip(("min", "max"), self._labels))
        surfaces = []
        for v in self.surfaces:
            label = labels.get(self._places[v.id])
            if v.self_intersection is None and label is not None:
                v = FatVertex(v.id, v.y, v.area, v.genus, label)
            surfaces.append(v)
        resolved = DecoratedGraph(
            self.isolated, tuple(surfaces), self.edges, self.h1_identification
        )
        # The levels, places and labels read only ids, momenta, weights and
        # areas, which resolving keeps.
        resolved.__dict__.update(_levels=self._levels, _places=self._places, _labels=self._labels)
        return resolved

    @_kept
    def _h1_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero ``(column, entry)`` pairs of each row of
        :meth:`identification_matrix`; the default identity's are listed
        without building the matrix.  Read only with two fat vertices."""
        if self.h1_identification is None:
            return tuple(((j, 1),) for j in range(2 * self.surfaces[0].genus))
        return tuple(
            tuple((i, m) for i, m in enumerate(row) if m) for row in self.h1_identification
        )

    def identification_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The H^1 pairing between the two fat vertices; defaults to identity."""
        if len(self.surfaces) != 2:
            raise InputError(_TWO_SURFACES)
        g = self.surfaces[0].genus
        if self.h1_identification is not None:
            return self.h1_identification
        return tuple(
            tuple(1 if i == j else 0 for j in range(2 * g)) for i in range(2 * g)
        )


class _Levels(NamedTuple):
    """A graph's momenta as integers over one common denominator, the lcm
    of the ``y`` denominators: the component at ``level`` sits at
    ``level / denominator``.  The levels are keyed by id, as an x-ray's
    are; ``DecoratedGraph._places`` is the one placement read off them."""

    denominator: int
    by_id: dict[str, int]
    lowest: int
    highest: int


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    components: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "component-ids": list(self.components),
        }


def _sorted_report(violations: list[Violation]) -> list[Violation]:
    return sorted(violations, key=lambda v: (v.code, tuple(map(_order, v.components)), v.message))


def _require(obj: dict, key: str, where: str):
    try:
        return obj[key]
    except KeyError as exc:
        raise _missing(exc, where) from None


def _missing(exc: KeyError, where: str) -> SchemaError:
    """The error of a required field whose read raised ``exc``."""
    return SchemaError(f"missing required field {exc.args[0]!r}", where)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", where)
    if not allowed.issuperset(obj):
        raise SchemaError(f"unknown field(s) {sorted(set(obj) - allowed)}", where)


def _tuple(value):
    """A JSON array as a tuple; any other value as it is."""
    return tuple(value) if type(value) is list else value


def _shape_violations(noun: str, records, *rank, duplicate="duplicate id", then=None):
    """A ``<noun>-shape`` violation per record breaking its shape, id or ``then`` rule."""
    seen: set[str] = set()
    violations = []
    for r in records:
        rule = _record_rule(r._shape_rule(*rank), r.id, seen, duplicate)
        if rule is None and then is not None:
            rule = then(r)
        if rule is not None:
            violations.append(Violation(f"{noun}-shape", f"{noun} {r.id}: {rule}", (r.id,)))
    return violations


def _record_rule(rule: str | None, rid: str, seen: set[str], duplicate: str) -> str | None:
    """The shape rule a record breaks, else a repeat of its id; else it joins ``seen``."""
    if rule is None:
        if rid in seen:
            return f"{duplicate} {rid!r}"
        seen.add(rid)
    return rule


def _admit(rule: str | None, rid: str, seen: set[str], where: str, duplicate="duplicate id"):
    """Raise the shape rule a parsed record breaks, or else a repeated id."""
    if (rule := _record_rule(rule, rid, seen, duplicate)) is not None:
        raise SchemaError(rule, where)


def _decode_json(text: str):
    """``json.loads``, reporting nesting deeper than the decoder's recursion
    limit, and any other ValueError (an integer literal over Python's digit
    limit), as a ParseError; JSONDecodeError passes through."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("document is nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        reason = str(exc).partition(";")[0]
        raise ParseError(f"cannot decode a number: {reason}") from None


def _load_document(text) -> dict:
    if isinstance(text, dict):
        return text
    try:
        doc = _decode_json(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    return doc


def parse_graph(text) -> DecoratedGraph:
    """Strictly parse a graph document (JSON text or an already-loaded dict).

    Each record's keys are checked once, and its fields are then read
    directly; a missing field is reported where its read fails, so the
    first fault in reading order is the one named."""
    doc = _load_document(text)
    _check_keys(doc, GRAPH_KEYS, "graph")
    try:
        if doc["kind"] != "graph":
            raise SchemaError('field "kind" must be "graph"', "graph")
        raw_isolated, raw_surfaces, raw_edges = doc["isolated"], doc["surfaces"], doc["edges"]
    except KeyError as exc:
        raise _missing(exc, "graph") from None
    if not isinstance(raw_isolated, list) or not isinstance(raw_surfaces, list) \
            or not isinstance(raw_edges, list):
        raise SchemaError('"isolated", "surfaces" and "edges" must be arrays', "graph")

    seen: set[str] = set()
    isolated = []
    for i, item in enumerate(raw_isolated):
        where = f"isolated[{i}]"
        _check_keys(item, ISOLATED_KEYS, where)
        try:
            vid = item["id"]
            vertex = IsolatedVertex(vid, parse_rational(item["y"], where), _tuple(item["weights"]))
        except KeyError as exc:
            raise _missing(exc, where) from None
        _admit(vertex._shape_rule(), vid, seen, where)
        isolated.append(vertex)

    surfaces = []
    for i, item in enumerate(raw_surfaces):
        where = f"surfaces[{i}]"
        _check_keys(item, SURFACE_KEYS, where)
        try:
            vid = item["id"]
            y = parse_rational(item["y"], where)
            area = parse_rational(item["area"], where)
            genus = item["genus"]
        except KeyError as exc:
            raise _missing(exc, where) from None
        e = item.get("self_intersection")
        if e is not None:
            e = parse_rational(e, where)
        surface = FatVertex(vid, y, area, genus, e)
        _admit(surface._shape_rule(), vid, seen, where)
        surfaces.append(surface)

    if not seen:
        raise SchemaError(_EMPTY_GRAPH, "graph")

    isolated_ids = {v.id for v in isolated}
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        _check_keys(item, EDGE_KEYS, where)
        try:
            start, end, ell = item["from"], item["to"], item["ell"]
        except KeyError as exc:
            raise _missing(exc, where) from None
        area = item.get("area")
        if area is not None:
            area = parse_rational(area, where)
        edge = GraphEdge(start, end, ell, area)
        if (rule := edge._shape_rule() or edge._endpoint_rule(seen, isolated_ids)) is not None:
            raise SchemaError(rule, where)
        edges.append(edge)

    identification = doc.get("h1_identification")
    if identification is not None:
        error = _identification_error(identification, surfaces)
        if error:
            raise SchemaError(error, "h1_identification")

    graph = DecoratedGraph(tuple(isolated), tuple(surfaces), tuple(edges), identification)
    graph.__dict__["_shapes"] = ()  # every other shape was refused above
    return graph


def _identification_error(identification, surfaces) -> str | None:
    """Why an H^1 identification does not pair the two fat vertices' H^1,
    read against the genus of the first; None when it does."""
    if len(surfaces) != 2:
        return _TWO_SURFACES
    n = 2 * surfaces[0].genus
    if (
        not isinstance(identification, (list, tuple))
        or len(identification) != n
        or any(
            not isinstance(row, (list, tuple))
            or len(row) != n
            or any(type(x) is not int or x not in (-1, 0, 1) for x in row)
            for row in identification
        )
    ):
        return f"expected a {n}x{n} matrix over {{-1, 0, 1}}"
    for i in range(n):
        if sum(1 for x in identification[i] if x) != 1:
            return "each row must have exactly one nonzero entry"
        if sum(1 for row in identification if row[i]) != 1:
            return "each column must have exactly one nonzero entry"
    return None


def graph_to_dict(graph: DecoratedGraph) -> dict:
    doc: dict = {
        "kind": "graph",
        "isolated": [
            {"id": v.id, "y": format_rational(v.y), "weights": list(v.weights)}
            for v in graph.isolated
        ],
        "surfaces": [],
        "edges": [],
    }
    for v in graph.surfaces:
        item = {
            "id": v.id,
            "y": format_rational(v.y),
            "area": format_rational(v.area),
            "genus": v.genus,
        }
        if v.self_intersection is not None:
            item["self_intersection"] = format_rational(v.self_intersection)
        doc["surfaces"].append(item)
    for e in graph.edges:
        item = {"from": e.start, "to": e.end, "ell": e.ell}
        if e.area is not None:
            item["area"] = format_rational(e.area)
        doc["edges"].append(item)
    if graph.h1_identification is not None:
        doc["h1_identification"] = [list(row) for row in graph.h1_identification]
    return doc


def serialize_graph(graph: DecoratedGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=True) + "\n"


def extremal_self_intersections(graph: DecoratedGraph) -> tuple[int | Fraction, int | Fraction]:
    """Self-intersection numbers forced on the extrema by the interior data.

    Interior isolated points enter through 1/(m n) with m, n the weight
    magnitudes; extremal area labels enter directly (0 for isolated
    extrema).  Raises InputError on a graph that breaks a shape rule and
    DegenerateInputError when the momentum span collapses.  The pair is
    computed once per graph.
    """
    _refuse_invalid(graph, shapes_only=True)
    return graph._labels


def _extremal_labels(graph: DecoratedGraph) -> tuple[int | Fraction, int | Fraction]:
    """The pair :func:`extremal_self_intersections` returns, from integers.

    With the momenta as levels n over their common denominator D, the
    interior points' m n and the extremal areas' denominators over their
    lcm L, and each extremal area s as the integer S = s L,

        e_min = (sum (n - n_max) L/(m n) + D (S_min - S_max)) / (L (n_max - n_min))

    and e_max is its mirror image.  Each label is one :func:`~equicoh.mpoly.ratio`,
    an ``int`` when integral, as parse makes it.  The graph holds to its shape
    rules (every reader gates on them first), so no weight is zero.  The
    levels are keyed by id, and the interior points and the extremal areas
    are picked by ``graph._places``, the one placement.
    """
    denominator, levels, lo, hi = graph._levels
    if lo == hi:
        raise DegenerateInputError("momentum map is constant; extrema are not separated")
    places = graph._places
    interior = []
    common = 1
    for v in graph.isolated:
        if places[v.id] == "interior":
            mn = abs(v.weights[0] * v.weights[1])
            common = lcm(common, mn)
            interior.append((levels[v.id], mn))
    ends = {"min": (0, 1), "max": (0, 1)}  # numerator and denominator of the extremal areas
    for v in graph.surfaces:
        if places[v.id] in ends:
            ends[places[v.id]] = (v.area.numerator, v.area.denominator)
    (p_min, q_min), (p_max, q_max) = ends["min"], ends["max"]
    common = lcm(common, q_min, q_max)
    sum_e = sum(common // mn for _, mn in interior)
    sum_ne = sum(n * (common // mn) for n, mn in interior)
    gap = denominator * (p_min * (common // q_min) - p_max * (common // q_max))
    span = common * (hi - lo)
    return ratio(sum_ne - hi * sum_e + gap, span), ratio(lo * sum_e - sum_ne - gap, span)


def resolve_self_intersections(graph: DecoratedGraph) -> DecoratedGraph:
    """Fill missing self_intersection labels on extremal surfaces from the
    equations; the graph itself when every label is present.  Raises
    InputError on a graph that breaks a shape rule.  The resolved graph is
    built once per graph."""
    _refuse_invalid(graph, shapes_only=True)
    if all(v.self_intersection is not None for v in graph.surfaces):
        return graph
    return graph._resolved


def weight_product(vertex: IsolatedVertex) -> int:
    """Signed product of the two isotropy weights; the equivariant Euler number."""
    w = vertex.weights[0] * vertex.weights[1]
    if w == 0:
        raise InputError(f"zero weight at {vertex.id!r}")
    return w


def _euler_sum_vanishes(products, labels) -> bool:
    """Whether the 1/w over the weight products w of the isolated points sum
    to the labels (the fat vertices' self-intersections), compared in
    integers over one lcm of every denominator."""
    common = lcm(*products, *(x.denominator for x in labels))
    return sum(common // w for w in products) == sum(
        x.numerator * (common // x.denominator) for x in labels
    )


def abbv_zero_check(graph: DecoratedGraph) -> bool:
    """Degree-zero localization identity: sum of inverse Euler numbers vanishes.

    Requires every fat vertex to carry a resolved self_intersection, and
    raises InputError on a graph that breaks a shape rule.
    """
    _refuse_invalid(graph, shapes_only=True)
    products = [weight_product(v) for v in graph.isolated]
    for v in graph.surfaces:
        if v.self_intersection is None:
            raise InputError(f"unresolved self_intersection at {v.id!r}")
    return _euler_sum_vanishes(products, [v.self_intersection for v in graph.surfaces])


def validate_graph(graph: DecoratedGraph) -> list[Violation]:
    """All compatibility violations, canonically sorted; empty iff valid.
    Computed once per graph and kept on it."""
    return list(graph._report)


def _refuse_invalid(document, shapes_only: bool = False) -> None:
    """The gate in front of the compute entry points: raise InputError
    naming every violation of an invalid graph or x-ray, read off the
    report validation keeps on it; DegenerateInputError when the one
    violation is a degenerate momentum map.  With ``shapes_only`` only the
    shape violations are refused, for the label entry points, which
    answer on a graph that breaks the other rules."""
    report = document._shapes if shapes_only else document._report
    if report:
        noun = "graph" if document.rank is None else "x-ray"
        found = "; ".join(f"{v.code}: {v.message}" for v in report)
        codes = [v.code for v in report]
        error = DegenerateInputError if codes == ["degenerate-momentum"] else InputError
        raise error(f"invalid {noun}: {found}")


# The types parse makes of an integer and of a vector.
_INT_TYPES = frozenset((int,))
_SEQUENCE_TYPES = frozenset((tuple, list))


def _is_vector(x, length: int, types) -> bool:
    """A tuple or list of ``length`` entries, each of a type in ``types``."""
    return type(x) in _SEQUENCE_TYPES and len(x) == length and types.issuperset(map(type, x))


def _is_id(x) -> bool:
    return isinstance(x, str) and x != ""


def _order(x) -> tuple:
    """A sort key for a record's id or ``ell`` that never raises: strings,
    then ints, each in their own order, then any other value by its type's
    name and its repr.  A valid record's ids are strings and its ``ell`` an
    int, so those sort as themselves; a record of the wrong shape sorts
    too, and its shape rule reports it."""
    if type(x) is str:
        return (0, x)
    if type(x) is int:
        return (1, x)
    return (2, type(x).__name__, repr(x))


_STR_TYPES = frozenset((str,))
_ID = attrgetter("id")
_FIRST = itemgetter(0)  # the id of an ``(id, kind, genus)`` tuple


def _sorted_by_id(records, key=_ID) -> tuple:
    """The records in the :func:`_order` of their ids (read by ``key``): where
    every id is a string, that is the strings' own order, by the ids alone."""
    if _STR_TYPES.issuperset(map(type, map(key, records))):
        return tuple(sorted(records, key=key))
    return tuple(sorted(records, key=lambda r: _order(key(r))))


def _edge_order(e: GraphEdge) -> tuple:
    return _order(e.start), _order(e.end), _order(e.ell)


def _rational_rule(x) -> str | None:
    """The rule a value breaks as a rational (an int or a Fraction), or None."""
    if type(x) in RATIONAL_TYPES:
        return None
    return _FLOAT_RULE if type(x) is float else _RATIONAL_RULE


def _positive_rule(field: str, x) -> str | None:
    """The rule a value breaks as the positive integer ``field``, or None."""
    if type(x) is int and x >= 1:
        return None
    return f'"{field}" must be a positive integer'


def _area_rule(x) -> str | None:
    """The rule a value breaks as an area, a positive rational; or None."""
    if type(x) not in RATIONAL_TYPES:
        return _rational_rule(x)
    return "area must be positive" if x.numerator <= 0 else None


def _graph_violations(graph: DecoratedGraph) -> list[Violation]:
    """The report of :func:`validate_graph`.

    A graph that breaks a rule parse refuses gets the violations of
    ``graph._shapes``, and then nothing else is checked.  Momenta are
    compared as integer levels over one common denominator, keyed by id
    (``graph._levels``), and each component's place (minimum, maximum or
    in between) is read off ``graph._places``, the one placement.
    """
    if graph._shapes:
        return _sorted_report(list(graph._shapes))
    violations: list[Violation] = []
    denominator, levels, lo, hi = graph._levels
    if lo == hi:
        return [
            Violation(
                "degenerate-momentum",
                "all components sit at one momentum level",
                tuple(graph.component_ids()),
            )
        ]

    places = graph._places
    products = []
    for v in graph.isolated:
        b1, b2 = v.weights
        products.append(b1 * b2)
        if places[v.id] == "min":
            rule, ok = "minimum point must have two positive weights", b1 > 0 and b2 > 0
        elif places[v.id] == "max":
            rule, ok = "maximum point must have two negative weights", b1 < 0 and b2 < 0
        else:
            rule, ok = "interior point must have weights of opposite sign", b1 * b2 < 0
        if not ok:
            violations.append(Violation("weight-signs", f"{rule}, got {v.weights}", (v.id,)))

    labels: list[int | Fraction | None] = []
    extremal = dict(zip(("min", "max"), graph._labels))
    for v in graph.surfaces:
        expected = extremal.get(places[v.id])
        if expected is None:
            violations.append(
                Violation("fat-not-extremal", "fixed surfaces occur only at the extrema", (v.id,))
            )
        label = v.self_intersection
        labels.append(expected if label is None else label)
        if label is not None and expected is not None and label != expected:
            violations.append(
                Violation(
                    "self-intersection",
                    f"label {label} but the extremal equations give {expected}",
                    (v.id,),
                )
            )

    for place, level in (("min", "minimum"), ("max", "maximum")):
        ids = [cid for cid, at in places.items() if at == place]
        if len(ids) > 1:
            violations.append(
                Violation(
                    "extremum-not-unique",
                    f"{len(ids)} components attain the {level}",
                    tuple(sorted(ids)),
                )
            )

    for e in graph.edges:
        a, b = graph._by_id[e.start], graph._by_id[e.end]
        na, nb = levels[e.start], levels[e.end]
        pair = tuple(sorted((e.start, e.end)))
        if na == nb:
            violations.append(
                Violation("edge-weights", "edge endpoints sit at equal momentum", pair)
            )
            continue
        lower, upper = (a, b) if na < nb else (b, a)
        if e.ell not in lower.weights or -e.ell not in upper.weights:
            violations.append(
                Violation(
                    "edge-weights",
                    f"edge of speed {e.ell} needs weight +{e.ell} below and -{e.ell} above",
                    pair,
                )
            )
        # |b.y - a.y| == ell * area, over the common denominator
        if e.area is not None and (
            abs(nb - na) * e.area.denominator != e.ell * e.area.numerator * denominator
        ):
            violations.append(
                Violation(
                    "edge-area",
                    f"momentum gap {abs(b.y - a.y)} != ell * area = {e.ell * e.area}",
                    pair,
                )
            )

    genera = sorted({v.genus for v in graph.surfaces})
    surface_ids = tuple(v.id for v in graph.surfaces)
    if len(graph.surfaces) == 2 and len(genera) > 1:
        violations.append(
            Violation(
                "genus-mismatch",
                f"the two fixed surfaces have different genera {genera}",
                surface_ids,
            )
        )
    elif graph.h1_identification is not None:
        error = _identification_error(graph.h1_identification, graph.surfaces)
        if error:
            violations.append(Violation("h1-identification", error, surface_ids))
    if any(v.genus > 0 for v in graph.surfaces) and len(graph.surfaces) != 2:
        violations.append(
            Violation(
                "genus-mismatch",
                "positive genus forces exactly two fixed surfaces",
                surface_ids,
            )
        )

    if not graph.surfaces:
        g = gcd(*(w for v in graph.isolated for w in v.weights))
        if g != 1:
            violations.append(
                Violation(
                    "not-effective",
                    f"all weights share the common factor {g}",
                    tuple(v.id for v in graph.isolated),
                )
            )

    # An unlabelled surface off the extrema leaves no label to sum.
    summable = all(label is not None for label in labels)
    if summable and not _euler_sum_vanishes(products, labels):
        violations.append(
            Violation(
                "euler-sum",
                "inverse Euler numbers of the fixed components do not sum to zero",
                tuple(graph.component_ids()),
            )
        )

    return _sorted_report(violations)


def report_to_json(violations: list[Violation]) -> list[dict]:
    return [v.to_dict() for v in violations]
