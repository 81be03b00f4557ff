"""X-rays of complexity-one torus actions: validation, membership, bases."""

import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from equicoh import (
    ComponentClass,
    EquivariantClass,
    InputError,
    MPoly,
    PoincareSeries,
    SchemaError,
    SurfaceClass,
    check_membership,
    check_membership_xray,
    class_from_vector,
    class_to_dict,
    class_to_vector,
    degree_slots,
    graph_to_dict,
    image_basis,
    image_basis_xray,
    parse_class,
    parse_class_torus,
    parse_xray,
    promote_to_torus,
    serialize_xray,
    unit_class,
    validate_xray,
    xray_to_dict,
)
from equicoh.s1 import (
    MembershipDecision,
    MembershipViolation,
    _check_addressing,
    _constraint_table,
    _rows,
    character_substitution,
    slot_value,
    torus_obstructions,
)
from equicoh.graph import (
    EDGE_KEYS,
    GRAPH_KEYS,
    ISOLATED_KEYS,
    SURFACE_KEYS,
    DecoratedGraph,
    GraphEdge,
    IsolatedVertex,
    Violation,
    _admit,
    _check_keys,
    _load_document,
    _require,
    _tuple,
    format_rational,
    parse_graph,
    parse_rational,
    validate_graph,
)
from equicoh import s1 as s1_module
from equicoh import xray as xray_module
from equicoh.core import map_parts
from equicoh.mpoly import is_primitive
from equicoh.xray import (
    _NO_ELL,
    _NO_INDUCED_GRAPH,
    COMPONENT_KEYS,
    DEFAULT_XRAY_MAX_DEGREE,
    PIECE_KEYS,
    XRAY_KEYS,
    SkeletonPiece,
    TorusFixedComponent,
    XRay,
    piece_obstructions,
)
from fixtures import constant_torus_class, cp3, cube, g1, mutate, x2
from test_graph import reference_parse_graph, reference_validate_graph
from test_linalg import reference_nullspace


def times_variable(xray, alpha, index):
    """Multiply a polynomial-coefficient class by one degree-2 parameter."""
    u = MPoly.variable(xray.rank, index)
    comps = {}
    for cid, cls in alpha.components.items():
        entries = {}
        for k, value in cls.entries.items():
            if cls.kind == "point":
                entries[k + 2] = value * u
            else:
                entries[k + 2] = SurfaceClass(
                    cls.genus, value.c0 * u, tuple(x * u for x in value.c1), value.c2 * u
                )
        comps[cid] = ComponentClass(cls.kind, cls.genus, entries, cls.rank)
    return EquivariantClass(comps, alpha.rank, alpha.fixed_components)


# -- parsing and serialization ------------------------------------------------


def test_parse_x2_shape():
    xray = x2(1)
    assert xray.rank == 2
    assert xray.component_ids() == ["Smax_0", "Smax_1", "Smin_0", "Smin_1"]
    assert [p.id for p in xray.pieces] == ["PX0", "PX1", "PY0", "PY1"]
    assert all(p.dim == 4 and p.ell is None for p in xray.pieces)
    assert xray.find("Smin_1").kind == "surface"
    assert xray.find("Smin_1").area == 1
    with pytest.raises(InputError, match="no component named 'Z'"):
        xray.find("Z")


def test_parse_cp3_shape():
    xray = cp3()
    assert xray.component_ids() == ["P0", "P1", "P2", "P3"]
    assert [p.id for p in xray.pieces] == ["E01", "E02", "E03", "E12", "E13", "E23"]
    assert all(p.dim == 2 and p.ell == 1 and p.induced is None for p in xray.pieces)
    assert xray.find("P0").weights == ((1, 0), (0, 1), (1, 1))


def test_serialize_roundtrip():
    for xray in (x2(1), cp3()):
        doc = xray_to_dict(xray)
        assert xray_to_dict(parse_xray(serialize_xray(xray))) == doc


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["pieces"][0].update(dim=3), '"dim" must be 2 or 4'),
        pytest.param(
            lambda d: d["pieces"][0].update(dim=4.0), '"dim" must be 2 or 4', id="float-dim"
        ),
        (lambda d: d["pieces"][0].update(dim=2, ell=1),
         "carries no induced graph"),
        (lambda d: d["pieces"][0].update(ell=1), 'only 2-dimensional pieces carry "ell"'),
        (lambda d: d["pieces"][0]["members"].__setitem__(0, "nope"),
         "unknown id 'nope'"),
        (lambda d: d["components"][0]["weights"].append([1, 1]),
         '"weights" must list 2 vectors'),
        (lambda d: d["components"][0].pop("area"), 'both "genus" and "area"'),
        (lambda d: d["components"][0]["weights"].__setitem__(0, [0, 0]),
         "weight vectors must be nonzero"),
        (lambda d: d.update(rank=0), '"rank" must be a positive integer'),
        (lambda d: d["components"][1].update(id="Smin_0"), "duplicate id"),
        (lambda d: d["pieces"][1].update(id="PX0"), "duplicate piece id"),
        (lambda d: d["components"][0].update(y=[0]), '"y" must be a vector of 2'),
        (lambda d: d["pieces"][0].update({"lambda": [0, 0]}), "character must be nonzero"),
        (lambda d: d["pieces"][0]["members"].append("Smin_1"),
         "induced components"),
        (lambda d: d.update(components=[]), "at least one fixed component"),
    ],
)
def test_parse_x2_schema_errors(edit, message):
    doc = fixtures.x2_doc(1)
    edit(doc)
    if message == "induced components":
        violations = validate_xray(parse_xray(doc))
        assert any(v.code == "piece-members" for v in violations)
    else:
        with pytest.raises(SchemaError, match=message):
            parse_xray(doc)


def test_parse_cp3_ell_required():
    doc = mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].pop("ell"))
    with pytest.raises(SchemaError, match='missing required field'):
        parse_xray(doc)
    doc = mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update(ell=0))
    with pytest.raises(SchemaError, match='"ell" must be a positive integer'):
        parse_xray(doc)


def test_induced_graph_errors_are_located():
    doc = fixtures.x2_doc(1)
    doc["pieces"][0]["induced_graph"]["surfaces"][0].pop("area")
    with pytest.raises(SchemaError) as info:
        parse_xray(doc)
    assert "induced_graph" in str(info.value)


@pytest.mark.parametrize(
    "value", [[1], 7, None, json.dumps(fixtures.x2_doc(1)["pieces"][0]["induced_graph"])]
)
def test_induced_graph_must_be_an_object(value):
    doc = mutate(fixtures.x2_doc(1), lambda d: d["pieces"][0].update(induced_graph=value))
    with pytest.raises(SchemaError) as info:
        parse_xray(doc)
    assert str(info.value) == "pieces[0].induced_graph: expected a graph object"


def reference_parse_xray(text) -> XRay:
    """X-ray parsing that checks each record's keys and then looks each
    required field up on its own, in reading order, and each induced graph
    with :func:`test_graph.reference_parse_graph`."""
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
        _check_keys(item, COMPONENT_KEYS, where)
        cid = _require(item, "id", where)
        y = _require(item, "y", where)
        if type(y) is list and len(y) == rank:  # any other y breaks the shape rule
            y = tuple(parse_rational(x, where) for x in y)
        is_surface = "genus" in item or "area" in item
        if is_surface and not ("genus" in item and "area" in item):
            raise SchemaError('surfaces need both "genus" and "area"', where)
        genus = item["genus"] if is_surface else 0
        area = parse_rational(item["area"], where) if is_surface else None
        weights = _require(item, "weights", where)
        if type(weights) is list:
            weights = tuple(map(_tuple, weights))
        kind = "surface" if is_surface else "point"
        component = TorusFixedComponent(cid, kind, y, weights, genus, area)
        _admit(component._shape_rule(rank), cid, seen, where)
        components.append(component)
    if not components:
        raise SchemaError("an x-ray needs at least one fixed component", "xray")

    piece_ids: set[str] = set()
    pieces = []
    for i, item in enumerate(raw_pieces):
        where = f"pieces[{i}]"
        _check_keys(item, PIECE_KEYS, where)
        pid = _require(item, "id", where)
        lam = _tuple(_require(item, "lambda", where))
        dim = _require(item, "dim", where)
        members = _tuple(_require(item, "members", where))
        induced = ell = None
        # the keys a piece carries, by its dimension
        if type(dim) is int and dim == 2:
            if "induced_graph" in item:
                raise SchemaError(_NO_INDUCED_GRAPH, where)
            ell = _require(item, "ell", where)
        elif type(dim) is int and dim == 4:
            if "ell" in item:
                raise SchemaError(_NO_ELL, where)
            raw_graph = _require(item, "induced_graph", where)
            if not isinstance(raw_graph, dict):
                raise SchemaError("expected a graph object", f"{where}.induced_graph")
            try:
                induced = reference_parse_graph(raw_graph)
            except SchemaError as exc:
                raise SchemaError(str(exc), f"{where}.induced_graph") from None
        piece = SkeletonPiece(pid, lam, dim, members, induced, ell)
        _admit(piece._shape_rule(rank), pid, piece_ids, where, "duplicate piece id")
        for m in members:
            if m not in seen:
                raise SchemaError(f"piece references an unknown id {m!r}", where)
        if members != tuple(sorted(members)):  # a parsed piece lists its members sorted
            piece = SkeletonPiece(pid, lam, dim, tuple(sorted(members)), induced, ell)
        pieces.append(piece)

    xray = XRay(rank, tuple(components), tuple(pieces))
    xray.__dict__["_shapes"] = ()  # every other shape was refused above
    return xray


# One value of every JSON type, and strings that are ids, rationals or
# neither: each replaces a node of a fixture document in turn.
FAULT_VALUES = [
    None, True, False, 0, 1, -1, 2, 4, 10**30, 1.5, 2.0, -0.0,
    "", "x", "A", "P0", "Smin_0", "0", "1/2", "-3/4", "1/0", "2/4", " 1",
    [], [0], [1, 2], [0, 0], [1, -1, 0], [[1, 0], [0, 1]], ["A", "B"], {}, {"kind": "graph"},
]


# the keys of the records an array of each name holds
_RECORD_KEYS = {
    "isolated": ISOLATED_KEYS,
    "surfaces": SURFACE_KEYS,
    "edges": EDGE_KEYS,
    "components": COMPONENT_KEYS,
    "pieces": PIECE_KEYS,
}


def _single_faults(doc: dict, keys: frozenset) -> list:
    """``(container, key, value)`` for each single-node fault of ``doc``:
    every node below the root replaced by each fault value or deleted
    (``value`` is ``_DELETE``), and every key a record may carry but lacks
    added with each fault value."""
    faults = []

    def walk(node, keys):
        # ``keys``: a record's own keys, or those of an array's records
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            faults.extend((node, key, value) for value in FAULT_VALUES + [_DELETE])
            if isinstance(child, dict):
                walk(child, GRAPH_KEYS if key == "induced_graph" else keys)
            elif isinstance(child, list):
                walk(child, _RECORD_KEYS.get(key))
        if isinstance(node, dict) and keys:
            for key in sorted(keys - node.keys()):
                faults.extend((node, key, value) for value in FAULT_VALUES)

    walk(doc, keys)
    return faults


_DELETE = object()


def _apply(container, key, value):
    """Make the fault; return the function that undoes it."""
    if value is _DELETE:
        old = container[key]
        if isinstance(container, list):
            del container[key]
            return lambda: container.insert(key, old)
        del container[key]
        return lambda: container.__setitem__(key, old)
    if isinstance(container, dict) and key not in container:
        container[key] = value
        return lambda: container.pop(key)
    old, container[key] = container[key], value
    return lambda: container.__setitem__(key, old)


def parse_outcome(parse, doc):
    """The record ``parse`` builds, or the type, text and location of what it raises."""
    try:
        return parse(doc)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc), getattr(exc, "path", None)


SWEPT_DOCUMENTS = {
    "g1": (fixtures.g1_doc, parse_graph, reference_parse_graph, GRAPH_KEYS),
    "g2_1": (lambda: fixtures.g2_doc(1), parse_graph, reference_parse_graph, GRAPH_KEYS),
    "g3": (fixtures.g3_doc, parse_graph, reference_parse_graph, GRAPH_KEYS),
    "x2_1": (lambda: fixtures.x2_doc(1), parse_xray, reference_parse_xray, XRAY_KEYS),
    "cp3": (fixtures.cp3_doc, parse_xray, reference_parse_xray, XRAY_KEYS),
    "cube_2_1": (lambda: fixtures.cube_doc(2, 1), parse_xray, reference_parse_xray, XRAY_KEYS),
}


@pytest.mark.parametrize("name", sorted(SWEPT_DOCUMENTS))
def test_every_single_fault_parses_as_the_reference_parses_it(name):
    """Each node of a fixture document replaced by a fault value or
    deleted, and each absent record key added, induced graphs included:
    the parser raises what the reference raises, with the same message and
    location, or builds an equal record."""
    make, parse, reference, keys = SWEPT_DOCUMENTS[name]
    doc = make()
    faults = _single_faults(doc, keys)
    for container, key, value in faults:
        undo = _apply(container, key, value)
        try:
            assert parse_outcome(parse, doc) == parse_outcome(reference, doc), (key, value)
        finally:
            undo()
    assert doc == make()


# the second faults paired with a missing field
_SECOND_FAULTS = [None, 1.5, "x", [], {}, _DELETE]


@pytest.mark.parametrize("name", sorted(SWEPT_DOCUMENTS))
def test_a_missing_field_with_another_fault_in_its_record_parses_as_the_reference(name):
    """A required field deleted and another field of the same record broken
    or deleted too: the fault named first is the reference's, so each
    record's fields are read in the reference's order."""
    make, parse, reference, keys = SWEPT_DOCUMENTS[name]
    doc = make()
    faults = _single_faults(doc, keys)
    for container, key, value in faults:
        if value is not _DELETE or not isinstance(container, dict):
            continue
        seconds = [
            (other, second)
            for c, other, second in faults
            if c is container and other != key and any(second is x for x in _SECOND_FAULTS)
        ]
        for other, second in seconds:
            undo = _apply(container, key, value)
            undo_second = _apply(container, other, second)
            try:
                assert parse_outcome(parse, doc) == parse_outcome(reference, doc), (key, other)
            finally:
                undo_second()
                undo()
    assert doc == make()


# -- semantic validation ------------------------------------------------------


def test_fixtures_validate_cleanly():
    assert validate_xray(x2(1)) == []
    assert validate_xray(x2(0)) == []
    assert validate_xray(cp3()) == []


def test_imprimitive_character_is_flagged():
    doc = mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [2, 0]}))
    violations = validate_xray(parse_xray(doc))
    assert [v.code for v in violations] == ["character-not-primitive"]


def test_dim2_piece_requires_two_points():
    doc = fixtures.x2_doc(1)
    doc["pieces"][3] = {
        "id": "PY1", "lambda": [0, 1], "dim": 2, "ell": 1,
        "members": ["Smax_0", "Smax_1"],
    }
    violations = validate_xray(parse_xray(doc))
    assert [v.code for v in violations] == ["piece-members"]


def test_dim2_momentum_must_follow_character():
    doc = mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [0, 1]}))
    violations = validate_xray(parse_xray(doc))
    assert [v.code for v in violations] == ["piece-momentum"]


def test_dim2_weights_must_match_character():
    def edit(d):
        for c in d["components"]:
            if c["id"] == "P0":
                c["weights"][c["weights"].index([1, 0])] = [2, 0]

    violations = validate_xray(parse_xray(mutate(fixtures.cp3_doc(), edit)))
    assert [v.code for v in violations] == ["piece-weights"]
    assert violations[0].components == ("E01", "P0")


def test_dim4_member_data_must_match_induced_graph():
    def edit(d):
        for s in d["pieces"][0]["induced_graph"]["surfaces"]:
            s["genus"] = 2

    violations = validate_xray(parse_xray(mutate(fixtures.x2_doc(1), edit)))
    assert {v.code for v in violations} == {"member-data"}
    assert len(violations) == 2


def test_dim4_momentum_projection():
    def edit(d):
        d["components"][2]["y"] = [2, 0]  # Smax_0

    violations = validate_xray(parse_xray(mutate(fixtures.x2_doc(1), edit)))
    assert [v.code for v in violations] == ["piece-momentum", "piece-momentum"]
    assert {v.components[0] for v in violations} == {"PX0", "PY1"}


def test_induced_graph_violations_carry_piece_prefix():
    def edit(d):
        d["pieces"][0]["induced_graph"]["surfaces"][0]["self_intersection"] = 5

    violations = validate_xray(parse_xray(mutate(fixtures.x2_doc(1), edit)))
    assert any(
        v.code == "self-intersection" and v.message.startswith("piece PX0: ")
        for v in violations
    )


# -- validation against the Fraction-based reference -------------------------


def reference_parallel_ratio(vector, lam):
    """The scalar c with vector = c * lam as a Fraction, or None."""
    pivot = next((i for i, x in enumerate(lam) if x), None)
    if pivot is None:
        raise InputError("the character must be nonzero")
    a, b = vector[pivot], lam[pivot]
    if all(v * b == a * l for v, l in zip(vector, lam)):
        return Fraction(a, b)
    return None


def reference_validate_xray(xray):
    """Validation that compares the momenta as Fractions and checks each
    induced graph with :func:`reference_validate_graph`.  The one message
    it renders as the library does is the ratio list of a point member of a
    4-dimensional piece, which once printed Fraction reprs."""
    violations = []
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
            violations.extend(_reference_dim2_piece(piece, members))
        else:
            violations.extend(_reference_dim4_piece(piece, members))
    return sorted(violations, key=lambda v: (v.code, v.components, v.message))


def _reference_ratios(member, lam):
    return [r for w in member.weights if (r := reference_parallel_ratio(w, lam)) is not None]


def _reference_dim2_piece(piece, members):
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
    ratio = reference_parallel_ratio(delta, piece.lam)
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
        if _reference_ratios(member, piece.lam) != [sign * piece.ell]:
            out.append(
                Violation(
                    "piece-weights",
                    f"piece {pid}: {member.id!r} must carry exactly one weight along the "
                    f"character, equal to {sign * piece.ell} times it",
                    (pid, member.id),
                )
            )
    return out


def _reference_dim4_piece(piece, members):
    pid = piece.id
    induced = piece.induced
    out = [
        Violation(v.code, f"piece {pid}: {v.message}", (pid,) + v.components)
        for v in reference_validate_graph(induced)
    ]
    if induced.component_ids() != sorted(piece.members):
        out.append(
            Violation(
                "piece-members",
                f"piece {pid}: induced components {induced.component_ids()} "
                f"differ from members {sorted(piece.members)}",
                (pid,),
            )
        )
        return out
    vertices = {v.id: v for v in induced.isolated + induced.surfaces}
    y_min = min(v.y for v in vertices.values())
    for member in members:
        vertex = vertices[member.id]
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
            ratios = sorted(_reference_ratios(member, piece.lam))
            if ratios != sorted(Fraction(b) for b in vertex.weights):
                shown = ", ".join(format_rational(r) for r in ratios)
                out.append(
                    Violation(
                        "piece-weights",
                        f"piece {pid}: weights of {member.id!r} along the character "
                        f"are [{shown}], induced graph says {sorted(vertex.weights)}",
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
            expected = Fraction(1) if vertex.y == y_min else Fraction(-1)
            if _reference_ratios(member, piece.lam) != [expected]:
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
        step = vertices[a.id].y - vertices[b.id].y
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


def lifted_g1_doc(y=lambda level: level, tilt=0) -> dict:
    """``fixtures.g1_doc()`` lifted to rank 2 along the character (1, 0):
    points A, B, C, each with a third weight (0, 1), and one 4-dimensional
    piece whose induced graph is g1 itself.  ``y`` writes a level of g1 as
    a momentum, for the graph and for the first coordinate of the x-ray,
    whose second coordinate is ``tilt``."""
    graph = fixtures.g1_doc()
    for v in graph["isolated"]:
        v["y"] = y(v["y"])
    components = [
        {
            "id": v["id"],
            "y": [v["y"], tilt],
            "weights": [[v["weights"][0], 0], [v["weights"][1], 0], [0, 1]],
        }
        for v in graph["isolated"]
    ]
    piece = {
        "id": "P", "lambda": [1, 0], "dim": 4, "members": ["A", "B", "C"],
        "induced_graph": graph,
    }
    return {"kind": "xray", "rank": 2, "components": components, "pieces": [piece]}


def thirds(level):
    return f"{level}/3"


def halved_x2_doc(area=1) -> dict:
    """``fixtures.x2_doc(1, area)`` with every momentum halved."""
    doc = fixtures.x2_doc(1, area)
    for c in doc["components"]:
        c["y"] = [f"{x}/2" for x in c["y"]]
    for piece in doc["pieces"]:
        for s in piece["induced_graph"]["surfaces"]:
            s["y"] = f"{s['y']}/2"
    return doc


def _component(doc, cid):
    return next(c for c in doc["components"] if c["id"] == cid)


def _set(doc, cid, **fields):
    _component(doc, cid).update(fields)
    return doc


def _set_weight(doc, cid, index, weight):
    _component(doc, cid)["weights"][index] = weight
    return doc


def _surface_as_point(doc):
    induced = doc["pieces"][0]["induced_graph"]
    surface = induced["surfaces"].pop(0)
    induced["isolated"].append({"id": surface["id"], "y": surface["y"], "weights": [1, 1]})
    return doc


def _point_as_surface(doc):
    induced = doc["pieces"][0]["induced_graph"]
    point = induced["isolated"].pop(0)
    induced["surfaces"].append({"id": point["id"], "y": point["y"], "area": 1, "genus": 0})
    induced["edges"] = []
    return doc


def _induced_genus(doc, genus):
    for s in doc["pieces"][0]["induced_graph"]["surfaces"]:
        s["genus"] = genus
    return doc


def _induced_area(doc, area):
    doc["pieces"][0]["induced_graph"]["surfaces"][0]["area"] = area
    return doc


def _dim2_on_surfaces(doc):
    doc["pieces"][3] = {
        "id": "PY1", "lambda": [0, 1], "dim": 2, "ell": 1, "members": ["Smax_0", "Smax_1"],
    }
    return doc


# (code, document): each document has the code among its violations
ONE_XRAY_PER_CODE = [
    ("character-not-primitive",
     mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [2, 0]}))),
    ("piece-members", _dim2_on_surfaces(fixtures.x2_doc(1))),
    ("piece-members",
     mutate(fixtures.x2_doc(1), lambda d: d["pieces"][0]["members"].append("Smin_1"))),
    ("piece-momentum",
     mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [0, 1]}))),
    ("piece-momentum", _set(fixtures.x2_doc(1), "Smax_0", y=[2, 0])),
    ("piece-momentum", _set(halved_x2_doc(), "Smax_0", y=["1/3", 0])),
    ("piece-momentum", _set(lifted_g1_doc(thirds, "2/7"), "B", y=["1/3", "3/7"])),
    ("piece-momentum", _set(lifted_g1_doc(thirds, "2/7"), "C", y=["2/5", "2/7"])),
    ("piece-weights", _set_weight(fixtures.cp3_doc(), "P0", 0, [2, 0])),
    ("piece-weights", _set_weight(lifted_g1_doc(), "B", 0, [3, 0])),
    ("piece-weights", _set_weight(lifted_g1_doc(thirds, "2/7"), "B", 0, [3, 0])),
    ("piece-weights", _set_weight(lifted_g1_doc(thirds), "A", 1, [1, 1])),
    ("piece-weights", _set_weight(fixtures.x2_doc(1), "Smin_0", 0, [2, 0])),
    ("piece-weights", _set_weight(halved_x2_doc(), "Smax_1", 1, [0, 1])),
    ("member-data", _induced_genus(fixtures.x2_doc(1), 2)),
    ("member-data", _induced_area(halved_x2_doc("3/2"), "5/2")),
    ("member-data", _surface_as_point(halved_x2_doc())),
    ("member-data", _point_as_surface(lifted_g1_doc(thirds, "2/7"))),
    ("self-intersection",
     mutate(fixtures.x2_doc(1),
            lambda d: d["pieces"][0]["induced_graph"]["surfaces"][0].update(
                self_intersection=5))),
]


def test_fixtures_match_the_validation_reference():
    for xray in (x2(0), x2(1), cp3(), cube(2, 0), cube(3, 1)):
        assert validate_xray(xray) == reference_validate_xray(xray) == []
    for doc in (lifted_g1_doc(), lifted_g1_doc(thirds, "2/7"), halved_x2_doc("3/2")):
        assert validate_xray(parse_xray(doc)) == reference_validate_xray(parse_xray(doc)) == []


@pytest.mark.parametrize("index", range(len(ONE_XRAY_PER_CODE)))
def test_each_violation_code_matches_the_validation_reference(index):
    code, doc = ONE_XRAY_PER_CODE[index]
    violations = validate_xray(parse_xray(doc))
    assert code in {v.code for v in violations}
    assert violations == reference_validate_xray(parse_xray(doc))


def test_point_member_ratios_print_as_rationals():
    for doc in (lifted_g1_doc(), lifted_g1_doc(thirds, "2/7")):
        violations = validate_xray(parse_xray(_set_weight(doc, "B", 0, [3, 0])))
        assert [v.to_dict() for v in violations] == [
            {
                "code": "piece-weights",
                "message": "piece P: weights of 'B' along the character are [1, 3], "
                "induced graph says [-1, 1]",
                "component-ids": ["P", "B"],
            }
        ]


def reference_ratios(member, lam):
    """The integer ratios of the member's weights parallel to ``lam``, in
    weight order, by testing each weight against the character."""
    found = []
    for w in member.weights:
        pivot = next(i for i, x in enumerate(lam) if x)
        c = w[pivot] // lam[pivot]
        if all(v == c * l for v, l in zip(w, lam)):
            found.append(c)
    return found


_PRIMITIVE = st.integers(1, 3).flatmap(
    lambda rank: st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).filter(is_primitive)
)


@settings(max_examples=200, deadline=None)
@given(_PRIMITIVE, st.data())
def test_the_ratio_lookup_is_the_scan_of_the_weights(lam, data):
    """Each member's ratios along a primitive character, read off the
    x-ray's directions, are the ratios the scan finds, as a multiset: weights
    along the character and against it, several of them."""
    rank = len(lam)
    multiple = st.integers(-3, 3).filter(bool).map(lambda c: tuple(c * x for x in lam))
    other = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).map(tuple).filter(any)
    weights = st.lists(st.one_of(multiple, other), min_size=1, max_size=5).map(tuple)
    ids = data.draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True), "ids")
    components = tuple(
        TorusFixedComponent(cid, "point", (0,) * rank, data.draw(weights, f"weights {n}"))
        for n, cid in enumerate(ids)
    )
    xray = XRay(rank, components, ())
    for cid in ids:
        member = xray.find(cid)
        assert member is next(c for c in components if c.id == cid)
        for direction in (lam, [-x for x in lam]):
            against = tuple(-x for x in direction)
            found = xray_module._ratios(xray._along[cid], tuple(direction), against)
            assert sorted(found) == sorted(reference_ratios(member, direction))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drawn_point_weights_get_the_reports_of_the_reference(data):
    """Point weights along a piece's character, against it, several at once
    or off it: validation reports what the Fraction reference reports."""
    doc = data.draw(st.sampled_from([fixtures.cp3_doc(), lifted_g1_doc()]), "document")
    places = [(c["weights"], n) for c in doc["components"] for n in range(len(c["weights"]))]
    directions = st.sampled_from([[1, 0], [0, 1], [1, 1], [-1, 1], [2, 1]])
    for weights, n in data.draw(st.lists(st.sampled_from(places), max_size=3), "changed"):
        c = data.draw(st.integers(-3, 3).filter(bool))
        weights[n] = [c * x for x in data.draw(directions)]
    xray = parse_xray(doc)
    assert validate_xray(xray) == reference_validate_xray(xray)


_RATIONALS = st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(
    lambda pq: str(Fraction(*pq))
)
_POSITIVE = st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda pq: str(Fraction(*pq)))
_WEIGHT_PAIRS = st.sampled_from([[1, 1], [1, -1], [-1, 1], [-1, -1], [2, -1], [1, -2], [-2, -2]])


def _pieces_with_graphs(doc):
    return [p for p in doc["pieces"] if "induced_graph" in p]


def _shift_induced_y(doc, data):
    graph = data.draw(st.sampled_from(_pieces_with_graphs(doc)))["induced_graph"]
    record = data.draw(st.sampled_from(graph["isolated"] + graph["surfaces"]))
    record["y"] = str(Fraction(record["y"]) + Fraction(data.draw(_RATIONALS)))


def _change_surface(doc, data):
    graphs = [p["induced_graph"] for p in _pieces_with_graphs(doc)]
    surfaces = [c for c in doc["components"] if "genus" in c]
    surfaces += [s for graph in graphs for s in graph["surfaces"]]
    if not surfaces:
        return
    surface = data.draw(st.sampled_from(surfaces))
    if data.draw(st.booleans()):
        surface["genus"] = data.draw(st.integers(0, 3))
    else:
        surface["area"] = data.draw(_POSITIVE)


def _swap_member_kind(doc, data):
    """An induced surface listed as a point, or an induced point as a surface."""
    graph = data.draw(st.sampled_from(_pieces_with_graphs(doc)))["induced_graph"]
    if graph["surfaces"] and (not graph["isolated"] or data.draw(st.booleans())):
        surface = graph["surfaces"].pop(data.draw(st.integers(0, len(graph["surfaces"]) - 1)))
        graph["isolated"].append(
            {"id": surface["id"], "y": surface["y"], "weights": data.draw(_WEIGHT_PAIRS)}
        )
    else:
        point = graph["isolated"].pop(data.draw(st.integers(0, len(graph["isolated"]) - 1)))
        graph["edges"] = [e for e in graph["edges"] if point["id"] not in (e["from"], e["to"])]
        graph["surfaces"].append({"id": point["id"], "y": point["y"], "area": 1, "genus": 0})


def _drop_induced_component(doc, data):
    graph = data.draw(st.sampled_from(_pieces_with_graphs(doc)))["induced_graph"]
    records = graph["isolated"] + graph["surfaces"]
    if len(records) > 1:
        gone = data.draw(st.sampled_from(records))["id"]
        for name in ("isolated", "surfaces"):
            graph[name] = [r for r in graph[name] if r["id"] != gone]
        graph["edges"] = [e for e in graph["edges"] if gone not in (e["from"], e["to"])]


def _add_induced_component(doc, data):
    graph = data.draw(st.sampled_from(_pieces_with_graphs(doc)))["induced_graph"]
    taken = {r["id"] for r in graph["isolated"] + graph["surfaces"]}
    fresh = next(f"Z{n}" for n in range(len(taken) + 1) if f"Z{n}" not in taken)
    free = sorted({c["id"] for c in doc["components"]} - taken) + [fresh]
    graph["isolated"].append(
        {"id": data.draw(st.sampled_from(free)), "y": data.draw(_RATIONALS),
         "weights": data.draw(_WEIGHT_PAIRS)}
    )


def _redraw_weight(doc, data):
    component = data.draw(st.sampled_from(doc["components"]))
    n = data.draw(st.integers(0, len(component["weights"]) - 1))
    rank = doc["rank"]
    direction = data.draw(
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any)
    )
    c = data.draw(st.integers(-3, 3).filter(bool))
    component["weights"][n] = [c * x for x in direction]


def _scale_character(doc, data):
    piece = data.draw(st.sampled_from(doc["pieces"]))
    k = data.draw(st.sampled_from([-1, 2, -2, 3]))
    piece["lambda"] = [k * x for x in piece["lambda"]]


_XRAY_EDITS = {
    "induced y": _shift_induced_y,
    "surface": _change_surface,
    "member kind": _swap_member_kind,
    "missing": _drop_induced_component,
    "extra": _add_induced_component,
    "weight": _redraw_weight,
    "character": _scale_character,
}
_DRAWN_XRAYS = {
    "cube_2_0": lambda: fixtures.cube_doc(2, 0),
    "cube_2_1": lambda: fixtures.cube_doc(2, 1, "3/2"),
    "cube_3_1": lambda: fixtures.cube_doc(3, 1),
    "cp3": fixtures.cp3_doc,
    "lifted_g1": lambda: lifted_g1_doc(thirds, "2/7"),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_DRAWN_XRAYS)), st.data())
def test_drawn_xrays_get_the_reports_of_the_reference(name, data):
    """Cube, cp3 and lifted-graph x-rays with their induced graphs' momenta,
    surfaces, member kinds and components, their point weights and their
    characters redrawn: validation reports what the Fraction reference
    reports, with the same codes, messages, component ids and order."""
    doc = _DRAWN_XRAYS[name]()
    pieces = _pieces_with_graphs(doc)
    edits = sorted(_XRAY_EDITS) if pieces else ["weight", "character"]
    for edit in data.draw(st.lists(st.sampled_from(edits), min_size=1, max_size=3), "edits"):
        _XRAY_EDITS[edit](doc, data)
    xray = parse_xray(doc)
    assert validate_xray(xray) == reference_validate_xray(xray)


# -- membership ---------------------------------------------------------------


def test_constants_are_members():
    for xray in (x2(1), cp3()):
        decision = check_membership_xray(xray, constant_torus_class(xray, 3))
        assert decision.member and decision.violations == ()


def test_skew_surface_class_fails_one_piece():
    xray = x2(1)
    u2 = MPoly.variable(2, 1)
    zero = MPoly.zero(2)
    comps = {
        c.id: ComponentClass("surface", 1, {}, 2) for c in xray.components
    }
    comps["Smax_0"] = ComponentClass(
        "surface", 1,
        {2: SurfaceClass(1, c0=u2, c1=(zero, zero), c2=zero)},
        2,
    )
    decision = check_membership_xray(xray, EquivariantClass(comps, 2))
    assert not decision.member
    assert {v.kind for v in decision.violations} == {"divisibility"}
    assert all(v.detail.startswith("piece PX0") for v in decision.violations)


def test_dim2_divisibility_localizes_failures():
    xray = cp3()
    comps = {c.id: ComponentClass("point", 0, {}, 2) for c in xray.components}
    comps["P3"] = ComponentClass(
        "point", 0, {2: MPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})}, 2
    )
    decision = check_membership_xray(xray, EquivariantClass(comps, 2))
    assert not decision.member
    failed = {v.detail.split(":")[0] for v in decision.violations}
    assert failed == {"piece E13", "piece E23"}


def test_membership_checks_addressing():
    xray = cp3()
    alpha = fixtures.without(constant_torus_class(xray, 1), "P3")
    with pytest.raises(InputError, match="class addresses"):
        check_membership_xray(xray, alpha)


def test_piece_obstructions_check_addressing():
    """A class missing a member of the piece is refused, not a KeyError."""
    xray = x2(1)
    alpha = fixtures.without(constant_torus_class(xray, 1), "Smax_0")
    piece = next(p for p in xray.pieces if p.id == "PX0")
    assert "Smax_0" in piece.members
    with pytest.raises(InputError, match=r"^class addresses \['Smax_1', 'Smin_0', 'Smin_1'\]"):
        piece_obstructions(xray, piece, alpha)


def test_piece_obstructions_refuse_a_foreign_piece():
    """A piece is found by id, so one from another x-ray, or one that shares
    an id but not its data, is refused instead of getting this x-ray's group."""
    xray = cube(2, 1)
    alpha = _class_on(xray, xray.component_ids(), random.Random(2))
    foreign = cp3().pieces[0]
    with pytest.raises(InputError, match=r"^piece 'E01' is not a piece of this x-ray$"):
        piece_obstructions(xray, foreign, alpha)
    own = xray.pieces[0]
    impostor = dataclasses.replace(own, lam=(1, 1))
    with pytest.raises(InputError, match="is not a piece of this x-ray"):
        piece_obstructions(xray, impostor, alpha)
    # An equal piece of an equal document is the same piece.
    found = piece_obstructions(xray, own, alpha)
    assert found and piece_obstructions(xray, cube(2, 1).pieces[0], alpha) == found


@pytest.mark.parametrize("make", [lambda: cube(3, 1), cp3], ids=["cube_r3_g1", "cp3"])
def test_groups_are_built_once_per_document(make, monkeypatch):
    """Every degree of a basis, and a membership query after them, reads the
    groups kept on the x-ray: one table per piece and one substitution per
    distinct character, counted in both modules that build them, and one
    addressing check for the membership query."""
    tables, substitutions, addressing = [], [], []

    def counting(record, build):
        def wrapper(*args):
            record.append(args)
            return build(*args)

        return wrapper

    for module in (xray_module, s1_module):
        monkeypatch.setattr(module, "_constraint_table", counting(tables, _constraint_table))
        monkeypatch.setattr(
            module, "character_substitution", counting(substitutions, character_substitution)
        )
    monkeypatch.setattr(s1_module, "_check_addressing", counting(addressing, _check_addressing))
    xray = make()
    for degree in range(5):
        image_basis_xray(xray, degree)
    assert addressing == []
    check_membership_xray(xray, constant_torus_class(xray, 1))
    assert len(addressing) == 1
    members = [tuple(cid for cid, _, _ in args[0]) for args in tables]
    assert members == [piece.members for piece in xray.pieces]
    characters = [args[0] for args in substitutions]
    assert sorted(characters) == sorted({piece.lam for piece in xray.pieces})
    assert len(characters) < len(xray.pieces)


# -- coordinates and bases ----------------------------------------------------


def test_xray_slots_frozen():
    labels = [s.label for s in degree_slots(x2(1), 2)]
    assert labels[:3] == ["Smax_0.c0[1,0]", "Smax_0.c0[0,1]", "Smax_0.c2[0,0]"]
    assert len(labels) == 12
    labels = [s.label for s in degree_slots(x2(1), 1)]
    assert labels[:2] == ["Smax_0.a1[0,0]", "Smax_0.b1[0,0]"]
    assert len(labels) == 8
    assert [s.label for s in degree_slots(cp3(), 2)][:2] == ["P0.c[1,0]", "P0.c[0,1]"]
    assert degree_slots(cp3(), 1) == []


def test_unit_class_vector_roundtrip():
    for make in EQUIVALENCE_XRAYS.values():
        xray = make()
        for degree in range(7):
            slots = degree_slots(xray, degree)
            for i, slot in enumerate(slots):
                vec = class_to_vector(xray, degree, unit_class(xray, degree, slot))
                assert vec == [Fraction(j == i) for j in range(len(slots))]


def _mutable_parts(alpha):
    """Every ComponentClass, entry dict and MPoly term dict of a torus class."""
    out = []
    for cls in alpha.components.values():
        out += [cls, cls.entries]
        for entry in cls.entries.values():
            polys = [entry] if isinstance(entry, MPoly) else [entry.c0, *entry.c1, entry.c2]
            out += [p.terms for p in polys]
    return out


def test_class_from_vector_roundtrip():
    for make in EQUIVALENCE_XRAYS.values():
        xray = make()
        for degree in range(7):
            slots = degree_slots(xray, degree)
            values = [Fraction(i % 5 - 2, 3) for i in range(len(slots))]
            alpha = class_from_vector(xray, degree, values)
            assert class_to_vector(xray, degree, alpha) == values
            again = class_from_vector(xray, degree, values)
            ours = {id(x) for x in _mutable_parts(alpha)}
            assert ours.isdisjoint(id(x) for x in _mutable_parts(again))
            with pytest.raises(InputError, match="coordinates"):
                class_from_vector(xray, degree, values + [Fraction(1)])


def test_image_sizes_frozen():
    xray = x2(1)
    assert [len(image_basis_xray(xray, k)) for k in range(5)] == [1, 2, 5, 8, 12]
    xray = cp3()
    sizes = [len(image_basis_xray(xray, k)) for k in range(9)]
    assert sizes == [1, 0, 3, 0, 6, 0, 10, 0, 14]


def test_compute_entry_points_refuse_an_invalid_xray():
    doc = mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [2, 0]}))
    xray = parse_xray(doc)
    assert [v.code for v in validate_xray(xray)] == ["character-not-primitive"]
    alpha = constant_torus_class(xray, 1)
    refused = "^invalid x-ray: character-not-primitive: "
    with pytest.raises(InputError, match=refused):
        image_basis_xray(xray, 2)
    with pytest.raises(InputError, match=refused):
        check_membership_xray(xray, alpha)
    for piece in xray.pieces:
        with pytest.raises(InputError, match=refused):
            piece_obstructions(xray, piece, alpha)


# Rows whose record JSON cannot write as it is held, so that parse states
# another rule: JSON has no kind key and tells a point from a surface by its
# genus and area keys, and a required key left out is reported as missing.
TWINS_STATED_OTHERWISE = {
    "unknown-kind", "point-with-genus", "dim4-without-induced-graph", "dim2-without-ell"
}


def assert_refused_twice(xray, bad, violation, row):
    """Validation gives ``bad``, a changed copy of ``xray``, the one shape
    violation and every compute entry point refuses it with that; parse
    refuses its JSON twin (exit 2) with the same rule."""
    assert validate_xray(bad) == [violation]
    alpha = constant_torus_class(xray, 1)
    refused = f"^invalid x-ray: {violation.code}: {re.escape(violation.message)}$"
    with pytest.raises(InputError, match=refused):
        image_basis_xray(bad, 2)
    with pytest.raises(InputError, match=refused):
        check_membership_xray(bad, alpha)
    with pytest.raises(InputError, match=refused):
        piece_obstructions(bad, bad.pieces[0], alpha)
    status, message = fixtures.parse_status(bad)
    assert status == 2
    if row not in TWINS_STATED_OTHERWISE:
        assert message.partition(": ")[2] == violation.message.partition(": ")[2]


VECTOR = "expected a vector of 2 integers"
ELL = '"ell" must be a positive integer'
DIM = '"dim" must be 2 or 4'
BAD_SHAPES = [
    pytest.param("x2", {"id": ""}, "id must be a nonempty string", id="empty-id"),
    pytest.param("x2", {"induced": None}, "expected a graph object",
                 id="dim4-without-induced-graph"),
    pytest.param("x2", {"dim": 3}, DIM, id="dim3"),
    pytest.param("x2", {"dim": 4.0}, DIM, id="float-dim"),
    pytest.param("x2", {"ell": 1}, 'only 2-dimensional pieces carry "ell"', id="dim4-with-ell"),
    pytest.param("x2", {"lam": (1, 0, 0)}, VECTOR, id="character-too-long"),
    pytest.param("x2", {"lam": (1,)}, VECTOR, id="character-too-short"),
    pytest.param("x2", {"lam": (1.0, 0)}, VECTOR, id="float-character"),
    pytest.param("x2", {"lam": (True, 0)}, VECTOR, id="bool-character"),
    pytest.param("x2", {"lam": (0, 0)}, "the character must be nonzero", id="zero-character"),
    pytest.param("x2", {"members": ()}, '"members" must be a nonempty array of ids',
                 id="no-members"),
    pytest.param("x2", {"members": ("Smax_0", "")}, "id must be a nonempty string",
                 id="empty-member-id"),
    pytest.param("x2", {"members": ("Smax_0", "Smax_0")}, "duplicate member id",
                 id="duplicate-members-of-a-4-dimensional-piece"),
    pytest.param("cp3", {"members": ("P0", "P0")}, "duplicate member id",
                 id="duplicate-members-of-a-2-dimensional-piece"),
    pytest.param("cp3", {"induced": g1()}, "a 2-dimensional piece carries no induced graph",
                 id="dim2-with-induced-graph"),
    pytest.param("cp3", {"ell": None}, ELL, id="dim2-without-ell"),
    pytest.param("cp3", {"ell": True}, ELL, id="bool-ell"),
    pytest.param("cp3", {"ell": 0}, ELL, id="zero-ell"),
    pytest.param("cp3", {"ell": 1.5}, ELL, id="float-ell"),
]


@pytest.mark.parametrize("name,fields,rule", BAD_SHAPES)
def test_a_directly_built_piece_of_the_wrong_shape_is_refused(name, fields, rule, request):
    """Validation gives a piece that parse would refuse one piece-shape
    violation, with parse's rule, and checks nothing else of it; every
    entry point refuses the x-ray.  Such pieces once validated clean, raised
    an InputError or were reported as misleading piece violations."""
    xray = {"x2": x2(1), "cp3": cp3()}[name]
    piece = next(p for p in xray.pieces if p.dim == (4 if name == "x2" else 2))
    changed = dataclasses.replace(piece, **fields)
    bad = dataclasses.replace(
        xray, pieces=tuple(changed if p is piece else p for p in xray.pieces)
    )
    violation = Violation("piece-shape", f"piece {changed.id}: {rule}", (changed.id,))
    assert_refused_twice(xray, bad, violation, request.node.callspec.id)


BAD_COMPONENT_SHAPES = [
    pytest.param("x2", {"id": ""}, id="empty-id"),
    pytest.param("x2", {"weights": ((1, 0, 0), (0, 1, 0))}, id="weights-of-length-3"),
    pytest.param("x2", {"weights": ((1, 0),)}, id="one-weight-on-a-surface"),
    pytest.param("x2", {"weights": ((0, 0), (0, 1))}, id="zero-weight"),
    pytest.param("x2", {"weights": ((1, 0), (0, 1.0))}, id="float-weight"),
    pytest.param("x2", {"y": (Fraction(0),)}, id="y-of-length-1"),
    pytest.param("x2", {"y": (0.0, 0)}, id="float-y"),
    pytest.param("x2", {"kind": "blob"}, id="unknown-kind"),
    pytest.param("x2", {"kind": "point", "genus": 0, "area": None}, id="surface-as-a-point"),
    pytest.param("x2", {"area": None}, id="surface-without-area"),
    pytest.param("x2", {"area": Fraction(0)}, id="zero-area"),
    pytest.param("x2", {"area": 0.5}, id="float-area"),
    pytest.param("x2", {"genus": -1}, id="negative-genus"),
    pytest.param("cp3", {"genus": 1}, id="point-with-genus"),
    pytest.param("cp3", {"weights": ((1, 0), (0, 1))}, id="two-weights-on-a-point"),
]


@pytest.mark.parametrize("name,fields", BAD_COMPONENT_SHAPES)
def test_a_directly_built_component_of_the_wrong_shape_is_refused(name, fields, request):
    """Validation gives a fixed component that parse would refuse one
    component-shape violation and checks nothing else (such components
    once validated clean or as misleading piece violations); every entry
    point refuses the x-ray."""
    xray = {"x2": x2(1), "cp3": cp3()}[name]
    component = dataclasses.replace(xray.components[0], **fields)
    bad = dataclasses.replace(xray, components=(component,) + xray.components[1:])
    [violation] = validate_xray(bad)
    assert violation.code == "component-shape" and violation.components == (component.id,)
    assert violation.message.startswith(f"component {component.id}: ")
    assert_refused_twice(xray, bad, violation, request.node.callspec.id)


def test_ids_that_mix_types_are_refused_not_raised():
    """Sorting a directly built x-ray's components and pieces never raises:
    an id that is not a string, beside ids that are, gets its shape
    violation."""
    xray = x2(1)
    component = dataclasses.replace(xray.components[0], id=5)
    bad = dataclasses.replace(xray, components=(component,) + xray.components[1:])
    assert validate_xray(bad) == [
        Violation("component-shape", "component 5: id must be a nonempty string", (5,))
    ]
    piece = dataclasses.replace(xray.pieces[0], id=7)
    bad = dataclasses.replace(xray, pieces=xray.pieces[1:] + (piece,))
    assert bad.pieces[-1] is piece
    assert validate_xray(bad) == [
        Violation("piece-shape", "piece 7: id must be a nonempty string", (7,))
    ]
    with pytest.raises(InputError, match="^invalid x-ray: piece-shape: piece 7: "):
        image_basis_xray(bad, 2)


def _with_induced_point_id_5(graph):
    return dataclasses.replace(graph, isolated=(IsolatedVertex(5, Fraction(1, 2), (1, -1)),))


def _with_induced_float_y(graph):
    surface = dataclasses.replace(graph.surfaces[0], y=0.5)
    return dataclasses.replace(graph, surfaces=(surface,) + graph.surfaces[1:])


@pytest.mark.parametrize(
    "edit, violation",
    [
        pytest.param(
            _with_induced_point_id_5,
            Violation("component-shape", "piece PX0: component 5: id must be a nonempty string",
                      ("PX0", 5)),
            id="int-id-beside-string-ids",
        ),
        pytest.param(
            _with_induced_float_y,
            Violation(
                "component-shape",
                'piece PX0: component Smax_0: floats are rejected; use an integer or a "p/q" string',
                ("PX0", "Smax_0"),
            ),
            id="float-y",
        ),
    ],
)
def test_an_induced_graph_of_the_wrong_shape_is_reported_not_raised(edit, violation):
    """A directly built 4-dimensional piece whose induced graph breaks its
    own shape rules gets that graph's report, prefixed with the piece, and
    no member check: its ids need not sort (once a TypeError) and its
    momenta need not be rational (once an AttributeError)."""
    xray = x2(1)
    piece = xray.pieces[0]
    changed = dataclasses.replace(piece, induced=edit(piece.induced))
    bad = dataclasses.replace(xray, pieces=(changed,) + xray.pieces[1:])
    assert validate_xray(bad) == [violation]
    with pytest.raises(InputError, match="^invalid x-ray: component-shape: piece PX0: "):
        image_basis_xray(bad, 2)


def _graph_with_edge(end):
    graph = fixtures.chain(3, 0)
    return dataclasses.replace(graph, edges=(GraphEdge("p000", end, 1),))


def _appended(document, field, record):
    return dataclasses.replace(document, **{field: getattr(document, field) + (record,)})


def _cube_2_0_with(edit):
    xray = cube(2, 0)
    return dataclasses.replace(xray, pieces=tuple(map(edit, xray.pieces)))


def _piece_member_renamed(piece):
    if piece.id != "E0_S00_S10":
        return piece
    return dataclasses.replace(piece, members=("S00", "nope"))


def _induced_edge_between_surfaces(piece):
    if piece.id != "E0_S00_S10":
        return piece
    induced = dataclasses.replace(piece.induced, edges=(GraphEdge("S00", "S10", 1),))
    return dataclasses.replace(piece, induced=induced)


def _s00(xray):
    return next(c for c in xray.components if c.id == "S00")


# Each document breaks one rule parse refuses: a document without fixed
# components, a rank that is not a positive int, a repeated id, an edge off
# the isolated vertices (also inside a piece's induced graph) and a piece
# member that is not a component.  Each row: the document and its one
# violation.
DOCUMENT_RULES = [
    pytest.param(
        lambda: DecoratedGraph((), (), ()),
        Violation("graph-shape", "graph: a graph needs at least one fixed component"),
        id="graph-without-components",
    ),
    pytest.param(
        lambda: _appended(fixtures.chain(3, 0), "isolated", fixtures.chain(3, 0).isolated[1]),
        Violation("component-shape", "component p001: duplicate id 'p001'", ("p001",)),
        id="graph-repeated-id",
    ),
    pytest.param(
        lambda: _graph_with_edge("zz"),
        Violation(
            "edge-shape", "edge p000-zz: edge references an unknown id 'zz'", ("p000", "zz")
        ),
        id="graph-edge-to-an-unknown-id",
    ),
    pytest.param(
        lambda: _graph_with_edge("Smax"),
        Violation(
            "edge-shape",
            "edge p000-Smax: edge endpoint 'Smax' is not an isolated vertex",
            ("Smax", "p000"),
        ),
        id="graph-edge-to-a-surface",
    ),
    pytest.param(
        lambda: XRay(2, (), ()),
        Violation("xray-shape", "xray: an x-ray needs at least one fixed component"),
        id="xray-without-components",
    ),
    pytest.param(
        lambda: dataclasses.replace(cube(1, 0), rank=True),
        Violation("xray-shape", 'xray: "rank" must be a positive integer'),
        id="bool-rank",
    ),
    pytest.param(
        lambda: dataclasses.replace(cube(1, 0), rank=1.0),
        Violation("xray-shape", 'xray: "rank" must be a positive integer'),
        id="float-rank",
    ),
    pytest.param(
        lambda: _appended(cube(2, 0), "components", _s00(cube(2, 0))),
        Violation("component-shape", "component S00: duplicate id 'S00'", ("S00",)),
        id="xray-repeated-id",
    ),
    pytest.param(
        lambda: _appended(
            cube(2, 0), "components", dataclasses.replace(_s00(cube(2, 0)), y=(5, 5))
        ),
        Violation("component-shape", "component S00: duplicate id 'S00'", ("S00",)),
        id="xray-repeated-id-elsewhere",
    ),
    pytest.param(
        lambda: _appended(cube(2, 0), "pieces", cube(2, 0).pieces[0]),
        Violation(
            "piece-shape",
            "piece E0_S00_S10: duplicate piece id 'E0_S00_S10'",
            ("E0_S00_S10",),
        ),
        id="repeated-piece",
    ),
    pytest.param(
        lambda: _cube_2_0_with(_piece_member_renamed),
        Violation(
            "piece-shape",
            "piece E0_S00_S10: piece references an unknown id 'nope'",
            ("E0_S00_S10",),
        ),
        id="unknown-member",
    ),
    pytest.param(
        lambda: _cube_2_0_with(_induced_edge_between_surfaces),
        Violation(
            "edge-shape",
            "piece E0_S00_S10: edge S00-S10: edge endpoint 'S00' is not an isolated vertex",
            ("E0_S00_S10", "S00", "S10"),
        ),
        id="induced-edge-between-surfaces",
    ),
]


@pytest.mark.parametrize("make, violation", DOCUMENT_RULES)
def test_a_document_parse_refuses_is_reported_when_built_directly(make, violation):
    """Validation reports a directly built document that breaks a rule
    parse refuses, in parse's words, where it once raised or passed it;
    parse refuses the same document written out, and the bases refuse it.
    Such documents once validated clean and got bases of the wrong size,
    or raised ValueError or InputError inside validation."""
    document = make()
    graph = document.rank is None
    assert (validate_graph if graph else validate_xray)(document) == [violation]
    with pytest.raises(SchemaError) as info:
        parse_graph(graph_to_dict(document)) if graph else parse_xray(xray_to_dict(document))
    assert violation.message.rpartition(": ")[2] == str(info.value).rpartition(": ")[2]
    with pytest.raises(InputError, match=f"^invalid (graph|x-ray): {violation.code}: "):
        (image_basis if graph else image_basis_xray)(document, 2)


def test_an_interior_surface_member_must_point_against_the_character():
    """A piece whose induced graph holds three surfaces (an invalid graph,
    reported as such) still checks its interior surface member's weight
    along the character as the reference does: a surface that is not the
    minimum carries -1 times the character."""
    doc = fixtures.x2_doc(1)
    piece = doc["pieces"][0]
    piece["members"].append("Smin_1")
    piece["induced_graph"]["surfaces"].append({"id": "Smin_1", "y": "1/2", "area": 1, "genus": 1})
    xray = parse_xray(doc)
    assert xray.pieces[0].induced._places["Smin_1"] == "interior"
    report = validate_xray(xray)
    assert report == reference_validate_xray(xray)
    assert Violation(
        "piece-weights",
        "piece PX0: 'Smin_1' must carry exactly one weight along the character, equal to -1 times it",
        ("PX0", "Smin_1"),
    ) in report


def test_parse_fills_in_the_shape_check_it_has_made():
    """Parse refuses every shape the component-shape check reports, so a
    parsed document carries an empty check; a copy built directly runs the
    check, finds nothing either, and validates alike."""
    xrays = [x2(0), x2(1), cp3()] + [cube(r, g) for r in (2, 3) for g in range(3)]
    graphs = [g1(), fixtures.g2(1), fixtures.g3(), fixtures.chain(5, 1)]
    graphs += [p.induced for x in xrays for p in x.pieces if p.induced is not None]
    for parsed in xrays + graphs:
        copy = dataclasses.replace(parsed)
        assert parsed.__dict__["_shapes"] == ()
        assert "_shapes" not in copy.__dict__ and copy._shapes == ()
        validate = validate_graph if parsed.rank is None else validate_xray
        assert validate(copy) == validate(parsed)


def test_component_shape_messages_state_the_rule():
    x = x2(1)
    c = x.components[0]
    reports = [
        validate_xray(dataclasses.replace(x, components=(dataclasses.replace(c, **f),)))
        for f in ({"y": (Fraction(0),)}, {"kind": "blob"})
    ]
    assert [r[0].message for r in reports] == [
        'component Smax_0: "y" must be a vector of 2 rationals',
        "component Smax_0: kind must be \"point\" or \"surface\", got 'blob'",
    ]
    p = cp3().components[0]
    [violation] = validate_xray(
        dataclasses.replace(cp3(), components=(dataclasses.replace(p, genus=1),))
    )
    assert violation.message == f"component {p.id}: a point has genus 0 and no area"


def test_image_basis_degree_bounds():
    with pytest.raises(InputError, match="nonnegative"):
        image_basis_xray(cp3(), -1)
    with pytest.raises(InputError, match="cutoff"):
        image_basis_xray(cp3(), 9)
    assert len(image_basis_xray(cp3(), 10, max_degree=10)) == 18


def test_basis_elements_are_members():
    for xray in (x2(1), cp3()):
        for k in range(5):
            for element in image_basis_xray(xray, k):
                assert check_membership_xray(xray, element).member


def test_basis_is_stable_under_document_order():
    doc = fixtures.x2_doc(1)
    doc["components"].reverse()
    doc["pieces"].reverse()
    shuffled = parse_xray(doc)
    reference = x2(1)
    for k in range(4):
        ours = [class_to_vector(reference, k, b) for b in image_basis_xray(reference, k)]
        theirs = [class_to_vector(shuffled, k, b) for b in image_basis_xray(shuffled, k)]
        assert ours == theirs


def moved(alpha: EquivariantClass, matrix) -> EquivariantClass:
    """``alpha`` with every part moved by ``u_j -> sum_i matrix[i][j] u_i``,
    the map that sends each weight ``w`` to ``matrix`` times ``w``."""
    r = alpha.rank
    images = [
        sum((MPoly.variable(r, i) * matrix[i][j] for i in range(r)), MPoly.zero(r))
        for j in range(r)
    ]

    def move(_, p: MPoly, __) -> MPoly:
        out = MPoly.zero(r)
        for exps, c in p.terms.items():
            term = MPoly.constant(r, c)
            for image, e in zip(images, exps):
                for _ in range(e):
                    term = term * image
            out = out + term
        return out

    comps = {
        cid: ComponentClass(
            kind,
            genus,
            {k: map_parts(kind, entry, move, None) for k, entry in alpha.restriction(cid).items()},
            r,
        )
        for cid, kind, genus in alpha.addressed()
    }
    return EquivariantClass(comps, r)


# Unimodular matrices by rank: bidiagonal ones and a lower triangular one
# with larger entries, each turning some coordinate characters skew.
TWISTS = {
    2: [((1, 1), (0, 1)), ((1, 0), (-1, 1))],
    3: [((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((1, 0, 0), (2, 1, 0), (3, 4, 1))],
}


@pytest.mark.parametrize(
    "rank, genus, matrix",
    [(rank, genus, m) for rank, ms in TWISTS.items() for genus in (0, 1) for m in ms],
    ids=lambda v: repr(v).replace(" ", ""),
)
def test_a_twisted_cube_has_the_moved_image_of_the_plain_one(rank, genus, matrix):
    """A cube moved by a unimodular matrix validates clean and, in degrees
    0 to 4, has bases of the plain cube's sizes; every moved plain basis
    class is a member, and a basis class perturbed at one slot is a member
    of one exactly when its move is of the other.  Equal sizes and
    membership make the twisted image the moved plain image."""
    plain = cube(rank, genus)
    twist = parse_xray(fixtures.twisted(fixtures.cube_doc(rank, genus), matrix))
    assert validate_xray(twist) == []
    assert any(sorted(map(abs, piece.lam))[-2] for piece in twist.pieces)  # a skew character
    refused = 0
    for degree in range(5):
        basis = image_basis_xray(plain, degree)
        assert len(image_basis_xray(twist, degree)) == len(basis)
        for element in basis:
            assert check_membership_xray(twist, moved(element, matrix)).member
        slots = degree_slots(plain, degree)
        base = class_to_vector(plain, degree, basis[0]) if basis else [0] * len(slots)
        for i in range(len(slots)):
            perturbed = class_from_vector(plain, degree, base[:i] + [base[i] + 1] + base[i + 1:])
            member = check_membership_xray(plain, perturbed).member
            assert check_membership_xray(twist, moved(perturbed, matrix)).member == member
            refused += not member
    assert refused


# Every fixture graph and its rank-1 twin (``fixtures.as_xray``): the circle
# action seen as a complexity-one space, one 4-dimensional piece along (1).
TWIN_DOCS = {
    "g1": fixtures.g1_doc(),
    **{f"g2_g{genus}": fixtures.g2_doc(genus) for genus in (0, 1, 2)},
    "g2_g2_uneq": fixtures.g2_doc(2, 1, 2),
    "g3": fixtures.g3_doc(),
    "chain5_g1_edged": fixtures.chain_doc(5, 1, edges=True),
    "chain6_g2": fixtures.chain_doc(6, 2),
}


@pytest.mark.parametrize("name", sorted(TWIN_DOCS))
def test_a_graphs_rank_one_twin_has_its_image(name):
    """In degrees 0 to 6 the twin's basis is the graph's, promoted, and the
    twin and the graph agree on the membership of random members and of
    members perturbed at one slot.  Along the twin's character a surface's
    H^2 part reads the first power of the character, so the twin reads
    every order of image term that routing keeps."""
    doc = TWIN_DOCS[name]
    graph, twin = parse_graph(doc), parse_xray(fixtures.as_xray(doc))
    assert validate_xray(twin) == []
    for degree in range(7):
        basis = image_basis(graph, degree)
        assert image_basis_xray(twin, degree) == [promote_to_torus(b) for b in basis], degree
    rng = random.Random(name)
    refused = 0
    for _ in range(2):
        member = fixtures.random_member(graph, rng, degrees=range(7))
        perturbed = []
        for degree in range(7):
            vector = class_to_vector(graph, degree, member)
            for i in range(len(vector)):
                moved = vector[:i] + [vector[i] + 1] + vector[i + 1:]
                perturbed.append(
                    fixtures._merge(member, class_from_vector(graph, degree, moved))
                )
        for alpha in [member] + perturbed:
            verdict = check_membership(graph, alpha).member
            assert check_membership_xray(twin, promote_to_torus(alpha)).member == verdict
            refused += not verdict
    assert refused


@st.composite
def unimodular_matrices(draw, rank: int):
    """A unimodular integer ``rank`` x ``rank`` matrix, drawn as a product of
    elementary ones: adding a small multiple of one row to another,
    swapping two rows, negating a row."""
    matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
    steps = st.tuples(
        st.sampled_from(["add", "add", "swap", "negate"]),
        st.integers(0, rank - 1),
        st.integers(0, rank - 1),
        st.sampled_from([-2, -1, 1, 2]),
    )
    for kind, i, j, k in draw(st.lists(steps, min_size=1, max_size=2 * rank)):
        if kind == "add" and i != j:
            matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
        elif kind == "swap":
            matrix[i], matrix[j] = matrix[j], matrix[i]
        elif kind == "negate":
            matrix[i] = [-a for a in matrix[i]]
    return matrix


def cube_series_coefficient(rank: int, genus: int, degree: int) -> int:
    """The coefficient of t^degree in the equivariant Poincare series of the
    cube x-ray, (1 + 2g t + t^2) (1 + t^2)^r / (1 - t^2)^r."""
    series = PoincareSeries((1, 2 * genus, 1))
    for _ in range(rank):
        series = series * PoincareSeries((1, 0, 1), 1)
    return series.coefficient(degree)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 4), st.data())
def test_a_randomly_twisted_cube_has_the_moved_image_of_the_plain_one(rank, genus, degree, data):
    """A cube moved by a random unimodular matrix validates clean, its basis
    in each degree has the size the series gives, as the plain cube's has,
    every moved plain basis class is a member, and a plain member and its
    perturbations at drawn slots keep their verdicts when moved."""
    matrix = data.draw(unimodular_matrices(rank), "matrix")
    plain = fixtures.basis_document("cube", rank, genus)
    twist = parse_xray(fixtures.twisted(fixtures.cube_doc(rank, genus), matrix))
    assert validate_xray(twist) == []
    basis = image_basis_xray(plain, degree)
    size = cube_series_coefficient(rank, genus, degree)
    assert len(basis) == len(image_basis_xray(twist, degree)) == size
    for element in basis:
        assert check_membership_xray(twist, moved(element, matrix)).member
    slots = degree_slots(plain, degree)
    if not slots:
        return
    member = [0] * len(slots)
    for element in basis:
        c = data.draw(st.integers(-2, 2))
        member = [v + c * x for v, x in zip(member, class_to_vector(plain, degree, element))]
    perturbed = data.draw(st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=4))
    for i in [None] + perturbed:
        vector = member if i is None else member[:i] + [member[i] + 1] + member[i + 1:]
        alpha = class_from_vector(plain, degree, vector)
        verdict = check_membership_xray(plain, alpha).member
        assert verdict or i is not None
        assert check_membership_xray(twist, moved(alpha, matrix)).member == verdict


def test_module_closure_under_both_parameters():
    for xray in (x2(1), cp3()):
        for k in range(4):
            for element in image_basis_xray(xray, k):
                for index in range(xray.rank):
                    shifted = times_variable(xray, element, index)
                    assert check_membership_xray(xray, shifted).member


def symplectic_torus_class(xray, bumped=None):
    """The analogue of the equivariant symplectic class [omega + mu u] on an
    x-ray, in degree 2: sum y_i x_i at a point, area [S] + sum y_i x_i at a
    surface; with x_0 added at the component ``bumped``."""
    r = xray.rank
    comps = {}
    for c in xray.components:
        moment = MPoly(r, {tuple(int(i == j) for j in range(r)): y for i, y in enumerate(c.y)})
        if c.id == bumped:
            moment = moment + MPoly.variable(r, 0)
        if c.kind == "surface":
            moment = SurfaceClass(c.genus, c0=moment, c2=MPoly.constant(r, c.area))
        comps[c.id] = ComponentClass(c.kind, c.genus, {2: moment}, r)
    return EquivariantClass(comps, r)


def test_the_symplectic_class_is_in_the_degree_two_image_of_an_xray():
    """Sum y_i x_i at the points and area [S] + sum y_i x_i at the surfaces
    is a member on every fixture, the twisted cube included, and moving one
    component's value off it by x_0 makes a non-member."""
    twist = parse_xray(fixtures.twisted(fixtures.cube_doc(3, 1), TWISTS[3][1]))
    for xray in (x2(0), x2(1), cp3(), cube(2, 0), cube(3, 1), cube(2, 2), twist):
        assert check_membership_xray(xray, symplectic_torus_class(xray)).member
        bumped = symplectic_torus_class(xray, xray.components[0].id)
        assert not check_membership_xray(xray, bumped).member


def reference_image_basis_xray(xray, degree):
    """The slot-major assembly: every piece visits every unit slot class, and
    the dense two-pass elimination of ``test_linalg`` solves the rows."""
    slots = degree_slots(xray, degree)
    if not slots:
        return []
    per_slot = []
    for slot in slots:
        unit = unit_class(xray, degree, slot)
        obstructions = {}
        for piece in xray.pieces:
            for key, value in piece_obstructions(xray, piece, unit).items():
                obstructions[(piece.id,) + key] = value
        per_slot.append(obstructions)
    keys = sorted({key for obs in per_slot for key in obs}, key=repr)
    rows = [[obs.get(key, Fraction(0)) for obs in per_slot] for key in keys]
    return [
        class_from_vector(xray, degree, vec)
        for vec in reference_nullspace(rows, len(slots))
    ]


EQUIVALENCE_XRAYS = {
    "x2_g0": lambda: x2(0),
    "x2_g1": lambda: x2(1),
    "cp3": cp3,
    **{
        f"cube_r{rank}_g{genus}": (lambda rank=rank, genus=genus: cube(rank, genus))
        for rank in (2, 3)
        for genus in (0, 1, 2)
    },
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_XRAYS))
def test_piece_major_basis_matches_the_slot_major_reference(name):
    xray = EQUIVALENCE_XRAYS[name]()
    assert validate_xray(xray) == []
    for degree in range(DEFAULT_XRAY_MAX_DEGREE + 1):
        ours = [class_to_dict(b) for b in image_basis_xray(xray, degree)]
        theirs = [class_to_dict(b) for b in reference_image_basis_xray(xray, degree)]
        assert ours == theirs, degree


def piece_columns(xray, piece, degree, slots):
    """The columns of the rows of one piece's constraint group, as the
    x-ray basis builds them, with the piece's tag taken off each key and
    each pole entry divided back by the group's pole denominator."""
    group = xray._groups[piece.id]
    columns = {}
    for (_, *key), row in _rows([group], degree, slots).items():
        for i, c in row.items():
            value = Fraction(c, group[3]) if key[0] == "pole" else c
            columns.setdefault(i, {})[tuple(key)] = value
    return columns


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_XRAYS))
def test_compiled_columns_are_the_unit_class_obstructions(name):
    xray = EQUIVALENCE_XRAYS[name]()
    for degree in range(DEFAULT_XRAY_MAX_DEGREE + 1):
        slots = degree_slots(xray, degree)
        for piece in xray.pieces:
            columns = piece_columns(xray, piece, degree, slots)
            on_members = [i for i, s in enumerate(slots) if s.component in piece.members]
            assert set(columns) <= set(on_members)
            for i in on_members:
                unit = unit_class(xray, degree, slots[i])
                expected = piece_obstructions(xray, piece, unit)
                assert columns.get(i, {}) == expected, (piece.id, slots[i].label)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_XRAYS))
def test_compiled_columns_sum_to_the_obstructions_of_a_class(name):
    xray = EQUIVALENCE_XRAYS[name]()
    rng = random.Random(name)
    components = [(c.id, c.kind, c.genus) for c in xray.components]
    for _ in range(4):
        alpha = fixtures.random_torus_class(components, xray.rank, rng)
        for piece in xray.pieces:
            total = {}
            for degree in alpha.degrees():
                slots = degree_slots(xray, degree)
                for i, column in piece_columns(xray, piece, degree, slots).items():
                    value = slot_value(alpha, degree, slots[i])
                    if not value:
                        continue
                    for key, c in column.items():
                        total[key] = total.get(key, 0) + value * c
            total = {key: c for key, c in total.items() if c}
            assert total == piece_obstructions(xray, piece, alpha), piece.id


def _rename_upper_surface(doc):
    doc["pieces"][0]["induced_graph"]["surfaces"][1]["id"] = "Smax_1"


def _raise_upper_genus(doc):
    doc["pieces"][0]["induced_graph"]["surfaces"][1]["genus"] = 2


@pytest.mark.parametrize("edit", [_rename_upper_surface, _raise_upper_genus])
def test_basis_rejects_an_induced_graph_as_the_obstructions_do(edit):
    doc = fixtures.x2_doc(1)
    edit(doc)
    xray = parse_xray(doc)
    assert validate_xray(xray)
    piece = xray.pieces[0]
    slot = next(s for s in degree_slots(xray, 1) if s.component in piece.members)
    with pytest.raises(InputError) as expected:
        piece_obstructions(xray, piece, unit_class(xray, 1, slot))
    with pytest.raises(InputError) as found:
        image_basis_xray(xray, 1)
    assert str(found.value) == str(expected.value)


def _class_on(xray, components, rng, degrees=range(5)):
    """A random inhomogeneous class that vanishes off the given components."""
    entries = {c.id: {} for c in xray.components}
    for degree in degrees:
        slots = degree_slots(xray, degree)
        values = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if s.component in components else 0
            for s in slots
        ]
        part = class_from_vector(xray, degree, values)
        for cid in components:
            entries[cid].update(part.restriction(cid))
    comps = {
        c.id: ComponentClass(c.kind, c.genus, entries[c.id], xray.rank) for c in xray.components
    }
    return EquivariantClass(comps, xray.rank)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_XRAYS))
def test_pieces_see_nothing_of_classes_off_their_members(name):
    xray = EQUIVALENCE_XRAYS[name]()
    rng = random.Random(name)
    for piece in xray.pieces:
        outside = [cid for cid in xray.component_ids() if cid not in piece.members]
        for _ in range(3):
            alpha = _class_on(xray, outside, rng)
            assert piece_obstructions(xray, piece, alpha) == {}
        # The same class on the members is obstructed, so the check has teeth.
        alpha = _class_on(xray, piece.members, rng)
        assert piece_obstructions(xray, piece, alpha) != {}


# -- membership from piece obstructions against the two-path reference -------


def reference_dim2_residues(xray, piece, alpha):
    """Nonzero coefficients obstructing divisibility along a 2-dimensional piece."""
    substitution = character_substitution(piece.lam)
    a, b = piece.members
    out = {}
    entries_a, entries_b = alpha.restriction(a), alpha.restriction(b)
    for k in sorted(set(entries_a) | set(entries_b)):
        diff = entries_a.get(k, MPoly.zero(xray.rank)) - entries_b.get(k, MPoly.zero(xray.rank))
        if not diff:
            continue
        for exps, coeff in substitution(diff).terms.items():
            if exps[0] == 0:
                out[("div", (a, b), ("h0",), k, exps)] = coeff
    return out


def reference_torus_h0(graph, rank, lam, alpha):
    """The H^0 divisibility keys of ``torus_obstructions``, adjacent ids only."""
    substitution = character_substitution(lam)
    out = {}
    ids = graph.component_ids()

    def h0_part(cid, k):
        value = alpha.restriction(cid).get(k)
        if value is None:
            return MPoly.zero(rank)
        return value.c0 if isinstance(value, SurfaceClass) else value

    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        for k in alpha.degrees():
            if k % 2:
                continue
            diff = h0_part(a, k) - h0_part(b, k)
            if not diff:
                continue
            for exps, coeff in substitution(diff).terms.items():
                if exps[0] == 0:
                    out[("div", (a, b), ("h0",), k, exps)] = coeff
    return out


def reference_check_membership_torus(graph, rank, lam, alpha):
    obstructions = torus_obstructions(graph, rank, lam, alpha)
    seen = {}
    poles = []
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


def reference_check_membership_xray(xray, alpha):
    """Four-dimensional pieces through the circle-action check, two-dimensional
    ones through their own residue path."""
    violations = []
    for piece in xray.pieces:
        if piece.dim == 4:
            restricted = alpha.restricted(piece.members)
            decision = reference_check_membership_torus(
                piece.induced, xray.rank, piece.lam, restricted
            )
            violations.extend(
                MembershipViolation(v.kind, f"piece {piece.id}: {v.detail}")
                for v in decision.violations
            )
        else:
            residues = reference_dim2_residues(xray, piece, alpha)
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


MEMBERSHIP_XRAYS = dict(EQUIVALENCE_XRAYS, x2_g2=lambda: x2(2))


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_XRAYS))
def test_membership_from_piece_obstructions_matches_the_reference(name):
    xray = MEMBERSHIP_XRAYS[name]()
    rng = random.Random(name)
    components = [(c.id, c.kind, c.genus) for c in xray.components]
    classes = [constant_torus_class(xray, 2)] + [
        fixtures.random_torus_class(components, xray.rank, rng) for _ in range(6)
    ]
    for alpha in classes:
        ours = check_membership_xray(xray, alpha).to_dict()
        assert ours == reference_check_membership_xray(xray, alpha).to_dict()
        for piece in xray.pieces:
            found = piece_obstructions(xray, piece, alpha)
            if piece.dim == 2:
                assert found == reference_dim2_residues(xray, piece, alpha)
                continue
            # The route through the induced graph is the oracle for the kept group.
            restricted = alpha.restricted(piece.members)
            induced = torus_obstructions(piece.induced, xray.rank, piece.lam, restricted)
            assert found == induced
            h0 = {key: value for key, value in induced.items() if key[2] == ("h0",)}
            assert h0 == reference_torus_h0(piece.induced, xray.rank, piece.lam, restricted)


# -- class documents ----------------------------------------------------------


def test_parse_class_torus_roundtrip():
    for xray in (x2(1), cp3()):
        for element in image_basis_xray(xray, 2):
            doc = class_to_dict(element, "fixture")
            assert parse_class_torus(doc, xray) == element


def test_class_parsers_and_the_library_share_the_addressing_message():
    """A document addressing the wrong components gets one message from both
    class parsers, the same one the library raises for that class."""
    def message(call, *args):
        with pytest.raises(InputError) as excinfo:
            call(*args)
        return str(excinfo.value)

    found = ["A", "Q"]
    doc = {"kind": "class", "graph": "doc", "components": {cid: {} for cid in found}}
    for document, parse, check, rank, expected in (
        (g1(), parse_class, check_membership, None,
         "class addresses ['A', 'Q'] but the graph has ['A', 'B', 'C']"),
        (cp3(), parse_class_torus, check_membership_xray, 2,
         "class addresses ['A', 'Q'] but the x-ray has ['P0', 'P1', 'P2', 'P3']"),
    ):
        alpha = EquivariantClass({cid: ComponentClass("point", 0, {}, rank) for cid in found}, rank)
        assert message(parse, doc, document) == expected
        assert message(check, document, alpha) == expected


def test_parse_class_torus_rejections():
    xray = cp3()
    base = {"kind": "class", "graph": "cp3", "components": {}}
    comps = {f"P{i}": {} for i in range(4)}
    with pytest.raises(InputError, match="class addresses"):
        parse_class_torus(dict(base, components={"P0": {}}), xray)
    bad = dict(base, components=dict(comps, P0={"2": "1"}))
    with pytest.raises(SchemaError, match="polynomials are arrays"):
        parse_class_torus(bad, xray)
    bad = dict(base, components=dict(comps, P0={"2": [[[1], "1"]]}))
    with pytest.raises(SchemaError, match="exponent vector must have length 2"):
        parse_class_torus(bad, xray)
    bad = dict(base, components=dict(comps, P0={"2": [[[1.7, 0], "1"]]}))
    with pytest.raises(SchemaError, match="exponents must be integers"):
        parse_class_torus(bad, xray)
    bad = dict(base, components=dict(comps, P0={"-2": []}))
    with pytest.raises(SchemaError, match="not canonical"):
        parse_class_torus(bad, xray)
    with pytest.raises(SchemaError, match='must be "class"'):
        parse_class_torus({"kind": "xray", "components": comps}, xray)
    with pytest.raises(SchemaError, match="missing required field 'graph'"):
        parse_class_torus({"kind": "class", "components": comps}, xray)
    with pytest.raises(SchemaError, match='field "graph" must be a string'):
        parse_class_torus(dict(base, graph=5, components=comps), xray)


def test_parse_class_torus_surface_fields():
    xray = x2(1)
    comps = {c.id: {} for c in xray.components}
    base = {"kind": "class", "graph": "x2", "components": comps}
    doc = dict(base, components=dict(comps, Smax_0={"1": {"c1": [[], []]}}))
    alpha = parse_class_torus(doc, xray)
    # All-zero entries are pruned, and a component left without one holds
    # no record.
    assert "Smax_0" not in alpha.components and alpha.restriction("Smax_0") == {}
    assert alpha.addressed() == xray._fixed_components
    assert alpha == parse_class_torus(base, xray)
    bad = dict(base, components=dict(comps, Smax_0={"1": {"c1": [[]]}}))
    with pytest.raises(SchemaError, match='"c1" must be a list of 2 polynomials'):
        parse_class_torus(bad, xray)
    bad = dict(base, components=dict(comps, Smax_0={"2": {"c9": []}}))
    with pytest.raises(SchemaError, match="unknown field"):
        parse_class_torus(bad, xray)
