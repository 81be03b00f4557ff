"""Decorated graph parsing, validation and the extremal equations."""

import dataclasses
import fractions
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equicoh import (
    DegenerateInputError,
    InputError,
    ParseError,
    SchemaError,
    abbv_zero_check,
    extremal_self_intersections,
    image_basis,
    parse_graph,
    resolve_self_intersections,
    serialize_graph,
    validate_graph,
    weight_product,
)
from equicoh import graph as graph_module
from equicoh.graph import (
    EDGE_KEYS,
    GRAPH_KEYS,
    ISOLATED_KEYS,
    SURFACE_KEYS,
    DecoratedGraph,
    FatVertex,
    GraphEdge,
    IsolatedVertex,
    Violation,
    _admit,
    _check_keys,
    _identification_error,
    _load_document,
    _order,
    _require,
    _tuple,
    graph_to_dict,
    parse_rational,
    report_to_json,
)

from fixtures import (
    all_graphs,
    chain,
    chain_doc,
    cube,
    g1,
    g1_doc,
    g2,
    g2_doc,
    g3,
    g3_doc,
    mutate,
    x2,
)


def codes(graph):
    return sorted({v.code for v in validate_graph(graph)})


def test_parse_g1_shape():
    graph = g1()
    assert [v.id for v in graph.isolated] == ["A", "B", "C"]
    assert graph.surfaces == ()
    assert len(graph.edges) == 2
    assert graph.find("B").weights == (-1, 1)
    assert reference_momentum_span(graph) == (0, 2)


def test_parse_accepts_rational_strings():
    doc = mutate(g1_doc(), lambda d: d["isolated"][1].__setitem__("y", "1/2"))
    graph = parse_graph(doc)
    assert graph.find("B").y == Fraction(1, 2)


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", Fraction(3)),
        ("-3", Fraction(-3)),
        ("+3", Fraction(3)),
        ("007", Fraction(7)),
        ("3/2", Fraction(3, 2)),
        ("-6/4", Fraction(-3, 2)),
        ("+0/5", Fraction(0)),
    ],
)
def test_parse_rational_accepts_a_sign_digits_and_a_denominator(text, value):
    assert parse_rational(text, "here") == value


# Python's Fraction string grammar accepts the first six; the documented
# grammar (sign, digits, optional "/" and positive denominator) does not.
REJECTED_RATIONALS = [
    "1.5",
    "1e3",
    "1_000",
    " 3/4 ",
    "3/4\n",
    "\u0661",  # an Arabic-Indic digit one
    "3/0",
    "3/-4",
    "3/+4",
    "3 / 4",
    "3/4/5",
    "/4",
    "3/",
    "-",
    "",
    "0x10",
    "inf",
    "1" * 5000,  # past the interpreter's limit on digits
]


@pytest.mark.parametrize("text", REJECTED_RATIONALS)
def test_parse_rational_rejects_every_other_string(text):
    with pytest.raises(SchemaError, match="^here: cannot parse rational"):
        parse_rational(text, "here")
    doc = mutate(g1_doc(), lambda d: d["isolated"][1].__setitem__("y", text))
    with pytest.raises(SchemaError, match=r"^isolated\[1\]: cannot parse rational"):
        parse_graph(doc)


@pytest.mark.parametrize(
    "break_doc, message",
    [
        (lambda d: d["edges"][0].__setitem__("from", "Z"), "unknown id"),
        (lambda d: d["isolated"][1].__setitem__("id", "A"), "duplicate id"),
        (lambda d: d["isolated"][0].pop("weights"), "missing required field"),
        (lambda d: d["isolated"][0].__setitem__("weights", [1, 0]), "nonzero"),
        (lambda d: d["isolated"][0].__setitem__("weights", [1]), "pair of integers"),
        (lambda d: d["isolated"][0].__setitem__("y", 0.5), "floats are rejected"),
        (lambda d: d.__setitem__("kind", "chart"), 'must be "graph"'),
        (lambda d: d.__setitem__("extra", 1), "unknown field"),
        (lambda d: d["edges"][0].__setitem__("ell", 0), "positive integer"),
        (lambda d: d["edges"][0].__setitem__("to", "A"), "must differ"),
    ],
)
def test_parse_schema_errors(break_doc, message):
    with pytest.raises(SchemaError, match=message):
        parse_graph(mutate(g1_doc(), break_doc))


def test_parse_rejects_empty_graph():
    doc = {"kind": "graph", "isolated": [], "surfaces": [], "edges": []}
    with pytest.raises(SchemaError, match="at least one fixed component"):
        parse_graph(doc)


def test_parse_rejects_edge_to_surface():
    doc = g3_doc()
    doc["isolated"].append({"id": "q", "y": "1/2", "weights": [-1, 1]})
    doc["edges"] = [{"from": "p", "to": "S", "ell": 1}]
    with pytest.raises(SchemaError, match="not an isolated vertex"):
        parse_graph(doc)


def _hand_built_with_edge(start, end):
    return DecoratedGraph(
        (
            IsolatedVertex("a", Fraction(0), (1, 1)),
            IsolatedVertex("b", Fraction(1), (-1, -1)),
        ),
        (FatVertex("S", Fraction(1, 2), Fraction(1), 0),),
        (GraphEdge(start, end, 1),),
    )


@pytest.mark.parametrize(
    "start, end, named", [("a", "zz", "zz"), ("zz", "b", "zz"), ("a", "S", "S")]
)
def test_validate_names_an_edge_off_the_isolated_vertices(start, end, named):
    """An edge to an unknown id or to a fat vertex gets an ``edge-shape``
    violation with parse's rule, and the graph is checked no further."""
    graph = _hand_built_with_edge(start, end)
    if named == "S":
        rule = "edge endpoint 'S' is not an isolated vertex"
    else:
        rule = f"edge references an unknown id {named!r}"
    pair = tuple(sorted((start, end)))
    assert validate_graph(graph) == [Violation("edge-shape", f"edge {start}-{end}: {rule}", pair)]
    # an edge between isolated vertices validates as usual
    assert "fat-not-extremal" in codes(_hand_built_with_edge("a", "b"))


def test_identification_matrix_shape():
    doc = g2_doc(1)
    doc["h1_identification"] = [[0, 1], [1, 0]]
    graph = parse_graph(doc)
    assert graph.identification_matrix() == ((0, 1), (1, 0))
    assert g2(1).identification_matrix() == ((1, 0), (0, 1))
    doc["h1_identification"] = [[1, 1], [0, 1]]
    with pytest.raises(SchemaError, match="exactly one nonzero entry"):
        parse_graph(doc)


def test_identification_rejects_floats():
    doc = g2_doc(1)
    doc["h1_identification"] = [[1.0, 0], [0, 1]]
    with pytest.raises(SchemaError, match="matrix over"):
        parse_graph(doc)
    doc["h1_identification"] = [[0, 1], [1, 0.0]]
    with pytest.raises(SchemaError, match="matrix over"):
        parse_graph(doc)


def test_a_directly_built_identification_is_validated_as_parse_checks_it():
    """Validation reports what parse refuses in an identification, on the two
    surfaces, and keeps the entries as given; compute entry points refuse it."""
    cases = {
        ((1, 1), (0, 1)): "each row must have exactly one nonzero entry",
        ((1, 0), (1, 0)): "each column must have exactly one nonzero entry",
        ((2, 0), (0, 1)): "expected a 2x2 matrix over {-1, 0, 1}",
        ((0.5, 0), (0, 1)): "expected a 2x2 matrix over {-1, 0, 1}",
        ((True, 0), (0, 1)): "expected a 2x2 matrix over {-1, 0, 1}",
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)): "expected a 2x2 matrix over {-1, 0, 1}",
    }
    for matrix, message in cases.items():
        graph = dataclasses.replace(g2(1), h1_identification=matrix)
        assert graph.h1_identification == matrix
        assert validate_graph(graph) == [
            Violation("h1-identification", message, ("Smax", "Smin"))
        ]
        refused = f"^invalid graph: h1-identification: {re.escape(message)}$"
        with pytest.raises(InputError, match=refused):
            image_basis(graph, 2)
        doc = g2_doc(1)
        doc["h1_identification"] = [list(row) for row in matrix]
        with pytest.raises(SchemaError, match=f"^h1_identification: {re.escape(message)}$"):
            parse_graph(doc)
    no_surfaces = dataclasses.replace(g1(), h1_identification=((1, 0), (0, 1)))
    assert validate_graph(no_surfaces) == [
        Violation("h1-identification", "an identification needs exactly two fat vertices", ())
    ]
    # two genera: the genus mismatch is reported and the identification is not read
    unequal = dataclasses.replace(
        g2(1),
        surfaces=(dataclasses.replace(g2(1).surfaces[0], genus=2), g2(1).surfaces[1]),
        h1_identification=((1, 1), (0, 1)),
    )
    assert codes(unequal) == ["genus-mismatch"]


def test_parse_reports_deeply_nested_json_as_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_graph("[" * 100_000)


def test_serialize_round_trip():
    for graph in all_graphs().values():
        assert parse_graph(serialize_graph(graph)) == graph
    doc = g2_doc(1)
    doc["h1_identification"] = [[0, 1], [-1, 0]]
    graph = parse_graph(doc)
    assert parse_graph(serialize_graph(graph)) == graph


def test_component_order_is_canonical():
    shuffled = g1_doc()
    rng = random.Random(7)
    rng.shuffle(shuffled["isolated"])
    rng.shuffle(shuffled["edges"])
    assert parse_graph(shuffled) == g1()
    assert report_to_json(validate_graph(parse_graph(shuffled))) == report_to_json(
        validate_graph(g1())
    )


def test_fixtures_are_valid():
    for name, graph in all_graphs().items():
        assert validate_graph(graph) == [], name
    assert validate_graph(g2(0, 2, 4)) == []


def test_weight_sign_violations():
    doc = mutate(g1_doc(), lambda d: d["isolated"][1].__setitem__("weights", [1, 1]))
    report = validate_graph(parse_graph(doc))
    assert [v.code for v in report].count("weight-signs") == 1
    assert any("opposite sign" in v.message for v in report)

    doc = mutate(g1_doc(), lambda d: d["isolated"][0].__setitem__("weights", [-1, 2]))
    assert "weight-signs" in codes(parse_graph(doc))


def test_edge_weight_and_area_violations():
    doc = mutate(g1_doc(), lambda d: d["edges"][0].__setitem__("ell", 3))
    assert "edge-weights" in codes(parse_graph(doc))

    doc = mutate(g1_doc(), lambda d: d["edges"][0].__setitem__("area", 5))
    assert "edge-area" in codes(parse_graph(doc))

    doc = mutate(g1_doc(), lambda d: d["edges"][0].__setitem__("area", 1))
    assert "edge-area" not in codes(parse_graph(doc))


def test_extremum_and_surface_position_violations():
    doc = g1_doc()
    doc["isolated"].append({"id": "D", "y": 2, "weights": [-1, -3]})
    assert "extremum-not-unique" in codes(parse_graph(doc))

    doc = g2_doc(0)
    doc["isolated"].append({"id": "p", "y": "1/2", "weights": [1, -1]})
    doc["surfaces"].append({"id": "Smid", "y": "1/2", "area": 1, "genus": 0})
    assert "fat-not-extremal" in codes(parse_graph(doc))


def test_genus_violations():
    doc = g2_doc(1)
    doc["surfaces"][1]["genus"] = 2
    assert "genus-mismatch" in codes(parse_graph(doc))

    lonely = {
        "kind": "graph",
        "isolated": [{"id": "p", "y": 1, "weights": [-1, -1]}],
        "surfaces": [{"id": "S", "y": 0, "area": 1, "genus": 2}],
        "edges": [],
    }
    assert "genus-mismatch" in codes(parse_graph(lonely))


def test_effectiveness_violation():
    doc = mutate(
        g1_doc(),
        lambda d: [
            v.__setitem__("weights", [2 * v["weights"][0], 2 * v["weights"][1]])
            for v in d["isolated"]
        ],
    )
    assert "not-effective" in codes(parse_graph(doc))


def test_self_intersection_violation():
    doc = g2_doc(0)
    doc["surfaces"][0]["self_intersection"] = 5
    report = validate_graph(parse_graph(doc))
    assert any(
        v.code == "self-intersection" and "give 0" in v.message for v in report
    )


def test_degenerate_momentum():
    doc = {
        "kind": "graph",
        "isolated": [
            {"id": "a", "y": 0, "weights": [1, 1]},
            {"id": "b", "y": 0, "weights": [-1, -1]},
        ],
        "surfaces": [],
        "edges": [],
    }
    graph = parse_graph(doc)
    assert codes(graph) == ["degenerate-momentum"]
    with pytest.raises(DegenerateInputError):
        extremal_self_intersections(graph)


def test_extremal_self_intersections_frozen():
    assert extremal_self_intersections(g2(0, 2, 4)) == (-2, 2)
    for genus in (0, 1, 2):
        assert extremal_self_intersections(g2(genus)) == (0, 0)
    assert extremal_self_intersections(g1()) == (Fraction(-1, 2), Fraction(-1, 2))


def test_resolve_self_intersections():
    resolved = resolve_self_intersections(g2(0, 2, 4))
    values = {v.id: v.self_intersection for v in resolved.surfaces}
    assert values == {"Smin": -2, "Smax": 2}
    # labels already present are left alone
    assert resolve_self_intersections(g3()).find("S").self_intersection == 1


def test_the_label_entry_points_refuse_a_graph_that_breaks_a_shape_rule():
    """A direct build with a float ``y`` or a float self-intersection breaks
    a shape rule, and the three label entry points refuse it with an
    InputError naming it (once an AttributeError from the labels and the
    Euler sum, and from resolve the float-labelled graph itself); a graph
    that breaks another rule still gets its answer."""
    graph = g1()
    point = graph.find("A")
    float_y = dataclasses.replace(
        graph, isolated=(dataclasses.replace(point, y=0.0),) + graph.isolated[1:]
    )
    graph = g2(0)  # both labels 0
    float_label = dataclasses.replace(
        graph,
        surfaces=tuple(dataclasses.replace(v, self_intersection=0.0) for v in graph.surfaces),
    )
    for bad, where in ((float_y, "component A"), (float_label, "component Smax")):
        assert codes(bad) == ["component-shape"]
        for entry_point in (
            extremal_self_intersections, resolve_self_intersections, abbv_zero_check
        ):
            with pytest.raises(
                InputError, match=f"^invalid graph: component-shape: {where}: floats are rejected"
            ):
                entry_point(bad)
    euler = parse_graph(ONE_GRAPH_PER_CODE["euler-sum"])
    assert "euler-sum" in codes(euler) and not abbv_zero_check(euler)
    assert resolve_self_intersections(euler) is euler
    assert extremal_self_intersections(euler) == euler._labels


def test_find_names_a_missing_component():
    with pytest.raises(InputError, match="no component named 'Z'"):
        g1().find("Z")


def test_weight_product():
    assert weight_product(g1().find("A")) == 2
    assert weight_product(g1().find("B")) == -1


def test_abbv_zero_check_frozen():
    assert abbv_zero_check(g1())
    assert abbv_zero_check(g3())
    perturbed = mutate(
        g1_doc(), lambda d: d["isolated"][1].__setitem__("weights", [-1, 2])
    )
    assert not abbv_zero_check(parse_graph(perturbed))


interior_points = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
        st.integers(1, 4),
        st.integers(1, 4),
    ),
    max_size=4,
)


@given(
    interior_points,
    st.builds(Fraction, st.integers(1, 8), st.integers(1, 3)),
    st.builds(Fraction, st.integers(1, 8), st.integers(1, 3)),
)
def test_extremal_sum_identity(points, area_min, area_max):
    """e_min + e_max + sum of interior 1/(mn) vanishes for any data."""
    doc = {
        "kind": "graph",
        "isolated": [
            {
                "id": f"p{i}",
                "y": str(Fraction(y, 10)),
                "weights": [m, -n],
            }
            for i, (y, m, n) in enumerate(points)
        ],
        "surfaces": [
            {"id": "Smin", "y": 0, "area": str(area_min), "genus": 0},
            {"id": "Smax", "y": 1, "area": str(area_max), "genus": 0},
        ],
        "edges": [],
    }
    graph = parse_graph(doc)
    e_min, e_max = extremal_self_intersections(graph)
    interior = sum(
        (Fraction(1, m * n) for _, m, n in points), start=Fraction(0)
    )
    assert e_min + e_max + interior == 0
    # the resolved graph always satisfies the degree-zero localization identity
    assert abbv_zero_check(resolve_self_intersections(graph))


def test_graph_to_dict_is_canonical_json():
    doc = graph_to_dict(g3())
    assert doc["surfaces"][0]["self_intersection"] == "1"
    assert doc["isolated"][0]["y"] == "0"


# -- parsing against the field-by-field reference ------------------------------


def reference_parse_graph(text) -> DecoratedGraph:
    """Graph parsing that checks each record's keys and then looks each
    required field up on its own, in reading order."""
    doc = _load_document(text)
    _check_keys(doc, GRAPH_KEYS, "graph")
    if _require(doc, "kind", "graph") != "graph":
        raise SchemaError('field "kind" must be "graph"', "graph")
    raw_isolated = _require(doc, "isolated", "graph")
    raw_surfaces = _require(doc, "surfaces", "graph")
    raw_edges = _require(doc, "edges", "graph")
    if not isinstance(raw_isolated, list) or not isinstance(raw_surfaces, list) \
            or not isinstance(raw_edges, list):
        raise SchemaError('"isolated", "surfaces" and "edges" must be arrays', "graph")

    seen: set[str] = set()
    isolated = []
    for i, item in enumerate(raw_isolated):
        where = f"isolated[{i}]"
        _check_keys(item, ISOLATED_KEYS, where)
        vid = _require(item, "id", where)
        y = parse_rational(_require(item, "y", where), where)
        vertex = IsolatedVertex(vid, y, _tuple(_require(item, "weights", where)))
        _admit(vertex._shape_rule(), vid, seen, where)
        isolated.append(vertex)

    surfaces = []
    for i, item in enumerate(raw_surfaces):
        where = f"surfaces[{i}]"
        _check_keys(item, SURFACE_KEYS, where)
        vid = _require(item, "id", where)
        y = parse_rational(_require(item, "y", where), where)
        area = parse_rational(_require(item, "area", where), where)
        genus = _require(item, "genus", where)
        e = item.get("self_intersection")
        if e is not None:
            e = parse_rational(e, where)
        surface = FatVertex(vid, y, area, genus, e)
        _admit(surface._shape_rule(), vid, seen, where)
        surfaces.append(surface)

    if not seen:
        raise SchemaError("a graph needs at least one fixed component", "graph")

    isolated_ids = {v.id for v in isolated}
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        _check_keys(item, EDGE_KEYS, where)
        start = _require(item, "from", where)
        end = _require(item, "to", where)
        ell = _require(item, "ell", where)
        area = item.get("area")
        if area is not None:
            area = parse_rational(area, where)
        edge = GraphEdge(start, end, ell, area)
        if (rule := edge._shape_rule()) is not None:
            raise SchemaError(rule, where)
        for endpoint in (start, end):
            if endpoint not in seen:
                raise SchemaError(f"edge references an unknown id {endpoint!r}", where)
            if endpoint not in isolated_ids:
                raise SchemaError(f"edge endpoint {endpoint!r} is not an isolated vertex", where)
        edges.append(edge)

    identification = doc.get("h1_identification")
    if identification is not None:
        error = _identification_error(identification, surfaces)
        if error:
            raise SchemaError(error, "h1_identification")

    graph = DecoratedGraph(tuple(isolated), tuple(surfaces), tuple(edges), identification)
    graph.__dict__["_shapes"] = ()  # every other shape was refused above
    return graph


_IDS = st.one_of(
    st.text("ab", max_size=2),
    st.integers(-2, 2),
    st.none(),
    st.tuples(st.integers(0, 1)),
)


@given(st.lists(_IDS, max_size=6), st.booleans())
def test_records_sort_by_their_ids_in_the_order_of_any_id(ids, strings_only):
    """A record tuple sorts as the ``_order`` of its ids sorts it, stably:
    by the strings alone where every id is one, by ``_order`` otherwise."""
    if strings_only:
        ids = [x for x in ids if type(x) is str]
    records = [IsolatedVertex(x, n, (1, 1)) for n, x in enumerate(ids)]
    expected = tuple(sorted(records, key=lambda r: _order(r.id)))
    assert graph_module._sorted_by_id(records) == expected
    assert DecoratedGraph(tuple(records), (), ()).isolated == expected


# -- the values stored on a graph against the recomputing references ---------


def reference_momentum_span(graph):
    """The lowest and the highest momentum of the graph's components."""
    ys = [v.y for v in graph.isolated] + [v.y for v in graph.surfaces]
    return min(ys), max(ys)


def reference_extremal_self_intersections(graph):
    """The extremal labels with every term a Fraction, from a span computed
    afresh."""
    ys = [v.y for v in graph.isolated] + [v.y for v in graph.surfaces]
    y_min, y_max = min(ys), max(ys)
    if y_min == y_max:
        raise DegenerateInputError("momentum map is constant; extrema are not separated")
    sum_e = Fraction(0)
    sum_ye = Fraction(0)
    for v in graph.isolated:
        if y_min < v.y < y_max:
            m, n = abs(v.weights[0]), abs(v.weights[1])
            if m == 0 or n == 0:
                raise InputError(f"zero weight at {v.id!r}")
            e_p = Fraction(1, m * n)
            sum_e += e_p
            sum_ye += v.y * e_p
    s_min = Fraction(0)
    s_max = Fraction(0)
    for v in graph.surfaces:
        if v.y == y_min:
            s_min = v.area
        elif v.y == y_max:
            s_max = v.area
    span = y_max - y_min
    e_min = (sum_ye + s_min - sum_e * y_max - s_max) / span
    e_max = (sum_e * y_min + s_max - sum_ye - s_min) / span
    return e_min, e_max


def reference_validate_graph(graph):
    """Validation that recomputes the span and the labels, builds the
    resolved graph and sums its inverse Euler numbers term by term."""
    violations = []
    ys = [v.y for v in graph.isolated] + [v.y for v in graph.surfaces]
    y_min, y_max = min(ys), max(ys)
    if y_min == y_max:
        return [
            Violation(
                "degenerate-momentum",
                "all components sit at one momentum level",
                tuple(graph.component_ids()),
            )
        ]

    at_min = [v.id for v in graph.isolated if v.y == y_min] + [
        v.id for v in graph.surfaces if v.y == y_min
    ]
    at_max = [v.id for v in graph.isolated if v.y == y_max] + [
        v.id for v in graph.surfaces if v.y == y_max
    ]
    for level, ids in (("minimum", at_min), ("maximum", at_max)):
        if len(ids) > 1:
            violations.append(
                Violation(
                    "extremum-not-unique",
                    f"{len(ids)} components attain the {level}",
                    tuple(sorted(ids)),
                )
            )

    weights_ok = True
    for v in graph.isolated:
        b1, b2 = v.weights
        if b1 == 0 or b2 == 0:
            violations.append(Violation("weight-signs", "weights must be nonzero", (v.id,)))
            weights_ok = False
        elif v.y == y_min and not (b1 > 0 and b2 > 0):
            violations.append(
                Violation(
                    "weight-signs",
                    f"minimum point must have two positive weights, got {v.weights}",
                    (v.id,),
                )
            )
        elif v.y == y_max and not (b1 < 0 and b2 < 0):
            violations.append(
                Violation(
                    "weight-signs",
                    f"maximum point must have two negative weights, got {v.weights}",
                    (v.id,),
                )
            )
        elif y_min < v.y < y_max and not b1 * b2 < 0:
            violations.append(
                Violation(
                    "weight-signs",
                    f"interior point must have weights of opposite sign, got {v.weights}",
                    (v.id,),
                )
            )

    vertex_by_id = {v.id: v for v in graph.isolated}
    for e in graph.edges:
        a, b = vertex_by_id[e.start], vertex_by_id[e.end]
        pair = tuple(sorted((e.start, e.end)))
        if a.y == b.y:
            violations.append(
                Violation("edge-weights", "edge endpoints sit at equal momentum", pair)
            )
            continue
        lower, upper = (a, b) if a.y < b.y else (b, a)
        if e.ell not in lower.weights or -e.ell not in upper.weights:
            violations.append(
                Violation(
                    "edge-weights",
                    f"edge of speed {e.ell} needs weight +{e.ell} below and -{e.ell} above",
                    pair,
                )
            )
        if e.area is not None and abs(b.y - a.y) != e.ell * e.area:
            violations.append(
                Violation(
                    "edge-area",
                    f"momentum gap {abs(b.y - a.y)} != ell * area = {e.ell * e.area}",
                    pair,
                )
            )

    for v in graph.surfaces:
        if v.y not in (y_min, y_max):
            violations.append(
                Violation("fat-not-extremal", "fixed surfaces occur only at the extrema", (v.id,))
            )

    genera = sorted({v.genus for v in graph.surfaces})
    if len(graph.surfaces) == 2 and len(genera) > 1:
        violations.append(
            Violation(
                "genus-mismatch",
                f"the two fixed surfaces have different genera {genera}",
                tuple(v.id for v in graph.surfaces),
            )
        )
    if any(v.genus > 0 for v in graph.surfaces) and len(graph.surfaces) != 2:
        violations.append(
            Violation(
                "genus-mismatch",
                "positive genus forces exactly two fixed surfaces",
                tuple(v.id for v in graph.surfaces),
            )
        )

    if not graph.surfaces and weights_ok:
        g = 0
        for v in graph.isolated:
            g = gcd(g, abs(v.weights[0]))
            g = gcd(g, abs(v.weights[1]))
        if g != 1:
            violations.append(
                Violation(
                    "not-effective",
                    f"all weights share the common factor {g}",
                    tuple(v.id for v in graph.isolated),
                )
            )

    if weights_ok:
        try:
            e_min, e_max = reference_extremal_self_intersections(graph)
            for v in graph.surfaces:
                if v.self_intersection is None:
                    continue
                expected = e_min if v.y == y_min else e_max if v.y == y_max else None
                if expected is not None and v.self_intersection != expected:
                    violations.append(
                        Violation(
                            "self-intersection",
                            f"label {v.self_intersection} but the extremal equations give "
                            f"{expected}",
                            (v.id,),
                        )
                    )
            surfaces = []
            for v in graph.surfaces:
                if v.self_intersection is None and v.y == y_min:
                    v = FatVertex(v.id, v.y, v.area, v.genus, e_min)
                elif v.self_intersection is None and v.y == y_max:
                    v = FatVertex(v.id, v.y, v.area, v.genus, e_max)
                surfaces.append(v)
            total = Fraction(0)
            for v in graph.isolated:
                total += Fraction(1, weight_product(v))
            for v in surfaces:
                if v.self_intersection is None:
                    raise InputError(f"unresolved self_intersection at {v.id!r}")
                total -= v.self_intersection
            if total != 0:
                violations.append(
                    Violation(
                        "euler-sum",
                        "inverse Euler numbers of the fixed components do not sum to zero",
                        tuple(graph.component_ids()),
                    )
                )
        except InputError:
            pass

    return sorted(violations, key=lambda v: (v.code, v.components, v.message))


def outcome(function, graph):
    """What ``function(graph)`` returns, or the type and text of what it raises."""
    try:
        return function(graph)
    except InputError as exc:
        return type(exc), str(exc)


def assert_matches_references(doc):
    """Each function on a fresh parse of ``doc`` agrees with its reference."""
    assert validate_graph(parse_graph(doc)) == reference_validate_graph(parse_graph(doc))
    assert outcome(extremal_self_intersections, parse_graph(doc)) == outcome(
        reference_extremal_self_intersections, parse_graph(doc)
    )
    # validation first, then the labels it stored
    graph = parse_graph(doc)
    validate_graph(graph)
    assert outcome(extremal_self_intersections, graph) == outcome(
        reference_extremal_self_intersections, graph
    )


def test_fixtures_match_the_references():
    for graph in all_graphs().values():
        assert_matches_references(graph_to_dict(graph))
    assert_matches_references(g2_doc(0, 2, 4))
    assert_matches_references(g2_doc(0, "3/2", "5/4"))
    for n, genus in ((4, 0), (40, 1), (100, 2)):
        assert_matches_references(chain_doc(n, genus))
    # momenta in thirds: an edge area of 1/3 matches the gap, 1/2 does not
    for area, expected in (("1/3", []), ("1/2", ["edge-area"])):
        doc = g1_doc()
        for v in doc["isolated"]:
            v["y"] = f"{v['y']}/3"
        doc["edges"][0]["area"] = area
        assert codes(parse_graph(doc)) == expected
        assert_matches_references(doc)


def _degenerate_doc():
    return {
        "kind": "graph",
        "isolated": [
            {"id": "a", "y": 0, "weights": [1, 1]},
            {"id": "b", "y": 0, "weights": [-1, -1]},
        ],
        "surfaces": [],
        "edges": [],
    }


def _interior_surface_doc():
    doc = g2_doc(0)
    doc["isolated"].append({"id": "p", "y": "1/2", "weights": [1, -1]})
    doc["surfaces"].append({"id": "Smid", "y": "1/2", "area": 1, "genus": 0})
    return doc


def _relabelled(doc, index, label):
    doc["surfaces"][index]["self_intersection"] = label
    return doc


ONE_GRAPH_PER_CODE = {
    "degenerate-momentum": _degenerate_doc(),
    "extremum-not-unique": mutate(
        g1_doc(),
        lambda d: d["isolated"].append({"id": "D", "y": 2, "weights": [-1, -3]}),
    ),
    "weight-signs": mutate(g1_doc(), lambda d: d["isolated"][1].__setitem__("weights", [1, 1])),
    "edge-weights": mutate(g1_doc(), lambda d: d["edges"][0].__setitem__("ell", 3)),
    "edge-area": mutate(g1_doc(), lambda d: d["edges"][0].__setitem__("area", 5)),
    "fat-not-extremal": _interior_surface_doc(),
    "genus-mismatch": mutate(g2_doc(1), lambda d: d["surfaces"][1].__setitem__("genus", 2)),
    "not-effective": mutate(
        g1_doc(),
        lambda d: [
            v.__setitem__("weights", [2 * v["weights"][0], 2 * v["weights"][1]])
            for v in d["isolated"]
        ],
    ),
    "self-intersection": _relabelled(g2_doc(0), 0, 5),
    "euler-sum": _relabelled(g3_doc(), 0, 2),
}


@pytest.mark.parametrize("code", sorted(ONE_GRAPH_PER_CODE))
def test_each_violation_code_matches_the_references(code):
    doc = ONE_GRAPH_PER_CODE[code]
    assert code in codes(parse_graph(doc))
    assert_matches_references(doc)


def test_an_unlabelled_interior_surface_gets_no_euler_sum():
    doc = _interior_surface_doc()
    assert codes(parse_graph(doc)) == ["fat-not-extremal"]
    assert_matches_references(doc)
    # with a label it is summed, and the sum fails
    assert "euler-sum" in codes(parse_graph(_relabelled(doc, 2, 3)))
    assert_matches_references(_relabelled(doc, 2, 3))


def test_a_zero_weight_built_directly_matches_the_references():
    graph = DecoratedGraph(
        (
            IsolatedVertex("a", Fraction(0), (1, 1)),
            IsolatedVertex("b", Fraction(1, 2), (0, -1)),
            IsolatedVertex("c", Fraction(1), (-1, -1)),
        ),
        (),
        (),
    )
    # the shape rule refuses a zero weight, as parse does, before any sign is
    # read, and the labels are refused on it, naming the same fault
    assert validate_graph(graph) == [
        Violation("component-shape", "component b: weights must be nonzero", ("b",))
    ]
    for _ in range(2):
        assert outcome(extremal_self_intersections, graph) == (
            InputError,
            "invalid graph: component-shape: component b: weights must be nonzero",
        )
    assert outcome(reference_extremal_self_intersections, graph) == (
        InputError,
        "zero weight at 'b'",
    )


def test_records_whose_ids_mix_types_are_refused_not_raised():
    """Sorting a directly built graph's records never raises: an id that is
    not a string, beside one that is, gets its component-shape violation,
    and two edges on one pair whose ``ell`` are an int and a tuple get an
    edge-shape one, whichever order they come in."""
    a = IsolatedVertex("A", Fraction(0), (1, 1))
    graph = DecoratedGraph((a, IsolatedVertex(5, Fraction(1), (-1, -1))), (), ())
    assert validate_graph(graph) == [
        Violation("component-shape", "component 5: id must be a nonempty string", (5,))
    ]
    with pytest.raises(InputError, match="^invalid graph: component-shape: component 5: "):
        image_basis(graph, 0)

    points = (a, IsolatedVertex("B", Fraction(1), (-1, -1)))
    edges = (GraphEdge("A", "B", 1), GraphEdge("A", "B", (1,)))
    for given in (edges, edges[::-1]):
        graph = DecoratedGraph(points, (), given)
        assert graph.edges == edges
        assert validate_graph(graph) == [
            Violation("edge-shape", 'edge A-B: "ell" must be a positive integer', ("A", "B"))
        ]

    # two bad ids of different types, and an edge between a string and an int
    graph = DecoratedGraph(
        (IsolatedVertex(None, Fraction(0), (1, 1)), IsolatedVertex(5, Fraction(1), (-1, -1))),
        (),
        (GraphEdge("A", 5, 1),),
    )
    assert [(v.code, v.components) for v in validate_graph(graph)] == [
        ("component-shape", (5,)),
        ("component-shape", (None,)),
        ("edge-shape", ("A", 5)),
    ]


def test_parsed_records_keep_the_plain_id_order():
    for graph in all_graphs().values():
        for records in (graph.isolated, graph.surfaces):
            assert [v.id for v in records] == sorted(v.id for v in records)
        assert list(graph.edges) == sorted(graph.edges, key=lambda e: (e.start, e.end, e.ell))


positive_rational = st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
    lambda pq: f"{pq[0]}/{pq[1]}"
)
label = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
# (area, genus, label, offset): an extremal surface, placed the fraction
# offset beyond 21, past every point
extremum = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(st.integers(1, 9), positive_rational),
        st.integers(0, 2),
        label,
        st.tuples(st.integers(0, 5), st.integers(1, 6)),
    ),
)
# (y, area, label): a surface among the points, labelled or not
middle = st.one_of(
    st.none(),
    st.tuples(
        st.tuples(st.integers(-20, 20), st.integers(1, 9)),
        positive_rational,
        label,
    ),
)
# (from, to, ell, area): indices into the points, and an area that is
# absent, the momentum gap over ell (the edge-area check passes), or any
edge = st.tuples(
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(1, 3),
    st.one_of(st.none(), st.just("exact"), positive_rational),
)


@given(
    st.lists(
        st.tuples(
            st.integers(-20, 20),
            st.integers(1, 9),
            st.integers(-50, 50).filter(bool),
            st.integers(-50, 50).filter(bool),
        ),
        min_size=1,
        max_size=8,
    ),
    extremum,
    extremum,
    middle,
    st.lists(edge, max_size=4),
)
def test_stored_values_match_the_references(points, low, high, mid, edges):
    surfaces = []
    for sid, side, data in (("Smin", -1, low), ("Smax", 1, high)):
        if data is not None:
            area, genus, label, (p, q) = data
            surfaces.append(
                {
                    "id": sid,
                    "y": str(side * (21 + Fraction(p, q))),
                    "area": area,
                    "genus": genus,
                    "self_intersection": label,
                }
            )
    if mid is not None:
        (p, q), area, label = mid
        surfaces.append(
            {"id": "Smid", "y": f"{p}/{q}", "area": area, "genus": 0, "self_intersection": label}
        )
    links = []
    for i, j, ell, area in edges:
        if i == j or max(i, j) >= len(points):
            continue
        gap = abs(Fraction(points[i][0], points[i][1]) - Fraction(points[j][0], points[j][1]))
        link = {"from": f"p{i}", "to": f"p{j}", "ell": ell}
        if area == "exact" and gap:
            link["area"] = str(gap / ell)
        elif area not in (None, "exact"):
            link["area"] = area
        links.append(link)
    doc = {
        "kind": "graph",
        "isolated": [
            {"id": f"p{i}", "y": f"{p}/{q}", "weights": [m, n]}
            for i, (p, q, m, n) in enumerate(points)
        ],
        "surfaces": surfaces,
        "edges": links,
    }
    assert_matches_references(doc)


def _batch_chain_doc(n, genus, denominator, shifts):
    """``chain_doc(n, genus, edges=True)`` with every momentum divided by
    ``denominator``, each edge's area matching its gap, and the extremal
    labels written out, each shifted by the matching entry of ``shifts``
    (None leaves that label off)."""
    doc = chain_doc(n, genus, edges=True)
    for v in doc["isolated"] + doc["surfaces"]:
        v["y"] = str(Fraction(v["y"], denominator))
    for e in doc["edges"]:
        e["area"] = str(Fraction(1, denominator * e["ell"]))
    labels = extremal_self_intersections(parse_graph(doc))
    for surface, label, shift in zip(doc["surfaces"], labels, shifts):
        if shift is not None:
            surface["self_intersection"] = str(label + shift)
    return doc


_SHIFTS = st.one_of(st.none(), st.just(Fraction(0)), st.fractions(-2, 2, max_denominator=6))


@given(st.integers(0, 8), st.integers(0, 2), st.integers(1, 7), _SHIFTS, _SHIFTS)
def test_batch_chains_with_fractional_momenta_get_the_reports_of_the_reference(
    n, genus, denominator, low, high
):
    """Chains as a validation batch holds them, with fractional momenta and
    labels, right or wrong: the same report as the Fraction reference."""
    doc = _batch_chain_doc(n, genus, denominator, (low, high))
    graph = parse_graph(doc)
    assert validate_graph(graph) == reference_validate_graph(graph)
    assert_matches_references(doc)


def test_validating_fractional_momenta_and_labels_adds_no_fractions():
    """The Euler sum, the labels and the momenta are compared in integers:
    validating a graph whose momenta and labels are fractions adds no two
    Fractions, counted as calls of ``Fraction._add``."""
    doc = _batch_chain_doc(5, 1, 3, (Fraction(1, 2), Fraction(0)))
    graphs = [parse_graph(doc) for _ in range(2)]
    assert any(type(v.y) is Fraction for v in graphs[0].isolated)
    assert all(type(v.self_intersection) is Fraction for v in graphs[0].surfaces)
    adds = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "_add" and code.co_filename == fractions.__file__:
            adds.append(frame)

    sys.setprofile(count)
    try:
        reports = [validate_graph(graph) for graph in graphs]
    finally:
        sys.setprofile(None)
    assert [v.code for v in reports[0]] == ["euler-sum", "self-intersection"]
    assert adds == []
    # the count sees a Fraction sum
    sys.setprofile(count)
    try:
        sum(v.self_intersection for v in graphs[0].surfaces)
    finally:
        sys.setprofile(None)
    assert adds


# -- each derived value once per graph -----------------------------------------


def test_resolution_is_built_once():
    graph = g2(0, 2, 4)
    resolved = resolve_self_intersections(graph)
    assert resolve_self_intersections(graph) is resolved
    assert resolve_self_intersections(resolved) is resolved
    labelled = g3()
    assert resolve_self_intersections(labelled) is labelled


def test_stored_values_leave_equality_hash_and_repr_alone():
    for doc in (g1_doc(), g2_doc(1, 2, 4), g3_doc(), chain_doc(8, 1)):
        graph = parse_graph(doc)
        assert validate_graph(graph) == []
        resolved = resolve_self_intersections(graph)
        extremal_self_intersections(graph)
        graph.find(graph.component_ids()[0])
        fresh = parse_graph(doc)
        assert graph == fresh
        assert hash(graph) == hash(fresh)
        assert repr(graph) == repr(fresh)
        reparsed = parse_graph(serialize_graph(resolved))
        assert resolved == reparsed
        assert hash(resolved) == hash(reparsed)
        assert repr(resolved) == repr(reparsed)
        assert reference_momentum_span(resolved) == reference_momentum_span(reparsed)
        assert extremal_self_intersections(resolved) == extremal_self_intersections(reparsed)


def test_a_degenerate_graph_raises_on_every_call():
    doc = {
        "kind": "graph",
        "isolated": [{"id": "a", "y": 0, "weights": [1, 1]}],
        "surfaces": [{"id": "S", "y": 0, "area": 1, "genus": 0}],
        "edges": [],
    }
    graph = parse_graph(doc)
    for _ in range(3):
        with pytest.raises(DegenerateInputError):
            extremal_self_intersections(graph)
        with pytest.raises(DegenerateInputError):
            resolve_self_intersections(graph)
    assert codes(graph) == ["degenerate-momentum"]


def test_the_labels_of_a_chain_are_computed_once(monkeypatch):
    calls = []
    original = graph_module._extremal_labels
    monkeypatch.setattr(
        graph_module, "_extremal_labels", lambda g: calls.append(g) or original(g)
    )
    graph = chain(12, 1)
    validate_graph(graph)
    resolved = resolve_self_intersections(graph)
    extremal_self_intersections(graph)
    extremal_self_intersections(resolved)
    validate_graph(resolved)
    assert calls == [graph]


def reference_places(graph):
    """Each component placed by comparing its momentum with the Fractions
    :func:`reference_momentum_span` returns."""
    y_min, y_max = reference_momentum_span(graph)
    return {
        v.id: "min" if v.y == y_min else "max" if v.y == y_max else "interior"
        for v in graph.isolated + graph.surfaces
    }


def test_places_agree_with_the_momentum_span():
    graphs = list(all_graphs().values()) + [chain(12, 1)]
    for xray in (x2(1), cube(3, 0)):
        graphs += [piece.induced for piece in xray.pieces]
    rng = random.Random(15)
    for _ in range(40):
        # a chain with random, possibly tied, possibly constant momenta
        doc = chain_doc(rng.randint(0, 6), rng.randint(0, 2))
        for v in doc["isolated"] + doc["surfaces"]:
            v["y"] = f"{rng.randint(-2, 2)}/{rng.choice([1, 2, 3])}"
        graphs.append(parse_graph(doc))
    for graph in graphs:
        assert graph._places == reference_places(graph)


def test_a_repeated_id_is_reported_and_refused():
    """Two components under one id are a component-shape violation, and the
    library refuses the graph, so no reader of the ids behind the shape gate
    chooses between the two records."""
    graph = DecoratedGraph(
        (IsolatedVertex("a", Fraction(0), (1, 1)),),
        (FatVertex("a", Fraction(1), Fraction(1), 0),),
        (),
    )
    assert validate_graph(graph) == [
        Violation("component-shape", "component a: duplicate id 'a'", ("a",))
    ]
    with pytest.raises(InputError, match="^invalid graph: component-shape: component a: duplicate id 'a'$"):
        image_basis(graph, 0)


# -- identification, serialization and label errors ----------------------------


def test_the_identification_matrix_needs_two_surfaces():
    for graph in (g1(), g3()):
        with pytest.raises(
            InputError, match="^an identification needs exactly two fat vertices$"
        ):
            graph.identification_matrix()


def test_graph_to_dict_writes_an_edge_area():
    doc = mutate(g1_doc(), lambda d: d["edges"][1].update(area="3/2"))
    written = graph_to_dict(parse_graph(doc))
    assert written["edges"] == [
        {"from": "A", "to": "B", "ell": 1},
        {"from": "B", "to": "C", "ell": 1, "area": "3/2"},
    ]
    assert parse_graph(serialize_graph(parse_graph(doc))) == parse_graph(doc)


def test_a_zero_weight_has_no_weight_product():
    for weights in ((0, 1), (2, 0)):
        with pytest.raises(InputError, match="^zero weight at 'p'$"):
            weight_product(IsolatedVertex("p", 0, weights))


def test_abbv_zero_check_needs_resolved_labels():
    graph = g2(0)
    assert all(v.self_intersection is None for v in graph.surfaces)
    first = graph.surfaces[0].id
    with pytest.raises(InputError, match=f"^unresolved self_intersection at '{first}'$"):
        abbv_zero_check(graph)
    assert abbv_zero_check(resolve_self_intersections(graph))
