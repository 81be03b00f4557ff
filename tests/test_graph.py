"""Decorated graph parsing, validation and the extremal equations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equicoh import (
    DegenerateInputError,
    ParseError,
    SchemaError,
    abbv_zero_check,
    extremal_self_intersections,
    parse_graph,
    resolve_self_intersections,
    serialize_graph,
    validate_graph,
    weight_product,
)
from equicoh.graph import graph_to_dict, report_to_json

from fixtures import all_graphs, g1, g1_doc, g2, g2_doc, g3, g3_doc, mutate


def codes(graph):
    return sorted({v.code for v in validate_graph(graph)})


def test_parse_g1_shape():
    graph = g1()
    assert [v.id for v in graph.isolated] == ["A", "B", "C"]
    assert graph.surfaces == ()
    assert len(graph.edges) == 2
    assert graph.find("B").weights == (-1, 1)
    assert graph.momentum_span() == (0, 2)


def test_parse_accepts_rational_strings():
    doc = mutate(g1_doc(), lambda d: d["isolated"][1].__setitem__("y", "1/2"))
    graph = parse_graph(doc)
    assert graph.find("B").y == Fraction(1, 2)


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
