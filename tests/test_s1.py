"""Circle-action invariants: series, Euler classes, localization, membership."""

import contextlib
import dataclasses
import io
import json
import math
import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
from equicoh import (
    ComponentClass,
    DegenerateInputError,
    EquivariantClass,
    InputError,
    Laurent,
    MPoly,
    PoincareSeries,
    SchemaError,
    SurfaceClass,
    abbv_degree2_functional,
    betti_contribution,
    check_membership,
    check_membership_torus,
    check_membership_xray,
    class_from_vector,
    class_to_dict,
    class_to_vector,
    degree_slots,
    equivariant_series,
    euler_class,
    image_basis,
    image_basis_xray,
    in_image_span,
    inverse_euler,
    laurent_mul,
    localize,
    localize_torus,
    parse_class,
    parse_graph,
    poincare_fixed_set,
    poincare_manifold,
    promote_to_torus,
    relation_counts,
    torus_obstructions,
    unit_class,
    validate_graph,
)
from equicoh import s1
from equicoh.cli import main
from equicoh.core import entry_part, entry_parts, integrate_surface, part_power, record_rule
from equicoh.graph import (
    DecoratedGraph,
    FatVertex,
    GraphEdge,
    IsolatedVertex,
    Violation,
    _load_document,
    parse_rational,
    resolve_self_intersections,
    weight_product,
)
from equicoh.linalg import rref
from equicoh.mpoly import LinearSubstitution, monomials_of_degree, ratio, unimodular_completion
from equicoh.s1 import _check_ids, _check_keys_class, _degree_items, character_substitution
from equicoh.xray import (
    DEFAULT_XRAY_MAX_DEGREE,
    SkeletonPiece,
    TorusFixedComponent,
    XRay,
    parse_class_torus,
    parse_xray,
    piece_obstructions,
)
from fixtures import all_graphs, constant_class, g1, g2, g3
from test_cli import BASIS_DOCUMENTS
from test_core import reference_negative_part
from test_graph import reference_momentum_span
from test_linalg import reference_coordinates_in_span
from test_mpoly import reference_poly_from_pairs, reference_split_leading
from test_xray import BAD_COMPONENT_SHAPES as XRAY_COMPONENT_SHAPES
from test_xray import BAD_SHAPES as XRAY_PIECE_SHAPES
from test_xray import EQUIVALENCE_XRAYS
from test_xray import TWIN_DOCS
from test_xray import TWISTS as XRAY_TWISTS


def point_class(graph, values):
    """Class on an all-points graph from {id: {degree: value}}."""
    comps = {
        v.id: ComponentClass("point", 0, dict(values.get(v.id, {})), None)
        for v in graph.isolated
    }
    return EquivariantClass(comps, None)


def surface_class_pair(graph, entries_by_id):
    comps = {
        v.id: ComponentClass("surface", v.genus, dict(entries_by_id.get(v.id, {})), None)
        for v in graph.surfaces
    }
    return EquivariantClass(comps, None)


# -- local Betti contributions and Poincare series --------------------------


def test_betti_rows():
    assert betti_contribution("point", "min") == (1, 0, 0, 0, 0)
    assert betti_contribution("point", "interior") == (0, 0, 1, 0, 0)
    assert betti_contribution("point", "max") == (0, 0, 0, 0, 1)
    assert betti_contribution("surface", "min", 2) == (1, 4, 1, 0, 0)
    assert betti_contribution("surface", "max", 2) == (0, 0, 1, 4, 1)


def test_betti_rows_rejections():
    with pytest.raises(InputError, match="extrema"):
        betti_contribution("surface", "interior")
    with pytest.raises(InputError, match="unknown component"):
        betti_contribution("blob", "min")
    for genus in (1.5, True, "1", -1):
        with pytest.raises(
            InputError, match=f"^genus must be a nonnegative integer, got {genus!r}$"
        ):
            betti_contribution("surface", "min", genus)


def test_poincare_manifold_frozen():
    assert poincare_manifold(g1()) == PoincareSeries((1, 0, 1, 0, 1), 0)
    assert poincare_manifold(g2(0)) == PoincareSeries((1, 0, 2, 0, 1), 0)
    assert poincare_manifold(g2(1)) == PoincareSeries((1, 2, 2, 2, 1), 0)
    assert poincare_manifold(g2(2)) == PoincareSeries((1, 4, 2, 4, 1), 0)
    assert poincare_manifold(g3()) == PoincareSeries((1, 0, 1, 0, 1), 0)


def test_poincare_fixed_set_frozen():
    assert poincare_fixed_set(g1()) == PoincareSeries((3,), 0)
    assert poincare_fixed_set(g2(2)) == PoincareSeries((2, 8, 2), 0)
    assert poincare_fixed_set(g3()) == PoincareSeries((2, 0, 1), 0)


def test_equivariant_series_coefficients():
    series = equivariant_series(g1())
    assert [series.coefficient(k) for k in range(7)] == [1, 0, 2, 0, 3, 0, 3]
    series = equivariant_series(g2(0))
    assert [series.coefficient(k) for k in range(5)] == [1, 0, 3, 0, 4]
    series = equivariant_series(g2(1))
    assert [series.coefficient(k) for k in range(5)] == [1, 2, 3, 4, 4]
    series = equivariant_series(g2(2))
    assert [series.coefficient(k) for k in range(5)] == [1, 4, 3, 8, 4]
    series = equivariant_series(g3(), "fixed")
    assert [series.coefficient(k) for k in range(5)] == [2, 0, 3, 0, 3]


def test_equivariant_series_rejects_unknown_name():
    for which in ("orbit", "M", "fixed-set"):
        with pytest.raises(InputError, match=f"^unknown series {which!r}$"):
            equivariant_series(g1(), which)


def test_degenerate_momentum_raises():
    doc = fixtures.g2_doc(0)
    doc["surfaces"][1]["y"] = 0
    with pytest.raises(DegenerateInputError):
        poincare_manifold(parse_graph(doc))


def test_relation_counts_frozen():
    assert relation_counts(g1()) == (2, 0, 1)
    assert relation_counts(g2(3)) == (1, 6, 1)
    assert relation_counts(g3()) == (1, 0, 1)


def test_relation_counts_detects_inconsistent_decorations():
    doc = {
        "kind": "graph",
        "isolated": [{"id": "p", "y": 0, "weights": [1, 1]}],
        "surfaces": [{"id": "S", "y": 1, "area": 1, "genus": 1}],
        "edges": [],
    }
    with pytest.raises(InputError, match="^invalid graph: genus-mismatch"):
        relation_counts(parse_graph(doc))


# -- Euler classes of the normal bundles -------------------------------------


def test_euler_class_points_frozen():
    assert euler_class(g1(), "A").laurent == Laurent({2: Fraction(2)})
    assert euler_class(g1(), "B").laurent == Laurent({2: Fraction(-1)})
    assert inverse_euler(g1(), "B") == Laurent({-2: Fraction(-1)})
    assert inverse_euler(g1(), "A") == Laurent({-2: Fraction(1, 2)})


def test_euler_class_surfaces_frozen():
    graph = g2(1)
    assert euler_class(graph, "Smin").laurent == Laurent({1: SurfaceClass(1, c0=-1)})
    assert inverse_euler(graph, "Smin") == Laurent({-1: SurfaceClass(1, c0=-1)})
    graph = g3()
    assert euler_class(graph, "S").laurent == Laurent(
        {1: SurfaceClass(0, c0=1), 0: SurfaceClass(0, c2=1)}
    )
    assert inverse_euler(graph, "S") == Laurent(
        {-1: SurfaceClass(0, c0=1), -2: SurfaceClass(0, c2=-1)}
    )


def test_euler_times_inverse_is_unit_everywhere():
    for graph in all_graphs().values():
        for v in graph.isolated:
            product = laurent_mul(euler_class(graph, v.id).laurent, inverse_euler(graph, v.id))
            assert product == Laurent({0: Fraction(1)})
        for v in graph.surfaces:
            product = laurent_mul(euler_class(graph, v.id).laurent, inverse_euler(graph, v.id))
            assert product == Laurent({0: SurfaceClass(v.genus, c0=1)})


def test_euler_class_interior_surface_rejected():
    doc = fixtures.g2_doc(0)
    doc["surfaces"].append({"id": "Smid", "y": "1/2", "area": 1, "genus": 0})
    graph = parse_graph(doc)
    with pytest.raises(InputError, match="fat-not-extremal"):
        euler_class(graph, "Smid")


# -- localization -------------------------------------------------------------


def test_localize_constants_vanish():
    for graph in all_graphs().values():
        assert localize(graph, constant_class(graph, 7)) == Laurent()


def test_localize_point_class_frozen():
    alpha = point_class(g1(), {"A": {2: Fraction(1)}})
    assert localize(g1(), alpha) == Laurent({-1: Fraction(1, 2)})


def test_localize_matched_surface_volumes_vanish():
    graph = g2(0)
    alpha = surface_class_pair(
        graph,
        {"Smin": {2: SurfaceClass(0, c2=1)}, "Smax": {2: SurfaceClass(0, c2=1)}},
    )
    assert localize(graph, alpha) == Laurent()


def test_localize_checks_addressing():
    alpha = fixtures.without(constant_class(g1(), 1), "C")
    with pytest.raises(InputError, match="class addresses"):
        localize(g1(), alpha)


# Each library entry point that takes a class, with the rank of the classes
# it reads and a call on the document and a class.
CLASS_ENTRY_POINTS = {
    "check_membership": (g3, None, check_membership),
    "localize": (g3, None, localize),
    "in_image_span": (g3, None, lambda graph, alpha: in_image_span(graph, 0, alpha)),
    "check_membership_torus": (
        g3, 1, lambda graph, alpha: check_membership_torus(graph, 1, (1,), alpha)
    ),
    "torus_obstructions": (g3, 1, lambda graph, alpha: torus_obstructions(graph, 1, (1,), alpha)),
    "localize_torus": (g3, 1, lambda graph, alpha: localize_torus(graph, 1, (1,), alpha)),
    "check_membership_xray": (lambda: fixtures.x2(1), 2, check_membership_xray),
    "piece_obstructions": (
        lambda: fixtures.x2(1), 2, lambda x, alpha: piece_obstructions(x, x.pieces[0], alpha)
    ),
}


def constant_class_of_rank(document, rank):
    """The constant class 1 on ``document``, as a dict class of ``rank``."""
    if rank is None:
        return constant_class(document, 1)
    if document.rank is None:
        return promote_to_torus(constant_class(document, 1))
    return fixtures.constant_torus_class(document, 1)


@pytest.mark.parametrize("name", sorted(CLASS_ENTRY_POINTS))
def test_class_entry_points_refuse_a_foreign_id_and_a_record_of_another_rank(name):
    """Each entry point that takes a class refuses, with an InputError, a
    dict class with an ``int`` id beside the string ids (once a TypeError
    sorting the ids), and a dict class whose records are of the document's
    rank but whose own rank is another (once an AttributeError, or a class
    read as the wrong kind of values): the class refuses such a record as
    it is built."""
    make, rank, call = CLASS_ENTRY_POINTS[name]
    document = make()
    alpha = constant_class_of_rank(document, rank)
    call(document, alpha)
    one = Fraction(1) if rank is None else MPoly.constant(rank, 1)
    records = {**alpha.components, 1: ComponentClass("point", 0, {0: one}, rank)}
    with pytest.raises(InputError, match=r"^class addresses \[.*, 1\] but the "):
        call(document, EquivariantClass(records, rank))
    other = 1 if rank is None else None
    with pytest.raises(InputError, match=f"a record of rank {rank} in a class of rank {other}$"):
        call(document, EquivariantClass(dict(alpha.components), other))


def test_a_dict_class_is_addressed_in_the_documents_id_order():
    """A dict class's components are ordered as a document orders its ids,
    strings before ints, and a record of another rank is refused as the
    class is built."""
    graph = g3()
    one = ComponentClass("point", 0, {0: Fraction(2)}, None)
    alpha = EquivariantClass({**constant_class(graph, 1).components, 1: one}, None)
    assert alpha.addressed() == (("S", "surface", 0), ("p", "point", 0), (1, "point", 0))
    assert list(class_to_dict(alpha)["components"]) == ["S", "p", 1]
    assert constant_class(graph, 1).addressed() == graph._fixed_components
    xray = fixtures.x2(1)
    records = fixtures.constant_torus_class(xray, 1).components
    with pytest.raises(InputError, match="^component 'Smax_0': a record of rank 2 in a class"):
        EquivariantClass(records)


def test_degree2_functional_frozen():
    assert abbv_degree2_functional(g1()) == {
        "A.c": Fraction(1, 2),
        "B.c": Fraction(-1),
        "C.c": Fraction(1, 2),
    }
    assert abbv_degree2_functional(g2(0)) == {
        "Smax.c0": Fraction(0),
        "Smax.c2": Fraction(1),
        "Smin.c0": Fraction(0),
        "Smin.c2": Fraction(-1),
    }
    assert abbv_degree2_functional(g2(0, 2, 4)) == {
        "Smax.c0": Fraction(-2),
        "Smax.c2": Fraction(1),
        "Smin.c0": Fraction(2),
        "Smin.c2": Fraction(-1),
    }
    assert abbv_degree2_functional(g3()) == {
        "S.c0": Fraction(-1),
        "S.c2": Fraction(1),
        "p.c": Fraction(1),
    }


def pole_columns(graph, degree, slots):
    """The pole keys of each slot's column of the rows of the graph's
    degree-k constraint group, divided back by its pole denominator, as a
    Laurent element per slot."""
    (group,) = s1._groups(graph, degree)
    poles = [{} for _ in slots]
    for key, row in s1._rows([group], degree, slots).items():
        if key[0] == "pole":
            for i, c in row.items():
                poles[i][key[1]] = Fraction(c, group[3])
    return [Laurent(terms) for terms in poles]


def test_unit_localizations_match_per_slot_localize():
    graphs = dict(all_graphs(), g2_uneq=g2(0, 2, 4))
    for name, graph in graphs.items():
        for degree in range(7):
            slots = degree_slots(graph, degree)
            expected = [
                reference_negative_part(localize(graph, unit_class(graph, degree, slot)))
                for slot in slots
            ]
            assert pole_columns(graph, degree, slots) == expected, (name, degree)
        expected = {
            slot.label: localize(graph, unit_class(graph, 2, slot)).coefficient(-1)
            for slot in degree_slots(graph, 2)
        }
        assert abbv_degree2_functional(graph) == expected, name


def reference_group_columns(group, members, degree, slots):
    """Yield ``(i, column)`` for every degree-k slot on ``members``, the
    ``(id, kind, genus)`` a group constrains sorted by id, as the basis
    built its rows before it read them off the table: the column is the
    group's obstructions of the unit class at the slot, its unit terms
    (``{(p,): 1}`` for a circle action, the substituted monomial for a
    torus) routed through its part's rules, and empty where the table
    names no rule; a pole entry is its value times the group's
    denominator."""
    _, table, substitution, _ = group
    index = {}
    for i, slot in enumerate(slots):
        index.setdefault(slot.component, []).append(i)
    for cid, _, _ in members:
        for i in index.get(cid, ()):
            slot = slots[i]
            column = {}
            rules = table.get((slot.component, slot.part, slot.index))
            if rules is not None:
                if substitution is None:
                    terms = {(part_power(slot.part, degree),): 1}
                else:
                    terms = substitution._monomial(slot.exps)
                s1._route(column, rules, degree, terms)
            yield i, column


def piece_components(xray, piece):
    """The ``(id, kind, genus)`` of a piece's members, sorted by id."""
    return tuple((c.id, c.kind, c.genus) for c in map(xray.find, sorted(piece.members)))


def transposed_rows(groups, degree, slots):
    """``{tag: {i: column}}``: the rows of :func:`s1._rows` over ``groups``
    split by the tag that prefixes each key, and turned into columns."""
    columns = {group[0]: {} for group in groups}
    for key, row in s1._rows(groups, degree, slots).items():
        (tag,) = [tag for tag in columns if key[: len(tag)] == tag]
        for i, c in row.items():
            columns[tag].setdefault(i, {})[key[len(tag):]] = c
    return columns


ROW_DOCUMENTS = {
    **{name: (graph, range(7)) for name, graph in all_graphs().items()},
    **{
        name: (build(), range(DEFAULT_XRAY_MAX_DEGREE + 1))
        for name, build in [
            ("x2_1", lambda: fixtures.x2(1)),
            ("cp3", fixtures.cp3),
            ("cube3_1", lambda: fixtures.cube(3, 1)),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(ROW_DOCUMENTS))
def test_the_rows_are_the_reference_columns_and_the_unit_obstructions(name):
    """Per tag, the transpose of the rows a basis eliminates is the slot
    columns of the member walk, without its empty columns, and each
    column, its poles divided back, is the unit class's obstructions."""
    document, degrees = ROW_DOCUMENTS[name]
    for degree in degrees:
        slots = degree_slots(document, degree)
        if document.rank is None:
            groups = s1._groups(document, degree)
            members = [document._fixed_components]
        else:
            groups = list(document._groups.values())
            members = [piece_components(document, piece) for piece in document.pieces]
        columns = transposed_rows(groups, degree, slots)
        for group, on in zip(groups, members):
            expected = dict(reference_group_columns(group, on, degree, slots))
            assert columns[group[0]] == {i: c for i, c in expected.items() if c}, degree
            for i, column in expected.items():
                unit = s1._scaled_parts(
                    document, document.rank, unit_class(document, degree, slots[i])
                )
                scaled = {
                    key: Fraction(c, group[3]) if key[0] == "pole" else c
                    for key, c in column.items()
                }
                assert scaled == s1._class_obstructions(group, unit), (degree, slots[i].label)


# -- closed-form localization against the Laurent-product reference ---------


def reference_surface_restriction(cls):
    """A surface restriction as a Laurent element with SurfaceClass coefficients."""
    acc = {}

    def add(power, piece):
        acc[power] = acc[power] + piece if power in acc else piece

    g = cls.genus
    for k, entry in cls.entries.items():
        if k % 2 == 0:
            add(k // 2, SurfaceClass(g, c0=entry.c0))
            if k >= 2:
                add((k - 2) // 2, SurfaceClass(g, c2=entry.c2))
        else:
            add((k - 1) // 2, SurfaceClass(g, c1=entry.c1))
    return Laurent(acc)


def reference_map_coefficients(x, fn):
    """``x`` with ``fn`` applied to every coefficient."""
    return Laurent({k: fn(c) for k, c in x.terms.items()})


def reference_component_localization(comp, cls, inverse):
    """One component's term: the restriction times its inverse Euler class,
    integrated over the component."""
    if isinstance(comp, IsolatedVertex):
        restriction = Laurent({k // 2: v for k, v in cls.entries.items()})
        return laurent_mul(restriction, inverse)
    product = laurent_mul(reference_surface_restriction(cls), inverse)
    return reference_map_coefficients(product, integrate_surface)


def reference_localize(graph, alpha):
    resolved = resolve_self_intersections(graph)
    total = Laurent()
    for cid, kind, genus in alpha.addressed():
        inverse = inverse_euler(graph, cid)
        comp = resolved.find(cid)
        cls = ComponentClass(kind, genus, alpha.restriction(cid), alpha.rank)
        total = total + reference_component_localization(comp, cls, inverse)
    return total


def reference_surface_sign(vertex: FatVertex, graph: DecoratedGraph) -> int:
    y_min, y_max = reference_momentum_span(graph)
    if vertex.y == y_min:
        return -1
    if vertex.y == y_max:
        return 1
    raise InputError(f"surface {vertex.id!r} is not extremal")


def reference_localize_torus(graph, rank, lam, alpha):
    """The character-substituted localization sum as Laurent products of
    SurfaceClasses of polynomials, every H^1 part substituted."""
    substitution = character_substitution(lam)
    resolved = resolve_self_intersections(graph)
    remaining = rank - 1
    total = Laurent()
    for cid, _, _ in alpha.addressed():
        entries = alpha.restriction(cid)
        comp = resolved.find(cid)
        if isinstance(comp, IsolatedVertex):
            restriction = Laurent()
            for value in entries.values():
                parts = reference_split_leading(substitution(value))
                restriction = restriction + Laurent(parts)
            inverse = Laurent(
                {-2: MPoly.constant(remaining, Fraction(1, weight_product(comp)))}
            )
            total = total + restriction * inverse
            continue
        g = comp.genus
        zero = MPoly.zero(remaining)
        zeros = tuple(zero for _ in range(2 * g))
        acc = {}

        def add(power, piece):
            acc[power] = acc[power] + piece if power in acc else piece

        for entry in entries.values():
            for d, q in reference_split_leading(substitution(entry.c0)).items():
                add(d, SurfaceClass(g, c0=q, c1=zeros, c2=zero))
            for i, x in enumerate(entry.c1):
                for d, q in reference_split_leading(substitution(x)).items():
                    c1 = tuple(q if j == i else zero for j in range(2 * g))
                    add(d, SurfaceClass(g, c0=zero, c1=c1, c2=zero))
            for d, q in reference_split_leading(substitution(entry.c2)).items():
                add(d, SurfaceClass(g, c0=zero, c1=zeros, c2=q))
        sign = reference_surface_sign(comp, resolved)
        inverse = Laurent(
            {
                -1: SurfaceClass(g, c0=MPoly.constant(remaining, sign), c1=zeros, c2=zero),
                -2: SurfaceClass(
                    g, c0=zero, c1=zeros, c2=MPoly.constant(remaining, -comp.self_intersection)
                ),
            }
        )
        product = laurent_mul(Laurent(acc), inverse)
        total = total + reference_map_coefficients(product, integrate_surface)
    return total


# Surfaces with e = 0 (equal areas) and e = +-2 (unequal areas), genus 0-2.
LOCALIZATION_GRAPHS = dict(
    all_graphs(), g2_g0_uneq=g2(0, 2, 4), g2_g1_uneq=g2(1, 2, 4), g2_g2_uneq=g2(2, 1, 3)
)


def _torus_components(graph):
    return [(v.id, "point", 0) for v in graph.isolated] + [
        (v.id, "surface", v.genus) for v in graph.surfaces
    ]


@pytest.mark.parametrize("name", sorted(LOCALIZATION_GRAPHS))
def test_closed_form_localize_matches_the_laurent_product(name):
    graph = LOCALIZATION_GRAPHS[name]
    rng = random.Random(name)
    for _ in range(20):
        alpha = fixtures.random_class(graph, rng, degrees=range(7))
        assert localize(graph, alpha) == reference_localize(graph, alpha)
    for degree in range(7):
        slots = degree_slots(graph, degree)
        units = [unit_class(graph, degree, slot) for slot in slots]
        expected = [reference_localize(graph, unit) for unit in units]
        assert [localize(graph, unit) for unit in units] == expected, degree
        poles = [reference_negative_part(localization) for localization in expected]
        assert pole_columns(graph, degree, slots) == poles, degree


@pytest.mark.parametrize("name", sorted(LOCALIZATION_GRAPHS))
def test_closed_form_localize_torus_matches_the_laurent_product(name):
    graph = LOCALIZATION_GRAPHS[name]
    rng = random.Random(name)
    for lam in [(1,), (-1,), (1, 0), (0, 1), (2, -1), (1, 2, 3)]:
        rank = len(lam)
        for _ in range(6):
            alpha = fixtures.random_torus_class(_torus_components(graph), rank, rng)
            expected = reference_localize_torus(graph, rank, lam, alpha)
            localization = localize_torus(graph, rank, lam, alpha)
            assert localization == expected, lam
            # torus_obstructions keeps the negative part of this sum.
            poles = {
                key: c
                for key, c in torus_obstructions(graph, rank, lam, alpha).items()
                if key[0] == "pole"
            }
            assert poles == {
                ("pole", power, exps): c
                for power, q in reference_negative_part(localization).terms.items()
                for exps, c in q.terms.items()
            }, lam
    for _ in range(6):
        alpha = fixtures.random_class(graph, rng, degrees=range(7))
        promoted = promote_to_torus(alpha)
        assert localize_torus(graph, 1, (1,), promoted) == reference_localize_torus(
            graph, 1, (1,), promoted
        )


LOCALIZATION_XRAYS = {
    **{f"x2_g{genus}": (lambda genus=genus: fixtures.x2(genus)) for genus in (0, 1, 2)},
    "cp3": fixtures.cp3,
    **{
        f"cube_r{rank}_g{genus}": (lambda rank=rank, genus=genus: fixtures.cube(rank, genus))
        for rank in (2, 3)
        for genus in (0, 1, 2)
    },
}


@pytest.mark.parametrize("name", sorted(LOCALIZATION_XRAYS))
def test_closed_form_piece_localizations_match_the_laurent_product(name):
    xray = LOCALIZATION_XRAYS[name]()
    rng = random.Random(name)
    components = [(c.id, c.kind, c.genus) for c in xray.components]
    classes = [fixtures.random_torus_class(components, xray.rank, rng) for _ in range(3)]
    for piece in xray.pieces:
        for alpha in classes:
            found = piece_obstructions(xray, piece, alpha)
            poles = {key: c for key, c in found.items() if key[0] == "pole"}
            if piece.dim == 2:
                assert poles == {}, piece.id
                continue
            restricted = alpha.restricted(piece.members)
            expected = reference_localize_torus(piece.induced, xray.rank, piece.lam, restricted)
            assert localize_torus(piece.induced, xray.rank, piece.lam, restricted) == expected
            # The obstructions' pole keys are the negative part of the
            # reference sum, monomial by monomial.
            assert poles == {
                ("pole", power, exps): c
                for power, q in reference_negative_part(expected).terms.items()
                for exps, c in q.terms.items()
            }, piece.id


# -- integer routing against the Fraction oracle ------------------------------


def reference_class_obstructions(group, alpha):
    """The obstructions of ``alpha`` with each nonzero part the group's table
    names routed as it is, in Fractions: a circle-action value as the single
    term ``{(p,): value}``, a torus part through the substituted polynomial;
    each pole sum is divided back by the group's pole denominator."""
    _, table, substitution, denominator = group
    out = {}
    records = alpha.components
    for (cid, part, index), rules in table.items():
        cls = records.get(cid)
        if cls is None:
            continue
        for degree, entry in cls.entries.items():
            value = entry_part(entry, part, index)
            if not value:
                continue
            if substitution is None:
                terms = {(part_power(part, degree),): value}
            else:
                terms = substitution(value).terms
            s1._route(out, rules, degree, terms)
    return {
        key: Fraction(c, 1) / denominator if key[0] == "pole" else c
        for key, c in out.items()
        if c
    }


PRIMES = [p for p in range(2, 600) if all(p % q for q in range(2, p))]


def prime_denominator(rng):
    """A value over one of 109 primes, so that a class's common denominator
    is the product of many distinct ones."""
    return Fraction(rng.randint(-6, 6), rng.choice(PRIMES))


COEFFICIENTS = {
    "int": lambda rng: rng.randint(-6, 6),
    "fraction": fixtures.random_fraction,
    "primes": prime_denominator,
    "zero": lambda rng: 0,
}

ORACLE_XRAYS = {name: build() for name, build in LOCALIZATION_XRAYS.items()}


def graph_obstructions(graph, alpha):
    """The obstructions of a circle-action class under the graph's one group,
    with the keys :func:`torus_obstructions` gives its rank-1 promotion
    along (1,): what :func:`check_membership` reads its violations off."""
    return s1._class_obstructions(s1._graph_group(graph), s1._scaled_parts(graph, None, alpha))


def assert_equal_fractions(found, expected):
    assert found == expected
    assert all(type(c) is Fraction for c in found.values()), found


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(LOCALIZATION_GRAPHS)),
    st.sampled_from(sorted(COEFFICIENTS)),
    st.randoms(use_true_random=False),
)
def test_graph_group_obstructions_match_the_fraction_oracle(name, coefficients, rng):
    graph = LOCALIZATION_GRAPHS[name]
    value = COEFFICIENTS[coefficients]
    alpha = fixtures.random_class(graph, rng, degrees=range(7), value=value)
    expected = reference_class_obstructions(s1._graph_group(graph), alpha)
    assert_equal_fractions(graph_obstructions(graph, alpha), expected)
    assert localize(graph, alpha) == reference_localize(graph, alpha)
    for lam in [(1,), (-1,), (2, -1), (1, 2, 3)]:
        rank = len(lam)
        alpha = fixtures.random_torus_class(_torus_components(graph), rank, rng, value=value)
        expected = reference_class_obstructions(s1._graph_group(graph, rank, lam), alpha)
        assert_equal_fractions(torus_obstructions(graph, rank, lam, alpha), expected)
        localization = localize_torus(graph, rank, lam, alpha)
        assert localization == reference_localize_torus(graph, rank, lam, alpha), lam


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(ORACLE_XRAYS)),
    st.sampled_from(sorted(COEFFICIENTS)),
    st.randoms(use_true_random=False),
)
def test_piece_obstructions_match_the_fraction_oracle(name, coefficients, rng):
    xray = ORACLE_XRAYS[name]
    value = COEFFICIENTS[coefficients]
    alpha = fixtures.random_torus_class(xray._fixed_components, xray.rank, rng, value=value)
    # A basis class holds int coefficients as the nullspace gave them.
    basis = image_basis_xray(xray, rng.randrange(5))
    classes = [alpha] + ([rng.choice(basis)] if basis else [])
    for beta in classes:
        for piece in xray.pieces:
            expected = reference_class_obstructions(xray._groups[piece.id], beta)
            assert_equal_fractions(piece_obstructions(xray, piece, beta), expected)
    for piece in xray.pieces:
        if piece.dim == 4:
            restricted = alpha.restricted(piece.members)
            localization = localize_torus(piece.induced, xray.rank, piece.lam, restricted)
            expected = reference_localize_torus(piece.induced, xray.rank, piece.lam, restricted)
            assert localization == expected, piece.id


# -- each class term routed on its own, against the merged walk ---------------


def reference_class_terms(table, parts, substitution):
    """The class walk that merges each part's image first: every scaled
    part (:func:`s1._scaled_parts`) the table names, in every degree, as
    ``(rules, degree, terms)``, a torus part's terms merged under the
    substitution with its zero sums dropped, a circle-action value the
    single term ``{(p,): value}``."""
    for key, rules in table.items():
        for degree, value in parts.get(key, ()):
            if substitution is None:
                yield rules, degree, {(part_power(key[1], degree),): value}
            else:
                yield rules, degree, substitution(MPoly._trusted(substitution.nvars, value)).terms


def reference_walk_obstructions(group, scaled):
    """:func:`s1._class_obstructions` over :func:`reference_class_terms`."""
    _, table, substitution, denominator = group
    d, parts = scaled
    out = {}
    for rules, degree, terms in reference_class_terms(table, parts, substitution):
        s1._route(out, rules, degree, terms)
    poles = d * denominator
    return {key: Fraction(c, poles if key[0] == "pole" else d) for key, c in out.items() if c}


def reference_walk_localization(group, scaled):
    """:func:`s1._localization_sum` over :func:`reference_class_terms`."""
    _, table, substitution, denominator = group
    d, parts = scaled
    d *= denominator
    total = {}
    for (_, poles), _, terms in reference_class_terms(table, parts, substitution):
        for exps, c in terms.items():
            for shift, n in poles:
                coeff = total.setdefault(exps[0] + shift, {})
                coeff[exps[1:]] = coeff.get(exps[1:], 0) + n * c
    if substitution is None:
        return Laurent({power: Fraction(coeff[()], d) for power, coeff in total.items()})
    return Laurent({
        power: MPoly(substitution.nout - 1, {e: Fraction(c, d) for e, c in coeff.items()})
        for power, coeff in total.items()
    })


# cp3 and the twisted cubes: along a skew character a monomial's image has
# several terms, and the images of one part's terms meet and may cancel.
WALK_XRAYS = {
    "cp3": fixtures.cp3(),
    **{
        f"twisted_r{rank}_g{genus}_{i}": parse_xray(
            fixtures.twisted(fixtures.cube_doc(rank, genus), matrix)
        )
        for rank, matrices in XRAY_TWISTS.items()
        for i, matrix in enumerate(matrices)
        for genus in (0, 1)
    },
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(WALK_XRAYS)),
    st.sampled_from(sorted(COEFFICIENTS)),
    st.randoms(use_true_random=False),
)
def test_each_routed_term_gives_the_obstructions_of_the_merged_walk(name, coefficients, rng):
    """Routing each term of a class through its monomial's image, times its
    coefficient, gives every piece the obstructions of the walk that merged
    each part's image first, with no zero reported, and every induced
    graph the same localization along the piece's character."""
    xray = WALK_XRAYS[name]
    alpha = fixtures.random_torus_class(
        xray._fixed_components, xray.rank, rng, value=COEFFICIENTS[coefficients]
    )
    basis = image_basis_xray(xray, rng.randrange(5))
    for beta in [alpha] + ([rng.choice(basis)] if basis else []):
        scaled = s1._scaled_parts(xray, xray.rank, beta)
        for group in xray._groups.values():
            found = s1._class_obstructions(group, scaled)
            assert found == reference_walk_obstructions(group, scaled)
            assert all(found.values()), found
    for piece in xray.pieces:
        if piece.dim == 4:
            restricted = alpha.restricted(piece.members)
            group = s1._graph_group(piece.induced, xray.rank, piece.lam)
            expected = reference_walk_localization(
                group, s1._scaled_parts(piece.induced, xray.rank, restricted)
            )
            assert localize_torus(piece.induced, xray.rank, piece.lam, restricted) == expected


def test_terms_that_cancel_where_they_are_routed_report_no_obstruction():
    """On the cube twisted by ((1, 1), (0, 1)), the piece E1 reads x0 + x1
    at S00 as v0: the images of x0 and x1 meet at v1 and cancel there, so
    the unmerged route holds a zero at that key, and no obstruction is
    reported for it."""
    xray = WALK_XRAYS["twisted_r2_g0_0"]
    records = {
        cid: ComponentClass(kind, genus, {}, 2) for cid, kind, genus in xray._fixed_components
    }
    part = MPoly(2, {(1, 0): 1, (0, 1): 1})
    records["S00"] = ComponentClass("surface", 0, {2: SurfaceClass(0, c0=part)}, 2)
    scaled = s1._scaled_parts(xray, 2, EquivariantClass(records, 2))
    group = xray._groups["E1_S00_S01"]
    routed = {}
    for rules, degree, image, c in s1._class_terms(group[1], scaled[1], group[2]):
        s1._route(routed, rules, degree, image, c)
    key = ("div", ("S00", "S01"), ("h0",), 2, (0, 1))
    assert routed[key] == 0
    found = s1._class_obstructions(group, scaled)
    assert key not in found
    assert found == reference_walk_obstructions(group, scaled)


# -- routing reads only the image terms below the character's square -------


def reference_full_groups(xray):
    """The x-ray's groups, each with a substitution along its piece's
    character that keeps every term of a monomial's image."""
    characters = {piece.id: piece.lam for piece in xray.pieces}
    return [
        (tag, table, LinearSubstitution(unimodular_completion(characters[tag[0]])), denominator)
        for tag, table, _, denominator in xray._groups.values()
    ]


def ordered(found):
    """The items of a dict, and of the dicts it holds, as lists: two are
    equal only with equal keys, values and key order."""
    return [(key, ordered(v) if isinstance(v, dict) else v) for key, v in found.items()]


# cp3 and cubes moved along skew characters, where an image has terms of
# every power of the character, and the rank-1 twins, whose surfaces' H^2
# parts read the first power.
TRUNCATION_TWISTS = {
    **XRAY_TWISTS,
    4: [((1, 0, 0, 0), (2, 1, 0, 0), (3, 4, 1, 0), (1, 2, 3, 1))],
}
TRUNCATION_XRAYS = {
    "cp3": fixtures.cp3(),
    **{
        f"twisted_r{rank}_g{genus}_{i}": parse_xray(
            fixtures.twisted(fixtures.cube_doc(rank, genus), matrix)
        )
        for rank, matrices in TRUNCATION_TWISTS.items()
        for i, matrix in enumerate(matrices)
        for genus in (0, 1, 2)
    },
    **{f"twin_{name}": parse_xray(fixtures.as_xray(doc)) for name, doc in TWIN_DOCS.items()},
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(TRUNCATION_XRAYS)),
    st.integers(0, 8),
    st.sampled_from(sorted(COEFFICIENTS)),
    st.randoms(use_true_random=False),
)
def test_the_kept_images_route_as_the_full_ones(name, degree, coefficients, rng):
    """Over groups whose substitutions keep every image term, a basis's
    rows and a class's obstructions are those of the x-ray's groups, key
    for key, value for value and in the same order, for a random class and
    for a basis class, whose terms all cancel where they are routed."""
    xray = TRUNCATION_XRAYS[name]
    groups, reference = list(xray._groups.values()), reference_full_groups(xray)
    slots = degree_slots(xray, degree)
    assert ordered(s1._rows(groups, degree, slots)) == ordered(s1._rows(reference, degree, slots))
    alpha = fixtures.random_torus_class(
        xray._fixed_components, xray.rank, rng, range(9), COEFFICIENTS[coefficients]
    )
    basis = image_basis_xray(xray, degree)
    for beta in [alpha] + ([rng.choice(basis)] if basis else []):
        scaled = s1._scaled_parts(xray, xray.rank, beta)
        for group, full in zip(groups, reference):
            found = s1._class_obstructions(group, scaled)
            assert ordered(found) == ordered(s1._class_obstructions(full, scaled))


def test_no_kept_image_holds_a_term_at_the_characters_square():
    """After a basis and a membership check, every group's substitution
    holds images of first exponent 0 and 1 only: the terms that meet a
    division (power 0) or a pole (powers 0 and 1, shifted by -2 or -1)."""
    rng = random.Random(0)
    for name, xray in TRUNCATION_XRAYS.items():
        for degree in range(5):
            image_basis_xray(xray, degree)
        alpha = fixtures.random_torus_class(xray._fixed_components, xray.rank, rng, range(9))
        check_membership_xray(xray, alpha)
        powers = {
            exps[0]
            for _, _, substitution, _ in xray._groups.values()
            for image in substitution._monomials.values()
            for exps in image
        }
        assert powers == {0, 1}, name


def test_localize_torus_checks_the_character_length():
    graph = g2(1)
    alpha = fixtures.random_torus_class(_torus_components(graph), 2, random.Random(0))
    with pytest.raises(InputError, match="character must have 2 entries"):
        localize_torus(graph, 2, (1,), alpha)
    partial = alpha.restricted(["Smin"])
    with pytest.raises(InputError, match=r"^class addresses \['Smin'\] but the graph has"):
        localize_torus(graph, 2, (1, 0), partial)
    wrong_rank = "^component 'Smax': expected a genus-1 surface entry of rank 1$"
    with pytest.raises(InputError, match=wrong_rank):
        localize_torus(graph, 1, (1,), alpha)


@pytest.mark.parametrize("lam", [(1.0,), (True,)], ids=repr)
def test_torus_entry_points_refuse_a_non_integer_character(lam):
    """The character is read exactly: ``(1.0,)`` is not the character (1,)."""
    graph = g1()
    alpha = promote_to_torus(constant_class(graph, 1))
    for entry_point in (localize_torus, torus_obstructions, check_membership_torus):
        with pytest.raises(InputError, match="must have integer entries"):
            entry_point(graph, 1, lam, alpha)


@pytest.mark.parametrize("entry_point", [localize_torus, torus_obstructions])
def test_torus_entry_points_check_character_then_graph_then_addressing(entry_point):
    """With every fault present, the character's length is reported first,
    then the invalid graph, then the class's addressing."""
    invalid = genus_mismatched_graph()
    partial = promote_to_torus(constant_class(invalid, 1)).restricted(["Smin"])
    with pytest.raises(InputError, match="^character must have 1 entries$"):
        entry_point(invalid, 1, (1, 0), partial)
    with pytest.raises(InputError, match="^invalid graph: genus-mismatch: "):
        entry_point(invalid, 1, (1,), partial)
    with pytest.raises(InputError, match=r"^class addresses \['Smin'\] but the graph has"):
        entry_point(g2(1), 1, (1,), partial)


# -- coordinates on the restriction tuple space ------------------------------


def test_degree_slots_order_and_labels():
    labels = [s.label for s in degree_slots(g2(2), 1)]
    assert labels == [
        "Smax.a1", "Smax.a2", "Smax.b1", "Smax.b2",
        "Smin.a1", "Smin.a2", "Smin.b1", "Smin.b2",
    ]
    labels = [s.label for s in degree_slots(g3(), 2)]
    assert labels == ["S.c0", "S.c2", "p.c"]
    assert degree_slots(g3(), 0) == degree_slots(g3(), 4)[:1] + degree_slots(g3(), 4)[2:]
    assert degree_slots(g1(), 1) == []


@dataclasses.dataclass(frozen=True)
class ReferenceSlot:
    """A slot as a frozen dataclass with its label built in, as
    ``s1.Slot`` was before it became a tuple."""

    component: str
    part: str
    index: int = 0
    label: str = ""
    exps: tuple[int, ...] = ()


def reference_degree_slots(document, degree: int) -> list[ReferenceSlot]:
    """The slots as :func:`degree_slots` built them before it built tuples:
    a dataclass and a label f-string per slot, the monomials listed again
    for every part."""
    if degree < 0:
        return []
    rank = document.rank
    slots: list[ReferenceSlot] = []
    for cid, kind, genus in document._fixed_components:
        for part, index, name in entry_parts(kind, genus, degree):
            if rank is None:
                slots.append(ReferenceSlot(cid, part, index, f"{cid}.{name}"))
                continue
            for exps in monomials_of_degree(rank, part_power(part, degree)):
                label = f"{cid}.{name}[{','.join(str(e) for e in exps)}]"
                slots.append(ReferenceSlot(cid, part, index, label, exps))
    return slots


@pytest.mark.parametrize("name", sorted(BASIS_DOCUMENTS))
def test_degree_slots_match_the_dataclass_reference(name):
    """Field by field, labels read off the tuples included, on every basis
    document at degrees 0-8."""
    doc = BASIS_DOCUMENTS[name]
    document = (parse_xray if doc["kind"] == "xray" else parse_graph)(doc)
    for degree in range(9):
        slots = degree_slots(document, degree)
        expected = reference_degree_slots(document, degree)
        assert len(slots) == len(expected)
        for slot, ref in zip(slots, expected):
            assert type(slot) is s1.Slot
            assert (slot.component, slot.part, slot.index, slot.exps, slot.label) == (
                ref.component, ref.part, ref.index, ref.exps, ref.label
            )


def test_a_negative_degree_has_no_slots():
    graphs = list(all_graphs().values()) + [fixtures.chain(3, 1)]
    xrays = [fixtures.x2(1), fixtures.cp3(), fixtures.cube(3, 1)]
    for document in graphs + xrays:
        for degree in (-1, -2):
            assert degree_slots(document, degree) == []
    assert class_to_vector(g2(1), -2, constant_class(g2(1), 1)) == []
    xray = fixtures.x2(1)
    assert class_to_vector(xray, -2, fixtures.constant_torus_class(xray, 1)) == []


# The layout of a degree-k entry, written out: a point carries u^{k/2}; a
# genus-g surface carries its H^0, H^1 and H^2 parts in u^{k/2}, u^{(k-1)/2}
# and u^{(k-2)/2}, so each part lives in the degrees where that is a power.
LAYOUT_COMPONENTS = [("point", 0)] + [("surface", genus) for genus in range(4)]


def expected_layout(kind, genus, degree):
    """``(part, index, power)`` of each part a degree-k entry holds."""
    if kind == "point":
        return [] if degree % 2 else [("c", 0, degree // 2)]
    if degree % 2:
        return [("c1", i, (degree - 1) // 2) for i in range(2 * genus)]
    if degree < 2:
        return [("c0", 0, degree // 2)]
    return [("c0", 0, degree // 2), ("c2", 0, (degree - 2) // 2)]


def layout_entry(kind, genus, rank, part, index, value):
    """An entry with ``value`` in one part and, in every other, a fresh zero
    of the domain (a Fraction, or a polynomial in ``rank`` variables)."""
    def at(p, i=0):
        if (p, i) == (part, index):
            return value
        return Fraction(0) if rank is None else MPoly.zero(rank)

    if kind == "point":
        return at("c")
    return SurfaceClass(genus, at("c0"), tuple(at("c1", i) for i in range(2 * genus)), at("c2"))


def vanishing_message(kind, part, degree):
    if kind == "point":
        return "a point carries no odd-degree classes"
    if part == "c1":
        return "H^1 part must vanish in even degree"
    if degree % 2:
        return "H^0 and H^2 parts must vanish in odd degree"
    return "H^2 part needs degree at least 2"


@pytest.mark.parametrize("rank", [None, 1, 2, 3])
@pytest.mark.parametrize("kind, genus", LAYOUT_COMPONENTS)
def test_every_entry_holds_exactly_the_parts_of_its_layout(kind, genus, rank):
    """``degree_slots`` lists the layout's parts, one slot per monomial of
    the part's power for a torus; :class:`ComponentClass` keeps an entry
    with a nonzero value in a listed part, itself and not a copy, and
    refuses one in any other part."""
    document = types.SimpleNamespace(rank=rank, _fixed_components=(("X", kind, genus),))
    every_part = [("c", 0)] if kind == "point" else (
        [("c0", 0)] + [("c1", i) for i in range(2 * genus)] + [("c2", 0)]
    )

    def nonzero(power):
        return Fraction(3) if rank is None else MPoly.monomial((power,) + (0,) * (rank - 1), 3)

    for degree in range(10):
        layout = expected_layout(kind, genus, degree)
        slots = [(slot.part, slot.index, slot.exps) for slot in degree_slots(document, degree)]
        assert slots == [
            (part, index, exps)
            for part, index, power in layout
            for exps in ([()] if rank is None else monomials_of_degree(rank, power))
        ]
        for part, index, power in layout:
            value = nonzero(power)
            entry = layout_entry(kind, genus, rank, part, index, value)
            kept = ComponentClass(kind, genus, {degree: entry}, rank).entries[degree]
            assert kept is entry
            assert entry_part(kept, part, index) is value
        listed = [(part, index) for part, index, _ in layout]
        for part, index in every_part:
            if (part, index) in listed:
                continue
            entry = layout_entry(kind, genus, rank, part, index, nonzero(0))
            message = f"^degree {degree}: {re.escape(vanishing_message(kind, part, degree))}$"
            with pytest.raises(InputError, match=message):
                ComponentClass(kind, genus, {degree: entry}, rank)


def test_vector_roundtrip():
    for graph in all_graphs().values():
        for degree in range(7):
            slots = degree_slots(graph, degree)
            values = [Fraction(i - 1, 2) for i in range(len(slots))]
            alpha = class_from_vector(graph, degree, values)
            assert class_to_vector(graph, degree, alpha) == values


def test_class_from_vector_checks_width():
    with pytest.raises(InputError, match="expected 3 coordinates"):
        class_from_vector(g1(), 0, [1, 2])


def test_unit_class_hits_one_slot():
    for graph in all_graphs().values():
        for degree in range(7):
            slots = degree_slots(graph, degree)
            for i, slot in enumerate(slots):
                vec = class_to_vector(graph, degree, unit_class(graph, degree, slot))
                assert vec == [Fraction(j == i) for j in range(len(slots))]


@pytest.mark.parametrize("value", [0.1, True, "1/3"], ids=repr)
def test_class_from_vector_accepts_only_exact_coordinates(value):
    """A float, a bool or a string is refused, not read as some Fraction."""
    with pytest.raises(InputError, match=r"^coordinates must be ints or Fractions, got "):
        class_from_vector(g1(), 0, [value] * 3)
    assert class_to_vector(g1(), 0, class_from_vector(g1(), 0, [1, Fraction(1, 3), 0])) == [
        1, Fraction(1, 3), 0
    ]


def test_unit_class_refuses_a_slot_of_another_document():
    slot = degree_slots(g3(), 0)[0]
    with pytest.raises(InputError, match=r"^slot 'S\.c0' is not on a component of this document$"):
        unit_class(g1(), 0, slot)


def test_a_class_is_built_only_on_the_slots_of_one_int_degree():
    """Library classes are built without a second check of their records,
    so a slot of another degree and a degree that is not an int are
    refused where they come in."""
    graph = g2(1)
    odd = degree_slots(graph, 1)[0]
    with pytest.raises(InputError, match=r"^slot 'Smax\.a1' is not a degree-2 slot of this document$"):
        unit_class(graph, 2, odd)
    xray = fixtures.x2(1)
    low = degree_slots(xray, 2)[0]
    with pytest.raises(InputError, match=r" is not a degree-4 slot of this document$"):
        unit_class(xray, 4, low)
    for degree in (2.0, True):
        with pytest.raises(InputError, match=r"^degree must be an integer, got "):
            unit_class(graph, degree, degree_slots(graph, 2)[0])
        with pytest.raises(InputError, match=r"^degree must be an integer, got "):
            class_from_vector(graph, degree, [1] * len(degree_slots(graph, 2)))
        with pytest.raises(InputError, match=r"^degree must be an integer, got "):
            image_basis(graph, degree)
    assert unit_class(xray, 2, low) == class_from_vector(
        xray, 2, [int(s == low) for s in degree_slots(xray, 2)]
    )


@pytest.mark.parametrize("degree", [2.0, True, "2", -0.5])
@pytest.mark.parametrize(
    "document", [lambda: g2(1), lambda: fixtures.cube(2, 1)], ids=["g2", "cube_2_1"]
)
def test_the_slot_space_is_listed_only_in_an_int_degree(document, degree):
    """``degree_slots`` and ``class_to_vector`` refuse a degree that is not
    an int, where they once listed the slots of the int it equals (2.0,
    True), listed none (-0.5) or raised TypeError ("2", and 2.0 on an
    x-ray)."""
    document = document()
    alpha = class_from_vector(document, 2, [1] * len(degree_slots(document, 2)))
    refused = rf"^degree must be an integer, got {re.escape(repr(degree))}$"
    with pytest.raises(InputError, match=refused):
        degree_slots(document, degree)
    with pytest.raises(InputError, match=r"^degree must be an integer, got "):
        class_to_vector(document, degree, alpha)


def _mutable_parts(cls: ComponentClass) -> list:
    """The record, its entries dict, each SurfaceClass or MPoly entry and the
    terms dict of every polynomial part: what a caller could change."""
    found = [cls, cls.entries]
    for entry in cls.entries.values():
        parts = (entry.c0, *entry.c1, entry.c2) if isinstance(entry, SurfaceClass) else (entry,)
        if isinstance(entry, (SurfaceClass, MPoly)):
            found.append(entry)
        found += [p.terms for p in parts if isinstance(p, MPoly)]
    return found


@settings(max_examples=80, deadline=None)
@given(fixtures.basis_document_keys, st.integers(0, 6))
@example(("cp3", 0, 0), 4)
def test_every_basis_record_is_the_checked_record_of_its_fields(key, degree):
    """A basis builds its records without the constructor's check; each one
    equals the record the checked constructor builds from the same fields,
    which keeps every entry as it is (all its parts are in their domain),
    and no two classes of a basis share a mutable part."""
    document = fixtures.basis_document(*key)
    basis = (image_basis if document.rank is None else image_basis_xray)(document, degree)
    owner = {}
    for n, b in enumerate(basis):
        for cls in b.components.values():
            checked = ComponentClass(cls.kind, cls.genus, dict(cls.entries), cls.rank)
            assert type(cls) is ComponentClass and cls == checked
            assert all(checked.entries[k] is entry for k, entry in cls.entries.items())
            assert cls.entries and sorted(cls.entries) == [degree]
            for part in _mutable_parts(cls):
                assert owner.setdefault(id(part), n) == n


def test_library_classes_hold_only_their_nonzero_components():
    """A basis class has a record for each component its vector touches and
    carries the graph's own component tuple; everything else reads as zero,
    and the class still addresses, serializes and compares as the dense one."""
    graph = g2(1)
    for element in image_basis(graph, 2):
        touched = {
            s.component for s, x in zip(degree_slots(graph, 2), class_to_vector(graph, 2, element))
            if x
        }
        assert set(element.components) == touched
        assert element.fixed_components is graph._fixed_components
        assert check_membership(graph, element).member
        parsed = parse_class(class_to_dict(element), graph)
        assert parsed.fixed_components is graph._fixed_components
        assert set(parsed.components) == touched
        assert parsed == element and element == parsed
    lower = unit_class(graph, 0, degree_slots(graph, 0)[0])
    assert set(lower.components) == {"Smax"}
    assert lower.restricted(["Smin"]).components == {}
    assert lower.restricted(["Smin"]).addressed() == (("Smin", "surface", 1),)
    assert lower.homogeneous(2).components == {}
    assert lower.times_u().fixed_components is graph._fixed_components
    with pytest.raises(KeyError):
        lower.restricted(["q"])
    assert lower != EquivariantClass({}, None)


@pytest.mark.parametrize(
    "ids, missing",
    [
        (["q", 1], "q"),
        ([2, 1], 1),
        ([None, 1, "a", "A"], "A"),
        ([(1,), 2.5], 2.5),
        (["p", 3, "S", "q"], "q"),
    ],
)
def test_restricted_names_the_least_missing_id_of_any_type(ids, missing):
    """KeyError names the least id the class does not address, in the
    order that sorts a document's ids (strings, then ints, then any other
    value by its type's name); ids of mixed types do not raise TypeError."""
    alpha = constant_class(g3(), 1)
    assert [cid for cid, _, _ in alpha.addressed()] == ["S", "p"]
    with pytest.raises(KeyError) as info:
        alpha.restricted(ids)
    assert info.value.args == (missing,)


ROUND_TRIP_DOCUMENTS = {
    **all_graphs(),
    "x2_1": fixtures.x2(1),
    "cp3": fixtures.cp3(),
    **{f"cube{r}_{g}": fixtures.cube(r, g) for r in (2, 3) for g in (0, 1)},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_DOCUMENTS))
def test_a_class_round_trips_through_its_document(name):
    """Random classes of degrees 0-4, homogeneous and not: each parses back
    from its document to an equal class, both address the document's
    tuple, each holds a record for exactly the components with entries
    (the same class built with an empty record for every other one drops
    them), and neither takes a record assigned or deleted."""
    document = ROUND_TRIP_DOCUMENTS[name]
    rank = document.rank
    rng = random.Random(name)
    classes = []
    for degrees in [(k,) for k in range(5)] * 2 + [range(5)] * 4:
        if rank is None:
            classes.append(fixtures.random_class(document, rng, degrees))
        else:
            classes.append(
                fixtures.random_torus_class(document._fixed_components, rank, rng, degrees)
            )
    assert any(len(alpha.components) < len(document._fixed_components) for alpha in classes)
    parse = parse_class if rank is None else parse_class_torus
    cid, record = document.component_ids()[0], ComponentClass("point", 0, {}, rank)
    for alpha in classes:
        written = class_to_dict(alpha)
        parsed = parse(written, document)
        assert parsed == alpha and alpha == parsed
        assert alpha.addressed() == parsed.addressed() == document._fixed_components
        with_entries = {cid for cid, entries in written["components"].items() if entries}
        empty = {
            cid: ComponentClass(kind, genus, {}, rank) for cid, kind, genus in alpha.addressed()
        }
        padded = EquivariantClass({**empty, **alpha.components}, rank)
        for beta in (alpha, parsed, padded):
            assert set(beta.components) == with_entries
            assert all(cls.entries for cls in beta.components.values())
            assert beta.addressed() == document._fixed_components and beta == alpha
            with pytest.raises(TypeError):
                beta.components[cid] = record
            with pytest.raises(TypeError):
                del beta.components[cid]
            assert not hasattr(beta.components, "pop")
            with pytest.raises(dataclasses.FrozenInstanceError):
                beta.components = dict(beta.components)
        assert class_to_dict(padded) == class_to_dict(parsed) == written


def test_a_class_takes_no_record_after_it_is_built():
    """A record assigned to a built class, once accepted and then read as the
    wrong kind of value by membership (an AttributeError), is refused where
    it is assigned."""
    graph = g3()
    alpha = constant_class(graph, 1)
    with pytest.raises(TypeError):
        alpha.components["p"] = ComponentClass("point", 0, {0: MPoly.constant(1, 1)}, 1)
    assert check_membership(graph, alpha).member


def test_a_record_takes_no_entry_after_it_is_built():
    """An entry written into a built record, once accepted and then read as
    the wrong kind of value by membership (an AttributeError), or a record
    emptied in place, is refused where it is written: the record is frozen
    and its entries a read-only mapping, on the checked and the basis
    paths alike."""
    graph = g3()
    alpha = constant_class(graph, 1)
    basis_record = next(iter(image_basis(graph, 2)[0].components.values()))
    for record in (alpha.components["p"], basis_record):
        with pytest.raises(TypeError):
            record.entries[0] = MPoly.constant(1, 1)
        with pytest.raises(AttributeError):
            record.entries.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.entries = {}
    assert dict(alpha.components["p"].entries) == {0: 1}
    assert check_membership(graph, alpha).member


def reference_class_from_sparse(document, degree, slots, vector):
    """The dense class: a record for every fixed component of the document,
    an empty one where ``vector`` touches none of its slots."""
    rank = document.rank
    parts = {}
    for i, value in vector.items():
        slot = slots[i]
        rec = parts.setdefault(slot.component, {})
        if rank is None:
            rec[(slot.part, slot.index)] = value
        else:
            rec.setdefault((slot.part, slot.index), {})[slot.exps] = value

    def part_value(rec, part, index=0):
        if rank is None:
            return rec.get((part, index), Fraction(0))
        return MPoly._trusted(rank, rec.get((part, index), {}))

    comps = {}
    for cid, kind, genus in document._fixed_components:
        rec = parts.get(cid)
        if rec is None:
            entries = {}
        elif kind == "point":
            entries = {degree: part_value(rec, "c")}
        else:
            c0, c2 = part_value(rec, "c0"), part_value(rec, "c2")
            c1 = tuple(part_value(rec, "c1", i) for i in range(2 * genus))
            entries = {degree: SurfaceClass(genus, c0, c1, c2)}
        comps[cid] = ComponentClass(kind, genus, entries, rank)
    return EquivariantClass(comps, rank)


SPARSE_DOCUMENTS = {
    **all_graphs(),
    **{name: make() for name, make in EQUIVALENCE_XRAYS.items()},
}

_NONZERO = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SPARSE_DOCUMENTS)), st.integers(0, 6), st.data())
def test_sparse_classes_agree_with_the_dense_reference(name, degree, data):
    document = SPARSE_DOCUMENTS[name]
    slots = degree_slots(document, degree)
    vector = {}
    if slots:
        vector = data.draw(
            st.dictionaries(st.integers(0, len(slots) - 1), _NONZERO, max_size=6), "vector"
        )
    new = s1._class_from_sparse(document, degree, slots, vector)
    reference = reference_class_from_sparse(document, degree, slots, vector)
    assert set(new.components) == {slots[i].component for i in vector}
    assert json.dumps(class_to_dict(new, name)) == json.dumps(class_to_dict(reference, name))
    expected = [vector.get(i, 0) for i in range(len(slots))]
    assert class_to_vector(document, degree, new) == expected
    assert class_to_vector(document, degree, reference) == expected
    assert new == reference and reference == new


# -- membership in the image of the restriction map --------------------------


def test_constant_is_member_everywhere():
    for graph in all_graphs().values():
        decision = check_membership(graph, constant_class(graph, 7))
        assert decision.member
        assert decision.violations == ()


def test_point_volume_class_is_not_member():
    decision = check_membership(g1(), point_class(g1(), {"A": {2: Fraction(1)}}))
    assert not decision.member
    assert {v.kind for v in decision.violations} == {"abbv-degree2", "localization-pole"}


def test_nonconstant_degree0_without_pole_is_caught():
    # Residues cancel for (1, 2, 3) on the 1/2, -1, 1/2 weights, so only the
    # constancy condition rejects it.
    alpha = class_from_vector(g1(), 0, [1, 2, 3])
    assert localize(g1(), alpha) == Laurent()
    decision = check_membership(g1(), alpha)
    assert not decision.member
    assert {v.kind for v in decision.violations} == {"degree0-constancy"}


def test_mismatched_h1_parts_are_caught():
    graph = g2(1)
    alpha = surface_class_pair(
        graph,
        {
            "Smin": {1: SurfaceClass(1, c1=(Fraction(1), Fraction(0)))},
            "Smax": {1: SurfaceClass(1, c1=(Fraction(0), Fraction(0)))},
        },
    )
    decision = check_membership(graph, alpha)
    assert not decision.member
    assert {v.kind for v in decision.violations} == {"degree1-surface-match"}


def test_degree2_functional_violation():
    decision = check_membership(g2(0), class_from_vector(g2(0), 2, [1, 0, 2, 5]))
    assert not decision.member
    kinds = {v.kind for v in decision.violations}
    assert "abbv-degree2" in kinds


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_degree2_membership_closed_form(x, y, z):
    graph = g1()
    alpha = class_from_vector(graph, 2, [Fraction(x), Fraction(y), Fraction(z)])
    assert check_membership(graph, alpha).member == (x + z == 2 * y)


# -- membership from the constraint rows against the hand-coded reference ----


def reference_check_membership(graph, alpha):
    """The hand-coded conditions plus a full localization pass for poles."""
    poles = reference_negative_part(localize(graph, alpha))
    violations = []

    degree0 = []
    for cid, _, _ in alpha.addressed():
        value = alpha.restriction(cid).get(0, Fraction(0))
        degree0.append((cid, value.c0 if isinstance(value, SurfaceClass) else value))
    if any(v != degree0[0][1] for _, v in degree0):
        rendered = ", ".join(f"{cid}: {v}" for cid, v in degree0)
        violations.append(
            s1.MembershipViolation("degree0-constancy", f"degree-0 parts differ ({rendered})")
        )

    if len(graph.surfaces) == 2:
        lower, upper = sorted(graph.surfaces, key=lambda v: v.y)
        g = lower.genus
        matrix = graph.identification_matrix()
        v_lower = alpha.restriction(lower.id).get(1, SurfaceClass(g)).c1
        v_upper = alpha.restriction(upper.id).get(1, SurfaceClass(g)).c1
        mapped = tuple(
            sum((matrix[j][i] * v_lower[i] for i in range(2 * g)), start=Fraction(0))
            for j in range(2 * g)
        )
        if any(a != b for a, b in zip(mapped, v_upper)):
            violations.append(
                s1.MembershipViolation(
                    "degree1-surface-match",
                    f"H^1 parts disagree under the identification "
                    f"({lower.id}: {list(map(Fraction, v_lower))} "
                    f"vs {upper.id}: {list(map(Fraction, v_upper))})",
                )
            )

    slots = degree_slots(graph, 2)
    functional = [localize(graph, unit_class(graph, 2, slot)).coefficient(-1) for slot in slots]
    vector = class_to_vector(graph, 2, alpha.homogeneous(2))
    total = sum((c * v for c, v in zip(functional, vector)), start=Fraction(0))
    if total != 0:
        violations.append(
            s1.MembershipViolation(
                "abbv-degree2", f"degree-2 localization relation fails with residue {total}"
            )
        )

    if poles:
        violations.append(
            s1.MembershipViolation("localization-pole", f"localization sum has poles: {poles!r}")
        )
    return s1.MembershipDecision(not violations, tuple(violations))


def _twisted_g2():
    doc = fixtures.g2_doc(1, 1, 3)
    doc["h1_identification"] = [[0, 1], [-1, 0]]
    return parse_graph(doc)


MEMBERSHIP_GRAPHS = dict(LOCALIZATION_GRAPHS, g2_g1_twisted=_twisted_g2())


def _membership_classes(graph, rng):
    """Members, random classes in degrees 0-6, and members moved off the
    image by one slot in degree 0, 1 or 2."""
    members = [fixtures.random_member(graph, rng, degrees=range(7)) for _ in range(4)]
    classes = members + [fixtures.random_class(graph, rng, degrees=range(7)) for _ in range(8)]
    for member in members:
        for degree in (0, 1, 2):
            slots = degree_slots(graph, degree)
            if not slots:
                continue
            vector = class_to_vector(graph, degree, member)
            vector[rng.randrange(len(slots))] += fixtures.random_fraction(rng) or 1
            classes.append(fixtures._merge(member, class_from_vector(graph, degree, vector)))
    return classes


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_GRAPHS))
def test_membership_rows_match_the_hand_coded_reference(name):
    graph = MEMBERSHIP_GRAPHS[name]
    rng = random.Random(name)
    classes = _membership_classes(graph, rng)
    assert any(check_membership(graph, alpha).member for alpha in classes)
    for alpha in classes:
        assert check_membership(graph, alpha).to_dict() == (
            reference_check_membership(graph, alpha).to_dict()
        )


def reference_h1_divisions(graph):
    """The H^1 divisions of the constraint table, read entry by entry off the
    dense identification matrix."""
    lower, upper = sorted(resolve_self_intersections(graph).surfaces, key=lambda v: v.y)
    divisions = {}
    for j, row in enumerate(graph.identification_matrix()):
        head = ("div", (lower.id, upper.id), ("h1", j))
        for i, m in enumerate(row):
            if m:
                divisions.setdefault((lower.id, "c1", i), []).append((head, m))
        divisions.setdefault((upper.id, "c1", j), []).append((head, -1))
    return divisions


@pytest.mark.parametrize(
    "name", sorted(n for n, g in MEMBERSHIP_GRAPHS.items() if len(g.surfaces) == 2)
)
def test_h1_divisions_match_the_dense_identification(name):
    """The table reads the identification's nonzero entries without building
    the matrix; the default identity and an explicit one give the rows the
    dense walk gives."""
    graph = MEMBERSHIP_GRAPHS[name]
    table, _ = s1._constraint_table(graph._fixed_components, graph)
    h1 = {key: divisions for key, (divisions, _) in table.items() if key[1] == "c1"}
    assert h1 == reference_h1_divisions(graph)


# -- the integer table against the Fraction-scaled one -------------------------


def reference_localization_rules(graph, comp) -> dict:
    """Each contributing part's ``(shift, scale)``, the scale an exact
    rational: ``1 / (w1 w2)`` at a point, the sign at a surface's H^2 part
    and ``-e`` at its H^0 part when e is not 0."""
    if isinstance(comp, IsolatedVertex):
        return {"c": (-2, ratio(1, weight_product(comp)))}
    sign, e = s1._extremal(graph, comp)
    rules = {"c2": (-1, sign)}
    if e:
        rules["c0"] = (-2, -e)
    return rules


def reference_constraint_table(components, graph=None) -> dict:
    """The constraint table of every degree with each pole's scale a
    rational, as it was stated before the scales were integers over one
    denominator."""
    table = {}

    def rules(cid, part, index=0):
        return table.setdefault((cid, part, index), ([], []))

    for (a, kind_a, _), (b, kind_b, _) in zip(components, components[1:]):
        head = ("div", (a, b), ("h0",))
        rules(a, "c" if kind_a == "point" else "c0")[0].append((head, 1))
        rules(b, "c" if kind_b == "point" else "c0")[0].append((head, -1))
    if graph is None:
        return table
    if len(graph.surfaces) == 2:
        lower, upper = s1._surface_pair(graph)
        for j, row in enumerate(graph._h1_rows):
            head = ("div", (lower.id, upper.id), ("h1", j))
            for i, m in row:
                rules(lower.id, "c1", i)[0].append((head, m))
            rules(upper.id, "c1", j)[0].append((head, -1))
    for v in graph.isolated + graph.surfaces:
        for part, pole in reference_localization_rules(graph, v).items():
            rules(v.id, part)[1].append(pole)
    return table


def reference_degree_rules(table, components, degree) -> dict:
    """The rules of a reference table that a circle action's degree-k part
    meets: the part is in the degree's layout, a division needs its power
    of the parameter to be 0 and a pole needs the power plus the shift to
    be negative.  A part meeting none is left out."""
    kinds = {cid: (kind, genus) for cid, kind, genus in components}
    out = {}
    for (cid, part, index), (divisions, poles) in table.items():
        if (part, index) not in [(p, i) for p, i, _ in entry_parts(*kinds[cid], degree)]:
            continue
        power = part_power(part, degree)
        kept = (
            divisions if power == 0 else [],
            [(shift, scale) for shift, scale in poles if power + shift < 0],
        )
        if kept != ([], []):
            out[(cid, part, index)] = kept
    return out


def scaled_back(table, denominator) -> dict:
    """A table with each pole's numerator divided by the denominator."""
    return {
        key: (list(divisions), [(shift, Fraction(n, denominator)) for shift, n in poles])
        for key, (divisions, poles) in table.items()
    }


TABLE_GRAPHS = dict(
    MEMBERSHIP_GRAPHS,
    chain_16_g1=fixtures.chain(16, 1),
    edged_12_g2=parse_graph(fixtures.chain_doc(12, 2, edges=True)),
)


@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
def test_pole_numerators_over_the_denominator_are_the_reference_scales(name):
    """The table of every degree, as membership and localization read it."""
    graph = TABLE_GRAPHS[name]
    components = graph._fixed_components
    reference = reference_constraint_table(components, graph)
    table, denominator = s1._constraint_table(components, graph)
    assert all(type(n) is int for _, poles in table.values() for _, n in poles)
    assert scaled_back(table, denominator) == reference
    # the one denominator is the least: the lcm of the scales' denominators
    scales = [Fraction(scale) for _, poles in reference.values() for _, scale in poles]
    assert denominator == math.lcm(*(scale.denominator for scale in scales))


@pytest.mark.parametrize("name", sorted(LOCALIZATION_XRAYS))
def test_piece_tables_are_the_reference_tables(name):
    xray = LOCALIZATION_XRAYS[name]()
    for piece in xray.pieces:
        _, table, _, denominator = xray._groups[piece.id]
        expected = reference_constraint_table(piece_components(xray, piece), piece.induced)
        assert scaled_back(table, denominator) == expected, piece.id


@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
def test_a_degree_table_is_the_reference_restricted_to_that_degree(name):
    graph = TABLE_GRAPHS[name]
    components = graph._fixed_components
    reference = reference_constraint_table(components, graph)
    for degree in range(7):
        table, denominator = s1._constraint_table(components, graph, degree)
        assert all(type(n) is int for _, poles in table.values() for _, n in poles)
        assert scaled_back(table, denominator) == reference_degree_rules(
            reference, components, degree
        ), degree
        if degree >= 3:
            assert table == {}, degree
        if degree == 1:
            assert {key[1] for key in table} <= {"c1"}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_GRAPHS))
def test_row_residues_are_the_poles_of_the_localization_sum(name):
    """The pole check that membership no longer runs: the localization rows'
    residues are exactly the negative part of the full localization sum."""
    graph = MEMBERSHIP_GRAPHS[name]
    rng = random.Random(name)
    for alpha in _membership_classes(graph, rng):
        poles = reference_negative_part(localize(graph, alpha))
        reported = [
            v.detail for v in check_membership(graph, alpha).violations
            if v.kind == "localization-pole"
        ]
        assert reported == ([f"localization sum has poles: {poles!r}"] if poles else [])


# -- image bases --------------------------------------------------------------


def test_image_basis_degree0_is_constants():
    for graph in all_graphs().values():
        basis = image_basis(graph, 0)
        assert len(basis) == 1
        width = len(degree_slots(graph, 0))
        assert class_to_vector(graph, 0, basis[0]) == [Fraction(1)] * width


def test_image_basis_degree2_frozen():
    vectors = [class_to_vector(g1(), 2, b) for b in image_basis(g1(), 2)]
    assert vectors == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]


def test_image_basis_degree1_frozen():
    graph = g2(1)
    vectors = [class_to_vector(graph, 1, b) for b in image_basis(graph, 1)]
    assert vectors == [
        [Fraction(1), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(1)],
    ]


def test_image_basis_degree_bounds():
    with pytest.raises(InputError, match="nonnegative"):
        image_basis(g1(), -1)
    with pytest.raises(InputError, match="cutoff"):
        image_basis(g1(), 13)
    assert len(image_basis(g1(), 14, max_degree=14)) == 3


@pytest.mark.parametrize("cutoff", [2.5, True, "4", None, Fraction(4)], ids=repr)
def test_image_basis_refuses_a_cutoff_that_is_not_an_int(cutoff):
    """The cutoff is read exactly, as the degree is: 2.5 once gave a basis,
    True reported "exceeds the cutoff True", and "4" or None raised a
    TypeError."""
    refused = f"^max_degree must be an integer, got {re.escape(repr(cutoff))}$"
    with pytest.raises(InputError, match=refused):
        image_basis(g3(), 2, cutoff)
    with pytest.raises(InputError, match="^max_degree must be an integer"):
        image_basis_xray(fixtures.x2(1), 2, cutoff)


def genus_mismatched_graph():
    """``g2_doc(1)`` with a genus-2 upper surface: two fixed surfaces of
    different genera bound no circle action."""
    doc = fixtures.mutate(fixtures.g2_doc(1), lambda d: d["surfaces"][-1].update(genus=2))
    return parse_graph(doc)


REFUSING_ENTRY_POINTS = {
    "image_basis": lambda g, a: image_basis(g, 1),
    "check_membership": check_membership,
    "in_image_span": lambda g, a: in_image_span(g, 0, a),
    "abbv_degree2_functional": lambda g, a: abbv_degree2_functional(g),
    "localize": localize,
    "torus_obstructions": lambda g, a: torus_obstructions(g, 1, (1,), promote_to_torus(a)),
    "localize_torus": lambda g, a: localize_torus(g, 1, (1,), promote_to_torus(a)),
    "poincare_manifold": lambda g, a: poincare_manifold(g),
    "poincare_fixed_set": lambda g, a: poincare_fixed_set(g),
    "equivariant_series": lambda g, a: equivariant_series(g),
    "relation_counts": lambda g, a: relation_counts(g),
    "euler_class": lambda g, a: euler_class(g, "Smin"),
    "inverse_euler": lambda g, a: inverse_euler(g, "Smin"),
}


@pytest.mark.parametrize("name", sorted(REFUSING_ENTRY_POINTS))
def test_compute_entry_points_refuse_an_invalid_graph(name):
    graph = genus_mismatched_graph()
    assert "genus-mismatch" in [v.code for v in validate_graph(graph)]
    with pytest.raises(InputError, match="^invalid graph: genus-mismatch: "):
        REFUSING_ENTRY_POINTS[name](graph, constant_class(graph, 1))


FLOATS = 'floats are rejected; use an integer or a "p/q" string'
BAD_COMPONENT_SHAPES = [
    pytest.param("isolated", {"id": ""}, "id must be a nonempty string", id="empty-point-id"),
    pytest.param("isolated", {"weights": (1, 1, 1)}, '"weights" must be a pair of integers',
                 id="three-weights"),
    pytest.param("isolated", {"weights": (1, 1.0)}, '"weights" must be a pair of integers',
                 id="float-weight"),
    pytest.param("isolated", {"weights": (1, True)}, '"weights" must be a pair of integers',
                 id="bool-weight"),
    pytest.param("isolated", {"weights": (0, 1)}, "weights must be nonzero", id="zero-weight"),
    pytest.param("isolated", {"y": 0.0}, FLOATS, id="float-point-y"),
    pytest.param("surfaces", {"id": ""}, "id must be a nonempty string", id="empty-surface-id"),
    pytest.param("surfaces", {"y": 1.0}, FLOATS, id="float-surface-y"),
    pytest.param("surfaces", {"area": Fraction(0)}, "area must be positive", id="zero-area"),
    pytest.param("surfaces", {"area": 0.5}, FLOATS, id="float-area"),
    pytest.param("surfaces", {"genus": -1}, '"genus" must be a nonnegative integer',
                 id="negative-genus"),
    pytest.param("surfaces", {"genus": 0.0}, '"genus" must be a nonnegative integer',
                 id="float-genus"),
    pytest.param("surfaces", {"self_intersection": 1.0}, FLOATS, id="float-label"),
]


def assert_refused_twice(graph, bad, violation):
    """Validation gives ``bad`` the one shape violation and every compute
    entry point refuses it with that; parse refuses its JSON twin (exit 2)
    with the same rule."""
    assert validate_graph(bad) == [violation]
    alpha = constant_class(graph, 1)
    refused = f"^invalid graph: {violation.code}: {re.escape(violation.message)}$"
    for entry in REFUSING_ENTRY_POINTS.values():
        with pytest.raises(InputError, match=refused):
            entry(bad, alpha)
    status, message = fixtures.parse_status(bad)
    assert status == 2
    assert message.partition(": ")[2] == violation.message.partition(": ")[2]


@pytest.mark.parametrize("field, change, rule", BAD_COMPONENT_SHAPES)
def test_a_directly_built_component_of_the_wrong_shape_is_refused(field, change, rule):
    """Validation gives a component that parse would refuse one
    component-shape violation, with parse's rule, and checks nothing else;
    every compute entry point refuses the graph with it, where it once
    raised a ValueError or an AttributeError."""
    graph = g3()
    [component] = getattr(graph, field)
    bad = dataclasses.replace(graph, **{field: (dataclasses.replace(component, **change),)})
    name = change.get("id", component.id)
    violation = Violation("component-shape", f"component {name}: {rule}", (name,))
    assert_refused_twice(graph, bad, violation)


def test_an_int_id_beside_string_ids_is_refused_and_sorts_after_them():
    """A directly built point with an ``int`` id beside string ids is
    refused with its component-shape violation by every compute entry
    point, the degree-2 functional among them, which once listed the slots
    first and raised a TypeError comparing the ids; the slot helpers sort
    the ids as an x-ray sorts its own, strings first."""
    graph = g3()
    bad = dataclasses.replace(graph, isolated=graph.isolated + (IsolatedVertex(1, 1, (1, -1)),))
    violation = Violation("component-shape", "component 1: id must be a nonempty string", (1,))
    assert_refused_twice(graph, bad, violation)
    assert bad._fixed_components == (("S", "surface", 0), ("p", "point", 0), (1, "point", 0))
    assert bad.component_ids() == ["S", "p", 1]
    assert [slot.label for slot in degree_slots(bad, 0)] == ["S.c0", "p.c", "1.c"]
    assert class_to_vector(bad, 0, class_from_vector(bad, 0, [1, 2, 3])) == [1, 2, 3]


BAD_EDGE_SHAPES = [
    pytest.param({"start": ""}, "id must be a nonempty string", id="empty-start"),
    pytest.param({"end": ""}, "id must be a nonempty string", id="empty-end"),
    pytest.param({"end": "A"}, "edge endpoints must differ", id="self-loop"),
    pytest.param({"ell": 1.5}, '"ell" must be a positive integer', id="float-ell"),
    pytest.param({"ell": (1,)}, '"ell" must be a positive integer', id="tuple-ell"),
    pytest.param({"ell": 0}, '"ell" must be a positive integer', id="zero-ell"),
    pytest.param({"ell": True}, '"ell" must be a positive integer', id="bool-ell"),
    pytest.param({"area": 0.5}, FLOATS, id="float-area"),
    pytest.param({"area": Fraction(-1)}, "area must be positive", id="negative-area"),
]


@pytest.mark.parametrize("change, rule", BAD_EDGE_SHAPES)
def test_a_directly_built_edge_of_the_wrong_shape_is_refused(change, rule):
    """Validation gives an edge that parse would refuse one edge-shape
    violation, with parse's rule, on its two endpoints; such edges once
    raised an AttributeError, validated clean or were reported as
    misleading edge-weights."""
    graph = g1()
    edge = dataclasses.replace(graph.edges[0], **change)
    bad = dataclasses.replace(graph, edges=(edge,) + graph.edges[1:])
    pair = tuple(sorted((edge.start, edge.end)))
    violation = Violation("edge-shape", f"edge {edge.start}-{edge.end}: {rule}", pair)
    assert_refused_twice(graph, bad, violation)


def test_every_record_field_has_a_row_in_the_shape_gate():
    """Each field of the five record types has a twin in the shape gate, so
    a field added later cannot skip its record's shape rule."""
    records = {"isolated": IsolatedVertex, "surfaces": FatVertex}
    rows = [(records[p.values[0]], p.values[1]) for p in BAD_COMPONENT_SHAPES]
    rows += [(GraphEdge, p.values[0]) for p in BAD_EDGE_SHAPES]
    rows += [(TorusFixedComponent, p.values[1]) for p in XRAY_COMPONENT_SHAPES]
    rows += [(SkeletonPiece, p.values[1]) for p in XRAY_PIECE_SHAPES]
    covered = {(record, field) for record, change in rows for field in change}
    missing = [
        f"{record.__name__}.{field.name}"
        for record in (IsolatedVertex, FatVertex, GraphEdge, TorusFixedComponent, SkeletonPiece)
        for field in dataclasses.fields(record)
        if (record, field.name) not in covered
    ]
    assert missing == []


def test_the_twin_of_a_parsed_document_parses_back():
    """The JSON twin the shape gate hands to parse is faithful: written from
    a parsed document, it parses to that document and validates clean."""
    for document in list(all_graphs().values()) + [fixtures.x2(1), fixtures.cp3()]:
        parse = parse_graph if document.rank is None else fixtures.parse_xray
        assert parse(fixtures.raw_document(document)) == document
        assert fixtures.parse_status(document) == (0, "")


def unlabelled_answers():
    """Each compute entry point's answers on freshly parsed graphs and
    x-rays whose extremal surfaces carry no self-intersection label."""
    rng = random.Random(15)
    answers = []
    for graph in (g2(1), fixtures.chain(4, 1)):
        alphas = [fixtures.random_class(graph, rng), fixtures.random_member(graph, rng)]
        answers += [
            [class_to_dict(b) for k in range(5) for b in image_basis(graph, k)],
            [check_membership(graph, alpha).to_dict() for alpha in alphas],
            [localize(graph, alpha) for alpha in alphas],
            [(euler_class(graph, c), inverse_euler(graph, c)) for c in graph.component_ids()],
            poincare_manifold(graph),
            abbv_degree2_functional(graph),
        ]
    for xray in (fixtures.x2(1), fixtures.cube(3, 1)):
        alphas = [
            fixtures.random_torus_class(xray._fixed_components, xray.rank, rng),
            fixtures.constant_torus_class(xray, 2),
        ]
        answers += [
            [class_to_dict(b) for k in range(5) for b in image_basis_xray(xray, k)],
            [check_membership_xray(xray, alpha).to_dict() for alpha in alphas],
        ]
    return answers


def test_the_compute_layer_reads_places_and_labels_off_the_graph(monkeypatch):
    """No entry point builds the resolved copy of a graph: with it made
    unbuildable, every answer is the one given before."""
    expected = unlabelled_answers()

    def unbuildable(graph):
        raise AssertionError("the resolved graph was built")

    monkeypatch.setattr(DecoratedGraph, "_resolved", property(unbuildable))
    assert unlabelled_answers() == expected


def test_a_degree_without_slots_refuses_an_invalid_graph_too():
    """An invalid document is refused before its degree is checked, and in
    a degree without slots too, where no constraint group is built."""
    doc = fixtures.mutate(fixtures.g1_doc(), lambda d: d["isolated"][1].update(weights=[1, 1]))
    graph = parse_graph(doc)
    assert degree_slots(graph, 1) == []
    for degree in (1, 2.0, -1, 99):
        with pytest.raises(InputError, match="^invalid graph: .*weight-signs: interior point"):
            image_basis(graph, degree)
    doc = fixtures.mutate(fixtures.cp3_doc(), lambda d: d["pieces"][0].update({"lambda": [2, 0]}))
    xray = fixtures.parse_xray(doc)
    assert degree_slots(xray, 1) == []
    for degree in (1, 2.0, -1, 99):
        with pytest.raises(InputError, match="^invalid x-ray: character-not-primitive: "):
            image_basis_xray(xray, degree)


def test_image_sizes_match_equivariant_series():
    for graph in all_graphs().values():
        series = equivariant_series(graph)
        for k in range(7):
            assert len(image_basis(graph, k)) == series.coefficient(k)


def test_basis_elements_are_members():
    for graph in all_graphs().values():
        for k in range(5):
            for element in image_basis(graph, k):
                assert check_membership(graph, element).member


def reference_in_image_span(graph, degree, alpha, basis):
    """Whether the degree-k part of alpha is a combination of ``basis``, by
    dense elimination of the basis vectors: the span test that
    ``in_image_span`` ran before it evaluated the constraint rows."""
    matrix, _ = rref([class_to_vector(graph, degree, b) for b in basis])
    vector = class_to_vector(graph, degree, alpha.homogeneous(degree))
    return reference_coordinates_in_span(matrix, vector) is not None


def test_module_closure_under_parameter():
    for graph in all_graphs().values():
        for k in range(7):
            basis = image_basis(graph, k + 2)
            for element in image_basis(graph, k):
                shifted = element.times_u()
                assert in_image_span(graph, k + 2, shifted)
                assert reference_in_image_span(graph, k + 2, shifted, basis)


def symplectic_class(graph, sign=1):
    """The equivariant symplectic class [omega + mu u] in degree 2: y u at a
    point and area [S] + y u at a surface; ``sign=-1`` negates the moment."""
    comps = {v.id: ComponentClass("point", 0, {2: sign * v.y}) for v in graph.isolated}
    for v in graph.surfaces:
        entry = SurfaceClass(v.genus, c0=sign * v.y, c2=v.area)
        comps[v.id] = ComponentClass("surface", v.genus, {2: entry})
    return EquivariantClass(comps, None)


def test_the_symplectic_class_is_in_the_degree_two_image():
    """[omega + mu u] is a member on every fixture graph and on the chains
    of 3 to 8 interior points of genus 0 to 2; with the moment negated it
    is refused on g3 and on every chain (on g1 and g2 it is a member too)."""
    chains = [fixtures.chain(n, g) for n in range(3, 9) for g in range(3)]
    for graph in [*all_graphs().values(), *chains]:
        assert check_membership(graph, symplectic_class(graph)).member
    for graph in [g3(), *chains]:
        assert not check_membership(graph, symplectic_class(graph, -1)).member


def rebuild_from_vectors(graph, vectors):
    total = constant_class(graph, 0)
    for degree, values in vectors.items():
        total = fixtures._merge(total, class_from_vector(graph, degree, values))
    return total


def test_membership_agrees_with_degreewise_span():
    for graph in all_graphs().values():
        bases = {k: image_basis(graph, k) for k in range(5)}
        rng = random.Random(7)
        for _ in range(200):
            roll = rng.random()
            if roll < 0.4:
                alpha = fixtures.random_member(graph, rng)
            elif roll < 0.7:
                alpha = fixtures.random_class(graph, rng)
            else:
                member = fixtures.random_member(graph, rng)
                vectors = {
                    k: class_to_vector(graph, k, member.homogeneous(k)) for k in range(5)
                }
                degree = rng.choice([k for k in range(5) if vectors[k]])
                vectors[degree][rng.randrange(len(vectors[degree]))] += Fraction(1)
                alpha = rebuild_from_vectors(graph, vectors)
            spans = [reference_in_image_span(graph, k, alpha, bases[k]) for k in range(5)]
            assert [in_image_span(graph, k, alpha) for k in range(5)] == spans
            assert check_membership(graph, alpha).member == all(spans)


def test_in_image_span_reads_the_graph_s_one_group(monkeypatch):
    """One degree is checked against the graph's one full table, as
    membership is, and only the class's part of that degree enters: what it
    holds in other degrees does not."""
    graph = g2(1, 2, 4)
    degrees = []
    table = s1._constraint_table
    monkeypatch.setattr(
        s1, "_constraint_table", lambda *a: degrees.append(a[2:]) or table(*a)
    )
    off_image = class_from_vector(graph, 0, [1, 2])
    for k in range(5):
        degrees.clear()
        assert in_image_span(graph, k, off_image) == (k != 0)
        assert degrees == [()], k


# -- reduction to characters of a torus ---------------------------------------


def test_promote_preserves_rank1_verdicts():
    graph = g1()
    cases = [
        constant_class(graph, 3),
        point_class(graph, {"A": {2: Fraction(1)}}),
        class_from_vector(graph, 2, [2, 1, 0]),
        class_from_vector(graph, 0, [1, 2, 3]),
    ]
    for alpha in cases:
        base = check_membership(graph, alpha).member
        torus = check_membership_torus(graph, 1, (1,), promote_to_torus(alpha)).member
        assert base == torus
        promoted = torus_obstructions(graph, 1, (1,), promote_to_torus(alpha))
        assert graph_obstructions(graph, alpha) == promoted
    for name, graph in MEMBERSHIP_GRAPHS.items():
        for alpha in _membership_classes(graph, random.Random(name)):
            promoted = torus_obstructions(graph, 1, (1,), promote_to_torus(alpha))
            assert graph_obstructions(graph, alpha) == promoted, name


def test_times_u_refuses_a_torus_class():
    torus = promote_to_torus(constant_class(g1(), 1))
    with pytest.raises(InputError, match="^times_u is defined for circle-action classes$"):
        torus.times_u()


def test_promote_rejects_polynomial_classes():
    promoted = promote_to_torus(constant_class(g1(), 1))
    with pytest.raises(InputError, match="already"):
        promote_to_torus(promoted)


def test_rank2_divisibility_violation():
    graph = g1()
    u2 = MPoly.variable(2, 1)
    comps = {
        "A": ComponentClass("point", 0, {2: u2}, 2),
        "B": ComponentClass("point", 0, {}, 2),
        "C": ComponentClass("point", 0, {}, 2),
    }
    alpha = EquivariantClass(comps, 2)
    decision = check_membership_torus(graph, 2, (1, 0), alpha)
    assert not decision.member
    assert "divisibility" in {v.kind for v in decision.violations}
    # The same data along the other coordinate direction is divisible.
    u1 = MPoly.variable(2, 0)
    comps = {
        "A": ComponentClass("point", 0, {2: u1}, 2),
        "B": ComponentClass("point", 0, {}, 2),
        "C": ComponentClass("point", 0, {}, 2),
    }
    decision = check_membership_torus(graph, 2, (1, 0), EquivariantClass(comps, 2))
    assert "divisibility" not in {v.kind for v in decision.violations}


def test_character_length_is_checked():
    alpha = promote_to_torus(constant_class(g1(), 1))
    with pytest.raises(InputError, match="character must have 1 entries"):
        check_membership_torus(g1(), 1, (1, 0), alpha)


# -- class documents ----------------------------------------------------------


def test_parse_class_roundtrip():
    graph = g2(1)
    alpha = fixtures.random_member(graph, random.Random(3))
    doc = class_to_dict(alpha, "g2")
    assert doc["kind"] == "class" and doc["graph"] == "g2"
    assert parse_class(doc, graph) == alpha


def test_parse_class_point_document():
    doc = {
        "kind": "class",
        "graph": "g1",
        "components": {"A": {"0": "7", "2": "1/2"}, "B": {"0": 7}, "C": {"0": "7"}},
    }
    alpha = parse_class(doc, g1())
    assert alpha.components["A"].entries == {0: Fraction(7), 2: Fraction(1, 2)}
    assert alpha.degrees() == [0, 2]


def test_parse_class_rejections():
    graph = g2(1)
    base = {"kind": "class", "graph": "g", "components": {}}
    with pytest.raises(InputError, match="class addresses"):
        parse_class(dict(base, components={"Smin": {}}), graph)
    bad = dict(base, components={"Smin": {"1": {"c1": ["1"]}}, "Smax": {}})
    with pytest.raises(SchemaError, match='"c1" must be a list of 2 rationals'):
        parse_class(bad, graph)
    bad = dict(base, components={"Smin": {"2": {"c3": "1"}}, "Smax": {}})
    with pytest.raises(SchemaError, match="unknown field"):
        parse_class(bad, graph)
    bad = dict(base, components={"Smin": {"x": {}}, "Smax": {}})
    with pytest.raises(SchemaError, match="not an integer"):
        parse_class(bad, graph)
    bad = dict(base, components={"Smin": {"03": {}}, "Smax": {}})
    with pytest.raises(SchemaError, match="not canonical"):
        parse_class(bad, graph)
    with pytest.raises(SchemaError, match='must be "class"'):
        parse_class({"kind": "graph", "graph": "g", "components": {}}, graph)
    with pytest.raises(SchemaError, match="unknown field"):
        parse_class(dict(base, extra=1), graph)
    with pytest.raises(SchemaError, match="missing required field 'graph'"):
        parse_class({"kind": "class", "components": {}}, graph)
    with pytest.raises(SchemaError, match='field "graph" must be a string'):
        parse_class(dict(base, graph=5), graph)


def test_class_to_dict_canonical_strings():
    alpha = constant_class(g1(), Fraction(1, 2))
    doc = class_to_dict(alpha, "g1")
    assert doc["components"] == {"A": {"0": "1/2"}, "B": {"0": "1/2"}, "C": {"0": "1/2"}}


def reference_parse_class(text, document, build=ComponentClass) -> EquivariantClass:
    """Each component's entries read, then its record built by ``build``
    from ``(kind, genus, entries, rank)``: by default the checked
    constructor, which checks every part a second time."""
    doc = _load_document(text)
    _check_keys_class(doc)
    comps_doc = doc["components"]
    if not isinstance(comps_doc, dict):
        raise SchemaError('"components" must be an object', "class")
    components = document._fixed_components
    rank = document.rank
    if rank is None:
        owner, noun, zero = "graph", "rationals", 0
    else:
        owner, noun, zero = "x-ray", "polynomials", MPoly.zero(rank)

    def scalar(value, where: str):
        if rank is None:
            return parse_rational(value, where)
        if not isinstance(value, list):
            raise SchemaError("polynomials are arrays of [exponents, coefficient] pairs", where)
        try:
            return reference_poly_from_pairs(value, rank, lambda v: parse_rational(v, where))
        except InputError as exc:
            raise SchemaError(str(exc), where) from None

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
        comps[cid] = build(kind, genus, entries, rank)
    return EquivariantClass(comps, rank)


def reference_record_check(kind, genus, entries, rank) -> ComponentClass:
    """The record of a parsed component's entries, with each part already
    read into its domain, checked as a parser may check it on its own: the
    header rule, a point entry in odd degree (even a zero one), then each
    nonzero part in slot order against the layout and, for a torus,
    homogeneity of its power; built without the constructor's check."""
    record_rule(kind, genus, rank)
    for degree, entry in entries.items():
        where = f"degree {degree}"
        listed = {part for part, _, _ in entry_parts(kind, genus, degree)}
        if kind == "point" and not listed:
            raise InputError(f"{where}: a point carries no odd-degree classes")
        if kind == "point":
            found = [("c", entry)]
        else:
            found = [("c0", entry.c0)] + [("c1", x) for x in entry.c1] + [("c2", entry.c2)]
        for part, value in found:
            if not value:
                continue
            if part == "c1" and part not in listed:
                raise InputError(f"{where}: H^1 part must vanish in even degree")
            if part not in listed and "c0" in listed:
                raise InputError(f"{where}: H^2 part needs degree at least 2")
            if part not in listed:
                raise InputError(f"{where}: H^0 and H^2 parts must vanish in odd degree")
            power = part_power(part, degree)
            if rank is not None and not value.is_homogeneous(power):
                raise InputError(f"{where}: polynomial must be homogeneous of degree {power}")
    nonzero = {degree: entry for degree, entry in entries.items() if entry}
    return ComponentClass._trusted(kind, genus, nonzero, rank)


def reference_parse_checked_apart(text, document) -> EquivariantClass:
    """The reference parse with each record checked by
    :func:`reference_record_check` instead of the constructor."""
    return reference_parse_class(text, document, reference_record_check)


def _parse_outcome(parse, doc, document):
    """``("ok", class)`` or the type and message of what ``parse`` raised."""
    try:
        return "ok", parse(doc, document)
    except (InputError, SchemaError) as exc:
        return type(exc), str(exc)


def _typed(value):
    """A value with the type of every rational spelled out, so that 2 and
    Fraction(2) differ."""
    if isinstance(value, SurfaceClass):
        return ("surface", value.genus, _typed(value.c0), [_typed(x) for x in value.c1],
                _typed(value.c2))
    if isinstance(value, MPoly):
        return ("poly", value.nvars, sorted((e, _typed(c)) for e, c in value.terms.items()))
    return (type(value).__name__, value)


def _typed_class(alpha: EquivariantClass):
    return (alpha.rank, alpha.fixed_components, {
        cid: (cls.kind, cls.genus, cls.rank, {k: _typed(e) for k, e in cls.entries.items()})
        for cid, cls in alpha.components.items()
    })


_DOC_NONZERO = [1, -2, "3", "-1/2", "6/3", "5/4"]
_DOC_RATIONALS = st.sampled_from([0, "0", "0/7"] + _DOC_NONZERO)
# what may go wrong in one entry of a drawn class document
_ENTRY_FAULTS = st.sampled_from([None] * 3 + ["unlisted", "power", "odd point"])


def _doc_value(data, rank, power, fault=False):
    """A part as a class document writes it: a rational, or the pairs of a
    polynomial of degree ``power``, where a monomial may repeat.  With
    ``fault`` it is nonzero, and a polynomial has degree ``power + 1``."""
    rationals = st.sampled_from(_DOC_NONZERO) if fault else _DOC_RATIONALS
    if rank is None:
        return data.draw(rationals)
    monomials = st.sampled_from(monomials_of_degree(rank, power + fault))
    pairs = data.draw(st.lists(st.tuples(monomials, rationals), min_size=fault, max_size=3))
    return [[list(e), c] for e, c in pairs]


def _doc_zero(data, rank):
    return data.draw(st.sampled_from([0, "0", "0/3"] if rank is None else [[]]))


def _doc_entry(data, rank, kind, genus, degree, faulty):
    """One drawn entry of a class document, or None for none; with
    ``faulty``, it may hold a nonzero part outside its layout, a part of
    the wrong degree or a point entry in odd degree."""
    fault = data.draw(_ENTRY_FAULTS) if faulty else None
    layout = {(part, index): part_power(part, degree)
              for part, index, _ in entry_parts(kind, genus, degree)}
    if kind == "point":
        if degree % 2:
            return _doc_zero(data, rank) if fault == "odd point" else None
        return _doc_value(data, rank, degree // 2, fault == "power")
    entry = {}
    c1 = []
    for part, index in [("c0", 0)] + [("c1", i) for i in range(2 * genus)] + [("c2", 0)]:
        if (part, index) in layout:
            value = _doc_value(data, rank, layout[part, index], fault == "power")
        elif fault == "unlisted" and data.draw(st.booleans()):
            value = data.draw(st.sampled_from(_DOC_NONZERO)) if rank is None else [[[0] * rank, 1]]
        else:
            value = _doc_zero(data, rank)
        if part == "c1":
            c1.append(value)
        elif (part, index) in layout or data.draw(st.booleans()):
            entry[part] = value
    if c1 and data.draw(st.booleans()):
        entry["c1"] = c1
    return entry


def _class_document(data, document):
    """A class document for a graph or an x-ray, with up to three degrees
    in 0..6, and sometimes an entry that breaks its layout."""
    faulty = data.draw(st.booleans(), "faulty")
    degrees = data.draw(st.sets(st.integers(0, 6), min_size=1, max_size=3), "degrees")
    components = {}
    for cid, kind, genus in document._fixed_components:
        entries = {}
        for degree in sorted(degrees):
            if data.draw(st.booleans()):
                entry = _doc_entry(data, document.rank, kind, genus, degree, faulty)
                if entry is not None:
                    entries[str(degree)] = entry
        components[cid] = entries
    return {"kind": "class", "graph": "g", "components": components}


@settings(max_examples=120, deadline=None)
@given(fixtures.basis_document_keys, st.data())
def test_a_parsed_class_is_the_checked_class_of_the_reference(key, data):
    """Parsing checks each record once, where it reads it, and gives the
    reference's class, every rational of the same type, or its refusal;
    each record equals the checked record of its fields, keeping every
    entry as it is."""
    document = fixtures.basis_document(*key)
    doc = _class_document(data, document)
    found = _parse_outcome(s1._parse_class, doc, document)
    expected = _parse_outcome(reference_parse_class, doc, document)
    if expected[0] != "ok":
        assert found == expected
        return
    assert found[0] == "ok"
    alpha, reference = found[1], expected[1]
    assert alpha == reference and _typed_class(alpha) == _typed_class(reference)
    for cls in alpha.components.values():
        checked = ComponentClass(cls.kind, cls.genus, dict(cls.entries), cls.rank)
        assert type(cls) is ComponentClass and cls == checked
        assert all(checked.entries[k] is entry for k, entry in cls.entries.items())


def _texts(value) -> list[str]:
    """Every text coefficient of a class document's components (exponent
    vectors hold ints only)."""
    if isinstance(value, str):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [text for item in items for text in _texts(item)]


# (document, the class's place and degree-0 entry holding "6/3")
COUNTED_DOCUMENTS = {
    "g2": (lambda: g2(1), "Smin", {"c0": "6/3"}),
    "chain": (lambda: fixtures.chain(6, 1), "p001", "6/3"),
    "cp3": (fixtures.cp3, "P0", [[[0, 0], "6/3"]]),
    "cube": (lambda: fixtures.cube(3, 1), "S000", {"c0": [[[0, 0, 0], "6/3"]]}),
}


@pytest.mark.parametrize("name", sorted(COUNTED_DOCUMENTS))
def test_a_class_document_reads_each_coefficient_text_once(name, monkeypatch):
    """Parsing a class calls ``parse_rational`` once per distinct coefficient
    text, at its first place, and gives the reference's class with every
    rational of the same type: "6/3" is still the int 2."""
    make, cid, entry = COUNTED_DOCUMENTS[name]
    document = make()
    rng = random.Random(7)

    def small(rng):
        return rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])

    if document.rank is None:
        alpha = fixtures.random_class(document, rng, degrees=range(5), value=small)
    else:
        alpha = fixtures.random_torus_class(
            document._fixed_components, document.rank, rng, degrees=range(5), value=small
        )
    doc = class_to_dict(alpha, name)
    doc["components"][cid]["0"] = entry
    texts = _texts(doc["components"])
    assert "6/3" in texts and len(texts) > 2 * len(set(texts))
    read = []

    def counting(value, where):
        read.append(value)
        return parse_rational(value, where)

    monkeypatch.setattr(s1, "parse_rational", counting)
    found = s1._parse_class(doc, document)
    monkeypatch.undo()
    assert sorted(read) == sorted(set(texts))
    expected = reference_parse_class(doc, document)
    assert found == expected and _typed_class(found) == _typed_class(expected)
    record = found.components[cid]
    value = entry_part(record.entries[0], "c" if record.kind == "point" else "c0")
    if found.rank is not None:
        value = value.terms[(0,) * found.rank]
    assert type(value) is int and value == 2


# (document, class components): a bad text at two places, the first named
REPEATED_BAD_TEXTS = {
    "graph": (lambda: g1(), {"A": {"2": "1/x"}, "B": {"0": "1", "2": "1/x"}, "C": {}},
              "components.A.2: cannot parse rational '1/x'"),
    "graph, after a good text": (
        lambda: g2(1), {"Smin": {"0": {"c0": "2"}, "2": {"c0": "2", "c2": "2/0"}},
                        "Smax": {"2": {"c2": "2/0"}}},
        "components.Smax.2: cannot parse rational '2/0'"),
    "x-ray": (lambda: fixtures.cube(2, 0),
              {"S00": {}, "S01": {"0": {"c0": [[[0, 0], "1"], [[0, 0], "-1/0"]]}},
               "S10": {"0": {"c0": [[[0, 0], "-1/0"]]}}, "S11": {}},
              "components.S01.0: cannot parse rational '-1/0'"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_BAD_TEXTS))
def test_a_bad_text_that_repeats_is_refused_where_it_is_first_read(name):
    """A text that is not a rational is refused at the first place the
    parser reads it, however often it repeats, as the reference refuses it."""
    make, components, message = REPEATED_BAD_TEXTS[name]
    document = make()
    doc = {"kind": "class", "graph": "g", "components": components}
    expected = _parse_outcome(reference_parse_class, doc, document)
    assert expected == (SchemaError, message)
    assert _parse_outcome(s1._parse_class, doc, document) == expected


@settings(max_examples=120, deadline=None)
@given(fixtures.basis_document_keys, st.data())
def test_the_record_check_answers_as_the_parse_check_reference(key, data):
    """On drawn class documents, every record the checked constructor
    builds from parsed entries is the record of the parse-only check, with
    every part of the same type, or both refuse with one exception and
    message."""
    document = fixtures.basis_document(*key)
    doc = _class_document(data, document)
    found = _parse_outcome(reference_parse_class, doc, document)
    expected = _parse_outcome(reference_parse_checked_apart, doc, document)
    if expected[0] != "ok":
        assert found == expected
        return
    assert found[0] == "ok" and _typed_class(found[1]) == _typed_class(expected[1])
    for cid, cls in found[1].components.items():
        assert cls == expected[1].components[cid]


def _surfaces(**components):
    return {"Smin": {}, "Smax": {}, **components}


def _cube(**components):
    return {"S00": {}, "S01": {}, "S10": {}, "S11": {}, **components}


# (main document, class components): refused class documents, and two that
# read as zero only once their repeated keys are added up.
FAULTY_CLASSES = {
    "odd-degree zero point": ("g1", {"A": {"1": "0"}, "B": {}, "C": {}}),
    "odd-degree empty point polynomial": ("cp3", {"P0": {"3": []}, "P1": {}, "P2": {}, "P3": {}}),
    "H^1 part in even degree": ("g2", _surfaces(Smin={"2": {"c1": ["1", "0"]}})),
    "H^2 part at degree 0": ("g2", _surfaces(Smin={"0": {"c2": "1/2"}})),
    "H^0 part in odd degree": ("g2", _surfaces(Smax={"1": {"c0": "1"}})),
    "H^2 part in odd degree": ("g2", _surfaces(Smax={"3": {"c2": 4}})),
    "H^1 before H^2 at degree 0": ("g2", _surfaces(Smin={"0": {"c2": "1", "c1": ["0", "2"]}})),
    "H^0 part of an x-ray in odd degree": ("cube", _cube(S01={"1": {"c0": [[[0, 0], "1"]]}})),
    "non-homogeneous H^0 part": ("cube", _cube(S00={"2": {"c0": [[[1, 0], 1], [[0, 0], 1]]}})),
    "non-homogeneous H^2 part": ("cube", _cube(S10={"4": {"c2": [[[2, 0], 1]]}})),
    "non-homogeneous point part": ("cp3", {"P0": {}, "P1": {"2": [[[0, 0, 0], "1"]]},
                                           "P2": {}, "P3": {}}),
    "H^1 part before a non-homogeneous H^2 part": (
        "cube", _cube(S00={"2": {"c2": [[[1, 0], 1]], "c1": [[[[0, 0], 1]], []]}})
    ),
    "repeated keys that sum to zero off the layout": (
        "cube", _cube(S00={"1": {"c0": [[[0, 0], "1/2"], [[0, 0], "-1/2"]]}})
    ),
    "repeated keys that sum to zero off the degree": (
        "cube", _cube(S11={"2": {"c0": [[[2, 0], 3], [[1, 0], 1], [[2, 0], -3]]}})
    ),
    "repeated keys that sum to a wrong degree": (
        "cube", _cube(S11={"2": {"c0": [[[2, 0], 3], [[1, 0], 1], [[2, 0], -2]]}})
    ),
    "rule fault, then a schema fault in the same component": (
        "g1", {"A": {"1": "0", "2": "x"}, "B": {}, "C": {}}
    ),
    "rule fault, then a schema fault in the same surface": (
        "g2", _surfaces(Smin={"1": {"c0": "1"}, "2": {"c3": "1"}})
    ),
    "rule fault, then a schema fault in the next component": (
        "g1", {"A": {"1": "0"}, "B": {"2": "x"}, "C": {}}
    ),
    "rule fault, then a schema fault in the next surface": (
        "g2", {"Smax": {"1": {"c0": "1"}}, "Smin": {"2": {"c3": "1"}}}
    ),
    "x-ray rule fault, then a schema fault in the next component": (
        "cube", _cube(S00={"1": {"c0": [[[0, 0], 1]]}}, S01={"0": {"c0": [[[0], 1]]}})
    ),
}

FAULTY_MAINS = {
    "g1": (fixtures.g1_doc, "check"),
    "g2": (lambda: fixtures.g2_doc(1), "check"),
    "cube": (lambda: fixtures.cube_doc(2, 1), "xray-check"),
    "cp3": (fixtures.cp3_doc, "xray-check"),
}


def _cli_answer(tmp_path, main_doc, class_doc, command, fmt):
    paths = []
    for name, doc in (("main.json", main_doc), ("class.json", class_doc)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main([command, *map(str, paths), "--format", fmt])
    return status, out.getvalue()


@pytest.mark.parametrize("name", sorted(FAULTY_CLASSES))
def test_a_faulty_class_document_gets_the_answer_of_the_reference(name, tmp_path, monkeypatch):
    """The same exception, message and command-line exit code and output as
    the reference parser, whose checked constructor reads each record after
    its entries."""
    main_name, components = FAULTY_CLASSES[name]
    make, command = FAULTY_MAINS[main_name]
    document = (parse_graph if command == "check" else fixtures.parse_xray)(make())
    doc = {"kind": "class", "graph": main_name, "components": components}
    expected = _parse_outcome(reference_parse_class, doc, document)
    assert _parse_outcome(s1._parse_class, doc, document) == expected
    assert (expected[0] == "ok") == name.startswith("repeated keys that sum to zero")
    answers = [_cli_answer(tmp_path, make(), doc, command, fmt) for fmt in ("text", "json")]
    monkeypatch.setattr(s1, "_parse_class", reference_parse_class)
    monkeypatch.setattr("equicoh.xray._parse_class", reference_parse_class)
    assert answers == [_cli_answer(tmp_path, make(), doc, command, fmt) for fmt in ("text", "json")]
    if expected[0] != "ok":
        assert answers[0][0] == (2 if expected[0] is SchemaError else 1)


@pytest.mark.parametrize("name", sorted(FAULTY_CLASSES))
def test_a_faulty_record_gets_the_answer_of_the_parse_check_reference(name):
    """Each hand-written faulty class document gets the same class, or the
    same exception and message, from the checked constructor as from the
    parse-only check."""
    main_name, components = FAULTY_CLASSES[name]
    make, command = FAULTY_MAINS[main_name]
    document = (parse_graph if command == "check" else fixtures.parse_xray)(make())
    doc = {"kind": "class", "graph": main_name, "components": components}
    found = _parse_outcome(reference_parse_class, doc, document)
    expected = _parse_outcome(reference_parse_checked_apart, doc, document)
    assert found == expected


@pytest.mark.parametrize(
    "kind, genus, rule",
    [("blob", 0, "unknown component kind 'blob'"), ("point", 1, "point components have no genus")],
)
def test_a_record_of_an_unchecked_document_is_refused_as_the_reference_does(kind, genus, rule):
    """A directly built x-ray whose component breaks the record's header
    rule gets the checked constructor's refusal once its entries are read."""
    component = TorusFixedComponent("A", kind, (0, 0), ((1, 0), (0, 1), (1, 1)), genus)
    document = XRay(2, (component,), ())
    one = [[[0, 0], 1]]
    for entries in ({}, {"0": one if kind == "point" else {"c0": one}}):
        doc = {"kind": "class", "graph": "x", "components": {"A": entries}}
        expected = _parse_outcome(reference_parse_class, doc, document)
        assert expected == (InputError, rule)
        assert _parse_outcome(s1._parse_class, doc, document) == expected
