"""Circle-action invariants: series, Euler classes, localization, membership."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixtures
from equicoh import (
    ComponentClass,
    DegenerateInputError,
    EquivariantClass,
    InputError,
    InternalInconsistencyError,
    Laurent,
    MPoly,
    PoincareSeries,
    SchemaError,
    SurfaceClass,
    abbv_degree2_functional,
    betti_contribution,
    check_membership,
    check_membership_torus,
    class_from_vector,
    class_to_dict,
    class_to_vector,
    degree_slots,
    equivariant_series,
    euler_class,
    image_basis,
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
    unit_class,
)
from equicoh import s1
from equicoh.core import integrate_surface
from equicoh.graph import IsolatedVertex, resolve_self_intersections, weight_product
from equicoh.s1 import (
    _adapted_split,
    _surface_sign,
    _unit_localizations,
    character_substitution,
)
from equicoh.xray import piece_obstructions
from fixtures import all_graphs, constant_class, g1, g2, g3


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
    with pytest.raises(InputError, match="genus"):
        betti_contribution("surface", "min", -1)


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
    with pytest.raises(InputError, match="unknown series"):
        equivariant_series(g1(), "orbit")


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
    with pytest.raises(InternalInconsistencyError):
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
    with pytest.raises(InputError, match="not extremal"):
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
    alpha = point_class(g1(), {})
    alpha.components.pop("C")
    with pytest.raises(InputError, match="class addresses"):
        localize(g1(), alpha)


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


def test_unit_localizations_match_per_slot_localize():
    graphs = dict(all_graphs(), g2_uneq=g2(0, 2, 4))
    for name, graph in graphs.items():
        for degree in range(7):
            slots = degree_slots(graph, degree)
            expected = [localize(graph, unit_class(graph, degree, slot)) for slot in slots]
            assert _unit_localizations(graph, degree, slots) == expected, (name, degree)
        expected = {
            slot.label: localize(graph, unit_class(graph, 2, slot)).coefficient(-1)
            for slot in degree_slots(graph, 2)
        }
        assert abbv_degree2_functional(graph) == expected, name


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


def reference_component_localization(comp, cls, inverse):
    """One component's term: the restriction times its inverse Euler class,
    integrated over the component."""
    if isinstance(comp, IsolatedVertex):
        restriction = Laurent({k // 2: v for k, v in cls.entries.items()})
        return laurent_mul(restriction, inverse)
    product = laurent_mul(reference_surface_restriction(cls), inverse)
    return product.map_coefficients(integrate_surface)


def reference_localize(graph, alpha):
    resolved = resolve_self_intersections(graph)
    total = Laurent()
    for cid in sorted(alpha.components):
        inverse = inverse_euler(graph, cid)
        comp = resolved.find(cid)
        total = total + reference_component_localization(comp, alpha.components[cid], inverse)
    return total


def reference_localize_torus(graph, rank, lam, alpha):
    """The character-substituted localization sum as Laurent products of
    SurfaceClasses of polynomials, every H^1 part substituted."""
    substitution = character_substitution(lam)
    resolved = resolve_self_intersections(graph)
    remaining = rank - 1
    total = Laurent()
    for cid in sorted(alpha.components):
        cls = alpha.components[cid]
        comp = resolved.find(cid)
        if isinstance(comp, IsolatedVertex):
            restriction = Laurent()
            for value in cls.entries.values():
                restriction = restriction + Laurent(_adapted_split(value, substitution))
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

        for entry in cls.entries.values():
            for d, q in _adapted_split(entry.c0, substitution).items():
                add(d, SurfaceClass(g, c0=q, c1=zeros, c2=zero))
            for i, x in enumerate(entry.c1):
                for d, q in _adapted_split(x, substitution).items():
                    c1 = tuple(q if j == i else zero for j in range(2 * g))
                    add(d, SurfaceClass(g, c0=zero, c1=c1, c2=zero))
            for d, q in _adapted_split(entry.c2, substitution).items():
                add(d, SurfaceClass(g, c0=zero, c1=zeros, c2=q))
        sign = _surface_sign(comp, resolved)
        inverse = Laurent(
            {
                -1: SurfaceClass(g, c0=MPoly.constant(remaining, sign), c1=zeros, c2=zero),
                -2: SurfaceClass(
                    g, c0=zero, c1=zeros, c2=MPoly.constant(remaining, -comp.self_intersection)
                ),
            }
        )
        product = laurent_mul(Laurent(acc), inverse)
        total = total + product.map_coefficients(integrate_surface)
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
        expected = [
            reference_localize(graph, unit_class(graph, degree, slot)) for slot in slots
        ]
        assert _unit_localizations(graph, degree, slots) == expected, degree


@pytest.mark.parametrize("name", sorted(LOCALIZATION_GRAPHS))
def test_closed_form_localize_torus_matches_the_laurent_product(name):
    graph = LOCALIZATION_GRAPHS[name]
    rng = random.Random(name)
    for lam in [(1,), (-1,), (1, 0), (0, 1), (2, -1), (1, 2, 3)]:
        rank = len(lam)
        for _ in range(6):
            alpha = fixtures.random_torus_class(_torus_components(graph), rank, rng)
            expected = reference_localize_torus(graph, rank, lam, alpha)
            assert localize_torus(graph, rank, lam, alpha) == expected, lam
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
def test_closed_form_piece_localizations_match_the_laurent_product(name, monkeypatch):
    xray = LOCALIZATION_XRAYS[name]()
    rng = random.Random(name)
    components = [(c.id, c.kind, c.genus) for c in xray.components]
    classes = [fixtures.random_torus_class(components, xray.rank, rng) for _ in range(3)]
    for piece in xray.pieces:
        if piece.dim == 2:
            continue
        substitution = character_substitution(piece.lam)
        resolved = resolve_self_intersections(piece.induced)
        for alpha in classes:
            restricted = alpha.restricted(piece.members)
            expected = reference_localize_torus(piece.induced, xray.rank, piece.lam, restricted)
            assert localize_torus(piece.induced, xray.rank, piece.lam, restricted) == expected
            assert localize_torus(
                piece.induced, xray.rank, piece.lam, restricted,
                substitution=substitution, resolved=resolved,
            ) == expected
    # Every piece's obstructions, 2-dimensional ones included, come out the
    # same with the reference in place of localize_torus.
    ours = [[piece_obstructions(xray, p, alpha) for p in xray.pieces] for alpha in classes]
    monkeypatch.setattr(
        s1, "localize_torus",
        lambda graph, rank, lam, alpha, **_: reference_localize_torus(graph, rank, lam, alpha),
    )
    theirs = [[piece_obstructions(xray, p, alpha) for p in xray.pieces] for alpha in classes]
    assert ours == theirs


def test_localize_torus_checks_the_character_length():
    graph = g2(1)
    alpha = fixtures.random_torus_class(_torus_components(graph), 2, random.Random(0))
    with pytest.raises(InputError, match="character must have 2 entries"):
        localize_torus(graph, 2, (1,), alpha)


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


def test_vector_roundtrip():
    graph = g2(1)
    for degree in range(5):
        slots = degree_slots(graph, degree)
        values = [Fraction(i - 1, 2) for i in range(len(slots))]
        alpha = class_from_vector(graph, degree, values)
        assert class_to_vector(graph, degree, alpha) == values


def test_class_from_vector_checks_width():
    with pytest.raises(InputError, match="expected 3 coordinates"):
        class_from_vector(g1(), 0, [1, 2])


def test_unit_class_hits_one_slot():
    graph = g2(1)
    slots = degree_slots(graph, 1)
    for i, slot in enumerate(slots):
        vec = class_to_vector(graph, 1, unit_class(graph, 1, slot))
        assert vec == [Fraction(j == i) for j in range(len(slots))]


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


def test_module_closure_under_parameter():
    for graph in all_graphs().values():
        for k in range(7):
            basis = image_basis(graph, k + 2)
            for element in image_basis(graph, k):
                assert in_image_span(graph, k + 2, element.times_u(), basis)


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
            expected = all(in_image_span(graph, k, alpha, bases[k]) for k in range(5))
            assert check_membership(graph, alpha).member == expected


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


def test_class_to_dict_canonical_strings():
    alpha = constant_class(g1(), Fraction(1, 2))
    doc = class_to_dict(alpha, "g1")
    assert doc["components"] == {"A": {"0": "1/2"}, "B": {"0": "1/2"}, "C": {"0": "1/2"}}
