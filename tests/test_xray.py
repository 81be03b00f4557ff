"""X-rays of complexity-one torus actions: validation, membership, bases."""

import json
import random
from fractions import Fraction

import pytest

import fixtures
from equicoh import (
    ComponentClass,
    EquivariantClass,
    InputError,
    MPoly,
    SchemaError,
    SurfaceClass,
    check_membership_xray,
    class_to_dict,
    image_basis_xray,
    parse_class_torus,
    parse_xray,
    serialize_xray,
    validate_xray,
    xray_class_from_vector,
    xray_class_to_vector,
    xray_degree_slots,
    xray_to_dict,
    xray_unit_class,
)
from equicoh.linalg import nullspace
from equicoh.xray import DEFAULT_XRAY_MAX_DEGREE, piece_obstructions
from fixtures import constant_torus_class, cp3, cube, mutate, x2


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
    return EquivariantClass(comps, alpha.rank)


# -- parsing and serialization ------------------------------------------------


def test_parse_x2_shape():
    xray = x2(1)
    assert xray.rank == 2
    assert xray.component_ids() == ["Smax_0", "Smax_1", "Smin_0", "Smin_1"]
    assert [p.id for p in xray.pieces] == ["PX0", "PX1", "PY0", "PY1"]
    assert all(p.dim == 4 and p.ell is None for p in xray.pieces)
    assert xray.find("Smin_1").kind == "surface"
    assert xray.find("Smin_1").area == 1


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
    alpha = constant_torus_class(xray, 1)
    alpha.components.pop("P3")
    with pytest.raises(InputError, match="class addresses"):
        check_membership_xray(xray, alpha)


# -- coordinates and bases ----------------------------------------------------


def test_xray_slots_frozen():
    labels = [s.label for s in xray_degree_slots(x2(1), 2)]
    assert labels[:3] == ["Smax_0.c0[1,0]", "Smax_0.c0[0,1]", "Smax_0.c2[0,0]"]
    assert len(labels) == 12
    labels = [s.label for s in xray_degree_slots(x2(1), 1)]
    assert labels[:2] == ["Smax_0.a1[0,0]", "Smax_0.b1[0,0]"]
    assert len(labels) == 8
    assert [s.label for s in xray_degree_slots(cp3(), 2)][:2] == ["P0.c[1,0]", "P0.c[0,1]"]
    assert xray_degree_slots(cp3(), 1) == []


def test_unit_class_vector_roundtrip():
    xray = x2(1)
    for degree in (0, 1, 2, 3):
        slots = xray_degree_slots(xray, degree)
        for i, slot in enumerate(slots):
            vec = xray_class_to_vector(xray, degree, xray_unit_class(xray, degree, slot))
            assert vec == [Fraction(j == i) for j in range(len(slots))]


def test_class_from_vector_roundtrip():
    xray = cp3()
    slots = xray_degree_slots(xray, 4)
    values = [Fraction(i % 5 - 2, 3) for i in range(len(slots))]
    alpha = xray_class_from_vector(xray, 4, values)
    assert xray_class_to_vector(xray, 4, alpha) == values
    with pytest.raises(InputError, match="coordinates"):
        xray_class_from_vector(xray, 4, values[:-1])


def test_image_sizes_frozen():
    xray = x2(1)
    assert [len(image_basis_xray(xray, k)) for k in range(5)] == [1, 2, 5, 8, 12]
    xray = cp3()
    sizes = [len(image_basis_xray(xray, k)) for k in range(9)]
    assert sizes == [1, 0, 3, 0, 6, 0, 10, 0, 14]


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
        ours = [xray_class_to_vector(reference, k, b) for b in image_basis_xray(reference, k)]
        theirs = [xray_class_to_vector(shuffled, k, b) for b in image_basis_xray(shuffled, k)]
        assert ours == theirs


def test_module_closure_under_both_parameters():
    for xray in (x2(1), cp3()):
        for k in range(4):
            for element in image_basis_xray(xray, k):
                for index in range(xray.rank):
                    shifted = times_variable(xray, element, index)
                    assert check_membership_xray(xray, shifted).member


def reference_image_basis_xray(xray, degree):
    """The slot-major assembly: every piece visits every unit slot class."""
    slots = xray_degree_slots(xray, degree)
    if not slots:
        return []
    per_slot = []
    for slot in slots:
        unit = xray_unit_class(xray, degree, slot)
        obstructions = {}
        for piece in xray.pieces:
            for key, value in piece_obstructions(xray, piece, unit).items():
                obstructions[(piece.id,) + key] = value
        per_slot.append(obstructions)
    keys = sorted({key for obs in per_slot for key in obs}, key=repr)
    rows = [[obs.get(key, Fraction(0)) for obs in per_slot] for key in keys]
    return [
        xray_class_from_vector(xray, degree, vec) for vec in nullspace(rows, len(slots))
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


def _class_on(xray, components, rng, degrees=range(5)):
    """A random inhomogeneous class that vanishes off the given components."""
    comps = {c.id: ComponentClass(c.kind, c.genus, {}, xray.rank) for c in xray.components}
    for degree in degrees:
        slots = xray_degree_slots(xray, degree)
        values = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if s.component in components else 0
            for s in slots
        ]
        part = xray_class_from_vector(xray, degree, values)
        for cid in components:
            comps[cid].entries.update(part.components[cid].entries)
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


# -- class documents ----------------------------------------------------------


def test_parse_class_torus_roundtrip():
    for xray in (x2(1), cp3()):
        for element in image_basis_xray(xray, 2):
            doc = class_to_dict(element, "fixture")
            assert parse_class_torus(doc, xray) == element


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


def test_parse_class_torus_surface_fields():
    xray = x2(1)
    comps = {c.id: {} for c in xray.components}
    base = {"kind": "class", "graph": "x2", "components": comps}
    doc = dict(base, components=dict(comps, Smax_0={"1": {"c1": [[], []]}}))
    alpha = parse_class_torus(doc, xray)
    # All-zero entries are pruned; the typed zero comes back through entry().
    assert alpha.components["Smax_0"].entries == {}
    assert alpha.components["Smax_0"].entry(1).c1 == (MPoly.zero(2), MPoly.zero(2))
    bad = dict(base, components=dict(comps, Smax_0={"1": {"c1": [[]]}}))
    with pytest.raises(SchemaError, match='"c1" must be a list of 2 polynomials'):
        parse_class_torus(bad, xray)
    bad = dict(base, components=dict(comps, Smax_0={"2": {"c9": []}}))
    with pytest.raises(SchemaError, match="unknown field"):
        parse_class_torus(bad, xray)
