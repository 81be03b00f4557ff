"""End-to-end acceptance gates, one test per gate.

Each test carries an explicit wall-clock budget and checks an exact
identity; expected values come either from closed forms or from the
independent brute-force solver embedded at the bottom of this module.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import equicoh
from equicoh import (
    ComponentClass,
    EquicohError,
    Laurent,
    SurfaceClass,
    abbv_zero_check,
    check_membership,
    check_membership_torus,
    check_membership_xray,
    class_from_vector,
    class_to_dict,
    class_to_vector,
    degree_slots,
    equivariant_series,
    euler_class,
    extremal_self_intersections,
    graph_to_dict,
    image_basis,
    image_basis_xray,
    inverse_euler,
    laurent_mul,
    localize,
    parse_class,
    parse_class_torus,
    parse_graph,
    promote_to_torus,
    resolve_self_intersections,
    unit_class,
    validate_graph,
    validate_xray,
)
from equicoh import core, linalg, s1
import fixtures
from fixtures import all_graphs, budget, g2, random_class, random_fraction


def test_image_rank_matches_equivariant_series():
    with budget(1.0):
        for graph in all_graphs().values():
            series = equivariant_series(graph, "manifold")
            for k in range(13):
                assert len(image_basis(graph, k)) == series.coefficient(k)


RELATION_COUNTS = {
    "g1": (2, 0, 1),
    "g2_g0": (1, 0, 1),
    "g2_g1": (1, 2, 1),
    "g2_g2": (1, 4, 1),
    "g3": (1, 0, 1),
}


def test_fixed_minus_image_dimension_is_the_relation_count():
    with budget(1.0):
        for name, graph in all_graphs().items():
            expected = RELATION_COUNTS[name]
            for k in range(13):
                gap = len(degree_slots(graph, k)) - len(image_basis(graph, k))
                assert gap == (expected[k] if k < 3 else 0), (name, k)


def test_euler_class_times_inverse_is_the_unit():
    with budget(0.1):
        for graph in all_graphs().values():
            for v in graph.isolated:
                product = laurent_mul(
                    euler_class(graph, v.id).laurent, inverse_euler(graph, v.id)
                )
                assert product == Laurent({0: Fraction(1)})
            for v in graph.surfaces:
                product = laurent_mul(
                    euler_class(graph, v.id).laurent, inverse_euler(graph, v.id)
                )
                assert product == Laurent({0: SurfaceClass(v.genus, c0=1)})


def _abbv_holds(doc: dict) -> bool:
    try:
        return abbv_zero_check(resolve_self_intersections(parse_graph(doc)))
    except EquicohError:
        return False


def test_localization_vanishing_detects_any_unit_perturbation():
    with budget(0.1):
        docs = {
            "g1": fixtures.g1_doc(),
            "g2_g0": fixtures.g2_doc(0),
            "g2_g1": fixtures.g2_doc(1),
            "g2_g2": fixtures.g2_doc(2),
            "g3": fixtures.g3_doc(),
        }
        for name, doc in docs.items():
            resolved = graph_to_dict(resolve_self_intersections(parse_graph(doc)))
            assert _abbv_holds(resolved), name
            for i, item in enumerate(resolved["surfaces"]):
                bumped = fixtures.mutate(
                    resolved,
                    lambda d: d["surfaces"][i].update(
                        self_intersection=str(Fraction(item["self_intersection"]) + 1)
                    ),
                )
                assert not _abbv_holds(bumped), (name, item["id"])
            for i in range(len(resolved["isolated"])):
                for j in range(2):
                    bumped = fixtures.mutate(
                        resolved,
                        lambda d: d["isolated"][i]["weights"].__setitem__(
                            j, d["isolated"][i]["weights"][j] + 1
                        ),
                    )
                    assert not _abbv_holds(bumped), (name, i, j)


def test_image_localizes_to_polynomials_and_residues_flag_nonmembers():
    with budget(5.0):
        for graph in all_graphs().values():
            for k in range(13):
                for element in image_basis(graph, k):
                    assert localize(graph, element).is_polynomial()
        rng = random.Random(20260814)
        for graph in all_graphs().values():
            width = len(degree_slots(graph, 2))
            for _ in range(200):
                values = [random_fraction(rng) for _ in range(width)]
                alpha = class_from_vector(graph, 2, values)
                residue = localize(graph, alpha).coefficient(-1)
                reported = "abbv-degree2" in {
                    v.kind for v in check_membership(graph, alpha).violations
                }
                assert (residue != 0) == reported


def _interior_point_doc() -> dict:
    return {
        "kind": "graph",
        "isolated": [{"id": "p", "y": 1, "weights": [-1, 1]}],
        "surfaces": [
            {"id": "Smin", "y": 0, "area": 1, "genus": 0},
            {"id": "Smax", "y": 2, "area": 2, "genus": 0},
        ],
        "edges": [],
    }


def test_extremal_self_intersection_formulas():
    with budget(0.1):
        for genus in (0, 1, 2):
            assert extremal_self_intersections(g2(genus, 2, 4)) == (-2, 2)
            for area in (1, 3):
                assert extremal_self_intersections(g2(genus, area, area)) == (0, 0)
        cases = [
            fixtures.g2_doc(0), fixtures.g2_doc(1), fixtures.g2_doc(2),
            fixtures.g2_doc(0, 2, 4), _interior_point_doc(),
        ]
        for doc in cases:
            graph = parse_graph(doc)
            assert validate_graph(graph) == []
            e_min, e_max = extremal_self_intersections(graph)
            interior = sum(
                Fraction(1, abs(p["weights"][0]) * abs(p["weights"][1]))
                for p in doc["isolated"]
            )
            assert e_min + e_max + interior == 0


def test_rank_one_character_reduction_agrees_with_direct_membership():
    with budget(2.0):
        for graph in all_graphs().values():
            rng = random.Random(1729)
            members = [
                element for k in range(5) for element in image_basis(graph, k)
            ] + [fixtures.constant_class(graph, 3)]
            verdicts = set()
            for alpha in members + [random_class(graph, rng) for _ in range(100)]:
                direct = check_membership(graph, alpha).member
                reduced = check_membership_torus(
                    graph, 1, (1,), promote_to_torus(alpha)
                ).member
                assert direct == reduced
                verdicts.add(direct)
            assert verdicts == {True, False}


def test_product_xray_ranks_match_the_confirmed_series():
    with budget(30.0):
        closed = _series_coefficients("(1 + 2*t + 2*t**2 + 2*t**3 + t**4)*(1 + t**2)", 8)
        brute = [_x2_dimension(k) for k in range(9)]
        assert brute == closed
        xr = fixtures.x2(1)
        assert [len(image_basis_xray(xr, k)) for k in range(9)] == closed


CHAIN_GATE = """
import json
import fixtures
from equicoh import image_basis, validate_graph
from fixtures import budget

graph = fixtures.chain({n}, 1)
assert validate_graph(graph) == []
with budget(1.0):
    sizes = [len(image_basis(graph, k)) for k in range(5)]
print(json.dumps(sizes))
"""


def test_chain_basis_scales_with_the_number_of_points():
    # Timed in a fresh interpreter: inside this suite every full pass of
    # the cyclic collector over the basis also walks the suite's own heap.
    n = 400
    path = [os.path.dirname(fixtures.__file__), os.path.dirname(os.path.dirname(equicoh.__file__))]
    run = subprocess.run(
        [sys.executable, "-c", CHAIN_GATE.format(n=n)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert run.returncode == 0, run.stderr
    # Betti numbers 1, 2g, n + 2, 2g, 1 with g = 1, over (1 - t^2).
    assert json.loads(run.stdout) == [1, 2, n + 3, 4, n + 4]


def _fresh_interpreter(script: str):
    """The JSON a script prints, run in a fresh interpreter with the package
    and the fixtures on its path."""
    path = [os.path.dirname(fixtures.__file__), os.path.dirname(os.path.dirname(equicoh.__file__))]
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_chain_basis_at_1600_points():
    # A basis class holds a record only for the components its vector
    # touches, so four times the points costs about four times the time.
    n = 1600
    assert _fresh_interpreter(CHAIN_GATE.format(n=n)) == [1, 2, n + 3, 4, n + 4]


CHAIN_GROWTH = """
import gc
import json
import statistics
import time
import fixtures
from equicoh import image_basis

graphs = {n: fixtures.chain(n, 1) for n in (400, 1600)}
# What the imports and the graphs leave alive is frozen, so a timed round
# scans only the basis's own objects when it collects.
gc.collect()
gc.freeze()
ratios = []
for _ in range(3):
    took = {}
    for n, graph in graphs.items():
        start = time.perf_counter()
        for k in range(5):
            image_basis(graph, k)
        took[n] = time.perf_counter() - start
    ratios.append(took[1600] / took[400])
print(json.dumps(statistics.median(ratios)))
"""


def test_chain_basis_grows_near_linearly():
    # Linear cost gives 4; the dense classes of n + 2 records each gave
    # about 16.
    assert _fresh_interpreter(CHAIN_GROWTH) <= 6


def test_a_basis_builds_records_only_for_the_components_it_touches(monkeypatch):
    built = []
    trusted = ComponentClass._trusted

    def counting(*args):
        built.append(trusted(*args))
        return built[-1]

    basis_graph = fixtures.chain(400, 1)
    monkeypatch.setattr(ComponentClass, "_trusted", counting)
    basis = image_basis(basis_graph, 2)
    # Degree 2 is cut out by the one degree-2 localization row, so each
    # reduced-echelon vector touches its free slot and the pivot slot, on
    # two components; a dense basis would build 403 x 402 records.
    assert len(basis) == 403
    assert len(built) == sum(len(b.components) for b in basis) == 2 * len(basis)


def test_an_xray_basis_builds_one_surface_class_per_surface_record(monkeypatch):
    # Each record's entry is built once, with its parts in their domain, and
    # ComponentClass keeps it; a copy per record doubled the count.
    built = []
    init = SurfaceClass.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    xray = fixtures.cube(8, 1)
    monkeypatch.setattr(SurfaceClass, "__init__", counting)
    basis = image_basis_xray(xray, 4)
    records = [cls for b in basis for cls in b.components.values() if cls.kind == "surface"]
    assert len(records) == 11264
    assert len(built) == len(records)


def test_a_basis_checks_no_part_a_second_time(monkeypatch):
    # Each record is built from the slot layout with its parts in their
    # domain, so the rank-8 degree-4 basis checks none of them again; a
    # checked record would check every part of its 11264 surface records.
    checked = []
    check = core._checked_part

    def counting(*args):
        checked.append(args)
        return check(*args)

    xray = fixtures.cube(8, 1)
    monkeypatch.setattr(core, "_checked_part", counting)
    basis = image_basis_xray(xray, 4)
    assert sum(len(b.components) for b in basis) == 11264 and checked == []
    ComponentClass("point", 0, {0: 1})
    assert len(checked) == 1


def test_a_parsed_class_checks_no_part_a_second_time(monkeypatch):
    # Parse reads each part into its domain and builds each record with the
    # checked constructor, so parsing a class with H^0, H^1 and H^2 parts on
    # every surface of the rank-3, genus-2 cube checks each part of each
    # entry exactly once, in slot order.
    checked = []
    check = core._checked_part

    def counting(*args):
        checked.append(args)
        return check(*args)

    xray = fixtures.cube(3, 2)
    rng = random.Random(5)
    alpha = fixtures.random_torus_class(xray._fixed_components, 3, rng, range(5))
    doc = class_to_dict(alpha, "cube")
    monkeypatch.setattr(core, "_checked_part", counting)
    parsed = parse_class_torus(doc, xray)
    assert parsed == alpha
    parts = [
        (part, degree)
        for cls in parsed.components.values()
        for degree, entry in cls.entries.items()
        for part in ["c0"] + ["c1"] * len(entry.c1) + ["c2"]
    ]
    assert len(parts) > 100
    assert [(part, context[0]) for part, _, context in checked] == parts


def test_the_presolve_leaves_only_the_rows_of_more_than_two_terms(monkeypatch):
    # Every degree-4 row of the rank-8 cube is a GKM edge condition with two
    # nonzeros, so the union-find takes them all and the general
    # elimination gets none; a chain's degree-2 rows are its edge
    # conditions and the one localization row, which is all that is left.
    handed = []

    def counting(rows):
        rows = list(rows)
        handed.append(len(rows))
        return reduced_rows(rows)

    reduced_rows = linalg._reduced_rows
    monkeypatch.setattr(linalg, "_reduced_rows", counting)
    xray = fixtures.cube(8, 1)
    basis = image_basis_xray(xray, 4)
    assert handed == [0]
    assert len(basis) == _series_coefficients("(1 + 2*t + t**2)*(1 + t**2)**8", 4, rank=8)[4]
    handed.clear()
    assert len(image_basis(fixtures.chain(400, 1), 2)) == 403
    assert handed == [1]


CUBE_GATE = """
import json
import fixtures
from equicoh import image_basis_xray, validate_xray
from fixtures import budget

xray = fixtures.cube({rank}, 1)
assert validate_xray(xray) == []
with budget(1.0):
    size = len(image_basis_xray(xray, 4))
print(json.dumps(size))
"""

# The 8 x 8 upper bidiagonal matrix of ones: it moves the rank-8 cube so
# that its characters are no longer coordinate vectors.
BIDIAGONAL_8 = [[int(j in (i, i + 1)) for j in range(8)] for i in range(8)]

TWISTED_CUBE_GATE = """
import json
import fixtures
from equicoh import image_basis_xray, validate_xray
from fixtures import budget

matrix = [[int(j in (i, i + 1)) for j in range(8)] for i in range(8)]
xray = fixtures.parse_xray(fixtures.twisted(fixtures.cube_doc(8, 1), matrix))
assert validate_xray(xray) == []
with budget(1.0):
    size = len(image_basis_xray(xray, 4))
print(json.dumps(size))
"""


def test_rank_eight_cube_basis_scales():
    # 11 264 slots and 35 840 rows, each with two nonzeros: the presolve
    # merges them in close to linear time.  Timed in a fresh interpreter,
    # as the chain gates are.
    closed = _series_coefficients("(1 + 2*t + t**2)*(1 + t**2)**8", 4, rank=8)
    assert _fresh_interpreter(CUBE_GATE.format(rank=8)) == closed[4]


def test_the_twisted_rank_eight_cube_hands_the_elimination_its_moved_rows(monkeypatch):
    # Moved by the bidiagonal matrix, the rank-8 cube's degree-4 rows are no
    # longer all GKM edge conditions of two nonzeros: 7168 of them reach the
    # general elimination, where the plain cube hands it none.
    handed = []

    def counting(rows):
        rows = list(rows)
        handed.append(len(rows))
        return reduced_rows(rows)

    reduced_rows = linalg._reduced_rows
    monkeypatch.setattr(linalg, "_reduced_rows", counting)
    xray = fixtures.parse_xray(fixtures.twisted(fixtures.cube_doc(8, 1), BIDIAGONAL_8))
    assert validate_xray(xray) == []
    closed = _series_coefficients("(1 + 2*t + t**2)*(1 + t**2)**8", 4, rank=8)
    assert len(image_basis_xray(xray, 4)) == closed[4] == 144
    assert handed == [7168]


def test_twisted_rank_eight_cube_basis_scales():
    # The twin of the plain rank-8 gate, on the cube moved by the
    # bidiagonal matrix, with the same budget.
    assert _fresh_interpreter(TWISTED_CUBE_GATE) == 144


def test_rank_five_cube_basis_scales():
    xray = fixtures.cube(5, 1)
    with budget(1.0):
        basis = image_basis_xray(xray, 4)
    # Sigma_1 x (S^2)^5: (1 + 2t + t^2)(1 + t^2)^5 over (1 - t^2)^5.
    closed = _series_coefficients("(1 + 2*t + t**2)*(1 + t**2)**5", 4, rank=5)
    assert len(basis) == closed[4]


def test_rank_seven_cube_membership_scales():
    # 448 pieces along 7 characters: membership reads each piece's kept group.
    xray = fixtures.cube(7, 1)
    assert validate_xray(xray) == []
    unit = unit_class(xray, 0, degree_slots(xray, 0)[0])
    with budget(0.5):
        assert check_membership_xray(xray, fixtures.constant_torus_class(xray, 1)).member
        assert not check_membership_xray(xray, unit).member


@pytest.fixture(scope="module")
def cube_member():
    """The rank-7 genus-1 cube x-ray with its groups kept, a degree-4 member
    class (its 112 basis classes summed with small fractional coefficients)
    and that class with one more term at one slot, which is no member."""
    xray = fixtures.cube(7, 1)
    basis = image_basis_xray(xray, 4)
    slots = degree_slots(xray, 4)
    where = {(slot.component, slot.part, slot.exps): i for i, slot in enumerate(slots)}
    rng = random.Random(7)
    vector = [Fraction(0)] * len(slots)
    for element in basis:
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 5, 7]))
        for cid, cls in element.components.items():
            for part in ("c0", "c2"):  # a degree-4 surface entry's parts
                for exps, x in getattr(cls.entries[4], part).terms.items():
                    vector[where[cid, part, exps]] += c * x
    member = class_from_vector(xray, 4, vector)
    vector[0] += 1
    return xray, member, class_from_vector(xray, 4, vector)


def test_rank_seven_cube_membership_of_a_fractional_class_scales(cube_member):
    # 448 pieces, each substituting and routing its two members' parts: the
    # class is read once as ints over its common denominator.
    xray, member, perturbed = cube_member
    with budget(0.2):
        assert check_membership_xray(xray, member).member
        assert not check_membership_xray(xray, perturbed).member


def _counting_fractions(monkeypatch, built: list) -> None:
    """Record every Fraction built while the patch holds."""

    def counting(make):
        def build(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        return build

    monkeypatch.setattr(Fraction, "__new__", counting(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic from 3.12 on
        make = counting(Fraction._from_coprime_ints.__func__)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(make))


def test_membership_routes_ints_and_builds_no_fraction(cube_member, monkeypatch):
    # The cube's induced graphs have int pole scales, so a member class's
    # sums are ints throughout and none is left nonzero to divide back.
    xray, member, _ = cube_member
    routed, built = [], []
    route = s1._route

    def counting_route(out, rules, degree, terms, c):
        routed.append(type(c))
        routed.extend(type(t) for t in terms.values())
        route(out, rules, degree, terms, c)

    monkeypatch.setattr(s1, "_route", counting_route)
    _counting_fractions(monkeypatch, built)
    decision = check_membership_xray(xray, member)
    monkeypatch.undo()
    assert decision.member
    assert built == []
    assert routed and set(routed) == {int}


def _integer_member_text(document, degrees=range(5)) -> str:
    """The JSON text of a member class of a graph or an x-ray with int
    coefficients only: in each degree, each basis class cleared of its
    denominators, times a small int, summed."""
    rng = random.Random(3)
    basis = image_basis if document.rank is None else image_basis_xray
    components: dict = {}
    for degree in degrees:
        vector = [0] * len(degree_slots(document, degree))
        for element in basis(document, degree):
            values = class_to_vector(document, degree, element)
            c = rng.choice([-2, -1, 1, 2]) * math.lcm(*(x.denominator for x in values))
            vector = [v + int(c * x) for v, x in zip(vector, values)]
        doc = class_to_dict(class_from_vector(document, degree, vector), "cube")
        for cid, entries in doc["components"].items():
            components.setdefault(cid, {}).update(entries)
    return json.dumps({"kind": "class", "graph": "cube", "components": components})


def test_an_integer_class_is_parsed_and_checked_without_a_fraction(monkeypatch):
    # Every coefficient of the document is a JSON-style integer string, so
    # parse keeps ints, the routed sums are ints and none is divided back.
    xray = fixtures.cube(3, 1)
    text = _integer_member_text(xray)
    assert check_membership_xray(xray, parse_class_torus(text, xray)).member
    built = []
    _counting_fractions(monkeypatch, built)
    alpha = parse_class_torus(text, xray)
    decision = check_membership_xray(xray, alpha)
    monkeypatch.undo()
    assert decision.member
    assert built == []
    assert {type(x) for k in range(5) for x in class_to_vector(xray, k, alpha)} == {int}


def test_an_integer_class_on_a_graph_is_parsed_and_checked_without_a_fraction(monkeypatch):
    # Weight products up to 16 and fractional self-intersections: the pole
    # scales are ints over one denominator, so the routed sums of a member
    # are ints and none is divided back.
    graph = fixtures.chain(16, 1)
    text = _integer_member_text(graph)
    assert check_membership(graph, parse_class(text, graph)).member
    assert max(abs(v.weights[0] * v.weights[1]) for v in graph.isolated) == 16
    built = []
    _counting_fractions(monkeypatch, built)
    alpha = parse_class(text, graph)
    decision = check_membership(graph, alpha)
    monkeypatch.undo()
    assert decision.member
    assert built == []


def _recording_nullspace(monkeypatch) -> list:
    """The rows each ``nullspace`` call of ``s1`` is handed, call by call."""
    handed = []
    nullspace = s1.nullspace

    def recording(rows, ncols):
        rows = list(rows)
        handed.append(rows)
        return nullspace(rows, ncols)

    monkeypatch.setattr(s1, "nullspace", recording)
    return handed


def test_chain_basis_rows_are_ints(monkeypatch):
    # The H^0 divisions and the poles of points of weight products up to 16
    # reach the elimination as int rows, the poles over one denominator.
    handed = _recording_nullspace(monkeypatch)
    for graph in (fixtures.chain(16, 1), fixtures.chain(40, 2)):
        for degree in (0, 2):
            handed.clear()
            image_basis(graph, degree)
            (rows,) = handed
            assert rows and all(rows), degree
            assert {type(x) for row in rows for x in row.values()} == {int}, degree


def test_a_graph_states_no_rule_above_degree_two(monkeypatch):
    # No part of degree 3 or more meets a division or a pole: the table is
    # empty, the elimination gets no rows, and the basis is the unit basis.
    handed = _recording_nullspace(monkeypatch)
    tables = []
    table = s1._constraint_table
    monkeypatch.setattr(
        s1, "_constraint_table", lambda *a: tables.append(table(*a)) or tables[-1]
    )
    graphs = dict(
        all_graphs(), chain=fixtures.chain(16, 1), edged=fixtures.basis_document("edged", 12, 2)
    )
    for name, graph in graphs.items():
        for degree in range(3, 7):
            handed.clear()
            tables.clear()
            basis = image_basis(graph, degree)
            slots = degree_slots(graph, degree)
            calls = 1 if slots else 0  # a degree without slots builds no group
            assert tables == [({}, 1)] * calls, (name, degree)
            assert handed == [[]] * calls, (name, degree)
            assert basis == [unit_class(graph, degree, slot) for slot in slots], (name, degree)


def test_membership_scales_with_the_genus():
    # Two genus-4000 surfaces and no edges: the default H^1 identification
    # pairs 8000 coordinates, and is never built as an 8000 x 8000 matrix.
    graph = g2(4000)
    with budget(1.0):
        assert check_membership(graph, fixtures.constant_class(graph, 1)).member
        assert not check_membership(graph, class_from_vector(graph, 0, [1, 2])).member


def test_series_coefficients_cost_the_same_in_every_degree():
    # Only the numerator's terms enter a coefficient, so 20 001 of them cost
    # what 20 001 short sums cost, not a sum over half the degree each.
    series = equivariant_series(g2(1))
    with budget(0.5):
        coefficients = [series.coefficient(k) for k in range(20001)]
    # 1 + 2t + 2t^2 + 2t^3 + t^4 over 1 - t^2.
    assert coefficients == [1, 2, 3] + [4] * 19998


def test_cli_json_output_is_byte_deterministic(data_dir):
    with budget(5.0):
        commands = [("validate", str(data_dir), "--format", "json")]
        for name in ("g1", "g2_g0", "g2_g1", "g2_g2", "g2_uneq", "g3"):
            commands.append(
                ("poincare", str(data_dir / f"{name}.json"), "--equivariant",
                 "--format", "json")
            )
        for name in ("x2_g1", "cp3"):
            commands.append(
                ("xray-basis", str(data_dir / f"{name}.json"), "--degree", "2",
                 "--format", "json")
            )
        for argv in commands:
            first = _run_cli(*argv)
            second = _run_cli(*argv)
            assert first.stdout == second.stdout and first.stdout != b""
            assert first.returncode == second.returncode


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "equicoh.cli", *argv], capture_output=True, timeout=60
    )


# -- independent brute-force solver for the product x-ray ----------------------
#
# Rebuilds the full divisibility constraint system from scratch with sympy and
# counts solutions by matrix rank; shares no code with the package under test.

_KERNEL = {(1, 0): (0, 1), (0, 1): (1, 0)}


def _divisibility_row(width, offset_a, offset_b, degree, lam):
    """Row forcing <lam, u> | (p_a - p_b) for homogeneous degree-d polynomials.

    A homogeneous difference is divisible by the linear form exactly when it
    vanishes at a nonzero kernel point; coefficients are ordered
    u1^d, u1^(d-1) u2, ..., u2^d inside each block.
    """
    v1, v2 = _KERNEL[tuple(lam)]
    row = [Fraction(0)] * width
    for j in range(degree + 1):
        value = Fraction(v1) ** (degree - j) * Fraction(v2) ** j
        row[offset_a + j] += value
        row[offset_b + j] -= value
    return row


def _solution_count(blocks, constraints):
    offsets, width = {}, 0
    for name, degree in blocks.items():
        if degree is None:
            continue
        offsets[name] = width
        width += degree + 1
    rows = [
        _divisibility_row(width, offsets[a], offsets[b], d, lam)
        for a, b, lam, d in constraints
        if a in offsets and b in offsets
    ]
    if not rows:
        return width
    matrix = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return width - matrix.rank()


_X2_PIECES = [
    ("Smin_0", "Smax_0", (1, 0)), ("Smin_1", "Smax_1", (1, 0)),
    ("Smin_0", "Smin_1", (0, 1)), ("Smax_0", "Smax_1", (0, 1)),
]


def _x2_dimension(k: int, genus: int = 1) -> int:
    comps = ["Smin_0", "Smin_1", "Smax_0", "Smax_1"]
    blocks, constraints = {}, []
    if k % 2 == 0:
        for c in comps:
            blocks[f"{c}.c0"] = k // 2
            blocks[f"{c}.c2"] = (k - 2) // 2 if k >= 2 else None
        for a, b, lam in _X2_PIECES:
            constraints.append((f"{a}.c0", f"{b}.c0", lam, k // 2))
            if k >= 2:
                constraints.append((f"{a}.c2", f"{b}.c2", lam, (k - 2) // 2))
    else:
        for c in comps:
            for i in range(2 * genus):
                blocks[f"{c}.c1[{i}]"] = (k - 1) // 2
        for a, b, lam in _X2_PIECES:
            for i in range(2 * genus):
                constraints.append(
                    (f"{a}.c1[{i}]", f"{b}.c1[{i}]", lam, (k - 1) // 2)
                )
    return _solution_count(blocks, constraints)


def _series_coefficients(numerator: str, upto: int, rank: int = 2) -> list:
    """Coefficients up to t^upto of ``numerator / (1 - t^2)^rank``."""
    t = sympy.symbols("t")
    geometric = sum(t ** (2 * j) for j in range(upto // 2 + 1))
    series = sympy.Poly((sympy.sympify(numerator) * geometric**rank).expand(), t)
    return [int(series.coeff_monomial(t**k)) for k in range(upto + 1)]
