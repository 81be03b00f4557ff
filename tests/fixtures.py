"""Shared fixture graphs and x-rays used across the test suite.

Each builder returns a plain document dict so tests can mutate copies
before parsing; the ``*_graph``/``*_xray`` helpers return parsed,
validated objects.  The fixtures:

* ``g1``: three isolated points on a line of momenta 0, 1, 2 with
  weights (1,2), (-1,1), (-2,-1) and two isotropy spheres.
* ``g2``: two genus-g surfaces at momenta 0 and 1, no interior points.
* ``g3``: an isolated minimum of weights (1,1) under a genus-0 surface
  of self-intersection 1.
* ``x2``: the rank-2 product of ``g2(g, s, s)`` with a rotating sphere;
  four fixed surfaces at the corners of a unit square of momenta and
  four 4-dimensional skeleton pieces.
* ``cp3``: four isolated points with the six coordinate spheres of a
  rank-2 action on a 6-manifold; all skeleton pieces 2-dimensional.
* ``cube``: ``Sigma_g x (S^2)^r`` as a rank-r x-ray; a fixed surface at
  each corner of the unit cube of momenta and a 4-dimensional piece
  along each edge (``cube(2, g)`` is ``x2(g)`` with other ids).
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from fractions import Fraction

from equicoh import (
    ComponentClass,
    EquivariantClass,
    MPoly,
    SurfaceClass,
    class_from_vector,
    class_to_vector,
    degree_slots,
    image_basis,
    parse_graph,
    parse_xray,
)
from equicoh.mpoly import monomials_of_degree


def g1_doc() -> dict:
    return {
        "kind": "graph",
        "isolated": [
            {"id": "A", "y": 0, "weights": [1, 2]},
            {"id": "B", "y": 1, "weights": [-1, 1]},
            {"id": "C", "y": 2, "weights": [-2, -1]},
        ],
        "surfaces": [],
        "edges": [
            {"from": "A", "to": "B", "ell": 1},
            {"from": "B", "to": "C", "ell": 1},
        ],
    }


def g2_doc(genus: int, area_min=1, area_max=1) -> dict:
    return {
        "kind": "graph",
        "isolated": [],
        "surfaces": [
            {"id": "Smin", "y": 0, "area": area_min, "genus": genus},
            {"id": "Smax", "y": 1, "area": area_max, "genus": genus},
        ],
        "edges": [],
    }


def g3_doc() -> dict:
    return {
        "kind": "graph",
        "isolated": [{"id": "p", "y": 0, "weights": [1, 1]}],
        "surfaces": [
            {"id": "S", "y": 1, "area": 1, "genus": 0, "self_intersection": 1}
        ],
        "edges": [],
    }


def x2_doc(genus: int, area=1) -> dict:
    def induced(i0: str, i1: str) -> dict:
        return {
            "kind": "graph",
            "isolated": [],
            "surfaces": [
                {"id": i0, "y": 0, "area": area, "genus": genus},
                {"id": i1, "y": 1, "area": area, "genus": genus},
            ],
            "edges": [],
        }

    return {
        "kind": "xray",
        "rank": 2,
        "components": [
            {"id": "Smin_0", "y": [0, 0], "weights": [[1, 0], [0, 1]],
             "genus": genus, "area": area},
            {"id": "Smin_1", "y": [0, 1], "weights": [[1, 0], [0, -1]],
             "genus": genus, "area": area},
            {"id": "Smax_0", "y": [1, 0], "weights": [[-1, 0], [0, 1]],
             "genus": genus, "area": area},
            {"id": "Smax_1", "y": [1, 1], "weights": [[-1, 0], [0, -1]],
             "genus": genus, "area": area},
        ],
        "pieces": [
            {"id": "PX0", "lambda": [1, 0], "dim": 4,
             "members": ["Smin_0", "Smax_0"],
             "induced_graph": induced("Smin_0", "Smax_0")},
            {"id": "PX1", "lambda": [1, 0], "dim": 4,
             "members": ["Smin_1", "Smax_1"],
             "induced_graph": induced("Smin_1", "Smax_1")},
            {"id": "PY0", "lambda": [0, 1], "dim": 4,
             "members": ["Smin_0", "Smin_1"],
             "induced_graph": induced("Smin_0", "Smin_1")},
            {"id": "PY1", "lambda": [0, 1], "dim": 4,
             "members": ["Smax_0", "Smax_1"],
             "induced_graph": induced("Smax_0", "Smax_1")},
        ],
    }


def cp3_doc() -> dict:
    # Momenta at the vertices of a unit square; weights at each point are
    # the pairwise momentum differences to the other three points.
    points = {
        "P0": (0, 0),
        "P1": (1, 0),
        "P2": (0, 1),
        "P3": (1, 1),
    }
    components = []
    for pid, y in sorted(points.items()):
        weights = [
            [other[0] - y[0], other[1] - y[1]]
            for oid, other in sorted(points.items())
            if oid != pid
        ]
        components.append({"id": pid, "y": list(y), "weights": weights})
    spheres = [
        ("E01", "P0", "P1", [1, 0]),
        ("E23", "P2", "P3", [1, 0]),
        ("E02", "P0", "P2", [0, 1]),
        ("E13", "P1", "P3", [0, 1]),
        ("E03", "P0", "P3", [1, 1]),
        ("E12", "P1", "P2", [-1, 1]),
    ]
    pieces = [
        {"id": pid, "lambda": lam, "dim": 2, "members": [a, b], "ell": 1}
        for pid, a, b, lam in spheres
    ]
    return {"kind": "xray", "rank": 2, "components": components, "pieces": pieces}


def cube_doc(rank: int, genus: int, area=1) -> dict:
    corners = list(itertools.product((0, 1), repeat=rank))

    def name(v) -> str:
        return "S" + "".join(str(x) for x in v)

    components = [
        {
            "id": name(v),
            "y": list(v),
            "weights": [
                [(1 if v[i] == 0 else -1) if j == i else 0 for j in range(rank)]
                for i in range(rank)
            ],
            "genus": genus,
            "area": area,
        }
        for v in corners
    ]
    pieces = []
    for v in corners:
        for i in range(rank):
            if v[i]:
                continue
            a, b = name(v), name(v[:i] + (1,) + v[i + 1:])
            pieces.append({
                "id": f"E{i}_{a}_{b}",
                "lambda": [1 if j == i else 0 for j in range(rank)],
                "dim": 4,
                "members": [a, b],
                "induced_graph": {
                    "kind": "graph",
                    "isolated": [],
                    "surfaces": [
                        {"id": a, "y": 0, "area": area, "genus": genus},
                        {"id": b, "y": 1, "area": area, "genus": genus},
                    ],
                    "edges": [],
                },
            })
    return {"kind": "xray", "rank": rank, "components": components, "pieces": pieces}


def g1():
    return parse_graph(g1_doc())


def g2(genus: int, area_min=1, area_max=1):
    return parse_graph(g2_doc(genus, area_min, area_max))


def g3():
    return parse_graph(g3_doc())


def x2(genus: int):
    return parse_xray(x2_doc(genus))


def cp3():
    return parse_xray(cp3_doc())


def cube(rank: int, genus: int):
    return parse_xray(cube_doc(rank, genus))


def all_graphs() -> dict:
    return {
        "g1": g1(),
        "g2_g0": g2(0),
        "g2_g1": g2(1),
        "g2_g2": g2(2),
        "g3": g3(),
    }


def constant_class(graph, value) -> EquivariantClass:
    comps = {}
    for v in graph.isolated:
        comps[v.id] = ComponentClass("point", 0, {0: Fraction(value)}, None)
    for v in graph.surfaces:
        comps[v.id] = ComponentClass(
            "surface", v.genus, {0: SurfaceClass(v.genus, c0=value)}, None
        )
    return EquivariantClass(comps, None)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))


def random_class(graph, rng: random.Random, degrees=(0, 1, 2, 3, 4)) -> EquivariantClass:
    """A random, generally inhomogeneous class on the graph's components."""
    total = None
    for degree in degrees:
        if rng.random() < 0.4:
            continue
        values = [random_fraction(rng) for _ in degree_slots(graph, degree)]
        part = class_from_vector(graph, degree, values)
        total = part if total is None else _merge(total, part)
    if total is None:
        total = constant_class(graph, 0)
    return total


def random_member(graph, rng: random.Random, degrees=(0, 1, 2, 3, 4)) -> EquivariantClass:
    """A random element of the restriction image, built from image bases."""
    total = constant_class(graph, 0)
    for degree in degrees:
        basis = image_basis(graph, degree)
        if not basis or rng.random() < 0.3:
            continue
        width = len(degree_slots(graph, degree))
        vector = [Fraction(0)] * width
        for element in basis:
            c = random_fraction(rng)
            for i, v in enumerate(class_to_vector(graph, degree, element)):
                vector[i] += c * v
        total = _merge(total, class_from_vector(graph, degree, vector))
    return total


def _merge(x: EquivariantClass, y: EquivariantClass) -> EquivariantClass:
    comps = {}
    for cid, cls in x.components.items():
        entries = dict(cls.entries)
        entries.update(y.components[cid].entries)
        comps[cid] = ComponentClass(cls.kind, cls.genus, entries, cls.rank)
    return EquivariantClass(comps, x.rank)


def random_poly(rng: random.Random, nvars: int, degree: int) -> MPoly:
    """A random homogeneous polynomial; most monomials get a coefficient."""
    return MPoly(nvars, {
        exps: random_fraction(rng)
        for exps in monomials_of_degree(nvars, degree)
        if rng.random() < 0.7
    })


def random_torus_class(components, rank: int, rng: random.Random, degrees=range(7)):
    """A random inhomogeneous rank-r class on ``(id, kind, genus)`` components,
    with polynomial H^0, H^1 and H^2 parts wherever the degree allows them."""
    comps = {}
    for cid, kind, genus in components:
        zero = MPoly.zero(rank)
        entries: dict = {}
        for k in degrees:
            if rng.random() < 0.3 or (kind == "point" and k % 2):
                continue
            if kind == "point":
                entries[k] = random_poly(rng, rank, k // 2)
            elif k % 2 == 0:
                c2 = random_poly(rng, rank, k // 2 - 1) if k >= 2 else zero
                entries[k] = SurfaceClass(
                    genus, random_poly(rng, rank, k // 2), (zero,) * (2 * genus), c2
                )
            else:
                c1 = tuple(random_poly(rng, rank, k // 2) for _ in range(2 * genus))
                entries[k] = SurfaceClass(genus, zero, c1, zero)
        comps[cid] = ComponentClass(kind, genus, entries, rank)
    return EquivariantClass(comps, rank)


def constant_torus_class(xray, value) -> EquivariantClass:
    r = xray.rank
    comps = {}
    for c in xray.components:
        if c.kind == "point":
            entry = MPoly.constant(r, value)
        else:
            entry = SurfaceClass(c.genus, c0=MPoly.constant(r, value))
        comps[c.id] = ComponentClass(c.kind, c.genus, {0: entry}, r)
    return EquivariantClass(comps, r)


def write_data_files(directory) -> None:
    """Materialize the JSON documents the CLI tests read from disk."""
    docs = {
        "g1.json": g1_doc(),
        "g2_g0.json": g2_doc(0),
        "g2_g1.json": g2_doc(1),
        "g2_g2.json": g2_doc(2),
        "g2_uneq.json": g2_doc(0, 2, 4),
        "g3.json": g3_doc(),
        "x2_g1.json": x2_doc(1),
        "cp3.json": cp3_doc(),
        "class_g1_const.json": {
            "kind": "class",
            "graph": "g1.json",
            "components": {"A": {"0": 7}, "B": {"0": 7}, "C": {"0": 7}},
        },
        "class_g1_pole.json": {
            "kind": "class",
            "graph": "g1.json",
            "components": {"A": {"2": 1}, "B": {}, "C": {}},
        },
        "class_g2g0_deg2.json": {
            "kind": "class",
            "graph": "g2_g0.json",
            "components": {
                "Smin": {"2": {"c0": 0, "c1": [], "c2": 1}},
                "Smax": {"2": {"c0": 0, "c1": [], "c2": 1}},
            },
        },
        "class_x2_const.json": {
            "kind": "class",
            "graph": "x2_g1.json",
            "components": {
                cid: {"0": {"c0": [[[0, 0], "3"]], "c1": [], "c2": []}}
                for cid in ("Smin_0", "Smin_1", "Smax_0", "Smax_1")
            },
        },
        "class_x2_skew.json": {
            "kind": "class",
            "graph": "x2_g1.json",
            "components": {
                cid: {
                    "2": {
                        "c0": [[[0, 1], "1"]] if cid == "Smax_0" else [],
                        "c1": [],
                        "c2": [],
                    }
                }
                for cid in ("Smin_0", "Smin_1", "Smax_0", "Smax_1")
            },
        },
    }
    bad_weights = g1_doc()
    bad_weights["isolated"][1]["weights"] = [1, 1]
    docs["bad_weights.json"] = bad_weights

    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        path = directory / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    (directory / "broken.json").write_text("{ not json\n")


def mutate(doc: dict, fn) -> dict:
    out = copy.deepcopy(doc)
    fn(out)
    return out
