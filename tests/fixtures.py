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
* ``chain``: two genus-g surfaces at momenta 0 and n + 1 around n
  interior points at momenta 1..n, for scaling in the number of slots.
* ``twisted``: an x-ray document moved by a unimodular matrix, so that
  its 4-dimensional pieces lie along skew characters.
* ``as_xray``: a graph document's rank-1 twin, the x-ray of its circle
  action with one 4-dimensional piece along the character (1).

``budget`` is the wall-clock context manager of the acceptance gates;
``raw_document`` and ``parse_status`` give the shape tests the JSON twin of
a directly built document and what the command line makes of it.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import itertools
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

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
from equicoh.cli import main
from equicoh.graph import DecoratedGraph
from equicoh.mpoly import monomials_of_degree
from equicoh.xray import TorusFixedComponent, XRay


class budget:
    """Context manager asserting the body finished inside the time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


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


def chain_doc(n: int, genus: int, edges: bool = False) -> dict:
    """n interior points between two genus-g surfaces, no isotropy spheres
    unless ``edges`` is set.

    Point i has weights ``(up, -down)`` with ``(up, down)`` running through
    the sixteen pairs in 1..4; the self-intersections are left to the
    extremal equations, so the graph is valid for every n.  With ``edges``,
    point i and point i + 1 are joined by a sphere of speed ``up`` wherever
    point i + 1 has ``down == up`` (i = 0, 5, 10, ...).
    """
    isolated = [
        {"id": f"p{i:03d}", "y": i + 1, "weights": [1 + i % 4, -(1 + i // 4 % 4)]}
        for i in range(n)
    ]
    spheres = [
        {"from": a["id"], "to": b["id"], "ell": a["weights"][0]}
        for a, b in zip(isolated, isolated[1:])
        if edges and a["weights"][0] == -b["weights"][1]
    ]
    return {
        "kind": "graph",
        "isolated": isolated,
        "surfaces": [
            {"id": "Smin", "y": 0, "area": 1, "genus": genus},
            {"id": "Smax", "y": n + 1, "area": 2, "genus": genus},
        ],
        "edges": spheres,
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


def twisted(doc: dict, matrix) -> dict:
    """The x-ray document ``doc`` moved by the unimodular integer ``matrix``:
    every momentum ``y``, weight and character ``lambda``, as a column
    vector, is replaced by ``matrix`` times it.  The induced graphs are left
    as they are: each piece's momenta along its character move with it."""

    def apply(v) -> list[int]:
        return [sum(a * x for a, x in zip(row, v)) for row in matrix]

    out = copy.deepcopy(doc)
    for c in out["components"]:
        c["y"] = apply(c["y"])
        c["weights"] = [apply(w) for w in c["weights"]]
    for piece in out["pieces"]:
        piece["lambda"] = apply(piece["lambda"])
    return out


def as_xray(graph_doc: dict) -> dict:
    """The x-ray document of the Hamiltonian circle action ``graph_doc``,
    seen as a complexity-one space of rank 1: each component keeps its id
    at momentum ``[y]``, a point's weights become ``[[w1], [w2]]``, a
    surface keeps its genus and area with weight ``[1]`` at the minimum and
    ``[-1]`` at the maximum, and the one piece, of character ``[1]``, holds
    every component, with the graph document as its induced graph."""
    bottom = min(Fraction(str(c["y"])) for c in graph_doc["isolated"] + graph_doc["surfaces"])
    components = [
        {"id": v["id"], "y": [v["y"]], "weights": [[w] for w in v["weights"]]}
        for v in graph_doc["isolated"]
    ] + [
        {
            "id": s["id"],
            "y": [s["y"]],
            "weights": [[1 if Fraction(str(s["y"])) == bottom else -1]],
            "genus": s["genus"],
            "area": s["area"],
        }
        for s in graph_doc["surfaces"]
    ]
    piece = {
        "id": "M",
        "lambda": [1],
        "dim": 4,
        "members": [c["id"] for c in components],
        "induced_graph": copy.deepcopy(graph_doc),
    }
    return {"kind": "xray", "rank": 1, "components": components, "pieces": [piece]}


def g1():
    return parse_graph(g1_doc())


def g2(genus: int, area_min=1, area_max=1):
    return parse_graph(g2_doc(genus, area_min, area_max))


def g3():
    return parse_graph(g3_doc())


def chain(n: int, genus: int):
    return parse_graph(chain_doc(n, genus))


def x2(genus: int):
    return parse_xray(x2_doc(genus))


def cp3():
    return parse_xray(cp3_doc())


def cube(rank: int, genus: int):
    return parse_xray(cube_doc(rank, genus))


# The keys of the documents the basis gates draw from: ("chain", n, genus)
# with n interior points, ("edged", n, genus) the same chain with its
# spheres, ("cube", rank, genus) and ("cp3", 0, 0).  The family is drawn
# first, so cp3, whose basis parts hold several terms, is drawn as often
# as the chains.
basis_document_keys = st.one_of(
    st.tuples(st.sampled_from(["chain", "edged"]), st.integers(1, 12), st.integers(0, 2)),
    st.tuples(st.just("cube"), st.integers(2, 4), st.integers(0, 2)),
    st.just(("cp3", 0, 0)),
)


@functools.cache
def basis_document(family: str, size: int, genus: int):
    """The parsed document of a key drawn by :data:`basis_document_keys`,
    parsed once per test session."""
    if family == "cube":
        return cube(size, genus)
    if family == "cp3":
        return cp3()
    return parse_graph(chain_doc(size, genus, edges=family == "edged"))


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


def without(alpha: EquivariantClass, *ids) -> EquivariantClass:
    """The dict class of alpha's records but those of ``ids``: a class that
    addresses the components alpha holds records for, less ``ids``."""
    comps = {cid: cls for cid, cls in alpha.components.items() if cid not in ids}
    return EquivariantClass(comps, alpha.rank)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))


def random_class(
    graph, rng: random.Random, degrees=(0, 1, 2, 3, 4), value=random_fraction
) -> EquivariantClass:
    """A random, generally inhomogeneous class on the graph's components,
    each coordinate drawn by ``value(rng)``."""
    total = None
    for degree in degrees:
        if rng.random() < 0.4:
            continue
        values = [value(rng) for _ in degree_slots(graph, degree)]
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
    """The dict class of a record for every component x addresses, holding
    the entries of both classes (y's where they share a degree); a record
    left without entries is dropped, and the class still addresses its
    component."""
    comps = {}
    for cid, kind, genus in x.addressed():
        entries = dict(x.restriction(cid))
        entries.update(y.restriction(cid))
        comps[cid] = ComponentClass(kind, genus, entries, x.rank)
    return EquivariantClass(comps, x.rank)


def random_poly(rng: random.Random, nvars: int, degree: int, value=random_fraction) -> MPoly:
    """A random homogeneous polynomial; most monomials get a coefficient,
    drawn by ``value(rng)`` and kept as it is (an ``int`` stays one)."""
    terms = {
        exps: value(rng) for exps in monomials_of_degree(nvars, degree) if rng.random() < 0.7
    }
    return MPoly._trusted(nvars, {exps: c for exps, c in terms.items() if c})


def random_torus_class(
    components, rank: int, rng: random.Random, degrees=range(7), value=random_fraction
):
    """A random inhomogeneous rank-r class on ``(id, kind, genus)`` components,
    with polynomial H^0, H^1 and H^2 parts wherever the degree allows them,
    each coefficient drawn by ``value(rng)``."""
    comps = {}
    for cid, kind, genus in components:
        zero = MPoly.zero(rank)
        entries: dict = {}
        for k in degrees:
            if rng.random() < 0.3 or (kind == "point" and k % 2):
                continue
            if kind == "point":
                entries[k] = random_poly(rng, rank, k // 2, value)
            elif k % 2 == 0:
                c2 = random_poly(rng, rank, k // 2 - 1, value) if k >= 2 else zero
                entries[k] = SurfaceClass(
                    genus, random_poly(rng, rank, k // 2, value), (zero,) * (2 * genus), c2
                )
            else:
                c1 = tuple(random_poly(rng, rank, k // 2, value) for _ in range(2 * genus))
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


def power_class(xray, cid: str, power: int) -> EquivariantClass:
    """The class of ``xray`` whose one nonzero record is the surface ``cid``'s
    degree-2p entry, p = ``power``, with H^0 part ``u1^p`` and H^2 part
    ``u1^(p - 1)``: a class whose monomials' images grow with p."""
    r = xray.rank
    comps = {c.id: ComponentClass(c.kind, c.genus, {}, r) for c in xray.components}
    surface = xray.find(cid)
    c0, c2 = (MPoly.monomial((e,) + (0,) * (r - 1), 1) for e in (power, power - 1))
    entry = SurfaceClass(surface.genus, c0, (MPoly.zero(r),) * (2 * surface.genus), c2)
    comps[cid] = ComponentClass("surface", surface.genus, {2 * power: entry}, r)
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


# The JSON keys of the record fields named otherwise.
JSON_KEYS = {"start": "from", "end": "to", "lam": "lambda", "induced": "induced_graph"}


def raw_document(value):
    """A graph, an x-ray or one of their records as a JSON document, each
    field written as it is held rather than as parse would have made it: a
    Fraction as its "p/q" string, a tuple as an array, a float as a float.
    An optional field holding None is left out.  JSON tells a surface from
    a point by its genus and area keys, so a surface writes both, and a
    point leaves out a genus 0; a kind other than "point" or "surface" can
    only be written as a "kind" key."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [raw_document(x) for x in value]
    if not dataclasses.is_dataclass(value):
        return value
    item = {
        JSON_KEYS.get(f.name, f.name): raw_document(getattr(value, f.name))
        for f in dataclasses.fields(value)
        if getattr(value, f.name) is not None or f.default is not None
    }
    if isinstance(value, (DecoratedGraph, XRay)):
        item["kind"] = "graph" if value.rank is None else "xray"
    if isinstance(value, TorusFixedComponent):
        kind = item.pop("kind")
        if kind == "surface":
            item["area"] = raw_document(value.area)
        elif kind == "point" and type(value.genus) is int and value.genus == 0:
            del item["genus"]
        elif kind != "point":
            item["kind"] = kind
    return item


def parse_status(document) -> tuple[int, str]:
    """The exit status of ``validate`` (for an x-ray, ``xray-validate``) on
    the :func:`raw_document` of ``document``, and its message on status 2."""
    command = "validate" if document.rank is None else "xray-validate"
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        path.write_text(json.dumps(raw_document(document)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = main([command, str(path), "--format", "json"])
    return status, json.loads(out.getvalue())["message"] if status == 2 else ""
