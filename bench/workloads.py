"""Seeded inputs and the query rounds of the four benchmark workloads.

A workload turns a seed into documents on disk and one round of CLI
queries, each carrying the check of its own answer.  Documents are built so
their answers are known in advance: chain graphs and cube x-rays have
closed-form image dimensions, member classes are assembled from the image
conditions and non-members perturb a member in a direction those
conditions forbid, and batch files carry exactly one planted violation.
The same seed always gives byte-identical documents and the same query
order; nothing here imports equicoh.

* ``graph_basis``: ``basis`` on chain graphs with 16 to 40 interior points.
  Exact elimination dominates and grows like N^3.
* ``xray_basis``: ``xray-basis`` on the product x-rays
  Sigma_g x (S^2)^r (r = 2, 3; g = 0, 1, 2) and cp3.  Constraint assembly
  (piece obstructions, torus localization, linear substitution) dominates.
* ``membership``: ``check`` and ``xray-check`` on member and non-member
  classes.  Localization rows are assembled but nothing is eliminated.
* ``validate_batch``: ``validate DIR --format json`` over directories of
  small documents.  Parsing, validation and the batch path dominate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product as cartesian
from typing import Callable

import oracle

# Sizes are chosen so that a round of each workload takes a few seconds and
# a run repeats every query several times (see run.py).
CHAIN_SIZES = (16, 24, 32, 40)
CUBES = tuple((rank, genus) for rank in (2, 3) for genus in (0, 1, 2))
CUBE_DEGREES = {2: 8, 3: 4}
CP3_DEGREES = 16
CLASS_DEGREES = 8


@dataclass
class Query:
    qid: str
    argv: list[str]
    check: Callable[[str, int], str | None]


@dataclass
class Plan:
    """The documents and the query round of one workload for one seed."""

    root: str
    files: dict[str, str] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)
    warmup: Query | None = None
    params: dict = field(default_factory=dict)

    def add(self, name: str, doc) -> str:
        """Register a document (a dict, or raw text) and return its path."""
        text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True) + "\n"
        path = f"{self.root}/{name}"
        self.files[path] = text
        return path

    def query(self, qid: str, argv: list[str], check) -> Query:
        q = Query(qid, argv, check)
        self.queries.append(q)
        return q

    def on_disk(self) -> bool:
        """Whether every document is on disk with exactly these bytes."""
        for path, text in self.files.items():
            try:
                with open(path, encoding="utf-8") as handle:
                    if handle.read() != text:
                        return False
            except OSError:
                return False
        return True

    def write(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)


def build(name: str, seed: int, work_dir: str) -> Plan:
    """Generate (but do not write) the documents and queries of a workload."""
    plan = Plan(f"{work_dir}/{name}")
    rng = random.Random(f"{name}:{seed}")
    WORKLOADS[name](rng, plan)
    rng.shuffle(plan.queries)
    return plan


# -- documents ------------------------------------------------------------------


def rfrac(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        if x or not nonzero:
            return x


def assign_genera(rng: random.Random, count: int) -> list[int]:
    """A genus per document, every genus 0, 1, 2 used at least once."""
    genera = [0, 1, 2] + [rng.randrange(3) for _ in range(count - 3)]
    rng.shuffle(genera)
    return genera


def chain_graph(rng: random.Random, genus: int, n: int, edges: bool = False) -> dict:
    """Two genus-g extremal surfaces around n interior points of opposite-sign weights.

    The weight magnitudes run through all sixteen pairs in 1..4 from a seeded
    starting pair and are then shuffled, so graphs of one size differ in
    layout but not in arithmetic difficulty.  Self-intersections are left
    unset: the library resolves them and the graph is valid by construction.
    With ``edges``, consecutive points whose weights match are joined by an
    isotropy sphere.
    """
    start = rng.randrange(16)
    pairs = [(1 + (start + i) % 4, 1 + (start + i) // 4 % 4) for i in range(n)]
    rng.shuffle(pairs)
    isolated, links = [], []
    for i, (up, down) in enumerate(pairs):
        pid = f"p{i:03d}"
        if edges and i and pairs[i - 1][0] == down:
            link = {"from": f"p{i - 1:03d}", "to": pid, "ell": down}
            if rng.random() < 0.5:
                link["area"] = f"1/{down}"
            links.append(link)
        weights = [up, -down] if rng.random() < 0.5 else [-down, up]
        isolated.append({"id": pid, "y": i + 1, "weights": weights})
    surfaces = [
        {"id": "Smin", "y": 0, "area": rng.randint(1, 4), "genus": genus},
        {"id": "Smax", "y": n + 1, "area": rng.randint(1, 4), "genus": genus},
    ]
    return {"kind": "graph", "isolated": isolated, "surfaces": surfaces, "edges": links}


def cube_xray(rng: random.Random, rank: int, genus: int, offset=None) -> dict:
    """Sigma_g x (S^2)^rank as an x-ray: a fixed surface at each corner of the
    unit cube and a 4-dimensional piece along each edge.  The seed picks the
    corner ids and the area; the ids keep the corners in lexicographic order,
    so every seed sees the same slot order and the same elimination work."""
    area = rng.randint(1, 3)
    offset = offset or [0] * rank
    corners = list(cartesian((0, 1), repeat=rank))
    labels = sorted(rng.sample(range(10, 100), len(corners)))
    ids = {v: f"S{label}" for v, label in zip(corners, labels)}
    components = [
        {
            "id": ids[v],
            "y": [x + o for x, o in zip(v, offset)],
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
            a, b = ids[v], ids[v[:i] + (1,) + v[i + 1:]]
            surfaces = [
                {"id": a, "y": 0, "area": area, "genus": genus},
                {"id": b, "y": 1, "area": area, "genus": genus},
            ]
            pieces.append({
                "id": f"E{i}_{a}_{b}",
                "lambda": [1 if j == i else 0 for j in range(rank)],
                "dim": 4,
                "members": [a, b],
                "induced_graph": {"kind": "graph", "isolated": [], "surfaces": surfaces, "edges": []},
            })
    return {"kind": "xray", "rank": rank, "components": components, "pieces": pieces}


CP3_POINTS = {"P0": (0, 0), "P1": (1, 0), "P2": (0, 1), "P3": (1, 1)}
CP3_SPHERES = (
    ("E01", "P0", "P1", [1, 0]),
    ("E23", "P2", "P3", [1, 0]),
    ("E02", "P0", "P2", [0, 1]),
    ("E13", "P1", "P3", [0, 1]),
    ("E03", "P0", "P3", [1, 1]),
    ("E12", "P1", "P2", [-1, 1]),
)


def cp3_xray(offset=(0, 0)) -> dict:
    """Four fixed points at the corners of the unit square joined by six spheres;
    the weights at a point are the momentum differences to the other three."""
    components = [
        {
            "id": pid,
            "y": [y[0] + offset[0], y[1] + offset[1]],
            "weights": [[o[0] - y[0], o[1] - y[1]] for oid, o in sorted(CP3_POINTS.items()) if oid != pid],
        }
        for pid, y in sorted(CP3_POINTS.items())
    ]
    pieces = [
        {"id": pid, "lambda": lam, "dim": 2, "members": [a, b], "ell": 1}
        for pid, a, b, lam in CP3_SPHERES
    ]
    return {"kind": "xray", "rank": 2, "components": components, "pieces": pieces}


def _xrays(rng: random.Random) -> list[tuple[str, dict, tuple[list[int], int], int]]:
    """(name, document, series, top degree) for every cube and cp3."""
    out = []
    for rank, genus in CUBES:
        doc = cube_xray(rng, rank, genus)
        out.append((f"cube_r{rank}_g{genus}", doc, oracle.cube_series(rank, genus), CUBE_DEGREES[rank]))
    out.append(("cp3", cp3_xray(), oracle.CP3_SERIES, CP3_DEGREES))
    return out


# -- graph_basis and xray_basis -------------------------------------------------


def graph_basis(rng: random.Random, plan: Plan) -> None:
    genera = assign_genera(rng, len(CHAIN_SIZES))
    for n, genus in zip(CHAIN_SIZES, genera):
        doc = chain_graph(rng, genus, n)
        path = plan.add(f"chain_n{n}.json", doc)
        numerator, power = oracle.chain_series(genus, n)
        for k in range(5):
            size = oracle.series_coefficient(numerator, power, k)
            # A share of the queries asks for the text table instead of JSON.
            for fmt in ("json", "text") if k in (1, 3, 4) else ("json",):
                check = partial(oracle.check_basis, "graph", doc, path, k, fmt, size)
                q = plan.query(f"basis/n{n}/k{k}/{fmt}",
                               ["basis", path, "--degree", str(k), "--format", fmt], check)
                if (n, k, fmt) == (CHAIN_SIZES[0], 1, "json"):
                    plan.warmup = q
    plan.params = {"interior_points": list(CHAIN_SIZES), "genera": genera, "max_degree": 4}


def xray_basis(rng: random.Random, plan: Plan) -> None:
    for name, doc, (numerator, power), top in _xrays(rng):
        path = plan.add(f"{name}.json", doc)
        for k in range(top + 1):
            argv = ["xray-basis", path, "--degree", str(k), "--format", "json"]
            if k > 8:  # the default cutoff for x-rays
                argv += ["--max-degree", str(top)]
            size = oracle.series_coefficient(numerator, power, k)
            q = plan.query(f"xray-basis/{name}/k{k}", argv,
                           partial(oracle.check_basis, "xray", doc, path, k, "json", size))
            if (name, k) == ("cp3", 0):
                plan.warmup = q
    plan.params = {"cubes": [list(c) for c in CUBES], "top_degree": {"rank2": CUBE_DEGREES[2],
                   "rank3": CUBE_DEGREES[3], "cp3": CP3_DEGREES}}


# -- membership -----------------------------------------------------------------


def graph_class(rng: random.Random, doc: dict, path: str, perturbation: str | None):
    """A class of degrees 0..4 on a chain graph, a member unless perturbed.

    Returns (document, expected violation kinds, expected degree-2 residue).
    """
    points = doc["isolated"]
    lower, upper = oracle.ordered_surfaces(doc)
    genus = lower["genus"]
    comps: dict[str, dict] = {v["id"]: {} for v in points + doc["surfaces"]}

    constant = rfrac(rng)
    for v in points:
        comps[v["id"]]["0"] = constant
    for s in (lower, upper):
        comps[s["id"]]["0"] = {"c0": constant}
    if genus:
        shared = [rfrac(rng) for _ in range(2 * genus)]
        for s in (lower, upper):
            comps[s["id"]]["1"] = {"c1": list(shared)}
            comps[s["id"]]["3"] = {"c1": [rfrac(rng) for _ in range(2 * genus)]}
    # Degree 2: free values everywhere, then one point absorbs the residue.
    values = {v["id"]: rfrac(rng) for v in points}
    c0 = {s["id"]: rfrac(rng) for s in (lower, upper)}
    c2 = {s["id"]: rfrac(rng) for s in (lower, upper)}
    anchor = rng.choice(points)
    values[anchor["id"]] = 0
    residue = oracle.graph_residue(doc, values, c0, c2)
    values[anchor["id"]] = -residue * anchor["weights"][0] * anchor["weights"][1]
    for v in points:
        comps[v["id"]]["2"] = values[v["id"]]
        comps[v["id"]]["4"] = rfrac(rng)
    for s in (lower, upper):
        comps[s["id"]]["2"] = {"c0": c0[s["id"]], "c2": c2[s["id"]]}
        comps[s["id"]]["4"] = {"c0": rfrac(rng), "c2": rfrac(rng)}

    expected: list[str] = []
    residue = None
    delta = rfrac(rng, nonzero=True)
    if perturbation == "degree0":
        v = rng.choice(points)
        comps[v["id"]]["0"] += delta
        expected = ["degree0-constancy", "localization-pole"]
    elif perturbation == "degree1":
        s = rng.choice((lower, upper))
        comps[s["id"]]["1"]["c1"][rng.randrange(2 * genus)] += delta
        expected = ["degree1-surface-match"]
    elif perturbation == "degree2-point":
        v = rng.choice(points)
        comps[v["id"]]["2"] += delta
        residue = delta / (v["weights"][0] * v["weights"][1])
        expected = ["abbv-degree2", "localization-pole"]
    elif perturbation == "degree2-surface":
        s, sign = rng.choice(((lower, -1), (upper, 1)))
        comps[s["id"]]["2"]["c2"] += delta
        residue = sign * delta
        expected = ["abbv-degree2", "localization-pole"]

    def render(value):
        if isinstance(value, dict):
            return {part: [str(x) for x in v] if isinstance(v, list) else str(v)
                    for part, v in value.items()}
        return str(value)

    components = {cid: {k: render(v) for k, v in entries.items()} for cid, entries in comps.items()}
    return {"kind": "class", "graph": path, "components": components}, expected, residue


def rand_poly(rng: random.Random, nvars: int, degree: int, terms: int = 2) -> dict:
    """A homogeneous polynomial with ``terms`` distinct monomials (fewer when
    the degree has fewer), every coefficient nonzero."""
    if degree < 0:
        return {}
    monos = oracle.monomials(nvars, degree)
    return {e: rfrac(rng, nonzero=True) for e in rng.sample(monos, min(terms, len(monos)))}


def poly_add(p: dict, q: dict) -> dict:
    return oracle.poly_sub(p, {e: -c for e, c in q.items()})


def poly_times(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _unit(nvars: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(nvars))


def cube_family(rng: random.Random, corners: dict, rank: int, degree: int) -> dict:
    """Polynomials f_v at the cube corners with f_a - f_b divisible by u_i along
    every edge in direction i: f_v = P + sum_i v_i u_i P_i + sum_i<j v_i v_j u_i u_j P_ij."""
    base = rand_poly(rng, rank, degree)
    singles = [rand_poly(rng, rank, degree - 1) for _ in range(rank)]
    pairs = {(i, j): rand_poly(rng, rank, degree - 2) for i in range(rank) for j in range(i + 1, rank)}
    out = {}
    for cid, v in corners.items():
        f = dict(base)
        for i in range(rank):
            if v[i]:
                f = poly_add(f, poly_times(singles[i], {_unit(rank, i): 1}))
        for (i, j), p in pairs.items():
            if v[i] and v[j]:
                both = tuple(a + b for a, b in zip(_unit(rank, i), _unit(rank, j)))
                f = poly_add(f, poly_times(p, {both: 1}))
        out[cid] = f
    return out


def cp3_family(rng: random.Random, degree: int) -> dict:
    """f_v = sum_j P_j * l_v^j with l_v = y_v . u, the momentum class and its powers."""
    out = {pid: {} for pid in CP3_POINTS}
    for j in range(degree + 1):
        coeff = rand_poly(rng, 2, degree - j, terms=1)
        for pid, y in CP3_POINTS.items():
            ell = {e: c for e, c in (((1, 0), y[0]), ((0, 1), y[1])) if c}
            power = {(0, 0): 1}
            for _ in range(j):
                power = poly_times(power, ell)
            out[pid] = poly_add(out[pid], poly_times(coeff, power))
    return out


def _pairs(poly: dict) -> list:
    return [[list(e), str(c)] for e, c in sorted(poly.items(), reverse=True)]


def xray_class(rng: random.Random, doc: dict, path: str, perturb: bool, top: int = 8):
    """A class of degrees 0..top on a cube x-ray or cp3, a member unless perturbed.

    Returns (document, expected sorted (violation kind, piece id) pairs).
    """
    rank = doc["rank"]
    comps = {c["id"]: {} for c in doc["components"]}
    surfaces = "genus" in doc["components"][0]
    if surfaces:
        genus = doc["components"][0]["genus"]
        # Corner coordinates relative to the cube's lowest corner.
        low = [min(c["y"][i] for c in doc["components"]) for i in range(rank)]
        corners = {c["id"]: tuple(y - lo for y, lo in zip(c["y"], low)) for c in doc["components"]}
        for k in range(top + 1):
            if k % 2 == 0:
                c0 = cube_family(rng, corners, rank, k // 2)
                c2 = cube_family(rng, corners, rank, (k - 2) // 2)
                for cid in comps:
                    comps[cid][k] = {"c0": c0[cid], "c1": [], "c2": c2[cid]}
            elif genus:
                c1 = [cube_family(rng, corners, rank, (k - 1) // 2) for _ in range(2 * genus)]
                for cid in comps:
                    comps[cid][k] = {"c1": [f[cid] for f in c1]}
    else:
        for k in range(0, top + 1, 2):
            family = cp3_family(rng, k // 2)
            for cid in comps:
                comps[cid][k] = family[cid]

    expected = []
    if perturb:
        cid = rng.choice(sorted(comps))
        k = rng.choice(sorted(comps[cid]))
        entry = comps[cid][k]
        if not surfaces:
            part, degree = None, k // 2
        elif k % 2:
            part, degree = ("c1", rng.randrange(len(entry["c1"]))), (k - 1) // 2
        else:
            part = rng.choice(("c0", "c2") if k >= 2 else ("c0",))
            degree = k // 2 if part == "c0" else (k - 2) // 2
        monomial = {rng.choice(oracle.monomials(rank, degree)): rfrac(rng, nonzero=True)}
        if part is None:
            comps[cid][k] = poly_add(entry, monomial)
        elif part in ("c0", "c2"):
            entry[part] = poly_add(entry[part], monomial)
        else:
            entry["c1"][part[1]] = poly_add(entry["c1"][part[1]], monomial)
        kind = "localization-pole" if part == "c2" else "divisibility"
        for piece in doc["pieces"]:
            if cid in piece["members"] and not oracle.divisible(monomial, piece["lambda"]):
                expected.append((kind, piece["id"]))

    def render(value):
        if not surfaces:
            return _pairs(value)
        return {part: [_pairs(p) for p in x] if part == "c1" else _pairs(x)
                for part, x in value.items()}

    components = {cid: {str(k): render(v) for k, v in entries.items()} for cid, entries in comps.items()}
    return {"kind": "class", "graph": path, "components": components}, sorted(expected)


def membership(rng: random.Random, plan: Plan) -> None:
    genera = assign_genera(rng, len(CHAIN_SIZES))
    for n, genus in zip(CHAIN_SIZES, genera):
        doc = chain_graph(rng, genus, n)
        path = plan.add(f"chain_n{n}.json", doc)
        kinds = ["degree0", "degree2-point", "degree2-surface"] + (["degree1"] if genus else [])
        for j in range(6):
            perturbation = rng.choice(kinds) if j % 2 else None
            cls, expected, residue = graph_class(rng, doc, path, perturbation)
            cpath = plan.add(f"class_n{n}_{j}.json", cls)
            q = plan.query(f"check/n{n}/{j}", ["check", path, cpath],
                           partial(oracle.check_graph_verdict, expected, residue))
            if (n, j) == (CHAIN_SIZES[0], 0):
                plan.warmup = q
    for name, doc, _, top in _xrays(rng):
        path = plan.add(f"{name}.json", doc)
        for j in range(4):
            cls, expected = xray_class(rng, doc, path, bool(j % 2), min(top, CLASS_DEGREES))
            cpath = plan.add(f"class_{name}_{j}.json", cls)
            plan.query(f"xray-check/{name}/{j}", ["xray-check", path, cpath],
                       partial(oracle.check_xray_verdict, expected))
    plan.params = {"interior_points": list(CHAIN_SIZES), "genera": genera,
                   "graph_classes": 6, "xray_classes": 4,
                   "degrees": {"graph": 4, "rank2": CLASS_DEGREES, "rank3": CUBE_DEGREES[3]}}


# -- validate_batch -------------------------------------------------------------

BATCH_DIRS = 24
BATCH_GRAPHS = 60
BATCH_CUBES = 25
BATCH_CP3 = 10
MUTATED_SHARE = 0.2


def _mutate_graph(rng: random.Random, doc: dict) -> list[str]:
    """Plant one violation in a valid chain graph; return the expected codes."""
    lower, upper = oracle.ordered_surfaces(doc)
    options = ["weight-signs", "genus-mismatch", "self-intersection"]
    if doc["edges"]:
        options.append("edge-weights")
    choice = rng.choice(options)
    if choice == "weight-signs":
        v = rng.choice(doc["isolated"])
        doc["edges"] = [e for e in doc["edges"] if v["id"] not in (e["from"], e["to"])]
        v["weights"] = [abs(w) for w in v["weights"]]
        return ["euler-sum", "weight-signs"]
    if choice == "genus-mismatch":
        upper["genus"] += 1
        return ["genus-mismatch"]
    if choice == "self-intersection":
        lower["self_intersection"] = str(oracle.extremal_labels(doc)[lower["id"]] + 1)
        return ["euler-sum", "self-intersection"]
    edge = rng.choice(doc["edges"])
    edge["ell"] = 5
    edge.pop("area", None)
    return ["edge-weights"]


def _batch_documents(rng: random.Random) -> list[tuple[object, tuple[int, list[str]]]]:
    """One directory: the same mix of sizes, genera and planted violations in
    every directory and for every seed; the seed picks the contents."""
    docs: list[tuple[object, tuple[int, list[str]]]] = []
    labelled = set(rng.sample(range(BATCH_GRAPHS), BATCH_GRAPHS * 3 // 10))
    mutated = set(rng.sample(range(BATCH_GRAPHS), round(BATCH_GRAPHS * MUTATED_SHARE)))
    for i in range(BATCH_GRAPHS):
        doc = chain_graph(rng, i % 3, 1 + i % 6, edges=True)
        if i in labelled:
            for s, label in oracle.extremal_labels(doc).items():
                next(x for x in doc["surfaces"] if x["id"] == s)["self_intersection"] = str(label)
        docs.append((doc, (1, _mutate_graph(rng, doc)) if i in mutated else (0, [])))
    xrays = [cube_xray(rng, 2, i % 3, [rng.randint(-3, 3) for _ in range(2)]) for i in range(BATCH_CUBES)]
    xrays += [cp3_xray((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(BATCH_CP3)]
    mutated = set(rng.sample(range(len(xrays)), round(len(xrays) * MUTATED_SHARE)))
    for i, doc in enumerate(xrays):
        if i in mutated:
            piece = rng.choice(doc["pieces"])
            piece["lambda"] = [2 * x for x in piece["lambda"]]
        docs.append((doc, (1, ["character-not-primitive"]) if i in mutated else (0, [])))
    good = json.dumps(chain_graph(rng, 0, 2), indent=2)
    docs.append(("{ not json\n", (2, ["parse"])))
    docs.append((good[: len(good) // 2], (2, ["parse"])))
    missing = chain_graph(rng, 1, 3)
    del missing["edges"]
    docs.append((missing, (2, ["schema"])))
    floats = chain_graph(rng, 0, 2)
    floats["isolated"][0]["weights"] = [1.5, -1]
    docs.append((floats, (2, ["schema"])))
    bad_dim = cp3_xray()
    bad_dim["pieces"][0]["dim"] = 3
    docs.append((bad_dim, (2, ["schema"])))
    return docs


def validate_batch(rng: random.Random, plan: Plan) -> None:
    for d in range(BATCH_DIRS):
        docs = _batch_documents(rng)
        expected = {}
        for index, (doc, outcome) in zip(rng.sample(range(len(docs)), len(docs)), docs):
            name = f"doc{index:03d}.json"
            plan.add(f"dir{d}/{name}", doc)
            expected[name] = outcome
        directory = f"{plan.root}/dir{d}"
        q = plan.query(f"validate/dir{d}/json", ["validate", directory, "--format", "json"],
                       partial(oracle.check_batch, expected, False))
        if d == 0:
            plan.warmup = q
        if d % 2 == 0:
            plan.query(f"validate/dir{d}/fail-fast",
                       ["validate", directory, "--format", "json", "--fail-fast"],
                       partial(oracle.check_batch, expected, True))
    plan.params = {"directories": BATCH_DIRS, "files_per_directory": len(docs),
                   "mutated_share": MUTATED_SHARE}


WORKLOADS = {
    "graph_basis": graph_basis,
    "xray_basis": xray_basis,
    "membership": membership,
    "validate_batch": validate_batch,
}
