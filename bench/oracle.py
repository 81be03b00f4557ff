"""Expected answers for the benchmark, computed without the equicoh package.

Everything here is exact integer or ``Fraction`` arithmetic written against
the mathematics, not against the library:

* closed-form equivariant Poincare series, whose coefficients are the image
  dimensions the ``basis`` and ``xray-basis`` queries must reproduce;
* the canonical slot order of the documented CLI output, so a printed basis
  can be read back as vectors;
* the linear conditions that cut out the image of the restriction map
  (degree-0 constancy, degree-1 surface matching and the degree-2 residue
  for chain graphs; divisibility by each piece's character for x-rays);
* reduced-echelon-form checks.

A returned basis is accepted when it has the closed-form size, is in
reduced echelon form in the printed slot order and every vector satisfies
the image conditions; together these pin it down uniquely.

Every ``check_*`` function returns ``None`` for a correct answer and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as cartesian
from math import comb

# -- closed-form series ---------------------------------------------------------


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def series_coefficient(numerator: list[int], power: int, k: int) -> int:
    """Coefficient of t^k in numerator(t) / (1 - t^2)^power."""
    total = 0
    for j, a in enumerate(numerator):
        if j <= k and (k - j) % 2 == 0:
            total += a * comb((k - j) // 2 + power - 1, power - 1)
    return total


def chain_series(genus: int, n: int) -> tuple[list[int], int]:
    """Two genus-g extremal surfaces and n interior points."""
    return [1, 2 * genus, n + 2, 2 * genus, 1], 1


def cube_series(rank: int, genus: int) -> tuple[list[int], int]:
    """Sigma_g x (S^2)^r with the torus rotating the sphere factors."""
    numerator = [1, 2 * genus, 1]
    for _ in range(rank):
        numerator = poly_mul(numerator, [1, 0, 1])
    return numerator, rank


CP3_SERIES = ([1, 0, 1, 0, 1, 0, 1], 2)

# -- chain graphs ---------------------------------------------------------------


def _h1_name(index: int, genus: int) -> str:
    return f"a{index + 1}" if index < genus else f"b{index - genus + 1}"


def extremal_labels(doc: dict) -> dict[str, Fraction]:
    """Self-intersections of the two extremal surfaces of a chain graph.

    Interior point p contributes e_p = 1/(m n) from its weight magnitudes;
    the extremal areas enter directly.
    """
    ys = [Fraction(v["y"]) for v in doc["isolated"] + doc["surfaces"]]
    y_min, y_max = min(ys), max(ys)
    sum_e = Fraction(0)
    sum_ye = Fraction(0)
    for v in doc["isolated"]:
        e = Fraction(1, abs(v["weights"][0] * v["weights"][1]))
        sum_e += e
        sum_ye += Fraction(v["y"]) * e
    areas = {Fraction(s["y"]): Fraction(s["area"]) for s in doc["surfaces"]}
    s_min, s_max = areas.get(y_min, 0), areas.get(y_max, 0)
    span = y_max - y_min
    out = {}
    for s in doc["surfaces"]:
        if Fraction(s["y"]) == y_min:
            out[s["id"]] = (sum_ye + s_min - sum_e * y_max - s_max) / span
        else:
            out[s["id"]] = (sum_e * y_min + s_max - sum_ye - s_min) / span
    return out


def ordered_surfaces(doc: dict) -> list[dict]:
    """The (lower, upper) surfaces of a chain graph."""
    return sorted(doc["surfaces"], key=lambda s: Fraction(s["y"]))


def graph_slots(doc: dict, k: int) -> list[tuple[str, str, int, str]]:
    """(component, part, index, label) in the documented canonical order."""
    kinds = {v["id"]: ("point", 0) for v in doc["isolated"]}
    kinds.update({s["id"]: ("surface", s["genus"]) for s in doc["surfaces"]})
    slots = []
    for cid in sorted(kinds):
        kind, g = kinds[cid]
        if kind == "point":
            if k % 2 == 0:
                slots.append((cid, "c", 0, f"{cid}.c"))
        elif k % 2 == 0:
            slots.append((cid, "c0", 0, f"{cid}.c0"))
            if k >= 2:
                slots.append((cid, "c2", 0, f"{cid}.c2"))
        else:
            for i in range(2 * g):
                slots.append((cid, "c1", i, f"{cid}.{_h1_name(i, g)}"))
    return slots


def graph_residue(doc: dict, point_values: dict, c0: dict, c2: dict) -> Fraction:
    """The u^-1 coefficient of the localization sum of a degree-2 class.

    Sum over points of c_p / (w1 w2), plus over surfaces of
    sign * c2 - e * c0 with sign -1 at the minimum and +1 at the maximum.
    """
    total = Fraction(0)
    for v in doc["isolated"]:
        total += Fraction(point_values.get(v["id"], 0)) / (v["weights"][0] * v["weights"][1])
    labels = extremal_labels(doc)
    lower, upper = ordered_surfaces(doc)
    for s, sign in ((lower, -1), (upper, 1)):
        total += sign * Fraction(c2.get(s["id"], 0)) - labels[s["id"]] * Fraction(c0.get(s["id"], 0))
    return total


def graph_image_violation(doc: dict, k: int, vector: list[Fraction]) -> str | None:
    values = {label: x for (_, _, _, label), x in zip(graph_slots(doc, k), vector)}
    if k == 0 and len(set(values.values())) > 1:
        return "degree-0 vector is not constant"
    if k == 1:
        lower, upper = ordered_surfaces(doc)
        g = lower["genus"]
        for i in range(2 * g):
            name = _h1_name(i, g)
            if values[f"{lower['id']}.{name}"] != values[f"{upper['id']}.{name}"]:
                return "degree-1 vector does not match across the surfaces"
    if k == 2:
        points = {v["id"]: values[f"{v['id']}.c"] for v in doc["isolated"]}
        c0 = {s["id"]: values[f"{s['id']}.c0"] for s in doc["surfaces"]}
        c2 = {s["id"]: values[f"{s['id']}.c2"] for s in doc["surfaces"]}
        if graph_residue(doc, points, c0, c2):
            return "degree-2 vector has a nonzero residue"
    return None


def _graph_class_vector(doc: dict, k: int, cls: dict, path: str) -> list[Fraction]:
    if cls.get("kind") != "class" or cls.get("graph") != path:
        raise ValueError("not a class document for this graph")
    comps = cls["components"]
    if sorted(comps) != sorted(v["id"] for v in doc["isolated"] + doc["surfaces"]):
        raise ValueError("class addresses the wrong components")
    if any(set(entries) - {str(k)} for entries in comps.values()):
        raise ValueError("class carries entries outside the queried degree")
    vector = []
    for cid, part, index, _ in graph_slots(doc, k):
        entry = comps[cid].get(str(k))
        if entry is None:
            vector.append(Fraction(0))
        elif part == "c":
            vector.append(Fraction(entry))
        elif part == "c1":
            vector.append(Fraction(entry["c1"][index]))
        else:
            vector.append(Fraction(entry[part]))
    return vector


# -- x-rays ---------------------------------------------------------------------


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the given total degree, descending lexicographic."""
    if degree < 0:
        return []
    found = [e for e in cartesian(range(degree + 1), repeat=nvars) if sum(e) == degree]
    return sorted(found, reverse=True)


def xray_slots(doc: dict, k: int) -> list[tuple[str, str, int, tuple, str]]:
    """(component, part, index, exponents, label) in the documented order."""
    r = doc["rank"]
    slots = []
    for c in sorted(doc["components"], key=lambda c: c["id"]):
        cid = c["id"]
        parts = []
        if "genus" not in c:
            if k % 2 == 0:
                parts.append(("c", 0, "c", k // 2))
        elif k % 2 == 0:
            parts.append(("c0", 0, "c0", k // 2))
            parts.append(("c2", 0, "c2", (k - 2) // 2))
        else:
            g = c["genus"]
            parts.extend(("c1", i, _h1_name(i, g), (k - 1) // 2) for i in range(2 * g))
        for part, index, name, degree in parts:
            for exps in monomials(r, degree):
                label = f"{cid}.{name}[{','.join(map(str, exps))}]"
                slots.append((cid, part, index, exps, label))
    return slots


def divisible(poly: dict, lam: list[int]) -> bool:
    """Whether a homogeneous polynomial is divisible by the form lam . u.

    Handles the characters the benchmark generates: coordinate vectors in
    any rank, and arbitrary primitive characters in rank 2.
    """
    nonzero = [i for i, x in enumerate(lam) if x]
    if len(nonzero) == 1:
        return all(exps[nonzero[0]] >= 1 for exps, c in poly.items() if c)
    if len(lam) != 2:
        raise ValueError(f"no divisibility test for character {lam}")
    point = (lam[1], -lam[0])
    return sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in poly.items()) == 0


def poly_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def xray_image_violation(doc: dict, k: int, vector: list[Fraction]) -> str | None:
    """Every part must agree modulo each piece's character across its members."""
    polys: dict[tuple, dict] = {}
    for (cid, part, index, exps, _), x in zip(xray_slots(doc, k), vector):
        if x:
            polys.setdefault((cid, part, index), {})[exps] = x
    keys = {(part, index) for _, part, index, _, _ in xray_slots(doc, k)}
    for piece in doc["pieces"]:
        a, b = piece["members"]
        for part, index in keys:
            diff = poly_sub(polys.get((a, part, index), {}), polys.get((b, part, index), {}))
            if not divisible(diff, piece["lambda"]):
                return f"{part} differs along piece {piece['id']} by a non-multiple"
    return None


def _pairs(value) -> dict:
    return {tuple(exps): Fraction(c) for exps, c in value}


def _xray_class_vector(doc: dict, k: int, cls: dict, path: str) -> list[Fraction]:
    if cls.get("kind") != "class" or cls.get("graph") != path:
        raise ValueError("not a class document for this x-ray")
    comps = cls["components"]
    if sorted(comps) != sorted(c["id"] for c in doc["components"]):
        raise ValueError("class addresses the wrong components")
    if any(set(entries) - {str(k)} for entries in comps.values()):
        raise ValueError("class carries entries outside the queried degree")
    vector = []
    for cid, part, index, exps, _ in xray_slots(doc, k):
        entry = comps[cid].get(str(k))
        if entry is None:
            poly = {}
        elif part == "c":
            poly = _pairs(entry)
        elif part == "c1":
            poly = _pairs(entry["c1"][index])
        else:
            poly = _pairs(entry[part])
        vector.append(poly.get(exps, Fraction(0)))
    return vector


# -- bases ----------------------------------------------------------------------


def rref_violation(vectors: list[list[Fraction]]) -> str | None:
    leads = []
    for v in vectors:
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return "zero vector in the basis"
        if leads and lead <= leads[-1]:
            return "leading columns do not increase"
        if v[lead] != 1:
            return "leading entry is not 1"
        leads.append(lead)
    for row, v in enumerate(vectors):
        if any(v[lead] for other, lead in enumerate(leads) if other != row):
            return "pivot column not cleared"
    return None


def _parse_table(stdout: str, labels: list[str], k: int) -> list[list[Fraction]]:
    if not labels:
        if stdout != f"no classes in degree {k}\n":
            raise ValueError("expected the empty-degree message")
        return []
    lines = stdout.splitlines()
    if lines[0].split() != labels:
        raise ValueError("table header is not the canonical slot order")
    rows = [[Fraction(x) for x in line.split()] for line in lines[1:]]
    if any(len(row) != len(labels) for row in rows):
        raise ValueError("ragged table row")
    return rows


def check_basis(kind: str, doc: dict, path: str, k: int, fmt: str, expected_size: int,
                stdout: str, status: int) -> str | None:
    """Verify a ``basis`` (kind "graph") or ``xray-basis`` (kind "xray") answer."""
    if status != 0:
        return f"exit status {status}"
    if kind == "graph":
        labels = [s[3] for s in graph_slots(doc, k)]
        to_vector, image_violation = _graph_class_vector, graph_image_violation
    else:
        labels = [s[4] for s in xray_slots(doc, k)]
        to_vector, image_violation = _xray_class_vector, xray_image_violation
    try:
        if fmt == "json":
            vectors = [to_vector(doc, k, cls, path) for cls in json.loads(stdout)]
        else:
            vectors = _parse_table(stdout, labels, k)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable basis: {exc}"
    if len(vectors) != expected_size:
        return f"basis has {len(vectors)} elements, the series says {expected_size}"
    reason = rref_violation(vectors)
    if reason:
        return reason
    for v in vectors:
        reason = image_violation(doc, k, v)
        if reason:
            return reason
    return None


# -- membership and validation verdicts -----------------------------------------


def check_graph_verdict(expected: list[str], residue: Fraction | None,
                        stdout: str, status: int) -> str | None:
    """``check`` text output: "member", or one "kind: detail" line per violation."""
    if not expected:
        return None if (status, stdout) == (0, "member\n") else "expected a member"
    if status != 1:
        return f"exit status {status} for a non-member"
    lines = stdout.splitlines()
    kinds = [line.split(": ", 1)[0] for line in lines]
    if kinds != expected:
        return f"violation kinds {kinds}, expected {expected}"
    if residue is not None:
        line = f"abbv-degree2: degree-2 localization relation fails with residue {residue}"
        if line not in lines:
            return f"degree-2 residue is not {residue}"
    return None


def check_xray_verdict(expected: list[tuple[str, str]], stdout: str, status: int) -> str | None:
    """``xray-check`` text output: one "kind: piece ID: detail" line per violation."""
    if not expected:
        return None if (status, stdout) == (0, "member\n") else "expected a member"
    if status != 1:
        return f"exit status {status} for a non-member"
    found = []
    for line in stdout.splitlines():
        kind, piece, _ = (line.split(": ", 2) + ["", ""])[:3]
        found.append((kind, piece.removeprefix("piece ")))
    if sorted(found) != sorted(expected):
        return f"violations {sorted(found)}, expected {sorted(expected)}"
    return None


def check_batch(expected: dict[str, tuple[int, list[str]]], fail_fast: bool,
                stdout: str, status: int) -> str | None:
    """``validate DIR --format json``: per-file status and violation or error codes.

    ``expected`` maps file name to (status, codes); for status 2 the single
    code is the error code ("parse" or "schema").
    """
    names = sorted(expected)
    if fail_fast:
        first = next((i for i, n in enumerate(names) if expected[n][0]), len(names) - 1)
        names = names[: first + 1]
    try:
        results = json.loads(stdout)["results"]
        found = {}
        for entry in results:
            if "error" in entry:
                codes = [entry["error"]["code"]]
            else:
                codes = [v["code"] for v in entry["report"]]
            found[entry["path"]] = (entry["status"], codes)
        order = [entry["path"] for entry in results]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable batch report: {exc}"
    if order != names:
        return f"reported files {len(order)} differ from the {len(names)} expected"
    for name in names:
        if found[name] != expected[name]:
            return f"{name}: {found[name]}, expected {expected[name]}"
    worst = max(expected[n][0] for n in names)
    if status != worst:
        return f"exit status {status}, expected {worst}"
    return None
