"""Mutated documents never crash the command line.

A hypothesis test deletes or replaces one node of a fixture graph, x-ray
or class document, writes the pair to disk and drives
``equicoh.cli.main`` on it with every subcommand that reads it.  Each
command must end with exit status 0, 1 or 2; an exception escaping
``main`` fails the test.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
from equicoh import class_to_dict, image_basis_xray, parse_graph, parse_xray
from equicoh.cli import main


def _merged_class_doc(classes, ref: str) -> dict:
    """One class document holding the entries of several homogeneous classes."""
    components: dict = {}
    for alpha in classes:
        for cid, entries in class_to_dict(alpha, ref)["components"].items():
            components.setdefault(cid, {}).update(entries)
    return {"kind": "class", "graph": ref, "components": components}


def _graph_case(doc: dict) -> tuple[dict, dict, list]:
    graph = parse_graph(doc)
    member = fixtures.random_member(graph, random.Random(0), degrees=range(5))
    component = graph.component_ids()[0]
    commands = [
        ["validate", "{main}"],
        ["basis", "{main}", "--degree", "2"],
        ["check", "{main}", "{class}"],
        ["localize", "{main}", "{class}"],
        ["euler", "{main}", "--component", component],
    ]
    return doc, _merged_class_doc([member], "main.json"), commands


def _xray_case(doc: dict) -> tuple[dict, dict, list]:
    xray = parse_xray(doc)
    classes = [b for k in range(3) for b in image_basis_xray(xray, k)[:1]]
    commands = [
        ["validate", "{main}"],
        ["xray-validate", "{main}"],
        ["xray-basis", "{main}", "--degree", "2"],
        ["xray-check", "{main}", "{class}"],
    ]
    return doc, _merged_class_doc(classes, "main.json"), commands


CASES = {
    "g1": _graph_case(fixtures.g1_doc()),
    "g2_g1": _graph_case(fixtures.g2_doc(1)),
    "g3": _graph_case(fixtures.g3_doc()),
    "x2_g1": _xray_case(fixtures.x2_doc(1)),
    "cp3": _xray_case(fixtures.cp3_doc()),
}


def _paths(node, prefix=()):
    """Every node of a JSON tree as a key path, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key in node:
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _paths(item, prefix + (index,))


PATHS = {
    (name, target): list(_paths(case[0] if target == "main" else case[1]))
    for name, case in CASES.items()
    for target in ("main", "class")
}

DELETE, AS_TEXT, WRAP = "<delete>", "<as-text>", "<wrap>"
MUTATIONS = [
    DELETE, AS_TEXT, WRAP,
    None, True, 0, -1, 1, 2, 7, 1.5, "", "x", "1/0", "-3/2",
    [], [1], [[1, 0]], {}, {"kind": "graph"},
]


def _mutated(doc, path, mutation):
    out = copy.deepcopy(doc)
    if not path:
        return json.dumps(out) if mutation is AS_TEXT else [out] if mutation is WRAP else mutation
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation is DELETE:
        del parent[key]
    elif mutation is AS_TEXT:
        parent[key] = json.dumps(parent[key])
    elif mutation is WRAP:
        parent[key] = [parent[key]]
    else:
        parent[key] = copy.deepcopy(mutation)
    return out


def _index(name: str, path: tuple) -> int:
    return PATHS[(name, "main")].index(path)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


INDUCED = ("pieces", 0, "induced_graph")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CASES)),
    target=st.sampled_from(["main", "class"]),
    index=st.integers(min_value=0, max_value=10_000),
    mutation=st.sampled_from(MUTATIONS),
    fmt=st.sampled_from(["text", "json"]),
)
@example(name="x2_g1", target="main", index=_index("x2_g1", INDUCED), mutation=[1], fmt="text")
@example(name="x2_g1", target="main", index=_index("x2_g1", INDUCED), mutation=7, fmt="json")
@example(name="x2_g1", target="main", index=_index("x2_g1", INDUCED), mutation=AS_TEXT,
         fmt="json")
def test_mutated_documents_exit_with_a_documented_status(name, target, index, mutation, fmt):
    main_doc, class_doc, commands = CASES[name]
    paths = PATHS[(name, target)]
    path = paths[index % len(paths)]
    if target == "main":
        main_doc = _mutated(main_doc, path, mutation)
    else:
        class_doc = _mutated(class_doc, path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"main": Path(tmp) / "main.json", "class": Path(tmp) / "class.json"}
        files["main"].write_text(json.dumps(main_doc))
        files["class"].write_text(json.dumps(class_doc))
        for command in commands:
            argv = [part.format(**files) for part in command] + ["--format", fmt]
            status = _run(argv)
            assert status in (0, 1, 2), (argv, status)
