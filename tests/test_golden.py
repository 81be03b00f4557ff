"""Golden CLI gate: exit status and stdout digest of every recorded command.

The commands run ``check``, ``xray-check``, ``basis``, ``xray-basis`` and
``localize`` in text and JSON on the fixture documents: members and
non-members of every violation kind, every small degree, the default
degree cutoffs, an invalid graph and a class addressed to the wrong graph;
bases also on a 24-point chain, on ids that JSON must escape and on the
rank-3 genus-1 cube.
Each command runs from inside the document directory with bare file names,
so the paths echoed in JSON output do not depend on where the test runs.

``tests/golden_cli.json`` holds the recorded ``[status, sha256 of stdout]``
pairs.  To record them again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixtures  # noqa: E402
from equicoh.cli import MAX_DEGREE_ENV, main  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _class(graph: str, components: dict) -> dict:
    return {"kind": "class", "graph": graph, "components": components}


def _surface(c0=0, c1=(), c2=0) -> dict:
    return {"c0": c0, "c1": list(c1), "c2": c2}


def _torus_surface(c0=(), c1=(), c2=()) -> dict:
    return {"c0": list(c0), "c1": [list(x) for x in c1], "c2": list(c2)}


def _twisted_doc() -> dict:
    doc = fixtures.g2_doc(1)
    doc["h1_identification"] = [[0, 1], [-1, 0]]
    return doc


# Ids that JSON must escape: a quote, a backslash, non-ASCII and non-BMP text.
ESCAPED_IDS = {"Smin": 'S"min', "Smax": "Smax\u00e9", "p000": "p\\000", "p002": "p002\U0001f600"}


def _escaped_doc() -> dict:
    doc = fixtures.chain_doc(4, 1)
    for item in doc["isolated"] + doc["surfaces"]:
        item["id"] = ESCAPED_IDS.get(item["id"], item["id"])
    return doc


SQUARE = ("Smin_0", "Smin_1", "Smax_0", "Smax_1")

EXTRA_DOCUMENTS = {
    "g2_twist.json": _twisted_doc(),
    "chain24_g1.json": fixtures.chain_doc(24, 1),
    "escaped.json": _escaped_doc(),
    "cube3_g1.json": fixtures.cube_doc(3, 1),
    # g1: points of weights (1,2), (-1,1), (-2,-1).
    "class_g1_member.json": _class("g1.json", {
        "A": {"0": 2, "2": 1, "4": 5}, "B": {"0": 2, "2": 1, "4": -1},
        "C": {"0": 2, "2": 1, "4": "1/3"},
    }),
    "class_g1_span.json": _class("g1.json", {
        "A": {"2": 1}, "B": {"2": 3}, "C": {"2": 5},
    }),
    "class_g1_deg0.json": _class("g1.json", {
        "A": {"0": 1}, "B": {"0": 2}, "C": {"0": 3},
    }),
    "class_g1_deg0_pole.json": _class("g1.json", {
        "A": {"0": 1}, "B": {"0": 0}, "C": {"0": 0},
    }),
    "class_g1_deg2.json": _class("g1.json", {
        "A": {"2": "1/2"}, "B": {"2": 0}, "C": {"2": "-3/2"},
    }),
    "class_g1_all.json": _class("g1.json", {
        "A": {"0": 1, "2": 1, "4": 2}, "B": {"0": -1}, "C": {"6": 7},
    }),
    # Two genus-1 surfaces, identity and twisted H^1 identification.
    "class_g2g1_member.json": _class("g2_g1.json", {
        "Smin": {"0": _surface(4), "1": _surface(c1=(1, 2)), "2": _surface(1, (), 3)},
        "Smax": {"0": _surface(4), "1": _surface(c1=(1, 2)), "2": _surface(0, (), 3)},
    }),
    "class_g2g1_h1.json": _class("g2_g1.json", {
        "Smin": {"1": _surface(c1=(1, 0))}, "Smax": {"1": _surface(c1=(0, 0))},
    }),
    "class_g2g1_mixed.json": _class("g2_g1.json", {
        "Smin": {"0": _surface(1), "1": _surface(c1=("1/2", -1)), "2": _surface(0, (), 1)},
        "Smax": {"0": _surface(2), "1": _surface(c1=(3, -1)), "3": _surface(c1=(1, 1))},
    }),
    "class_twist_member.json": _class("g2_twist.json", {
        "Smin": {"1": _surface(c1=(1, 2))}, "Smax": {"1": _surface(c1=(2, -1))},
    }),
    "class_twist_h1.json": _class("g2_twist.json", {
        "Smin": {"1": _surface(c1=(1, 2))}, "Smax": {"1": _surface(c1=(1, 2))},
    }),
    # Self-intersections -2 and +2 at the extremes.
    "class_uneq_member.json": _class("g2_uneq.json", {
        "Smin": {"2": _surface(1, (), 1)}, "Smax": {"2": _surface(1, (), 1)},
    }),
    "class_uneq_abbv.json": _class("g2_uneq.json", {
        "Smin": {"2": _surface(1)}, "Smax": {"2": _surface(0)},
    }),
    "class_uneq_poles.json": _class("g2_uneq.json", {
        "Smin": {"0": _surface(1), "4": _surface(0, (), 1)}, "Smax": {"0": _surface(0)},
    }),
    "class_g3_member.json": _class("g3.json", {
        "p": {"0": 3, "2": 3}, "S": {"0": _surface(3), "2": _surface(2, (), -1)},
    }),
    "class_g3_all.json": _class("g3.json", {
        "p": {"0": 1, "2": 1}, "S": {"0": _surface(2), "2": _surface(0, (), 1)},
    }),
    # x2(1): four genus-1 surfaces at the corners of the unit square.
    "class_x2_member.json": _class("x2_g1.json", {
        cid: {
            "0": _torus_surface([[[0, 0], "2"]]),
            "2": _torus_surface(
                [[[1, 0], 1]] if cid.startswith("Smax") else [],
                (),
                [[[0, 0], 1]],
            ),
        }
        for cid in SQUARE
    }),
    "class_x2_pole.json": _class("x2_g1.json", {
        cid: {"2": _torus_surface([], (), [[[0, 0], 1]] if cid == "Smin_0" else [])}
        for cid in SQUARE
    }),
    "class_x2_h1.json": _class("x2_g1.json", {
        cid: {"1": _torus_surface([], ([[[0, 0], 1]], []) if cid == "Smax_1" else ([], []))}
        for cid in SQUARE
    }),
    "class_x2_mixed.json": _class("x2_g1.json", {
        cid: {
            "0": _torus_surface([[[0, 0], i]]),
            "2": _torus_surface([[[0, 1], "1/2"]], (), [[[0, 0], -1]] if i % 2 else []),
        }
        for i, cid in enumerate(SQUARE)
    }),
    # cp3: four points, all six pieces 2-dimensional.
    "class_cp3_const.json": _class("cp3.json", {
        pid: {"0": [[[0, 0], 5]]} for pid in ("P0", "P1", "P2", "P3")
    }),
    "class_cp3_member.json": _class("cp3.json", {
        "P0": {"0": [[[0, 0], 1]]},
        "P1": {"0": [[[0, 0], 1]], "2": [[[1, 0], 1]]},
        "P2": {"0": [[[0, 0], 1]], "2": [[[0, 1], 1]]},
        "P3": {"0": [[[0, 0], 1]], "2": [[[1, 0], 1], [[0, 1], 1]]},
    }),
    "class_cp3_div.json": _class("cp3.json", {
        "P0": {"2": [[[1, 0], 1]]}, "P1": {}, "P2": {}, "P3": {},
    }),
    "class_cp3_mixed.json": _class("cp3.json", {
        "P0": {"0": [[[0, 0], 1]], "4": [[[2, 0], 1], [[1, 1], -1]]},
        "P1": {"0": [[[0, 0], 2]]},
        "P2": {"2": [[[0, 1], 3]]},
        "P3": {},
    }),
}

CIRCLE_CLASSES = {
    "g1.json": [
        "class_g1_const.json", "class_g1_pole.json", "class_g1_member.json",
        "class_g1_span.json", "class_g1_deg0.json", "class_g1_deg0_pole.json",
        "class_g1_deg2.json", "class_g1_all.json",
    ],
    "g2_g0.json": ["class_g2g0_deg2.json", "class_g1_const.json"],
    "g2_g1.json": ["class_g2g1_member.json", "class_g2g1_h1.json", "class_g2g1_mixed.json"],
    "g2_twist.json": ["class_twist_member.json", "class_twist_h1.json"],
    "g2_uneq.json": ["class_uneq_member.json", "class_uneq_abbv.json", "class_uneq_poles.json"],
    "g3.json": ["class_g3_member.json", "class_g3_all.json"],
    "bad_weights.json": ["class_g1_const.json"],
}

XRAY_CLASSES = {
    "x2_g1.json": [
        "class_x2_const.json", "class_x2_skew.json", "class_x2_member.json",
        "class_x2_pole.json", "class_x2_h1.json", "class_x2_mixed.json",
    ],
    "cp3.json": [
        "class_cp3_const.json", "class_cp3_member.json", "class_cp3_div.json",
        "class_cp3_mixed.json",
    ],
}

GRAPHS = ["g1.json", "g2_g0.json", "g2_g1.json", "g2_g2.json", "g2_twist.json",
          "g2_uneq.json", "g3.json"]


def _commands() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for graph, classes in CIRCLE_CLASSES.items():
        for name in classes:
            out.append(("check", graph, name))
            out.append(("localize", graph, name))
    for xray, classes in XRAY_CLASSES.items():
        out.extend(("xray-check", xray, name) for name in classes)
    for graph in GRAPHS:
        out.extend(("basis", graph, "--degree", str(k)) for k in range(6))
    out += [
        ("basis", "g1.json", "--degree", "12"),
        ("basis", "g1.json", "--degree", "13"),
        ("basis", "g2_g1.json", "--degree", "3", "--max-degree", "2"),
        ("basis", "bad_weights.json", "--degree", "2"),
    ]
    # Long runs of absent components, escaped ids and wide cells.
    for graph in ("chain24_g1.json", "escaped.json"):
        out.extend(("basis", graph, "--degree", str(k)) for k in range(5))
    for xray in ("x2_g1.json", "cp3.json", "cube3_g1.json"):
        out.extend(("xray-basis", xray, "--degree", str(k)) for k in range(5))
    out += [
        ("xray-basis", "cp3.json", "--degree", "8"),
        ("xray-basis", "cp3.json", "--degree", "9"),
        ("xray-basis", "x2_g1.json", "--degree", "3", "--max-degree", "2"),
    ]
    return [argv + ("--format", fmt) for argv in out for fmt in ("text", "json")]


COMMANDS = _commands()


def _key(argv) -> str:
    return " ".join(argv)


def write_documents(directory: Path) -> None:
    fixtures.write_data_files(directory)
    for name, doc in EXTRA_DOCUMENTS.items():
        (directory / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_command(argv) -> tuple[int, str]:
    """Exit status and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    return status, out.getvalue()


def run_all(directory: Path) -> dict[str, tuple[int, str]]:
    """Every command, run from inside ``directory`` with the cutoff unset."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        patch.delenv(MAX_DEGREE_ENV, raising=False)
        return {_key(argv): run_command(argv) for argv in COMMANDS}


def _digest(status: int, stdout: str) -> list:
    return [status, hashlib.sha256(stdout.encode()).hexdigest()]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_documents(directory)
    return run_all(directory)


def test_cli_output_matches_the_recording(outputs):
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(outputs)
    mismatches = [key for key, run in outputs.items() if _digest(*run) != recorded[key]]
    assert not mismatches


def test_recording_covers_members_and_every_violation_kind(outputs):
    kinds: dict[str, set] = {"check": set(), "xray-check": set()}
    for key, (status, stdout) in outputs.items():
        command = key.split()[0]
        if command in kinds and key.endswith("json") and status < 2 and stdout.startswith("{"):
            decision = json.loads(stdout)
            if decision["kind"] == "membership":
                kinds[command].add("member" if decision["member"] else "non-member")
                kinds[command].update(v["kind"] for v in decision["violations"])
    assert kinds["check"] == {
        "member", "non-member", "degree0-constancy", "degree1-surface-match",
        "abbv-degree2", "localization-pole",
    }
    assert kinds["xray-check"] == {"member", "non-member", "divisibility", "localization-pole"}


def _write() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        write_documents(Path(scratch))
        table = {key: _digest(*run) for key, run in run_all(Path(scratch)).items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} commands in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
