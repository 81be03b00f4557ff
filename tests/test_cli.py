"""Command-line interface: output formats, exit codes, batch mode, env wiring,
the canonical JSON writer and repeated in-process calls of ``main``."""

import argparse
import importlib.util
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
from equicoh import cli, errors, s1
from equicoh import graph as graph_module
from equicoh import xray as xray_module
from equicoh.cli import main
from equicoh.graph import format_rational, parse_graph
from equicoh.core import ComponentClass, Laurent, SurfaceClass
from equicoh.mpoly import MPoly, poly_to_pairs
from equicoh.s1 import (
    _class_from_sparse,
    _entry_to_dict,
    _image_vectors,
    check_membership,
    class_from_vector,
    class_to_dict,
    degree_slots,
    image_basis,
    localize,
    slot_value,
)
from equicoh.xray import check_membership_xray, image_basis_xray, parse_xray
from test_golden import EXTRA_DOCUMENTS


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    """Three-file directory: one valid, one invalid, one unparseable."""
    directory = tmp_path_factory.mktemp("batch")
    (directory / "g1.json").write_text(json.dumps(fixtures.g1_doc()))
    bad = fixtures.mutate(
        fixtures.g1_doc(), lambda d: d["isolated"][1].update(weights=[1, 1])
    )
    (directory / "bad_weights.json").write_text(json.dumps(bad))
    (directory / "broken.json").write_text("{ not json\n")
    return directory


def reference_read(path: str) -> str:
    """A file read through a text-mode handle, which decodes UTF-8 and
    translates newlines as it reads."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_cases() -> dict[str, bytes]:
    text = json.dumps(fixtures.g1_doc(), indent=2)
    broken = text.replace('"y"', '"y" "', 1)  # a JSON error a few lines in
    return {
        "crlf.json": text.replace("\n", "\r\n").encode(),
        "cr.json": broken.replace("\n", "\r").encode(),
        "bom.json": "\ufeff".encode() + text.encode(),
        "latin1.json": text.replace('"A"', '"\u00c5"').encode("latin-1"),
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(_read_cases()))
def test_files_read_as_the_text_mode_reference_reads_them(
    capsys, monkeypatch, tmp_path, name, fmt
):
    """CRLF and CR-only newlines, a byte order mark and bytes that are not
    UTF-8: one file, and a batch holding it, give the stdout, stderr and
    exit code of a text-mode read."""
    (tmp_path / name).write_bytes(_read_cases()[name])
    outcomes = []
    for read in (cli._read, reference_read):
        monkeypatch.setattr(cli, "_read", read)
        outcomes.append(
            [
                run(capsys, "validate", str(path), "--format", fmt)
                for path in (tmp_path / name, tmp_path)
            ]
        )
    assert outcomes[0] == outcomes[1]
    assert {status for status, _, _ in outcomes[0]} == ({0} if name == "crlf.json" else {2})


# -- validate -----------------------------------------------------------------


def test_validate_ok(capsys, data_dir):
    status, out, _ = run(capsys, "validate", str(data_dir / "g1.json"))
    assert status == 0
    assert out == "ok\n"


def test_validate_detects_xray_documents(capsys, data_dir):
    status, out, _ = run(capsys, "validate", str(data_dir / "cp3.json"))
    assert status == 0 and out == "ok\n"


def test_validate_violations_text(capsys, data_dir):
    status, out, _ = run(capsys, "validate", str(data_dir / "bad_weights.json"))
    assert status == 1
    lines = out.splitlines()
    assert lines and all(": " in line for line in lines)
    assert any(line.startswith("weight-signs:") for line in lines)


def test_validate_violations_json(capsys, data_dir):
    status, out, _ = run(
        capsys, "validate", str(data_dir / "bad_weights.json"), "--format", "json"
    )
    assert status == 1
    report = json.loads(out)
    assert all(set(v) == {"code", "message", "component-ids"} for v in report)
    assert any(v["code"] == "weight-signs" for v in report)


def test_validate_missing_file(capsys, data_dir):
    status, out, err = run(capsys, "validate", str(data_dir / "absent.json"))
    assert status == 2
    assert out == "" and err.startswith("error: ")


def test_validate_missing_file_json_envelope(capsys, data_dir):
    status, out, _ = run(
        capsys, "validate", str(data_dir / "absent.json"), "--format", "json"
    )
    assert status == 2
    doc = json.loads(out)
    assert doc["kind"] == "error" and doc["code"] == "io"


def test_validate_broken_json_reports_position(capsys, data_dir):
    status, _, err = run(capsys, "validate", str(data_dir / "broken.json"))
    assert status == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", " 3/4 "])
def test_validate_rejects_a_rational_outside_the_grammar(capsys, tmp_path, text):
    doc = fixtures.mutate(fixtures.g1_doc(), lambda d: d["isolated"][1].update(y=text))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(capsys, "validate", str(path))
    assert status == 2
    assert out == ""
    assert f"isolated[1]: cannot parse rational {text!r}" in err


def test_validate_batch_text(capsys, batch_dir):
    status, out, _ = run(capsys, "validate", str(batch_dir))
    assert status == 2
    lines = out.splitlines()
    assert lines[-1] == "g1.json: ok"
    assert any(line.startswith("bad_weights.json: weight-signs:") for line in lines)
    assert any(line.startswith("broken.json: error: ") for line in lines)


def test_validate_batch_json(capsys, batch_dir):
    status, out, _ = run(capsys, "validate", str(batch_dir), "--format", "json")
    assert status == 2
    doc = json.loads(out)
    assert doc["kind"] == "batch"
    by_path = {entry["path"]: entry for entry in doc["results"]}
    assert by_path["g1.json"]["status"] == 0 and by_path["g1.json"]["report"] == []
    assert by_path["bad_weights.json"]["status"] == 1
    assert by_path["broken.json"]["error"]["code"] == "parse"


DEEPLY_NESTED = "[" * 100_000


def test_validate_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEPLY_NESTED)
    status, out, err = run(capsys, "validate", str(path))
    assert status == 2
    assert out == "" and err == "error: document is nested too deeply to decode\n"
    status, out, _ = run(capsys, "basis", str(path), "--degree", "0", "--format", "json")
    assert status == 2
    assert json.loads(out)["code"] == "parse"


def test_validate_top_level_array_is_a_schema_error(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1]")
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert err == "error: top-level value must be an object\n"


def test_validate_batch_reports_every_file_beside_a_deeply_nested_one(capsys, tmp_path):
    (tmp_path / "deep.json").write_text(DEEPLY_NESTED)
    (tmp_path / "array.json").write_text("[1]")
    (tmp_path / "g1.json").write_text(json.dumps(fixtures.g1_doc()))
    bad = fixtures.mutate(
        fixtures.g1_doc(), lambda d: d["isolated"][1].update(weights=[1, 1])
    )
    (tmp_path / "bad_weights.json").write_text(json.dumps(bad))
    status, out, _ = run(capsys, "validate", str(tmp_path), "--format", "json")
    assert status == 2
    by_path = {entry["path"]: entry for entry in json.loads(out)["results"]}
    assert sorted(by_path) == ["array.json", "bad_weights.json", "deep.json", "g1.json"]
    assert by_path["deep.json"]["status"] == 2
    assert by_path["deep.json"]["error"]["code"] == "parse"
    assert by_path["array.json"]["error"]["code"] == "schema"
    assert by_path["bad_weights.json"]["status"] == 1
    assert by_path["g1.json"]["status"] == 0
    status, out, _ = run(capsys, "validate", str(tmp_path))
    assert status == 2
    assert "deep.json: error: document is nested too deeply to decode" in out.splitlines()
    assert out.splitlines()[-1] == "g1.json: ok"


NOT_A_GRAPH_OBJECT = {
    "kind": "error",
    "code": "schema",
    "message": "pieces[0].induced_graph: expected a graph object",
}


def _xray_with_induced_graph(tmp_path, value):
    doc = fixtures.mutate(fixtures.x2_doc(1), lambda d: d["pieces"][0].update(induced_graph=value))
    path = tmp_path / "induced.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("value", [[1], 7, '{"kind": "graph"}'])
def test_non_object_induced_graph_is_a_schema_error(capsys, data_dir, tmp_path, value):
    path = _xray_with_induced_graph(tmp_path, value)
    for argv in (
        ["validate", path],
        ["xray-validate", path],
        ["xray-basis", path, "--degree", "2"],
        ["xray-check", path, str(data_dir / "class_x2_const.json")],
    ):
        status, out, _ = run(capsys, *argv, "--format", "json")
        assert status == 2, argv
        assert json.loads(out) == NOT_A_GRAPH_OBJECT, argv
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert err == f"error: {NOT_A_GRAPH_OBJECT['message']}\n", argv


def test_validate_batch_reports_every_file_beside_a_non_object_induced_graph(capsys, tmp_path):
    _xray_with_induced_graph(tmp_path, [1])
    (tmp_path / "g1.json").write_text(json.dumps(fixtures.g1_doc()))
    (tmp_path / "x2.json").write_text(json.dumps(fixtures.x2_doc(1)))
    bad = fixtures.mutate(
        fixtures.g1_doc(), lambda d: d["isolated"][1].update(weights=[1, 1])
    )
    (tmp_path / "bad_weights.json").write_text(json.dumps(bad))
    for command in ("validate", "xray-validate"):
        status, out, _ = run(capsys, command, str(tmp_path), "--format", "json")
        assert status == 2
        by_path = {entry["path"]: entry for entry in json.loads(out)["results"]}
        assert sorted(by_path) == ["bad_weights.json", "g1.json", "induced.json", "x2.json"]
        assert by_path["induced.json"]["status"] == 2
        assert by_path["induced.json"]["error"] == {
            "code": "schema", "message": NOT_A_GRAPH_OBJECT["message"]
        }
        assert by_path["x2.json"] == {"path": "x2.json", "status": 0, "report": []}
    status, out, _ = run(capsys, "validate", str(tmp_path))
    assert status == 2
    lines = out.splitlines()
    assert f"induced.json: error: {NOT_A_GRAPH_OBJECT['message']}" in lines
    assert "g1.json: ok" in lines and lines[-1] == "x2.json: ok"
    assert any(line.startswith("bad_weights.json: weight-signs:") for line in lines)


def test_validate_batch_fail_fast(capsys, batch_dir):
    status, out, _ = run(capsys, "validate", str(batch_dir), "--fail-fast")
    assert status == 1
    lines = out.splitlines()
    assert all(line.startswith("bad_weights.json: ") for line in lines)


def test_xray_validate_rejects_graphs(capsys, data_dir):
    status, _, err = run(capsys, "xray-validate", str(data_dir / "g1.json"))
    assert status == 2
    assert err.startswith("error: xray: unknown field")


def test_xray_validate_ok(capsys, data_dir):
    status, out, _ = run(capsys, "xray-validate", str(data_dir / "x2_g1.json"))
    assert status == 0 and out == "ok\n"


def test_xray_validate_refuses_a_float_dimension(capsys, tmp_path):
    doc = fixtures.mutate(fixtures.x2_doc(1), lambda d: d["pieces"][0].update(dim=4.0))
    path = tmp_path / "x2_float_dim.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(capsys, "xray-validate", str(path))
    assert (status, out) == (2, "")
    assert err == 'error: pieces[0]: "dim" must be 2 or 4\n'


# -- poincare -----------------------------------------------------------------


def test_poincare_ordinary_text(capsys, data_dir):
    status, out, _ = run(capsys, "poincare", str(data_dir / "g1.json"))
    assert status == 0
    assert out.splitlines() == ["1 0 1 0 1", "numerator: 1 0 1 0 1"]


def test_poincare_equivariant_text(capsys, data_dir):
    status, out, _ = run(
        capsys, "poincare", str(data_dir / "g2_g1.json"),
        "--equivariant", "--max-degree", "4",
    )
    assert status == 0
    assert out.splitlines() == [
        "1 2 3 4 4",
        "numerator: 1 2 2 2 1",
        "denominator: (1 - t^2)^1",
    ]


def test_poincare_json(capsys, data_dir):
    status, out, _ = run(
        capsys, "poincare", str(data_dir / "g3.json"),
        "--equivariant", "--max-degree", "2", "--format", "json",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc == {
        "kind": "poincare",
        "equivariant": True,
        "coefficients": [1, 0, 2],
        "numerator": [1, 0, 1, 0, 1],
        "denominator_power": 1,
    }


def test_poincare_invalid_graph_reports(capsys, data_dir):
    status, out, _ = run(capsys, "poincare", str(data_dir / "bad_weights.json"))
    assert status == 1
    assert "weight-signs" in out


# -- basis --------------------------------------------------------------------


def test_basis_table(capsys, data_dir):
    status, out, _ = run(capsys, "basis", str(data_dir / "g1.json"), "--degree", "2")
    assert status == 0
    assert out.splitlines() == [
        "A.c  B.c  C.c",
        "1    0    -1",
        "0    1    2",
    ]


def test_basis_empty_degree(capsys, data_dir):
    status, out, _ = run(capsys, "basis", str(data_dir / "g1.json"), "--degree", "1")
    assert status == 0
    assert out == "no classes in degree 1\n"


def test_basis_json_documents_parse_back(capsys, data_dir):
    path = str(data_dir / "g2_g1.json")
    status, out, _ = run(capsys, "basis", path, "--degree", "2", "--format", "json")
    assert status == 0
    docs = json.loads(out)
    assert len(docs) == 3
    assert all(doc["kind"] == "class" and doc["graph"] == path for doc in docs)


def test_basis_degree_above_cutoff(capsys, data_dir):
    status, _, err = run(capsys, "basis", str(data_dir / "g1.json"), "--degree", "13")
    assert status == 1
    assert "cutoff" in err


def reference_table(document, basis, degree: int) -> str:
    """The basis table built densely: every cell through ``slot_value``,
    widths over every cell, as the CLI once printed it."""
    slots = degree_slots(document, degree)
    headers = [s.label for s in slots]
    rows = [[format_rational(slot_value(b, degree, s)) for s in slots] for b in basis]
    widths = [
        max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def reference_basis_output(document, basis, degree: int, fmt: str, path: str) -> str:
    """What ``basis`` and ``xray-basis`` print for ``basis``, built densely."""
    if fmt == "json":
        return cli._dump([class_to_dict(b, path) for b in basis]) + "\n"
    if not degree_slots(document, degree):
        return f"no classes in degree {degree}\n"
    return reference_table(document, basis, degree) + "\n"


BASIS_DOCUMENTS = {
    "g1": fixtures.g1_doc(),
    **{f"g2_{g}": fixtures.g2_doc(g) for g in range(3)},
    "g3": fixtures.g3_doc(),
    "x2_0": fixtures.x2_doc(0),
    "x2_1": fixtures.x2_doc(1),
    "cp3": fixtures.cp3_doc(),
    **{f"cube{r}_{g}": fixtures.cube_doc(r, g) for r in (2, 3) for g in range(3)},
    **{f"chain{n}_{g}": fixtures.chain_doc(n, g) for n in (1, 5, 17) for g in (0, 1, 2)},
}


def _parse_document(doc):
    return (parse_xray if doc["kind"] == "xray" else parse_graph)(doc)


def basis_vectors(document, degree: int):
    """The ``(slots, vectors)`` that ``basis`` or ``xray-basis`` writes."""
    return _image_vectors(document, degree, degree)


def reference_record_json(document, basis, graph_ref: str) -> str:
    """The basis JSON written from its classes' records, as the CLI wrote it
    before it wrote from vectors: the absent-component fragments encoded
    once and sliced, and each record through :func:`reference_write_record`."""
    if not basis:
        return "[]"
    ids = sorted({cid for cid, _, _ in document._fixed_components})
    position = {cid: i for i, cid in enumerate(ids)}
    fragments = [",\n      " + encode_basestring_ascii(cid) + ": {}" for cid in ids]
    absent = "".join(fragments)
    # fragments[i] is absent[offsets[i]:offsets[i + 1]]
    offsets = [0, *accumulate(map(len, fragments))]
    tail = '\n    },\n    "graph": ' + encode_basestring_ascii(graph_ref) + ',\n    "kind": "class"\n  }'
    parts: list[str] = []
    separator = "["
    for b in basis:
        parts.append(separator + '\n  {\n    "components": {')
        separator = ","
        records = sorted(
            (position[cid], cls) for cid, cls in b.components.items() if cid in position
        )
        cursor = 1  # the first component goes without a comma
        for i, cls in records:
            # the absent run before component i, then its fragment up to "{}"
            parts.append(absent[cursor:offsets[i + 1] - 2])
            reference_write_record(cls, parts)
            cursor = offsets[i + 1]
        parts.append(absent[cursor:])
        parts.append(tail)
    parts.append("\n]")
    return "".join(parts)


def reference_write_record(cls, parts: list[str]) -> None:
    """One component record at the component indent, from its parts: degrees
    as sorted strings, a surface's ``c0``, ``c1`` list and ``c2`` (a genus-0
    surface has ``"c1": []``), each part through :func:`reference_part_json`."""
    entries = cls.entries
    if not entries:
        parts.append("{}")
        return
    entry_nl, part_nl, item_nl = _ENTRY[0], _PART[0], _ITEM[0]
    separator = "{"
    for key, entry in sorted([(str(k), entry) for k, entry in entries.items()]):
        if type(entry) is SurfaceClass:
            c1 = f",{item_nl}".join([reference_part_json(x, _ITEM) for x in entry.c1])
            c1 = f"[{item_nl}{c1}{part_nl}]" if c1 else "[]"
            text = (
                f'{{{part_nl}"c0": {reference_part_json(entry.c0, _PART)},{part_nl}"c1": {c1},'
                f'{part_nl}"c2": {reference_part_json(entry.c2, _PART)}{entry_nl}}}'
            )
        else:
            text = reference_part_json(entry, _ENTRY)
        parts.append(f'{separator}{entry_nl}"{key}": {text}')
        separator = ","
    parts.append("\n      }")


def reference_layout(spaces: int) -> tuple[str, str, str, str]:
    """The line breaks of a part that starts on a line indented by
    ``spaces``: its own, its pairs', their elements', and the separator of
    the exponents one level further in, written out by hand."""
    newline = "\n" + " " * spaces
    return newline, newline + "  ", newline + "    ", "," + newline + "      "


# A record sits at the component indent of six spaces: the layouts of its
# entries, of a surface's parts and of the items of its H^1 list.
_ENTRY, _PART, _ITEM = reference_layout(8), reference_layout(10), reference_layout(12)


def reference_part_json(value, layout) -> str:
    """One part: a rational as its string (``"0"`` when zero), a polynomial
    as its ``[exponents, "p/q"]`` pairs sorted in descending exponent order,
    one element per line (``[]`` when zero)."""
    if type(value) is not MPoly:
        return f'"{value!s}"'
    terms = value.terms
    if not terms:
        return "[]"
    newline, pair, item, exponents = layout
    texts = [
        f'[{item}[{item}  {exponents.join(map(str, exps))}{item}],{item}"{terms[exps]!s}"{pair}]'
        if exps else f'[{item}[],{item}"{terms[exps]!s}"{pair}]'
        for exps in sorted(terms, reverse=True)
    ]
    return f"[{pair}" + f",{pair}".join(texts) + f"{newline}]"


def reference_sparse_table(basis, degree: int, slots) -> str:
    """The basis table written from its classes' records, as the CLI wrote
    it before it wrote from vectors: only the slots of the components a
    class holds records for are read through ``slot_value``."""
    by_component = {}
    for i, slot in enumerate(slots):
        by_component.setdefault(slot.component, []).append(i)
    widths = [len(slot.label) for slot in slots]
    rows = []
    for b in basis:
        cells = []
        for cid in b.components:
            for i in by_component.get(cid, ()):
                value = slot_value(b, degree, slots[i])
                if value:
                    text = format_rational(value)
                    cells.append((i, text))
                    widths[i] = max(widths[i], len(text))
        rows.append(cells)
    lines = ["  ".join(s.label.ljust(w) for s, w in zip(slots, widths)).rstrip()]
    zero = ["0".ljust(w) for w in widths]
    for cells in rows:
        row = zero.copy()
        for i, text in cells:
            row[i] = text.ljust(widths[i])
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(BASIS_DOCUMENTS))
def test_basis_output_matches_the_dense_reference(capsys, tmp_path, name):
    """Both formats at degrees 0-6, degrees without slots among them, equal
    the class documents written by ``_dump`` and the densely built table."""
    doc = BASIS_DOCUMENTS[name]
    path = str(tmp_path / f"{name}.json")
    Path(path).write_text(json.dumps(doc))
    document = _parse_document(doc)
    command, compute = (
        ("xray-basis", image_basis_xray) if doc["kind"] == "xray" else ("basis", image_basis)
    )
    for degree in range(7):
        basis = compute(document, degree)
        for fmt in ("text", "json"):
            status, out, _ = run(capsys, command, path, "--degree", str(degree), "--format", fmt)
            assert status == 0
            assert out == reference_basis_output(document, basis, degree, fmt, path), (
                degree, fmt,
            )


@pytest.mark.parametrize("name", ["g2_2", "x2_1", "cube3_1", "chain17_1"])
def test_the_basis_writers_match_the_dense_reference_on_any_sparse_classes(name):
    """Random sparse vectors, wide cells among them, with the first and the
    last component present and absent, and no vectors: the vector writers
    print the class documents written by ``_dump``, the densely built table
    and the bytes of the record writers they replace."""
    document = _parse_document(BASIS_DOCUMENTS[name])
    rng = random.Random(name)
    ref = "d\u00e9\"oc"
    for degree in range(5):
        slots = degree_slots(document, degree)
        n = len(slots)
        if not n:
            continue
        vectors = [[0] * n, [1] * n, [1] + [0] * (n - 1), [0] * (n - 1) + [-1]]
        for _ in range(6):
            vectors.append([
                Fraction(rng.randint(-10**rng.randint(0, 9), 10**6), rng.randint(1, 40))
                if rng.random() < 0.2 else 0
                for _ in range(n)
            ])
        for dense in ([], vectors):
            sparse = [{i: x for i, x in enumerate(v) if x} for v in dense]
            classes = [class_from_vector(document, degree, v) for v in dense]
            text = cli._basis_json(document, degree, slots, sparse, ref)
            assert text == cli._dump([class_to_dict(b, ref) for b in classes])
            assert text == reference_record_json(document, classes, ref)
            table = cli._basis_table(slots, sparse)
            assert table == reference_table(document, classes, degree)
            assert table == reference_sparse_table(classes, degree, slots)


# a text whose encoding holds the "\u0000" token of a NUL string, a quote,
# a backslash, a NUL, an e-acute and the text of an absent record
HOSTILE = ['"\0', '"', "\\", "\0", "\u00e9", '": {}']


@pytest.mark.parametrize("name", ["g2_0", "g2_1", "chain5_2", "cp3", "cube2_1", "x2_1"])
def test_hostile_ids_and_graph_refs_are_written_as_dump_writes_them(name):
    """Component ids and a graph ref holding quotes, backslashes, NULs, an
    e-acute and ``": {}"``, among them the token the layout is cut at: the
    basis JSON of graphs and x-rays is the text ``_dump`` gives the basis
    classes."""
    doc = BASIS_DOCUMENTS[name]
    records = doc["components"] if doc["kind"] == "xray" else doc["isolated"] + doc["surfaces"]
    text = json.dumps(doc)
    for n, record in enumerate(records):
        hostile = HOSTILE[n % len(HOSTILE)]
        cid = record["id"]
        text = text.replace(json.dumps(cid), json.dumps(f"{hostile}{cid}{hostile}"))
    document = _parse_document(json.loads(text))
    assert any('"\\u0000"' in encode_basestring_ascii(cid) for cid in document._kinds)
    ref = "".join(HOSTILE)
    written = 0
    for degree in range(5):
        slots, vectors = basis_vectors(document, degree)
        basis = [_class_from_sparse(document, degree, slots, v) for v in vectors]
        text = cli._basis_json(document, degree, slots, vectors, ref)
        assert text == cli._dump([class_to_dict(b, ref) for b in basis]), degree
        written += len(basis)
    assert written


@pytest.mark.parametrize("name", ["cube3_g1.json", "chain24_g1.json"])
def test_int_coefficients_print_as_the_equal_fractions(name):
    """The eliminator hands a basis its exact integers as ints; a vector or
    a class that holds them prints the same bytes as its twin holding the
    equal Fractions, through both vector writers and every detail that
    renders a coefficient.  The documents are the golden gate's cube and
    chain."""
    document = _parse_document(EXTRA_DOCUMENTS[name])
    graph = document.rank is None
    check = check_membership if graph else check_membership_xray
    held = set()
    for degree in range(5):
        slots, vectors = basis_vectors(document, degree)
        basis = [_class_from_sparse(document, degree, slots, v) for v in vectors]
        fractions = [{i: Fraction(x) for i, x in v.items()} for v in vectors]
        ints = [{i: int(x) if x.denominator == 1 else x for i, x in v.items()} for v in fractions]
        for twin in (vectors, ints):
            held.update(type(x) for v in twin for x in v.values())
            assert cli._basis_json(document, degree, slots, twin, name) == cli._basis_json(
                document, degree, slots, fractions, name
            )
            assert cli._basis_table(slots, twin) == cli._basis_table(slots, fractions)
        fractions = [_class_from_sparse(document, degree, slots, v) for v in fractions]
        ints = [_class_from_sparse(document, degree, slots, v) for v in ints]
        # units reach every membership detail, the degree-2 residue among them
        units = [
            [_class_from_sparse(document, degree, [s], {0: one}) for one in (1, Fraction(1))]
            for s in slots
        ]
        for x, y in [*zip(basis, fractions), *zip(ints, fractions), *units]:
            assert json.dumps(class_to_dict(x, name)) == json.dumps(class_to_dict(y, name))
            assert check(document, x).to_dict() == check(document, y).to_dict()
            assert [
                {k: str(entry) for k, entry in c.entries.items()} for c in x.components.values()
            ] == [{k: str(entry) for k, entry in c.entries.items()} for c in y.components.values()]
            if graph:
                assert repr(localize(document, x)) == repr(localize(document, y))
    if not graph:
        assert int in held  # an x-ray basis keeps the ints it was handed
    # Laurent and surface reprs of polynomials with int coefficients
    for value in (1, -3):
        terms = {(1, 0, 0): value, (0, 0, 1): 2}
        poly = MPoly._trusted(3, terms)
        twin = MPoly._trusted(3, {e: Fraction(c) for e, c in terms.items()})
        assert repr(Laurent({-1: poly})) == repr(Laurent({-1: twin}))
        assert repr(SurfaceClass(1, poly, (poly, poly), poly)) == repr(
            SurfaceClass(1, twin, (twin, twin), twin)
        )


def test_basis_json_writes_each_record_once_and_no_absent_component(capsys, monkeypatch, tmp_path):
    """On a 400-point chain the degree-2 basis has 403 classes over 402
    components and 806 records: the record writer visits each component a
    vector has a coordinate on once, and no other component."""
    path = tmp_path / "chain400.json"
    path.write_text(json.dumps(fixtures.chain_doc(400, 1)))
    records = []
    write = cli._write_record

    def counting(template, first, cells, parts):
        records.append(cells)
        return write(template, first, cells, parts)

    monkeypatch.setattr(cli, "_write_record", counting)
    status, out, _ = run(capsys, "basis", str(path), "--degree", "2", "--format", "json")
    assert status == 0
    basis = json.loads(out)
    assert len(basis) == 403 and all(len(b["components"]) == 402 for b in basis)
    assert len(records) == 806 and all(records)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_basis_query_builds_no_class_and_no_group_it_does_not_need(
    capsys, monkeypatch, data_dir, fmt
):
    """``basis`` and ``xray-basis`` write the kernel vectors themselves: no
    class and no record is built.  A degree without slots builds no
    constraint group (each group builds one constraint table), a degree
    with slots builds them."""
    calls = Counter()
    build = s1._class_from_sparse
    monkeypatch.setattr(
        s1, "_class_from_sparse", lambda *a: calls.update(["class"]) or build(*a)
    )
    trusted = ComponentClass._trusted.__func__
    monkeypatch.setattr(
        ComponentClass, "_trusted",
        classmethod(lambda cls, *a: calls.update(["record"]) or trusted(cls, *a)),
    )
    for module in (s1, xray_module):
        table = module._constraint_table
        monkeypatch.setattr(
            module, "_constraint_table",
            lambda *a, table=table: calls.update(["group"]) or table(*a),
        )
    d = str(data_dir)
    for command, name in (("basis", "g1.json"), ("xray-basis", "cp3.json")):
        for degree, slotless in (("1", True), ("2", False)):
            calls.clear()
            argv = (command, f"{d}/{name}", "--degree", degree, "--format", fmt)
            assert run(capsys, *argv)[0] == 0
            assert calls["class"] == calls["record"] == 0, argv
            assert (calls["group"] == 0) == slotless, argv


def reference_basis_json(document, basis, graph_ref: str) -> str:
    """The basis JSON as the CLI once wrote it: the absent-component
    fragments sliced as :func:`reference_record_json` slices them, and each record
    turned into its ``class_to_dict`` dicts and lists (``_entry_to_dict``,
    ``poly_to_pairs``) and written by the recursive ``_write``."""
    if not basis:
        return "[]"
    fmt = format_rational if document.rank is None else poly_to_pairs
    ids = sorted({cid for cid, _, _ in document._fixed_components})
    position = {cid: i for i, cid in enumerate(ids)}
    fragments = [",\n      " + encode_basestring_ascii(cid) + ": {}" for cid in ids]
    absent = "".join(fragments)
    offsets = [0, *accumulate(map(len, fragments))]
    tail = '\n    },\n    "graph": ' + encode_basestring_ascii(graph_ref) + ',\n    "kind": "class"\n  }'
    parts: list[str] = []
    separator = "["
    for b in basis:
        parts.append(separator + '\n  {\n    "components": {')
        separator = ","
        records = sorted(
            (position[cid], cls) for cid, cls in b.components.items() if cid in position
        )
        cursor = 1
        for i, cls in records:
            parts.append(absent[cursor:offsets[i + 1] - 2])
            entries = {str(k): _entry_to_dict(cls.entries[k], fmt) for k in sorted(cls.entries)}
            cli._write(entries, parts, "\n      ")
            cursor = offsets[i + 1]
        parts.append(absent[cursor:])
        parts.append(tail)
    parts.append("\n]")
    return "".join(parts)


@settings(max_examples=80, deadline=None)
@given(fixtures.basis_document_keys, st.integers(0, 6))
@example(("cp3", 0, 0), 4)
def test_the_record_writer_gives_the_reference_bytes(key, degree):
    """Both formats written from the basis vectors give the bytes of its
    classes' dicts and lists written by ``_dump`` and ``_write``, of the
    record writers they replace and of the dense table: zero parts as "0"
    or [], a genus-0 surface's empty H^1 list, one pair element per line,
    and degrees without slots."""
    document = fixtures.basis_document(*key)
    slots, vectors = basis_vectors(document, degree)
    basis = [_class_from_sparse(document, degree, slots, v) for v in vectors]
    assert basis == (image_basis if document.rank is None else image_basis_xray)(document, degree)
    ref = "d\u00e9\"oc"
    text = cli._basis_json(document, degree, slots, vectors, ref)
    assert text == reference_basis_json(document, basis, ref)
    assert text == reference_record_json(document, basis, ref)
    assert text == cli._dump([class_to_dict(b, ref) for b in basis])
    if slots:
        table = cli._basis_table(slots, vectors)
        assert table == reference_table(document, basis, degree)
        assert table == reference_sparse_table(basis, degree, slots)


@pytest.mark.parametrize("name", ["g1", "g2_0", "g2_2", "cp3", "cube2_0", "cube3_2"])
def test_the_record_writer_handles_any_record(name):
    """The record writer the vector writer replaced, kept as its oracle, on
    records of several degrees (written in the order of their keys as
    strings, "10" before "2"), empty records, zero entries of every part
    and Fractions with wide numerators: the bytes of ``_dump``."""
    document = _parse_document(BASIS_DOCUMENTS[name])
    rng = random.Random(name)
    degrees = (0, 1, 2, 3, 4, 10, 12)

    def wide(rng):
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 99)) if rng.random() < 0.5 else 0

    zero = fixtures.constant_class if document.rank is None else fixtures.constant_torus_class
    classes = [zero(document, 0)]
    for value in (fixtures.random_fraction, wide):
        for _ in range(4):
            if document.rank is None:
                classes.append(fixtures.random_class(document, rng, degrees, value))
            else:
                classes.append(fixtures.random_torus_class(
                    document._fixed_components, document.rank, rng, degrees, value
                ))
    assert any(len(b.components) < len(b.addressed()) for b in classes)
    assert any(len(cls.entries) > 1 for b in classes for cls in b.components.values())
    assert reference_record_json(document, classes, name) == cli._dump(
        [class_to_dict(b, name) for b in classes]
    )


# -- check and localize -------------------------------------------------------


def test_check_member(capsys, data_dir):
    status, out, _ = run(
        capsys, "check", str(data_dir / "g1.json"), str(data_dir / "class_g1_const.json")
    )
    assert status == 0 and out == "member\n"


def test_check_nonmember_lists_violations(capsys, data_dir):
    status, out, _ = run(
        capsys, "check", str(data_dir / "g1.json"), str(data_dir / "class_g1_pole.json")
    )
    assert status == 1
    kinds = [line.split(":")[0] for line in out.splitlines()]
    assert kinds == ["abbv-degree2", "localization-pole"]


def test_check_membership_json(capsys, data_dir):
    status, out, _ = run(
        capsys, "check", str(data_dir / "g2_g0.json"),
        str(data_dir / "class_g2g0_deg2.json"), "--format", "json",
    )
    assert status == 0
    assert json.loads(out) == {"kind": "membership", "member": True, "violations": []}


def test_check_class_against_wrong_graph(capsys, data_dir):
    status, _, err = run(
        capsys, "check", str(data_dir / "g2_g0.json"), str(data_dir / "class_g1_const.json")
    )
    assert status == 1
    assert "class addresses" in err


def test_localize_text(capsys, data_dir):
    status, out, _ = run(
        capsys, "localize", str(data_dir / "g1.json"), str(data_dir / "class_g1_pole.json")
    )
    assert status == 0
    assert out.splitlines() == ["1/2 * u^-1", "polynomial: no"]


def test_localize_member_is_polynomial(capsys, data_dir):
    status, out, _ = run(
        capsys, "localize", str(data_dir / "g1.json"), str(data_dir / "class_g1_const.json")
    )
    assert status == 0
    assert out.splitlines() == ["0", "polynomial: yes"]


def test_localize_json(capsys, data_dir):
    status, out, _ = run(
        capsys, "localize", str(data_dir / "g1.json"),
        str(data_dir / "class_g1_pole.json"), "--format", "json",
    )
    assert status == 0
    assert json.loads(out) == {
        "kind": "localization",
        "terms": {"-1": "1/2"},
        "polynomial": False,
    }


# -- euler --------------------------------------------------------------------


def test_euler_point_text(capsys, data_dir):
    status, out, _ = run(
        capsys, "euler", str(data_dir / "g1.json"), "--component", "B"
    )
    assert status == 0
    assert out == "-1 * u^2\n"


def test_euler_surface_json(capsys, data_dir):
    status, out, _ = run(
        capsys, "euler", str(data_dir / "g2_g1.json"),
        "--component", "Smin", "--format", "json",
    )
    assert status == 0
    assert json.loads(out) == {
        "kind": "euler",
        "component": "Smin",
        "component_kind": "surface",
        "terms": {"1": {"c0": "-1", "c1": ["0", "0"], "c2": "0"}},
    }


def test_euler_unknown_component(capsys, data_dir):
    status, _, err = run(
        capsys, "euler", str(data_dir / "g1.json"), "--component", "Z"
    )
    assert status == 1
    assert "error: " in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_euler_on_an_invalid_graph_prints_the_report(capsys, data_dir, fmt):
    path = str(data_dir / "bad_weights.json")
    status, out, err = run(capsys, "euler", path, "--component", "B", "--format", fmt)
    assert status == 1 and err == ""
    assert (status, out) == run(capsys, "validate", path, "--format", fmt)[:2]
    assert "weight-signs" in out


@pytest.mark.parametrize("command", ["basis", "check"])
def test_a_json_syntax_error_is_a_parse_error_with_its_position(capsys, data_dir, command):
    operand = ("--degree", "0") if command == "basis" else (str(data_dir / "class_g1_const.json"),)
    argv = (command, str(data_dir / "broken.json"), *operand)
    status, out, _ = run(capsys, *argv, "--format", "json")
    assert status == 2
    doc = json.loads(out)
    assert doc["kind"] == "error" and doc["code"] == "parse"
    assert doc["message"].endswith("(line 1, column 3)")
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err == f"error: {doc['message']}\n"


def test_euler_requires_component_flag(data_dir):
    with pytest.raises(SystemExit):
        main(["euler", str(data_dir / "g1.json")])


# -- x-ray subcommands --------------------------------------------------------


def test_xray_check_member(capsys, data_dir):
    status, out, _ = run(
        capsys, "xray-check", str(data_dir / "x2_g1.json"),
        str(data_dir / "class_x2_const.json"),
    )
    assert status == 0 and out == "member\n"


def test_xray_check_nonmember(capsys, data_dir):
    status, out, _ = run(
        capsys, "xray-check", str(data_dir / "x2_g1.json"),
        str(data_dir / "class_x2_skew.json"),
    )
    assert status == 1
    assert out.startswith("divisibility: piece PX0")


def test_xray_check_rejects_non_integer_exponents(capsys, data_dir, tmp_path):
    doc = json.loads((data_dir / "class_x2_const.json").read_text())
    doc["components"]["Smin_0"]["0"]["c0"] = [[[1.7, 0], "3"]]
    path = tmp_path / "class.json"
    path.write_text(json.dumps(doc))
    status, out, _ = run(
        capsys, "xray-check", str(data_dir / "x2_g1.json"), str(path), "--format", "json"
    )
    assert status == 2
    error = json.loads(out)
    assert error["code"] == "schema"
    assert error["message"] == (
        "components.Smin_0.0: exponents must be integers, got [1.7, 0]"
    )


def test_xray_basis_table(capsys, data_dir):
    status, out, _ = run(
        capsys, "xray-basis", str(data_dir / "cp3.json"), "--degree", "2"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "P0.c[1,0]", "P0.c[0,1]", "P1.c[1,0]", "P1.c[0,1]",
        "P2.c[1,0]", "P2.c[0,1]", "P3.c[1,0]", "P3.c[0,1]",
    ]
    assert len(lines) == 4


def test_xray_basis_json(capsys, data_dir):
    path = str(data_dir / "x2_g1.json")
    status, out, _ = run(capsys, "xray-basis", path, "--degree", "1", "--format", "json")
    assert status == 0
    docs = json.loads(out)
    assert len(docs) == 2 and all(doc["graph"] == path for doc in docs)


# -- configuration and argument handling --------------------------------------


def test_env_sets_max_degree(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "4")
    status, out, _ = run(
        capsys, "poincare", str(data_dir / "g1.json"), "--equivariant"
    )
    assert status == 0
    assert out.splitlines()[0] == "1 0 2 0 3"


def test_flag_overrides_env(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "4")
    status, out, _ = run(
        capsys, "poincare", str(data_dir / "g1.json"), "--equivariant",
        "--max-degree", "2",
    )
    assert status == 0
    assert out.splitlines()[0] == "1 0 2"


def test_env_raises_basis_cutoff(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "14")
    status, out, _ = run(capsys, "basis", str(data_dir / "g1.json"), "--degree", "13")
    assert status == 0
    assert out == "no classes in degree 13\n"


def test_bad_env_value(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "x")
    status, _, err = run(
        capsys, "poincare", str(data_dir / "g1.json"), "--equivariant"
    )
    assert status == 2
    assert "EQUICOH_MAX_DEGREE must be an integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "g1.json"),
        ("xray-validate", "x2_g1.json"),
        ("check", "g1.json", "class_g1_const.json"),
        ("xray-check", "x2_g1.json", "class_x2_const.json"),
        ("localize", "g1.json", "class_g1_const.json"),
        ("euler", "g1.json", "--component", "B"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_subcommand_without_a_cutoff_ignores_the_variable(capsys, data_dir, monkeypatch, argv):
    """Only ``poincare``, ``basis`` and ``xray-basis`` read a degree cutoff, so
    a bad ``EQUICOH_MAX_DEGREE`` changes nothing for the other subcommands."""
    argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
    monkeypatch.delenv("EQUICOH_MAX_DEGREE", raising=False)
    expected = run(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "abc")
    assert run(capsys, *argv) == expected


def test_negative_max_degree(capsys, data_dir):
    status, _, err = run(
        capsys, "poincare", str(data_dir / "g1.json"),
        "--equivariant", "--max-degree", "-1",
    )
    assert status == 2
    assert "max degree must be nonnegative" in err


def test_no_subcommand_is_usage_error(capsys):
    status = main([])
    assert status == 2


@pytest.mark.parametrize(
    "error, code, status",
    [
        (errors.ParseError, "parse", 2),
        (errors.SchemaError, "schema", 2),
        (cli.UsageError, "usage", 2),
        (OSError, "io", 2),
        (errors.InternalInconsistencyError, "inconsistency", 1),
        (errors.InputError, "input", 1),
    ],
)
def test_a_file_and_a_batch_of_it_report_an_error_alike(
    capsys, monkeypatch, tmp_path, error, code, status
):
    """The error codes and exit statuses the README documents, for a single
    file and for the same file as the one entry of a batch."""
    (tmp_path / "g1.json").write_text(json.dumps(fixtures.g1_doc()))

    def raising(path, strictly_xray):
        raise error("refused")

    monkeypatch.setattr(cli, "_validate_document", raising)
    single = run(capsys, "validate", str(tmp_path / "g1.json"), "--format", "json")
    assert single[0] == status
    assert json.loads(single[1]) == {"kind": "error", "code": code, "message": "refused"}
    batch = run(capsys, "validate", str(tmp_path), "--format", "json")
    assert batch[0] == status
    entry = {"path": "g1.json", "status": status, "error": {"code": code, "message": "refused"}}
    assert json.loads(batch[1]) == {"kind": "batch", "results": [entry]}


def test_unknown_format_rejected(data_dir):
    with pytest.raises(SystemExit):
        main(["validate", str(data_dir / "g1.json"), "--format", "yaml"])


# -- end-to-end determinism spot check ----------------------------------------


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "equicoh.cli", *argv],
        capture_output=True, timeout=120,
    )


def test_subprocess_outputs_are_byte_identical(data_dir):
    argv = ("basis", str(data_dir / "g2_g1.json"), "--degree", "2", "--format", "json")
    first = run_subprocess(*argv)
    second = run_subprocess(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout


def test_python_dash_m_equicoh_matches_the_in_process_call(capsys, data_dir):
    argv = ("basis", str(data_dir / "g2_g1.json"), "--degree", "2", "--format", "json")
    status, out, _ = run(capsys, *argv)
    child = subprocess.run(
        [sys.executable, "-m", "equicoh", *argv], capture_output=True, timeout=120
    )
    assert status == child.returncode == 0
    assert child.stdout == out.encode()


# -- the canonical JSON writer ------------------------------------------------


def canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def test_dump_matches_json_dumps_on_every_cli_payload(capsys, monkeypatch, data_dir, batch_dir):
    """Every ``--format json`` output is ``json.dumps(payload, indent=2,
    sort_keys=True)`` of its payload.  A basis is written from its vectors,
    not through ``_dump``: its payload is the class documents built from the
    vectors the command computed."""
    payloads = []
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda payload: payloads.append(payload) or dump(payload))
    bases = []
    compute = cli._image_vectors

    def recording(document, degree, max_degree):
        slots, vectors = compute(document, degree, max_degree)
        bases.append([_class_from_sparse(document, degree, slots, v) for v in vectors])
        return slots, vectors

    monkeypatch.setattr(cli, "_image_vectors", recording)
    d = str(data_dir)
    commands = [
        ("basis", f"{d}/g2_g1.json", "--degree", "2"),
        ("xray-basis", f"{d}/x2_g1.json", "--degree", "2"),
        ("validate", str(batch_dir)),
        ("validate", f"{d}/bad_weights.json"),
        ("validate", f"{d}/absent.json"),
        ("poincare", f"{d}/g2_g1.json"),
        ("poincare", f"{d}/g2_g1.json", "--equivariant"),
        ("localize", f"{d}/g1.json", f"{d}/class_g1_pole.json"),
        ("euler", f"{d}/g2_g1.json", "--component", "Smin"),
        ("euler", f"{d}/g1.json", "--component", "B"),
        ("check", f"{d}/g1.json", f"{d}/class_g1_pole.json"),
        ("xray-check", f"{d}/x2_g1.json", f"{d}/class_x2_skew.json"),
    ]
    for argv in commands:
        main([*argv, "--format", "json"])
        if argv[0].endswith("basis"):
            payloads.append([class_to_dict(b, argv[1]) for b in bases.pop()])
        assert capsys.readouterr().out == dump(payloads[-1]) + "\n"
    assert len(payloads) == len(commands) and not bases
    kinds = [p["kind"] if isinstance(p, dict) else p[0].get("kind", "report") for p in payloads]
    assert set(kinds) == {
        "class", "batch", "report", "error", "poincare", "localization", "euler", "membership"
    }
    circle, torus = payloads[0][0]["components"], payloads[1][0]["components"]
    assert circle["Smin"] == {} and circle["Smax"]["2"]["c1"] == ["0", "0"]
    assert torus["Smin_0"] == {} and torus["Smax_0"]["2"]["c1"] == [[], []]
    batch = payloads[2]["results"]
    assert any("error" in r for r in batch) and any(r.get("report") for r in batch)
    assert payloads[-2]["violations"] and payloads[-1]["violations"]
    for payload in payloads:
        assert dump(payload) == canonical(payload)


# Strings with quotes, backslashes, control characters and non-ASCII text.
json_strings = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x2FFFF, exclude_categories=("Cs",))
    | st.sampled_from('"\\\n\t\x00\x1f\x7f/\u00e9\u2028\U0001f600'),
    max_size=6,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_strings,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_strings, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values)
def test_dump_is_json_dumps_with_indent_and_sorted_keys(payload):
    assert cli._dump(payload) == canonical(payload)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, [1, {"x": 1.0}], {1: "a"}])
def test_dump_refuses_what_the_cli_never_emits(value):
    with pytest.raises(TypeError):
        cli._dump(value)


# -- repeated calls in one process --------------------------------------------


def test_library_functions_are_looked_up_on_every_call(capsys, monkeypatch, data_dir):
    """A wrapper bound over a library name in ``equicoh.cli`` after the parser
    exists is the function the next call runs, as a tracer needs."""
    d = str(data_dir)
    run(capsys, "basis", f"{d}/g1.json", "--degree", "2")
    calls = Counter()
    names = (
        "parse_graph", "validate_graph", "_image_vectors", "parse_xray", "parse_class_torus",
        "check_membership_xray",
    )
    for name in names:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args",
        lambda self, *args, **kwargs: parsers.append(self) or parse_args(self, *args, **kwargs),
    )
    assert run(capsys, "basis", f"{d}/g1.json", "--degree", "2")[0] == 0
    assert run(capsys, "xray-basis", f"{d}/cp3.json", "--degree", "2")[0] == 0
    assert run(capsys, "xray-check", f"{d}/x2_g1.json", f"{d}/class_x2_const.json")[0] == 0
    assert calls == {
        "parse_graph": 1, "validate_graph": 1, "_image_vectors": 2, "parse_xray": 2,
        "parse_class_torus": 1, "check_membership_xray": 1,
    }
    assert len(parsers) == 3 and all(p is parsers[0] for p in parsers)


def test_a_basis_call_computes_the_extremal_labels_once(capsys, monkeypatch, data_dir):
    """Validation and the basis that follows share one graph, so its labels
    are solved for once."""
    calls = []
    original = graph_module._extremal_labels
    monkeypatch.setattr(
        graph_module, "_extremal_labels", lambda g: calls.append(g) or original(g)
    )
    for degree in ("0", "2", "4"):
        calls.clear()
        argv = ("basis", str(data_dir / "g2_uneq.json"), "--degree", degree)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, degree


@pytest.mark.parametrize(
    "argv, documents",
    [
        (("basis", "g2_uneq.json", "--degree", "2"), 1),
        (("xray-basis", "x2_g1.json", "--degree", "2"), 5),
        (("xray-check", "x2_g1.json", "class_x2_const.json"), 5),
    ],
)
def test_a_query_validates_each_document_once(capsys, monkeypatch, data_dir, argv, documents):
    """Validation keeps its report on the document, so the compute entry
    points refuse invalid input without validating again: one validation of
    the graph, or of the x-ray and of each of its four induced graphs."""
    calls = []
    for module, name in ((graph_module, "_graph_violations"), (xray_module, "_xray_violations")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda d, original=original: calls.append(d) or original(d)
        )
    argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == len({id(d) for d in calls}) == documents


def traced_calls(capsys, *argv) -> dict[str, int]:
    """Calls per span name of ``bench/tracer.py`` over one in-process query;
    the tracer is imported from its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as trace:
        status = cli.main(list(argv))
    capsys.readouterr()
    assert status == 0
    return dict(zip(trace.names, trace.calls))


def test_the_tracer_tables_keep_each_layer_on_its_workload(capsys, data_dir):
    """The benchmark's per-layer tables read the tracer's spans, so each
    library layer must stay under the command it is measured on."""
    d = str(data_dir)
    basis = traced_calls(capsys, "basis", f"{d}/g2_g1.json", "--degree", "2")
    xray_basis = traced_calls(capsys, "xray-basis", f"{d}/x2_g1.json", "--degree", "2")
    xray_check = traced_calls(capsys, "xray-check", f"{d}/x2_g1.json", f"{d}/class_x2_const.json")
    # A basis query writes its kernel vectors without the public class
    # builders: the elimination is traced, the rest is the CLI's own time.
    for name in ("s1.image_basis", "xray.image_basis_xray"):
        assert basis[name] == 0 and xray_basis[name] == 0, name
    # Membership reads each piece's kept group: one substitution per
    # character (x2_g1 has two) and no public entry point per piece.
    assert xray_check["xray.check_membership_xray"] == 1
    assert xray_check["mpoly.unimodular_completion"] == 2
    for name in ("xray.piece_obstructions", "s1.torus_obstructions"):
        assert xray_check[name] == 0 and xray_basis[name] == 0, name
    assert basis["linalg.nullspace"] > 0 and xray_basis["linalg.nullspace"] > 0


def test_a_usage_error_leaves_the_parser_as_it_was(capsys, monkeypatch, data_dir):
    argv = ("basis", str(data_dir / "g2_g1.json"), "--degree", "2", "--format", "json")
    cli._build_parser.cache_clear()
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(["basis", str(data_dir / "g2_g1.json")])
    assert excinfo.value.code == 2
    assert "--degree" in capsys.readouterr().err
    assert run(capsys, *argv) == first
    assert first[0] == 0 and first[1]


def test_max_degree_variable_is_read_on_every_call(capsys, monkeypatch, data_dir):
    argv = ("basis", str(data_dir / "g1.json"), "--degree", "13")
    monkeypatch.delenv("EQUICOH_MAX_DEGREE", raising=False)
    status, _, err = run(capsys, *argv)
    assert status == 1 and "cutoff" in err
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "14")
    assert run(capsys, *argv) == (0, "no classes in degree 13\n", "")
    monkeypatch.setenv("EQUICOH_MAX_DEGREE", "12")
    assert run(capsys, *argv)[0] == 1
