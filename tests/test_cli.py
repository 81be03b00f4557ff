"""Command-line interface: output formats, exit codes, batch mode, env wiring."""

import json
import subprocess
import sys

import pytest

import fixtures
from equicoh.cli import main


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
