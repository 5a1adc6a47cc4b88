"""File formats, commands, exit codes and canonical report output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cychom.catalog import dual_numbers, ground_field, scrambled_dim3
from cychom.cli import (JobSpec, algebra_to_doc, format_rational, main,
                        parse_algebra_file, parse_component_file,
                        parse_tower_file, run)
from cychom.errors import ParseError, ValidationError
from cychom.linalg import QQ

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_format_rational():
    assert format_rational(QQ(3)) == "3"
    assert format_rational(QQ(-7, 2)) == "-7/2"
    assert format_rational(QQ(4, 2)) == "2"


def test_parse_shipped_algebras():
    dual = parse_algebra_file(DATA / "algebras" / "dual_numbers.json")
    assert dual.dim == 2
    assert dual.unit == {0: QQ(1)}
    assert dual.basis_labels == ("one", "x")
    for name in ("ground_field", "cyclic2", "cyclic3", "cyclic4", "mat2",
                 "hecke_s3_s2", "random_dim3"):
        a = parse_algebra_file(DATA / "algebras" / f"{name}.json")
        assert a.dim >= 1


def test_algebra_doc_roundtrip(tmp_path):
    for a in (dual_numbers(), ground_field(), scrambled_dim3()):
        doc = algebra_to_doc(a)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        back = parse_algebra_file(path)
        assert back.dim == a.dim
        assert back.table == a.table
        assert back.unit == a.unit
        assert back.basis_labels == a.basis_labels


def write(tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="line 1"):
        parse_algebra_file(write(tmp_path, "{not json"))
    with pytest.raises(ParseError, match="out of range"):
        parse_algebra_file(write(tmp_path, {
            "dim": 1, "table": [[[[3, "1"]]]]}))
    with pytest.raises(ParseError, match="not num or num/den"):
        parse_algebra_file(write(tmp_path, {
            "dim": 1, "table": [[[[0, "1.5"]]]]}))
    with pytest.raises(ParseError, match="integers or strings"):
        parse_algebra_file(write(tmp_path, {
            "dim": 1, "table": [[[[0, 1.5]]]]}))
    with pytest.raises(ParseError, match="unknown key"):
        parse_algebra_file(write(tmp_path, {
            "dim": 1, "table": [[[]]], "extra": 0}))
    with pytest.raises(ParseError, match="1 x 1"):
        parse_algebra_file(write(tmp_path, {"dim": 1, "table": []}))
    with pytest.raises(ParseError):
        parse_algebra_file(tmp_path / "absent.json")


def test_validation_error_names_triple(tmp_path):
    # (e0 e0) e1 = e1 e1 = 0 but e0 (e0 e1) = e1: fails first at (0, 0, 1)
    path = write(tmp_path, {
        "dim": 2,
        "table": [[[[1, "1"]], [[0, "1"]]], [[[0, "1"]], []]]})
    with pytest.raises(ValidationError, match=r"\(0, 0, 1\)"):
        parse_algebra_file(path)
    assert parse_algebra_file(path, validate=False).dim == 2


def test_parse_tower_files():
    ds = parse_tower_file(DATA / "towers" / "s3_tower.json")
    assert [a.dim for a in ds.stages] == [2, 6]
    ds = parse_tower_file(DATA / "towers" / "z4_tower.json")
    assert [a.dim for a in ds.stages] == [2, 4]


def test_parse_tower_stages_and_maps(tmp_path):
    dual = algebra_to_doc(dual_numbers())
    path = write(tmp_path, {
        "stages": [dual, dual],
        "maps": [[["1", "0"], ["0", "1"]]]})
    ds = parse_tower_file(path)
    assert [a.dim for a in ds.stages] == [2, 2]
    with pytest.raises(ParseError, match="need 1 maps"):
        parse_tower_file(write(tmp_path, {"stages": [dual, dual],
                                          "maps": []}))


def test_parse_component_file():
    comps, gl_rank = parse_component_file(
        DATA / "components" / "torus_quotients.json")
    assert [c.rank for c in comps] == [1, 1, 2, 3]
    assert gl_rank is None
    comps, gl_rank = parse_component_file(
        DATA / "components" / "rank2_model.json")
    assert gl_rank == 2
    assert [c.rank for c in comps] == [2, 1]


def test_hp_exit_codes(capsys):
    code, out = run_cli(["hp", str(DATA / "algebras" / "ground_field.json"),
                         "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["hp_even"], report["hp_odd"]) == (1, 0)
    assert report["status"] == "ESTABLISHED"
    assert report["certificate"]["vanishing_bound"] == 0
    code, out = run_cli(["hp", str(DATA / "algebras" / "dual_numbers.json"),
                         "--format", "json"], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "NOT_ESTABLISHED"
    assert report["hh_dims"] == [2, 1, 1, 1, 1]


def test_hh_hc_reports(capsys):
    path = str(DATA / "algebras" / "cyclic2.json")
    code, out = run_cli(["hh", path, "--format", "json", "--certificate",
                         "--max-degree", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [2, 0, 0, 0]
    assert report["max_degree"] == 3
    assert report["certificate"]["vanishing_bound"] == 0
    code, out = run_cli(["hc", path, "--format", "json",
                         "--max-degree", "3"], capsys)
    assert code == 0
    assert json.loads(out)["dims"] == [2, 0, 2, 0]


def test_identities_command(capsys):
    code, out = run_cli(
        ["identities", str(DATA / "algebras" / "mat2.json"),
         "--format", "json", "--max-degree", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["boundary_squared"] is True
    assert report["anticommutator"] is True
    assert report["second_squared"] is True
    assert report["witness"] is None


def test_check_command(capsys, tmp_path):
    code, out = run_cli(["check", str(DATA / "algebras" / "mat2.json"),
                         "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 4
    assert report["associative"] is True
    assert report["max_degree"] is None
    bad = write(tmp_path, {
        "dim": 2,
        "table": [[[[1, "1"]], [[0, "1"]]], [[[0, "1"]], []]]})
    code, out = run_cli(["check", str(bad), "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "validation"
    assert "(0, 0, 1)" in report["message"]
    code, out = run_cli(["check", str(tmp_path / "nope.json")], capsys)
    assert code == 1


def test_size_cap_and_override(capsys):
    path = str(DATA / "algebras" / "dual_numbers.json")
    code, out = run_cli(["hh", path, "--format", "json",
                         "--cap-dim", "1"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "size_cap"
    code, out = run_cli(["hh", path, "--format", "json",
                         "--cap-dim", "1", "--i-know"], capsys)
    assert code == 0
    # below degree four the cap does not apply
    code, out = run_cli(["hh", path, "--format", "json", "--cap-dim", "1",
                         "--max-degree", "3"], capsys)
    assert code == 0


def test_order_cap_exit(capsys, tmp_path):
    path = write(tmp_path, {"components": [
        {"rank": 2, "generators": [[[1, 1], [0, 1]]], "label": "shear"}]})
    code, out = run_cli(["orbifold", str(path), "--format", "json"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "size_cap"


def test_tower_command(capsys):
    code, out = run_cli(["tower", str(DATA / "towers" / "s3_tower.json"),
                         "--format", "json", "--max-degree", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["stage_dims"] == [2, 6]
    assert report["hh"]["final_dims"] == [3, 0, 0, 0]
    assert report["hh"]["filtration"][0][0] == 2
    assert report["hh"]["monotone"] is True
    assert report["hp"]["status"] == "ESTABLISHED"
    assert report["hp"]["stage_even"] == [2, 3]
    assert report["hp"]["stage_odd"] == [0, 0]


def test_tower_builds_each_stage_once(capsys, monkeypatch):
    from cychom import mixed
    original = mixed.build_mixed_complex
    built = []

    def counting(a, *args, **kwargs):
        built.append(a.dim)
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cychom") and \
                vars(module).get("build_mixed_complex") is original:
            monkeypatch.setattr(module, "build_mixed_complex", counting)
    code, _ = run_cli(["tower", str(DATA / "towers" / "z4_tower.json"),
                       "--format", "json", "--max-degree", "3"], capsys)
    assert code == 0
    assert sorted(built) == [2, 4]


@pytest.mark.parametrize("mutate", [
    lambda table: table[0].pop(),
    lambda table: table[2].__setitem__(1, "x"),
    lambda table: table[3].__setitem__(0, None),
], ids=["short-first-row", "string-entry", "null-entry"])
def test_malformed_group_table_is_a_parse_error(capsys, tmp_path, mutate):
    doc = json.loads((DATA / "towers" / "z4_tower.json").read_text())
    mutate(doc["group"])
    code, out = run_cli(["tower", str(write(tmp_path, doc)), "--format",
                         "json"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "parse"


def test_tower_without_certificate(capsys, tmp_path):
    dual = algebra_to_doc(dual_numbers())
    path = write(tmp_path, {"stages": [dual, dual],
                            "maps": [[["1", "0"], ["0", "1"]]]})
    code, out = run_cli(["tower", str(path), "--format", "json",
                         "--max-degree", "3"], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["hp"]["status"] == "NOT_ESTABLISHED"
    assert report["hh"]["final_dims"] == [2, 1, 1, 1]


def test_orbifold_command(capsys):
    path = str(DATA / "components" / "torus_quotients.json")
    code, out = run_cli(["orbifold", path, "--format", "json", "--oracle"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    rows = [c["betti"] for c in report["components"]]
    assert rows == [[1, 1], [1, 0], [1, 1, 0], [1, 1, 0, 0]]
    assert (report["even"], report["odd"]) == (4, 3)
    assert report["oracle_checked"] is True
    assert report["warnings"] == []
    code, out = run_cli(
        ["orbifold", str(DATA / "components" / "rank2_model.json"),
         "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["even"], report["odd"]) == (2, 2)


def test_json_reports_roundtrip(capsys, tmp_path):
    cases = [
        ["hh", str(DATA / "algebras" / "cyclic3.json"), "--max-degree", "2"],
        ["hp", str(DATA / "algebras" / "ground_field.json")],
        ["hp", str(DATA / "algebras" / "dual_numbers.json")],
        ["check", str(DATA / "algebras" / "mat2.json")],
        ["orbifold", str(DATA / "components" / "rank2_model.json")],
        ["tower", str(DATA / "towers" / "z4_tower.json"),
         "--max-degree", "3"],
        ["check", str(write(tmp_path, "{broken"))],
    ]
    for args in cases:
        _, out = run_cli(args + ["--format", "json"], capsys)
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out
        assert parsed["tool"] == "cychom"
        assert parsed["version"]
        assert "input_sha256" in parsed


def test_text_format_header(capsys):
    code, out = run_cli(["check", str(DATA / "algebras" / "mat2.json")],
                        capsys)
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("cychom ")
    assert "mat2.json" in first
    assert "sha256" in first


def test_argument_errors(capsys):
    assert main(["frobnicate", "x.json"]) == 1
    assert main(["hh"]) == 1
    assert main(["hh", "x.json", "--max-degree", "-1"]) == 1
    assert main(["hh", "x.json", "--cap-dim", "0"]) == 1


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cychom.cli", "identities",
         str(DATA / "algebras" / "ground_field.json"), "--max-degree", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "boundary_squared: yes" in result.stdout
