"""File formats, commands, exit codes and canonical report output."""

import hashlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cychom import cli, homology, linalg, mixed, towers
from cychom.algebra import Algebra
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
    # a trailing newline, and digits that are not ASCII
    for value in ("1.5", "1\n", "٣", "1/٢"):
        with pytest.raises(ParseError, match="not num or num/den"):
            parse_algebra_file(write(tmp_path, {
                "dim": 1, "table": [[[[0, value]]]]}))
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


# (e0 e0) e1 = 2 e0 e1 = 2 e1 but e0 (e0 e1) = e1: fails first at (0, 0, 1)
NONASSOCIATIVE = {"dim": 2, "table": [[[[0, 2]], [[1, 1]]], [[[1, 1]], []]]}


@pytest.mark.parametrize("command", ["hh", "hc"])
def test_homology_of_a_nonassociative_table_is_refused(capsys, tmp_path,
                                                       command):
    path = str(write(tmp_path, NONASSOCIATIVE))
    code, out = run_cli([command, path, "--format", "json", "--max-degree",
                         "2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "validation"
    assert "(0, 0, 1)" in report["message"]


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
    # hh -d12 builds C^13, which has 4 * 3^13 cells for Q[Z/4]; the
    # refusal comes before any build
    started = time.perf_counter()
    code, out = run_cli(["hh", str(DATA / "algebras" / "cyclic4.json"),
                         "--format", "json", "--max-degree", "12"], capsys)
    assert time.perf_counter() - started < 1
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "size_cap"
    assert report["message"] == \
        "chain space in degree 13 has 6377292 cells; cap 2000000"


def test_running_out_of_memory_is_a_size_cap_report(capsys, monkeypatch):
    # a job the caps admit can still exhaust memory; it gets a report and
    # exit 2, not a traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_mixed_complex", exhausted)
    code, out = run_cli(["hh", str(DATA / "algebras" / "mat2.json"),
                         "--format", "json", "--max-degree", "9"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "size_cap"
    assert report["message"] == "out of memory"
    assert report["command"] == "hh" and report["max_degree"] == 9


def test_deep_ground_field_is_fast(capsys):
    # C(Q) has 1 cell in degree 0 and none above, so nothing refuses
    # hh -d400; Tot_n still has n // 2 + 1 summands, so assembling D_n may
    # walk only its nonzero blocks
    started = time.perf_counter()
    code, out = run_cli(["hh", str(DATA / "algebras" / "ground_field.json"),
                         "--format", "json", "--max-degree", "400"], capsys)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(out)["dims"] == [1] + [0] * 400
    assert elapsed < 2


def diagonal_doc(dim, unital=True):
    """The algebra Q x ... x Q (dim copies) as an algebra-file document."""
    return algebra_to_doc(Algebra(
        dim, {(i, i): {i: 1} for i in range(dim)},
        unit={i: 1 for i in range(dim)} if unital else None))


@pytest.mark.parametrize("dim, over", [(17, 1), (2, 1), (2, 0)])
def test_one_guard_for_every_command(capsys, tmp_path, monkeypatch, dim,
                                     over):
    # without a unit, hh -d3 and identities -d4 both build Omega^4: the same
    # complex must get the same verdict, whatever the algebra's dimension
    monkeypatch.setattr(mixed, "CELL_CAP", dim ** 5 + dim ** 4 - over)
    path = str(write(tmp_path, diagonal_doc(dim, unital=False)))
    hh_code, hh_out = run_cli(["hh", path, "--format", "json",
                               "--max-degree", "3"], capsys)
    id_code, id_out = run_cli(["identities", path, "--format", "json",
                               "--max-degree", "4"], capsys)
    assert hh_code == id_code == (2 if over else 0)
    if over:
        hh_report, id_report = json.loads(hh_out), json.loads(id_out)
        assert hh_report["error"] == id_report["error"] == "size_cap"
        assert hh_report["message"] == id_report["message"]


@pytest.mark.parametrize("command, degree, dim, over", [
    pytest.param(command, degree, dim, over, id=f"{prefix}{dim}-{over}")
    for command, degree, prefix in (("identities", 4, ""), ("hp", 3, "hp-"),
                                    ("hh", 3, "hh-"), ("hc", 3, "hc-"))
    for dim, over in ((17, 1), (3, 1), (3, 0))])
def test_one_guard_refuses_the_normalized_complex(capsys, tmp_path,
                                                  monkeypatch, command,
                                                  degree, dim, over):
    # with a unit, identities -d4 and hp, hh and hc -d3 all build C^4 with
    # d (d-1)^4 cells
    cells = dim * (dim - 1) ** 4
    monkeypatch.setattr(mixed, "CELL_CAP", cells - over)
    path = str(write(tmp_path, diagonal_doc(dim)))
    code, out = run_cli([command, path, "--format", "json",
                         "--max-degree", str(degree)], capsys)
    assert code == (2 if over else 0)
    if over:
        assert json.loads(out)["message"] == \
            f"chain space in degree 4 has {cells} cells; cap {cells - 1}"


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("path", sorted((DATA / "algebras").glob("*.json")),
                         ids=lambda p: p.stem)
def test_hp_and_hh_agree_on_hochschild_dimensions(capsys, path, degree):
    # hp ranks C(A) as a one-stage tower, hh ranks it on its own
    args = [str(path), "--format", "json", "--max-degree", str(degree)]
    _, hp_out = run_cli(["hp", *args, "--certificate"], capsys)
    code, hh_out = run_cli(["hh", *args], capsys)
    assert code == 0
    assert json.loads(hp_out)["hh_dims"] == json.loads(hh_out)["dims"]


def test_order_cap_exit(capsys, tmp_path):
    path = write(tmp_path, {"components": [
        {"rank": 2, "generators": [[[1, 1], [0, 1]]], "label": "shear"}]})
    code, out = run_cli(["orbifold", str(path), "--format", "json"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "size_cap"


def test_orbifold_huge_rank_refused_before_work(capsys, tmp_path):
    # a rank that passes the parser but whose identity matrix alone would
    # need 10^8000 entries
    path = tmp_path / "huge.json"
    path.write_text('{"components": [{"label": "huge", "generators": [], '
                    '"rank": 1' + "0" * 4000 + "}]}")
    started = time.perf_counter()
    code, out = run_cli(["orbifold", str(path), "--format", "json"], capsys)
    assert time.perf_counter() - started < 1
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "size_cap"
    assert "work cap" in report["message"]


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


def record_builds(monkeypatch, complexes=None):
    """The dimensions of the algebras whose mixed complex builds complete;
    the complexes themselves go to complexes, when given."""
    original = mixed.build_mixed_complex
    built = []

    def counting(a, *args, **kwargs):
        mc = original(a, *args, **kwargs)
        built.append(a.dim)
        if complexes is not None:
            complexes.append(mc)
        return mc

    for name, module in list(sys.modules.items()):
        if name.startswith("cychom") and \
                vars(module).get("build_mixed_complex") is original:
            monkeypatch.setattr(module, "build_mixed_complex", counting)
    return built


def test_tower_builds_each_stage_once(capsys, monkeypatch):
    built = record_builds(monkeypatch)
    sources = []
    chain_map = towers.induced_chain_map

    def recording(f, n_max):
        sources.append(f.source.dim)
        return chain_map(f, n_max)

    monkeypatch.setattr(towers, "induced_chain_map", recording)
    code, _ = run_cli(["tower", str(DATA / "towers" / "z4_tower.json"),
                       "--format", "json", "--max-degree", "3"], capsys)
    assert code == 0
    assert sorted(built) == [2, 4]
    # one chain map per earlier stage, shared by the HH and HP steps
    assert sources == [2]


@pytest.mark.parametrize("command, path", [
    ("hh", "algebras/mat2.json"),
    ("hc", "algebras/cyclic4.json"),
    ("hp", "algebras/random_dim3.json"),
    ("tower", "towers/z4_tower.json"),
    ("tower", "towers/dual_tower.json"),
    ("identities", "algebras/mat2.json"),
])
def test_rank_commands_build_B_two_below_the_top(capsys, monkeypatch,
                                                 command, path):
    # the rank commands rank D_1 .. D_{n_max}, which read B~ through
    # n_max - 2 only; identities checks every B~ the chain spaces reach
    top = 1 if command == "identities" else 2
    complexes = []
    record_builds(monkeypatch, complexes)
    code, _ = run_cli([command, str(DATA / path), "--format", "json",
                       "--max-degree", "3"], capsys)
    assert code in (0, 3)
    assert complexes
    for mc in complexes:
        assert mc.n_max == (3 if command == "identities" else 4)
        assert sorted(mc.B_tilde) == list(range(mc.n_max - top + 1))
        assert sorted(mc.b_tilde) == list(range(1, mc.n_max + 1))


def test_tower_eliminates_each_total_differential_once_unassembled(
        capsys, monkeypatch):
    # hochschild_and_cyclic ranks each stage's D_n from its blocks, once,
    # and nothing assembles D_n: neither the rank path nor the filtration
    # matrices, which are built from the complexes' blocks
    assembled, differentials, views, eliminated = [], [], [], []
    total, blocks = homology.total_differential, homology._total_blocks
    echelon = linalg._echelon

    def assembling(mc, n):
        assembled.append((id(mc), n))
        return total(mc, n)

    def reading(mc, n):
        differentials.append((id(mc), n))
        return blocks(mc, n)

    class Recorded(linalg.BlockMatrix):
        def __init__(self, *args):
            super().__init__(*args)
            views.append(self)  # kept alive, so their ids stay distinct

    def recording(m, rhs_cols=0):
        eliminated.append(id(m))
        return echelon(m, rhs_cols)

    monkeypatch.setattr(homology, "total_differential", assembling)
    monkeypatch.setattr(homology, "_total_blocks", reading)
    monkeypatch.setattr(homology, "BlockMatrix", Recorded)
    monkeypatch.setattr(linalg, "_echelon", recording)
    code, _ = run_cli(["tower", str(DATA / "towers" / "z4_tower.json"),
                       "--format", "json", "--max-degree", "3"], capsys)
    assert code == 0
    assert assembled == []
    # two stages, D_1 .. D_4 each, every one eliminated exactly once
    assert len(differentials) == len(set(differentials)) == len(views) == 8
    assert all(eliminated.count(id(view)) == 1 for view in views)


def test_tower_refusal_costs_no_build(capsys, monkeypatch):
    # at -d3 the stages (dims 2 and 6) build Omega^4 with 3 * 2^4 = 48
    # cells and C^4 with 6 * 5^4 = 3750 cells; the final stage is refused,
    # and every stage is checked before any is built
    monkeypatch.setattr(mixed, "CELL_CAP", 1000)
    built = record_builds(monkeypatch)
    code, out = run_cli(["tower", str(DATA / "towers" / "s3_tower.json"),
                         "--format", "json", "--max-degree", "3"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "size_cap"
    assert built == []


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


LONG = "7" * 5000


@pytest.mark.parametrize("payload", [
    json.dumps({"dim": 1, "table": [[[[0, LONG]]]]}).encode(),
    ('{"dim": 1, "table": [[[[0, %s]]]]}' % LONG).encode(),
    json.dumps({"dim": 1, "table": [[[[0, "1/" + LONG]]]]}).encode(),
    b"[" * 100_000,
    b'{"dim": 1, "table": [[[[0, "1"]]]], "basis": ["\xff"]}',
], ids=["long-rational", "long-number", "long-denominator", "deep-nesting",
        "non-utf8"])
def test_malformed_bytes_are_parse_errors(capsys, tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    code, out = run_cli(["check", str(path), "--format", "json"], capsys)
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


@pytest.mark.parametrize("degree, reason", [
    (1, "stage 0 has no vanishing certificate within 1"),
    (2, "common bound 0 stabilizes at degrees 2, 3, beyond truncation 2"),
])
def test_tower_refusal_reasons(capsys, degree, reason):
    # at -d1 no stage has a bound <= -1; at -d2 both stages vanish above 0,
    # but the stabilized odd degree 3 exceeds the truncation
    code, out = run_cli(["tower", str(DATA / "towers" / "z4_tower.json"),
                         "--format", "json", "--max-degree", str(degree)],
                        capsys)
    assert code == 3
    assert json.loads(out)["hp"] == {"status": "NOT_ESTABLISHED",
                                     "reason": reason}


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


def test_oracle_names_the_components_it_skips(capsys, tmp_path):
    # the projector cross-check runs up to rank 6; a rank-7 reflection
    # group is still averaged, and the report says it was not cross-checked
    reflection = [[-1 if i == j == 0 else int(i == j) for j in range(7)]
                  for i in range(7)]
    path = write(tmp_path, {"components": [
        {"label": "seven-torus", "rank": 7, "generators": [reflection]},
        {"label": "circle", "rank": 1, "generators": []}]})
    code, out = run_cli(["orbifold", str(path), "--format", "json",
                         "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["components"][0]["betti"] == [1, 6, 15, 20, 15, 6, 1, 0]
    assert report["oracle_checked"] is True
    assert report["warnings"] == [
        "component 'seven-torus' has rank 7 > 6: projector cross-check "
        "skipped"]


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


def test_argument_errors(capsys, tmp_path):
    assert main(["frobnicate", "x.json"]) == 1
    assert main(["hh"]) == 1
    assert main(["hh", "x.json", "--max-degree", "-1"]) == 1
    assert main(["hh", "x.json", "--cap-dim", "0"]) == 1
    # every algebra is validated, and no command takes an option it would
    # ignore; valid inputs, so only the argument can fail, before any report
    nonassociative = str(write(tmp_path, NONASSOCIATIVE))
    mat2 = str(DATA / "algebras" / "mat2.json")
    components = str(DATA / "components" / "torus_quotients.json")
    tower = str(DATA / "towers" / "z4_tower.json")
    assert main(["hh", nonassociative, "--no-validate"]) == 1
    assert main(["check", mat2, "--max-degree", "3"]) == 1
    assert main(["orbifold", components, "--max-degree", "3"]) == 1
    assert main(["orbifold", components, "--certificate"]) == 1
    assert main(["hc", mat2, "--certificate"]) == 1
    assert main(["tower", tower, "--oracle"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, options", [
    ("check", []),
    ("hh", ["--certificate", "--max-degree"]),
    ("hc", ["--max-degree"]),
    ("hp", ["--certificate", "--max-degree"]),
    ("identities", ["--max-degree"]),
    ("tower", ["--max-degree"]),
    ("orbifold", ["--oracle"]),
])
def test_help_lists_only_the_options_a_command_reads(capsys, command,
                                                     options):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert sorted(listed - {"--help", "--format"}) == options


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cychom.cli", "identities",
         str(DATA / "algebras" / "ground_field.json"), "--max-degree", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "boundary_squared: yes" in result.stdout


# Prints the extension modules (.so) the interpreter has loaded so far.
_EXTENSIONS = (
    "import sys, importlib.machinery as mach; "
    "print(' '.join(sorted(name for name, mod in list(sys.modules.items()) "
    "if (getattr(mod, '__file__', None) or '')"
    ".endswith(tuple(mach.EXTENSION_SUFFIXES)))))")


def _fresh(code):
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split("\n")


def test_import_loads_no_unused_modules():
    # A fresh interpreter, since pytest itself imports dataclasses and inspect.
    # Every job pays for what `import cychom.cli` loads: records are plain
    # classes, argparse is loaded by build_parser and cychom.orbifold by the
    # orbifold command.  The modules every homology job runs stay eager.  The
    # input digest is CPython's own SHA-256: hashlib would load OpenSSL.
    jobs = [("tower", DATA / "towers" / "z4_tower.json", 3),
            ("identities", DATA / "algebras" / "cyclic4.json", 4)]
    probe = ("import io, sys, cychom.cli as cli\n"
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in "
             "('dataclasses', 'inspect', 'argparse', 'cychom'))))\n"
             + "".join(f"assert cli.run(cli.JobSpec({c!r}, {str(p)!r}, {d}, "
                       f"'json'), out=io.StringIO()) == 0\n"
                       for c, p, d in jobs)
             + "print(' '.join(m for m in ('hashlib', '_hashlib') "
             "if m in sys.modules))\n"
             "print(cli.sha256.__module__)\n" + _EXTENSIONS)
    loaded, hashing, sha_module, extensions, _ = _fresh(probe)
    loaded = set(loaded.split())
    unused = loaded & {"dataclasses", "inspect", "argparse", "cychom.orbifold"}
    assert not unused, unused
    assert {"cychom.towers", "cychom.homology"} <= loaded
    assert not hashing, hashing
    bare, _ = _fresh(_EXTENSIONS)
    added = set(extensions.split()) - set(bare.split())
    assert added <= {"_json", "_decimal", sha_module}, added


def test_input_digest_is_sha256_of_the_file():
    # every tower but dual_tower is certified at degree 3 (the dual numbers
    # never stabilize, exit 3); check and orbifold ignore the degree
    commands = {"algebras": "check", "components": "orbifold",
                "towers": "tower"}
    for path in sorted(DATA.glob("*/*.json")):
        report = io.StringIO()
        assert run(JobSpec(commands[path.parent.name], str(path), 3, "json"),
                   out=report) == (3 if path.name == "dual_tower.json"
                                   else 0)
        assert json.loads(report.getvalue())["input_sha256"] == \
            hashlib.sha256(path.read_bytes()).hexdigest(), path


def test_digest_falls_back_to_hashlib():
    # An interpreter without CPython's built-in SHA-256 modules
    path = DATA / "algebras" / "mat2.json"
    probe = ("import io, json, sys\n"
             "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
             "import hashlib, cychom.cli as cli\n"
             "assert cli.sha256 is hashlib.sha256\n"
             "report = io.StringIO()\n"
             f"assert cli.run(cli.JobSpec('check', {str(path)!r}, "
             "fmt='json'), out=report) == 0\n"
             "print(json.loads(report.getvalue())['input_sha256'])")
    digest, _ = _fresh(probe)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_jobspec_keywords_and_defaults():
    # bench/child.py builds its jobs this way
    job = JobSpec(command="tower", path="z4_tower.json", max_degree=3,
                  fmt="json")
    assert (job.command, job.path, job.max_degree, job.fmt) == \
        ("tower", "z4_tower.json", 3, "json")
    assert (job.certificate, job.oracle) == (False, False)
    job = JobSpec("hh", "a.json")
    assert (job.max_degree, job.fmt, job.certificate, job.oracle) == \
        (4, "text", False, False)
    with pytest.raises(AttributeError):
        job.extra = 1
