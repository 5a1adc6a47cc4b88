"""Tests of the benchmark itself: tracer counts, clean bindings, a checker that fails.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_report  # noqa: E402

HH_CYCLIC2 = ["hh", "data/algebras/cyclic2.json", 2]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _bindings():
    """Every traced name as bound in every loaded cychom module."""
    import cychom.linalg
    out = {("SparseMatrix", "__matmul__"):
           cychom.linalg.SparseMatrix.__matmul__}
    names = {name for _, name, _ in tracing.TRACED}
    for modname, module in sys.modules.items():
        if modname.startswith("cychom"):
            for name in names & set(vars(module)):
                out[(modname, name)] = vars(module)[name]
    return out


def _child(trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        child.main({"job": HH_CYCLIC2, "trace": trace})
    return json.loads(buf.getvalue())


def test_traced_hh_counts_exactly():
    msg = _child(trace=True)
    assert msg["code"] == 0
    assert json.loads(msg["report"])["dims"] == [2, 0, 0]
    layers = msg["layers"]
    # hh at degree 2 builds n_max = 3 once and ranks b~1, b~2 and b~3
    assert layers["linalg.eliminations"] == 3
    assert layers["mixed.builds"] == 1
    assert layers["linalg.repeat_eliminations"] == 0
    assert layers["mixed.repeat_builds"] == 0
    assert layers["linalg.matmuls"] == 0


def test_wrappers_reach_every_binding_and_are_removed():
    before = _bindings()
    assert not any(hasattr(f, "__wrapped__") for f in before.values())
    with tracing.Tracer():
        during = _bindings()
        assert all(hasattr(f, "__wrapped__") for f in during.values())
    assert _bindings() == before
    _child(trace=False)
    assert _bindings() == before
    _child(trace=True)
    assert _bindings() == before


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: sum(range(200000)), "inner")
    outer = tracer._wrap(lambda: inner(), "outer")
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_s["outer"] < tracer.self_s["inner"]

    def work_then_fail():
        sum(range(200000))
        raise ValueError("refused")

    failing = tracer._wrap(work_then_fail, "failing")
    caller = tracer._wrap(lambda: pytest.raises(ValueError, failing),
                          "caller")
    caller()
    assert tracer.calls["failing"] == 1
    assert tracer.self_s["caller"] < tracer.self_s["failing"]


def test_default_seed_reproduces_data_files():
    for workload in WORKLOADS.values():
        assert workload.input_text(DEFAULT_SEED) == \
            Path(workload.source).read_text(encoding="utf-8")


def test_checker_counts_a_wrong_answer_as_failed():
    workload = replace(WORKLOADS["identities-z4"], name="hh-cyclic2",
                       command="hh", max_degree=2,
                       source="data/algebras/cyclic2.json", seeded=False,
                       expected={"dims": [2, 0, 1]})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record, result = run.run_once(ROOT, spec, workload, DEFAULT_SEED,
                                  seconds=1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "dims = [2, 0, 0], expected [2, 0, 1]" in record["problems"][0]
    right = replace(workload, expected={"dims": [2, 0, 0]})
    record, result = run.run_once(ROOT, spec, right, DEFAULT_SEED,
                                  seconds=1, trace=False)
    assert result["correct"] and result["failed"] == 0


def test_checker_rejects_wrong_exit_code_and_missing_fields():
    workload = WORKLOADS["tower-z4"]
    report = json.dumps({"hh": {"final_dims": [4, 0, 0, 0],
                                "filtration": [[2, 0, 0, 0], [4, 0, 0, 0]]},
                         "hp": {"status": "NOT_ESTABLISHED"}})
    problems = check_report(workload, 3, report)
    assert "exit code 3, expected 0" in problems
    assert "hp.status = 'NOT_ESTABLISHED', expected 'ESTABLISHED'" in problems
    assert "hp.stage_even missing" in problems
    assert check_report(workload, 0, "not json") == ["report is not JSON"]
