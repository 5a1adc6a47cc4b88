"""The error surface: one exception class per outcome of a CLI report.

errors defines the base class and one subclass per outcome, cli.run maps
each of the three error outcomes to its exit code and "error" kind, and
every subclass is raised somewhere in src/cychom, so a class that nothing
raises cannot come back.
"""

import ast
import inspect
import io
import json
from pathlib import Path

import pytest

from cychom import cli, errors
from cychom.errors import (CychomError, NoCertificate, ParseError,
                           SizeCapExceeded, ValidationError)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cychom"
INPUT = ROOT / "data" / "algebras" / "dual_numbers.json"


def defined_classes():
    return {obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if obj.__module__ == errors.__name__}


def test_errors_defines_exactly_the_five_classes():
    assert defined_classes() == {CychomError, ParseError, ValidationError,
                                 SizeCapExceeded, NoCertificate}
    assert all(issubclass(cls, CychomError) for cls in defined_classes())


@pytest.mark.parametrize("cls, code, kind", [
    (ParseError, 1, "parse"),
    (ValidationError, 1, "validation"),
    (SizeCapExceeded, 2, "size_cap"),
])
def test_run_reports_each_error_by_its_outcome(monkeypatch, cls, code, kind):
    def handler(job):
        raise cls(f"{cls.__name__} from the handler")

    monkeypatch.setitem(cli._COMMANDS, "check", (handler, "raises", ()))
    out = io.StringIO()
    assert cli.run(cli.JobSpec("check", str(INPUT), fmt="json"), out) == code
    report = json.loads(out.getvalue())
    assert report["error"] == kind
    assert report["message"] == f"{cls.__name__} from the handler"


def raised_names():
    """Names raised anywhere in src/cychom, as raise X(...) or raise X."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_subclass_is_raised_in_src():
    subclasses = {cls.__name__ for cls in defined_classes()
                  if cls is not CychomError}
    missing = sorted(subclasses - raised_names())
    assert not missing, f"error classes nothing in src/ raises: {missing}"
