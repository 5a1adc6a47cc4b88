"""No public function, class or method in src/cychom is reached only by tests.

Every module of src/cychom is parsed with ast.  A public definition (a
module-level function or class, or a method of such a class, whose name has
no leading underscore) counts as used when its name occurs anywhere in src/,
bench/ or demos/ outside its own definition: a function's or class's as a
name, an attribute or an imported name, a method's as an attribute (x.name),
the only way a method is reached, so a local or a parameter of the same name
cannot hide it.  Names are matched bare, so a collision can hide an unused
definition but never flags a used one.  ALLOWED lists the deliberate
exceptions, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cychom"
SCANNED = ("src", "bench", "demos")

GETATTR = "bench/tracing.py looks it up by name from TRACED with getattr"
ALLOWED = {
    "linalg.image_basis": GETATTR,
    "homology.homology_representatives": GETATTR,
    "linalg.SparseMatrix.from_dense":
        "deleting it would only move it into the tests",
    "linalg.SparseMatrix.entries":
        "the rational view the integer-store tests compare through",
    "homology.EvenLift.truncate":
        "criterion 4 checks that a lift keeps the cycle it started from",
    "algebra.matrix_algebra":
        "Morita invariance HH(M_k(A)) = HH(A) is checked on it",
    "algebra.direct_sum":
        "HH is checked to be additive on direct sums built with it",
    "algebra.FiniteGroup.conjugacy_classes":
        "HH_0(Q[G]) equals the number of conjugacy classes",
    "algebra.symmetric_group_with_perms":
        "builds S_n with the permutations that name its subgroups",
    "catalog.ground_field": "the base case of every catalog family",
    "catalog.scrambled_dim3":
        "the one non-semisimple catalog algebra with a dense table",
}


def _public_definitions(tree):
    """(qualified name, bare name, is a method, node) for each public def of
    a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, True, sub


def _references(node):
    """(counts of every name, attribute and imported name, counts of the
    attributes alone) under node, so indexed by whether a definition is a
    method."""
    refs, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
            attrs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
    return refs, attrs


def unreferenced_definitions():
    """Qualified names of public definitions referenced only from tests."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    everywhere = [sum(counts, Counter()) for counts in
                  zip(*(_references(tree) for tree in trees.values()))]
    return {f"{path.stem}.{qualname}"
            for path, tree in trees.items() if path.parent == PACKAGE
            for qualname, name, method, node in _public_definitions(tree)
            if everywhere[method][name] == _references(node)[method][name]}


def test_no_public_name_is_reached_only_from_tests():
    unused = unreferenced_definitions()
    offenders = sorted(unused - ALLOWED.keys())
    assert not offenders, (
        "public names with no reference in src/, bench/ or demos/: "
        f"{', '.join(offenders)}; delete them, or add each to ALLOWED "
        "with its reason")
    stale = sorted(ALLOWED.keys() - unused)
    assert not stale, (
        f"ALLOWED entries that are gone or now used: {', '.join(stale)}")
