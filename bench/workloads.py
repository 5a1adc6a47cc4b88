"""The benchmark's workloads: one CLI job each, its seeded input and its answer.

Each workload names a `cychom` command, an input file the seed generates and
the report that theory fixes for it.  The program sees only the generated
file; the seed never reaches it.  At DEFAULT_SEED every generated file is
byte-identical to the file under data/ it derives from.
"""

import json
import random
from dataclasses import dataclass

from cychom import cli
from cychom.algebra import change_of_basis
from cychom.linalg import SparseMatrix

DEFAULT_SEED = 20240811


def signed_algebra_bytes(path, seed):
    """The algebra at path in a basis with seeded signs, f_i = +-e_i.

    The change of basis goes through change_of_basis.  DEFAULT_SEED gives
    every sign +, so the file comes back byte for byte.  Every matrix the
    job eliminates becomes D M D' for diagonal +-1 matrices D and D': the
    pivots, the fill-in and the sizes of the coefficients stay the same, so
    every seed asks for the same work.  A basis permutation would not: it
    reorders pivots, and for hp on cyclic4.json at degree 4 one permutation
    took 27% longer than the identity.
    """
    a = cli.parse_algebra_file(path)
    rng = random.Random(seed)
    signs = [1 if seed == DEFAULT_SEED else rng.choice((1, -1))
             for _ in range(a.dim)]
    s = SparseMatrix(a.dim, a.dim, ((i, i, c) for i, c in enumerate(signs)))
    doc = cli.algebra_to_doc(change_of_basis(a, s))
    doc["basis"] = list(a.basis_labels)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Workload:
    """One CLI job: command, degree, input and the expected report.

    The input is source in a basis with seeded signs, or source as it is
    when seeded is false.  expected maps a dotted path into the JSON report
    to the value theory fixes there; cli.run must also exit with 0.
    """

    name: str
    command: str
    max_degree: int
    source: str
    seeded: bool
    expected: dict

    def input_text(self, seed):
        if self.seeded:
            return signed_algebra_bytes(self.source, seed)
        with open(self.source, encoding="utf-8") as fh:
            return fh.read()

    def argv(self, path):
        return [self.command, path, "--max-degree", str(self.max_degree),
                "--format", "json"]


WORKLOADS = {w.name: w for w in (
    # Hecke tower Q[Z/4 // Z/2] = Q[Z/2] -> Q[Z/4]: both commutative and
    # semisimple, so HH_0 is 2 and then 4, higher HH vanishes, and HP is
    # (2, 0) and then (4, 0).
    Workload("tower-z4", "tower", 3, "data/towers/z4_tower.json",
             False,
             {"hh.final_dims": [4, 0, 0, 0],
              "hh.filtration": [[2, 0, 0, 0], [4, 0, 0, 0]],
              "hp.status": "ESTABLISHED",
              "hp.stage_even": [2, 4], "hp.stage_odd": [0, 0]}),
    # b~b~ = 0, b~B~ + B~b~ = 0 and B~B~ = 0 hold in any mixed complex.
    Workload("identities-z4", "identities", 4, "data/algebras/cyclic4.json",
             True,
             {"boundary_squared": True, "anticommutator": True,
              "second_squared": True, "witness": None}),
)}


_MISSING = object()


def _lookup(report, dotted):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def check_report(workload, code, report_text):
    """Mismatches between a job's outcome and the expected answer.

    Returns a list of human-readable problems; an empty list means correct.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    try:
        report = json.loads(report_text)
    except (TypeError, json.JSONDecodeError):
        return problems + ["report is not JSON"]
    for dotted, want in workload.expected.items():
        got = _lookup(report, dotted)
        if got is _MISSING:
            problems.append(f"{dotted} missing")
        elif got != want:
            problems.append(f"{dotted} = {got!r}, expected {want!r}")
    return problems
