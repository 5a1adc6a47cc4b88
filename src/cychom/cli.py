"""Command-line surface: input files, commands, canonical reports.

Every command reads an input path and takes --format text|json.  Besides
those, hh and hp take --max-degree and --certificate; hc, identities and
tower take --max-degree; orbifold takes --oracle; check takes nothing
else.  Any other option is an argument error (exit 1).  Every algebra read,
alone or as a tower stage, is checked for associativity, since homology is
only defined when it holds.  Every report
embeds the tool version, the input digest and the truncation degree, so a
report is reproducible from the file it names.  JSON output is canonical
(sorted keys, two-space indent, rationals as "num/den" strings) and
round-trips byte-identically through json.loads/dumps.

Exit codes: 0 success; 1 a ParseError ("parse") or a ValidationError
("validation"); 2 a SizeCapExceeded ("size_cap"): a chain space over
mixed.CELL_CAP cells or a group closure over orbifold.ORDER_CAP elements,
refused before the work starts, or an orbifold component whose work would
exceed orbifold.WORK_CAP, or a job the caps admitted that ran out of memory
(MemoryError); 3 a NoCertificate: a periodic computation refused for lack
of a vanishing certificate (a mathematical outcome, not an error).

Every job pays for what importing this module loads, so it loads only what
the homology commands run: argparse is imported by build_parser, which run()
does not need, and cychom.orbifold by the orbifold command.  The input digest
uses CPython's built-in SHA-256, the one hashlib falls back to without
OpenSSL, so no job loads libcrypto; the digest is the same.
"""

import json
import re
import sys
import warnings

# hashlib would load OpenSSL's _hashlib: 3.6 MB of peak RSS in every job
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

from . import __version__
from .algebra import Algebra, AlgebraHom, FiniteGroup, check_associativity
from .errors import (CychomError, NoCertificate, ParseError, SizeCapExceeded,
                     ValidationError)
from .homology import (cyclic_homology, hochschild_homology,
                       stabilization_certificate)
from .linalg import QQ, SparseMatrix
from .mixed import build_mixed_complex, verify_mixed_identities
from .towers import DirectSystem, continuity_check, hecke_tower, \
    hp_continuity_check

DEFAULT_MAX_DEGREE = 4

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
# json.loads and Fraction raise ValueError for an integer literal longer
# than the interpreter's int-string limit (sys.get_int_max_str_digits())
_TOO_MANY_DIGITS = "an integer has more digits than the input limit"


def format_rational(q):
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _parse_rational(value, where):
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, str):
        if not _RATIONAL.match(value):
            raise ParseError(f"{where}: {value!r} is not num or num/den")
        try:
            return QQ(value)
        except ValueError:
            raise ParseError(f"{where}: {_TOO_MANY_DIGITS}")
    raise ParseError(f"{where}: rationals must be integers or strings, "
                     f"not {type(value).__name__}")


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}")
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start} is not valid UTF-8")
    except ValueError:
        raise ParseError(f"{path}: {_TOO_MANY_DIGITS}")
    except RecursionError:
        raise ParseError(f"{path}: arrays or objects nested too deeply")


def _require_keys(doc, allowed, required, path):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in doc:
        if key not in allowed:
            raise ParseError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")


def _algebra_from_doc(doc, path):
    _require_keys(doc, {"dim", "basis", "unit", "table"}, {"dim", "table"},
                  path)
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{path}: dim must be a nonnegative integer")
    labels = doc.get("basis")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim or \
                any(not isinstance(s, str) for s in labels):
            raise ParseError(f"{path}: basis must list {dim} strings")
    raw_unit = doc.get("unit")
    unit = None
    if raw_unit is not None:
        if not isinstance(raw_unit, list) or len(raw_unit) != dim:
            raise ParseError(f"{path}: unit must be null or {dim} rationals")
        unit = {}
        for k, v in enumerate(raw_unit):
            q = _parse_rational(v, f"{path}: unit[{k}]")
            if q:
                unit[k] = q
    raw_table = doc["table"]
    if not isinstance(raw_table, list) or len(raw_table) != dim or \
            any(not isinstance(row, list) or len(row) != dim
                for row in raw_table):
        raise ParseError(f"{path}: table must be a {dim} x {dim} array")
    table = {}
    for i, row in enumerate(raw_table):
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise ParseError(f"{path}: table[{i}][{j}] must be a list")
            vec = {}
            for t, pair in enumerate(cell):
                where = f"{path}: table[{i}][{j}] entry {t}"
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ParseError(f"{where}: expected [index, rational]")
                k, v = pair
                if not isinstance(k, int) or isinstance(k, bool):
                    raise ParseError(f"{where}: index must be an integer")
                if not 0 <= k < dim:
                    raise ParseError(f"{where}: basis index {k} out of range")
                vec[k] = vec.get(k, QQ(0)) + _parse_rational(v, where)
            if vec:
                table[(i, j)] = vec
    algebra = Algebra(dim, table, unit=unit, basis_labels=labels)
    triple = check_associativity(algebra)
    if triple is not None:
        raise ValidationError(f"associativity fails on basis triple {triple}")
    return algebra


def parse_algebra_file(path):
    """Load an algebra description and check that it is associative."""
    return _algebra_from_doc(_load_json(path), path)


def algebra_to_doc(a):
    """The algebra-file document for an Algebra; inverse of the parser."""
    table = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            row.append([[k, format_rational(c)]
                        for k, c in sorted(a.product(i, j).items())])
        table.append(row)
    unit = None
    if a.unit is not None:
        unit = [format_rational(a.unit.get(k, QQ(0))) for k in range(a.dim)]
    return {"dim": a.dim, "basis": list(a.basis_labels), "unit": unit,
            "table": table}


def _parse_matrix(rows, target_dim, source_dim, where):
    if not isinstance(rows, list) or len(rows) != target_dim or \
            any(not isinstance(r, list) or len(r) != source_dim
                for r in rows):
        raise ParseError(
            f"{where}: expected a {target_dim} x {source_dim} matrix")
    entries = []
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            q = _parse_rational(v, f"{where}[{r}][{c}]")
            if q:
                entries.append((r, c, q))
    return SparseMatrix(target_dim, source_dim, entries)


def parse_tower_file(path):
    """Load a direct system, either as stages-and-maps or as a Hecke tower."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "group" in doc:
        _require_keys(doc, {"group", "chain"}, {"group", "chain"}, path)
        table = doc["group"]
        if not isinstance(table, list) or \
                any(not isinstance(row, list) or len(row) != len(table) or
                    any(not isinstance(x, int) or isinstance(x, bool)
                        for x in row)
                    for row in table):
            raise ParseError(
                f"{path}: group must be a square table of element indices")
        group = FiniteGroup(table)
        chain = doc["chain"]
        if not isinstance(chain, list) or \
                any(not isinstance(k, list) or
                    any(not isinstance(x, int) or isinstance(x, bool)
                        for x in k)
                    for k in chain):
            raise ParseError(f"{path}: chain must list element-index lists")
        return hecke_tower(group, chain)
    _require_keys(doc, {"stages", "maps"}, {"stages", "maps"}, path)
    raw_stages = doc["stages"]
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ParseError(f"{path}: stages must be a nonempty list")
    stages = []
    for i, entry in enumerate(raw_stages):
        if isinstance(entry, dict):
            stages.append(_algebra_from_doc(entry, f"{path}: stages[{i}]"))
        else:
            raise ParseError(f"{path}: stages[{i}] must be an inline algebra")
    raw_maps = doc["maps"]
    if not isinstance(raw_maps, list) or len(raw_maps) != len(stages) - 1:
        raise ParseError(
            f"{path}: {len(stages)} stages need {len(stages) - 1} maps")
    maps = []
    for i, rows in enumerate(raw_maps):
        m = _parse_matrix(rows, stages[i + 1].dim, stages[i].dim,
                          f"{path}: maps[{i}]")
        maps.append(AlgebraHom(stages[i], stages[i + 1], m))
    return DirectSystem(stages, maps)


def parse_component_file(path):
    """Load a torus-component list; returns (components, gl_rank or None).

    A "notes" string is allowed at the top level and per component and is
    ignored: shipped example lists carry their provenance there.
    """
    from .orbifold import TorusComponent

    doc = _load_json(path)
    _require_keys(doc, {"components", "gl_rank", "notes"}, {"components"},
                  path)
    gl_rank = doc.get("gl_rank")
    if gl_rank is not None and \
            (not isinstance(gl_rank, int) or isinstance(gl_rank, bool)):
        raise ParseError(f"{path}: gl_rank must be an integer")
    raw = doc["components"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}: components must be a list")
    components = []
    for i, entry in enumerate(raw):
        where = f"{path}: components[{i}]"
        _require_keys(entry, {"rank", "generators", "label", "notes"},
                      {"rank", "generators"}, where)
        rank_k = entry["rank"]
        if not isinstance(rank_k, int) or isinstance(rank_k, bool):
            raise ParseError(f"{where}: rank must be an integer")
        gens = entry["generators"]
        if not isinstance(gens, list):
            raise ParseError(f"{where}: generators must be a list")
        for g in gens:
            if not isinstance(g, list) or \
                    any(not isinstance(row, list) or
                        any(not isinstance(x, int) or isinstance(x, bool)
                            for x in row)
                        for row in g):
                raise ParseError(
                    f"{where}: generators must be integer matrices")
        label = entry.get("label", "")
        if not isinstance(label, str):
            raise ParseError(f"{where}: label must be a string")
        try:
            components.append(TorusComponent(
                rank_k, tuple(tuple(tuple(row) for row in g) for g in gens),
                label=label))
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}")
    return components, gl_rank


class JobSpec:
    """One CLI invocation: a command, an input path and its options."""

    __slots__ = ("command", "path", "max_degree", "fmt", "certificate",
                 "oracle")

    def __init__(self, command, path, max_degree=DEFAULT_MAX_DEGREE,
                 fmt="text", certificate=False, oracle=False):
        self.command = command
        self.path = path
        self.max_degree = max_degree
        self.fmt = fmt
        self.certificate = certificate
        self.oracle = oracle


def _certificate_fields(cert):
    """Every field of a StabilizationCertificate, under its own name."""
    if cert is None:
        return None
    out = {name: getattr(cert, name) for name in cert.__slots__}
    out["verified_degrees"] = list(cert.verified_degrees)
    return out


def _homology_report(job, theory):
    # D_1 .. D_{max_degree+1} read B~ through max_degree - 1 only
    mc = build_mixed_complex(parse_algebra_file(job.path), job.max_degree + 1,
                             job.max_degree - 1)
    compute = hochschild_homology if theory == "HH" else cyclic_homology
    report = compute(mc, job.max_degree)
    body = {"theory": theory,
            "dims": list(report.dims),
            "space_dims": list(report.space_dims),
            "boundary_ranks": list(report.boundary_ranks)}
    if job.certificate and theory == "HH":
        body["certificate"] = _certificate_fields(
            stabilization_certificate(report))
    return 0, body


def _hp_report(job):
    # a one-stage tower, so the tower's HP rule decides and hp ranks C(A)
    ds = DirectSystem([parse_algebra_file(job.path)], [])
    cont = continuity_check(ds, job.max_degree)
    try:
        hp = hp_continuity_check(cont).periodic
    except NoCertificate:
        return 3, {"status": "NOT_ESTABLISHED",
                   "hh_dims": list(cont.final_dims),
                   "certificate": None}
    (even, odd), = hp.dims
    body = {"status": "ESTABLISHED", "hp_even": even, "hp_odd": odd,
            "certificate": _certificate_fields(hp.certificates[0])}
    if job.certificate:
        body["hh_dims"] = list(cont.final_dims)
    return 0, body


def _check_report(job):
    a = parse_algebra_file(job.path)
    body = {"dim": a.dim,
            "unital": a.is_unital(),
            "basis": list(a.basis_labels),
            "table_entries": len(a.table),
            "associative": True}
    return 0, body


def _identities_report(job):
    a = parse_algebra_file(job.path)
    mc = build_mixed_complex(a, max(2, job.max_degree))
    result = verify_mixed_identities(mc)
    body = {"depth": mc.n_max,
            "boundary_squared": all(result.bb.values()),
            "anticommutator": all(result.anticommute.values()),
            "second_squared": all(result.BB.values()),
            "witness": None if result.witness is None else {
                "identity": result.witness[0],
                "degree": result.witness[1],
                "position": [result.witness[2][0], result.witness[2][1]],
                "value": format_rational(result.witness[2][2])}}
    return (0 if result.all_pass else 1), body


def _tower_report(job):
    ds = parse_tower_file(job.path)
    cont = continuity_check(ds, job.max_degree)
    body = {"stage_dims": [a.dim for a in ds.stages],
            "hh": {"final_dims": list(cont.final_dims),
                   "filtration": [list(row) for row in cont.image_filtration],
                   "monotone": cont.monotone}}
    try:
        hp = hp_continuity_check(cont)
    except NoCertificate as e:
        body["hp"] = {"status": "NOT_ESTABLISHED", "reason": str(e)}
        return 3, body
    periodic = hp.periodic
    body["hp"] = {"status": "ESTABLISHED",
                  "common_bound": periodic.common_bound,
                  "even_degree": periodic.even_degree,
                  "odd_degree": periodic.odd_degree,
                  "stage_even": [even for even, _ in periodic.dims],
                  "stage_odd": [odd for _, odd in periodic.dims],
                  "even_filtration": list(hp.even_filtration),
                  "odd_filtration": list(hp.odd_filtration),
                  "monotone": hp.monotone}
    return 0, body


def _orbifold_report(job):
    from .orbifold import even_odd_totals

    components, gl_rank = parse_component_file(job.path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = even_odd_totals(components, gl_rank=gl_rank,
                                cross_check=job.oracle)
    body = {"components": [
        {"label": c.label, "rank": c.rank, "betti": list(row)}
        for c, row in zip(components, table.rows)],
        "even": table.even,
        "odd": table.odd,
        "oracle_checked": job.oracle,
        "warnings": [str(w.message) for w in caught]}
    return 0, body


# Each command's handler, its help text and the options it reads besides
# path and --format
_COMMANDS = {
    "check": (_check_report, "parse and validate an algebra file", ()),
    "hh": (lambda job: _homology_report(job, "HH"),
           "Hochschild homology dimensions",
           ("--max-degree", "--certificate")),
    "hc": (lambda job: _homology_report(job, "HC"),
           "cyclic homology dimensions", ("--max-degree",)),
    "hp": (_hp_report,
           "periodic cyclic homology through a vanishing certificate",
           ("--max-degree", "--certificate")),
    "identities": (_identities_report,
                   "verify the three operator identities on the normalized "
                   "mixed complex (on Omega(A) for an algebra without a unit)",
                   ("--max-degree",)),
    "tower": (_tower_report,
              "continuity of homology along a tower of inclusions",
              ("--max-degree",)),
    "orbifold": (_orbifold_report,
                 "invariant Betti numbers of torus quotient components",
                 ("--oracle",)),
}


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _render_value(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, list):
        return " ".join(_render_value(x) for x in v) if v else "(empty)"
    return str(v)


def _render_text(report):
    lines = [f"cychom {report['version']} | {report['command']} "
             f"{report['input']} | sha256 {report['input_sha256'] or '-'}"]
    skip = {"version", "command", "input", "input_sha256", "tool"}

    def emit(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                emit(f"{prefix}{key}.", obj[key])
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
            for i, item in enumerate(obj):
                emit(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {_render_value(obj)}")

    for key in sorted(report):
        if key not in skip:
            emit(f"{key}.", report[key])
    return "\n".join(lines) + "\n"


def render_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _render_text(report)


def run(job, out=None):
    """Execute one job and write its report; returns the exit code."""
    out = sys.stdout if out is None else out
    handler, _, options = _COMMANDS[job.command]
    header = {"tool": "cychom",
              "version": __version__,
              "command": job.command,
              "input": job.path,
              "input_sha256": _digest(job.path),
              "max_degree": job.max_degree if "--max-degree" in options
              else None}
    try:
        code, body = handler(job)
    except ParseError as e:
        code, body = 1, {"error": "parse", "message": str(e)}
    except SizeCapExceeded as e:
        code, body = 2, {"error": "size_cap", "message": str(e)}
    except MemoryError:  # leaving this block frees the job's matrices
        code, body = 2, {"error": "size_cap", "message": "out of memory"}
    except CychomError as e:
        code, body = 1, {"error": "validation", "message": str(e)}
    report = {**header, **body}
    out.write(render_report(report, job.fmt))
    return code


_OPTIONS = {
    "--max-degree": {"type": int, "default": DEFAULT_MAX_DEGREE,
                     "help": "truncation degree (default 4)"},
    "--certificate": {"action": "store_true",
                      "help": "include full stabilization evidence"},
    "--oracle": {"action": "store_true",
                 "help": "cross-check every Betti number against the rank "
                         "of the averaged projector (rank <= 6)"},
}


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ParseError(message)

    parser = _Parser(prog="cychom",
                     description="Exact Hochschild/cyclic/periodic homology "
                                 "of finite-dimensional rational algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="input file")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None):
    try:
        opts = vars(build_parser().parse_args(argv))
    except ParseError as e:
        sys.stderr.write(f"cychom: {e}\n")
        return 1
    if opts.get("max_degree", 0) < 0:
        sys.stderr.write("cychom: --max-degree must be nonnegative\n")
        return 1
    # options a command does not take keep the JobSpec defaults
    return run(JobSpec(fmt=opts.pop("format"), **opts))


if __name__ == "__main__":
    sys.exit(main())
