"""Every report of a fixed grid of CLI jobs, pinned byte for byte.

golden_reports.json maps each job (its argv, joined by spaces, run from the
repository root) to the sha256 of its stdout and stderr and its exit code.
The grid covers hh, hh --certificate, hc, hp, hp --certificate and
identities at --max-degree 3 and 4, and check, on every algebra file; tower
at --max-degree 1..3 on every tower file and 4 on z4_tower; orbifold with
and without --oracle on both component files; a missing file and an option
the command does not take.  Every job runs in text and in JSON.

A change that is meant to keep the reports must pass this test unchanged.
Running

    PYTHONPATH=src python tests/test_golden_reports.py

writes the rows of jobs the table does not hold yet and keeps every other
row as it is.  It lists each row whose report moved and exits nonzero,
writing none of them: a change that is meant to change a report deletes
the rows it moves from the table before running it, and says in its
description which rows moved and why.
"""

import contextlib
import io
import json
import os
import sys
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_reports.json"


def golden_jobs():
    """The grid of argv lists, paths relative to the repository root."""
    jobs = []
    for path in sorted((ROOT / "data" / "algebras").glob("*.json")):
        path = path.relative_to(ROOT).as_posix()
        for degree in ("3", "4"):
            for command, extra in (("hh", []), ("hh", ["--certificate"]),
                                   ("hc", []), ("hp", []),
                                   ("hp", ["--certificate"]),
                                   ("identities", [])):
                jobs.append([command, path, "--max-degree", degree] + extra)
        jobs.append(["check", path])
    for name, degrees in (("diag_tower", "123"), ("dual_tower", "123"),
                          ("s3_tower", "123"), ("z4_tower", "1234")):
        for degree in degrees:
            jobs.append(["tower", f"data/towers/{name}.json",
                         "--max-degree", degree])
    for name in ("rank2_model", "torus_quotients"):
        path = f"data/components/{name}.json"
        jobs.append(["orbifold", path])
        jobs.append(["orbifold", path, "--oracle"])
    jobs.append(["hh", "data/algebras/missing.json"])
    jobs.append(["check", "data/algebras/mat2.json", "--max-degree", "3"])
    return [job + ["--format", fmt] for job in jobs for fmt in ("text", "json")]


def run_job(argv):
    """{"stdout", "stderr": sha256 hex, "exit": code} of cli.main(argv),
    run in-process from the repository root."""
    from cychom.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"stdout": sha256(out.getvalue().encode()).hexdigest(),
            "stderr": sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def test_reports_match_the_golden_table():
    table = json.loads(TABLE.read_text())
    jobs = golden_jobs()
    assert sorted(table) == sorted(" ".join(job) for job in jobs)
    moved = [" ".join(job) for job in jobs
             if run_job(job) != table[" ".join(job)]]
    assert moved == []


if __name__ == "__main__":
    table = json.loads(TABLE.read_text())
    moved = []
    for job in golden_jobs():
        key, row = " ".join(job), run_job(job)
        if key not in table:
            table[key] = row
        elif row != table[key]:
            moved.append(key)
    TABLE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    if moved:
        sys.exit("moved, not written:\n" + "\n".join(moved))
