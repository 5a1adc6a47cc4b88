"""One benchmark job in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py '{"job": [command, path, max_degree],
                                            "trace": false}'

Imports cychom.cli first and notes time.monotonic() at that point; CLOCK_MONOTONIC
is shared by every process on the machine, so the parent subtracts the moment
it started this interpreter to get the set-up time.  With "job": null the
child stops there (a set-up probe).  Otherwise it runs cli.run on the job
with the report written to memory, traced or not, and prints one JSON line:
imported_at, code, report, run_s, peak_rss_mb and, when traced, layers.
"""

import time

import cychom.cli as cli

IMPORTED_AT = time.monotonic()

import io  # noqa: E402  (after the set-up clock stops)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(spec):
    out = {"imported_at": IMPORTED_AT}
    if spec["job"] is not None:
        command, path, max_degree = spec["job"]
        job = cli.JobSpec(command=command, path=path, max_degree=max_degree,
                          fmt="json")
        report = io.StringIO()
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            start = time.perf_counter()
            code = cli.run(job, out=report)
            run_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        out.update(code=code, report=report.getvalue(), run_s=run_s,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            out["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
