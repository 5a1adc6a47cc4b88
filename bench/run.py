"""The cychom benchmark: one workload, a closed loop of CLI jobs, checked answers.

    python3 bench/run.py --workload tower-z4 --seed 7 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seconds 56

Run from the repository root.  A run writes the workload's seeded input
under .bench_work/, then starts one fresh interpreter per job (bench/child.py)
and waits for it before starting the next: a closed loop with one client and
no pool.  It keeps starting jobs while the median job so far still fits in
--seconds.  Every report is checked against the answer theory fixes
(workloads.py); a wrong answer, an unexpected exit code or a crashed child
counts as a failed job.

--trace 0 prints the end-to-end metrics and --trace 1, which alternates
untraced and traced jobs, the per-layer ones; bench/README.md defines them,
and their names and units come from BENCHMARK.json.  The line before the
result records the seed, calib_s, the error rate and every sample.  With
--workload all, every workload runs untraced and traced and one table of all
metrics is printed.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
JOB_TIMEOUT_S = 120


def calibrate():
    """Median seconds of a fixed pure-Python Fraction loop: machine speed now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for k in range(1, 6000):
            Fraction(k, k + 1) * Fraction(k + 3, k + 2) - Fraction(1, k)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class JobFailed(Exception):
    """A child that crashed, timed out, or reported a wrong answer."""


def spawn(root, env, job, trace=False):
    """Run bench/child.py once and return its message with setup_s added."""
    spec = json.dumps({"job": job, "trace": trace})
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec], cwd=root,
            env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise JobFailed(f"child exceeded {JOB_TIMEOUT_S} s")
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        raise JobFailed(f"child exited {proc.returncode}: "
                        f"{proc.stderr.strip().splitlines()[-1:]}")
    try:
        msg = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise JobFailed(f"child printed no result: {proc.stdout[-200:]!r}")
    msg["setup_s"] = msg["imported_at"] - started
    return msg


def measure(root, workload, path, seconds, trace):
    """Closed loop of jobs for `seconds`.

    Returns the successful children's messages by tracing, the set-up
    samples, the number of jobs attempted and the problems met.
    """
    from workloads import check_report

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    job = [workload.command, path, workload.max_degree]
    jobs = {False: [], True: []}
    try:
        spawn(root, env, None)  # warm-up: bytecode caches are written once
        deadline = time.monotonic() + seconds
        setups = [spawn(root, env, None)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    except JobFailed as e:
        # a program that cannot start fails the job it would have run
        return jobs, [], 1, [f"set-up probe: {e}"]
    problems = []
    attempted = 0
    rounds = []
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            attempted += 1
            try:
                msg = spawn(root, env, job, traced)
                wrong = check_report(workload, msg["code"], msg["report"])
                if wrong:
                    raise JobFailed("; ".join(wrong))
            except JobFailed as e:
                problems.append(str(e))
                continue
            jobs[traced].append(msg)
            setups.append(msg["setup_s"])
        rounds.append(time.monotonic() - round_start)
        if time.monotonic() + statistics.median(rounds) > deadline:
            break
    return jobs, setups, attempted, problems


def _median(msgs, key):
    return statistics.median(m[key] for m in msgs)


def run_once(root, spec, workload, seed, seconds, trace):
    """Measure one workload; returns (record, result) as printed."""
    path = Path(".bench_work") / f"{workload.name}-{seed}.json"
    (root / path.parent).mkdir(exist_ok=True)
    (root / path).write_text(workload.input_text(seed), encoding="utf-8")
    try:
        calib_s = calibrate()
        jobs, setups, attempted, problems = measure(
            root, workload, str(path), seconds, trace)
    finally:
        (root / path).unlink()
        with contextlib.suppress(OSError):
            (root / path.parent).rmdir()
    plain = jobs[False]
    failed = attempted - len(plain) - len(jobs[True])
    values = {}
    if trace and jobs[True]:
        values.update({k: statistics.median(m["layers"][k] for m in jobs[True])
                       for k in jobs[True][0]["layers"]})
        if plain:
            values["trace.overhead_s"] = (_median(jobs[True], "run_s")
                                          - _median(plain, "run_s"))
        values["machine.calib_s"] = calib_s
    elif not trace and plain:
        values = {"run_s": _median(plain, "run_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": _median(plain, "peak_rss_mb")}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "job": " ".join(workload.argv(str(path))),
              "calib_s": calib_s,
              "error_rate": failed / attempted,
              "problems": problems[:5],
              "run_s": [m["run_s"] for m in plain],
              "traced_run_s": [m["run_s"] for m in jobs[True]],
              "setup_s": setups}
    correct = not problems and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the data/ files as they are)")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "cychom" / "cli.py",
              root / "data"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        sys.stderr.write(f"bench: run from the repository root; missing "
                         f"{', '.join(missing)}\n")
        return 2
    sys.path.insert(1, str(root / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        for workload in WORKLOADS.values():
            for trace in (False, True):
                record, result = run_once(root, spec, workload, seed,
                                          seconds, trace)
                if not trace:
                    print(f"{workload.name:14} error_rate "
                          f"{record['error_rate']:.4g} share "
                          f"({result['failed']}/{result['attempted']})")
                for name, m in result["metrics"].items():
                    print(f"{workload.name:14} {name} {m['value']:.6g} "
                          f"{m['unit']}")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    record, result = run_once(root, spec, WORKLOADS[args.workload],
                              seed, seconds, bool(args.trace))
    for problem in record["problems"]:
        sys.stderr.write(f"bench: {args.workload}: {problem}\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
