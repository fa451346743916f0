"""mouldpert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each op is one ``mouldpert.cli.main``
call in a long-lived worker process (closed loop, one client, no think
time), with numpy/BLAS pinned to one thread.  Set-up (interpreter start,
``import mouldpert``, writing the workload's problem files) is timed over
several worker starts; the last start measures.  Times are scaled to a
reference machine speed by ``speed.probe`` (see ``speed.py``).  Traced,
the worker measures the layers instead (see ``tracing.py``).

Every op's exact output is checked against the committed reference
digests; a failed check counts the op as failed.  Before its timed loop
the worker runs scratch ops that show the check catches a corrupted
output.

Prints a report, then one JSON line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed
import workloads

SETUP_STARTS = 7
RUN_LIMIT_S = 170
PINNED_THREADS = "1"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def start_worker(args, workdir: str, extra: list, deadline: float) -> tuple:
    """Start a worker and wait for ``ready``; returns (process, watchdog,
    set-up seconds at the reference speed)."""
    command = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ] + extra
    env = dict(os.environ, **{name: PINNED_THREADS for name in THREAD_VARIABLES})
    before = speed.probe()
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    line = process.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(process, watchdog)
        raise BenchError(f"worker did not become ready (exit code {process.returncode})")
    return process, watchdog, ready * speed.REFERENCE_S / before


def finish(process, watchdog) -> dict | None:
    """Wait for the worker, stop the watchdog; returns its JSON result line."""
    try:
        lines = process.stdout.read().strip().splitlines()
        process.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        process.stdout.close()
    if process.returncode != 0:
        raise BenchError(f"worker exited with code {process.returncode}")
    return json.loads(lines[-1]) if lines else None


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten ops beyond it (the
    median when a run is too short to have one above it)."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def end_to_end(measured: dict, setups: list) -> dict:
    """End-to-end metrics; op times are taken at the reference speed."""
    wall = measured["times"]
    scaled = [t * speed.REFERENCE_S / p for t, p in zip(wall, measured["probes"])]
    percent = tail_percentile(len(scaled))
    rank = max(1, math.ceil(percent / 100 * len(scaled)))
    return {
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": sorted(scaled)[rank - 1],
        "ops_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": measured["peak_rss_mib"],
        "ops": len(scaled),
        "rounds": measured["rounds"],
        "tail_percentile": percent,
        "tail_beyond": len(scaled) - rank,
        "setup_starts": len(setups),
        "wall_p50": statistics.median(wall),
        "probe_ms": 1000 * statistics.median(measured["probes"]),
    }


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mouldpert", "cli.py")):
        raise BenchError("no src/mouldpert here: run from the root of a mouldpert checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setups = []
    try:
        for _ in range(SETUP_STARTS - 1):
            process, watchdog, ready = start_worker(args, workdir, ["--setup-only"], deadline)
            finish(process, watchdog)
            setups.append(ready)
        process, watchdog, ready = start_worker(args, workdir, ["--seconds", str(args.seconds)], deadline)
        setups.append(ready)
        measured = finish(process, watchdog)
    finally:
        shutil.rmtree(os.path.join(workdir, "inputs"), ignore_errors=True)
    if measured is None:
        raise BenchError("worker printed no result")
    if args.trace:
        return measured
    result = end_to_end(measured, setups)
    for key in ("attempted", "failed", "reasons", "gate"):
        result[key] = measured[key]
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"mouldpert benchmark  workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("load: closed loop, 1 client, in-process CLI ops, "
          f"{PINNED_THREADS} numpy/BLAS thread, nproc {os.cpu_count()}, "
          f"python {sys.version.split()[0]}")
    metrics = {}
    if args.trace:
        for name, (value, unit, note) in sorted(result["layers"].items()):
            print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        print(f"  {result['ops']} ops in {result['rounds']} rounds; times at the reference speed "
              f"(probe {1000 * speed.REFERENCE_S:.1f} ms); measured probe {result['probe_ms']:.2f} ms, "
              f"wall-time p50 {result['wall_p50']:.4f} s")
        notes = {
            "op_s_tail": f"p{result['tail_percentile']}: {result['tail_beyond']} of {result['ops']} ops beyond",
            "ops_per_s": "ops / sum of op times",
            "setup_s": f"median of {result['setup_starts']} worker starts",
            "peak_rss_mib": "measuring worker ru_maxrss",
        }
        for name, unit in END_TO_END_UNITS.items():
            value = result[name]
            print(f"  {name:14s} {value:12.6g} {unit:5s} {notes.get(name, '')}")
            metrics[name] = {"value": value, "unit": unit}
        print(f"  {'fail_frac':14s} {failed / attempted:12.6g} {'ratio':5s} {failed} of {attempted} ops failed")
    gate = result["gate"]
    print(f"  gate: {gate['failed']} of {gate['attempted']} scratch ops failed "
          f"(fail_frac {gate['fail_frac']:.2f}), "
          f"{'as required' if gate['ok'] else 'NOT as required: the output check is broken'}")
    for reason in result["reasons"]:
        print(f"  failed: {reason}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = report(args, result)
    line = {
        "correct": result["failed"] == 0 and result["gate"]["ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
