"""Regenerate the committed reference digests of every catalog op.

    python3 perfbench/make_reference.py [workload ...]

With no workload named, every workload and the gate ops are redone.  Run from the root of a checkout whose exact outputs are known good (the
digests define "unchanged output" for every later run).  Each op runs once;
an op whose exit code is not 0 or whose verification flags are not all
true aborts the script.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads
from worker import run_op


def digests(cli, ops) -> dict:
    out = {}
    for op in ops:
        _, code, output, error = run_op(cli, op)
        payload = json.loads(output) if error is None and code == 0 else None
        if payload is None or not workloads.flags_ok(op.kind, payload):
            raise SystemExit(f"{op.key}: exit code {code}, {error or 'flags not all true'}")
        out[op.key] = workloads.digest(op.kind, payload)
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from mouldpert import cli

    names = sys.argv[1:] or ["gate", *workloads.WORKLOADS]
    targets = {}
    if "gate" in names:
        targets["gate"] = [op for op in workloads.gate_ops() if "--corrupt-word" not in op.argv]
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for workload in names:
            if workload == "gate":
                continue
            schedule = workloads.Schedule(workload, 0, workdir)
            schedule.write_inputs()
            targets[workload] = [op for ops in schedule.strata for op in ops]
        for name, ops in targets.items():
            table = digests(cli, ops)
            with open(workloads.reference_path(name), "w", encoding="utf-8") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"{name}: {len(table)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
