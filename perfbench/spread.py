"""Median, quartiles and spread of end-to-end metrics over repeated runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload solve-deep --seed $s --seconds 25 --trace 0 | tail -1 >> runs.jsonl
    done
    python3 perfbench/spread.py runs.jsonl

Each file holds the JSON result lines of one workload.  The spread is the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, printed next to the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def main(paths: list) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        failed = sum(row["failed"] for row in rows)
        correct = all(row["correct"] for row in rows)
        print(f"{path}: {len(rows)} runs, correct {correct}, {failed} failed ops")
        for name, bound in bounds.items():
            values = [row["metrics"][name]["value"] for row in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {name:14s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {spread:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
