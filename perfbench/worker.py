"""Benchmark worker: one long-lived process that runs ``mouldpert`` command
lines in-process, in a closed loop with one client.

Started by ``run.py`` from the root of a checkout.  It imports the package
from ``src/``, writes the workload's problem files, prints ``ready``, then
measures and prints one JSON line with the raw results.  With
``--setup-only`` it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import resource
import statistics
import sys
import time

import speed
import tracing
import workloads

# shares of --seconds for the traced run's phases; the rest goes to micro cases
SPAN_SHARE = 0.45
PROFILE_SHARE = 0.35


def run_op(cli, op) -> tuple:
    """(seconds, exit code or None, stdout, error) of one command line."""
    buffer = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, buffer.getvalue(), error


class Tally:
    """Attempted and failed ops with the first few failure reasons."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, op, code, output, error) -> None:
        self.attempted += 1
        if error is not None:
            passed, reason = False, error
        else:
            passed, reason = workloads.check(op, code, output, self.reference)
        if not passed:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.key}: {reason}")


def run_gate(cli, reference: dict) -> dict:
    """Scratch ops outside the timed loop: the clean ones must pass, the
    corrupted and the edited one must count as failed."""
    clean_verify, corrupt_verify, clean_moulds = workloads.gate_ops()
    tally = Tally(reference)
    outcomes = []
    for op, edit in ((clean_verify, False), (corrupt_verify, False), (clean_moulds, False), (clean_moulds, True)):
        _, code, output, error = run_op(cli, op)
        if edit and error is None:
            output = workloads.edit_one_value(output)
        before = tally.failed
        tally.check(op, code, output, error)
        outcomes.append(tally.failed > before)
    expected = [False, True, False, True]
    return {
        "ok": outcomes == expected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli, schedule, tally, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed.  Each op's wall time
    excludes its output check; the speed probe runs after every op."""
    times, probes = [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    before = speed.probe()
    while rounds == 0 or time.perf_counter() < deadline:
        for op in schedule.round(rounds):
            elapsed, code, output, error = run_op(cli, op)
            after = speed.probe()
            times.append(elapsed)
            probes.append((before + after) / 2)
            before = after
            tally.check(op, code, output, error)
        rounds += 1
    return {"rounds": rounds, "times": times, "probes": probes}


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure_traced(cli, schedule, tally, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: paired untraced/traced ops, a profile pass, micro cases."""
    tracer = tracing.Tracer()
    plain_times, traced_times, op_totals, records = [], [], [], []
    deadline = time.perf_counter() + SPAN_SHARE * seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for index, op in enumerate(schedule.round(rounds)):
            # both runs are checked against the same reference digest
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_op(f"{rounds}:{index}:{op.key}")
                    first = len(tracer.spans)
                    with tracing.installed(tracer):
                        elapsed, code, output, error = run_op(cli, op)
                    traced_times.append(elapsed)
                    totals = tracer.op_totals(first)
                    totals["op"] = elapsed
                    op_totals.append(totals)
                    records.append(tracer.op_record())
                else:
                    elapsed, code, output, error = run_op(cli, op)
                    plain_times.append(elapsed)
                tally.check(op, code, output, error)
        rounds += 1
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.as_json(), handle)

    counted = tracing.counted_functions()
    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    profiles = []
    deadline = time.perf_counter() + PROFILE_SHARE * seconds
    first_profiled = rounds
    while rounds == first_profiled or time.perf_counter() < deadline:
        for op in schedule.round(rounds):
            tracer.begin_op(f"profile:{op.key}")
            profile = cProfile.Profile()
            with tracing.installed(tracer):
                profile.enable()
                try:
                    _, code, output, error = run_op(cli, op)
                finally:
                    profile.disable()
            tally.check(op, code, output, error)
            summary = tracing.profile_summary(profile, counted, package_dir)
            summary["words_contributing"] = tracer.op_record()["words_contributing"]
            profiles.append(summary)
        rounds += 1

    remaining = max(1.0, (1 - SPAN_SHARE - PROFILE_SHARE) * seconds)
    micro = tracing.micro_timings(remaining)
    return layer_metrics(plain_times, traced_times, op_totals, records, profiles, micro)


def layer_metrics(plain_times, traced_times, op_totals, records, profiles, micro) -> dict:
    """Name -> (value, unit, note) for every per-layer metric."""
    out = {}

    def span_median(name):
        return _median_or_zero(t.get(name, 0.0) for t in op_totals)

    for metric, span in (
        ("cli.io_s", "cli.io"),
        ("operators.decompose_s", "operators.decompose"),
        ("operators.normal_form_s", "operators.normal_form"),
        ("operators.conjugator_s", "operators.conjugator"),
        ("operators.verify_s", "operators.verify"),
        ("operators.oracle_s", "operators.oracle"),
        ("operators.numeric_s", "operators.numeric"),
        ("birkhoff.suites_s", "birkhoff.suites"),
        ("moulds.symmetral_s", "moulds.symmetral"),
    ):
        out[metric] = (span_median(span), "s", "median per op of span time")
    check_time = sum(t.get("operators.verify", 0.0) + t.get("operators.oracle", 0.0) for t in op_totals)
    out["operators.check_share"] = (
        check_time / sum(t["op"] for t in op_totals),
        "ratio",
        "(verify + oracle span time) / traced op time",
    )
    ratios = [
        (t["operators.normal_form"] + t.get("operators.conjugator", 0.0)) / t["operators.oracle"]
        for t in op_totals
        if t.get("operators.oracle") and "operators.normal_form" in t
    ]
    out["operators.mould_over_oracle"] = (
        _median_or_zero(ratios),
        "ratio",
        f"median over {len(ratios)} ops of (normal_form_s + conjugator_s) / oracle_s",
    )
    for name in ("alphabet_size", "words_contributing", "pair_entries", "t_entries"):
        prefix = "birkhoff" if name in ("pair_entries", "t_entries") else "operators"
        out[f"{prefix}.{name}"] = (_median_or_zero(r[name] for r in records), "count", "median per op")
    out["birkhoff.max_polar_depth"] = (max(r["max_polar_depth"] for r in records), "count", "max over ops")
    out["operators.max_coeff_bits"] = (max(r["max_coeff_bits"] for r in records), "bits", "max over ops, N and C")
    seen, shared = set(), 0
    for r in records:
        shared += r["alphabet_class"] in seen
        seen.add(r["alphabet_class"])
    out["operators.shared_alphabet_share"] = (
        shared / len(records),
        "ratio",
        f"ops whose alphabet is a scalar multiple of an earlier one, of {len(records)}",
    )

    counted = [p["counts"] for p in profiles]
    for name in (
        "birkhoff.pair_calls",
        "operators.bracket_calls",
        "operators.mat_mul_calls",
        "moulds.log_words",
        "moulds.product_value_calls",
        "laurent.mul_calls",
        "laurent.add_calls",
        "laurent.inverse_calls",
        "scalars.mul_calls",
        "scalars.add_calls",
    ):
        out[name] = (_median_or_zero(c[name] for c in counted), "count", "median per profiled op")
    useful = [
        p["words_contributing"] / p["counts"]["operators.coeff_N_calls"]
        for p in profiles
        if p["counts"]["operators.coeff_N_calls"]
    ]
    out["operators.useful_word_share"] = (
        _median_or_zero(useful),
        "ratio",
        "median per op of contributing words / coeff_N calls",
    )
    total = sum(p["total_s"] for p in profiles)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_share"] = (
            sum(p["self_s"][layer] for p in profiles) / total,
            "ratio",
            f"profiled self time over {len(profiles)} ops",
        )
    out["moulds.log_share"] = (
        sum(p["log_s"] for p in profiles) / total,
        "ratio",
        "profiled time under the log-mould evaluation",
    )
    for name, value in micro.items():
        out[name] = (value, "us" if name.endswith("_us") or "_us_" in name else "ns", "micro case, median")
    out["trace.overhead"] = (
        statistics.median(t / p for t, p in zip(traced_times, plain_times)),
        "ratio",
        f"median over {len(plain_times)} ops run both ways of traced / untraced op time",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from mouldpert import cli

    schedule = workloads.Schedule(args.workload, args.seed, os.path.join(args.workdir, "inputs"))
    schedule.write_inputs()
    reference = workloads.load_reference(args.workload)
    gate_reference = workloads.load_reference("gate")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    gate = run_gate(cli, gate_reference)
    tally = Tally(reference)
    if args.trace:
        spans_path = os.path.join(args.workdir, "spans.json")
        result = {"layers": measure_traced(cli, schedule, tally, args.seconds, spans_path)}
    else:
        result = measure(cli, schedule, tally, args.seconds)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        gate=gate,
        peak_rss_mib=peak_rss_mib(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
