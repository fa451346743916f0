"""A fault table for the matrix path of ``solve``.

Each row replaces one function of ``mouldpert.operators`` by a wrapper
that returns one wrong value, runs ``mouldpert solve`` on the smallest
ladder problem (three levels, order 4, simple or degenerate), and
records which verification flags turn false.  The
row's expected set is the whole set of false flags, so the table shows
which checks catch which fault, and which check is the only one that does.
"""

import contextlib
import io
import itertools
import json

import pytest

from mouldpert import operators
from mouldpert.cli import main
from mouldpert.operators import MatrixSeries, random_problem, zero_matrix
from mouldpert.scalars import ONE

PROBLEMS = {
    "simple": random_problem(3, 4, seed=3),
    "degenerate": random_problem(3, 4, seed=3, degenerate=True),
}


def bump_window(window, a, c, index):
    """(denominator, rows) of a window, with the real numerator at
    ``index`` of entry (a, c) one higher."""
    den, rows = window
    assert any(col == c for col, _, _ in rows[a]), "the bumped entry must be stored"
    row = []
    for col, re, im in rows[a]:
        if col == c:
            re = list(re)
            re[index] += 1
        row.append((col, re, im))
    return den, rows[:a] + [row] + rows[a + 1:]


def next_t_numerator(a, c):
    """Phi(T)_1, entry (a, c), one numerator high at degree 0 (index 1)."""

    def wrap(honest):
        def faulty(t, v, levels, m, K):
            out = honest(t, v, levels, m, K)
            return bump_window(out, a, c, m) if m == 1 else out

        return faulty

    return wrap


def x_window_numerator(a, c):
    """X_2, entry (a, c), one numerator high at degree -1 (index 1): N_2
    and Phi(U_minus)_2 read it."""

    def wrap(honest):
        def faulty(t_series, u_series, m):
            out = honest(t_series, u_series, m)
            return bump_window(out, a, c, m - 1) if m == 2 else out

        return faulty

    return wrap


def n_without_its_factor(honest):
    """N_m = res(X_m) instead of m res(X_m): the residue sits at index
    m - 1 of X_m's window, C_m's constant term at index m with factor 1."""

    def faulty(rows, den, index, factor):
        return honest(rows, den, index, 1 if index == factor - 1 else factor)

    return faulty


def log_square_sign_flipped(honest):
    """log C with +x^2/2 for -x^2/2, x = C - I."""

    def faulty(a):
        x = MatrixSeries([zero_matrix(a.dim)] + list(a.coeffs[1:]))
        return honest(a) + x * x

    return faulty


def on_first_call(edit):
    """The first call in a run returns edit(output); later calls are honest."""

    def wrap(honest):
        calls = itertools.count()

        def faulty(*args):
            out = honest(*args)
            return edit(out) if next(calls) == 0 else out

        return faulty

    return wrap


def exp_entry_bumped(series):
    """Order-1 entry (0, 1) of the oracle's first conjugator, one higher."""
    coeffs = list(series.coeffs)
    rows = [list(row) for row in coeffs[1]]
    rows[0][1] = rows[0][1] + ONE
    coeffs[1] = tuple(tuple(row) for row in rows)
    return MatrixSeries(coeffs)


def trace_bumped(traces):
    """tr(B^1) at order 1 one higher."""
    traces = [list(by_order) for by_order in traces]
    traces[0][1] = traces[0][1] + ONE
    return traces


EVERY_CHECK = {
    "commutation",
    "conjugacy",
    "generator_hermitian",
    "hermitian",
    "oracle_match",
    "unitarity",
    "trace_powers.1",
    "trace_powers.2",
    "trace_powers.3",
}

# (name in mouldpert.operators, wrapper, problem, false flags)
FAULTS = {
    "next_t_zero_gap": ("_next_t", next_t_numerator(0, 0), "simple", EVERY_CHECK),
    "next_t_degenerate_pair": ("_next_t", next_t_numerator(1, 2), "degenerate", EVERY_CHECK),
    "x_window_residue": ("_x_window", x_window_numerator(0, 0), "simple", EVERY_CHECK),
    "n_factor_m": (
        "_degree_matrix",
        n_without_its_factor,
        "simple",
        {"conjugacy", "oracle_match", "trace_powers.2", "trace_powers.3"},
    ),
    "log_coefficient": ("series_log", log_square_sign_flipped, "simple", {"generator_hermitian"}),
    # the oracle's conjugator: nothing but the oracle reads it
    "oracle_exp_entry": ("series_exp", on_first_call(exp_entry_bumped), "simple", {"oracle_match"}),
    # the first call forms the traces of H0 + mu V in verify_conjugacy
    "power_trace": ("_power_traces", on_first_call(trace_bumped), "simple", {"trace_powers.1"}),
}


def false_flags(verification) -> set:
    flags = {name for name, value in verification.items() if value is False}
    return flags | {f"trace_powers.{p}" for p, ok in verification["trace_powers"].items() if not ok}


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ladder")
    paths = {}
    for kind, problem in PROBLEMS.items():
        paths[kind] = directory / f"{kind}.json"
        paths[kind].write_text(json.dumps(problem.to_json_dict()))
    return paths


def run_solve(path) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", str(path)])
    return code, json.loads(out.getvalue())["verification"]


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_ladder_problems_are_clean(problem_files, kind):
    code, verification = run_solve(problem_files[kind])
    assert code == 0
    assert false_flags(verification) == set()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_trips_its_row(problem_files, monkeypatch, fault):
    name, wrap, kind, expected = FAULTS[fault]
    monkeypatch.setattr(operators, name, wrap(getattr(operators, name)))
    code, verification = run_solve(problem_files[kind])
    assert code == 1
    assert false_flags(verification) == expected
