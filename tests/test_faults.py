"""A fault table for the matrix path of ``solve``.

Each row replaces one function of ``mouldpert.operators`` by a wrapper
that returns one wrong value, runs ``mouldpert solve`` on the smallest
ladder problem (three levels, order 4: simple, degenerate, or simple
with hbar = 1/2; or order 5, where the sign of g^K is read), and records
which verification flags turn false.  The row's expected set is the
whole set of false flags, so the table shows which checks catch which
fault, and which check is the only one that does.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest

from mouldpert import operators
from mouldpert.cli import main
from mouldpert.operators import random_problem
from mouldpert.scalars import ONE

PROBLEMS = {
    "simple": random_problem(3, 4, seed=3),
    "degenerate": random_problem(3, 4, seed=3, degenerate=True),
    "hbar-half": random_problem(3, 4, seed=3, hbar=Fraction(1, 2)),
    # an odd order: the factor of a negative gap g carries the sign of g^K
    "odd-order": random_problem(3, 5, seed=3),
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


def next_t_negative_gaps_negated(honest):
    """Phi(T)_1 with every entry at a negative gap g = E0(a) - E0(c)
    negated, as if the factor dropped the sign of g^K."""

    def faulty(t, v, levels, m, K):
        den, rows = honest(t, v, levels, m, K)
        if m != 1:
            return den, rows
        level = levels[1]
        assert any(level[a] < level[c] for a, row in enumerate(rows) for c, _, _ in row)
        return den, [
            [(c, [-x for x in re], [-x for x in im]) if level[a] < level[c] else (c, re, im) for c, re, im in row]
            for a, row in enumerate(rows)
        ]

    return faulty


def next_t_zero_gaps_doubled(honest):
    """Phi(T)_2 with every entry at a zero gap doubled, as if the shift
    of the window at a zero gap carried the multiplier twice."""

    def faulty(t, v, levels, m, K):
        den, rows = honest(t, v, levels, m, K)
        if m != 2:
            return den, rows
        level = levels[1]
        assert any(level[a] == level[c] for a, row in enumerate(rows) for c, _, _ in row)
        return den, [
            [(c, [2 * x for x in re], [2 * x for x in im]) if level[a] == level[c] else (c, re, im) for c, re, im in row]
            for a, row in enumerate(rows)
        ]

    return faulty


def next_t_factor_coefficient(honest):
    """Phi(T)_1 with the degree-1 numerator (index 2) of its first entry at
    a nonzero gap one higher: one coefficient of the factor 1/(g/D + e')
    wrong."""

    def faulty(t, v, levels, m, K):
        out = honest(t, v, levels, m, K)
        if m != 1:
            return out
        level = levels[1]
        a, c = next((a, c) for a, row in enumerate(out[1]) for c, _, _ in row if level[a] != level[c])
        return bump_window(out, a, c, 2)

    return faulty


def x_window_numerator(a, c):
    """X_2, entry (a, c), one numerator high at degree -1 (index 1): N_2
    and Phi(U_minus)_2 read it."""

    def wrap(honest):
        def faulty(t_series, u_series, m):
            out = honest(t_series, u_series, m)
            return bump_window(out, a, c, m - 1) if m == 2 else out

        return faulty

    return wrap


def x_window_shifted(honest):
    """X_2 with every entry read one degree high: index i holds what
    belongs at index i + 1, and the last index is 0."""

    def faulty(t_series, u_series, m):
        den, rows = honest(t_series, u_series, m)
        if m != 2:
            return den, rows
        return den, [[(c, re[1:] + [0], im[1:] + [0]) for c, re, im in row] for row in rows]

    return faulty


def n_without_its_factor(honest):
    """N_m = res(X_m) instead of m res(X_m): the residue sits at index
    m - 1 of X_m's window, C_m's constant term at index m with factor 1."""

    def faulty(rows, den, index, factor):
        return honest(rows, den, index, 1 if index == factor - 1 else factor)

    return faulty


def on_call(number, edit):
    """Call ``number`` (0 for the first) in a run returns edit(output);
    every other call is honest."""

    def wrap(honest):
        calls = itertools.count()

        def faulty(*args):
            out = honest(*args)
            return edit(out) if next(calls) == number else out

        return faulty

    return wrap


def entry_bumped(matrix):
    """The matrix with entry (0, 1) one higher."""
    rows = [list(row) for row in matrix]
    rows[0][1] = rows[0][1] + ONE
    return tuple(tuple(row) for row in rows)


def entries_added(changes):
    """Edit of a matrix: entry (i, j) plus changes[(i, j)]."""

    def edit(matrix):
        rows = [list(row) for row in matrix]
        for (i, j), delta in changes.items():
            rows[i][j] = rows[i][j] + delta
        return tuple(tuple(row) for row in rows)

    return edit


def negated(window):
    """(denominator, rows) of a window with every numerator negated."""
    den, rows = window
    return den, [[(c, [-v for v in re], [-v for v in im]) for c, re, im in row] for row in rows]


def adjoint_not_conjugated(honest):
    """C* as C transposed, its imaginary parts kept: the adjoint without
    the conjugate."""

    def faulty(rows):
        return [[(c, re, -im) for c, re, im in row] for row in honest(rows)]

    return faulty


def oracle_entry_bumped(i, j):
    """An oracle matrix, (denominator, rows) with rows {column: (re, im)},
    with entry (i, j) one higher."""

    def edit(matrix):
        den, rows = matrix
        rows = [dict(row) for row in rows]
        re, im = rows[i].get(j, (0, 0))
        rows[i][j] = (re + den, im)
        return den, rows

    return edit


def order_2_diagonal_bumped(x):
    """The oracle's conjugated series with entry (0, 0) of order 2 one
    higher: the next N_2 is its resonant part, so it reads the entry."""
    x = list(x)
    x[2] = oracle_entry_bumped(0, 0)(x[2])
    return x


def last_term_scaled(honest):
    """The sum of an order's terms with its last term brought over the lcm
    at twice its scale (its numerators doubled) on the first call."""
    calls = itertools.count()

    def faulty(parts):
        if next(calls) == 0:
            den, rows = parts[-1]
            doubled = [{c: (2 * re, 2 * im) for c, (re, im) in row.items()} for row in rows]
            parts = parts[:-1] + [(den, doubled)]
        return honest(parts)

    return faulty


def trace_bumped(traces):
    """tr(B^1) at order 1 one higher."""
    traces = [list(by_order) for by_order in traces]
    traces[0][1] = traces[0][1] + ONE
    return traces


def split_trace_bumped(traces):
    """A split trace, (real, imaginary) integers by order, one higher in
    its real part at order 1."""
    return [(re + 1, im) if k == 1 else (re, im) for k, (re, im) in enumerate(traces)]


EVERY_CHECK = {
    "commutation",
    "conjugacy",
    "hermitian",
    "oracle_match",
    "unitarity",
    "trace_powers.1",
    "trace_powers.2",
    "trace_powers.3",
}

C_CHECKS = {"conjugacy", "unitarity"}

# (name in mouldpert.operators, wrapper, problem, false flags)
FAULTS = {
    "next_t_zero_gap": ("_next_t", next_t_numerator(0, 0), "simple", EVERY_CHECK),
    "next_t_degenerate_pair": ("_next_t", next_t_numerator(1, 2), "degenerate", EVERY_CHECK),
    # the sign of g^K is -1 at a negative gap only at an odd order
    "next_t_negative_gap_sign": ("_next_t", next_t_negative_gaps_negated, "odd-order", EVERY_CHECK),
    "next_t_zero_gap_shift": ("_next_t", next_t_zero_gaps_doubled, "degenerate", EVERY_CHECK),
    # N_k stays resonant here: the wrong factor sits at a nonzero gap
    "next_t_factor_coefficient": (
        "_next_t",
        next_t_factor_coefficient,
        "degenerate",
        EVERY_CHECK - {"commutation"},
    ),
    "x_window_residue": ("_x_window", x_window_numerator(0, 0), "simple", EVERY_CHECK),
    "x_window_offset": ("_x_window", x_window_shifted, "simple", EVERY_CHECK),
    "n_factor_m": (
        "_degree_matrix",
        n_without_its_factor,
        "simple",
        {"conjugacy", "oracle_match", "trace_powers.2", "trace_powers.3"},
    ),
    # calls 0 and 1 of _degree_matrix form C_1 and N_1, call 2 forms C_2;
    # N is untouched, so only the checks that read C catch it
    "c_entry": ("_degree_matrix", on_call(2, entry_bumped), "simple", C_CHECKS),
    "c_entry_degenerate": ("_degree_matrix", on_call(2, entry_bumped), "degenerate", C_CHECKS),
    # call 6 forms C_4, the top order of the simple problem, where X added to
    # C_K adds X + X* to (C C*)_K and X H0 + H0 X* to (C H C*)_K, and nothing
    # to a higher order.  At (0, 1), E0(0) + E0(1) = 0: a Hermitian X leaves
    # (C H C*)_K as it is, and only unitarity catches it; an anti-Hermitian X
    # leaves C unitary, and only conjugacy catches it
    "c_top_hermitian": (
        "_degree_matrix",
        on_call(6, entries_added({(0, 1): ONE, (1, 0): ONE})),
        "simple",
        {"unitarity"},
    ),
    "c_top_anti_hermitian": (
        "_degree_matrix",
        on_call(6, entries_added({(0, 1): ONE, (1, 0): -ONE})),
        "simple",
        {"conjugacy"},
    ),
    # call 7 forms N_4.  A non-Hermitian N_K breaks (C H C*)_K = H0 + N_K, as
    # C H C* is Hermitian; inside the degenerate block of levels 1 and 2 the
    # oracle compares traces, which an off-diagonal entry at the top order
    # does not move, so hermitian fires only with conjugacy
    "n_top_not_hermitian": (
        "_degree_matrix",
        on_call(7, entries_added({(1, 2): ONE})),
        "degenerate",
        {"conjugacy", "hermitian"},
    ),
    # every entry off the degenerate blocks is compared with the oracle's
    # resonant N, so commutation fires only with oracle_match
    "n_top_off_resonance": (
        "_degree_matrix",
        on_call(7, entries_added({(0, 1): ONE, (1, 0): ONE})),
        "simple",
        {"commutation", "conjugacy", "oracle_match"},
    ),
    # the adjoint feeds (C H) C* and C C*, so only the checks that read C catch it
    "adjoint_conjugate": ("_adjoint_rows", adjoint_not_conjugated, "simple", C_CHECKS),
    # call 0 of _reduced reduces Phi(T)_1, call 1 forms Phi(U_minus)_1
    "u_minus_sign": ("_reduced", on_call(1, negated), "simple", EVERY_CHECK),
    # the oracle's own values: nothing but the oracle reads them.  The first
    # ad term is ad_(A_1)(H0), A_1 = W_1 / (i hbar); call 1 of the generator
    # forms A_2
    "oracle_exp_entry": ("_ad_term", on_call(0, oracle_entry_bumped(0, 1)), "simple", {"oracle_match"}),
    "oracle_w_entry": ("_oracle_generator", on_call(1, oracle_entry_bumped(0, 1)), "simple", {"oracle_match"}),
    # call 0 of the conjugation clears order 1 of the oracle's series
    "oracle_conjugation_entry": ("_conjugated", on_call(0, order_2_diagonal_bumped), "simple", {"oracle_match"}),
    # call 0 of the order sum adds order 1 of the series to ad_(A_1)(H0)
    "oracle_term_scale": ("_order_sum", last_term_scaled, "simple", {"oracle_match"}),
    # the first call forms the traces of H0 + mu V in verify_conjugacy
    "power_trace": ("_power_traces", on_call(0, trace_bumped), "simple", {"trace_powers.1"}),
    # with n = 3 only B^1 and B^2 are formed: the first split trace is
    # tr(B^3) of H0 + mu V, in verify_conjugacy
    "split_trace": ("_split_trace", on_call(0, split_trace_bumped), "simple", {"trace_powers.3"}),
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
