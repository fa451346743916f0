"""A fault table for the matrix path of ``solve``.

Each row replaces one function of ``mouldpert.operators`` by a wrapper
that returns one wrong value, runs ``mouldpert solve`` on the smallest
ladder problem (three levels, order 4: simple, degenerate, or simple
with hbar = 1/2; or order 5, where the sign of g^(K - m + 1) is read at
m = 1), and records which verification flags turn false.  The row's
expected set is the whole set of false flags, so the table shows which
checks catch which fault, and which check is the only one that does.
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
    # an odd order: at m = 1 the factor of a negative gap g carries the sign of g^K
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


def y_numerator(a, c, m, index):
    """Y_m, entry (a, c), one numerator high at degree ``index``."""

    def wrap(honest):
        def faulty(u_series, n_series, v, order, K):
            out = honest(u_series, n_series, v, order, K)
            return bump_window(out, a, c, index) if order == m else out

        return faulty

    return wrap


def y_shifted(honest):
    """Y_2 with every entry read one degree high: index i holds what
    belongs at index i + 1, and the last index is 0."""

    def faulty(u_series, n_series, v, m, K):
        den, rows = honest(u_series, n_series, v, m, K)
        if m != 2:
            return den, rows
        return den, [[(c, re[1:] + [0], im[1:] + [0]) for c, re, im in row] for row in rows]

    return faulty


def y_n_terms_added(honest):
    """Y_m with the terms N_j U_(m-j) added instead of subtracted: every
    N_j it reads negated."""

    def faulty(u_series, n_series, v, m, K):
        return honest(u_series, [n and negated(n) for n in n_series], v, m, K)

    return faulty


def next_u_entries(m, gap, edit):
    """U_m with edit(re, im) applied to every entry whose level gap
    g = E0(a) - E0(c) passes ``gap``; N_m as it is."""

    def wrap(honest):
        def faulty(y, levels, order, K):
            (den, rows), n = honest(y, levels, order, K)
            if order != m:
                return (den, rows), n
            level = levels[1]
            assert any(gap(level[a] - level[c]) for a, row in enumerate(rows) for c, _, _ in row)
            rows = [
                [(c, *edit(re, im)) if gap(level[a] - level[c]) else (c, re, im) for c, re, im in row]
                for a, row in enumerate(rows)
            ]
            return (den, rows), n

        return faulty

    return wrap


def next_u_factor_coefficient(honest):
    """U_1 with the degree-1 numerator (index 1) of its first entry at a
    nonzero gap one higher: one coefficient of the factor 1/(g/D + e')
    wrong."""

    def faulty(y, levels, m, K):
        u, n = honest(y, levels, m, K)
        if m != 1:
            return u, n
        level = levels[1]
        a, c = next((a, c) for a, row in enumerate(u[1]) for c, _, _ in row if level[a] != level[c])
        return bump_window(u, a, c, 1), n

    return faulty


def n_without_its_factor(honest):
    """Every N_m over m, as if N_m were the residue of Phi(U_minus)_m
    without its factor m: call 2m - 1 of _degree_matrix forms N_m."""
    calls = itertools.count()

    def faulty(den, rows):
        out = honest(den, rows)
        call = next(calls)
        if call % 2 == 0:
            return out
        m = (call + 1) // 2
        return tuple(tuple(x / m for x in row) for row in out)

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
    """A split trace, one GaussianRational per order, one higher at order 1."""
    return [t + ONE if k == 1 else t for k, t in enumerate(traces)]


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

# N_m is written only at zero gaps, so no fault of the construction can
# make commutation fire: only an edited N does (n_top_off_resonance)
CONSTRUCTION_CHECKS = EVERY_CHECK - {"commutation"}
# on the simple problems N is diagonal, and a fault with real numerators
# leaves it real: hermitian does not fire either
SIMPLE_CHECKS = CONSTRUCTION_CHECKS - {"hermitian"}

# (name in mouldpert.operators, wrapper, problem, false flags)
FAULTS = {
    # Y_1 = V: entry (0, 0) is N_1's, at a zero gap
    "y_zero_gap": ("_y_window", y_numerator(0, 0, 1, 0), "simple", SIMPLE_CHECKS),
    # inside the degenerate block of levels 1 and 2 the bump makes N_1 non-Hermitian
    "y_degenerate_pair": ("_y_window", y_numerator(1, 2, 1, 0), "degenerate", CONSTRUCTION_CHECKS),
    # degree 1 of Y_2 at a zero gap is degree 0 of U_2: C_2, C_3 and C_4
    # change, and no order of N, so only the checks that read C catch it
    "y_shifted_degree": ("_y_window", y_numerator(0, 0, 2, 1), "simple", C_CHECKS),
    "y_offset": ("_y_window", y_shifted, "simple", SIMPLE_CHECKS),
    "n_term_sign": ("_y_window", y_n_terms_added, "simple", SIMPLE_CHECKS),
    # the sign of g^(K-m+1) is -1 at a negative gap only at an odd K - m + 1:
    # order 5 at m = 1
    "u_negative_gap_sign": (
        "_next_u",
        next_u_entries(1, lambda g: g < 0, lambda re, im: ([-x for x in re], [-x for x in im])),
        "odd-order",
        SIMPLE_CHECKS,
    ),
    # U_2 at the zero gaps without its division by m = 2: C_2..C_4 change,
    # and N_3 and N_4 inside the degenerate block, whose traces stay put
    "u_zero_gap_shift": (
        "_next_u",
        next_u_entries(2, lambda g: g == 0, lambda re, im: ([2 * x for x in re], [2 * x for x in im])),
        "degenerate",
        {"conjugacy", "hermitian", "unitarity"},
    ),
    # degree 1 of U_1 changes C_2..C_4 and no order of N, like
    # y_shifted_degree: only the checks that read C catch it
    "u_factor_coefficient": ("_next_u", next_u_factor_coefficient, "degenerate", C_CHECKS),
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
