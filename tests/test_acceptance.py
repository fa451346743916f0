"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts its stated tolerance (exact zero for the
algebraic identities, factor-of-4 bands for the numeric convergence check).
"""

from fractions import Fraction

import pytest

from mouldpert.birkhoff import (
    BirkhoffEngine,
    verify_factorization,
    verify_mould_equation,
    verify_support,
)
from mouldpert.moulds import Alphabet, is_alternal_up_to, is_symmetral_up_to
from mouldpert.operators import (
    PerturbationProblem,
    compare_with_oracle,
    build_normal_form,
    random_problem,
    solve,
    spectral_decompose,
)
from mouldpert.scalars import GaussianRational, ONE, ZERO
from test_birkhoff import source_u_plus


ACCEPTANCE_ALPHABET = "i,-i,2i,0"


def report(number: int, description: str, ok: bool):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def engine():
    return BirkhoffEngine(Alphabet.parse(ACCEPTANCE_ALPHABET), max_length=5)


def two_level_problem(order):
    one = GaussianRational(1)
    zero = GaussianRational(0)
    return PerturbationProblem(
        e0=(Fraction(0), Fraction(1)),
        v=((zero, one), (one, zero)),
        order=order,
    )


def sqrt_series_eigenvalue_coefficients(max_power: int):
    """Independent oracle: (1 - sqrt(1 + 4x)) / 2 as a power series in x,
    via the binomial recurrence for the square-root coefficients."""
    binom = [Fraction(1)]
    for k in range(1, max_power + 1):
        binom.append(binom[-1] * (Fraction(1, 2) - (k - 1)) / k)
    # coefficient of x^k: -(1/2) * binom(1/2, k) * 4^k   for k >= 1
    return [-(binom[k] * 4 ** k) / 2 for k in range(1, max_power + 1)]


def test_criterion_01_birkhoff_factorization(engine):
    result = verify_factorization(engine, max_length=5)
    ok = result.ok and result.words_checked == 1365
    report(1, "U_minus x T = U_plus through e^0 on all words of length <= 5", ok)


def test_criterion_02_mould_equation(engine):
    s_equation, r_equation, _ = verify_mould_equation(engine, max_length=4)
    ok = s_equation.ok and r_equation.ok
    report(2, "mould-equation residuals exactly zero on all words of length <= 4", ok)


def test_criterion_03_symmetrality_and_alternality(engine):
    reports = [
        is_symmetral_up_to(engine.u_minus, 4),
        is_symmetral_up_to(source_u_plus(engine), 4),
        is_symmetral_up_to(engine.S, 4),
        is_alternal_up_to(engine.R, 4),
    ]
    ok = all(r.ok for r in reports) and all(r.pairs_checked > 0 for r in reports)
    report(3, "U_minus, U_plus, S symmetral and R alternal for total length <= 4", ok)


def test_criterion_04_support_property(engine):
    result = verify_support(engine, max_length=5)
    ok = result.ok and result.words_checked > 0
    report(4, "U_minus and R vanish off resonance on all words of length <= 5", ok)


def test_criterion_05_closed_form_two_level_benchmark():
    out = solve(two_level_problem(order=6))
    lower = out.eigen[0]
    oracle = sqrt_series_eigenvalue_coefficients(3)
    ok = (
        lower == [0, 0, -1, 0, 1, 0, -2]
        and [lower[2], lower[4], lower[6]] == oracle
        and oracle == [Fraction(-1), Fraction(1), Fraction(-2)]
    )
    report(5, "2x2 benchmark lower eigenvalue has coefficients (-1,+1,-2) at mu^(2,4,6)", ok)


def test_criterion_06_oracle_equivalence_on_random_problems():
    sizes = [(2, 5), (3, 5), (4, 4), (5, 3)] * 4 + [(3, 4), (4, 5), (5, 4), (2, 3)]
    assert len(sizes) == 20
    ok = True
    for seed, (dim, order) in enumerate(sizes):
        problem = random_problem(dim, order, seed=seed)
        assert problem.is_simple
        sd = spectral_decompose(problem)
        n_series, _ = build_normal_form(sd, BirkhoffEngine(sd.alphabet, problem.order))
        outcome = compare_with_oracle(problem, n_series)
        if not outcome.ok:
            ok = False
            break
    report(6, "mould normal form equals the recursive oracle on 20 seeded problems", ok)


def _criterion7_problems():
    degenerate = PerturbationProblem(
        e0=(Fraction(0), Fraction(0), Fraction(1)),
        v=(
            (GaussianRational(1), GaussianRational(0, 1), GaussianRational(1)),
            (GaussianRational(0, -1), GaussianRational(0), GaussianRational(0, 2)),
            (GaussianRational(1), GaussianRational(0, -2), GaussianRational(-1)),
        ),
        order=4,
    )
    return [
        two_level_problem(order=6),
        degenerate,
        random_problem(3, 4, seed=101),
        random_problem(4, 3, seed=102),
        random_problem(3, 3, seed=103, degenerate=True),
    ]


def test_criterion_07_conjugacy_unitarity_commutation():
    ok = True
    for problem in _criterion7_problems():
        out = solve(problem)
        verdict = out.conjugacy
        clean = (
            verdict.conjugacy_ok
            and verdict.unitarity_ok
            and all(verdict.commutation_ok)
            and all(verdict.hermitian_ok)
            and all(verdict.trace_ok.values())
        )
        if not clean:
            ok = False
            break
    report(7, "conjugacy, unitarity and [H0,N]=0 vanish exactly through mu^K (incl. degenerate)", ok)


def test_criterion_08_numeric_convergence():
    out = solve(
        two_level_problem(order=4),
        mu_samples=[Fraction(1, 100), Fraction(1, 1000)],
    )
    first, second = out.numeric
    # first neglected term of the even series is -2 mu^6
    target = 2.0 * (1e-2) ** 6
    in_band = target / 4 <= first.max_error <= target * 4
    ratio = first.max_error / second.max_error
    ratio_ok = 1e6 / 4 <= ratio <= 4e6
    ok = in_band and ratio_ok and not first.ambiguous
    report(8, "numeric error ~ 2 mu^6 at mu=1e-2 and ratio ~ 1e6 between mu=1e-2 and 1e-3", ok)


def test_criterion_09_second_order_textbook_formula():
    ok = True
    for seed in range(10):
        dim = 3 + seed % 3
        problem = random_problem(dim, 2, seed=200 + seed)
        assert problem.is_simple
        sd = spectral_decompose(problem)
        n_series, _ = build_normal_form(sd, BirkhoffEngine(sd.alphabet, problem.order))
        for n in range(dim):
            expected = Fraction(0)
            for m in range(dim):
                if m != n:
                    expected += (problem.v[n][m] * problem.v[n][m].conjugate()).re / (
                        problem.e0[n] - problem.e0[m]
                    )
            if n_series.coeffs[2][n][n] != GaussianRational(expected):
                ok = False
        if not ok:
            break
    report(9, "diagonal of N_2 equals sum |V[n][m]|^2/(E0(n)-E0(m)) on 10 seeded problems", ok)


def test_criterion_10_first_order_identities():
    problems = [
        two_level_problem(order=2),
        random_problem(3, 2, seed=301),
        random_problem(4, 2, seed=302),
        random_problem(3, 2, seed=303, degenerate=True),
    ]
    ok = True
    for problem in problems:
        sd = spectral_decompose(problem)
        engine = BirkhoffEngine(sd.alphabet, problem.order)
        n_series, _ = build_normal_form(sd, engine)
        if n_series.coeffs[1] != problem.resonant_part(problem.v):
            ok = False
        for index, lam in enumerate(sd.alphabet.letters):
            word = sd.alphabet.word_of(lam)
            expected = ZERO if not lam else ONE / lam
            if engine.S.scalar(word) != expected:
                ok = False
    report(10, "N_1 is the resonant part of V and S^(lam) = 1/lam, S^(0) = 0, on every problem", ok)


def test_criterion_11_oracle_equivalence_on_degenerate_problems():
    cases = [(3 + seed % 2, Fraction(1 + seed // 10)) for seed in range(20)]
    ok = True
    for seed, (dim, hbar) in enumerate(cases):
        problem = random_problem(dim, 4, seed=seed, hbar=hbar, degenerate=True)
        assert not problem.is_simple
        out = solve(problem)
        if not (out.oracle.ok and out.ok):
            ok = False
            break
    report(
        11,
        "mould normal form equals the recursive oracle up to a basis change in each "
        "eigenspace of H0 on 20 seeded degenerate problems",
        ok,
    )
