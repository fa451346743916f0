"""Matrix application: decomposition, expansions, oracle, numeric checks."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import mouldpert
from mouldpert import moulds, operators
from mouldpert.birkhoff import BirkhoffEngine
from mouldpert.laurent import Laurent
from mouldpert.moulds import mould_log
from mouldpert.operators import (
    MatrixSeries,
    PerturbationProblem,
    SpectralDecomposition,
    build_conjugator,
    build_normal_form,
    compare_with_oracle,
    hierarchy_oracle,
    identity_matrix,
    mat_add,
    mat_magnitude,
    mat_mul,
    mat_scale,
    mat_to_json,
    random_problem,
    solve,
    spectral_decompose,
    verify_conjugacy,
    zero_matrix,
)
from mouldpert.scalars import GaussianRational, I, ONE, ZERO, parse_scalar


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def two_level_problem(order=6):
    v = ((gr(0), gr(1)), (gr(1), gr(0)))
    return PerturbationProblem(e0=(Fraction(0), Fraction(1)), v=v, order=order)


def diagonal_problem(order=3):
    v = ((gr(2), gr(0)), (gr(0), gr(-3)))
    return PerturbationProblem(e0=(Fraction(0), Fraction(5)), v=v, order=order)


def degenerate_problem(order=4):
    v = (
        (gr(1), gr(0, 1), gr(1)),
        (gr(0, -1), gr(0), gr(0, 2)),
        (gr(1), gr(0, -2), gr(-1)),
    )
    return PerturbationProblem(e0=(Fraction(0), Fraction(0), Fraction(1)), v=v, order=order)


def sparse_half_integer_problem(dim, order, seed):
    """A problem shaped like the wide benchmark problems: distinct
    half-integer levels from (-40, 40), 15% of the level pairs coupled by
    small nonzero Gaussian integers, small integer diagonal."""
    rng = random.Random(seed)
    e0 = [Fraction(2 * k + 1, 2) for k in rng.sample(range(-40, 40), dim)]
    pairs = [(k, l) for k in range(dim) for l in range(k + 1, dim)]
    v = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim):
        v[k][k] = gr(rng.randint(-2, 2))
    for k, l in rng.sample(pairs, round(Fraction(15, 100) * len(pairs))):
        re = im = 0
        while not (re or im):
            re, im = rng.randint(-2, 2), rng.randint(-2, 2)
        v[k][l] = gr(re, im)
        v[l][k] = v[k][l].conjugate()
    return PerturbationProblem(e0=tuple(e0), v=tuple(tuple(row) for row in v), order=order)


def fractional_problem(order=3):
    """Fractional, degenerate levels, Gaussian-rational V and hbar = 7/3:
    the components' denominator and hbar both differ from 1."""
    return PerturbationProblem.from_json_dict(
        {
            "E0": ["1/3", "1/7", "1/3"],
            "V": [["1/5", "2/9+1/11i", "3"], ["2/9-1/11i", "0", "-5/4i"], ["3", "5/4i", "2"]],
            "hbar": "7/3",
            "order": order,
        }
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_is_zero(a):
    return all(not x for row in a for x in row)


# -- dense series references: every power a full MatrixSeries product ----------


def mat_adjoint(a):
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a)))


def series_adjoint(a):
    return MatrixSeries([mat_adjoint(x) for x in a.coeffs])


def series_mul(a, b):
    """The truncated series product of GaussianRational coefficients, by
    ``mat_mul``, a kernel the oracle does not use."""
    out = []
    for k in range(a.order + 1):
        acc = zero_matrix(a.dim)
        for j in range(k + 1):
            acc = mat_add(acc, mat_mul(a.coeffs[j], b.coeffs[k - j]))
        out.append(acc)
    return MatrixSeries(out)


def series_add(a, b):
    return MatrixSeries([mat_add(x, y) for x, y in zip(a.coeffs, b.coeffs)])


def series_scale(c, a):
    return MatrixSeries([mat_scale(c, x) for x in a.coeffs])


def power_sum(a, coefficient):
    """a + sum over j >= 2 of coefficient(j) a^j for a with vanishing order-0
    term (exp and log both start with x), up to the first vanishing power."""
    out = power = a
    for j in range(2, a.order + 1):
        power = series_mul(power, a)
        if all(mat_is_zero(c) for c in power.coeffs):
            break
        out = series_add(out, series_scale(GaussianRational(coefficient(j)), power))
    return out


def series_exp(a):
    """exp of a series with vanishing order-0 term (finite in truncation)."""
    if not mat_is_zero(a.coeffs[0]):
        raise ValueError("series_exp needs a vanishing order-0 coefficient")
    identity = MatrixSeries.from_orders(a.dim, a.order, {0: identity_matrix(a.dim)})
    return series_add(identity, power_sum(a, lambda j: Fraction(1, math.factorial(j))))


def series_log(a):
    """log of a series with identity order-0 term: the log series of
    a - I, which is a with its order-0 term set to zero."""
    if a.coeffs[0] != identity_matrix(a.dim):
        raise ValueError("series_log needs an identity order-0 coefficient")
    rest = MatrixSeries([zero_matrix(a.dim)] + list(a.coeffs[1:]))
    return power_sum(rest, lambda j: Fraction((-1) ** (j - 1), j))


def inv_ihbar(problem):
    """1 / (i hbar) = -i / hbar."""
    return GaussianRational(0, -1 / problem.hbar)


def dense_components(sd):
    """The component matrices B_lam, by letter index, from their integer
    rows over ``den``."""
    return [from_integer_rows(rows, sd.den, sd.problem.dim) for rows in sd.component_rows]


def component_for(sd, letter):
    return dense_components(sd)[sd.alphabet.index(letter)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def dense_nested_bracket(sd, word):
    """[B_(w1), [B_(w2), ... B_(wk)]] / (i hbar)^(k-1) by dense commutators."""
    components, scale = dense_components(sd), inv_ihbar(sd.problem)
    dense = components[word[-1]]
    for i in word[-2::-1]:
        dense = mat_scale(scale, commutator(components[i], dense))
    return dense


# -- problem validation ----------------------------------------------------------


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match=r"not Hermitian at \(0,1\)"):
        PerturbationProblem(
            e0=(Fraction(0), Fraction(1)),
            v=((gr(0), gr(1)), (gr(2), gr(0))),
        )
    with pytest.raises(ValueError, match="not Hermitian"):
        PerturbationProblem(
            e0=(Fraction(0),),
            v=((gr(0, 1),),),
        )


def test_rejects_bad_shapes_and_hbar():
    with pytest.raises(ValueError):
        PerturbationProblem(e0=(Fraction(0),), v=((gr(0), gr(0)),))
    with pytest.raises(ValueError):
        PerturbationProblem(e0=(Fraction(0),), v=((gr(0),),), hbar=Fraction(0))
    for order in (0, -1):
        with pytest.raises(ValueError, match="the truncation order must be at least 1"):
            two_level_problem(order=order)


def test_json_roundtrip():
    problem = two_level_problem(order=3)
    data = problem.to_json_dict()
    assert data["E0"] == ["0", "1"]
    again = PerturbationProblem.from_json_dict(data)
    assert again == problem


def test_repeated_literals_are_parsed_once_per_matrix(monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_scalar(text)

    monkeypatch.setattr(operators, "parse_scalar", counting)
    m = operators.mat_from_json([["0", "1+i", "0"], ["1-i", "0", 2], ["0", 2, "1/2"]])
    assert m == (
        (ZERO, gr(1, 1), ZERO),
        (gr(1, -1), ZERO, gr(2)),
        (ZERO, gr(2), gr(Fraction(1, 2))),
    )
    assert sorted(parsed) == ["0", "1+i", "1-i", "1/2"]


@pytest.mark.parametrize("entry", [[], True, None, {"re": "1"}, 1.5])
def test_matrix_entries_that_are_not_scalars_are_named(entry):
    for rows in ([["0", entry], ["0", "0"]], [[entry]]):
        with pytest.raises(ValueError) as raised:
            operators.mat_from_json(rows)
        assert str(raised.value) == f"expected a scalar literal string or an integer, got {entry!r}"


def test_random_problem_is_reproducible_and_simple():
    a = random_problem(4, 3, seed=5)
    b = random_problem(4, 3, seed=5)
    assert a == b
    assert a.is_simple
    assert not random_problem(3, 2, seed=1, degenerate=True).is_simple


# -- spectral decomposition ---------------------------------------------------------


def test_two_level_decomposition():
    sd = spectral_decompose(two_level_problem())
    letters = [str(v) for v in sd.alphabet.letters]
    assert letters == ["-i", "i"]
    upper = ((gr(0), gr(1)), (gr(0), gr(0)))
    lower = ((gr(0), gr(0)), (gr(1), gr(0)))
    assert component_for(sd, I) == upper
    assert component_for(sd, -I) == lower


def test_diagonal_perturbation_lands_in_the_zero_component():
    sd = spectral_decompose(diagonal_problem())
    assert len(sd.alphabet) == 1
    assert sd.alphabet.letters[0] == ZERO
    assert component_for(sd, ZERO) == diagonal_problem().v


def test_degenerate_block_is_resonant():
    problem = degenerate_problem()
    sd = spectral_decompose(problem)
    b0 = component_for(sd, ZERO)
    assert b0[0][1] == problem.v[0][1]
    assert b0[1][0] == problem.v[1][0]
    assert b0[0][0] == problem.v[0][0]
    assert b0[0][2] == ZERO


@pytest.mark.parametrize("seed,hbar", [(0, Fraction(1)), (1, Fraction(1, 2)), (2, Fraction(3))])
def test_decomposition_invariants(seed, hbar):
    problem = random_problem(4, 2, seed=seed, hbar=hbar)
    sd = spectral_decompose(problem)
    total = zero_matrix(problem.dim)
    h0 = problem.h0_matrix
    inv_ihbar = GaussianRational(0, -Fraction(1) / hbar)
    for index, lam in enumerate(sd.alphabet.letters):
        comp = dense_components(sd)[index]
        total = mat_sub(total, mat_scale(-ONE, comp))
        bracket = mat_scale(inv_ihbar, commutator(h0, comp))
        assert bracket == mat_scale(lam, comp)
        assert mat_adjoint(comp) == component_for(sd, -lam)
    assert total == problem.v
    assert sd.alphabet.closed_under_negation
    assert sd.alphabet.purely_imaginary


@pytest.mark.parametrize(
    "problem",
    [
        diagonal_problem(),
        degenerate_problem(),
        fractional_problem(),
        random_problem(4, 2, seed=1, hbar=Fraction(1, 2)),
        sparse_half_integer_problem(12, 2, seed=0),
    ],
    ids=["diagonal", "degenerate", "fractional", "random-hbar-half", "half-integer-12"],
)
def test_component_rows_partition_v_by_gap(problem):
    """Row k of the component of gap g holds, in column order, exactly the
    nonzero entries V[k][l] with level gap g, as Gaussian integers over
    den, the lcm of the denominators of V's parts: every nonzero entry of
    V is in one component, and only there."""
    sd = spectral_decompose(problem)
    parts = [x.re for row in problem.v for x in row] + [x.im for row in problem.v for x in row]
    assert sd.den == math.lcm(*(f.denominator for f in parts))
    level = problem.levels[1]
    entry_gaps = set()
    for k, row in enumerate(problem.v):
        entries = [(l, x.re * sd.den, x.im * sd.den) for l, x in enumerate(row) if x]
        assert all(re.denominator == im.denominator == 1 for _, re, im in entries)
        entry_gaps.update(level[k] - level[l] for l, _, _ in entries)
        for gap, rows in zip(sd.gaps, sd.component_rows):
            assert rows[k] == [e for e in entries if level[k] - level[e[0]] == gap]
    assert all(a > b for a, b in zip(sd.gaps, sd.gaps[1:]))  # distinct, largest first
    assert set(sd.gaps) == entry_gaps
    assert len(sd.component_rows) == len(sd.gaps)


# -- nested brackets -------------------------------------------------------------------


def bracket_value(sd, rows, k):
    """The nested bracket of a word of length k from the integer rows the
    walk carries for it: divided by den^k (i hbar)^(k-1), in GaussianRational
    arithmetic."""
    scale = inv_ihbar(sd.problem) ** (k - 1)
    out = [[ZERO] * sd.problem.dim for _ in range(sd.problem.dim)]
    for out_row, row in zip(out, rows):
        for l, re, im in row:
            out_row[l] = GaussianRational.from_integers(re, im, sd.den**k) * scale
    return tuple(tuple(row) for row in out)


def test_nested_bracket_of_cancelling_pair():
    sd = spectral_decompose(two_level_problem())
    index = sd.alphabet.index
    bracket = sd.sparse_left_bracket(index(I), sd.component_rows[index(-I)])
    expected = ((gr(0, -1), gr(0)), (gr(0), gr(0, 1)))  # -i * diag(1, -1)
    assert bracket_value(sd, bracket, 2) == expected


def test_nested_bracket_dies_on_commuting_letters():
    sd = spectral_decompose(diagonal_problem())
    zero = sd.alphabet.index(ZERO)
    bracket = sd.sparse_left_bracket(zero, sd.component_rows[zero])
    assert not any(bracket)
    assert mat_is_zero(bracket_value(sd, bracket, 2))


def test_nested_bracket_matches_dense_commutators():
    problems = (
        random_problem(3, 3, seed=9),
        random_problem(3, 3, seed=9, hbar=Fraction(1, 2)),
        degenerate_problem(order=3),
        fractional_problem(order=3),
    )
    for problem in problems:
        sd = spectral_decompose(problem)
        for word in (w for w in sd.alphabet.words_up_to(3) if w):
            sparse = sd.component_rows[word[-1]]
            for i in word[-2::-1]:
                sparse = sd.sparse_left_bracket(i, sparse)
            assert bracket_value(sd, sparse, len(word)) == dense_nested_bracket(sd, word)


def test_letters_are_their_integer_gaps():
    """Each letter is -i gap / (hbar D_E), gap the integer level gap of
    ``SpectralDecomposition.gaps``, so a word's letters sum to zero exactly
    when its gaps do."""
    for problem in (fractional_problem(), random_problem(4, 2, seed=1, hbar=Fraction(1, 2))):
        sd = spectral_decompose(problem)
        level_den = problem.levels[0]
        for letter, gap in zip(sd.alphabet.letters, sd.gaps):
            assert letter == GaussianRational(0, -Fraction(gap, level_den) / problem.hbar)
        for word in sd.alphabet.words_up_to(3):
            assert (not sd.alphabet.phi(word)) == (not sum(sd.gaps[i] for i in word))


# -- normal form ---------------------------------------------------------------------


def test_two_level_normal_form_orders():
    problem = two_level_problem(order=3)
    sd = spectral_decompose(problem)
    engine = BirkhoffEngine(sd.alphabet, problem.order)
    n_series, table = build_normal_form(sd, engine)
    assert mat_is_zero(n_series.coeffs[1])
    assert n_series.coeffs[2] == ((gr(-1), gr(0)), (gr(0), gr(1)))
    assert mat_is_zero(n_series.coeffs[3])
    words = {sd.alphabet.render_word(w) for w in table}
    assert words == {"i·-i", "-i·i"}


def test_diagonal_problem_normalizes_to_itself():
    problem = diagonal_problem(order=3)
    out = solve(problem)
    assert out.n_series.coeffs[1] == problem.v
    assert mat_is_zero(out.n_series.coeffs[2])
    assert out.c_series == MatrixSeries.from_orders(2, 3, {0: identity_matrix(2)})
    assert out.ok


def test_first_order_normal_form_is_the_resonant_part():
    for seed in (0, 1, 2):
        problem = random_problem(4, 2, seed=seed)
        out = solve(problem)
        assert out.n_series.coeffs[1] == problem.resonant_part(problem.v)


def unpruned_normal_form(sd, engine, order):
    """N^w times the dense nested bracket of w, summed over every word up to
    the order: no reachability pruning and no early exit on a zero bracket."""
    dim = sd.problem.dim
    terms = {k: zero_matrix(dim) for k in range(1, order + 1)}
    for w in (word for word in sd.alphabet.words_up_to(order) if word):
        c = engine.N.scalar(w)
        if c:
            terms[len(w)] = mat_add(terms[len(w)], mat_scale(c, dense_nested_bracket(sd, w)))
    return MatrixSeries.from_orders(dim, order, terms)


WALK_PROBLEMS = {
    "random-0": lambda: random_problem(3, 4, seed=0),
    "random-1": lambda: random_problem(3, 4, seed=1),
    "degenerate-0": lambda: random_problem(3, 4, seed=0, degenerate=True),
    "degenerate-1": lambda: random_problem(3, 4, seed=1, degenerate=True),
    "half-integer": lambda: sparse_half_integer_problem(8, 2, seed=2),
    "fractional": lambda: fractional_problem(order=4),
}


@pytest.mark.parametrize("name", sorted(WALK_PROBLEMS))
def test_pruned_walk_equals_the_unpruned_sum(name):
    problem = WALK_PROBLEMS[name]()
    sd = spectral_decompose(problem)
    engine = BirkhoffEngine(sd.alphabet, problem.order)
    n_series, _ = build_normal_form(sd, engine)
    assert n_series == unpruned_normal_form(sd, engine, problem.order)


@pytest.mark.parametrize("name", sorted(WALK_PROBLEMS))
def test_brackets_are_formed_only_on_prefixes_that_can_close(monkeypatch, name):
    """A prefix whose letter sum cannot return to zero within the order is
    pruned before its bracket is computed."""
    problem = WALK_PROBLEMS[name]()
    sd = spectral_decompose(problem)
    order = problem.order
    reach = sd.reachable_sums(order)
    # the walk passes each bracket on to the next call, so its object
    # identity names its word; `made` keeps every bracket alive
    word_of = {id(rows): (i,) for i, rows in enumerate(sd.component_rows)}
    made = []
    original = SpectralDecomposition.sparse_left_bracket

    def checked(self, letter_index, x):
        word = (letter_index,) + word_of[id(x)]
        total = sum(sd.gaps[i] for i in word)
        assert -total in reach[order - len(word)], sd.alphabet.render_word(word)
        result = original(self, letter_index, x)
        word_of[id(result)] = word
        made.append(result)
        return result

    monkeypatch.setattr(SpectralDecomposition, "sparse_left_bracket", checked)
    build_normal_form(sd, BirkhoffEngine(sd.alphabet, problem.order))
    assert made


def test_word_route_check_catches_a_bracket_without_its_right_half(monkeypatch):
    """The word route's N is held equal to the matrix route's; a bracket
    that drops its x B half must break that equality."""
    problem = degenerate_problem(order=4)
    _, n_matrix = build_conjugator(problem)
    sd = spectral_decompose(problem)
    assert build_normal_form(sd, BirkhoffEngine(sd.alphabet, problem.order))[0] == n_matrix

    def left_half(self, letter_index, x):
        out = []
        for b_row in self.component_rows[letter_index]:
            acc = {}
            for c, br, bi in b_row:
                for l, xr, xi in x[c]:
                    re, im = acc.get(l, (0, 0))
                    acc[l] = (re + br * xr - bi * xi, im + br * xi + bi * xr)
            out.append([(l, re, im) for l, (re, im) in acc.items() if re or im])
        return out

    monkeypatch.setattr(SpectralDecomposition, "sparse_left_bracket", left_half)
    assert build_normal_form(sd, BirkhoffEngine(sd.alphabet, problem.order))[0] != n_matrix


# -- conjugator and generator -----------------------------------------------------------


def test_conjugator_first_order_matches_hand_value():
    problem = two_level_problem(order=2)
    c_series, _ = build_conjugator(problem)
    # (1/i)(S^(i) B_i + S^(-i) B_(-i)) with S^(lam) = 1/lam
    assert c_series.coeffs[1] == ((gr(0), gr(-1)), (gr(1), gr(0)))
    assert c_series.coeffs[2] == ((gr(Fraction(-1, 2)), gr(0)), (gr(0), gr(Fraction(-1, 2))))


def dense_conjugator(sd, engine, order):
    """C as S^w (i hbar)^(-len(w)) times B_(w1) ... B_(wk) by mat_mul,
    summed over every word up to the order (a word whose prefix product
    vanishes adds nothing, so its extensions are skipped)."""
    dim, components, scale = sd.problem.dim, dense_components(sd), inv_ihbar(sd.problem)
    terms = {0: identity_matrix(dim)}
    frontier = [((), identity_matrix(dim))]
    for k in range(1, order + 1):
        grown = []
        terms[k] = zero_matrix(dim)
        for word, product in frontier:
            for i, component in enumerate(components):
                extended = mat_mul(product, component)
                if not mat_is_zero(extended):
                    grown.append((word + (i,), extended))
                    weight = engine.S.scalar(word + (i,)) * scale**k
                    terms[k] = mat_add(terms[k], mat_scale(weight, extended))
        frontier = grown
    return MatrixSeries.from_orders(dim, order, terms)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 4),
    order=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    degenerate=st.booleans(),
    hbar=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)]),
)
def test_matrix_decomposition_equals_the_word_routes(dim, order, seed, degenerate, hbar):
    """N from the matrix decomposition equals the bracket sum over words,
    and C equals the S mould contracted with ordered products."""
    problem = random_problem(dim, order, seed=seed, hbar=hbar, degenerate=degenerate)
    sd = spectral_decompose(problem)
    engine = BirkhoffEngine(sd.alphabet, order)
    c_series, n_series = build_conjugator(problem)
    assert n_series == build_normal_form(sd, engine)[0]
    assert c_series == dense_conjugator(sd, engine, order)


def laurent_conjugator(problem):
    """(C, N) by the matrix Birkhoff recursion on dense matrices of
    Laurent series over the Gaussian rationals: each factor 1/(g + k e'),
    with the rational gap g = E0(a) - E0(c), is inverted through e'^K, and
    the Laurent accuracy bookkeeping raises if a window is short.  No
    integer numerators, shared denominators or fixed windows."""
    dim, K = problem.dim, problem.order
    every = range(dim)

    def factor(a, c, k):
        return Laurent.from_pairs([(0, problem.e0[a] - problem.e0[c]), (1, k)]).inverse(K)

    def dot(terms):
        return sum(terms, Laurent.zero())

    t = [[[Laurent.one() if a == c else Laurent.zero() for c in every] for a in every]]
    u = [None]
    c_coeffs, n_coeffs = [identity_matrix(dim)], [zero_matrix(dim)]
    for k in range(1, K + 1):
        t.append([
            [dot(t[-1][a][b] * problem.v[b][c] for b in every) * factor(a, c, k) for c in every]
            for a in every
        ])
        x = [
            [
                t[k][a][c] + dot(u[j][a][b] * t[k - j][b][c] for j in range(1, k) for b in every)
                for c in every
            ]
            for a in every
        ]
        u.append([[-y.polar_part() for y in row] for row in x])
        c_coeffs.append(tuple(tuple(y.constant_term() for y in row) for row in x))
        n_coeffs.append(tuple(tuple(y.residue() * k for y in row) for row in x))
    return MatrixSeries(c_coeffs), MatrixSeries(n_coeffs)


# integer and half-integer levels; couplings with denominators 1, 2, 3 and 6
KERNEL_LEVELS = [Fraction(k, 2) for k in range(-5, 6)]
KERNEL_PARTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)]


@st.composite
def kernel_problems(draw):
    """Problems of dimension 1-4 and order 1-5, simple or with a repeated
    level, over hbar 1, 2, 1/2 and 3, with Gaussian-rational couplings."""
    dim = draw(st.integers(1, 4))
    levels = draw(st.lists(st.sampled_from(KERNEL_LEVELS), min_size=dim, max_size=dim, unique=True))
    if draw(st.booleans()) and dim >= 2:
        levels[-1] = levels[0]
    v = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim):
        v[k][k] = gr(draw(st.sampled_from(KERNEL_PARTS)))
        for l in range(k + 1, dim):
            v[k][l] = gr(draw(st.sampled_from(KERNEL_PARTS)), draw(st.sampled_from(KERNEL_PARTS)))
            v[l][k] = v[k][l].conjugate()
    return PerturbationProblem(
        e0=tuple(levels),
        v=tuple(tuple(row) for row in v),
        hbar=draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])),
        order=draw(st.integers(1, 5)),
    )


@given(problem=kernel_problems())
@example(
    problem=PerturbationProblem(
        e0=(Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2)),
        v=(
            (gr(1), gr(Fraction(1, 2), Fraction(1, 3)), gr(0, -1)),
            (gr(Fraction(1, 2), Fraction(-1, 3)), gr(Fraction(-1, 3)), gr(2)),
            (gr(0, 1), gr(2), gr(0)),
        ),
        hbar=Fraction(1, 2),
        order=5,
    )
)
def test_integer_kernel_equals_the_laurent_recursion(problem):
    """C and N from the Gaussian-integer windows equal the dense Laurent
    recursion exactly."""
    assert build_conjugator(problem) == laurent_conjugator(problem)


FIXED_WINDOW_PROBLEMS = {
    "degenerate": lambda order: degenerate_problem(order=order),
    "degenerate-random": lambda order: random_problem(4, order, seed=5, degenerate=True, hbar=Fraction(1, 2)),
    "half-integer": lambda order: sparse_half_integer_problem(6, order, seed=4),
}


@pytest.mark.parametrize("name", sorted(FIXED_WINDOW_PROBLEMS))
def test_deeper_windows_leave_the_lower_orders_unchanged(name):
    """U_k = Phi(U_plus)_k is held on degrees 0..K-k only, and Y_k on
    0..K-k+1: two more orders widen every window by two degrees and must
    not change C_k or N_k, k <= K."""
    K = 4
    low = FIXED_WINDOW_PROBLEMS[name](K)
    high = FIXED_WINDOW_PROBLEMS[name](K + 2)
    c_low, n_low = build_conjugator(low)
    c_high, n_high = build_conjugator(high)
    assert c_low.coeffs == c_high.coeffs[: K + 1]
    assert n_low.coeffs == n_high.coeffs[: K + 1]
    if name.startswith("degenerate"):
        # N_k is degree 0 of Y_k at a zero gap: a nonzero N_k at every
        # order means a zero gap, and so the one-degree shift, at every order
        assert all(not mat_is_zero(n) for n in n_low.coeffs[1:])


# sha256 of json.dumps of [mat_to_json(C_k) for k = 0..K], and the same of
# N, as the Phi(T) / Phi(U_minus) recursion gave them before the regular
# recursion for Phi(U_plus) replaced it
DEEP_PROBLEMS = {
    "random-6-10-seed3-degenerate": lambda: random_problem(6, 10, seed=3, degenerate=True),
    "ci-degenerate-12": lambda: PerturbationProblem.from_json_dict(
        {
            "E0": ["0", "0", "1"],
            "V": [["1", "i", "1"], ["-i", "0", "2i"], ["1", "-2i", "-1"]],
            "hbar": "1/2",
            "order": 12,
        }
    ),
    "random-13-12-seed1": lambda: random_problem(13, 12, seed=1),
}
DEEP_DIGESTS = {
    "random-6-10-seed3-degenerate": (
        "a3dbc55400815640fc12bda7f29ab39add548d2d5d8f6c7d7409f7914bc2a234",
        "372bf049e90d7cc02d826c6404d3b8d0df2caca90dfce01943cdd7790ea09ef2",
    ),
    "ci-degenerate-12": (
        "364516bd5dfb712656e5d08589103dcede3bf9cc3140d714b9567bca60861c13",
        "daeaec8d8e683b1c3ee218ffe07103e32454669815e409ecdc0ea1956bfcdb73",
    ),
    "random-13-12-seed1": (
        "bf2570ce4a7fe27782daea59ba94efff5331c4bff8ca70638a0767194c87e04b",
        "add8d6926f34d4ef2d3c1f3a57f08d9b7d01aaf5d589386ad840f6ac164e4db3",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_PROBLEMS))
def test_deep_outputs_keep_their_digests(name):
    """C and N at depth, degenerate blocks and thirteen levels included,
    are byte for byte what they were."""
    c, n = build_conjugator(DEEP_PROBLEMS[name]())
    digests = tuple(
        hashlib.sha256(json.dumps([mat_to_json(a) for a in series.coeffs]).encode()).hexdigest()
        for series in (c, n)
    )
    assert digests == DEEP_DIGESTS[name]


def test_unitarity_on_random_problems():
    for seed in (3, 4):
        problem = random_problem(3, 4, seed=seed)
        out = solve(problem)
        assert out.conjugacy.unitarity_ok
        c = out.c_series
        identity = MatrixSeries.from_orders(3, 4, {0: identity_matrix(3)})
        assert series_mul(c, series_adjoint(c)) == identity
        assert series_mul(series_adjoint(c), c) == identity


def mould_generator(sd, engine, order):
    """The generator W = i hbar log C as the mould expansion: log(S)^w /
    len(w) times the nested bracket of w (built by dense commutators),
    summed over every word up to the order."""
    log_s = mould_log(engine.S)
    dim = sd.problem.dim
    terms = {k: zero_matrix(dim) for k in range(1, order + 1)}
    for w in (word for word in sd.alphabet.words_up_to(order) if word):
        weight = log_s.value(w).constant_term() / len(w)
        if weight:
            k = len(w)
            terms[k] = mat_add(terms[k], mat_scale(weight, dense_nested_bracket(sd, w)))
    return MatrixSeries.from_orders(dim, order, terms)


def test_generator_is_hermitian_and_exponentiates_to_C():
    """The paper's generator, from log S over words, is Hermitian at every
    order, and exp(W / (i hbar)) is the C that solve outputs."""
    problems = (
        two_level_problem(order=4),
        random_problem(3, 4, seed=11),
        random_problem(3, 4, seed=5, degenerate=True),
        random_problem(3, 4, seed=3, hbar=Fraction(1, 2)),
    )
    for problem in problems:
        out = solve(problem)
        engine = BirkhoffEngine(out.decomposition.alphabet, problem.order)
        w_mould = mould_generator(out.decomposition, engine, problem.order)
        assert all(mat_adjoint(w) == w for w in w_mould.coeffs)
        assert series_exp(series_scale(inv_ihbar(problem), w_mould)) == out.c_series


def test_solve_never_evaluates_the_mould_logarithm(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline must not expand log S over words")

    for module in (mouldpert, moulds, operators):
        monkeypatch.setattr(module, "mould_log", forbidden, raising=False)
    out = solve(random_problem(4, 4, seed=3))
    assert out.ok


# -- conjugacy verification ---------------------------------------------------------------


def test_two_level_conjugacy_through_order_six():
    out = solve(two_level_problem(order=6))
    assert out.conjugacy.ok
    assert out.conjugacy.conjugacy_magnitude == [0] * 7
    assert out.conjugacy.unitarity_magnitude == [0] * 7
    assert all(out.conjugacy.commutation_ok)
    assert all(out.conjugacy.trace_ok.values())


def test_order_one_conjugacy_is_trivial():
    out = solve(random_problem(3, 1, seed=8))
    assert out.conjugacy.ok


def test_corrupted_normal_form_is_flagged_at_its_order():
    problem = two_level_problem(order=4)
    out = solve(problem)
    coeffs = list(out.n_series.coeffs)
    bad = [list(row) for row in coeffs[3]]
    bad[0][0] = bad[0][0] + ONE
    coeffs[3] = tuple(tuple(row) for row in bad)
    report = verify_conjugacy(problem, MatrixSeries(coeffs), out.c_series)
    assert not report.ok
    assert report.conjugacy_magnitude[3] != 0
    assert report.conjugacy_magnitude[2] == 0


def fractional_degenerate_problem(order=4):
    """Degenerate levels over D = 6 and hbar = 1/2, so H0 is not read over 1."""
    v = (
        (gr(Fraction(1, 2)), gr(1, Fraction(1, 3)), gr(0, 2)),
        (gr(1, Fraction(-1, 3)), gr(-1), gr(Fraction(2, 5))),
        (gr(0, -2), gr(Fraction(2, 5)), gr(0)),
    )
    e0 = (Fraction(1, 3), Fraction(1, 3), Fraction(-1, 2))
    return PerturbationProblem(e0=e0, v=v, hbar=Fraction(1, 2), order=order)


def test_residual_magnitudes_are_those_of_the_dense_differences():
    two_level = two_level_problem(order=4)
    degenerate = fractional_degenerate_problem()
    assert degenerate.levels[0] == 6 and not degenerate.is_simple
    cases = []
    for problem in (two_level, degenerate):
        out = solve(problem)
        assert out.ok
        cases += [
            (problem, out.n_series, out.c_series),
            (problem, with_entry_added(out.n_series, 3, 0, 0, ONE), out.c_series),
            # a denominator that does not divide F^k, with an imaginary part
            (problem, out.n_series, with_entry_added(out.c_series, 2, 0, 1, gr(Fraction(3, 7), 2))),
            # N not Hermitian: one entry below the diagonal only
            (problem, with_entry_added(out.n_series, 2, 1, 0, gr(0, 1)), out.c_series),
        ]
    largest, clean = 0, []
    for problem, n_series, c_series in cases:
        report = verify_conjugacy(problem, n_series, c_series)
        clean.append(report.ok)
        c_adj = series_adjoint(c_series)
        rhs = MatrixSeries([problem.h0_matrix] + list(n_series.coeffs[1:]))
        identity = MatrixSeries.from_orders(problem.dim, problem.order, {0: identity_matrix(problem.dim)})
        conjugacy = dense_series_mul(dense_series_mul(c_series, problem.h_series()), c_adj)
        unitarity = dense_series_mul(c_series, c_adj)
        expected = [mat_magnitude(mat_sub(a, b)) for a, b in zip(conjugacy.coeffs, rhs.coeffs)]
        assert report.conjugacy_magnitude == expected
        expected = [mat_magnitude(mat_sub(a, b)) for a, b in zip(unitarity.coeffs, identity.coeffs)]
        assert report.unitarity_magnitude == expected
        largest = max(largest, *report.conjugacy_magnitude, *report.unitarity_magnitude)
    assert clean == [True, False, False, False] * 2
    # the values, not only which orders are nonzero
    assert largest > 1


def test_commutation_check_flags_an_off_resonant_entry():
    problem = two_level_problem(order=4)
    out = solve(problem)
    # E0 = (0, 1): an entry in row 0, column 1 of N_2 does not commute with H0
    shifted = with_entry_added(out.n_series, 2, 0, 1, ONE)
    report = verify_conjugacy(problem, shifted, out.c_series)
    assert report.commutation_ok == [True, False, True, True]


def test_hermiticity_checks_flag_their_own_series():
    problem = two_level_problem(order=4)
    out = solve(problem)
    assert out.conjugacy.hermitian_ok == [True] * 4
    # one off-diagonal entry of N_2 changed: N_2 is no longer Hermitian
    skewed = with_entry_added(out.n_series, 2, 1, 0, gr(0, 1))
    report = verify_conjugacy(problem, skewed, out.c_series)
    assert report.hermitian_ok == [True, False, True, True]
    assert not report.ok


@given(data=st.data(), dim=st.integers(1, 5), hermitian=st.booleans())
def test_hermiticity_is_equality_with_the_adjoint(data, dim, hermitian):
    a = data.draw(sparse_matrices(dim))
    if hermitian:
        a = tuple(
            tuple(a[i][j] if i < j else a[j][i].conjugate() if i > j else gr(a[i][i].re) for j in range(dim))
            for i in range(dim)
        )
    assert operators.mat_is_hermitian(a) == (a == mat_adjoint(a))
    if hermitian:
        assert operators.mat_is_hermitian(a)


def test_trace_check_catches_a_changed_normal_form():
    problem = two_level_problem(order=4)
    out = solve(problem)
    assert all(out.conjugacy.trace_ok.values())
    # +1 on a diagonal entry of N_2 changes tr(H0 + N)
    shifted = with_entry_added(out.n_series, 2, 0, 0, ONE)
    report = verify_conjugacy(problem, shifted, out.c_series)
    assert report.trace_ok[1] is False
    # diag(1, -1) keeps the trace, and shows in tr((H0 + N)^2) through 2 tr(H0 N_2)
    traceless = with_entry_added(shifted, 2, 1, 1, -ONE)
    report = verify_conjugacy(problem, traceless, out.c_series)
    assert report.trace_ok[1] is True
    assert report.trace_ok[2] is False
    assert not report.ok


def test_wide_sparse_problem_passes_every_check():
    problem = sparse_half_integer_problem(12, 2, seed=0)
    out = solve(problem)
    assert out.ok
    assert out.oracle.ok
    assert sorted(out.conjugacy.trace_ok) == list(range(1, 13))
    assert all(out.conjugacy.trace_ok.values())


def test_degenerate_problem_passes_all_exact_checks():
    out = solve(degenerate_problem(order=4))
    assert out.conjugacy.ok
    assert out.oracle.ok
    assert out.ok
    assert out.eigen is None


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("hbar", [Fraction(2), Fraction(1, 3)])
def test_hbar_scaling_law(hbar, degenerate):
    """N and C do not depend on hbar; letters scale by 1/hbar, so on a word
    of length r, N^w scales by hbar^(r-1) and S^w by hbar^r."""
    scale = GaussianRational(hbar)
    for seed in range(3):
        base = solve(random_problem(3, 4, seed=seed, degenerate=degenerate))
        out = solve(random_problem(3, 4, seed=seed, hbar=hbar, degenerate=degenerate))
        assert out.n_series == base.n_series
        assert out.c_series == base.c_series
        base_letters = base.decomposition.alphabet
        letters = out.decomposition.alphabet
        mapped = {}
        for word, coeffs in base.coefficient_table.items():
            image = tuple(letters.index(base_letters.letters[i] / scale) for i in word)
            r = len(word)
            mapped[image] = {"N": coeffs["N"] * scale ** (r - 1), "S": coeffs["S"] * scale ** r}
        assert out.coefficient_table == mapped


# -- hierarchy oracle -----------------------------------------------------------------------


def test_oracle_first_order_is_resonant_part():
    problem = random_problem(4, 3, seed=21)
    n_parts = hierarchy_oracle(problem)
    assert n_parts[0] == problem.resonant_part(problem.v)


def reference_oracle(problem):
    """The recursive construction written out in full: it divides at every
    off-resonant position, zero or not, exponentiates from the identity,
    and conjugates after every order, K included."""
    dim, K = problem.dim, problem.order
    ihbar = GaussianRational(0, problem.hbar)
    x = problem.h_series()
    n_parts = []
    for k in range(1, K + 1):
        a = x.coeffs[k]
        n_parts.append(problem.resonant_part(a))
        w_k = tuple(
            tuple(
                ZERO
                if problem.e0[n] == problem.e0[m]
                else ihbar * a[n][m] / GaussianRational(problem.e0[n] - problem.e0[m])
                for m in range(dim)
            )
            for n in range(dim)
        )
        generator = MatrixSeries.from_orders(
            dim, K, {k: mat_scale(GaussianRational(0, -Fraction(1) / problem.hbar), w_k)}
        )
        e = term = MatrixSeries.from_orders(dim, K, {0: identity_matrix(dim)})
        for j in range(1, K + 1):
            term = series_scale(GaussianRational(Fraction(1, j)), series_mul(term, generator))
            e = series_add(e, term)
        x = series_mul(series_mul(e, x), series_adjoint(e))
    return n_parts


ORACLE_CASES = {
    **{
        f"seed3-{dim}-{order}-{'degenerate' if degenerate else 'simple'}": (
            lambda dim=dim, order=order, degenerate=degenerate: random_problem(
                dim, order, seed=3, degenerate=degenerate
            )
        )
        for dim, order in ((3, 4), (4, 4), (4, 5), (4, 6), (5, 5), (6, 8))
        for degenerate in (False, True)
    },
    "hbar-half": lambda: random_problem(4, 4, seed=3, hbar=Fraction(1, 2)),
    "hbar-half-degenerate": lambda: random_problem(4, 4, seed=3, hbar=Fraction(1, 2), degenerate=True),
    "half-integer-12": lambda: sparse_half_integer_problem(12, 2, seed=0),
    # V diagonal: every W_k vanishes, so each step conjugates by the identity
    "diagonal": lambda: diagonal_problem(order=4),
    # order 1: N_1 is read before any conjugation
    "order-1": lambda: random_problem(4, 1, seed=3),
    # fractional levels, V with denominators, hbar = 7/3 (the CI problem)
    "fractional-5": lambda: fractional_problem(order=5),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_equals_the_full_recursion(name):
    problem = ORACLE_CASES[name]()
    assert hierarchy_oracle(problem) == reference_oracle(problem)


def test_oracle_runs_on_its_own_kernel(monkeypatch):
    """The oracle reads only E0, V and the order: with the integer kernels
    of the decomposition and the checks, and the problem's integer levels,
    made to raise, it still equals the full recursion."""
    cases = ("seed3-4-5-degenerate", "hbar-half", "fractional-5")
    expected = {name: reference_oracle(ORACLE_CASES[name]()) for name in cases}

    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle must not call this")

    for name in ("_integer_rows", "_reduced", "_gaussian_product", "_adjoint_rows"):
        monkeypatch.setattr(operators, name, unavailable)
    monkeypatch.setattr(PerturbationProblem, "levels", property(unavailable))
    for name in cases:
        problem = ORACLE_CASES[name]()
        with pytest.raises(AssertionError):
            problem.levels
        assert hierarchy_oracle(problem) == expected[name]


def test_oracle_checks_the_scale_of_N():
    """N times a constant fails every order where N_k is nonzero, order 1
    (the resonant part of V) included, on a simple problem and on a
    degenerate one at hbar = 1/2, where the blocks are compared by traces."""
    problems = (random_problem(3, 4, seed=3), random_problem(4, 3, seed=3, hbar=Fraction(1, 2), degenerate=True))
    assert not problems[1].is_simple
    for problem in problems:
        out = solve(problem)
        assert out.oracle.ok
        assert all(not mat_is_zero(n_k) for n_k in out.n_series.coeffs[1:])
        for factor in (gr(2), gr(Fraction(1, 2)), gr(-1)):
            scaled = MatrixSeries([mat_scale(factor, n_k) for n_k in out.n_series.coeffs])
            assert compare_with_oracle(problem, scaled).orders_equal == [False] * problem.order


def test_oracle_matches_mould_normal_form():
    for seed, dim, order in ((0, 3, 4), (1, 4, 4), (2, 4, 5), (3, 5, 3)):
        problem = random_problem(dim, order, seed=seed)
        out = solve(problem)
        assert out.oracle.ok, f"seed {seed}: mismatch at order {out.oracle.first_mismatch}"


def with_entry_added(series, k, i, j, delta):
    coeffs = [[list(row) for row in a] for a in series.coeffs]
    coeffs[k][i][j] = coeffs[k][i][j] + delta
    return MatrixSeries([tuple(tuple(row) for row in a) for a in coeffs])


def test_oracle_accepts_a_basis_change_inside_a_degenerate_block():
    problem = random_problem(3, 4, seed=0, degenerate=True)
    assert not problem.is_simple
    out = solve(problem)
    n_parts = hierarchy_oracle(problem)
    # the two constructions pick different bases of the E0 = 0 eigenspace
    assert out.n_series.coeffs[4] != n_parts[3]
    assert [out.n_series.coeffs[k] == n_parts[k - 1] for k in (1, 2, 3)] == [True] * 3
    assert out.oracle.ok
    assert out.oracle.orders_equal == [True] * 4
    assert out.oracle.first_mismatch is None


def test_oracle_catches_a_change_inside_a_degenerate_block():
    problem = random_problem(3, 4, seed=0, degenerate=True)
    out = solve(problem)
    block = [i for i in range(problem.dim) if problem.e0[i] == problem.e0[0]]
    assert len(block) == 2
    i, j = block
    report = compare_with_oracle(problem, with_entry_added(out.n_series, 2, i, i, ONE))
    assert not report.ok
    assert report.first_mismatch == 2
    assert report.orders_equal[0]
    # diag(1, -1) keeps tr(block) and shows first in tr(block^2) at order 3,
    # through 2 tr(N_1 diag(1, -1)) = 2 (N_1[i][i] - N_1[j][j])
    assert out.n_series.coeffs[1][i][i] != out.n_series.coeffs[1][j][j]
    traceless = with_entry_added(with_entry_added(out.n_series, 2, i, i, ONE), 2, j, j, -ONE)
    assert compare_with_oracle(problem, traceless).first_mismatch == 3


def test_oracle_catches_a_change_outside_the_blocks():
    problem = random_problem(3, 3, seed=0, degenerate=True)
    out = solve(problem)
    i, j = next(
        (i, j)
        for i in range(problem.dim)
        for j in range(problem.dim)
        if problem.e0[i] != problem.e0[j]
    )
    report = compare_with_oracle(problem, with_entry_added(out.n_series, 3, i, j, ONE))
    assert report.first_mismatch == 3


def test_oracle_second_order_is_the_textbook_formula():
    problem = random_problem(5, 2, seed=33)
    n_parts = hierarchy_oracle(problem)
    for n in range(problem.dim):
        expected = Fraction(0)
        for m in range(problem.dim):
            if m == n:
                continue
            expected += (problem.v[n][m] * problem.v[n][m].conjugate()).re / (problem.e0[n] - problem.e0[m])
        assert n_parts[1][n][n] == GaussianRational(expected)


# -- eigenvalue series and numerics ------------------------------------------------------------


def test_two_level_eigenvalue_series():
    out = solve(two_level_problem(order=6))
    assert out.eigen[0] == [0, 0, -1, 0, 1, 0, -2]
    assert out.eigen[1] == [1, 0, 1, 0, -1, 0, 2]


def test_diagonal_problem_eigenvalues_are_exact_at_first_order():
    out = solve(diagonal_problem(order=3))
    assert out.eigen[0] == [0, 2, 0, 0]
    assert out.eigen[1] == [5, -3, 0, 0]


def test_numeric_error_scales_like_the_first_neglected_order():
    out = solve(two_level_problem(order=4), mu_samples=[Fraction(1, 100), Fraction(1, 1000)])
    first, second = out.numeric
    assert not first.ambiguous
    # neglected term is -2 mu^6
    assert 2e-12 / 4 <= first.max_error <= 2e-12 * 4
    assert 2e-18 / 4 <= second.max_error <= 2e-18 * 4


def test_numeric_error_vanishes_at_mu_zero():
    out = solve(two_level_problem(order=2), mu_samples=[Fraction(0)])
    assert out.numeric[0].max_error == 0.0


def test_numeric_match_is_flagged_ambiguous_for_close_levels():
    # two levels 1e-12 apart: each partial sum is as near to the other level
    v = tuple(tuple(gr(d) if i == j else gr(0) for j in range(3)) for i, d in enumerate((1, 1, 3)))
    problem = PerturbationProblem(e0=(Fraction(0), Fraction(1, 10**12), Fraction(1)), v=v)
    out = solve(problem, mu_samples=[Fraction(1, 100)])
    (sample,) = out.numeric
    assert sample.ambiguous is True
    assert sample.errors == [0.0, 0.0, 0.0]


def test_degenerate_numeric_comparison_is_small():
    out = solve(degenerate_problem(order=4), mu_samples=[Fraction(1, 100)])
    assert out.numeric[0].max_error < 1e-7


def hermitian_test_matrices(rng):
    """(name, rows) pairs: seeded dense, sparse and degenerate Hermitian
    matrices of dims 1-18, off-diagonal entries down to 1e-6, and the
    zero and a diagonal matrix.  A degenerate one is Q D Q* with levels
    -1, 0 and 2 and a Householder reflection Q."""
    def entry():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-6, 0)

    for n in range(1, 19):
        for kind in ("dense", "sparse", "degenerate"):
            if kind == "degenerate":
                v = [entry() for _ in range(n)]
                norm = sum(abs(x) ** 2 for x in v)
                q = [[(i == j) - 2 * v[i] * v[j].conjugate() / norm for j in range(n)] for i in range(n)]
                levels = [rng.choice((-1, 0, 2)) for _ in range(n)]
                rows = [
                    [sum(q[i][k] * levels[k] * q[j][k].conjugate() for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            else:
                rows = [[0j] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = complex(rng.uniform(-5, 5))
                    for j in range(i):
                        if kind == "dense" or rng.random() < 0.2:
                            rows[i][j] = entry()
                            rows[j][i] = rows[i][j].conjugate()
            yield f"{kind} {n}", rows
    yield "zero", [[0j] * 4 for _ in range(4)]
    yield "diagonal", [[complex(3 - 2 * i) if i == j else 0j for j in range(5)] for i in range(5)]


def test_hermitian_eigenvalues_match_eigvalsh():
    """The --mu check's Jacobi kernel against LAPACK, which only the tests
    load: within 1e-13 max(1, max |lam|), ascending, on the lower triangle."""
    import numpy as np

    cases = dict(hermitian_test_matrices(random.Random(20)))
    # entries at 1e+-300: the scaled eigenvalues, to the same relative accuracy
    for scale in (1e300, 1e-300):
        cases[f"scaled {scale}"] = [[z * scale for z in row] for row in cases["dense 8"]]
    # not Hermitian: the upper triangle and the diagonal's imaginary parts are not read
    lower = cases["dense 11"]
    edited = [[z if j < i else complex(9, -7) for j, z in enumerate(row)] for i, row in enumerate(lower)]
    for i, row in enumerate(edited):
        row[i] = lower[i][i] + 5j
    cases["non-Hermitian"] = edited
    for name, rows in cases.items():
        ours = operators._hermitian_eigenvalues(rows)
        reference = np.linalg.eigvalsh(np.array(rows))
        assert ours == sorted(ours), name
        size = max(abs(reference))
        bound = 1e-13 * (size if name.startswith("scaled") else max(1.0, size))
        assert max(abs(a - b) for a, b in zip(ours, reference)) <= bound, name
    assert operators._hermitian_eigenvalues(edited) == operators._hermitian_eigenvalues(lower)


def test_unconverged_jacobi_kernel_is_a_numeric_failure(monkeypatch):
    kernel = operators._hermitian_eigenvalues
    monkeypatch.setattr(operators, "_hermitian_eigenvalues", lambda rows: kernel(rows, sweeps=0))
    message = r"numeric diagonalization failed at mu = 1/100: no convergence in 0 Jacobi sweeps"
    with pytest.raises(ValueError, match=message):
        solve(two_level_problem(order=2), mu_samples=[Fraction(1, 100)])


def partial_sum(coefficients, mu):
    return sum((c * mu**k for k, c in enumerate(coefficients)), ZERO)


def test_eigen_series_partial_sum():
    out = solve(two_level_problem(order=4))
    mu = Fraction(1, 10)
    expected = -mu ** 2 + mu ** 4
    assert partial_sum(out.eigen[0], mu) == expected


# -- matrix series helpers -----------------------------------------------------------------------


def test_series_exp_log_roundtrip():
    a = MatrixSeries.from_orders(
        2, 3, {1: ((gr(0), gr(0, 1)), (gr(0, -1), gr(0))), 2: ((gr(1), gr(0)), (gr(0), gr(-1)))}
    )
    assert series_log(series_exp(a)) == a


def test_series_mul_truncates():
    a = MatrixSeries.from_orders(2, 2, {1: identity_matrix(2)})
    b = series_mul(a, a)
    assert mat_is_zero(b.coeffs[0])
    assert mat_is_zero(b.coeffs[1])
    assert b.coeffs[2] == identity_matrix(2)
    assert series_mul(a, b).coeffs[2] == zero_matrix(2)


def dense_mul(a, b):
    """The product by the textbook triple loop."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][j] * b[j][l] for j in range(n)), ZERO) for l in range(n))
        for i in range(n)
    )


def dense_series_mul(a, b):
    """The truncated product by convolution of dense coefficient products."""
    coeffs = []
    for k in range(a.order + 1):
        acc = zero_matrix(a.dim)
        for j in range(k + 1):
            acc = mat_add(acc, dense_mul(a.coeffs[j], b.coeffs[k - j]))
        coeffs.append(acc)
    return MatrixSeries(coeffs)


ENTRIES = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda re, im, den: gr(Fraction(re, den), Fraction(im, den)),
        st.integers(-2, 2),
        st.integers(-2, 2),
        # denominators over several primes, so a shared denominator and its powers mix them
        st.sampled_from((1, 2, 3, 5, 7, 12)),
    ),
)


@st.composite
def sparse_matrices(draw, dim):
    """Small Gaussian-rational matrices, some rows and columns all zero."""
    zero_rows = draw(st.sets(st.integers(0, dim - 1)))
    zero_cols = draw(st.sets(st.integers(0, dim - 1)))
    return tuple(
        tuple(ZERO if i in zero_rows or j in zero_cols else draw(ENTRIES) for j in range(dim))
        for i in range(dim)
    )


def sparse_series(dim, order):
    coefficient = st.one_of(st.just(zero_matrix(dim)), sparse_matrices(dim))
    return st.lists(coefficient, min_size=order + 1, max_size=order + 1).map(MatrixSeries)


@given(data=st.data(), dim=st.integers(1, 5))
def test_mat_mul_matches_a_dense_triple_loop(data, dim):
    a = data.draw(sparse_matrices(dim))
    b = data.draw(sparse_matrices(dim))
    assert mat_mul(a, b) == dense_mul(a, b)


@given(data=st.data(), dim=st.integers(1, 5), order=st.integers(0, 3))
def test_series_product_matches_a_dense_convolution(data, dim, order):
    a = data.draw(sparse_series(dim, order))
    b = data.draw(sparse_series(dim, order))
    assert series_mul(a, b) == dense_series_mul(a, b)


def integer_series(a):
    """A series as (den, rows) per order, each order over its own denominator."""
    return [operators._integer_rows(c) for c in a.coeffs]


def from_integer_rows(rows, den, dim):
    """The GaussianRational matrix of Gaussian-integer rows over den."""
    out = [[ZERO] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, re, im in row:
            out[i][j] = GaussianRational.from_integers(re, im, den)
    return tuple(tuple(row) for row in out)


def test_products_that_cancel_exactly_are_zero():
    a = ((gr(1), gr(1, 1)), (gr(1, 2), gr(0)))
    b = ((gr(1), gr(0)), (gr(Fraction(-1, 2), Fraction(1, 2)), gr(0)))  # 1 + (1+i)(-1+i)/2 = 0
    assert mat_mul(a, b)[0] == (ZERO, ZERO)
    assert mat_mul(a, b) == dense_mul(a, b)
    x = MatrixSeries([identity_matrix(2), a])
    y = MatrixSeries([b, mat_scale(-ONE, mat_mul(a, b))])  # order 1: a b - a b
    product = series_mul(x, y)
    assert product.coeffs[1] == zero_matrix(2)
    assert product == dense_series_mul(x, y)
    # a is over 1 and b over 2, so a b is over 2: its row 0 cancels and is
    # dropped, not kept as 0 + 0i, and 1 + 2i is (2 + 4i) / 2
    ab = operators._gaussian_product([operators._integer_rows(a)], [operators._integer_rows(b)])
    assert ab == [(2, [[], [(0, 2, 4)]])]
    assert operators._gaussian_product(integer_series(x), integer_series(y))[1][1] == [[], []]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5), order=st.integers(0, 3))
def test_integer_product_matches_a_dense_convolution(data, dim, order):
    a = data.draw(sparse_series(dim, order))
    b = data.draw(sparse_series(dim, order))
    rows = operators._gaussian_product(integer_series(a), integer_series(b))
    assert all(re or im for _, by_order in rows for row in by_order for _, re, im in row)
    product = MatrixSeries([from_integer_rows(r, den, dim) for den, r in rows])
    assert product == dense_series_mul(a, b)


# per-order denominators of a series: one shared value, pairwise coprime primes, or all 1
ORDER_DENOMINATORS = st.one_of(
    st.integers(2, 12).map(lambda d: [d] * 4),
    st.permutations([2, 3, 5, 7]),
    st.just([1] * 4),
)


@st.composite
def per_order_series(draw, dim, order):
    """(GaussianRational series, its (den, rows) per order): Gaussian-integer
    numerators over the drawn denominator of each order, not reduced."""
    dens = draw(ORDER_DENOMINATORS)
    entry = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    coeffs, orders = [], []
    for k in range(order + 1):
        numerators = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        coeffs.append(tuple(tuple(GaussianRational.from_integers(re, im, dens[k]) for re, im in row) for row in numerators))
        rows = [[(j, re, im) for j, (re, im) in enumerate(row) if re or im] for row in numerators]
        orders.append((dens[k], rows))
    return MatrixSeries(coeffs), orders


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 3))
def test_per_order_product_matches_a_dense_convolution(data, dim, order):
    """Order k of the product is over Q_k, the lcm over j of d_j d'_(k-j),
    whatever the per-order denominators: equal, pairwise coprime or 1.  A
    pair with a zero order on either side is left out, so Q_k is 1 when
    every pair has one."""
    a, a_orders = data.draw(per_order_series(dim, order))
    b, b_orders = data.draw(per_order_series(dim, order))
    rows = operators._gaussian_product(a_orders, b_orders)
    for k, (den, _) in enumerate(rows):
        live = [j for j in range(k + 1) if any(a_orders[j][1]) and any(b_orders[k - j][1])]
        assert den == math.lcm(*(a_orders[j][0] * b_orders[k - j][0] for j in live))
    product = MatrixSeries([from_integer_rows(r, den, dim) for den, r in rows])
    assert product == dense_series_mul(a, b)


def test_zero_orders_leave_the_denominator_alone():
    """Orders 2..K of H0 + mu V are zero: a pair with a zero order adds
    nothing to Q_k, and an order with no pair left is over 1."""
    one = [[(0, 1, 0)]]
    left = [(2, one), (3, [[]]), (5, one)]
    right = [(7, one), (11, [[]]), (13, [[]])]
    assert operators._gaussian_product(left, right) == [(14, one), (1, [[]]), (35, one)]


# (numerator of re, numerator of im, common denominator), not reduced
GAUSSIAN_PARTS = st.one_of(
    st.just((0, 0, 1)),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12)),
)


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(
            st.lists(GAUSSIAN_PARTS, min_size=dim, max_size=dim), min_size=dim, max_size=dim
        )
    )
)
@example([[(2, 3, 4)]])  # (2+3i)/4 = 1/2 + 3/4 i reads 3
@example([[(1, 2, 2)]])  # 1/2 + i reads 1, not the 2 of the common-denominator form
def test_mat_magnitude_is_the_largest_reduced_numerator(rows):
    parts = [[(Fraction(a, d), Fraction(b, d)) for a, b, d in row] for row in rows]
    matrix = tuple(tuple(gr(re, im) for re, im in row) for row in parts)
    expected = max(abs(q.numerator) for row in parts for pair in row for q in pair)
    assert mat_magnitude(matrix) == expected


def dense_power_traces(series, indices):
    """tr(B^p) by order for p = 1..len(indices), every power of the block B
    formed by dense series products."""
    sub = MatrixSeries(
        [tuple(tuple(a[i][j] for j in indices) for i in indices) for a in series.coeffs]
    )
    power = sub
    traces = []
    for _ in indices:
        traces.append([sum((a[i][i] for i in range(len(indices))), ZERO) for a in power.coeffs])
        power = dense_series_mul(power, sub)
    return traces


def test_power_traces_match_dense_powers():
    problem = sparse_half_integer_problem(10, 2, seed=1)
    h = problem.h_series()
    for indices in (range(10), [0, 3, 4, 9]):
        assert operators._power_traces(operators._block_rows(h, indices)) == dense_power_traces(h, indices)
    # n = 16: B^1..B^8 are formed and B^9..B^16 are split 8 + (p - 8)
    h = sparse_half_integer_problem(16, 2, seed=2).h_series()
    assert operators._power_traces(operators._block_rows(h, range(16))) == dense_power_traces(h, range(16))


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), order=st.integers(0, 3))
def test_power_traces_match_every_dense_power(n, data, order):
    # odd and even n: only B^1..B^ceil(n/2) are formed, the rest are split traces
    series = data.draw(sparse_series(n, order))
    traces = operators._power_traces(operators._block_rows(series, range(n)))
    assert len(traces) == n
    assert traces == dense_power_traces(series, range(n))


def test_power_traces_on_degenerate_blocks():
    problem = random_problem(5, 3, seed=3, degenerate=True)
    _, n_series = build_conjugator(problem)
    blocks = {}
    for i, level in enumerate(problem.e0):
        blocks.setdefault(level, []).append(i)
    assert max(len(block) for block in blocks.values()) > 1
    for series in (problem.h_series(), n_series):
        for block in blocks.values():
            assert operators._power_traces(operators._block_rows(series, block)) == dense_power_traces(series, block)
    # a nilpotent block: every power has zero trace at every order
    nilpotent = MatrixSeries.from_orders(3, 2, {1: ((ZERO, ONE, I), (ZERO, ZERO, gr(2)), (ZERO, ZERO, ZERO))})
    assert operators._power_traces(operators._block_rows(nilpotent, range(3))) == [[ZERO] * 3] * 3


@pytest.mark.parametrize(
    "problem",
    [
        two_level_problem(order=5),
        random_problem(5, 3, seed=3, degenerate=True),
        PerturbationProblem.from_json_dict(
            {"E0": ["1/3", "1/7", "1/3"], "V": [["1/5", "2/9+1/11i", "3"], ["2/9-1/11i", "0", "-5/4i"], ["3", "5/4i", "2"]]}
        ),
    ],
    ids=["two-level", "degenerate", "fractional"],
)
def test_the_trace_checks_read_the_rows_of_the_conjugacy_check(monkeypatch, problem):
    """``verify_conjugacy`` hands the traces the integer rows it holds for
    H, and H0's with N's: the same orders and denominators as those of
    the dense H0 + mu V and H0 + N."""
    seen = []
    honest = operators._power_traces
    monkeypatch.setattr(operators, "_power_traces", lambda block: seen.append(block) or honest(block))
    c_series, n_series = build_conjugator(problem)
    assert verify_conjugacy(problem, n_series, c_series).ok
    every = range(problem.dim)
    normal = MatrixSeries([problem.h0_matrix] + list(n_series.coeffs[1:]))
    assert seen == [operators._block_rows(problem.h_series(), every), operators._block_rows(normal, every)]


def test_series_exp_requires_vanishing_order_zero():
    with pytest.raises(ValueError):
        series_exp(MatrixSeries.from_orders(2, 2, {0: identity_matrix(2)}))
    with pytest.raises(ValueError):
        series_log(MatrixSeries.from_orders(2, 2, {}))


# -- solve output ----------------------------------------------------------------------------------


def test_solve_json_shape():
    out = solve(two_level_problem(order=2), mu_samples=[Fraction(1, 10)])
    data = out.to_json_dict()
    assert data["alphabet"] == ["-i", "i"]
    assert data["verification"]["conjugacy"] is True
    assert data["verification"]["oracle_match"] is True
    assert data["eigenvalue_series"]["0"] == ["0", "0", "-1"]
    words = [row["word"] for row in data["coefficients"]]
    assert words == sorted(words, key=lambda w: (len(w.split("·")), w))
    assert data["N_matrices"]["2"][0][0] == "-1"
