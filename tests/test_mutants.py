"""Mutation gates for the matrix construction of ``solve`` and for the
word engine's regular recursion.

The fault table (``test_faults.py``) shows that chosen faults fire.  This
gate shows that ``solve``'s own runtime checks (``verify_conjugacy`` and
``compare_with_oracle``) catch a whole class of faults in the code that
builds C and N.  It parses ``operators.py`` with ``ast`` and makes every
single-operator mutant of the construction functions, over a small
operator set: ``+`` and ``-`` swapped, ``*`` to ``+``, ``//`` to ``*``,
``**`` to ``*``, each comparison negated, and each ``not`` dropped.  Each
mutant is patched into ``mouldpert.operators`` in process, runs ``solve``
on a fixed set of problems, and is restored.  A mutant is flagged when
some problem's ``solve`` reports ``ok`` false or raises.  The only
mutants allowed through are the listed equivalents, each with the reason
it cannot change an output, and each must leave every ``solve`` JSON
byte for byte as it was.

``_integer_rows`` is shared by the construction and the checks: its
mutants stay in the gate, so that a shared-kernel fault that makes the
checks agree with the construction fails it.

The second gate makes the same mutants of the word engine's source of N,
R, S and U_plus (``BirkhoffEngine.regular`` and ``coeff_N``) and requires
``verify``, whose suites compare that source with the Birkhoff pair, to
report a violation or raise on one of three small alphabets.

The third gate mutates the grading-identity suite itself
(``verify_grading_identities`` and its ``_r_times``) and requires each
mutant to change the suite's verdict on a fixed set of ``verify`` runs.

The fourth gate mutates the two readers of the source that only
``moulds`` reads (``counterterm`` and ``t_window``) and requires each
mutant to change a ``moulds`` table of ``GOLDEN_DIGESTS``, or raise.
"""

import ast
import contextlib
import copy
import hashlib
import inspect
import io
import json
import types
from fractions import Fraction

import pytest

from mouldpert import birkhoff, cli, operators
from mouldpert.moulds import Alphabet
from mouldpert.operators import PerturbationProblem, random_problem
from test_cli import GOLDEN_DIGESTS

TARGETS = ("build_conjugator", "_y_window", "_next_u", "_degree_matrix", "_reduced", "_integer_rows")

# The fault table's four problems (simple, degenerate, hbar = 1/2, odd order)
# and the fractional (order 5) and degenerate (order 6) problems of CI.
# Without the fractional one, whose V alone has denominators, the ``*`` of
# N_j's denominator times U_(m-j)'s survives.
PROBLEMS = {
    "simple": random_problem(3, 4, seed=3),
    "degenerate": random_problem(3, 4, seed=3, degenerate=True),
    "hbar-half": random_problem(3, 4, seed=3, hbar=Fraction(1, 2)),
    "odd-order": random_problem(3, 5, seed=3),
    "ci-fractional": PerturbationProblem.from_json_dict(
        {
            "E0": ["1/3", "1/7", "1/3"],
            "V": [["1/5", "2/9+1/11i", "3"], ["2/9-1/11i", "0", "-5/4i"], ["3", "5/4i", "2"]],
            "hbar": "7/3",
            "order": 5,
        }
    ),
    "ci-degenerate": PerturbationProblem.from_json_dict(
        {
            "E0": ["0", "0", "1"],
            "V": [["1", "i", "1"], ["-i", "0", "2i"], ["1", "-2i", "-1"]],
            "hbar": "1/2",
            "order": 6,
        }
    ),
}

# (function, stripped source line, mutation) -> why no output can change
EQUIVALENT = {
    # a wider window adds degrees above those any output reads, and no
    # degree reads one above it: degree 0 of every order stays as it was
    ("_y_window", "zeros = [0] * (K - m + 2)", "- -> +"): "Y_m's fresh entries reach degree K + m + 1, unread",
    ("_next_u", "p = K - m", "- -> +"): "U_m's nonzero gaps reach degree K + m, exact through K - m + 1, unread",
}

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult}
NEGATED = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}
SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Pow: "**",
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}


class Mutator(ast.NodeTransformer):
    """Walks a function and records its mutation sites in a fixed order;
    the site numbered ``target``, if any, is mutated on the way."""

    def __init__(self, target=None):
        self.target = target
        self.sites = []

    def _site(self, node, old, new) -> bool:
        self.sites.append((node.lineno, f"{SYMBOL[old]} -> {SYMBOL[new]}"))
        return len(self.sites) - 1 == self.target

    def _visit_operator(self, node):
        self.generic_visit(node)
        swap = BINARY.get(type(node.op))
        if swap is not None and self._site(node, type(node.op), swap):
            node.op = swap()
        return node

    visit_BinOp = visit_AugAssign = _visit_operator

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if self._site(node, type(op), NEGATED[type(op)]):
                node.ops[i] = NEGATED[type(op)]()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            self.sites.append((node.lineno, "drop not"))
            if len(self.sites) - 1 == self.target:
                return node.operand
        return node


SOURCE = inspect.getsource(operators)
LINES = SOURCE.splitlines()
FUNCTIONS = {node.name: node for node in ast.parse(SOURCE).body if isinstance(node, ast.FunctionDef)}


def mutants(functions: dict, lines: list, targets) -> list:
    """(key, name, index) per mutant; the key names the function, the
    stripped source line and the mutation, with a count where a line has
    the same mutation twice."""
    out = []
    for name in targets:
        seen = {}
        counter = Mutator()
        counter.visit(copy.deepcopy(functions[name]))
        for index, (lineno, change) in enumerate(counter.sites):
            key = (name, lines[lineno - 1].strip(), change)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key = key + (seen[key],)
            out.append((key, name, index))
    return out


MUTANTS = mutants(FUNCTIONS, LINES, TARGETS)


def compile_mutant(name: str, index: int, module=operators, functions=FUNCTIONS):
    """The function ``name`` of ``module`` with site ``index`` mutated,
    reading the module's globals as the original does."""
    node = Mutator(index).visit(copy.deepcopy(functions[name]))
    tree = ast.fix_missing_locations(ast.Module(body=[node], type_ignores=[]))
    namespace = dict(vars(module))
    exec(compile(tree, module.__file__, "exec"), namespace)
    original = namespace[name]
    return types.FunctionType(original.__code__, vars(module), name, original.__defaults__)


def run_solves(mutant, name: str, report):
    """Patch ``mutant`` in for ``name``, run ``solve`` on every problem and
    return report(outputs), or None when a run raises; then restore."""
    honest = getattr(operators, name)
    setattr(operators, name, mutant)
    try:
        return report([operators.solve(problem) for problem in PROBLEMS.values()])
    except Exception:
        return None
    finally:
        setattr(operators, name, honest)


def test_every_target_has_mutants():
    names = {name for _, name, _ in MUTANTS}
    assert names == set(TARGETS)
    keys = [key for key, _, _ in MUTANTS]
    assert len(keys) == len(set(keys))
    assert set(EQUIVALENT) <= set(keys), "a listed equivalent is no longer a mutant"


def test_every_construction_mutant_is_flagged():
    """Each mutant makes some problem's ``solve`` report ``ok`` false, or
    raise; only the listed equivalents get through."""
    survivors = []
    for key, name, index in MUTANTS:
        all_ok = run_solves(compile_mutant(name, index), name, lambda outs: all(out.ok for out in outs))
        if all_ok:
            survivors.append(key)
    assert set(survivors) <= set(EQUIVALENT), sorted(set(survivors) - set(EQUIVALENT))


def _as_json(outs) -> list:
    return [json.dumps(out.to_json_dict()) for out in outs]


@pytest.mark.parametrize("key", sorted(EQUIVALENT), ids=lambda key: f"{key[0]}: {key[1]} {key[2]}")
def test_listed_equivalents_change_no_output(key):
    honest = _as_json([operators.solve(problem) for problem in PROBLEMS.values()])
    (name, index), = [(n, i) for k, n, i in MUTANTS if k == key]
    assert run_solves(compile_mutant(name, index), name, _as_json) == honest


# -- the word engine's regular recursion ---------------------------------------
#
# The same operator set and patch-and-restore, on the source of N, R, S and
# U_plus (``BirkhoffEngine.regular`` and ``coeff_N``).  A mutant is flagged
# when ``verify`` at L 3 on one of the alphabets exits non-zero or raises:
# its suites compare the recursion with the Birkhoff pair.

WORD_TARGETS = ("regular", "coeff_N")
WORD_ALPHABETS = ("i,-i,0", "i,-i,1,-1,0", "1/3,-1/3,2/7i,-2/7i,0")

BIRKHOFF_SOURCE = inspect.getsource(birkhoff)
ENGINE_METHODS = {
    node.name: node
    for cls in ast.parse(BIRKHOFF_SOURCE).body
    if isinstance(cls, ast.ClassDef) and cls.name == "BirkhoffEngine"
    for node in cls.body
    if isinstance(node, ast.FunctionDef)
}
WORD_MUTANTS = mutants(ENGINE_METHODS, BIRKHOFF_SOURCE.splitlines(), WORD_TARGETS)


def verify_flags(mutant, name: str) -> bool:
    """Patch ``mutant`` in for the engine method ``name`` and run ``verify``
    on each alphabet; True as soon as one run exits non-zero or raises.
    Then restore."""
    honest = getattr(birkhoff.BirkhoffEngine, name)
    setattr(birkhoff.BirkhoffEngine, name, mutant)
    try:
        for letters in WORD_ALPHABETS:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["verify", "--alphabet", letters, "-L", "3"]) != 0:
                    return True
        return False
    except Exception:
        return True
    finally:
        setattr(birkhoff.BirkhoffEngine, name, honest)


def test_every_word_target_has_mutants():
    assert {name for _, name, _ in WORD_MUTANTS} == set(WORD_TARGETS)
    keys = [key for key, _, _ in WORD_MUTANTS]
    assert len(keys) == len(set(keys))


def test_every_recursion_mutant_is_flagged_by_verify():
    """Each mutant makes ``verify`` exit non-zero, or raise, on some
    alphabet.  None is equivalent: every window bound is read exactly (a
    wider one reads past the shorter words' windows and raises), and every
    sum and product reaches degree 0 of some word."""
    survivors = [
        key
        for key, name, index in WORD_MUTANTS
        if not verify_flags(compile_mutant(name, index, birkhoff, ENGINE_METHODS), name)
    ]
    assert not survivors, survivors


# -- the grading-identity suite ----------------------------------------------
#
# The same operator set and patch-and-restore, on the suite that reads the
# engine word by word.  Each run is an engine built as ``verify`` builds it:
# (alphabet, L, corrupted word or None, the identities that fire).  The
# clean runs are the recursion gate's; the corrupted ones are CI's, each
# identity set recorded before the suite was read word by word.  A mutant is
# flagged when an identity fires on a clean run, an identity that fires on
# a corrupted run no longer does, the suite counts other than every word of
# length <= L, or it raises.  The identities are told apart because (iii)
# fires only alongside (i) on these runs: the suite's one flag would not
# show a mutant that never checks it.

GRADING_TARGETS = ("verify_grading_identities", "_r_times")
GRADING_RUNS = (
    ("i,-i,0", 3, None, set()),
    ("i,-i,1,-1,0", 3, None, set()),
    ("1/3,-1/3,2/7i,-2/7i,0", 3, None, set()),
    ("i,-i,0", 2, "0", {"(i)", "(ii)", "(iii)"}),
    ("i,-i,2i,0", 4, "i,-i", {"(i)", "(ii)", "(iii)"}),
    ("i,-i,2i,0", 3, "i", {"(i)", "(ii)", "(iii)"}),
    # the one known run where (ii) alone fires
    ("i,-i,2i,-2i,0", 3, "0,i,-i", {"(ii)"}),
)

BIRKHOFF_FUNCTIONS = {
    node.name: node for node in ast.parse(BIRKHOFF_SOURCE).body if isinstance(node, ast.FunctionDef)
}
GRADING_MUTANTS = mutants(BIRKHOFF_FUNCTIONS, BIRKHOFF_SOURCE.splitlines(), GRADING_TARGETS)


@pytest.fixture(scope="module")
def grading_runs():
    """(engine, L, identities that fire) per run; the engines are shared by
    every mutant, which only read them."""
    runs = []
    for letters, length, word, fired in GRADING_RUNS:
        alphabet = Alphabet.parse(letters)
        if word is None:
            engine = birkhoff.BirkhoffEngine(alphabet, length)
        else:
            engine = birkhoff.CorruptedEngine(alphabet, alphabet.parse_word(word), length)
        runs.append((engine, length, fired))
    return runs


def fired_identities(report) -> set:
    return {v.label.split(" ")[0] for v in report.violations}


def grading_flags(runs, suite) -> bool:
    """True when ``suite`` misjudges one run or raises."""
    try:
        for engine, length, fired in runs:
            report = suite(engine, length)
            words = sum(len(engine.alphabet) ** r for r in range(length + 1))
            seen = fired_identities(report)
            # a clean run fires nothing; a corrupted one at least what it fired
            misjudged = fired - seen if fired else seen
            if misjudged or report.words_checked != words:
                return True
        return False
    except Exception:
        return True


def test_the_grading_runs_fire_their_identities(grading_runs):
    for engine, length, fired in grading_runs:
        assert fired_identities(birkhoff.verify_grading_identities(engine, length)) == fired


def test_every_grading_target_has_mutants():
    assert {name for _, name, _ in GRADING_MUTANTS} == set(GRADING_TARGETS)
    keys = [key for key, _, _ in GRADING_MUTANTS]
    assert len(keys) == len(set(keys))


def test_every_grading_suite_mutant_is_flagged(grading_runs):
    """Each mutant of the suite, or of the sums it reads, misjudges a run.
    None is equivalent: every split of a word reaches a nonzero R^a on
    some run, and every comparison decides some verdict."""
    survivors = []
    for key, name, index in GRADING_MUTANTS:
        honest = getattr(birkhoff, name)
        setattr(birkhoff, name, compile_mutant(name, index, birkhoff, BIRKHOFF_FUNCTIONS))
        try:
            if not grading_flags(grading_runs, birkhoff.verify_grading_identities):
                survivors.append(key)
        finally:
            setattr(birkhoff, name, honest)
    assert not survivors, survivors


# -- the source's U_minus and T, which only ``moulds`` reads ------------------
#
# The same operator set and patch-and-restore, on the two readers of the
# source that no suite reads (``counterterm``, U_minus from R, and
# ``t_window``, T on its fixed window).  A mutant is flagged when it raises
# or changes the output of a ``--acc 2`` ``moulds`` command of
# ``GOLDEN_DIGESTS``.

MOULDS_TARGETS = ("counterterm", "t_window")
MOULDS_RUNS = tuple(run for run in GOLDEN_DIGESTS if run[0][0] == "moulds" and run[0][-2:] == ("--acc", "2"))
MOULDS_MUTANTS = mutants(ENGINE_METHODS, BIRKHOFF_SOURCE.splitlines(), MOULDS_TARGETS)


def moulds_flags(mutant, name: str) -> bool:
    """Patch ``mutant`` in for the engine method ``name`` and run the
    ``moulds`` commands; True as soon as one changes its exit code or
    output, or raises.  Then restore."""
    honest = getattr(birkhoff.BirkhoffEngine, name)
    setattr(birkhoff.BirkhoffEngine, name, mutant)
    try:
        for argv, code, digest in MOULDS_RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                got = cli.main(list(argv))
            if (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) != (code, digest):
                return True
        return False
    except Exception:
        return True
    finally:
        setattr(birkhoff.BirkhoffEngine, name, honest)


def test_every_moulds_target_has_mutants():
    assert len(MOULDS_RUNS) == 2
    assert {name for _, name, _ in MOULDS_MUTANTS} == set(MOULDS_TARGETS)
    keys = [key for key, _, _ in MOULDS_MUTANTS]
    assert len(keys) == len(set(keys))
    # the honest readers print every digest
    for name in MOULDS_TARGETS:
        assert not moulds_flags(getattr(birkhoff.BirkhoffEngine, name), name)


def test_every_source_reader_mutant_changes_moulds():
    """Each mutant of U_minus from R or of the T windows changes a
    ``moulds`` table, or raises."""
    survivors = [
        key
        for key, name, index in MOULDS_MUTANTS
        if not moulds_flags(compile_mutant(name, index, birkhoff, ENGINE_METHODS), name)
    ]
    assert not survivors, survivors
