"""Every function in ``src/mouldpert`` is reached by some command.

A fixed set of command lines runs in process under ``sys.setprofile``,
which records the code object of every Python function entered.  The
functions are keyed by their qualified names (``Class.method``,
``outer.<locals>.inner``) read from the source with ``ast``, since code
objects carry no qualified name before Python 3.11.  A function that no
command enters must be listed in ``UNREACHED`` with its reason:

- "tests' reference": the tests read it as a reference or an independent
  route;
- "read by perfbench/tracing.py": the benchmark's tracer counts or times
  it by name;
- "repr": a debugging representation;
- "protocol": a truth or number protocol method that nothing calls, kept
  so that the type reads as a number type.

A new function that no command reaches fails the test, and so does a
listed one that a command now reaches.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys

import mouldpert
from mouldpert import cli

MODULES = tuple(
    importlib.import_module(f"mouldpert.{info.name}") for info in pkgutil.iter_modules(mouldpert.__path__)
)

REFERENCE = "tests' reference"
PERFBENCH = "read by perfbench/tracing.py"
REPR = "repr"
PROTOCOL = "protocol"

UNREACHED = {
    "laurent.Laurent.__bool__": PROTOCOL,
    "laurent.Laurent.inverse": PERFBENCH,
    "laurent.Laurent.__repr__": REPR,
    "moulds.Alphabet.__repr__": REPR,
    "moulds.Mould.__repr__": REPR,
    "moulds._composition_sum": REFERENCE,
    "moulds._integer_constant": REFERENCE,
    "moulds._product_value": PERFBENCH,
    "moulds.is_alternal_up_to": REFERENCE,
    "moulds.mould_antipode": REFERENCE,
    "moulds.mould_antipode.<locals>.fn": REFERENCE,
    "moulds.mould_exp": REFERENCE,
    "moulds.mould_exp.<locals>.fn": REFERENCE,
    "moulds.mould_inverse": REFERENCE,
    "moulds.mould_inverse.<locals>.fn": REFERENCE,
    "moulds.mould_log": PERFBENCH,
    "moulds.mould_log.<locals>.fn": PERFBENCH,
    "moulds.mould_product": REFERENCE,
    "moulds.mould_product.<locals>.fn": REFERENCE,
    "moulds.nabla": REFERENCE,
    "moulds.nabla.<locals>.fn": REFERENCE,
    "moulds.shuffle": REFERENCE,
    "operators.MatrixSeries.__eq__": REFERENCE,
    "operators.PerturbationProblem.h_series": REFERENCE,
    "operators.mat_mul": PERFBENCH,
    "scalars.GaussianRational.__pos__": PROTOCOL,
    "scalars.GaussianRational.__pow__": REFERENCE,
    "scalars.GaussianRational.__repr__": REPR,
    "scalars.GaussianRational.__rsub__": REFERENCE,
    "scalars.GaussianRational.__rtruediv__": REFERENCE,
    "scalars.GaussianRational.__truediv__": REFERENCE,
    "scalars.GaussianRational.im": REFERENCE,
}

TWO_LEVEL = {"E0": ["0", "1"], "V": [["0", "1"], ["1", "0"]], "hbar": "1/2"}
DEGENERATE = {"E0": ["0", "0", "1"], "V": [["1", "i", "1"], ["-i", "0", "2i"], ["1", "-2i", "-1"]], "hbar": "1/2"}
NOT_HERMITIAN = {"E0": ["0", "1"], "V": [["0", "1+i"], ["1+i", "0"]]}
HUGE = "1" + "0" * 5000


def command_lines(workdir: str) -> list:
    """(argv, exit code) of every subcommand, ``--problem``, ``--mu``,
    ``--corrupt-word``, bad input, an out-of-range ``--random-dim``, and a
    flag value and a letter past the 4300-digit int/str limit."""
    paths = {}
    for name, problem in (("two_level", TWO_LEVEL), ("degenerate", DEGENERATE), ("not_hermitian", NOT_HERMITIAN)):
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
    return [
        (["solve", paths["two_level"], "--mu", "1/100"], 0),
        (["solve", paths["degenerate"], "--order", "3"], 0),
        (["solve", paths["not_hermitian"]], 2),
        (["oracle", "--random-dim", "3", "--seed", "1", "--order", "3"], 0),
        (["oracle", paths["degenerate"], "--order", "3"], 0),
        (["oracle", "--random-dim", "99", "--seed", "1"], 2),
        (["moulds", "--alphabet", "i,-i,0", "-L", "2", "--acc", "1"], 0),
        (["moulds", "--problem", paths["degenerate"], "-L", "2"], 0),
        (["moulds", "--alphabet", "0", "-L", HUGE], 2),
        # its values are printed past the int/str digit limit
        (["moulds", "--alphabet", HUGE, "-L", "1"], 0),
        (["verify", "--alphabet", "i,-i,2i,-2i,0", "-L", "2"], 0),
        (["verify", "--problem", paths["degenerate"], "-L", "2"], 0),
        (["verify", "--alphabet", "i,-i,0", "-L", "2", "--corrupt-word", "0"], 1),
        (["verify", "--alphabet", "i,,-i"], 2),
    ]


def defined_functions() -> dict:
    """{(file, first line): qualified name} of every ``def`` in the
    package.  The first line of a decorated function's code is that of its
    first decorator."""
    out = {}

    def walk(body, prefix, path):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", path)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(path, first)] = prefix + node.name
                walk(node.body, prefix + node.name + ".<locals>.", path)

    for module in MODULES:
        path = module.__file__
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        walk(tree.body, module.__name__.rsplit(".", 1)[1] + ".", path)
    return out


def clear_caches() -> None:
    """Empty every module-level function cache, so that a call another
    test made earlier in the process is made again here."""
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_every_function_is_reached_or_listed(tmp_path):
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    lines = command_lines(str(tmp_path))
    clear_caches()
    codes = []
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in lines:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(outer)
    assert codes == [code for _, code in lines]
    unreached = {name for key, name in functions.items() if key not in entered}
    assert unreached == set(UNREACHED)
    assert set(UNREACHED.values()) <= {REFERENCE, PERFBENCH, REPR, PROTOCOL}
