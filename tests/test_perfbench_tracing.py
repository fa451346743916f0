"""The per-layer benchmark patches names of the package by string; a
refactor that drops one of them must fail here, not in the benchmark."""

import contextlib
import io
import json
import os

import pytest

from mouldpert.cli import main
from mouldpert.operators import random_problem

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_counted_functions_resolve(tracing):
    counted = tracing.counted_functions()
    assert counted
    for name, (filename, line, function) in counted.items():
        assert os.path.exists(filename), name
        assert line > 0 and function, name


@pytest.mark.parametrize("degenerate", [False, True])
def test_traced_commands_complete(tracing, tmp_path, degenerate):
    problem = random_problem(3, 3, seed=4, degenerate=degenerate)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem.to_json_dict()))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for command in ("oracle", "solve"):
            tracer.begin_op(command)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, str(path)]) == 0
            record = tracer.op_record()
            assert record["max_coeff_bits"] > 0
            if command == "oracle":
                # N and C come from the matrix decomposition: no engine, no words
                assert record["alphabet_size"] == 0
                assert record["pair_entries"] == 0
                assert record["words_contributing"] == 0
            else:
                assert record["alphabet_size"] > 0
                assert record["pair_entries"] > 0
                assert record["words_contributing"] > 0
    names = {span[0] for span in tracer.spans}
    expected = {"cli.io", "operators.solve", "operators.normal_form", "operators.conjugator", "operators.oracle"}
    assert expected <= names
    assert "operators.oracle" in tracer.op_totals(0)
    # the patched names are restored on exit
    from mouldpert import birkhoff, cli, operators

    assert cli.solve is operators.solve
    assert cli.BirkhoffEngine is birkhoff.BirkhoffEngine


def test_traced_alphabet_suites_complete(tracing):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for argv in (
            ["verify", "--alphabet", "i,-i,0", "-L", "2"],
            ["moulds", "--alphabet", "i,-i,0", "-L", "2", "--acc", "2"],
        ):
            tracer.begin_op(argv[0])
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            record = tracer.op_record()
            assert record["pair_entries"] > 0
            assert record["t_entries"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"birkhoff.suites", "moulds.symmetral"} <= names
    # the patched names are restored on exit
    from mouldpert import birkhoff, cli, moulds

    assert cli.verify_mould_equation is birkhoff.verify_mould_equation
    assert cli.verify_grading_identities is birkhoff.verify_grading_identities
    assert birkhoff.is_symmetral_up_to is moulds.is_symmetral_up_to
    assert cli.BirkhoffEngine is birkhoff.BirkhoffEngine
