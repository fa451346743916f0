"""Exit codes and JSON output of the command-line front end."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mouldpert.cli import _write_json, main
from mouldpert.scalars import format_scalar, parse_scalar


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "E0": ["0", "1"],
                "V": [["0", "1"], ["1", "0"]],
                "hbar": "1",
                "order": 6,
            }
        )
    )
    return str(path)


@pytest.fixture
def bad_problem_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "E0": ["0", "1"],
                "V": [["0", "2"], ["1", "0"]],
                "order": 2,
            }
        )
    )
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_solve_two_level(problem_file, capsys):
    assert main(["solve", problem_file, "--mu", "1/100"]) == 0
    data = read_json(capsys)
    assert data["eigenvalue_series"]["0"] == ["0", "0", "-1", "0", "1", "0", "-2"]
    assert data["verification"]["conjugacy"] is True
    assert data["verification"]["unitarity"] is True
    assert data["verification"]["oracle_match"] is True


def test_solve_with_order_override(problem_file, capsys):
    assert main(["solve", problem_file, "--order", "2"]) == 0
    data = read_json(capsys)
    assert data["eigenvalue_series"]["0"] == ["0", "0", "-1"]


def test_solve_rejects_non_hermitian(bad_problem_file, capsys):
    assert main(["solve", bad_problem_file]) == 2
    err = capsys.readouterr().err
    assert "not Hermitian at (0,1)" in err


def test_solve_rejects_bad_mu(problem_file, capsys):
    assert main(["solve", problem_file, "--mu", "3/2"]) == 2
    assert main(["solve", problem_file, "--mu", "i"]) == 2
    for mu in ("1/100,,1/1000", "1/100,", ""):
        assert main(["solve", problem_file, "--mu", mu]) == 2
        assert "empty scalar" in capsys.readouterr().err


def test_solve_rejects_zero_order(problem_file, tmp_path, capsys):
    """Every order below 1, from a flag or from the file, gets one message."""
    message = "the truncation order must be at least 1"
    for argv in (
        ["solve", problem_file, "--order", "0"],
        ["solve", problem_file, "-K", "-1"],
        ["oracle", problem_file, "--order", "-2"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    for order in (0, -1):
        path = write_problem(tmp_path, {**TWO_LEVEL, "order": order}, name=f"order{order}.json")
        for command in ("solve", "oracle"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == f"error: bad problem file {path}: {message}\n"


def test_solve_rejects_an_order_past_every_index(problem_file, tmp_path, capsys):
    """An order that no list index can reach, from a flag or from the
    file, is bad input, refused before any arithmetic.  Only orders past
    sys.maxsize are tried: one that fits an index would start the run."""
    huge = 99999999999999999999
    assert huge > sys.maxsize
    message = f"the truncation order must be below sys.maxsize = {sys.maxsize}"
    for command in ("solve", "oracle"):
        assert main([command, problem_file, "--order", str(huge)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a flag past the 4300-digit int/str limit reaches the same check, and no digit is echoed
    longest_flag = "1" + "0" * 5000
    for args in (["solve", problem_file], ["oracle", "--random-dim", "3", "--seed", "1"]):
        assert main([*args, "--order", longest_flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n" and len(err.encode()) < 300
    # from the file, also past the 4300-digit int/str limit, which json.dumps cannot write
    longest = tmp_path / "longest_order.json"
    longest.write_text('{"E0": ["0", "1"], "V": [["0", "1"], ["1", "0"]], "order": 1' + "0" * 5000 + "}")
    for path in (write_problem(tmp_path, {**TWO_LEVEL, "order": huge}, name="huge_order.json"), str(longest)):
        for command in ("solve", "oracle"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == f"error: bad problem file {path}: {message}\n"


LONGEST_FLAG = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["moulds", "--alphabet", "0", "-L", LONGEST_FLAG], "below sys.maxsize"),
        (["moulds", "--alphabet", "0", "--acc", LONGEST_FLAG], "below sys.maxsize"),
        (["verify", "--alphabet", "0", "-L", LONGEST_FLAG], "below sys.maxsize"),
        (["oracle", "--random-dim", LONGEST_FLAG, "--seed", "1"], "between 1 and 13"),
    ],
    ids=["moulds -L", "moulds --acc", "verify -L", "oracle --random-dim"],
)
def test_an_integer_flag_past_the_int_string_limit_exits_2_briefly(capsys, argv, rule):
    """Every integer flag reads its digits as ``--order`` does, so a
    5001-digit value reaches the flag's range check, whose message does
    not echo the value."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.encode()) < 300 and "Traceback" not in err
    assert rule in err


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


def test_moulds_single_resonant_letter(capsys):
    assert main(["moulds", "--alphabet", "0", "--max-length", "1"]) == 0
    rows = read_json(capsys)
    assert rows[0]["word"] == "∅"
    assert rows[0]["R"] == "0"
    assert rows[0]["S"] == "1"
    row = rows[1]
    assert row["word"] == "0"
    assert row["U_minus"] == {"-1": "-1"}
    assert row["R"] == "1"
    assert row["S"] == "0"
    assert row["N"] == "1"


def test_moulds_cancelling_pair(capsys):
    assert main(["moulds", "--alphabet", "i,-i", "--max-length", "2"]) == 0
    rows = read_json(capsys)
    by_word = {row["word"]: row for row in rows}
    assert by_word["i·-i"]["N"] == "-1/2i"
    assert by_word["-i·i"]["N"] == "1/2i"


def test_moulds_length_zero(capsys):
    assert main(["moulds", "--alphabet", "i,-i", "--max-length", "0"]) == 0
    rows = read_json(capsys)
    assert len(rows) == 1
    assert rows[0] == {
        "word": "∅",
        "T": {"0": "1"},
        "U_minus": {"0": "1"},
        "U_plus": {"0": "1"},
        "R": "0",
        "S": "1",
        "N": "0",
    }


def test_moulds_length_zero_prints_the_json_dumps_text(capsys):
    """The single-row table, streamed to stdout."""
    assert main(["moulds", "--alphabet", "i,-i", "--max-length", "0"]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), indent=2) + "\n"


def test_letters_past_the_int_string_limit_are_valid_input(capsys):
    """A letter of 2201 digits, whose length-2 values pass Python's
    4300-digit limit on int/str conversion, and a 5001-digit letter are
    printed in full, with exit 0."""
    letter = "1/1" + "0" * 2200
    assert main(["moulds", "--alphabet", letter, "-L", "2"]) == 0
    rows = read_json(capsys)
    s = rows[2]["S"]
    assert len(s) > 4300
    assert format_scalar(parse_scalar(s)) == s
    assert main(["moulds", "--alphabet", "3" * 5001, "-L", "1"]) == 0
    assert read_json(capsys)[1]["word"] == "3" * 5001


def test_moulds_rejects_bad_alphabet(capsys):
    assert main(["moulds", "--alphabet", "i,i"]) == 2
    assert main(["moulds", "--alphabet", "x"]) == 2
    assert main(["moulds"]) == 2
    capsys.readouterr()
    for letters in ("i,,-i", "i,-i,", ""):
        assert main(["verify", "--alphabet", letters]) == 2
        assert "empty scalar" in capsys.readouterr().err
    assert main(["moulds", "--alphabet="]) == 2
    assert "empty scalar" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["moulds", "verify"])
def test_alphabet_and_problem_together_exit_2(problem_file, capsys, command):
    assert main([command, "--alphabet", "i,-i", "--problem", problem_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --alphabet and --problem exclude each other: give one\n"


@pytest.mark.parametrize("flag, value", [("--random-dim", "3"), ("--seed", "7")])
def test_oracle_file_with_random_flags_exits_2(problem_file, capsys, flag, value):
    assert main(["oracle", problem_file, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a problem file and {flag} exclude each other: give one\n"


def test_verify_clean(capsys):
    assert main(["verify", "--alphabet", "i,-i,0", "--max-length", "3"]) == 0
    data = read_json(capsys)
    assert all(entry["ok"] for entry in data["suites"].values())
    assert "conjugation_symmetry" in data["suites"]


def test_verify_problem_alphabet(problem_file, capsys):
    assert main(["verify", "--problem", problem_file, "--max-length", "3"]) == 0


def test_verify_corruption_is_reported(capsys):
    assert (
        main(
            [
                "verify",
                "--alphabet",
                "i,-i,0",
                "--max-length",
                "2",
                "--corrupt-word",
                "0",
            ]
        )
        == 1
    )
    data = read_json(capsys)
    bad = [
        violation
        for entry in data["suites"].values()
        for violation in entry["violations"]
    ]
    assert any(
        (violation["word"] if isinstance(violation, dict) else violation) == "0"
        or "0" in str(violation)
        for violation in bad
    )
    # the poisoned pair is what U_minus x T = U_plus reads
    factorization = data["suites"]["factorization"]
    assert factorization["ok"] is False
    assert "U_minus x T = U_plus" in {v["identity"] for v in factorization["violations"]}


def test_solve_skips_numeric_check_beyond_float_range(tmp_path, capsys):
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"E0": ["0", "1"], "V": [["0", huge], [huge, "0"]], "order": 3})
    )
    assert main(["solve", str(path), "--mu", "1/2"]) == 0
    data = read_json(capsys)
    assert data["verification"]["conjugacy"] is True
    (sample,) = data["verification"]["numeric"]
    assert sample["skipped"]
    assert sample["max_error"] is None


def test_non_real_eigenvalue_correction_is_a_violation(problem_file, monkeypatch, capsys):
    """A non-real diagonal entry of N is printed in the eigenvalue series
    and flagged by the Hermiticity check: the run reports its verification
    and exits 1, not 2."""
    from mouldpert import operators
    from mouldpert.scalars import I

    build = operators.build_conjugator

    def skewed(problem):
        c_series, n_series = build(problem)
        coeffs = [[list(row) for row in a] for a in n_series.coeffs]
        coeffs[2][0][0] = coeffs[2][0][0] + I
        return c_series, operators.MatrixSeries([tuple(map(tuple, a)) for a in coeffs])

    monkeypatch.setattr(operators, "build_conjugator", skewed)
    assert main(["solve", problem_file, "--mu", "1/100"]) == 1
    data = read_json(capsys)
    assert data["verification"]["hermitian"] is False
    assert data["eigenvalue_series"]["0"][2] == "-1+i"
    assert main(["oracle", problem_file]) == 1
    assert read_json(capsys)["conjugacy_ok"] is False


def test_oracle_on_problem_file(problem_file, capsys):
    assert main(["oracle", problem_file, "--order", "4"]) == 0
    data = read_json(capsys)
    assert data["oracle_match"]["match"] is True
    assert data["conjugacy_ok"] is True


def test_oracle_random_requires_seed(capsys):
    assert main(["oracle", "--random-dim", "3"]) == 2


@pytest.mark.parametrize("dim", ["0", "14", "-3"])
def test_oracle_random_dim_out_of_range_exits_2(capsys, dim):
    assert main(["oracle", "--random-dim", dim, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --random-dim must be between 1 and 13, got {dim}\n"


def test_oracle_random_seeded(capsys):
    assert main(["oracle", "--random-dim", "3", "--seed", "7", "--order", "3"]) == 0
    data = read_json(capsys)
    assert data["oracle_match"]["match"] is True


@pytest.mark.parametrize("flag", ["-o", "--output"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "PROBLEM"],
        ["oracle", "PROBLEM"],
        ["moulds", "--alphabet", "i,-i", "-L", "2"],
        ["verify", "--alphabet", "i,-i", "-L", "2"],
    ],
    ids=["solve", "oracle", "moulds", "verify"],
)
def test_output_flag_is_refused_and_writes_no_file(problem_file, tmp_path, capsys, argv, flag):
    """Standard output is the only sink: an output path is an unknown
    argument, so argparse exits 2 before any file is made."""
    argv = [problem_file if a == "PROBLEM" else a for a in argv]
    target = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exited:
        main(argv + [flag, str(target)])
    assert exited.value.code == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


def cli_env() -> dict:
    """The environment of a ``python -m mouldpert.cli`` subprocess that
    imports this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (os.path.abspath(src), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def assert_closed_stdout_reported(returncode, stderr):
    assert returncode == 2
    assert stderr.startswith("error: cannot write standard output")
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


# a dict payload, and a streamed table of 1365 rows (about 420 kB)
CLOSED_STDOUT_ARGV = [
    ["oracle", "--random-dim", "3", "--seed", "1"],
    ["moulds", "--alphabet", "i,-i,2i,0", "-L", "5", "--acc", "2"],
]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_ARGV, ids=["oracle", "moulds"])
def test_closed_stdout_exits_2_without_a_traceback(argv):
    # stdout is a pipe whose read end is closed before the program writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mouldpert.cli"] + argv,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert_closed_stdout_reported(done.returncode, done.stderr)


def test_stdout_closed_mid_stream_exits_2_without_a_traceback():
    """The reader takes the first bytes of the table and closes the pipe,
    so the write that fails comes in the middle of the stream."""
    process = subprocess.Popen(
        [sys.executable, "-m", "mouldpert.cli"] + CLOSED_STDOUT_ARGV[1],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    try:
        assert process.stdout.read(16) == b'[\n  {\n    "word"'
        process.stdout.close()
        stderr = process.stderr.read().decode()
        returncode = process.wait(timeout=120)
    finally:
        process.kill()
        process.stderr.close()
    assert_closed_stdout_reported(returncode, stderr)


# any JSON value json.dumps writes: str keys, any text, ints past 64 bits,
# NaN and +-inf, booleans, None and empty containers
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)
# a payload, as the commands emit: a dict or a list
JSON_TREES = st.lists(JSON_VALUES, max_size=4) | st.dictionaries(st.text(), JSON_VALUES, max_size=4)


def written(payload) -> tuple:
    """(text, number of write calls) of the CLI's JSON writer."""
    chunks = []
    _write_json(payload, chunks.append)
    return "".join(chunks), len(chunks)


def as_generators(value):
    """value with every list replaced by a generator of its elements."""
    if isinstance(value, list):
        return (as_generators(item) for item in value)
    if isinstance(value, dict):
        return {key: as_generators(item) for key, item in value.items()}
    return value


@given(JSON_TREES)
def test_writer_equals_json_dumps_indent_2(value):
    text, calls = written(value)
    assert text == json.dumps(value, indent=2) + "\n"
    if isinstance(value, dict):
        assert calls == 1


@given(JSON_TREES)
def test_writer_streams_generators_as_lists(value):
    """A generator stands for a list at any depth; at the top it is
    written one element per call, and its closing bracket in one more."""
    text, calls = written(as_generators(value))
    assert text == json.dumps(value, indent=2) + "\n"
    if isinstance(value, list):
        assert calls == len(value) + 1


def test_writer_writes_an_empty_generator_as_an_empty_list():
    assert written(iter(()))[0] == "[]\n"
    assert written({"rows": iter(()), "more": [iter(())]})[0] == json.dumps({"rows": [], "more": [[]]}, indent=2) + "\n"


class Discarding:
    """A standard output that drops what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_moulds_memory_does_not_grow_with_its_table(monkeypatch):
    """The table is written row by row, so the peak is the engine's memo
    and one row: under 1 MiB for the 341 rows of L = 4 (about 100 kB of
    text), where holding the rows and their text took 1.7 MiB."""
    argv = ["moulds", "--alphabet", "i,-i,2i,0", "-L", "4", "--acc", "2"]
    monkeypatch.setattr(sys, "stdout", Discarding())
    assert main(argv) == 0  # the parser and any lazy import, outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_moulds_writes_each_row_before_computing_the_next(monkeypatch):
    """No list of rows is built: write k comes right after the k-th word's
    source record (``regular``) is first read, and the closing bracket
    after the last.  A record reads only shorter words, which are earlier
    rows, so k words have been read when row k is written."""
    from mouldpert.birkhoff import BirkhoffEngine

    read, seen = set(), []
    honest = BirkhoffEngine.regular
    monkeypatch.setattr(BirkhoffEngine, "regular", lambda self, w: read.add(w) or honest(self, w))

    class Recording(Discarding):
        def write(self, text):
            seen.append(len(read))
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(["moulds", "--alphabet", "i,-i", "-L", "2"]) == 0
    assert seen == [1, 2, 3, 4, 5, 6, 7, 7]


@pytest.mark.parametrize("reader", ["t_window", "regular", "_pair"])
def test_a_run_too_large_to_allocate_exits_2_with_one_line(monkeypatch, capsys, reader):
    """A window that cannot be allocated ends in one ``error:`` line and
    exit 2, not a traceback and exit 1.  The reader is patched to raise,
    so nothing large is allocated."""
    from mouldpert.birkhoff import BirkhoffEngine

    def out_of_memory(self, *args):
        raise MemoryError

    monkeypatch.setattr(BirkhoffEngine, reader, out_of_memory)
    command = "verify" if reader == "_pair" else "moulds"
    assert main([command, "--alphabet", "0", "-L", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the run needs more memory than it can allocate\n"


def test_no_command_loads_numpy(problem_file):
    """Importing the CLI and running every command, ``solve --mu``
    included, leave numpy out of sys.modules: the numeric check runs on
    the package's own eigenvalue kernel."""
    script = (
        "import contextlib, io, sys\n"
        "import mouldpert.cli\n"
        "seen = ['numpy' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert mouldpert.cli.main(['oracle', '--random-dim', '3', '--seed', '1']) == 0\n"
        "    assert mouldpert.cli.main(['solve', sys.argv[1], '--mu', '1/100']) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    assert mouldpert.cli.main(['verify', '--alphabet', 'i,-i,0', '-L', '2']) == 0\n"
        "    assert mouldpert.cli.main(['moulds', '--alphabet', 'i,-i,0', '-L', '2']) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(seen)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (os.path.abspath(src), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, problem_file],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False, False]\n"


def test_deterministic_output(problem_file, capsys):
    assert main(["solve", problem_file, "--order", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", problem_file, "--order", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


# -- the exit contract ------------------------------------------------------------


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TWO_LEVEL = {"E0": ["0", "1"], "V": [["0", "1"], ["1", "0"]]}


@pytest.mark.parametrize(
    "data",
    [
        [TWO_LEVEL],
        {**TWO_LEVEL, "E0": 5},
        {**TWO_LEVEL, "V": [[0, 1.5], [1.5, 0]]},
        {**TWO_LEVEL, "V": ["01", "10"]},
        {**TWO_LEVEL, "E0": [0.5, "1"]},
        {**TWO_LEVEL, "E0": [True, "1"]},
        {**TWO_LEVEL, "hbar": 0.5},
        {**TWO_LEVEL, "hbar": None},
        {**TWO_LEVEL, "order": [4]},
        {**TWO_LEVEL, "order": 2.7},
        {**TWO_LEVEL, "order": "3"},
        {**TWO_LEVEL, "order": True},
        {**TWO_LEVEL, "V": [["0", "٣"], ["٣", "0"]]},
        {"V": TWO_LEVEL["V"]},
        {"E0": TWO_LEVEL["E0"]},
        {**TWO_LEVEL, "Hbar": "1/2"},
        {**TWO_LEVEL, "Order": 2},
    ],
)
def test_malformed_problem_exits_2_with_a_message(tmp_path, capsys, data):
    path = write_problem(tmp_path, data)
    missing = [key for key in ("E0", "V") if isinstance(data, dict) and key not in data]
    unknown = [key for key in ("Hbar", "Order") if isinstance(data, dict) and key in data]
    for argv in (["solve", path], ["oracle", path], ["moulds", "--problem", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        for key in missing:
            assert f'missing key "{key}"' in captured.err
        for key in unknown:
            assert f'unknown key "{key}"' in captured.err


@pytest.mark.parametrize(
    "v, message",
    [
        # a list where a scalar belongs: literals are parsed once each, other entries as before
        ([["0", ["1"]], ["1", "0"]], "expected a scalar literal"),
        # one repeated literal on both sides of the diagonal
        ([["0", "1+i"], ["1+i", "0"]], "not Hermitian at (0,1)"),
    ],
)
def test_bad_matrix_entries_exit_2_with_their_message(tmp_path, capsys, v, message):
    path = write_problem(tmp_path, {**TWO_LEVEL, "V": v})
    for argv in (["solve", path], ["oracle", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_corrupt_word_longer_than_max_length_exits_2(capsys):
    verify = ["verify", "--alphabet", "i,-i,0", "--corrupt-word", "i,-i,0"]
    assert main(verify + ["-L", "2"]) == 2
    captured = capsys.readouterr()
    assert "--corrupt-word" in captured.err and "--max-length 2" in captured.err
    assert captured.out == ""
    # the same word is read, and caught, once -L reaches its length
    assert main(verify + ["-L", "3"]) == 1


def test_unknown_corrupt_word_letter_is_named(capsys):
    assert main(["verify", "--alphabet", "i,-i", "--corrupt-word", "2i"]) == 2
    captured = capsys.readouterr()
    assert "2i is not a letter of the alphabet" in captured.err
    assert "GaussianRational(" not in captured.err
    assert captured.out == ""


def test_integer_scalars_are_accepted(tmp_path, capsys):
    path = write_problem(tmp_path, {"E0": [0, 1], "V": [[0, 1], [1, 0]], "hbar": 1, "order": 2})
    assert main(["solve", path]) == 0
    assert read_json(capsys)["eigenvalue_series"]["0"] == ["0", "0", "-1"]


@pytest.mark.parametrize("e0", [["0", "1" + "0" * 5000], ["-1" + "0" * 5000, "0"]])
def test_integers_past_the_int_string_limit_read_as_their_literals(tmp_path, capsys, e0):
    """A problem file's JSON integers of any length are read as the same
    digits written as string literals are."""
    literal = write_problem(tmp_path, {"E0": e0, "V": [["1", "-1"], ["-1", "1"]], "order": 2}, "literal.json")
    integer = tmp_path / "integer.json"
    integer.write_text('{"E0": [' + ", ".join(e0) + '], "V": [[1, -1], [-1, 1]], "order": 2}')
    assert main(["solve", literal]) == 0
    expected = capsys.readouterr().out
    assert main(["solve", str(integer)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command", [["solve"], ["oracle"], ["moulds", "--problem"], ["verify", "--problem"]], ids=lambda c: c[0]
)
def test_a_deeply_nested_problem_file_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "nested.json"
    path.write_text('{"E0": ' + "[" * 100_000 + "]" * 100_000 + ', "V": []}')
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is nested too deeply to read: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["moulds", "--alphabet", "i,-i", "--acc", "-3"],
        ["moulds", "--alphabet", "i,-i", "-L", "-1"],
        ["verify", "--alphabet", "i,-i", "-L", "-1"],
        ["oracle", "--random-dim", "3", "--seed", "1", "--order", "0"],
        ["oracle", "--random-dim", "3", "--seed", "1", "--order", "-2"],
    ],
)
def test_negative_flags_exit_2_with_a_message(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_on_a_degenerate_problem(tmp_path, capsys):
    from mouldpert.operators import random_problem

    problem = random_problem(3, 4, seed=0, degenerate=True)
    path = write_problem(tmp_path, problem.to_json_dict())
    assert main(["oracle", path]) == 0
    data = read_json(capsys)
    assert data["oracle_match"] == {
        "match": True,
        "orders_equal": [True] * 4,
        "first_mismatch": None,
    }
    assert data["conjugacy_ok"] is True
    assert main(["solve", path]) == 0
    assert read_json(capsys)["verification"]["oracle_match"] is True


@pytest.mark.parametrize("dim,order,degenerate", [(6, 8, False), (5, 6, True)])
def test_oracle_enumerates_no_words(tmp_path, monkeypatch, capsys, dim, order, degenerate):
    """oracle takes N and C from the matrix decomposition of the problem:
    it builds no spectral decomposition, no Birkhoff engine and no nested
    bracket, also on problems out of the word route's reach."""
    from mouldpert import operators

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle must not enumerate words")

    monkeypatch.setattr(operators, "spectral_decompose", forbidden)
    monkeypatch.setattr(operators, "BirkhoffEngine", forbidden)
    monkeypatch.setattr(operators.SpectralDecomposition, "sparse_left_bracket", forbidden)
    problem = operators.random_problem(dim, order, seed=3, degenerate=degenerate)
    path = write_problem(tmp_path, problem.to_json_dict())
    assert main(["oracle", path]) == 0
    data = read_json(capsys)
    assert data["oracle_match"]["match"] is True
    assert data["conjugacy_ok"] is True


LITERALS = ("0", "1", "-1", "2", "1/2", "-3/4", "i", "-2i", "1+i", "1/2-i", "x", "", "1/0")
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(("a", "E0")), st.integers(0, 1), max_size=1),
)
SCALARS = st.one_of(st.sampled_from(LITERALS), st.integers(-3, 3))
REAL_SCALARS = st.one_of(st.sampled_from(("0", "1", "-1", "2", "1/2", "-3/4")), st.integers(-3, 3))


@st.composite
def hermitian_problem(draw):
    """A well-formed problem, possibly with a degenerate E0."""
    dim = draw(st.integers(1, 3))
    e0 = draw(st.lists(REAL_SCALARS, min_size=dim, max_size=dim))
    entries = st.sampled_from(("0", "1", "-1", "2", "1/2", "i", "1+i", "-1/2+2i"))
    v = [["0"] * dim for _ in range(dim)]
    for k in range(dim):
        v[k][k] = draw(REAL_SCALARS)
        for l in range(k + 1, dim):
            x = draw(entries)
            v[k][l] = x
            v[l][k] = format_scalar(parse_scalar(x).conjugate())
    data = {"E0": e0, "V": v}
    if draw(st.booleans()):
        data["hbar"] = draw(st.sampled_from(("1", "2", "1/2", 3)))
    if draw(st.booleans()):
        data["order"] = draw(st.integers(1, 4))
    return data


@st.composite
def mangled_problem(draw):
    """A problem with one field replaced by arbitrary JSON, or not an object."""
    data = draw(hermitian_problem())
    field = draw(st.sampled_from(("E0", "V", "hbar", "order", "row", "entry", "drop", "top")))
    dim = len(data["V"])
    if field == "top":
        return draw(st.one_of(JUNK, st.just([data])))
    if field == "drop":
        data.pop(draw(st.sampled_from(("E0", "V"))))
    elif field == "row":
        data["V"][draw(st.integers(0, dim - 1))] = draw(st.one_of(JUNK, st.lists(SCALARS, max_size=4)))
    elif field == "entry":
        row = data["V"][draw(st.integers(0, dim - 1))]
        row[draw(st.integers(0, dim - 1))] = draw(st.one_of(JUNK, SCALARS))
    else:
        data[field] = draw(st.one_of(JUNK, SCALARS, st.lists(st.one_of(SCALARS, JUNK), max_size=4)))
    return data


PROBLEMS = st.one_of(hermitian_problem(), mangled_problem())
SMALL_INTS = st.integers(-2, 3).map(str)


@st.composite
def command_line(draw, path):
    command = draw(st.sampled_from(("solve", "oracle", "moulds", "verify")))
    argv = [command]
    if command == "solve":
        argv.append(path)
        if draw(st.booleans()):
            argv += ["--order", draw(st.integers(-1, 4).map(str))]
        if draw(st.booleans()):
            argv += ["--mu", draw(st.sampled_from(("1/100", "1/2,1/10", "0", "1", "i", "x", "", "1/2,,1/10")))]
    elif command == "oracle":
        # a problem file, random flags, or both (which exits 2)
        source = draw(st.sampled_from(("file", "random", "both")))
        if source != "random":
            argv.append(path)
        if source != "file":
            argv += ["--random-dim", draw(st.integers(-1, 3).map(str))]
            if draw(st.booleans()):
                argv += ["--seed", draw(SMALL_INTS)]
        if draw(st.booleans()):
            argv += ["--order", draw(st.integers(-1, 4).map(str))]
    else:
        # --alphabet, --problem, or both (which exits 2)
        source = draw(st.sampled_from(("alphabet", "problem", "both")))
        if source != "problem":
            letters = ("i,-i,0", "i,-i,2i", "1,-1", "0", "i,i", "x", "i,,-i", "i,-i,", "")
            argv += ["--alphabet", draw(st.sampled_from(letters))]
        if source != "alphabet":
            argv += ["--problem", path]
        argv += ["-L", draw(st.integers(-2, 3).map(str))]
        if command == "moulds" and draw(st.booleans()):
            argv += ["--acc", draw(st.integers(-3, 2).map(str))]
        if command == "verify" and draw(st.booleans()):
            argv += ["--corrupt-word", draw(st.sampled_from(("0", "i", "i·-i", "q")))]
    return argv


def some_flag_is_false(command: str, payload) -> bool:
    if command == "solve":
        checks = {k: v for k, v in payload["verification"].items() if k != "numeric"}
        return False in list(bool_leaves(checks))
    if command == "oracle":
        return payload["oracle_match"]["match"] is False or payload["conjugacy_ok"] is False
    if command == "verify":
        return any(suite["ok"] is False for suite in payload["suites"].values())
    return False


def bool_leaves(node):
    if isinstance(node, bool):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from bool_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from bool_leaves(value)


@settings(max_examples=150)
@given(data=st.data(), problem=PROBLEMS)
def test_exit_contract_holds_for_any_problem_and_flags(data, problem):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "problem.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
        argv = data.draw(command_line(path), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip()
    if code == 1:
        assert some_flag_is_false(argv[0], json.loads(out.getvalue()))


# sha256 of stdout and the exit code, recorded before the word engine summed
# its products in one coefficient table: `moulds` prints every coefficient a
# value stores, so these hold each Laurent window fixed, not only the values.
GOLDEN_DIGESTS = (
    (("moulds", "--alphabet", "i,-i,2i,0", "-L", "4", "--acc", "0"), 0,
     "741ac8adf5aff0d6a0800eb9e96156015a2723b7d804f5c01cbf1809f3d63820"),
    (("moulds", "--alphabet", "i,-i,2i,0", "-L", "4", "--acc", "2"), 0,
     "8bddcdee1daa49eaad9123ccf7ea4b579b743c4ac20bb79748cd6b4f7efb66e5"),
    (("moulds", "--alphabet", "i,-i,2i,0", "-L", "4", "--acc", "4"), 0,
     "6232f1871a63f9c7d1dc637f106201d9d2d8242f597c3554d5a094aef141b29f"),
    (("verify", "--alphabet", "i,-i,2i,0", "-L", "4", "--corrupt-word", "0"), 1,
     "0ba61f2eabe66777a7144a76a077b9e1cc015a6b20e430dc11178096128ae358"),
    (("moulds", "--alphabet", "i,-i,1,-1,0", "-L", "3", "--acc", "0"), 0,
     "c69c13c36e37cc6aa52b2a1b91e6e69f37be53d7e0e87a5c2d4936481331ad97"),
    (("moulds", "--alphabet", "i,-i,1,-1,0", "-L", "3", "--acc", "2"), 0,
     "b9bf0ec46b69b1a0fe67469e9604ad6aee8dbc91996fcfa2d7fb677d9a482fe1"),
    (("moulds", "--alphabet", "i,-i,1,-1,0", "-L", "3", "--acc", "4"), 0,
     "686b9c687da7d5aa8f57067c79092a534d7207110be4290ae998562ef5188741"),
    (("verify", "--alphabet", "i,-i,1,-1,0", "-L", "3", "--corrupt-word", "0"), 1,
     "d534bf3cf8ffbecd0fa3c40ff892bb115e0d0a32dc8d146470cb580e77a27ab1"),
    # a two-letter corrupted word: 55 symmetrality_S violations, with shuffle
    # multiplicities above 1, and 69 grading_identities violations
    # (the corrupted runs were re-recorded when factorization and grading
    # identities (i) and (iii) came to compare the regular recursion with the
    # Birkhoff pair; the pair-side suites' violations stayed byte-identical)
    (("verify", "--alphabet", "i,-i,2i,0", "-L", "4", "--corrupt-word", "i,-i"), 1,
     "76366ce8af144a57d0079dd55b634428381ab99d4908b562656af838417dff77"),
    # the one known run where (ii) is the only grading identity that fires:
    # one mould_equation_S, 3 symmetrality_S, one grading_identities (ii) and
    # 6 conjugation_symmetry violations; factorization, support and
    # mould_equation_R pass
    (("verify", "--alphabet", "i,-i,2i,-2i,0", "-L", "3", "--corrupt-word", "0,i,-i"), 1,
     "5c265011c9286f9210617ad7fdec3369c8d839ed403b27d1b8f89df2ddfd8645"),
)
GOLDEN_VERIFY = os.path.join(os.path.dirname(__file__), "golden", "verify_corrupt_0.json")


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_windows_and_violation_strings_are_unchanged():
    changed = []
    for argv, code, digest in GOLDEN_DIGESTS:
        got_code, out = run_main(argv)
        if (got_code, hashlib.sha256(out.encode()).hexdigest()) != (code, digest):
            changed.append(" ".join(argv))
    code, out = run_main(("verify", "--alphabet", "i,-i,0", "-L", "2", "--corrupt-word", "0"))
    with open(GOLDEN_VERIFY, encoding="utf-8") as handle:
        if (code, out) != (1, handle.read()):
            changed.append("verify --alphabet i,-i,0 -L 2 --corrupt-word 0")
    assert not changed, changed


def test_moulds_forms_no_pair_and_uses_no_check_kernel(monkeypatch):
    """``moulds`` reads only the source (the regular recursion, U_minus
    from R, T on fixed windows) and prints its windows: with the Birkhoff
    pair, the check route's Laurent kernels and both ``Laurent``
    constructors made to raise, every ``moulds`` command of
    ``GOLDEN_DIGESTS`` prints its digest."""
    from mouldpert.birkhoff import BirkhoffEngine
    from mouldpert.laurent import Laurent

    def refuse(*args):
        raise AssertionError("moulds reached the check route")

    monkeypatch.setattr(BirkhoffEngine, "_pair", refuse)
    monkeypatch.setattr(Laurent, "sum_of_products", staticmethod(refuse))
    monkeypatch.setattr(Laurent, "over_linear", refuse)
    monkeypatch.setattr(Laurent, "__init__", refuse)
    monkeypatch.setattr(Laurent, "_raw", staticmethod(refuse))
    moulds = [(argv, code, digest) for argv, code, digest in GOLDEN_DIGESTS if argv[0] == "moulds"]
    assert len(moulds) == 6
    for argv, code, digest in moulds:
        got_code, out = run_main(argv)
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


# `solve` stdout recorded before the word table was walked on integers:
# fractional, degenerate levels with hbar = 7/3 (the components' denominator
# and hbar both differ from 1), and degenerate levels with hbar = 1/2 at order 6.
GOLDEN_SOLVE = {
    "solve_fractional.json": (
        {
            "E0": ["1/3", "1/7", "1/3"],
            "V": [["1/5", "2/9+1/11i", "3"], ["2/9-1/11i", "0", "-5/4i"], ["3", "5/4i", "2"]],
            "hbar": "7/3",
            "order": 5,
        },
        (),
    ),
    "solve_degenerate.json": (
        {"E0": ["0", "0", "1"], "V": [["1", "i", "1"], ["-i", "0", "2i"], ["1", "-2i", "-1"]], "hbar": "1/2"},
        ("--order", "6"),
    ),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_SOLVE))
def test_solve_forms_no_birkhoff_pair(tmp_path, monkeypatch, golden):
    """The word table of ``solve`` reads N and S from the regular
    recursion: with the Birkhoff pair made to raise, the output is the
    golden one."""
    from mouldpert.birkhoff import BirkhoffEngine

    def no_pair(self, word, acc):
        raise AssertionError("solve formed a Birkhoff pair")

    monkeypatch.setattr(BirkhoffEngine, "_pair", no_pair)
    test_solve_output_is_byte_identical_to_golden(tmp_path, golden)


@pytest.mark.parametrize("golden", sorted(GOLDEN_SOLVE))
def test_solve_output_is_byte_identical_to_golden(tmp_path, golden):
    problem, flags = GOLDEN_SOLVE[golden]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out = run_main(("solve", str(path)) + flags)
    with open(os.path.join(os.path.dirname(__file__), "golden", golden), encoding="utf-8") as handle:
        assert (code, out) == (0, handle.read())


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """The parser is built once per process and reused; each call still
    reads only its own arguments and returns its own exit code."""
    from mouldpert import cli

    built = []

    def counting():
        built.append(1)
        return cli.build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_parser", functools.cache(counting))
    assert main(["moulds", "--alphabet", "i,-i", "-L", "1", "--acc", "2"]) == 0
    with_acc = read_json(capsys)
    assert main(["verify", "--alphabet", "i,-i,0", "-L", "2"]) == 0
    assert set(read_json(capsys)["suites"]) >= {"mould_equation_S", "support"}
    with pytest.raises(SystemExit) as raised:
        main(["moulds", "--acc", "two"])
    assert raised.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--alphabet", "i,-i,0", "-L", "2", "--corrupt-word", "0"]) == 1
    capsys.readouterr()
    assert main(["moulds", "--alphabet", "i,-i", "-L", "1"]) == 0
    without_acc = read_json(capsys)
    # --acc 2 of the first call does not carry over: T is read at accuracy 0
    assert [row["word"] for row in without_acc] == [row["word"] for row in with_acc]
    assert [row["T"] for row in without_acc] != [row["T"] for row in with_acc]
    assert len(built) == 1


def test_a_seed_past_the_int_string_limit_seeds_like_a_short_one(capsys):
    """``oracle --seed`` reads its digits as ``--order`` does: a 5001-digit
    seed runs, as a 30-digit one does."""
    for seed in ("1" + "0" * 29, "1" + "0" * 5000):
        assert main(["oracle", "--random-dim", "3", "--seed", seed, "--order", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["oracle_match"]["match"] is True
        assert captured.err == ""


@pytest.mark.parametrize("seed", ["1.5", "seven", "1" * 5000 + "x"])
def test_a_seed_that_is_not_an_integer_exits_2_briefly(capsys, seed):
    with pytest.raises(SystemExit) as stop:
        main(["oracle", "--random-dim", "3", "--seed", seed])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "invalid int value" in err
    assert len(err.encode()) < 300
