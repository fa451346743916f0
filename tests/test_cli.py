"""Exit codes and JSON output of the command-line front end."""

import json

import pytest

from mouldpert.cli import main


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


def test_solve_rejects_zero_order(problem_file, capsys):
    assert main(["solve", problem_file, "--order", "0"]) == 2


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


def test_moulds_rejects_bad_alphabet(capsys):
    assert main(["moulds", "--alphabet", "i,i"]) == 2
    assert main(["moulds", "--alphabet", "x"]) == 2
    assert main(["moulds"]) == 2


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


def test_oracle_on_problem_file(problem_file, capsys):
    assert main(["oracle", problem_file, "--order", "4"]) == 0
    data = read_json(capsys)
    assert data["oracle_match"]["match"] is True
    assert data["conjugacy_ok"] is True


def test_oracle_random_requires_seed(capsys):
    assert main(["oracle", "--random-dim", "3"]) == 2


def test_oracle_random_seeded(capsys):
    assert main(["oracle", "--random-dim", "3", "--seed", "7", "--order", "3"]) == 0
    data = read_json(capsys)
    assert data["oracle_match"]["match"] is True


def test_output_file_and_env_dir(problem_file, tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("MOULDPERT_OUTPUT_DIR", str(outdir))
    assert main(["moulds", "--alphabet", "0", "--max-length", "1", "-o", "table.json"]) == 0
    written = json.loads((outdir / "table.json").read_text())
    assert written[1]["R"] == "1"


def test_deterministic_output(problem_file, capsys):
    assert main(["solve", problem_file, "--order", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", problem_file, "--order", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
