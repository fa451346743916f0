"""Command-line front end.

Subcommands: ``solve`` runs the whole pipeline on a problem file,
``moulds`` dumps the word table for an alphabet, ``verify`` runs the
identity suites, ``oracle`` runs ``solve`` and reports how its normal form
compares with the recursive construction.  Each command returns its
payload and exit code, and ``main`` prints the payload to standard output
in one call of one writer (``_emit``): JSON with scalars in the exact
literal grammar, laid out as ``json.dumps(indent=2)`` lays it out.
Standard output is the only sink; ``>`` writes a file.  ``moulds`` returns
its table as a generator, so the rows are computed as they are written and
its memory follows the engine's memo, not the table.  Exit codes are 0
(clean), 1 (an invariant is violated), 2 (bad input).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .birkhoff import (
    BirkhoffEngine,
    CorruptedEngine,
    verify_conjugation_symmetry,
    verify_factorization,
    verify_grading_identities,
    verify_mould_equation,
    verify_support,
)
from .moulds import Alphabet
from .operators import (
    RANDOM_LEVELS,
    PerturbationProblem,
    compare_with_oracle,  # unused here; perfbench/tracing.py SPAN_POINTS patches this name
    random_problem,
    solve,
    spectral_decompose,
)
from .scalars import _parse_digits, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load_problem(path: str) -> PerturbationProblem:
    """The problem in the file at path.  JSON integers are read past the
    interpreter's int/str digit limit, as scalar literals are."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_parse_digits)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is nested too deeply to read: {exc}") from exc
    try:
        return PerturbationProblem.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"bad problem file {path}: {exc}") from exc


def _parse_mu_list(text: str) -> list:
    samples = []
    for part in text.split(","):
        part = part.strip()
        value = parse_scalar(part)
        if not value.is_real:
            raise ValueError(f"mu sample {part!r} is not a real rational")
        mu = value.re
        if not (0 < mu < 1):
            raise ValueError(f"mu sample {part!r} must lie strictly between 0 and 1")
        samples.append(mu)
    return samples


def _encode(value, indent: str, out: list) -> None:
    """Append the text of value, laid out as ``json.dumps(indent=2)`` lays
    it out at nesting ``indent``, to out.  A dict is an object, a str a
    string (the C escaper ``json.dumps`` uses), an int, float, bool or
    None the text ``json.dumps`` gives it; any other value is iterated as
    an array, so a generator stands for a list."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _encode(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif value is None or isinstance(value, (int, float)):
        out.append(json.dumps(value))
    else:
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _encode(item, inner, out)
            separator = ",\n" + inner
        out.append("[]" if separator[0] == "[" else "\n" + indent + "]")


def _write_json(payload, write) -> None:
    """Write payload as ``json.dumps(payload, indent=2)`` and a newline
    through write: a dict in one call, any other iterable one element per
    call, so no list of its elements and no whole text is ever held."""
    if isinstance(payload, dict):
        out: list = []
        _encode(payload, "", out)
        out.append("\n")
        write("".join(out))
        return
    separator = "[\n  "
    for item in payload:
        out = [separator]
        _encode(item, "  ", out)
        write("".join(out))
        separator = ",\n  "
    write("[]\n" if separator[0] == "[" else "\n]\n")


def _emit(payload) -> None:
    """Write payload's JSON to standard output.  A list payload may be any
    iterable; it is written as it is consumed."""
    try:
        _write_json(payload, sys.stdout.write)
        sys.stdout.flush()
    except OSError as exc:
        # later flushes, at exit too, go nowhere instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write standard output: {exc}") from exc


def _alphabet_from_args(args) -> Alphabet:
    if args.alphabet is not None and args.problem is not None:
        raise ValueError("--alphabet and --problem exclude each other: give one")
    if args.alphabet is not None:
        try:
            return Alphabet.parse(args.alphabet)
        except ValueError as exc:
            raise ValueError(f"bad alphabet literal: {exc}") from exc
    if args.problem is not None:
        problem = _load_problem(args.problem)
        return spectral_decompose(problem).alphabet
    raise ValueError("either --alphabet or --problem is required")


def _with_order(problem: PerturbationProblem, order: int | None) -> PerturbationProblem:
    if order is None:
        return problem
    return dataclasses.replace(problem, order=order)


def _order_value(text: str) -> int:
    """int(text) for --order, also past the interpreter's int/str digit
    limit, so that a huge order reaches the problem's own bound check
    instead of an argparse message that echoes every digit."""
    try:
        return int(text)
    except ValueError:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        return _parse_digits(text)


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be at least 0, got {value}")
    return value


def cmd_solve(args) -> tuple:
    problem = _with_order(_load_problem(args.input), args.order)
    mu_samples = _parse_mu_list(args.mu) if args.mu is not None else []
    out = solve(problem, mu_samples=mu_samples)
    return out.to_json_dict(), EXIT_OK if out.ok else EXIT_VIOLATION


def cmd_moulds(args) -> tuple:
    alphabet = _alphabet_from_args(args)
    engine = BirkhoffEngine(alphabet)
    acc = _nonnegative(args.acc, "--acc")
    max_length = _nonnegative(args.max_length, "--max-length")

    def rows():
        for word in alphabet.words_up_to(max_length):
            # U_plus first, so the pair is formed once, at acc
            u_plus = engine.u_plus.value(word, acc)
            yield {
                "word": alphabet.render_word(word),
                "T": engine.T.value(word, acc).to_json(),
                "U_minus": engine.u_minus.value(word).to_json(),
                "U_plus": u_plus.to_json(),
                "R": format_scalar(engine.R.scalar(word)),
                "S": format_scalar(engine.S.scalar(word)),
                "N": format_scalar(engine.N.scalar(word)),
            }

    # each row is computed as it is written, so the table is never held
    return rows(), EXIT_OK


def cmd_verify(args) -> tuple:
    alphabet = _alphabet_from_args(args)
    max_length = _nonnegative(args.max_length, "--max-length")
    if args.corrupt_word is None:
        engine = BirkhoffEngine(alphabet)
    else:
        try:
            bad_word = alphabet.parse_word(args.corrupt_word)
        except ValueError as exc:
            raise ValueError(f"bad --corrupt-word: {exc}") from exc
        if len(bad_word) > max_length:
            raise ValueError(f"--corrupt-word is longer than --max-length {max_length}: no suite reads it")
        engine = CorruptedEngine(alphabet, bad_word)
    suites = {}
    s_equation, r_equation, s_symmetral = verify_mould_equation(engine, max_length)
    suites["mould_equation_S"] = _suite_json(s_equation, alphabet)
    suites["mould_equation_R"] = _suite_json(r_equation, alphabet)
    suites["symmetrality_S"] = _shuffle_json(s_symmetral, alphabet)
    suites["factorization"] = _suite_json(verify_factorization(engine, max_length), alphabet)
    suites["support"] = _suite_json(verify_support(engine, max_length), alphabet)
    suites["grading_identities"] = _suite_json(
        verify_grading_identities(engine, max_length), alphabet
    )
    if alphabet.closed_under_negation and alphabet.purely_imaginary:
        suites["conjugation_symmetry"] = _suite_json(
            verify_conjugation_symmetry(engine, max_length), alphabet
        )
    clean = all(entry["ok"] for entry in suites.values())
    payload = {"alphabet": [format_scalar(v) for v in alphabet.letters], "suites": suites}
    return payload, EXIT_OK if clean else EXIT_VIOLATION


def cmd_oracle(args) -> tuple:
    if args.input is not None:
        for flag, value in (("--random-dim", args.random_dim), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"a problem file and {flag} exclude each other: give one")
        problem = _with_order(_load_problem(args.input), args.order)
    elif args.random_dim is not None:
        if args.seed is None:
            raise ValueError("--random-dim requires --seed for reproducibility")
        if not 1 <= args.random_dim <= len(RANDOM_LEVELS):
            raise ValueError(
                f"--random-dim must be between 1 and {len(RANDOM_LEVELS)}, got {args.random_dim}"
            )
        problem = _with_order(random_problem(args.random_dim, 4, args.seed), args.order)
    else:
        raise ValueError("either a problem file or --random-dim is required")
    out = solve(problem)
    payload = {
        "problem": problem.to_json_dict(),
        "oracle_match": out.oracle.to_json(),
        "conjugacy_ok": out.conjugacy.ok,
    }
    return payload, EXIT_OK if out.ok else EXIT_VIOLATION


def _suite_json(report, alphabet) -> dict:
    return {
        "ok": report.ok,
        "words_checked": report.words_checked,
        "violations": [
            {
                "word": alphabet.render_word(v.word),
                "identity": v.label,
                "lhs": v.lhs,
                "rhs": v.rhs,
            }
            for v in report.violations
        ],
    }


def _shuffle_json(report, alphabet) -> dict:
    return {
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "empty_word_ok": report.empty_word_ok,
        "violations": [v.describe(alphabet) for v in report.violations],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mouldpert",
        description="Exact eigenvalue perturbation series via mould calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="normalize a problem file and verify it")
    p_solve.add_argument("input", help="problem JSON file")
    p_solve.add_argument("--order", "-K", type=_order_value, default=None, help="override the truncation order")
    p_solve.add_argument("--mu", default=None, help="comma-separated rational samples in (0,1) for the numeric check")
    p_solve.set_defaults(func=cmd_solve)

    p_moulds = sub.add_parser("moulds", help="dump the mould table for an alphabet")
    p_moulds.add_argument("--alphabet", default=None, help='inline alphabet, e.g. "i,-i,2i,0"')
    p_moulds.add_argument("--problem", default=None, help="derive the alphabet from a problem file")
    p_moulds.add_argument("--max-length", "-L", type=int, default=3)
    p_moulds.add_argument("--acc", type=int, default=0, help="guaranteed accuracy of dumped series values")
    p_moulds.set_defaults(func=cmd_moulds)

    p_verify = sub.add_parser("verify", help="run the identity suites for an alphabet")
    p_verify.add_argument("--alphabet", default=None)
    p_verify.add_argument("--problem", default=None)
    p_verify.add_argument("--max-length", "-L", type=int, default=4)
    p_verify.add_argument(
        "--corrupt-word",
        default=None,
        help="debug: poison (U_minus, U_plus) on one word to prove the suites notice",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="diff the normal form against the recursive construction")
    p_oracle.add_argument("input", nargs="?", default=None, help="problem JSON file")
    p_oracle.add_argument("--random-dim", type=int, default=None, help="generate a random Hermitian problem instead")
    p_oracle.add_argument("--seed", type=int, default=None, help="seed for --random-dim")
    p_oracle.add_argument("--order", "-K", type=_order_value, default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call of a process, not at
    import, and reused: each ``parse_args`` returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(payload)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
