"""Seeded inputs and exact-output checks for the mouldpert benchmark.

Every workload is a list of strata.  A stratum owns a fixed catalog of
operations: catalog entry ``i`` is generated from its own seed string, so
its exact output never changes and its digest is committed in
``reference/<workload>.json``.  The run seed picks, per stratum, the order
in which catalog entries are used and the op order inside each round; a
round runs one op from every stratum, so every run has the same mix.

Each op is one ``mouldpert`` command line.  Problem files are written by
:meth:`Schedule.write_inputs`; the program receives only those files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

MU_SAMPLES = "1/100,1/1000"

# solve-deep: (name, dim, order, extra edges beyond a spanning tree, degenerate)
SOLVE_STRATA = (
    ("d3k5", 3, 5, 0, False),
    ("d4k4", 4, 4, 0, False),
    ("d4k4x", 4, 4, 1, False),
    ("d5k4", 5, 4, 0, False),
    ("d4k4x-deg", 4, 4, 1, True),
    ("d3k5x-deg", 3, 5, 1, True),
)
SOLVE_CATALOG = 20

# oracle-shared: one E0 and one coupling pattern, an hbar sweep, V per entry
SHARED_E0 = (0, 2, 3, 7, 11)
SHARED_HBARS = ("1", "2", "1/2", "3")
SHARED_ORDER = 5
SHARED_CATALOG = 32

# oracle-wide: (name, dim); order 2, half-integer E0 from a wide range, and
# 15% of the level pairs coupled
WIDE_STRATA = (("d16", 16), ("d17", 17), ("d18", 18))
WIDE_ORDER = 2
WIDE_DENSITY = 0.15
WIDE_CATALOG = 20

# alphabet-suites: fixed alphabets, each run through verify and moulds --acc 2
SUITE_ALPHABETS = (
    ("imag4", "i,-i,2i,0", 5),
    ("imag7", "i,-i,2i,-2i,3i,-3i,0", 3),
    ("plane5", "i,-i,1,-1,0", 4),
)

WORKLOADS = ("solve-deep", "oracle-shared", "oracle-wide", "alphabet-suites")


@dataclass(frozen=True)
class Op:
    """One command line; ``key`` names its catalog entry and reference digest."""

    key: str
    kind: str
    argv: tuple
    problem: dict | None = None


# -- problem data ----------------------------------------------------------------


def _literal(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _gaussian_literal(re: int, im: int) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{im:+d}i"


def _problem(e0, edges, rng: random.Random, hbar: str, order: int, diagonal) -> dict:
    dim = len(e0)
    v = [["0"] * dim for _ in range(dim)]
    for k in range(dim):
        v[k][k] = str(diagonal(rng))
    for k, l in sorted(edges):
        re = im = 0
        while not (re or im):
            re, im = rng.randint(-2, 2), rng.randint(-2, 2)
        v[k][l] = _gaussian_literal(re, im)
        v[l][k] = _gaussian_literal(re, -im)
    return {"E0": [_literal(Fraction(x)) for x in e0], "V": v, "hbar": hbar, "order": order}


def _nonzero_small(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def _spanning_tree(rng: random.Random, dim: int) -> set:
    nodes = list(range(dim))
    rng.shuffle(nodes)
    edges = set()
    for j in range(1, dim):
        a, b = nodes[j], nodes[rng.randrange(j)]
        edges.add((min(a, b), max(a, b)))
    return edges


def solve_problem(dim: int, order: int, extra: int, degenerate: bool, seed: str) -> dict:
    """A random problem in which distinct coupled level pairs have distinct
    gaps, so every entry of a stratum has the largest alphabet its coupling
    pattern allows."""
    rng = random.Random(seed)
    while True:
        e0 = rng.sample(range(-12, 13), dim - 1 if degenerate else dim)
        if degenerate:
            e0.append(e0[0])
            rng.shuffle(e0)
        edges = _spanning_tree(rng, dim)
        spare = [(k, l) for k in range(dim) for l in range(k + 1, dim) if (k, l) not in edges]
        edges |= set(rng.sample(spare, extra))
        levels = {tuple(sorted((e0[k], e0[l]))) for k, l in edges if e0[k] != e0[l]}
        if len({b - a for a, b in levels}) == len(levels):
            break
    return _problem(e0, edges, rng, "1", order, _nonzero_small)


def shared_problem(hbar: str, seed: str) -> dict:
    """The fixed E0 and chain coupling with a fresh V: every alphabet of the
    workload is (E0 gaps) / hbar, a scalar multiple of every other."""
    rng = random.Random(seed)
    edges = {(k, k + 1) for k in range(len(SHARED_E0) - 1)}
    return _problem(SHARED_E0, edges, rng, hbar, SHARED_ORDER, _nonzero_small)


def wide_problem(dim: int, seed: str) -> dict:
    """Sparse wide problem; E0 are half-integers in (-40, 40), outside the
    integer range of ``mouldpert.random_problem``."""
    rng = random.Random(seed)
    e0 = [Fraction(2 * k + 1, 2) for k in rng.sample(range(-40, 40), dim)]
    pairs = [(k, l) for k in range(dim) for l in range(k + 1, dim)]
    edges = set(rng.sample(pairs, round(WIDE_DENSITY * len(pairs))))
    return _problem(e0, edges, rng, "1", WIDE_ORDER, lambda r: r.randint(-2, 2))


# -- catalogs and rounds -------------------------------------------------------


def _problem_op(workdir: str, key: str, kind: str, problem: dict) -> Op:
    path = os.path.join(workdir, key.replace("/", "_") + ".json")
    argv = ("solve", path, "--mu", MU_SAMPLES) if kind == "solve" else ("oracle", path)
    return Op(key=key, kind=kind, argv=argv, problem=problem)


def catalog(workload: str, workdir: str) -> list:
    """The workload's strata, each the list of its catalog ops."""
    if workload == "solve-deep":
        return [
            [
                _problem_op(workdir, f"{name}/{i:02d}", "solve", solve_problem(*shape, f"{workload}/{name}/{i}"))
                for i in range(SOLVE_CATALOG)
            ]
            for name, *shape in SOLVE_STRATA
        ]
    if workload == "oracle-shared":
        return [
            [
                _problem_op(workdir, f"hbar{h.replace('/', '_')}/{i:02d}", "oracle", shared_problem(h, f"{workload}/{h}/{i}"))
                for i in range(SHARED_CATALOG)
            ]
            for h in SHARED_HBARS
        ]
    if workload == "oracle-wide":
        return [
            [
                _problem_op(workdir, f"{name}/{i:02d}", "oracle", wide_problem(dim, f"{workload}/{name}/{i}"))
                for i in range(WIDE_CATALOG)
            ]
            for name, dim in WIDE_STRATA
        ]
    if workload == "alphabet-suites":
        strata = []
        for name, letters, length in SUITE_ALPHABETS:
            common = ("--alphabet", letters, "-L", str(length))
            strata.append([Op(f"verify-{name}", "verify", ("verify",) + common)])
            strata.append([Op(f"moulds-{name}", "moulds", ("moulds",) + common + ("--acc", "2"))])
        return strata
    raise ValueError(f"unknown workload {workload!r}")


GATE_ARGS = ("--alphabet", "i,-i,0", "-L", "2")


def gate_ops() -> tuple:
    """Scratch ops outside the timed workloads that show the checks bite:
    a clean ``verify``, the same ``verify`` with one poisoned word (must
    fail), and a clean ``moulds`` whose output the caller edits (must fail)."""
    return (
        Op("gate/verify", "verify", ("verify",) + GATE_ARGS),
        Op("gate/verify", "verify", ("verify",) + GATE_ARGS + ("--corrupt-word", "0")),
        Op("gate/moulds", "moulds", ("moulds",) + GATE_ARGS),
    )


def edit_one_value(moulds_output: str) -> str:
    """The same ``moulds`` table with the S value of its last word changed."""
    rows = json.loads(moulds_output)
    rows[-1]["S"] = "1" if rows[-1]["S"] == "0" else "0"
    return json.dumps(rows, indent=2)


class Schedule:
    """Seeded op order over a workload's catalog.

    Round r takes, from every stratum, the entry at position r of that
    stratum's seeded permutation (cycling once the catalog is used up) and
    runs the round's ops in a seeded order.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.strata = catalog(workload, workdir)
        rng = random.Random(f"{workload}:{seed}")
        self._orders = [rng.sample(range(len(ops)), len(ops)) for ops in self.strata]

    def round(self, r: int) -> list:
        ops = [ops[order[r % len(order)]] for ops, order in zip(self.strata, self._orders)]
        random.Random(f"{self.workload}:{self.seed}:{r}").shuffle(ops)
        return ops

    def write_inputs(self) -> None:
        """Write every catalog problem file the schedule can use."""
        for ops in self.strata:
            for op in ops:
                if op.problem is not None:
                    os.makedirs(os.path.dirname(op.argv[1]), exist_ok=True)
                    with open(op.argv[1], "w", encoding="utf-8") as handle:
                        json.dump(op.problem, handle)


# -- exact-output checks -------------------------------------------------------


def _bool_leaves(node):
    if isinstance(node, bool):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _bool_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _bool_leaves(value)


def exact_content(kind: str, payload):
    """The part of an op's JSON output that must never change.

    solve: coefficient table, N and C matrices and eigenvalue series (not
    the float ``numeric`` block, not the verification flag names); oracle:
    the oracle comparison and the conjugacy flag; verify: per-suite flags
    and counts; moulds: the whole table.
    """
    if kind == "solve":
        return {k: payload[k] for k in ("coefficients", "N_matrices", "C_matrices", "eigenvalue_series")}
    if kind == "oracle":
        return {"oracle_match": payload["oracle_match"], "conjugacy_ok": payload["conjugacy_ok"]}
    if kind == "verify":
        return {
            name: {k: v for k, v in suite.items() if k != "violations"}
            for name, suite in payload["suites"].items()
        }
    return payload


def flags_ok(kind: str, payload) -> bool:
    """Every verification flag the op reports is true (skipped ones are null)."""
    if kind == "solve":
        checks = {k: v for k, v in payload["verification"].items() if k != "numeric"}
        return all(_bool_leaves(checks))
    if kind == "oracle":
        return payload["oracle_match"]["match"] is True and payload["conjugacy_ok"] is True
    if kind == "verify":
        return all(suite["ok"] is True for suite in payload["suites"].values())
    return True


def digest(kind: str, payload) -> str:
    text = json.dumps(exact_content(kind, payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def check(op: Op, exit_code, output: str, reference: dict) -> tuple:
    """(passed, reason) for one op's exit code and stdout."""
    if exit_code != 0:
        return False, f"exit code {exit_code}"
    try:
        payload = json.loads(output)
        found = digest(op.kind, payload)
        clean = flags_ok(op.kind, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output: {exc}"
    if not clean:
        return False, "a verification flag is not true"
    expected = reference.get(op.key)
    if found != expected:
        return False, f"digest {found} differs from reference {expected}"
    return True, ""


def reference_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), "r", encoding="utf-8") as handle:
        return json.load(handle)
