"""Per-layer measurement from outside the program.

Spans: :func:`installed` replaces public functions of ``mouldpert`` in the
namespace their caller looks them up in (``mouldpert.cli.solve``,
``mouldpert.operators.build_normal_form``, ...) with wrappers that record
a span (name, start, end, parent, op id) and restores them on exit.  The
engine class is swapped for a subclass that remembers its instances, so
memo-table sizes can be read after the op.

Counts and self times: :func:`profile_summary` reads a ``cProfile`` run of
one op.  Call counts are exact; each module's self time is the self time
of its functions plus that of library functions they call directly.

Micro cases: :func:`micro_timings` times scalar and Laurent arithmetic on
fixed operands and the cold ``BirkhoffEngine._pair`` per word length.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pstats
import statistics
import time
import timeit
import types

LAYERS = ("cli", "operators", "birkhoff", "moulds", "laurent", "scalars")

# (module the caller looks the name up in, attribute, span name)
SPAN_POINTS = (
    ("mouldpert.cli", "_load_problem", "cli.io"),
    ("mouldpert.cli", "_emit", "cli.io"),
    ("mouldpert.cli", "solve", "operators.solve"),
    ("mouldpert.cli", "spectral_decompose", "operators.decompose"),
    ("mouldpert.cli", "compare_with_oracle", "operators.oracle"),
    ("mouldpert.cli", "verify_mould_equation", "birkhoff.suites"),
    ("mouldpert.cli", "verify_factorization", "birkhoff.suites"),
    ("mouldpert.cli", "verify_support", "birkhoff.suites"),
    ("mouldpert.cli", "verify_grading_identities", "birkhoff.suites"),
    ("mouldpert.cli", "verify_conjugation_symmetry", "birkhoff.suites"),
    ("mouldpert.operators", "spectral_decompose", "operators.decompose"),
    ("mouldpert.operators", "build_normal_form", "operators.normal_form"),
    ("mouldpert.operators", "build_conjugator", "operators.conjugator"),
    ("mouldpert.operators", "verify_conjugacy", "operators.verify"),
    ("mouldpert.operators", "compare_with_oracle", "operators.oracle"),
    ("mouldpert.operators", "numeric_compare", "operators.numeric"),
    ("mouldpert.birkhoff", "is_symmetral_up_to", "moulds.symmetral"),
)
ENGINE_USERS = ("mouldpert.cli", "mouldpert.operators")


class Tracer:
    """Spans and per-op records, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list = []
        self.engines: list = []
        self.series: list = []
        self.contributing = 0

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self.engines = []
        self.series = []
        self.contributing = 0

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _normal_form_done(self, result) -> None:
        n_series, table = result
        self.series.append(n_series)
        self.contributing += len(table)

    def _conjugator_done(self, result) -> None:
        self.series.append(result[0])

    def op_totals(self, first_span: int) -> dict:
        """Seconds per span name over spans[first_span:], counting a span
        nested in a span of the same name once."""
        totals: dict = {}
        for index in range(first_span, len(self.spans)):
            name, start, end, parent, _ = self.spans[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def op_record(self) -> dict:
        """Sizes read after the op: memo tables, polar depth, coefficient bits."""
        pairs = sum(len(engine._pairs) for engine in self.engines)
        t_entries = sum(len(engine.T._memo) for engine in self.engines)
        depth = 0
        for engine in self.engines:
            for u_minus, _ in engine._pairs.values():
                if not u_minus.is_exact_zero:
                    depth = max(depth, -u_minus.min_degree)
        bits = 0
        for series in self.series:
            for matrix in series.coeffs:
                for row in matrix:
                    for x in row:
                        for q in (x.re, x.im):
                            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        letters = self.engines[0].alphabet.letters if self.engines else ()
        record = {
            "pair_entries": pairs,
            "t_entries": t_entries,
            "max_polar_depth": depth,
            "max_coeff_bits": bits,
            "alphabet_size": len(letters),
            "alphabet_class": canonical_alphabet(letters),
            "words_contributing": self.contributing,
        }
        self.engines = []
        self.series = []
        return record

    def as_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


def canonical_alphabet(letters) -> tuple:
    """A representative shared by all nonzero scalar multiples of an alphabet."""
    nonzero = [z for z in letters if z]
    if not nonzero:
        return tuple((z.re, z.im) for z in letters)
    return min(
        tuple(sorted(((z / pivot).re, (z / pivot).im) for z in letters))
        for pivot in nonzero
    )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the span wrappers and the recording engine class in; restore on exit."""
    saved = []
    hooks = {
        "build_normal_form": tracer._normal_form_done,
        "build_conjugator": tracer._conjugator_done,
    }
    try:
        for module_name, attribute, span_name in SPAN_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.span(span_name, original, hooks.get(attribute)))
        for module_name in ENGINE_USERS:
            module = importlib.import_module(module_name)
            engine_class = module.BirkhoffEngine
            saved.append((module, "BirkhoffEngine", engine_class))
            setattr(module, "BirkhoffEngine", _recording_engine(engine_class, tracer))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def _recording_engine(engine_class, tracer: Tracer):
    class RecordingEngine(engine_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.engines.append(self)

    return RecordingEngine


# -- profile pass -------------------------------------------------------------


def _key(code: types.CodeType) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _inner_code(fn, name: str) -> types.CodeType:
    return next(
        c for c in fn.__code__.co_consts if isinstance(c, types.CodeType) and c.co_name == name
    )


def counted_functions() -> dict:
    """Profile keys of the functions whose exact call counts are reported."""
    from mouldpert import birkhoff, laurent, moulds, operators, scalars

    return {
        "birkhoff.pair_calls": _key(birkhoff.BirkhoffEngine._pair.__code__),
        "operators.coeff_N_calls": _key(birkhoff.BirkhoffEngine.coeff_N.__code__),
        "operators.bracket_calls": _key(operators.SpectralDecomposition.sparse_left_bracket.__code__),
        "operators.mat_mul_calls": _key(operators.mat_mul.__code__),
        "moulds.log_words": _key(_inner_code(moulds.mould_log, "fn")),
        "moulds.product_value_calls": _key(moulds._product_value.__code__),
        "laurent.mul_calls": _key(laurent.Laurent.__mul__.__code__),
        "laurent.add_calls": _key(laurent.Laurent.__add__.__code__),
        "laurent.inverse_calls": _key(laurent.Laurent.inverse.__code__),
        "scalars.mul_calls": _key(scalars.GaussianRational.__mul__.__code__),
        "scalars.add_calls": _key(scalars.GaussianRational.__add__.__code__),
    }


def _layer_of(key: tuple, package_dir: str):
    filename = key[0]
    if os.path.dirname(filename) != package_dir:
        return None
    name = os.path.splitext(os.path.basename(filename))[0]
    return name if name in LAYERS else None


def profile_summary(profile, counted: dict, package_dir: str) -> dict:
    """Exact call counts, self seconds per layer, total profiled seconds and
    the seconds spent under the log-mould evaluation, for one profiled op."""
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for key, (_, _, own, _, callers) in stats.items():
        total += own
        layer = _layer_of(key, package_dir)
        if layer is not None:
            self_s[layer] += own
            continue
        for caller, edge in callers.items():
            caller_layer = _layer_of(caller, package_dir)
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
    counts = {name: stats[key][1] if key in stats else 0 for name, key in counted.items()}
    log_key = counted["moulds.log_words"]
    log_s = stats[log_key][3] if log_key in stats else 0.0
    return {"counts": counts, "self_s": self_s, "total_s": total, "log_s": log_s}


# -- micro cases --------------------------------------------------------------

PAIR_ALPHABET = "i,-i,2i,0"
PAIR_WORD = ("i", "-i", "2i", "-i", "-i", "0")


def _per_call_ns(stmt: str, names: dict, budget_s: float) -> float:
    timer = timeit.Timer(stmt, globals=names)
    number, took = timer.autorange()
    repeats = max(3, min(15, int(budget_s / max(took, 1e-9))))
    return statistics.median(timer.repeat(repeats, number)) / number * 1e9


def micro_timings(budget_s: float) -> dict:
    """Median per-call cost of the hot arithmetic and of a cold ``_pair``."""
    from fractions import Fraction

    from mouldpert.birkhoff import BirkhoffEngine
    from mouldpert.laurent import Laurent
    from mouldpert.moulds import Alphabet
    from mouldpert.scalars import GaussianRational

    share = budget_s / 9
    a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    b = GaussianRational(Fraction(5, 11), Fraction(1, 3))
    alphabet = Alphabet.parse(PAIR_ALPHABET)
    engine = BirkhoffEngine(alphabet)
    x = engine.T.value(alphabet.word_of("i", "-i", "2i"), 2)
    y = engine.T.value(alphabet.word_of("-i", "0"), 2)
    linear = Laurent.from_pairs([(0, GaussianRational(0, 2)), (1, GaussianRational(3))])
    out = {
        "scalars.mul_ns": _per_call_ns("a * b", {"a": a, "b": b}, share),
        "scalars.add_ns": _per_call_ns("a + b", {"a": a, "b": b}, share),
        "laurent.mul_ns": _per_call_ns("x * y", {"x": x, "y": y}, share),
        "laurent.inverse_ns": _per_call_ns("p.inverse(4)", {"p": linear}, share),
    }
    for length in range(2, len(PAIR_WORD) + 1):
        word = alphabet.word_of(*PAIR_WORD[:length])
        samples = []
        deadline = time.perf_counter() + share
        while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 200):
            fresh = BirkhoffEngine(alphabet)
            start = time.perf_counter()
            fresh._pair(word, 0)
            samples.append(time.perf_counter() - start)
        out[f"birkhoff.pair_us_len{length}"] = statistics.median(samples) * 1e6
    return out
