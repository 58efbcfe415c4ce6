"""In-process span tracing of ``lcbayes`` and the per-layer metrics built on it.

The tracer wraps the public boundary functions of each module from the
outside, for the duration of a ``with Tracer(...)`` block; no file of
the package changes.  Spans (name, start, end, parent, request) are kept
in memory and written out when the run ends.  ``LCNumber`` arithmetic is
counted, not spanned, because it runs thousands of times per request.
"""

from __future__ import annotations

import functools
import importlib
import random
import statistics
import sys
import time
from fractions import Fraction

# module -> functions that get a span; the layers of the package
SPANNED = {
    "cli": ("main",),
    "decision": ("problem_from_json", "procedures_from_json", "risk_vector"),
    "admissibility": ("check_admissible", "max_uniform_improvement"),
    "priors": ("classify", "synthesize_prior", "verify_epsilon_bayes"),
    "ratlp": ("solve_lp", "check_certificate"),
    "lcnum": ("evaluate",),
    "families": ("normal_location_report", "bernoulli_boundary_report"),
}
# LCNumber methods -> counter name
COUNTED = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
           "inverse": "inverse", "compare": "compare"}
# parent span of a solve_lp call -> which LP of classify it is
LP_ROLE = {"admissibility.check_admissible": "admissibility",
           "admissibility.max_uniform_improvement": "uniform",
           "priors.synthesize_prior": "game"}


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index, request)
        self.stack = []
        self.request = None
        self.counts = dict.fromkeys(COUNTED.values(), 0)
        self.lps = []          # (LPProblem, LPSolution) per solve, measured afterwards
        self._restore = []

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.request)
            if name == "ratlp.solve_lp":
                tracer.lps.append((args[0], result))
            return result
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "lcbayes" or name.startswith("lcbayes.")]
        for short, names in SPANNED.items():
            module = importlib.import_module(f"lcbayes.{short}")
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._span(f"{short}.{fname}", original)
                # rebind every reference, including ``from .x import f`` copies
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))
        lcnumber = importlib.import_module("lcbayes.lcnum").LCNumber
        for method, key in COUNTED.items():
            original = lcnumber.__dict__[method]
            setattr(lcnumber, method, self._counter(key, original))
            self._restore.append((lcnumber, method, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def span_records(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans]


def _bits(values) -> int:
    best = 0
    for v in values:
        if v is not None:
            v = Fraction(v)
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (ms, summed over the traced requests)."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls, total_ns, self_ns, lp_self = {}, {}, {}, dict.fromkeys(LP_ROLE.values(), 0)
    lps_under_classify = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        own = end - start - child_ns[i]
        self_ns[name] = self_ns.get(name, 0) + own
        if name == "ratlp.solve_lp" and parent is not None:
            role = LP_ROLE.get(spans[parent][0])
            if role:
                lp_self[role] += own
            j = parent
            while j is not None and spans[j][0] != "priors.classify":
                j = spans[j][3]
            if j is not None:
                lps_under_classify += 1

    def ms(table, name):
        return table.get(name, 0) / 1e6

    request_ns = total_ns.get("cli.main", 0)
    classify_calls = calls.get("priors.classify", 0)
    rows = cols = bits = 0
    for problem, solution in tracer.lps:
        rows = max(rows, len(problem.rows))
        cols = max(cols, len(problem.objective))
        data = list(problem.objective) + list(problem.rhs)
        data += [a for row in problem.rows for a in row]
        if solution.x is not None:
            data += list(solution.x) + [solution.objective_value]
        data += list(solution.row_duals or ()) + list(solution.bound_duals or ())
        bits = max(bits, _bits(data))
    metrics = {
        "cli.main.self_ms": (ms(self_ns, "cli.main"), "ms"),
        "decision.problem_from_json.ms": (ms(total_ns, "decision.problem_from_json"), "ms"),
        "decision.procedures_from_json.ms": (ms(total_ns, "decision.procedures_from_json"), "ms"),
        "decision.risk_vector.calls": (calls.get("decision.risk_vector", 0), "count"),
        "decision.risk_vector.self_ms": (ms(self_ns, "decision.risk_vector"), "ms"),
        "priors.verify_epsilon_bayes.ms": (ms(total_ns, "priors.verify_epsilon_bayes"), "ms"),
        "priors.lps_per_verdict": (lps_under_classify / classify_calls if classify_calls else 0,
                                   "ratio"),
        "ratlp.solve_lp.calls": (calls.get("ratlp.solve_lp", 0), "count"),
        "ratlp.solve_lp.admissibility.self_ms": (lp_self["admissibility"] / 1e6, "ms"),
        "ratlp.solve_lp.uniform.self_ms": (lp_self["uniform"] / 1e6, "ms"),
        "ratlp.solve_lp.game.self_ms": (lp_self["game"] / 1e6, "ms"),
        "ratlp.check_certificate.ms": (ms(total_ns, "ratlp.check_certificate"), "ms"),
        "ratlp.simplex_share": (self_ns.get("ratlp.solve_lp", 0) / request_ns if request_ns else 0,
                                "ratio"),
        "ratlp.lp_rows_max": (rows, "count"),
        "ratlp.lp_cols_max": (cols, "count"),
        "ratlp.coeff_bits_max": (bits, "bits"),
        "lcnum.evaluate.ms": (ms(total_ns, "lcnum.evaluate"), "ms"),
        "families.normal_location_report.ms": (ms(total_ns, "families.normal_location_report"), "ms"),
        "families.bernoulli_boundary_report.ms": (ms(total_ns, "families.bernoulli_boundary_report"), "ms"),
    }
    for name in ("admissibility.check_admissible", "admissibility.max_uniform_improvement",
                 "priors.classify", "priors.synthesize_prior"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (ms(self_ns, name), "ms")
    for key in ("add", "mul", "inverse", "compare"):
        metrics[f"lcnum.{key}.calls"] = (tracer.counts[key], "count")
    return metrics


# ----------------------------------------------------------------------
# Levi-Civita microbenchmarks
# ----------------------------------------------------------------------


def _operand(lcnum, rng: random.Random, order: int):
    """A dense series: exponents k/2 from a random valuation across the window."""
    lead = Fraction(rng.randint(-4, 4), 2)
    terms = [(lead + Fraction(k, 2), Fraction(rng.randint(1, 9) * rng.choice((1, -1)),
                                              rng.randint(1, 5)))
             for k in range(2 * order + 1)]
    return lcnum.LCNumber.from_terms(terms, order)


def _time_per_call(fn, budget_s: float = 0.02, repeats: int = 5) -> float:
    """Median microseconds per call over ``repeats`` batches of at least ``budget_s``."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= budget_s:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(samples)


def lcnum_microbench() -> dict:
    """add, mul, inverse and compare at orders 4, 8 and 16 on fixed seeded operands."""
    lcnum = importlib.import_module("lcbayes.lcnum")
    rng = random.Random("lcnum-microbench")
    metrics = {}
    for order in (4, 8, 16):
        a, b = _operand(lcnum, rng, order), _operand(lcnum, rng, order)
        ops = {"add": lambda: a + b, "mul": lambda: a * b,
               "inverse": a.inverse, "compare": lambda: a.compare(b)}
        for name, fn in ops.items():
            metrics[f"lcnum.{name}_us.o{order}"] = (_time_per_call(fn), "us")
    return metrics
