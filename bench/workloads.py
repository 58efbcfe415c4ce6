"""Seeded request generators for the three benchmark workloads.

Every request is a ``Request``: the ``lcbayes`` argument vector, the input
files it reads, and what the oracle needs to know to judge its output.
Inputs depend only on the seed; the program under test sees nothing but
the generated files and arguments.

Finite problems carry two extra actions next to the random "base"
actions, so that each classify batch covers three verdict classes with
the verdict known in advance:

* ``admissible``: a Bayes rule for a random interior prior;
* ``shadow``: a Bayes rule for a point mass at state t that plays the
  "shadow" action, a copy of a Bayes action b whose loss is raised at one
  other state s0.  It is inadmissible (b does better at s0) but extended
  admissible (it is Bayes for the point mass), so epsilon* = 0;
* ``random``: a random rule that plays the "penalty" action, a copy of a
  base action with its loss raised at every state, at one observation
  at least.  Every model entry is positive, so swapping the penalty
  action back improves the risk at every state: epsilon* > 0.

Consequently problems have at least three actions (one base action plus
the shadow and penalty copies).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

ADMISSIBLE = "admissible"
SHADOW = "shadow"
RANDOM = "random"
CLASSES = (ADMISSIBLE, SHADOW, RANDOM)

# (admissible, extended_admissible) implied by each verdict class
EXPECTED_VERDICT = {
    ADMISSIBLE: (True, True),
    SHADOW: (False, True),
    RANDOM: (False, False),
}

WORKLOADS = ("finite-small", "finite-large", "lc-reports")


@dataclass
class Request:
    """One ``lcbayes`` invocation and what its output must satisfy."""

    kind: str                    # classify | synthesize | lc-eval | example | bad-*
    argv: list                   # arguments after ``lcbayes``
    files: dict = field(default_factory=dict)   # file name -> text
    check: dict = field(default_factory=dict)   # oracle facts for this request
    known_bad: bool = False      # documented defect: expected exit 2 or clean result

    @property
    def verdicts(self) -> int:
        """Certified results this request yields when it succeeds."""
        if self.kind == "classify":
            return len(self.check["classes"])
        return 1


# ----------------------------------------------------------------------
# finite problems
# ----------------------------------------------------------------------


def _rat(value) -> str:
    return str(Fraction(value))


def make_problem(rng: random.Random, n_states: int, n_obs: int, n_base: int) -> dict:
    """A random problem with base actions plus a shadow and a penalty action.

    Returns the JSON-ready problem together with the indices the
    procedure generators need.
    """
    # model rows are shuffles of 1..n_obs over their sum: every entry is
    # positive, and all rows share one denominator, which keeps the cost
    # of the exact LPs from swinging with coefficient size
    total = n_obs * (n_obs + 1) // 2
    model = []
    for _ in range(n_states):
        weights = list(range(1, n_obs + 1))
        rng.shuffle(weights)
        model.append([Fraction(w, total) for w in weights])
    # the base losses of one state are distinct values from 0-9, which
    # narrows the spread of LP cost between problems of one size
    base = [rng.sample(range(10), n_base) for _ in range(n_states)]
    t = rng.randrange(n_states)
    s0 = rng.choice([s for s in range(n_states) if s != t])
    b = min(range(n_base), key=lambda a: (base[t][a], a))
    c = rng.randrange(n_base)
    bump = rng.randint(1, 3)
    loss = []
    for s, row in enumerate(base):
        shadow = row[b] + (bump if s == s0 else 0)
        penalty = row[c] + rng.randint(1, 3)
        loss.append(row + [shadow, penalty])
    # place the actions in a seeded order: new position -> old index
    order = list(range(n_base + 2))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    loss = [[row[old] for old in order] for row in loss]
    payload = {
        "states": [{"label": f"s{s}"} for s in range(n_states)],
        "observations": [f"x{x}" for x in range(n_obs)],
        "actions": [{"label": f"a{a}"} for a in range(n_base + 2)],
        "model": [[_rat(v) for v in row] for row in model],
        "loss": [[_rat(v) for v in row] for row in loss],
    }
    return {
        "json": payload, "model": model, "loss": loss, "t": t,
        "b": position[b], "shadow": position[n_base], "penalty": position[n_base + 1],
        "c": position[c],
    }


def _nonrandomized(action_map) -> dict:
    return {"kind": "nonrandomized", "map": list(action_map)}


def _randomized(rows) -> dict:
    return {"kind": "randomized", "matrix": [[_rat(v) for v in row] for row in rows]}


def _unit_row(n_actions: int, action: int) -> list:
    row = [Fraction(0)] * n_actions
    row[action] = Fraction(1)
    return row


def admissible_rule(rng: random.Random, prob: dict) -> dict:
    """Bayes rule for a random interior prior (ties go to the lowest index)."""
    model, loss = prob["model"], prob["loss"]
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    prior = [rng.randint(1, 9) for _ in range(n_states)]
    action_map = []
    for x in range(n_obs):
        scores = [sum(prior[s] * model[s][x] * loss[s][a] for s in range(n_states))
                  for a in range(n_act)]
        action_map.append(min(range(n_act), key=lambda a: (scores[a], a)))
    return _nonrandomized(action_map)


def shadow_rule(rng: random.Random, prob: dict) -> dict:
    """Point-mass Bayes rule that plays the shadow action somewhere."""
    n_obs, n_act = len(prob["model"][0]), len(prob["loss"][0])
    b, shadow = prob["b"], prob["shadow"]
    used = [x for x in range(n_obs) if rng.random() < 0.5] or [rng.randrange(n_obs)]
    if rng.random() < 0.5:
        return _nonrandomized([shadow if x in used else b for x in range(n_obs)])
    rows = []
    for x in range(n_obs):
        row = _unit_row(n_act, b)
        if x in used:
            w = Fraction(rng.randint(1, 3), 4)
            row[b], row[shadow] = 1 - w, w
        rows.append(row)
    return _randomized(rows)


def random_rule(rng: random.Random, prob: dict) -> dict:
    """Random rule with positive weight on the penalty action at one observation."""
    n_obs, n_act = len(prob["model"][0]), len(prob["loss"][0])
    x0 = rng.randrange(n_obs)
    if rng.random() < 0.5:
        action_map = [rng.randrange(n_act) for _ in range(n_obs)]
        action_map[x0] = prob["penalty"]
        return _nonrandomized(action_map)
    rows = []
    for x in range(n_obs):
        weights = [rng.randint(0, 3) for _ in range(n_act)]
        if x == x0:
            weights[prob["penalty"]] += 1
        if not any(weights):
            weights[rng.randrange(n_act)] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return _randomized(rows)


RULES = {ADMISSIBLE: admissible_rule, SHADOW: shadow_rule, RANDOM: random_rule}


def _batch(rng: random.Random, name: str, command: str, sizes):
    """A fresh problem and one procedure per verdict class, in seeded order."""
    prob = make_problem(rng, *sizes)
    classes = list(CLASSES)
    rng.shuffle(classes)
    procedures = [RULES[cls](rng, prob) for cls in classes]
    files = {f"{name}.problem.json": json.dumps(prob["json"]),
             f"{name}.procs.json": json.dumps(procedures)}
    argv = ["finite", command, f"{name}.problem.json", "--procedures", f"{name}.procs.json"]
    facts = {"model": [[_rat(v) for v in row] for row in prob["model"]],
             "loss": [[_rat(v) for v in row] for row in prob["loss"]]}
    return argv, files, facts, procedures, classes


def classify_request(rng: random.Random, name: str, sizes) -> Request:
    """A classify call on a fresh problem with one procedure per verdict class."""
    argv, files, facts, procedures, classes = _batch(rng, name, "classify", sizes)
    return Request("classify", argv, files,
                   dict(facts, procedures=procedures, classes=classes))


def synthesize_request(rng: random.Random, name: str, sizes, cls: str) -> Request:
    """A synthesize-prior call whose chosen procedure has verdict class ``cls``."""
    argv, files, facts, procedures, classes = _batch(rng, name, "synthesize-prior", sizes)
    index = classes.index(cls)
    return Request("synthesize", argv + ["--procedure", str(index)], files,
                   dict(facts, procedure=procedures[index], cls=cls))


def malformed_requests(rng: random.Random) -> list:
    """Malformed procedures: an out-of-range action and a wrong shape.

    The documented exit code for malformed input is 2.
    """
    out = []
    for command in ("classify", "synthesize-prior"):
        for defect in ("out-of-range", "wrong-shape"):
            name = f"bad-{command}-{defect}"
            prob = make_problem(rng, 3, 3, 2)
            n_obs, n_act = 3, 4
            if defect == "out-of-range":
                bad = _nonrandomized([0] * (n_obs - 1) + [n_act + 2])
            else:
                bad = _nonrandomized([0] * (n_obs - 1))
            procedures = [admissible_rule(rng, prob), bad]
            files = {f"{name}.problem.json": json.dumps(prob["json"]),
                     f"{name}.procs.json": json.dumps(procedures)}
            argv = ["finite", command, f"{name}.problem.json",
                    "--procedures", f"{name}.procs.json"]
            if command == "synthesize-prior":
                argv += ["--procedure", "1"]
            out.append(Request(f"bad-{defect}", argv, files, {}, known_bad=True))
    return out


def finite_small(seed: int) -> list:
    """288 distinct small problems: two classify calls to one synthesize-prior.

    Each command cycles through all 48 size combinations (2-5 states,
    2-5 observations, 1-3 base actions) in an order that keeps every
    prefix balanced, so the size mix, and with it the cost mix, is the
    same for every seed.
    """
    rng = random.Random(f"finite-small/{seed}")
    combos = _spread(sorted(itertools.product(range(2, 6), range(2, 6), range(1, 4)),
                            key=lambda size: (size[0] * size[1] * (size[2] + 2), size)))
    stream = []
    for i in range(288):
        sizes = combos[(i // 3) % len(combos)]
        if i % 3 == 2:
            stream.append(synthesize_request(rng, f"r{i}", sizes, CLASSES[(i // 3) % 3]))
        else:
            stream.append(classify_request(rng, f"r{i}", sizes))
    return stream


def finite_large(seed: int) -> list:
    """32 distinct 10 states x 10 observations x 5 actions problems, one batch each.

    A 38 s run gets through about 26 of them, so no problem is timed twice.
    """
    rng = random.Random(f"finite-large/{seed}")
    return [classify_request(rng, f"r{i}", (10, 10, 3)) for i in range(32)]


# ----------------------------------------------------------------------
# Levi-Civita expressions
# ----------------------------------------------------------------------

LC_ORDERS = (4, 8, 16)
# exponent denominators per order: the retained window holds about
# order * denominator terms, up to 256
LC_DENOMINATORS = {
    4: (1, 2, 3, 4, 6, 8, 12, 16, 32, 64),
    8: (1, 2, 3, 4, 6, 8, 12, 16, 32, 1),
    16: (1, 2, 3, 4, 6, 8, 12, 16, 2, 4),
}
# (numerator terms, denominator terms); numerator 0 means a reciprocal
LC_SHAPES = ((0, 2), (1, 3), (0, 3))
KNOWN_BAD_LC = "1/(1+eps^1/1000)"


def random_series(rng: random.Random, den: int, n_terms: int, order: int) -> list:
    """1-3 (exponent, coefficient) pairs with exponent denominator ``den``.

    The first two exponents are 1/den apart, and the third sits in the
    middle of the window, so parsing the series truncates nothing.  Where
    the third term sits decides how much of a quotient's window its
    recurrence spans, and with it the cost; fixing the place keeps the
    cost of each slot nearly the same for every seed.
    """
    lead = Fraction(rng.randint(-2 * den, 2 * den), den)
    exps = [lead]
    if n_terms >= 2:
        exps.append(lead + Fraction(1, den))
    if n_terms >= 3:
        exps.append(lead + Fraction(order * den // 2 + rng.randint(0, 1), den))
    terms = []
    for e in exps:
        coeff = rng.randint(1, 9) * rng.choice((1, -1))
        terms.append((e, Fraction(coeff)))
    return terms


def series_text(terms) -> str:
    parts = []
    for i, (e, c) in enumerate(terms):
        mag = abs(c)
        body = str(mag) if e == 0 else f"{mag}*eps^({e})"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def lc_request(rng: random.Random, order: int, den: int, shape) -> Request:
    n_num, n_den = shape
    denominator = random_series(rng, den, n_den, order)
    if n_num:
        numerator = random_series(rng, den, n_num, order)
        expr = f"({series_text(numerator)})/({series_text(denominator)})"
    else:
        numerator = [(Fraction(0), Fraction(1))]
        expr = f"1/({series_text(denominator)})"
    check = {"order": order,
             "numerator": [[str(e), str(c)] for e, c in numerator],
             "denominator": [[str(e), str(c)] for e, c in denominator]}
    return Request("lc-eval", ["lc", "eval", expr, "--order", str(order)], {}, check)


def _spread(items: list) -> list:
    """Reorder cost-sorted items so that every prefix holds a balanced mix."""
    n = len(items)
    step = max(1, round(n * 0.618))
    while math.gcd(step, n) != 1:
        step += 1
    return [items[(i * step) % n] for i in range(n)]


EXAMPLES = tuple([("normal-location", dim, order) for dim in (1, 2, 3) for order in LC_ORDERS]
                 + [("bernoulli-boundary", None, order) for order in LC_ORDERS])


def example_request(name: str, dim, order: int) -> Request:
    argv = ["example", name, "--order", str(order)]
    if dim is not None:
        argv[2:2] = ["--dim", str(dim)]
    return Request("example", argv, {}, {"key": f"{name}/dim={dim}/order={order}"})


def lc_reports(seed: int) -> list:
    """Twelve example reports and 90 seeded quotients and reciprocals."""
    rng = random.Random(f"lc-reports/{seed}")
    slots = []
    for order in LC_ORDERS:
        for den in LC_DENOMINATORS[order]:
            for shape in LC_SHAPES:
                slots.append((order * den * (shape[1] + shape[0]), order, den, shape))
    slots.sort()
    evals = [lc_request(rng, order, den, shape) for _, order, den, shape in _spread(slots)]
    examples = [example_request(*ex) for ex in _spread(list(EXAMPLES))]
    stream = []
    for i, req in enumerate(evals):
        stream.append(req)
        if i % 7 == 6 and examples:
            stream.append(examples.pop(0))
    stream.extend(examples)
    return stream


GENERATORS = {"finite-small": finite_small, "finite-large": finite_large,
              "lc-reports": lc_reports}


def known_bad_requests(workload: str, seed: int) -> list:
    """Requests the program mishandles at the baseline, kept out of the timed loop.

    ``finite-small`` has the four malformed procedures (documented exit
    code 2), ``lc-reports`` the reciprocal of ``1 + eps^(1/1000)`` at order 8,
    which must finish within the workload's time limit.
    """
    if workload == "finite-small":
        return malformed_requests(random.Random(f"finite-small/bad/{seed}"))
    if workload == "lc-reports":
        return [Request("bad-lc", ["lc", "eval", KNOWN_BAD_LC, "--order", "8"], {},
                        {"order": 8, "numerator": [["0", "1"]],
                         "denominator": [["0", "1"], ["1/1000", "1"]]}, known_bad=True)]
    return []

# per-request time limits in seconds; a request past its limit is killed
# and counted as failed
TIME_LIMIT_S = {"finite-small": 20.0, "finite-large": 60.0, "lc-reports": 3.0}


# ----------------------------------------------------------------------
# set-up requests, whose outputs are pinned in golden.json
# ----------------------------------------------------------------------


def setup_requests() -> list:
    """The fixed warm-up requests run before timing, identical for every seed."""
    rng = random.Random("setup")
    classify = classify_request(rng, "setup-classify", (3, 3, 2))
    synth = synthesize_request(rng, "setup-synth", (3, 4, 2), RANDOM)
    lc = lc_request(rng, 8, 3, (1, 3))
    example = example_request("normal-location", 1, 4)
    return [classify, synth, lc, example]
