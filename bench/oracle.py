"""Independent output oracle.

Standard library only, and it shares no code with ``lcbayes``: risks,
the separable minimum Bayes risk, series parsing and series products
are all computed here from the generated inputs.  Each ``check_*``
function returns a list of problems found; an empty list means the
output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from workloads import EXPECTED_VERDICT, RANDOM


# ----------------------------------------------------------------------
# finite problems
# ----------------------------------------------------------------------


def rule_matrix(procedure: dict, n_obs: int, n_act: int):
    """Row-stochastic matrix of a procedure JSON; raises ValueError if invalid."""
    if procedure.get("kind") == "nonrandomized":
        action_map = procedure["map"]
        if len(action_map) != n_obs or any(not 0 <= a < n_act for a in action_map):
            raise ValueError("action map has the wrong shape or range")
        return [[Fraction(int(a == chosen)) for a in range(n_act)] for chosen in action_map]
    if procedure.get("kind") == "randomized":
        rows = [[Fraction(v) for v in row] for row in procedure["matrix"]]
        if len(rows) != n_obs or any(len(row) != n_act for row in rows):
            raise ValueError("matrix has the wrong shape")
        if any(v < 0 for row in rows for v in row) or any(sum(row) != 1 for row in rows):
            raise ValueError("matrix is not row-stochastic")
        return rows
    raise ValueError(f"unknown procedure kind {procedure.get('kind')!r}")


def risks(model, loss, matrix) -> list:
    """r(theta, D) = sum_x P_theta(x) sum_a D(a|x) L(theta, a), per state."""
    out = []
    for s, model_row in enumerate(model):
        total = Fraction(0)
        for x, p in enumerate(model_row):
            total += p * sum(w * loss[s][a] for a, w in enumerate(matrix[x]))
        out.append(total)
    return out


def posterior_scores(model, loss, prior, x: int) -> list:
    n_act = len(loss[0])
    return [sum(prior[s] * model[s][x] * loss[s][a] for s in range(len(model)))
            for a in range(n_act)]


def bayes_gap(model, loss, prior, candidate_risks) -> Fraction:
    """r(prior, candidate) minus the minimum Bayes risk, which separates over x."""
    minimum = sum(min(posterior_scores(model, loss, prior, x))
                  for x in range(len(model[0])))
    return sum(w * r for w, r in zip(prior, candidate_risks)) - minimum


def _check_prior(weights, n_states: int, problems: list):
    if len(weights) != n_states:
        problems.append("prior has the wrong length")
    elif any(w < 0 for w in weights) or sum(weights) != 1:
        problems.append("prior is not a probability vector")


def _same_procedure(echo: dict, procedure: dict, n_obs: int, n_act: int) -> bool:
    try:
        return rule_matrix(echo, n_obs, n_act) == rule_matrix(procedure, n_obs, n_act)
    except (KeyError, TypeError, ValueError):
        return False


def check_classification(report: dict, facts: dict, procedure: dict, cls: str) -> list:
    """One entry of ``finite classify`` output against its generated procedure."""
    problems = []
    model = [[Fraction(v) for v in row] for row in facts["model"]]
    loss = [[Fraction(v) for v in row] for row in facts["loss"]]
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    try:
        eps_star = Fraction(report["epsilon_star"])
        value = Fraction(report["game_value"])
        slack = Fraction(report["bayes_slack"])
        prior = [Fraction(w) for w in report["prior"]]
        admissible = report["admissible"]
        extended = report["extended_admissible"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]
    if not _same_procedure(report.get("procedure", {}), procedure, n_obs, n_act):
        problems.append("echoed procedure differs from the input")
    if eps_star != -value:
        problems.append("epsilon* != -game value")
    if slack != max(Fraction(0), -value):
        problems.append("bayes_slack != max(0, -game value)")
    if admissible and not extended:
        problems.append("admissible but not extended admissible")
    if (admissible, extended) != EXPECTED_VERDICT[cls]:
        problems.append(f"verdict {(admissible, extended)} for a {cls} procedure")
    if (eps_star > 0) != (cls == RANDOM):
        problems.append(f"epsilon* = {eps_star} for a {cls} procedure")
    _check_prior(prior, n_states, problems)
    cand = risks(model, loss, rule_matrix(procedure, n_obs, n_act))
    if not problems and bayes_gap(model, loss, prior, cand) > slack:
        problems.append("candidate is not bayes_slack-Bayes under the prior")
    witness = report.get("witness")
    if not admissible:
        if witness is None:
            problems.append("inadmissible verdict without a witness")
        else:
            try:
                w_risks = risks(model, loss, rule_matrix(witness, n_obs, n_act))
            except (KeyError, TypeError, ValueError) as exc:
                return problems + [f"invalid witness: {exc}"]
            if any(w > c for w, c in zip(w_risks, cand)) or w_risks == cand:
                problems.append("witness does not dominate the candidate")
    elif witness is not None:
        problems.append("admissible verdict carries a witness")
    return problems


def check_classify_output(payload, facts: dict) -> list:
    if not isinstance(payload, list) or len(payload) != len(facts["procedures"]):
        return ["classify output is not one report per procedure"]
    problems = []
    for report, procedure, cls in zip(payload, facts["procedures"], facts["classes"]):
        problems.extend(check_classification(report, facts, procedure, cls))
    return problems


def check_synthesize_output(payload, facts: dict) -> list:
    problems = []
    model = [[Fraction(v) for v in row] for row in facts["model"]]
    loss = [[Fraction(v) for v in row] for row in facts["loss"]]
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    try:
        value = Fraction(payload["game_value"])
        slack = Fraction(payload["slack"])
        prior = [Fraction(w) for w in payload["prior"]]
        responses = [list(r) for r in payload["inner_best_responses"]]
        nonunique = payload["prior_possibly_nonunique"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed game payload: {exc!r}"]
    if value > 0:
        problems.append("game value is positive")
    if (value < 0) != (facts["cls"] == RANDOM):
        problems.append(f"game value {value} for a {facts['cls']} procedure")
    if slack != max(Fraction(0), -value):
        problems.append("slack != max(0, -game value)")
    if nonunique != (value < 0):
        problems.append("prior_possibly_nonunique != (game value < 0)")
    _check_prior(prior, n_states, problems)
    if problems:
        return problems
    cand = risks(model, loss, rule_matrix(facts["procedure"], n_obs, n_act))
    if bayes_gap(model, loss, prior, cand) > slack:
        problems.append("candidate is not slack-Bayes under the prior")
    for x in range(n_obs):
        scores = posterior_scores(model, loss, prior, x)
        best = min(scores)
        if responses[x] != [a for a in range(n_act) if scores[a] == best]:
            problems.append(f"inner best responses wrong at observation {x}")
            break
    return problems


# ----------------------------------------------------------------------
# Levi-Civita series
# ----------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?eps(?:\^(-?\d+(?:/\d+)?))?$|^(\d+(?:/\d+)?)$")


def parse_series(text: str) -> dict:
    """Canonical series text (``3/2 + 5*eps^2 - eps^-1``) -> {exponent: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    series = {}
    expect_term = True
    for tok in tokens:
        if not expect_term:
            if tok not in ("+", "-"):
                raise ValueError(f"expected a sign, got {tok!r}")
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        m = _TERM.match(tok)
        if not m:
            raise ValueError(f"bad series term {tok!r}")
        if m.group(3) is not None:
            expo, coeff = Fraction(0), Fraction(m.group(3))
        else:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            expo = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if expo in series or coeff == 0:
            raise ValueError("repeated exponent or zero coefficient")
        series[expo] = sign * coeff
        expect_term = False
    if expect_term:
        raise ValueError("series ends with a sign")
    return series


def multiply(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def check_lc_eval(payload, facts: dict) -> list:
    """A quotient A/B at order n: B * value == A on the retained window.

    The value V has valuation val(A) - val(B) and keeps exponents up to
    val(V) + n.  Then B * V - A has no term at or below val(A) + n, and
    that determines V on its window exactly.
    """
    order = facts["order"]
    numerator = {Fraction(e): Fraction(c) for e, c in facts["numerator"]}
    denominator = {Fraction(e): Fraction(c) for e, c in facts["denominator"]}
    try:
        value = parse_series(payload["value"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable value: {exc!r}"]
    problems = []
    if payload.get("order") != order:
        problems.append("order field differs from the request")
    val = min(numerator) - min(denominator)
    if not value or min(value) != val:
        return problems + ["value has the wrong valuation"]
    if max(value) > val + order:
        problems.append("value keeps terms beyond its truncation window")
    residual = multiply(denominator, value)
    for e, c in numerator.items():
        residual[e] = residual.get(e, Fraction(0)) - c
    window = min(numerator) + order
    if any(c and e <= window for e, c in residual.items()):
        problems.append("denominator * value != numerator on the retained window")
    if payload.get("valuation") != str(val):
        problems.append("valuation field is wrong")
    st = "undefined" if val < 0 else str(value.get(Fraction(0), Fraction(0)))
    if payload.get("st") != st:
        problems.append("st field is wrong")
    return problems


# ----------------------------------------------------------------------
# pinned baseline values
# ----------------------------------------------------------------------

# fields with a unique correct value; witnesses, priors and probes are
# not unique and are left out
PINNED_FIELDS = {
    "classify": ("admissible", "extended_admissible", "epsilon_star", "game_value",
                 "bayes_slack"),
    "synthesize": ("game_value", "slack", "prior_possibly_nonunique"),
    "lc-eval": ("value", "valuation", "st", "order"),
    "normal-location": ("dim", "order", "prior_scale", "shrinkage", "shrinkage_st",
                        "shrinkage_bayes_risk", "sample_mean_bayes_risk", "gap",
                        "gap_is_infinitesimal", "gap_st", "risk_constant_coefficient",
                        "risk_norm_coefficient"),
    "bernoulli-boundary": ("order", "lc_point", "lc_bayes_risk", "lc_bayes_risk_st",
                           "risk_at_half", "risk_at_zero", "no_dominator_found",
                           "dominators", "challenger_count", "state_count"),
}


def pinned(kind: str, payload):
    """The unique fields of an output, in a form that compares by value."""
    if kind == "classify":
        return [{k: r.get(k) for k in PINNED_FIELDS[kind]} for r in payload]
    if kind == "example":
        kind = payload.get("example")
        fields = dict((k, payload.get(k)) for k in PINNED_FIELDS[kind])
        if kind == "normal-location":
            fields["regularity"] = {k: payload.get("regularity", {}).get(k)
                                    for k in ("verdict", "epsilon")}
        return fields
    return {k: payload.get(k) for k in PINNED_FIELDS[kind]}


def check_pinned(kind: str, payload, expected) -> list:
    try:
        got = pinned(kind, payload)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return [] if got == expected else ["differs from the value recorded at the baseline"]


def check_output(kind: str, payload, facts: dict, golden: dict) -> list:
    """Dispatch on request kind; ``golden`` maps example keys to pinned fields."""
    if kind == "classify":
        return check_classify_output(payload, facts)
    if kind == "synthesize":
        return check_synthesize_output(payload, facts)
    if kind in ("lc-eval", "bad-lc"):
        return check_lc_eval(payload, facts)
    if kind == "example":
        expected = golden.get(facts["key"])
        if expected is None:
            return [f"no baseline recorded for {facts['key']}"]
        return check_pinned("example", payload, expected)
    return [f"no check for request kind {kind}"]
