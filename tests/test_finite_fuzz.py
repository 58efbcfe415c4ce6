"""Hypothesis fuzzer over ``lcbayes finite classify`` and ``synthesize-prior``.

Problems and procedures of 1-4 states, observations and actions, with zero
model entries, tied losses and randomized rules, run through ``main`` in
process.  A well-formed input must exit 0 with an output that passes the
class-free checks of ``bench/oracle.py``, which shares no code with the
package.  An input with one malformed field, oversized literals included,
must exit 2 with exactly one ``error:`` line.  Nothing may raise out of
``main``.
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lcbayes.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
# JSON has no way to write an integer past Python's 4,300-digit parsing limit
# from a dict, so these stand in for raw digit strings spliced into the text
RAW_5000 = "<raw integer of 5000 digits>"
RAW_2000 = "<raw integer of 2000 digits>"
# values that are wrong wherever a rational or an action index belongs
BAD_VALUES = (True, False, None, 1.5, "abc", "1/0", "", "2_0", [], {}, "1e5000",
              "1e-10000000", "9" * 2000, RAW_5000, RAW_2000)


@pytest.fixture(scope="module")
def oracle():
    # the benchmark's output oracle, read-only: no bytecode is written to bench/
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        patch.setattr(sys, "dont_write_bytecode", True)
        import oracle
    return oracle


sizes = hst.integers(min_value=1, max_value=4)
# integers 0-2 make tied actions common; the strings are valid literals too
losses = hst.one_of(hst.integers(min_value=0, max_value=2),
                    hst.sampled_from(["1/2", "3/2", "7/3", "0.25", "1e-2"]))


@hst.composite
def stochastic_row(draw, n: int) -> list:
    """A row of n probabilities, zeros common, as JSON integers or "p/q" strings."""
    weights = draw(hst.lists(hst.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(hst.integers(min_value=0, max_value=n - 1))] = 1
    row = [Fraction(w, sum(weights)) for w in weights]
    as_int = draw(hst.booleans())
    return [int(v) if as_int and v.denominator == 1 else str(v) for v in row]


@hst.composite
def finite_inputs(draw):
    n_states, n_obs, n_act = draw(sizes), draw(sizes), draw(sizes)
    actions = [{"label": f"a{a}"} for a in range(n_act)]
    for entry in actions:
        if draw(hst.booleans()):
            entry["value"] = draw(losses)
    problem = {
        "states": [{"label": f"t{s}"} for s in range(n_states)],
        "observations": [f"x{x}" for x in range(n_obs)],
        "actions": actions,
        "model": [draw(stochastic_row(n_obs)) for _ in range(n_states)],
        "loss": [[draw(losses) for _ in range(n_act)] for _ in range(n_states)],
    }
    procedures = []
    for _ in range(draw(hst.integers(min_value=1, max_value=3))):
        if draw(hst.booleans()):
            action_map = [draw(hst.integers(min_value=0, max_value=n_act - 1))
                          for _ in range(n_obs)]
            procedures.append({"kind": "nonrandomized", "map": action_map})
        else:
            procedures.append({"kind": "randomized",
                               "matrix": [draw(stochastic_row(n_act)) for _ in range(n_obs)]})
    return problem, procedures


@hst.composite
def malformed(draw, problem: dict, procedures: list):
    """One field of the input made wrong; returns the problem and procedures texts."""
    kind = draw(hst.sampled_from(["model", "loss", "action-value", "procedure",
                                  "missing-field", "long-row", "action-range", "truncated"]))

    def pick(seq):
        return draw(hst.integers(min_value=0, max_value=len(seq) - 1))

    bad = draw(hst.sampled_from(BAD_VALUES))
    if kind in ("model", "loss"):
        row = problem[kind][pick(problem[kind])]
        row[pick(row)] = bad
    elif kind == "action-value":
        # a null value means the action has none, which is valid
        problem["actions"][pick(problem["actions"])]["value"] = "abc" if bad is None else bad
    elif kind == "procedure":
        entry = procedures[pick(procedures)]
        row = entry["map"] if "map" in entry else entry["matrix"][pick(entry["matrix"])]
        row[pick(row)] = bad
    elif kind == "missing-field":
        field = draw(hst.sampled_from(["states", "observations", "actions", "model", "loss",
                                       "kind", "map-or-matrix"]))
        if field == "kind":
            del procedures[pick(procedures)]["kind"]
        elif field == "map-or-matrix":
            entry = procedures[pick(procedures)]
            del entry["map" if "map" in entry else "matrix"]
        else:
            del problem[field]
    elif kind == "long-row":
        table = draw(hst.sampled_from(["model", "loss"]))
        problem[table][pick(problem[table])].append(0)
    elif kind == "action-range":
        entry = procedures[pick(procedures)]
        if "map" in entry:
            entry["map"][pick(entry["map"])] = len(problem["actions"])
        else:
            entry["matrix"].append(entry["matrix"][0])
    problem_text, procedures_text = (
        json.dumps(doc).replace(json.dumps(RAW_5000), "9" * 5000)
                       .replace(json.dumps(RAW_2000), "8" * 2000)
        for doc in (problem, procedures))
    if kind == "truncated":
        # every proper prefix of a JSON object or array is invalid JSON
        if draw(hst.booleans()):
            problem_text = problem_text[:pick(problem_text)]
        else:
            procedures_text = procedures_text[:pick(procedures_text)]
    return problem_text, procedures_text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def oracle_problems(oracle, command: str, payload, problem: dict, procedures: list,
                    index: int) -> list:
    """The class-free checks of one output against the input it was given."""
    model = [[Fraction(v) for v in row] for row in problem["model"]]
    loss = [[Fraction(v) for v in row] for row in problem["loss"]]
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    found = []

    def check_game(value, slack, prior, procedure):
        if value > 0 or slack != -value:
            found.append(f"game value {value} with slack {slack}")
        if len(prior) != n_states or any(w < 0 for w in prior) or sum(prior) != 1:
            found.append(f"prior {prior} is not a probability vector")
            return None
        cand = oracle.risks(model, loss, oracle.rule_matrix(procedure, n_obs, n_act))
        # st(pi) is an optimal prior of the standard game: the gap is exactly epsilon*
        if oracle.bayes_gap(model, loss, prior, cand) != slack:
            found.append("candidate is not exactly slack-Bayes under the prior")
        return cand

    if command == "synthesize-prior":
        value, slack = Fraction(payload["game_value"]), Fraction(payload["slack"])
        prior = [Fraction(w) for w in payload["prior"]]
        check_game(value, slack, prior, procedures[index])
        if payload["prior_possibly_nonunique"] != (value < 0):
            found.append("prior_possibly_nonunique != (game value < 0)")
        if not found:
            for x, responses in enumerate(payload["inner_best_responses"]):
                scores = oracle.posterior_scores(model, loss, prior, x)
                if responses != [a for a, v in enumerate(scores) if v == min(scores)]:
                    found.append(f"inner best responses wrong at observation {x}")
        return found
    if len(payload) != len(procedures):
        return ["classify output is not one report per procedure"]
    for report, procedure in zip(payload, procedures):
        eps_star = Fraction(report["epsilon_star"])
        if oracle.rule_matrix(report["procedure"], n_obs, n_act) != \
                oracle.rule_matrix(procedure, n_obs, n_act):
            found.append("echoed procedure differs from the input")
        if eps_star != -Fraction(report["game_value"]):
            found.append("epsilon* != -game value")
        cand = check_game(Fraction(report["game_value"]), Fraction(report["bayes_slack"]),
                          [Fraction(w) for w in report["prior"]], procedure)
        if report["extended_admissible"] != (eps_star == 0):
            found.append("extended admissible != (epsilon* = 0)")
        if report["admissible"] and not report["extended_admissible"]:
            found.append("admissible but not extended admissible")
        if report["admissible"] != ("witness" not in report):
            found.append("a witness exactly when inadmissible fails")
        if "witness" in report and cand is not None:
            beaten = oracle.risks(model, loss, oracle.rule_matrix(report["witness"], n_obs, n_act))
            if any(w > c - eps_star for w, c in zip(beaten, cand)) or beaten == cand:
                found.append("witness does not dominate the candidate by epsilon*")
    return found


@settings(max_examples=400, deadline=3000)
@given(data=hst.data())
def test_finite_inputs_end_cleanly(oracle, data):
    problem, procedures = data.draw(finite_inputs())
    command = data.draw(hst.sampled_from(["classify", "synthesize-prior"]))
    fmt = data.draw(hst.sampled_from(["json", "text"]))
    index = data.draw(hst.integers(min_value=0, max_value=len(procedures) - 1))
    bad = data.draw(hst.sampled_from(["none", "field"] if command == "classify"
                                     else ["none", "field", "procedure-index"]))
    if bad == "field":
        texts = data.draw(malformed(json.loads(json.dumps(problem)),
                                    json.loads(json.dumps(procedures))))
    else:
        texts = json.dumps(problem), json.dumps(procedures)
    if bad == "procedure-index":
        index = data.draw(hst.sampled_from([-1, len(procedures)]))
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, procedures_path = Path(tmp, "problem.json"), Path(tmp, "procs.json")
        problem_path.write_text(texts[0])
        procedures_path.write_text(texts[1])
        argv = ["--format", fmt, "finite", command, str(problem_path),
                "--procedures", str(procedures_path)]
        if command == "synthesize-prior":
            argv += ["--procedure", str(index)]
        code, out, err = run(argv)
    if bad != "none":
        assert code == 2, (bad, texts, out)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code == 0, (texts, err)
    assert err == "" and out
    if fmt == "json":
        found = oracle_problems(oracle, command, json.loads(out), problem, procedures, index)
        assert not found, (found, texts, out)
