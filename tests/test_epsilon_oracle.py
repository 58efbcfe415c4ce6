"""Verdicts from the floored prior game against two independent LPs.

``classify`` and ``max_uniform_improvement`` read epsilon*, S* and the
improving rule off one LP: the prior game with every prior weight
floored at a positive infinitesimal.  The oracles below are the two LPs
that the package solved before, kept here unchanged and built from the
problem data without any code of the game path:

* the uniform-improvement LP: maximize e over randomized D subject to
  risk(theta, D) <= risk(theta, candidate) - e.  It is the primal of the
  game, so the two must agree exactly on epsilon*;
* the strict-admissibility LP: maximize the total slack sum_theta
  s_theta subject to risk(theta, D) + s_theta = risk(theta, candidate),
  s >= 0.  The candidate is admissible iff its optimum is 0.

Neither uses an eta part: both are plain rational LPs.
"""

import importlib
import itertools
import json
import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Optional, Sequence, Tuple

import lcbayes.priors
from lcbayes.admissibility import max_uniform_improvement
from lcbayes.decision import (FiniteProblem, Prior, Procedure, problem_from_json,
                              procedure_from_json_dict, risk_vector)
from lcbayes.priors import classify, minimal_posterior_scores
from lcbayes.ratlp import LEQ, EQ, LPProblem, solve_lp


# ----------------------------------------------------------------------
# oracle: the uniform-improvement LP
# ----------------------------------------------------------------------


def _score_table(problem: FiniteProblem) -> list[list[list[Fraction]]]:
    """score[theta][x][a] = P_theta(x) * loss(theta, a)."""
    table = []
    for s in range(problem.n_states):
        model_row = problem.model[s]
        loss_row = problem.loss[s]
        table.append([[model_row[x] * loss_row[a] for a in range(problem.n_actions)]
                      for x in range(problem.n_observations)])
    return table


def _procedure_from_values(problem: FiniteProblem, values: Sequence[Fraction],
                           offset: int) -> Procedure:
    rows = []
    for x in range(problem.n_observations):
        start = offset + x * problem.n_actions
        rows.append(tuple(values[start:start + problem.n_actions]))
    return Procedure("randomized", matrix_rows=tuple(rows))


def uniform_improvement_lp(problem: FiniteProblem,
                           procedure: Procedure) -> Tuple[Fraction, Procedure]:
    """The largest uniform risk improvement available over the candidate.

    Solves: maximize e over randomized rules D with
    risk(theta, D) <= risk(theta, candidate) - e for every theta.
    Taking D = candidate shows e = 0 is always feasible, so the optimum
    is >= 0; the candidate is extended admissible (among all randomized
    procedures) exactly when the optimum is 0.
    """
    target = risk_vector(problem, procedure)
    n_obs, n_act = problem.n_observations, problem.n_actions
    n_vars = 1 + n_obs * n_act  # e, then delta(x, a) row-major
    score = _score_table(problem)

    objective = [Fraction(0)] * n_vars
    objective[0] = Fraction(1)
    rows, relations, rhs = [], [], []
    for s in range(problem.n_states):
        row = [Fraction(0)] * n_vars
        row[0] = Fraction(1)
        for x in range(n_obs):
            for a in range(n_act):
                row[1 + x * n_act + a] = score[s][x][a]
        rows.append(row)
        relations.append(LEQ)
        rhs.append(target[s])
    for x in range(n_obs):
        row = [Fraction(0)] * n_vars
        for a in range(n_act):
            row[1 + x * n_act + a] = Fraction(1)
        rows.append(row)
        relations.append(EQ)
        rhs.append(Fraction(1))

    lower: list[Optional[Fraction]] = [None] + [Fraction(0)] * (n_obs * n_act)
    lp = LPProblem.build(objective, rows, relations, rhs, lower=lower)
    sol = solve_lp(lp)
    witness = _procedure_from_values(problem, sol.x, offset=1)
    return sol.objective_value, witness


def strict_admissibility_lp(problem: FiniteProblem, procedure: Procedure) -> bool:
    """Is the candidate admissible among all randomized procedures?

    Solves: maximize sum_theta s_theta over s >= 0 and randomized D with
    risk(theta, D) + s_theta = risk(theta, candidate).  D = candidate,
    s = 0 is feasible; the candidate is admissible iff the optimum is 0.
    """
    target = risk_vector(problem, procedure)
    n_states, n_obs, n_act = problem.n_states, problem.n_observations, problem.n_actions
    n_vars = n_states + n_obs * n_act  # s_theta, then delta(x, a)
    score = _score_table(problem)

    objective = [Fraction(1)] * n_states + [Fraction(0)] * (n_obs * n_act)
    rows, relations, rhs = [], [], []
    for s in range(n_states):
        row = [Fraction(0)] * n_vars
        row[s] = Fraction(1)
        for x in range(n_obs):
            for a in range(n_act):
                row[n_states + x * n_act + a] = score[s][x][a]
        rows.append(row)
        relations.append(EQ)
        rhs.append(target[s])
    for x in range(n_obs):
        row = [Fraction(0)] * n_vars
        for a in range(n_act):
            row[n_states + x * n_act + a] = Fraction(1)
        rows.append(row)
        relations.append(EQ)
        rhs.append(Fraction(1))

    sol = solve_lp(LPProblem.build(objective, rows, relations, rhs))
    return sol.objective_value == 0


def assert_verdict_matches_oracles(problem: FiniteProblem, candidate: Procedure) -> tuple:
    """classify against both oracles; returns (admissible, epsilon*)."""
    report = classify(problem, candidate)
    epsilon_star, _ = uniform_improvement_lp(problem, candidate)
    admissible = strict_admissibility_lp(problem, candidate)
    assert report.admissible == admissible
    assert report.epsilon_star == epsilon_star
    assert report.extended_admissible == (epsilon_star == 0)
    return admissible, epsilon_star


# ----------------------------------------------------------------------
# seeded random problems
# ----------------------------------------------------------------------


def random_problem(rng: random.Random) -> FiniteProblem:
    n_states, n_obs, n_act = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    model = []
    for _ in range(n_states):
        weights = [rng.randint(0, 6) for _ in range(n_obs)]
        if sum(weights) == 0:
            weights[rng.randrange(n_obs)] = 1
        model.append([F(w, sum(weights)) for w in weights])
    loss = [[rng.randint(0, 5) for _ in range(n_act)] for _ in range(n_states)]
    return FiniteProblem.build([f"s{s}" for s in range(n_states)],
                               [f"x{x}" for x in range(n_obs)],
                               [f"a{a}" for a in range(n_act)], model, loss)


def random_candidate(rng: random.Random, problem: FiniteProblem) -> Procedure:
    """A Bayes rule for a random prior, a random rule, or a random mixture."""
    n_obs, n_act = problem.n_observations, problem.n_actions
    kind = rng.randrange(3)
    if kind == 0:
        weights = [rng.randint(0, 4) for _ in range(problem.n_states)]
        if sum(weights) == 0:
            weights[0] = 1
        prior = Prior(tuple(F(w, sum(weights)) for w in weights))
        _, argmins = minimal_posterior_scores(problem, prior)
        return Procedure.nonrandomized([rng.choice(acts) for acts in argmins])
    if kind == 1:
        return Procedure.nonrandomized([rng.randrange(n_act) for _ in range(n_obs)])
    rows = []
    for _ in range(n_obs):
        raw = [rng.randint(0, 3) for _ in range(n_act)]
        if sum(raw) == 0:
            raw[rng.randrange(n_act)] = 1
        rows.append([F(v, sum(raw)) for v in raw])
    return Procedure.randomized(rows)


def test_game_epsilon_star_matches_uniform_lp():
    rng = random.Random(161209305)
    positive = zero = 0
    for _ in range(150):
        problem = random_problem(rng)
        candidate = random_candidate(rng, problem)
        expected, _ = uniform_improvement_lp(problem, candidate)
        epsilon_star, improver = max_uniform_improvement(problem, candidate)
        report = classify(problem, candidate)
        assert epsilon_star == expected
        assert report.epsilon_star == expected
        assert report.extended_admissible == (expected == 0)
        candidate_risks = risk_vector(problem, candidate)
        assert all(d <= r - expected
                   for d, r in zip(risk_vector(problem, improver), candidate_risks))
        if expected > 0:
            positive += 1
            assert not report.admissible
            witness_risks = risk_vector(problem, report.witness)
            assert all(w < r for w, r in zip(witness_risks, candidate_risks))
        else:
            zero += 1
    # both branches of the verdict are exercised often
    assert positive >= 30 and zero >= 30, (positive, zero)


def verdict_kind(admissible: bool, epsilon_star: Fraction) -> str:
    if admissible:
        return "admissible"
    return "epsilon* > 0" if epsilon_star > 0 else "inadmissible at epsilon* = 0"


def test_verdicts_match_oracles_on_benchmark_problems(monkeypatch):
    # the problem and rule generators of the benchmark, read-only
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    rng = random.Random(20161230)
    kinds = dict.fromkeys(("admissible", "inadmissible at epsilon* = 0", "epsilon* > 0"), 0)
    for _ in range(150):
        sizes = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 3)
        prob = workloads.make_problem(rng, *sizes)
        problem = problem_from_json(json.dumps(prob["json"]))
        for cls in workloads.CLASSES:
            candidate = procedure_from_json_dict(workloads.RULES[cls](rng, prob))
            kinds[verdict_kind(*assert_verdict_matches_oracles(problem, candidate))] += 1
    assert all(count >= 50 for count in kinds.values()), kinds


def test_verdicts_match_oracles_on_every_rule_with_ties():
    # integer losses 0-2 make tied actions and tied risk points common
    rng = random.Random(305)
    kinds = dict.fromkeys(("admissible", "inadmissible at epsilon* = 0", "epsilon* > 0"), 0)
    for _ in range(60):
        n_states, n_obs, n_act = rng.randint(2, 3), rng.randint(1, 3), rng.randint(2, 3)
        model = []
        for _ in range(n_states):
            weights = [rng.randint(0, 2) for _ in range(n_obs)]
            if sum(weights) == 0:
                weights[rng.randrange(n_obs)] = 1
            model.append([F(w, sum(weights)) for w in weights])
        loss = [[rng.randint(0, 2) for _ in range(n_act)] for _ in range(n_states)]
        problem = FiniteProblem.build([f"s{s}" for s in range(n_states)],
                                      [f"x{x}" for x in range(n_obs)],
                                      [f"a{a}" for a in range(n_act)], model, loss)
        for action_map in itertools.product(range(n_act), repeat=n_obs):
            candidate = Procedure.nonrandomized(list(action_map))
            kinds[verdict_kind(*assert_verdict_matches_oracles(problem, candidate))] += 1
    assert all(count >= 30 for count in kinds.values()), kinds


def test_classify_solves_one_lp_per_verdict(monkeypatch):
    calls = []

    def counting_solve(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.priors, "solve_lp", counting_solve)
    rng = random.Random(1954)
    seen = set()
    for _ in range(40):
        problem = random_problem(rng)
        candidate = random_candidate(rng, problem)
        calls.clear()
        report = classify(problem, candidate)
        assert len(calls) == 1
        seen.add(verdict_kind(report.admissible, report.epsilon_star))
    assert len(seen) == 3, seen
