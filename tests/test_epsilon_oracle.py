"""epsilon* from the prior game against an independent uniform-improvement LP.

``classify`` and ``max_uniform_improvement`` read epsilon* and its
improving rule off the prior-game LP.  The oracle below is the
uniform-improvement LP that the package solved before, kept here
unchanged: maximize e over randomized D subject to
risk(theta, D) <= risk(theta, candidate) - e.  It is the primal of the
game, built from the problem data without any code of the game path,
so the two must agree exactly on epsilon*.
"""

import random
from fractions import Fraction
from fractions import Fraction as F
from typing import Optional, Sequence, Tuple

import lcbayes.admissibility
import lcbayes.priors
from lcbayes.admissibility import max_uniform_improvement
from lcbayes.decision import FiniteProblem, Prior, Procedure, risk_vector
from lcbayes.priors import classify, minimal_posterior_scores
from lcbayes.ratlp import LEQ, EQ, LPProblem, LPStatus, solve_lp


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
    assert sol.status is LPStatus.OPTIMAL
    witness = _procedure_from_values(problem, sol.x, offset=1)
    return sol.objective_value, witness


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
        assert report.game_value == -expected
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


def test_classify_solves_one_lp_unless_epsilon_star_is_zero(monkeypatch):
    calls = []

    def counting_solve(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.admissibility, "solve_lp", counting_solve)
    monkeypatch.setattr(lcbayes.priors, "solve_lp", counting_solve)
    rng = random.Random(1954)
    seen = set()
    for _ in range(40):
        problem = random_problem(rng)
        candidate = random_candidate(rng, problem)
        calls.clear()
        report = classify(problem, candidate)
        expected = 1 if report.epsilon_star > 0 else 2
        assert len(calls) == expected
        seen.add((expected, report.admissible))
    assert seen == {(1, False), (2, True), (2, False)}
