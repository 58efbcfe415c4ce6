"""Risk, Bayes risk, mixtures and derandomization on finite problems."""

import importlib
import itertools
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import lcbayes.priors
from lcbayes.decision import (FiniteProblem, IndexOutOfRange, InvalidProblem,
                              NoEmbedding, Prior, Procedure, SchemaError,
                              ShapeMismatch, SupportMismatch, WeightError,
                              bayes_risk, convex_combine, derandomize,
                              loss_convex_along_embedding, problem_from_json,
                              problem_to_json, procedure_from_json_dict,
                              procedure_to_json_dict, procedures_from_json,
                              risk, risk_vector)
from lcbayes.lcnum import LCNumber, eps, st
from lcbayes.priors import classify, minimal_posterior_scores
from lcbayes.ratlp import LPProblem, solve_lp


def fp1():
    # two states, one uninformative observation, 0/1 loss
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 0]])


def rule(p):
    return Procedure.randomized([[p, 1 - p]])  # choose a1 with probability p


# ----------------------------------------------------------------------
# risk
# ----------------------------------------------------------------------


def test_risk_hand_evaluation():
    # hand oracle: r(t1) = 1 - p, r(t2) = p
    assert risk_vector(fp1(), rule(F(1, 2))) == (F(1, 2), F(1, 2))
    assert risk_vector(fp1(), rule(F(1, 4))) == (F(3, 4), F(1, 4))


def test_zero_loss_means_zero_risk():
    problem = FiniteProblem.build(["s"], ["x", "y"], ["a", "b"],
                                  model=[[F(1, 3), F(2, 3)]], loss=[[0, 0]])
    for proc in (Procedure.nonrandomized([0, 1]),
                 Procedure.randomized([[F(1, 2), F(1, 2)], [1, 0]])):
        assert risk(problem, proc, 0) == 0


def test_nonrandomized_matches_zero_one_matrix():
    problem = FiniteProblem.build(["t1", "t2"], ["x1", "x2"], ["a1", "a2"],
                                  model=[[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]],
                                  loss=[[0, 1], [2, 0]])
    nonrand = Procedure.nonrandomized([1, 0])
    as_matrix = Procedure.randomized([[0, 1], [1, 0]])
    assert risk_vector(problem, nonrand) == risk_vector(problem, as_matrix)


def test_risk_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        risk(fp1(), rule(F(1, 2)), 5)


@pytest.mark.parametrize("index", [True, False, 1.0, F(1)], ids=repr)
def test_risk_refuses_an_index_that_is_not_an_int(index):
    # bool is an int subclass, but True is no state index (it read state 1)
    with pytest.raises(IndexOutOfRange):
        risk(fp1(), rule(F(1, 2)), index)


def reference_risks(model, loss, rule_rows):
    """sum_x P_s(x) sum_a delta(x, a) L(s, a) at every state, from the raw tables."""
    return tuple(sum(p_x * sum(d * l_a for d, l_a in zip(rule_rows[x], loss_row))
                     for x, p_x in enumerate(model_row))
                 for model_row, loss_row in zip(model, loss))


def reference_posterior_minima(model, loss, weights):
    """Per observation: min_a sum_s pi(s) P_s(x) L(s, a), and the actions attaining it."""
    minima, argmins = [], []
    for x in range(len(model[0])):
        per_action = [sum(weights[s] * model[s][x] * loss[s][a] for s in range(len(model)))
                      for a in range(len(loss[0]))]
        minima.append(min(per_action))
        argmins.append(tuple(a for a, v in enumerate(per_action) if v == minima[-1]))
    return minima, argmins


@pytest.mark.parametrize("sizes", [(2, 2, 1), (3, 4, 2), (5, 3, 3), (6, 6, 2), (10, 10, 3)])
def test_score_table_matches_reference_on_benchmark_problems(monkeypatch, sizes):
    # the benchmark's problem generator, read-only
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    rng = random.Random(f"score-table/{sizes}")
    n_states, n_obs, _ = sizes
    for zeros in (False, True):
        prob = workloads.make_problem(rng, *sizes)
        model = [list(row) for row in prob["model"]]
        if zeros:  # move one observation's mass onto another in every row
            for row in model:
                x0, x1 = rng.sample(range(n_obs), 2)
                row[x1], row[x0] = row[x1] + row[x0], F(0)
        loss = prob["loss"]
        n_act = len(loss[0])
        problem = FiniteProblem.build([f"s{s}" for s in range(n_states)],
                                      [f"x{x}" for x in range(n_obs)],
                                      [f"a{a}" for a in range(n_act)], model, loss)
        rules = [Procedure.nonrandomized([rng.randrange(n_act) for _ in range(n_obs)])]
        for _ in range(3):
            raw = [[rng.choice((0, 0, 1, 2, 5)) for _ in range(n_act)] for _ in range(n_obs)]
            for row in raw:
                row[rng.randrange(n_act)] += 1
            rules.append(Procedure.randomized([[F(v, sum(row)) for v in row] for row in raw]))
        for procedure in rules:
            rule_rows = procedure.matrix(n_act)
            expected = reference_risks(model, loss, rule_rows)
            assert risk_vector(problem, procedure) == expected
            assert [risk(problem, procedure, s) for s in range(n_states)] == list(expected)
        raw = [rng.randint(1, 9) for _ in range(n_states)]
        rational = [F(w, sum(raw)) for w in raw]
        e = eps()
        infinitesimal = [LCNumber(w) for w in rational]
        infinitesimal[0], infinitesimal[-1] = infinitesimal[0] - e, infinitesimal[-1] + e
        for weights in (rational, infinitesimal):
            scores, argmins = minimal_posterior_scores(problem, Prior(tuple(weights)))
            assert (scores, argmins) == reference_posterior_minima(model, loss, weights)
        # the table is no field: a copy without one still equals the original
        same = problem.replace()
        assert same == problem and hash(same) == hash(problem)
        # a problem derived from this one after its table exists gets a table of its own
        new_loss = tuple(tuple(v + s for v in row) for s, row in enumerate(problem.loss))
        derived = problem.replace(loss=new_loss)
        for procedure in rules:
            assert risk_vector(derived, procedure) == \
                reference_risks(model, new_loss, procedure.matrix(n_act))
        scores, argmins = minimal_posterior_scores(derived, Prior(tuple(rational)))
        assert (scores, argmins) == reference_posterior_minima(model, new_loss, rational)


def reference_den(model, loss) -> int:
    """The model tables' least common denominator times the loss's."""
    return (math.lcm(*(F(v).denominator for row in model for v in row))
            * math.lcm(*(F(v).denominator for row in loss for v in row)))


def reference_game_lp(model, loss, candidate_risks) -> LPProblem:
    """The full floored prior game, a row for every (x, a), its rows built
    from the raw tables with one Fraction per product and per sum, each
    (x, a) row times :func:`reference_den`."""
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    den = reference_den(model, loss)
    objective = [-r for r in candidate_risks] + [F(1)] * n_obs
    rows = [[F(1)] * n_states + [F(0)] * n_obs]
    relations, rhs, rhs_eta = ["="], [F(1)], [F(-n_states)]
    for x in range(n_obs):
        for a in range(n_act):
            column = [model[s][x] * loss[s][a] for s in range(n_states)]
            row = [-den * v for v in column] + [F(0)] * n_obs
            row[n_states + x] = F(den)
            rows.append(row)
            relations.append("<=")
            rhs.append(F(0))
            rhs_eta.append(den * sum(column))
    return LPProblem.build(objective, rows, relations, rhs, rhs_eta=rhs_eta)


def reference_dominated(model, loss, x: int, a: int) -> bool:
    """Is the column P_s(x) L(s, a) over s, as Fraction products, entrywise
    >= another action b's column, and either different from it or b < a?"""
    n_states = len(model)

    def column(act):
        return [F(model[s][x]) * loss[s][act] for s in range(n_states)]

    mine = column(a)
    return any(all(o <= m for o, m in zip(column(b), mine)) and (column(b) != mine or b < a)
               for b in range(len(loss[0])) if b != a)


def reference_reduced_game(model, loss, candidate_risks) -> LPProblem:
    """:func:`reference_game_lp` without the rows of dominated (x, a)."""
    game = reference_game_lp(model, loss, candidate_risks)
    n_obs, n_act = len(model[0]), len(loss[0])
    kept = [0] + [1 + x * n_act + a for x in range(n_obs) for a in range(n_act)
                  if not reference_dominated(model, loss, x, a)]
    return game.replace(**{name: tuple(getattr(game, name)[i] for i in kept)
                           for name in ("rows", "relations", "rhs", "rhs_eta")})


def assert_verdicts_match_the_full_game(monkeypatch, model, loss, rules) -> int:
    """Every verdict field of synthesize_prior, read off the full game solved
    by solve_lp: epsilon* = -value, S* = sum of the candidate's risks -
    the value's eta part, the witness prior x[:n] and the improver den
    times the (x, a) duals.  The full game's dual of each dominated row is
    0, and the game synthesize_prior solves has one row per undominated
    (x, a) besides the sum-to-1 row.  Returns the rows left out."""
    n_states, n_obs, n_act = len(model), len(model[0]), len(loss[0])
    problem = FiniteProblem.build([f"s{s}" for s in range(n_states)],
                                  [f"x{x}" for x in range(n_obs)],
                                  [f"a{a}" for a in range(n_act)], model, loss)
    den = reference_den(model, loss)
    dominated = {(x, a) for x in range(n_obs) for a in range(n_act)
                 if reference_dominated(model, loss, x, a)}
    games = []

    def recording_solve(lp):
        games.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.priors, "solve_lp", recording_solve)
    verdicts = [lcbayes.priors.synthesize_prior(problem, rule) for rule in rules]
    monkeypatch.undo()
    for rule, verdict, game in zip(rules, verdicts, games):
        risks = reference_risks(model, loss, rule.matrix(n_act))
        full = solve_lp(reference_game_lp(model, loss, risks))
        duals = full.row_duals[1:]
        assert len(game.rows) == 1 + n_obs * n_act - len(dominated)
        assert all(duals[x * n_act + a] == 0 for x, a in dominated)
        assert verdict.epsilon_star == -full.objective_value
        assert verdict.total_slack == sum(risks) - full.objective_value_eta
        assert verdict.witness_prior == Prior(full.x[:n_states])
        assert verdict.improver == Procedure("randomized", matrix_rows=tuple(
            tuple(den * y for y in duals[x * n_act:(x + 1) * n_act]) for x in range(n_obs)))
        assert verdict.candidate_risks == risks
    return len(dominated)


@pytest.mark.parametrize("sizes", [(3, 3, 1), (4, 3, 2), (5, 5, 3), (8, 8, 2), (10, 10, 3)])
def test_game_verdicts_match_the_full_game_on_benchmark_problems(monkeypatch, sizes):
    # the benchmark's problem generator and its three rule classes, read-only
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    rng = random.Random(f"full-game/{sizes}")
    for _ in range(2):
        prob = workloads.make_problem(rng, *sizes)
        rules = [procedure_from_json_dict(workloads.RULES[cls](rng, prob))
                 for cls in workloads.CLASSES]
        # the shadow and the penalty action are dominated at every observation
        left_out = assert_verdicts_match_the_full_game(monkeypatch, prob["model"],
                                                       prob["loss"], rules)
        assert left_out >= 2 * sizes[1]


def every_rule(n_obs: int, n_act: int) -> list:
    rules = [Procedure.nonrandomized(list(m))
             for m in itertools.product(range(n_act), repeat=n_obs)]
    return rules + [Procedure.randomized([[F(1, n_act)] * n_act] * n_obs)]


def test_game_verdicts_match_the_full_game_with_duplicate_actions(monkeypatch):
    # actions 1 and 3 have one loss column: of each pair of equal score
    # columns only action 1's row stays, and action 2 is dominated by neither
    model = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)], [F(3, 4), F(1, 4)]]
    loss = [[0, 2, 3, 2], [4, 1, 0, 1], [2, 2, 5, 2]]
    assert assert_verdicts_match_the_full_game(monkeypatch, model, loss, every_rule(2, 4)) == 2


def test_game_verdicts_match_the_full_game_with_zeros_in_the_model(monkeypatch):
    # loss columns a0 = (0, 5), a1 = (3, 1), a2 = (4, 4): a1 dominates a2,
    # and no column dominates a0 or a1.  Only s0 produces x0, where a0's
    # score column (0, 0) dominates both others; only s1 produces x2, where
    # a1's column dominates both others; at x1 a1 dominates a2
    model = [[F(1, 2), F(1, 2), F(0)], [F(0), F(1, 3), F(2, 3)]]
    loss = [[0, 3, 4], [5, 1, 4]]
    assert reference_dominated(model, loss, 0, 1) and reference_dominated(model, loss, 2, 0)
    assert assert_verdicts_match_the_full_game(monkeypatch, model, loss, every_rule(3, 3)) == 5


def test_game_verdicts_match_the_full_game_with_an_impossible_observation(monkeypatch):
    # no state produces x1: all its score columns are 0, so only a0's row stays
    model = [[F(1, 4), F(0), F(3, 4)], [F(1, 2), F(0), F(1, 2)], [F(2, 3), F(0), F(1, 3)]]
    loss = [[1, 0, 2], [0, 3, 1], [2, 2, 0]]
    assert assert_verdicts_match_the_full_game(monkeypatch, model, loss, every_rule(3, 3)) == 2
    assert all(reference_dominated(model, loss, 1, a) for a in (1, 2))


def wide_tables(rng: random.Random, digits: int):
    """A 3 x 3 x 2 model and loss: each model row over a denominator of its
    own, each loss entry over another, all of ``digits`` digits."""
    low = 10 ** (digits - 1)
    model, loss = [], []
    for _ in range(3):
        q = rng.randrange(low, 10 * low)
        a, b = rng.randrange(1, q // 2), rng.randrange(1, q // 2)
        model.append([F(a, q), F(b, q), F(q - a - b, q)])
        dens = [rng.randrange(low, 10 * low) for _ in range(2)]
        loss.append([F(rng.randrange(1, 10 * d), d) for d in dens])
    return model, loss


def test_wide_denominators_match_reference(monkeypatch):
    # the integer table's denominator is the product of all nine: about
    # 2,700 digits here, against 600 for one product of the Fraction table
    rng = random.Random("wide-denominators")
    model, loss = wide_tables(rng, 300)
    dens = [math.lcm(*(v.denominator for v in row)) for row in model]
    dens += [v.denominator for row in loss for v in row]
    assert len(set(dens)) == 9 and min(dens) >= 10 ** 280
    problem = FiniteProblem.build(["s0", "s1", "s2"], ["x0", "x1", "x2"], ["a0", "a1"],
                                  model, loss)
    rules = [Procedure.nonrandomized([a // 4, a // 2 % 2, a % 2]) for a in range(8)]
    rules.append(Procedure.randomized([[F(1, 3), F(2, 3)], [F(5, 7), F(2, 7)], [1, 0]]))
    for procedure in rules:
        assert risk_vector(problem, procedure) == reference_risks(model, loss,
                                                                  procedure.matrix(2))
    d = rng.randrange(10 ** 299, 10 ** 300)
    w = F(rng.randrange(1, d // 2), d)
    rational = [w, F(1, 3), F(2, 3) - w]
    e = eps()
    for weights in (rational, [LCNumber(rational[0]) + e, LCNumber(rational[1]) - e,
                               rational[2]]):
        assert minimal_posterior_scores(problem, Prior(tuple(weights))) == \
            reference_posterior_minima(model, loss, weights)

    games = []

    def recording_solve(lp):
        games.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.priors, "solve_lp", recording_solve)
    verdicts = [classify(problem, procedure) for procedure in rules]
    monkeypatch.undo()
    kinds = set()
    for procedure, verdict, game in zip(rules, verdicts, games):
        risks = reference_risks(model, loss, procedure.matrix(2))
        assert verdict.candidate_risks == risks
        assert game == reference_reduced_game(model, loss, risks)
        improver = reference_risks(model, loss, verdict.improver.matrix(2))
        slacks = [r - verdict.epsilon_star - d for r, d in zip(risks, improver)]
        assert min(slacks) >= 0 and sum(slacks) == verdict.total_slack
        minima, _ = reference_posterior_minima(model, loss, verdict.witness_prior.weights)
        bayes = sum(w * r for w, r in zip(verdict.witness_prior.weights, risks))
        assert bayes <= sum(minima) + verdict.epsilon_star
        kinds.add((verdict.admissible, verdict.extended_admissible))
    assert kinds == {(True, True), (False, False)}


# ----------------------------------------------------------------------
# Bayes risk
# ----------------------------------------------------------------------


def test_bayes_risk_uniform():
    assert bayes_risk(fp1(), rule(F(1, 2)), Prior.uniform(2)) == F(1, 2)


def test_point_prior_recovers_risk():
    proc = rule(F(1, 3))
    assert bayes_risk(fp1(), proc, Prior.point(0, 2)) == risk(fp1(), proc, 0)


def test_levi_civita_prior():
    e = eps()
    prior = Prior(weights=(LCNumber(1) - e, e))
    value = bayes_risk(fp1(), rule(F(1)), prior)  # risks (0, 1)
    assert value == e
    assert st(value) == 0


def test_lifted_rational_prior_matches_after_st():
    prior_lc = Prior(weights=(LCNumber(F(1, 3)), LCNumber(F(2, 3))))
    prior_q = Prior(weights=(F(1, 3), F(2, 3)))
    proc = rule(F(2, 7))
    assert st(bayes_risk(fp1(), proc, prior_lc)) == bayes_risk(fp1(), proc, prior_q)


def test_bayes_risk_linear_in_prior():
    problem, proc = fp1(), rule(F(1, 3))
    first = Prior((F(1, 4), F(3, 4)))
    second = Prior((F(2, 3), F(1, 3)))
    alpha = F(2, 7)
    mixed = Prior(tuple(alpha * a + (1 - alpha) * b
                        for a, b in zip(first.weights, second.weights)))
    assert bayes_risk(problem, proc, mixed) == \
        alpha * bayes_risk(problem, proc, first) \
        + (1 - alpha) * bayes_risk(problem, proc, second)


def test_support_mismatch():
    with pytest.raises(SupportMismatch):
        bayes_risk(fp1(), rule(F(1, 2)), Prior(weights=(F(1),), support=(7,)))
    with pytest.raises(SupportMismatch):
        bayes_risk(fp1(), rule(F(1, 2)), Prior(weights=(F(1),)))
    # bool is an int, but True is not state 1
    with pytest.raises(SupportMismatch, match="True"):
        bayes_risk(fp1(), rule(F(1, 2)), Prior(weights=(F(1),), support=(True,)))


@pytest.mark.parametrize("weights", [(True, False), (F(1, 2), "1/2")], ids=["bool", "str"])
def test_prior_weights_must_be_exact(weights):
    with pytest.raises(WeightError, match="is not an int, a Fraction"):
        Prior(weights)


# ----------------------------------------------------------------------
# mixtures
# ----------------------------------------------------------------------


def test_combine_two_extremes():
    mixed = convex_combine([Procedure.nonrandomized([0]),
                            Procedure.nonrandomized([1])],
                           [F(1, 2), F(1, 2)], n_actions=2)
    assert mixed.matrix_rows == ((F(1, 2), F(1, 2)),)


def test_single_procedure_identity():
    proc = rule(F(2, 5))
    mixed = convex_combine([proc], [1], n_actions=2)
    assert mixed.matrix_rows == proc.matrix_rows


def test_risk_linearity_random_mixture():
    rng = random.Random(7)
    problem = fp1()
    procs = [rule(F(rng.randint(0, 10), 10)) for _ in range(3)]
    raw = [F(rng.randint(1, 5)) for _ in range(3)]
    total = sum(raw)
    weights = [w / total for w in raw]
    mixed = convex_combine(procs, weights, n_actions=2)
    for s in range(2):
        expected = sum(w * risk(problem, p, s) for w, p in zip(weights, procs))
        assert risk(problem, mixed, s) == expected


def test_weight_errors():
    with pytest.raises(WeightError):
        convex_combine([rule(F(1, 2))], [F(1, 2)], n_actions=2)
    with pytest.raises(WeightError):
        convex_combine([rule(F(1, 2))], [F(-1), F(2)][:1], n_actions=2)
    # shapes are checked once the weights are: action counts and observation rows
    half = [F(1, 2), F(1, 2)]
    with pytest.raises(ShapeMismatch):
        convex_combine([Procedure.randomized([[1, 0, 0]]), Procedure.randomized([[1, 0]])], half)
    with pytest.raises(ShapeMismatch):
        convex_combine([Procedure.nonrandomized([]), Procedure.nonrandomized([])], half)
    with pytest.raises(ShapeMismatch):
        convex_combine([Procedure.randomized([[0, 0, 1]])], [1], n_actions=2)


# ----------------------------------------------------------------------
# derandomization
# ----------------------------------------------------------------------


def embedded_problem():
    # actions embedded at 0, 1/2, 1 with squared-distance loss, convex
    targets = [F(0), F(1)]
    values = [F(0), F(1, 2), F(1)]
    loss = [[(g - v) ** 2 for v in values] for g in targets]
    return FiniteProblem.build(
        ["t0", "t1"], ["x"], [("a0", values[0]), ("a1", values[1]), ("a2", values[2])],
        model=[[1], [1]], loss=loss)


def test_tie_snaps_to_lower_index():
    problem = FiniteProblem.build(["t"], ["x"], [("a0", F(0)), ("a1", F(1))],
                                  model=[[1]], loss=[[0, 1]])
    mixed = Procedure.randomized([[F(1, 2), F(1, 2)]])
    assert derandomize(problem, mixed).action_map == (0,)


def test_exact_mean_improves_risk_everywhere():
    problem = embedded_problem()
    assert loss_convex_along_embedding(problem)
    mixed = Procedure.randomized([[F(1, 2), 0, F(1, 2)]])  # mean exactly 1/2
    snapped = derandomize(problem, mixed)
    assert snapped.action_map == (1,)
    for s in range(problem.n_states):
        assert risk(problem, snapped, s) <= risk(problem, mixed, s)


def test_nonrandomized_fixed_point():
    problem = embedded_problem()
    proc = Procedure.nonrandomized([2])
    assert derandomize(problem, proc) is proc


def test_no_embedding():
    with pytest.raises(NoEmbedding):
        derandomize(fp1(), rule(F(1, 2)))


def test_repeated_embedded_value_is_no_embedding():
    # the build accepts two actions at one value; the convexity test has no
    # difference quotient between them
    problem = FiniteProblem.build(["t"], ["x"], [("a", 1), ("b", 1), ("c", 2)],
                                  model=[[1]], loss=[[0, 1, 2]])
    with pytest.raises(NoEmbedding, match="share the embedded value 1"):
        loss_convex_along_embedding(problem)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------


def test_problem_json_roundtrip():
    problem = FiniteProblem.build(
        [("t1", (F(0),)), ("t2", (F(1, 2),))], ["x1", "x2"],
        [("a1", F(0)), "a2"],
        model=[[F(1, 3), F(2, 3)], [F(1), F(0)]],
        loss=[[0, 1], [F(1, 2), 0]])
    assert problem_from_json(problem_to_json(problem)) == problem


def test_procedure_json_roundtrip():
    for proc in (Procedure.nonrandomized([1, 0]),
                 Procedure.randomized([[F(1, 3), F(2, 3)]])):
        assert procedure_from_json_dict(procedure_to_json_dict(proc)) == proc


def test_schema_errors():
    with pytest.raises(SchemaError):
        problem_from_json("not json")
    with pytest.raises(SchemaError):
        problem_from_json("{}")
    with pytest.raises(SchemaError):
        procedures_from_json('{"kind": "nonrandomized"}')
    with pytest.raises(SchemaError):
        procedure_from_json_dict({"kind": "mystery"})


def test_invalid_problems_rejected():
    with pytest.raises(InvalidProblem):
        FiniteProblem.build(["t"], ["x"], ["a"], model=[[F(1, 2)]], loss=[[0]])
    with pytest.raises(InvalidProblem):
        FiniteProblem.build(["t"], ["x"], ["a"], model=[[1]], loss=[[-1]])
    with pytest.raises(InvalidProblem):
        FiniteProblem.build(["t"], ["x"], ["a"], model=[[2]], loss=[[0]])
    # strings and dicts are iterable, but their items are not table entries
    valid = dict(states=["t"], observations=["x"], actions=["a"], model=[[1]], loss=[[0]])
    for field, value in [("states", "t"), ("observations", "x"), ("actions", "a"),
                         ("model", "1"), ("loss", "0"), ("model", ["1"]), ("loss", ["0"]),
                         ("observations", {"x": 0}), ("states", [("t", "0")]),
                         # labels are strings: str() would make None the label "None"
                         ("states", [None]), ("states", [7]), ("states", [(7, [0])]),
                         ("observations", [1]), ("actions", [["b"]]),
                         ("actions", [(None, 0)])]:
        with pytest.raises(InvalidProblem):
            FiniteProblem.build(**{**valid, field: value})


@pytest.mark.parametrize("action_map", [[1.7], [True], ["1"], "0"],
                         ids=["float", "bool", "string-entry", "string-map"])
def test_nonrandomized_map_needs_integer_actions(action_map):
    with pytest.raises(InvalidProblem):
        Procedure.nonrandomized(action_map)


@pytest.mark.parametrize("rows", ["1", ["10"]], ids=["string-matrix", "string-row"])
def test_randomized_rows_must_be_lists(rows):
    with pytest.raises(InvalidProblem):
        Procedure.randomized(rows)
