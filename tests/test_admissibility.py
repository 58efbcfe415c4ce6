"""Domination and admissibility verdict tests."""

from fractions import Fraction as F

import pytest

import lcbayes.priors
from lcbayes.admissibility import (DominationQuery, check_admissible,
                                   check_domination, check_lc_domination,
                                   is_epsilon_dominated,
                                   max_uniform_improvement)
from lcbayes.decision import FiniteProblem, Procedure, risk, risk_vector
from lcbayes.lcnum import LCNumber, eps
from lcbayes.ratlp import solve_lp


def fp1():
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 0]])


def fp2():
    # the second action costs exactly 1 more than the first at both states
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 2]])


def rule(p):
    return Procedure.randomized([[p, 1 - p]])


ALWAYS_A1 = Procedure.nonrandomized([0])
ALWAYS_A2 = Procedure.nonrandomized([1])


# ----------------------------------------------------------------------
# domination
# ----------------------------------------------------------------------


def test_uniform_gap_dominates_at_epsilon_one():
    # risks differ by exactly 1 at each state (hand oracle)
    assert risk_vector(fp2(), ALWAYS_A2) == (F(1), F(2))
    assert risk_vector(fp2(), ALWAYS_A1) == (F(0), F(1))
    query = DominationQuery(fp2(), ALWAYS_A2, epsilon=F(1))
    assert check_domination(query, ALWAYS_A1)


def test_crossing_risks_do_not_dominate():
    # (1/2, 1/2) vs (3/4, 1/4): incomparable
    query = DominationQuery(fp1(), rule(F(1, 2)), epsilon=F(0))
    assert not check_domination(query, rule(F(1, 4)))


def test_self_domination_fails_clause_two():
    proc = rule(F(1, 3))
    query = DominationQuery(fp1(), proc, epsilon=F(0))
    assert not check_domination(query, proc)


def test_domination_monotone_in_epsilon():
    for epsilon in (F(0), F(1, 3), F(1, 2), F(1)):
        query = DominationQuery(fp2(), ALWAYS_A2, epsilon=epsilon)
        assert check_domination(query, ALWAYS_A1)
    assert not check_domination(DominationQuery(fp2(), ALWAYS_A2, epsilon=F(3, 2)),
                                ALWAYS_A1)


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        DominationQuery(fp1(), rule(F(1, 2)), epsilon=F(-1))


# ----------------------------------------------------------------------
# maximal uniform improvement
# ----------------------------------------------------------------------


def test_max_improvement_on_dominated_rule():
    estar, witness = max_uniform_improvement(fp2(), ALWAYS_A2)
    assert estar == 1
    assert risk_vector(fp2(), witness) == (F(0), F(1))
    # exhaustive oracle over the one-observation rule simplex: risks are
    # affine in p, so the grid maximum equals the true maximum
    best = max(min(risk(fp2(), ALWAYS_A2, s) - risk(fp2(), rule(F(j, 100)), s)
                   for s in range(2))
               for j in range(101))
    assert best == estar


def test_max_improvement_on_lower_face():
    estar, _ = max_uniform_improvement(fp1(), rule(F(1, 2)))
    assert estar == 0


def test_single_action_nothing_to_improve():
    problem = FiniteProblem.build(["t"], ["x"], ["a"], model=[[1]], loss=[[3]])
    estar, _ = max_uniform_improvement(problem, Procedure.nonrandomized([0]))
    assert estar == 0


def test_epsilon_star_coherence():
    # a challenger exists at epsilon iff epsilon <= epsilon*
    problem = fp2()
    estar, witness = max_uniform_improvement(problem, ALWAYS_A2)
    for epsilon in (F(0), F(1, 2), estar):
        assert check_domination(DominationQuery(problem, ALWAYS_A2, epsilon=epsilon),
                                witness)
    # beyond epsilon*: no challenger on a fine grid of the rule simplex
    # (risks are affine in p, so grid vertices include the maximizer)
    beyond = estar + F(1, 7)
    assert not any(
        check_domination(DominationQuery(problem, ALWAYS_A2, epsilon=beyond),
                         rule(F(j, 50)))
        for j in range(51))


# ----------------------------------------------------------------------
# admissibility verdicts
# ----------------------------------------------------------------------


def test_every_rule_on_the_lower_face_is_admissible():
    # risk set of fp1 is the segment (1-p, p): all points Pareto-minimal
    for j in range(0, 11):
        verdict = check_admissible(fp1(), rule(F(j, 10)))
        assert verdict.admissible
        assert verdict.extended_admissible
        assert verdict.epsilon_star == 0
        assert verdict.witness is None


def test_dominated_rule_flagged_with_witness():
    verdict = check_admissible(fp2(), ALWAYS_A2)
    assert not verdict.admissible
    assert not verdict.extended_admissible
    assert verdict.epsilon_star == 1
    witness_risks = risk_vector(fp2(), verdict.witness)
    candidate_risks = risk_vector(fp2(), ALWAYS_A2)
    assert all(w <= c for w, c in zip(witness_risks, candidate_risks))
    assert witness_risks != candidate_risks


def test_single_state_argmin_is_admissible():
    problem = FiniteProblem.build(["t"], ["x"], ["a1", "a2"],
                                  model=[[1]], loss=[[2, 5]])
    verdict = check_admissible(problem, Procedure.nonrandomized([0]))
    assert verdict.admissible and verdict.extended_admissible


def test_inadmissible_but_extended_admissible():
    # improvement possible at one state only: total slack positive but the
    # uniform improvement is zero
    problem = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                                  model=[[1], [1]], loss=[[0, 0], [0, 1]])
    verdict = check_admissible(problem, ALWAYS_A2)
    assert not verdict.admissible
    assert verdict.extended_admissible
    assert verdict.epsilon_star == 0
    assert verdict.witness is not None


def test_domination_within_explicit_class():
    explicit = DominationQuery(fp2(), ALWAYS_A2, epsilon=F(1),
                               challenger_class=(rule(F(1, 2)), ALWAYS_A1))
    dominated, witness = is_epsilon_dominated(explicit)
    assert dominated and witness == ALWAYS_A1
    only_weak = DominationQuery(fp2(), ALWAYS_A2, epsilon=F(1),
                                challenger_class=(rule(F(1, 2)),))
    assert is_epsilon_dominated(only_weak) == (False, None)


def test_domination_within_full_randomized_class():
    dominated, witness = is_epsilon_dominated(
        DominationQuery(fp2(), ALWAYS_A2, epsilon=F(1)))
    assert dominated
    assert check_domination(DominationQuery(fp2(), ALWAYS_A2, epsilon=F(1)), witness)
    assert is_epsilon_dominated(
        DominationQuery(fp2(), ALWAYS_A2, epsilon=F(3, 2)))[0] is False
    # epsilon = 0 reduces to inadmissibility
    assert is_epsilon_dominated(DominationQuery(fp1(), rule(F(1, 2))))[0] is False
    assert is_epsilon_dominated(DominationQuery(fp2(), ALWAYS_A2))[0] is True


def test_domination_query_solves_each_lp_once(monkeypatch):
    # the floored prior-game LP gives epsilon* and S*, so every query solves
    # it once.  The answers are those of the LP solved directly.
    inadmissible_witness = check_admissible(fp2(), ALWAYS_A2).witness
    uniform_witness = max_uniform_improvement(fp2(), ALWAYS_A2)[1]
    flat = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 0], [0, 1]])
    flat_witness = check_admissible(flat, ALWAYS_A2).witness
    calls = []

    def counting_solve(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.priors, "solve_lp", counting_solve)
    # epsilon* = 1: the game LP alone, at epsilon = 0 and at epsilon > 0
    assert is_epsilon_dominated(DominationQuery(fp2(), ALWAYS_A2)) == (
        True, inadmissible_witness)
    assert len(calls) == 1
    calls.clear()
    assert is_epsilon_dominated(DominationQuery(fp2(), ALWAYS_A2, F(1))) == (
        True, uniform_witness)
    assert len(calls) == 1
    calls.clear()
    # inadmissible at epsilon* = 0: the game LP alone as well
    assert is_epsilon_dominated(DominationQuery(flat, ALWAYS_A2)) == (True, flat_witness)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# domination over tagged Levi-Civita grids
# ----------------------------------------------------------------------


def test_lc_domination_uniform_rational_gap():
    e = eps()
    cand = [LCNumber(1), LCNumber(2) + e]
    chal = [c - F(1, 2) for c in cand]
    assert check_lc_domination(cand, chal, F(1, 2))


def test_lc_domination_infinitesimal_gap_fails_clause_two():
    e = eps()
    cand = [LCNumber(1), LCNumber(F(3, 2))]
    chal = [c - e * e for c in cand]
    assert not check_lc_domination(cand, chal, LCNumber(0))
    # on-all mode makes no difference: the gap is infinitesimal everywhere
    assert not check_lc_domination(cand, chal, LCNumber(0), clause_two_mode="all")


def test_lc_domination_mixed_grid():
    e = eps()
    cand = [LCNumber(1), LCNumber(1), LCNumber(2)]
    chal = [cand[0] - F(1, 3), cand[1], cand[2] - e]
    tags = [True, True, False]
    assert check_lc_domination(cand, chal, LCNumber(0), standard_points=tags)


def test_lc_domination_untagged_witness_ignored():
    e = eps()
    cand = [LCNumber(1), LCNumber(2)]
    chal = [cand[0], cand[1] - F(1, 3)]
    tags = [True, False]
    # the only non-infinitesimal improvement sits on an untagged point
    assert not check_lc_domination(cand, chal, LCNumber(0), standard_points=tags)
    assert check_lc_domination(cand, chal, LCNumber(0), standard_points=tags,
                               clause_two_mode="all")


def test_lc_domination_rational_risks():
    # plain rationals in place of Levi-Civita risks: clause 2 compares
    # 1 with 1/2 without lifting either side
    assert check_lc_domination([F(1), F(1)], [F(1), F(1, 2)], 0)
    assert not check_lc_domination([F(1), F(1)], [F(1), F(1)], 0)


def test_lc_agrees_with_rational_domination():
    # lifting rational risks to the larger field preserves the verdict
    problem = fp2()
    cand = [LCNumber(v) for v in risk_vector(problem, ALWAYS_A2)]
    chal = [LCNumber(v) for v in risk_vector(problem, ALWAYS_A1)]
    for epsilon in (F(0), F(1, 2), F(1)):
        rational = check_domination(
            DominationQuery(problem, ALWAYS_A2, epsilon=epsilon), ALWAYS_A1)
        lifted = check_lc_domination(cand, chal, epsilon)
        assert rational == lifted
