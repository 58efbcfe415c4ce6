"""Prior synthesis, epsilon-Bayes verification, and pushdown tests."""

from fractions import Fraction as F

import pytest

import lcbayes.priors

from lcbayes.decision import (FiniteProblem, Prior, Procedure, ShapeMismatch,
                              SupportMismatch, WeightError, bayes_risk, risk_vector)
from lcbayes.lcnum import LCNumber, NotNearStandard, eps, st
from lcbayes.ratlp import CertificateError
from lcbayes.priors import (classify, max_uniform_improvement, minimal_bayes_risk,
                            minimal_posterior_scores, synthesize_prior, verify_epsilon_bayes)
from lcbayes.families import (BernoulliBoundary, NormalLocationLinear, pushdown,
                              pushdown_risk_consistency)


def fp1():
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 0]])


def fp2():
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 2]])


def rule(p):
    return Procedure.randomized([[p, 1 - p]])


def grid_game_value(problem, procedure, steps=100):
    """Brute-force oracle: maximize the Bayes-risk gap over a prior grid."""
    best = None
    n = problem.n_states
    assert n == 2
    for j in range(steps + 1):
        prior = Prior((F(j, steps), F(steps - j, steps)))
        gap = minimal_bayes_risk(problem, prior) - bayes_risk(problem, procedure, prior)
        if best is None or gap > best:
            best = gap
    return best


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------


def test_symmetric_rule_is_exactly_bayes():
    game = synthesize_prior(fp1(), rule(F(1, 2)))
    assert game.epsilon_star == 0
    assert game.witness_prior.weights == (F(1, 2), F(1, 2))
    # brute force over the 101-point prior grid agrees
    assert grid_game_value(fp1(), rule(F(1, 2))) == 0


def test_dominated_rule_has_negative_value():
    game = synthesize_prior(fp2(), Procedure.nonrandomized([1]))
    assert game.epsilon_star == 1
    assert verify_epsilon_bayes(fp2(), risk_vector(fp2(), Procedure.nonrandomized([1])),
                                game.witness_prior, game.epsilon_star)


def test_boundary_rule_supported_by_axis_prior():
    game = synthesize_prior(fp1(), rule(F(0)))  # risks (1, 0)
    assert game.epsilon_star == 0
    assert verify_epsilon_bayes(fp1(), game.candidate_risks, game.witness_prior, F(0))
    # the returned prior puts no mass where the candidate is beaten
    assert bayes_risk(fp1(), rule(F(0)), game.witness_prior) == \
        minimal_bayes_risk(fp1(), game.witness_prior)


def test_exact_tie_needs_exact_weights():
    # risks (1, 1, 0) and (0, 0, 3/7) tie under (1/10, 2/10, 7/10); in floats
    # 0.1 + 0.2 > 0.7 * 3/7 would break the tie, so float weights are refused
    problem = FiniteProblem.build(["t1", "t2", "t3"], ["x"], ["a1", "a2"], model=[[1]] * 3,
                                  loss=[[1, 0], [1, 0], [0, F(3, 7)]])
    prior = Prior((F(1, 10), F(2, 10), F(7, 10)))
    assert verify_epsilon_bayes(problem, risk_vector(problem, Procedure.nonrandomized([0])),
                                prior, F(0))
    with pytest.raises(WeightError):
        Prior((0.1, 0.2, 0.7))


def test_inner_best_responses_minimize():
    game = synthesize_prior(fp1(), rule(F(1, 2)))
    _, best_responses = minimal_posterior_scores(fp1(), game.witness_prior)
    assert len(best_responses) == 1
    # under the uniform prior both actions tie
    assert best_responses[0] == (0, 1)


def test_duality_identity_against_uniform_improvement():
    for problem, procedure in [(fp1(), rule(F(1, 2))), (fp1(), rule(F(0))),
                               (fp2(), Procedure.nonrandomized([1])),
                               (fp2(), Procedure.nonrandomized([0]))]:
        estar, _ = max_uniform_improvement(problem, procedure)
        game = synthesize_prior(problem, procedure)
        assert game.epsilon_star == estar
        assert grid_game_value(problem, procedure) == -estar


# ----------------------------------------------------------------------
# epsilon-Bayes verification
# ----------------------------------------------------------------------


def test_symmetric_rule_exact_bayes_under_uniform():
    # minimum Bayes risk under the uniform prior is 1/2
    assert minimal_bayes_risk(fp1(), Prior.uniform(2)) == F(1, 2)
    assert verify_epsilon_bayes(fp1(), risk_vector(fp1(), rule(F(1, 2))), Prior.uniform(2),
                                F(0))


def test_extreme_rule_recomputed_by_oracle():
    # under the uniform prior every rule has Bayes risk exactly 1/2, so the
    # extreme rule is 0-Bayes there; under the point prior on the first
    # state its Bayes risk is 1 against a minimum of 0
    p0 = rule(F(0))
    assert bayes_risk(fp1(), p0, Prior.uniform(2)) == F(1, 2)
    assert verify_epsilon_bayes(fp1(), risk_vector(fp1(), p0), Prior.uniform(2), F(0))
    point = Prior((F(1), F(0)))
    assert bayes_risk(fp1(), p0, point) == 1
    assert minimal_bayes_risk(fp1(), point) == 0
    assert not verify_epsilon_bayes(fp1(), risk_vector(fp1(), p0), point, F(1, 2))
    assert verify_epsilon_bayes(fp1(), risk_vector(fp1(), p0), point, F(1))
    with pytest.raises(ShapeMismatch, match="one risk per state"):
        verify_epsilon_bayes(fp1(), risk_vector(fp1(), p0)[:1], point, F(1))


def test_levi_civita_point_prior_bayes():
    # prior (1 - eps, eps): the always-first-action rule has Bayes risk eps,
    # which is exactly the minimal Bayes risk, so it is 0-Bayes in the field
    e = eps()
    prior = Prior(weights=(LCNumber(1) - e, e))
    always_a1 = rule(F(1))
    assert bayes_risk(fp1(), always_a1, prior) == e
    assert minimal_bayes_risk(fp1(), prior) == e
    assert verify_epsilon_bayes(fp1(), risk_vector(fp1(), always_a1), prior, LCNumber(0))


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


def test_classify_symmetric_rule():
    report = classify(fp1(), rule(F(1, 2)))
    assert report.admissible and report.extended_admissible
    assert report.epsilon_star == 0 and report.total_slack == 0
    assert report.witness is None


def test_classify_dominated_rule():
    report = classify(fp2(), Procedure.nonrandomized([1]))
    assert not report.admissible and not report.extended_admissible
    assert report.epsilon_star == 1
    assert report.witness is report.improver


def test_classify_single_action():
    problem = FiniteProblem.build(["t"], ["x"], ["a"], model=[[1]], loss=[[1]])
    report = classify(problem, Procedure.nonrandomized([0]))
    assert report.admissible and report.extended_admissible
    assert report.epsilon_star == 0


def flat():
    # always-a2 has risks (0, 1) and always-a1 (0, 0): epsilon* = 0, S* = 1
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 0], [0, 1]])


def test_game_reports_total_slack():
    game = synthesize_prior(flat(), Procedure.nonrandomized([1]))
    assert (game.epsilon_star, game.total_slack) == (0, 1)
    assert game.extended_admissible and not game.admissible
    # the improver is always-a1, the prior st(pi) puts all mass on t1
    assert game.improver.matrix(2) == ((1, 0),)
    assert game.witness_prior.weights == (1, 0)
    assert synthesize_prior(fp2(), Procedure.nonrandomized([1])).total_slack == 0
    assert synthesize_prior(fp1(), rule(F(1, 2))).total_slack == 0


def corrupting(monkeypatch, corrupt):
    """Make classify read a verdict that ``corrupt`` has altered."""
    original = lcbayes.priors.check_admissible
    monkeypatch.setattr(lcbayes.priors, "check_admissible",
                        lambda problem, procedure: corrupt(original(problem, procedure)))


@pytest.mark.parametrize("problem, candidate, corrupt, message", [
    # epsilon* = 1 read as 0: the improver's slacks sum to 2, not S* = 0
    (fp2, Procedure.nonrandomized([1]),
     lambda v: v.replace(epsilon_star=F(0)), "total slack 2 is not S"),
    # epsilon* = 1 read as 2: no state improves by 2
    (fp2, Procedure.nonrandomized([1]),
     lambda v: v.replace(epsilon_star=F(2)), "does not improve uniformly"),
    # S* = 1 read as 2, and as 0
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(total_slack=F(2)), "total slack 1 is not S"),
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(total_slack=F(0)), "total slack 1 is not S"),
    # the improver replaced by the candidate itself: at epsilon* = 0 its
    # slacks sum to 0, not S* = 1; at epsilon* = 1 it improves nowhere
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(improver=Procedure.randomized([[0, 1]])),
     "total slack 0 is not S"),
    (fp2, Procedure.nonrandomized([1]),
     lambda v: v.replace(improver=Procedure.randomized([[0, 1]])),
     "does not improve uniformly"),
    # the improver always-a1 taken twice: a1's score column is zero, so its
    # risks, slacks and the epsilon*-Bayes test are always-a1's
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(improver=Procedure("randomized", matrix_rows=((F(2), F(0)),))),
     "the improver is not a randomized rule"),
    # weights (2, -1) sum to 1 but are no rule
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(improver=Procedure("randomized", matrix_rows=((F(2), F(-1)),))),
     "the improver is not a randomized rule"),
    # the witness prior (1/2, 1/2) moved to t1, where always-a1 beats the
    # candidate's Bayes risk 1/2 by 1/2 > eps* = 0
    (fp1, rule(F(1, 2)),
     lambda v: v.replace(witness_prior=Prior.point(0, 2)),
     "witness prior fails epsilon-Bayes verification"),
    # the candidate's risks (0, 1) read reversed: the slacks (1, 0) of the
    # improver always-a1 still sum to S* = 1; the fresh risk vector, checked
    # before the epsilon-Bayes test that reads these risks, shows the
    # corruption
    (flat, Procedure.nonrandomized([1]),
     lambda v: v.replace(candidate_risks=v.candidate_risks[::-1]),
     "candidate risks are not the candidate's"),
], ids=["eps-low", "eps-high", "slack-high", "slack-zero", "improver-flat",
        "improver-fp2", "improver-twice", "improver-negative", "prior-weight",
        "candidate-risks"])
def test_classify_rejects_corrupted_verdict(monkeypatch, problem, candidate, corrupt,
                                            message):
    # one problem for both calls: its score table, built by the first,
    # must hold nothing that depends on the verdict's prior
    problem = problem()
    classify(problem, candidate)  # the uncorrupted verdict passes
    corrupting(monkeypatch, corrupt)
    with pytest.raises(CertificateError, match=message):
        classify(problem, candidate)


def test_domination_inherits_bayes():
    # a rule that is exactly Bayes yet dominated: its dominator must be
    # exactly Bayes under the same witness prior
    problem = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                                  model=[[1], [1]], loss=[[1, 1], [0, 1]])
    dominated = Procedure.nonrandomized([1])   # risks (1, 1)
    dominator = Procedure.nonrandomized([0])   # risks (1, 0)
    point = Prior((F(1), F(0)))
    assert verify_epsilon_bayes(problem, risk_vector(problem, dominated), point, F(0))
    assert all(a <= b for a, b in zip(risk_vector(problem, dominator),
                                       risk_vector(problem, dominated)))
    assert verify_epsilon_bayes(problem, risk_vector(problem, dominator), point, F(0))


# ----------------------------------------------------------------------
# pushdown
# ----------------------------------------------------------------------


def test_pushdown_standard_parts():
    e = eps()
    prior = Prior(support=((e,), (1 + e * e,)),
                  weights=(LCNumber(F(1, 2)), LCNumber(F(1, 2))))
    pushed = pushdown(prior)
    assert pushed.support == ((F(0),), (F(1),))
    assert pushed.weights == (F(1, 2), F(1, 2))


def test_pushdown_merges_monad_mates():
    e = eps()
    prior = Prior(support=((e,), (2 * e,)),
                  weights=(LCNumber(F(1, 3)), LCNumber(F(2, 3))))
    pushed = pushdown(prior)
    assert pushed.support == ((F(0),),)
    assert pushed.weights == (F(1),)


def test_pushdown_rejects_infinite_support():
    with pytest.raises(NotNearStandard):
        pushdown(Prior(support=((eps().inverse(),),), weights=(LCNumber(1),)))


def test_pushdown_preserves_mass_and_fixes_standard_priors():
    e = eps()
    prior = Prior(
        support=((LCNumber(F(1, 4)),), (LCNumber(F(3, 4)),)),
        weights=(LCNumber(F(2, 5)), LCNumber(F(3, 5))))
    pushed = pushdown(prior)
    assert sum(pushed.weights) == 1
    assert pushed.support == ((F(1, 4),), (F(3, 4),))
    assert pushed.weights == (F(2, 5), F(3, 5))
    # infinitesimal perturbations do not move the pushdown
    perturbed = Prior(
        support=((LCNumber(F(1, 4)) + e,), (LCNumber(F(3, 4)) - e * e,)),
        weights=(LCNumber(F(2, 5)) , LCNumber(F(3, 5))))
    assert pushdown(perturbed) == pushed


def test_pushdown_of_a_standard_prior_is_itself():
    standard = Prior(support=((F(1, 4), F(-2)), (F(3, 4), F(0))), weights=(F(2, 5), F(3, 5)))
    assert pushdown(standard) == standard
    e = eps()
    for prior in (standard, Prior.at((F(1, 2),)),
                  Prior(support=((e,), (1 + e * e,), (2 * e,)),
                        weights=(LCNumber(F(1, 4)), LCNumber(F(1, 2)), LCNumber(F(1, 4))))):
        assert pushdown(pushdown(prior)) == pushdown(prior)


def test_pushdown_needs_parameter_points():
    with pytest.raises(SupportMismatch):
        pushdown(Prior.uniform(2))


# ----------------------------------------------------------------------
# pushdown risk consistency
# ----------------------------------------------------------------------


def test_boundary_discontinuity_detected():
    # the jump of the success probability at 0 breaks the consistency flag
    family = BernoulliBoundary()
    prior = Prior.at((eps(),))
    lc_value, std_value, agree = pushdown_risk_consistency(
        family, (F(0), F(0)), prior)
    assert lc_value == eps() ** 2
    assert std_value == 1
    assert not agree


def test_interior_point_consistent():
    family = BernoulliBoundary()
    prior = Prior.at((LCNumber(F(1, 2)) + eps(),))
    lc_value, std_value, agree = pushdown_risk_consistency(
        family, (F(0), F(0)), prior)
    assert std_value == F(1, 4)
    assert st(lc_value) == F(1, 4)
    assert agree


def test_polynomial_location_risk_consistent():
    family = NormalLocationLinear(1)
    prior = Prior.at((1 + eps(),))
    lc_value, std_value, agree = pushdown_risk_consistency(family, F(1, 2), prior)
    assert agree
    assert std_value == family.risk(F(1, 2), (F(1),))


def test_standard_prior_risk_consistency():
    # rational weights on rational points: both risks are the same rational
    location = NormalLocationLinear(2)
    prior = Prior(support=((F(1), F(0)), (F(0), F(-3, 2))), weights=(F(1, 3), F(2, 3)))
    value, std_value, agree = pushdown_risk_consistency(location, F(1, 2), prior)
    assert value == std_value == 2 * F(1, 4) + F(1, 4) * (F(1, 3) + F(2, 3) * F(9, 4))
    assert agree
    value, std_value, agree = pushdown_risk_consistency(
        BernoulliBoundary(), (F(0), F(0)), Prior.at((F(1, 2),)))
    assert value == std_value == F(1, 4)
    assert agree
