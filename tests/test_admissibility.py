"""The domination predicate, and the admissibility verdicts of the prior game."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import lcbayes.priors
from lcbayes.decision import (FiniteProblem, Procedure, ShapeMismatch, dominates, risk,
                              risk_vector)
from lcbayes.lcnum import LCNumber, eps
from lcbayes.priors import check_admissible, max_uniform_improvement
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


def rule_dominates(problem, candidate, challenger, epsilon=0):
    return dominates(risk_vector(problem, candidate), risk_vector(problem, challenger), epsilon)


def dominated_by_some_rule(problem, candidate, epsilon):
    """Is the candidate epsilon-dominated by some randomized rule?

    Read from the prior game: at epsilon > 0 iff epsilon <= epsilon*, and
    at epsilon = 0 iff the candidate is not admissible.
    """
    verdict = check_admissible(problem, candidate)
    return epsilon <= verdict.epsilon_star if epsilon > 0 else not verdict.admissible


# ----------------------------------------------------------------------
# domination
# ----------------------------------------------------------------------


def test_uniform_gap_dominates_at_epsilon_one():
    # risks differ by exactly 1 at each state (hand oracle)
    assert risk_vector(fp2(), ALWAYS_A2) == (F(1), F(2))
    assert risk_vector(fp2(), ALWAYS_A1) == (F(0), F(1))
    assert rule_dominates(fp2(), ALWAYS_A2, ALWAYS_A1, F(1))


def test_crossing_risks_do_not_dominate():
    # (1/2, 1/2) vs (3/4, 1/4): incomparable
    assert not rule_dominates(fp1(), rule(F(1, 2)), rule(F(1, 4)))


def test_self_domination_fails_clause_two():
    proc = rule(F(1, 3))
    assert not rule_dominates(fp1(), proc, proc)


def test_domination_monotone_in_epsilon():
    for epsilon in (F(0), F(1, 3), F(1, 2), F(1)):
        assert rule_dominates(fp2(), ALWAYS_A2, ALWAYS_A1, epsilon)
    assert not rule_dominates(fp2(), ALWAYS_A2, ALWAYS_A1, F(3, 2))


def test_negative_epsilon_rejected():
    for epsilon in (F(-1), -eps()):
        with pytest.raises(ValueError, match="nonnegative"):
            dominates([F(1)], [F(0)], epsilon)


def test_lazy_challenger_is_read_only_until_clause_one_fails():
    read = []

    def challenger():
        for value in (F(0), F(5)):  # clause 1 fails at the second state
            read.append(value)
            yield value
        raise AssertionError("read past the state that refutes clause 1")

    assert not dominates([F(1), F(1), F(1)], challenger())
    assert read == [F(0), F(5)]
    # a lazy challenger that dominates is read to its end, and no further
    assert dominates([F(1), F(1)], iter([F(0), F(1)]))


@pytest.mark.parametrize("challenger, standard", [
    ([F(0)], None),
    ([F(0), F(0), F(0)], None),
    (iter([F(0)]), None),
    (iter([F(0), F(0), F(0)]), None),
    # a sized challenger is measured before clause 1 is read
    ([F(5), F(0), F(0)], None),
    ([F(0), F(0)], [True]),
], ids=["shorter", "longer", "lazy-shorter", "lazy-longer", "longer-and-worse",
        "tag-length"])
def test_shape_mismatch(challenger, standard):
    with pytest.raises(ShapeMismatch):
        dominates([F(1), F(1)], challenger, standard=standard)


def test_infinitesimal_epsilon():
    e = eps()
    cand = [LCNumber(1), LCNumber(2)]
    # clause 1 holds at epsilon = eps; clause 2 decides
    assert not dominates(cand, [c - e for c in cand], e)
    assert dominates(cand, [cand[0] - e, cand[1] - F(1, 2)], e)
    # an eps^2 gap is smaller than epsilon = eps: clause 1 fails
    assert not dominates(cand, [c - e * e for c in cand], e)


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
        assert rule_dominates(problem, ALWAYS_A2, witness, epsilon)
    # beyond epsilon*: no challenger on a fine grid of the rule simplex
    # (risks are affine in p, so grid vertices include the maximizer)
    beyond = estar + F(1, 7)
    assert not any(rule_dominates(problem, ALWAYS_A2, rule(F(j, 50)), beyond)
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
    cand = risk_vector(fp2(), ALWAYS_A2)
    challengers = (rule(F(1, 2)), ALWAYS_A1)
    assert [c for c in challengers
            if dominates(cand, risk_vector(fp2(), c), F(1))] == [ALWAYS_A1]
    only_weak = (rule(F(1, 2)),)
    assert not any(dominates(cand, risk_vector(fp2(), c), F(1)) for c in only_weak)


def test_domination_within_full_randomized_class():
    assert dominated_by_some_rule(fp2(), ALWAYS_A2, F(1))
    verdict = check_admissible(fp2(), ALWAYS_A2)
    assert rule_dominates(fp2(), ALWAYS_A2, verdict.improver, F(1))
    assert not dominated_by_some_rule(fp2(), ALWAYS_A2, F(3, 2))
    # epsilon = 0 reduces to inadmissibility, and the witness dominates
    assert not dominated_by_some_rule(fp1(), rule(F(1, 2)), F(0))
    assert dominated_by_some_rule(fp2(), ALWAYS_A2, F(0))
    assert rule_dominates(fp2(), ALWAYS_A2, verdict.witness)


def test_domination_query_solves_each_lp_once(monkeypatch):
    # the floored prior-game LP gives epsilon* and S*, so each reader solves
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
    # epsilon* = 1: the game LP alone, for the verdict and for epsilon*
    verdict = check_admissible(fp2(), ALWAYS_A2)
    assert (verdict.admissible, verdict.witness) == (False, inadmissible_witness)
    assert len(calls) == 1
    calls.clear()
    assert max_uniform_improvement(fp2(), ALWAYS_A2) == (F(1), uniform_witness)
    assert len(calls) == 1
    calls.clear()
    # inadmissible at epsilon* = 0: the game LP alone as well
    verdict = check_admissible(flat, ALWAYS_A2)
    assert (verdict.admissible, verdict.epsilon_star, verdict.witness) == (
        False, 0, flat_witness)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# domination over tagged Levi-Civita grids
# ----------------------------------------------------------------------


def test_lc_domination_uniform_rational_gap():
    e = eps()
    cand = [LCNumber(1), LCNumber(2) + e]
    chal = [c - F(1, 2) for c in cand]
    assert dominates(cand, chal, F(1, 2))


def test_lc_domination_infinitesimal_gap_fails_clause_two():
    e = eps()
    cand = [LCNumber(1), LCNumber(F(3, 2))]
    chal = [c - e * e for c in cand]
    assert not dominates(cand, chal, LCNumber(0))
    # tagging every state makes no difference: the gap is infinitesimal everywhere
    assert not dominates(cand, chal, LCNumber(0), standard=[True, True])


def test_lc_domination_mixed_grid():
    e = eps()
    cand = [LCNumber(1), LCNumber(1), LCNumber(2)]
    chal = [cand[0] - F(1, 3), cand[1], cand[2] - e]
    tags = [True, True, False]
    assert dominates(cand, chal, LCNumber(0), standard=tags)


def test_lc_domination_untagged_witness_ignored():
    cand = [LCNumber(1), LCNumber(2)]
    chal = [cand[0], cand[1] - F(1, 3)]
    tags = [True, False]
    # the only non-infinitesimal improvement sits on an untagged point
    assert not dominates(cand, chal, LCNumber(0), standard=tags)
    # with no tags, every state counts for clause 2
    assert dominates(cand, chal, LCNumber(0))


def test_lc_domination_rational_risks():
    # plain rationals in place of Levi-Civita risks: clause 2 compares
    # 1 with 1/2 without lifting either side
    assert dominates([F(1), F(1)], [F(1), F(1, 2)])
    assert not dominates([F(1), F(1)], [F(1), F(1)])


def test_lc_agrees_with_rational_domination():
    # lifting rational risks to the larger field preserves the verdict
    cand = risk_vector(fp2(), ALWAYS_A2)
    chal = risk_vector(fp2(), ALWAYS_A1)
    for epsilon in (F(0), F(1, 2), F(1), F(3, 2)):
        lifted = dominates([LCNumber(v) for v in cand], [LCNumber(v) for v in chal], epsilon)
        assert dominates(cand, chal, epsilon) == lifted


def textbook_domination(cand, chal, epsilon, standard):
    """Clause 1 at every state, and the risks differ at some tagged state."""
    tags = standard if standard is not None else [True] * len(cand)
    return (all(d <= c - epsilon for c, d in zip(cand, chal))
            and any(d != c for c, d, tagged in zip(cand, chal, tags) if tagged))


@hst.composite
def risk_pairs(draw):
    n = draw(hst.integers(1, 5))
    rational = hst.fractions(min_value=-3, max_value=3, max_denominator=6)
    cand = draw(hst.lists(rational, min_size=n, max_size=n))
    # offsets at or above epsilon make clause 1 hold often enough to matter
    offset = hst.one_of(hst.just(F(0)), hst.fractions(min_value=-1, max_value=2,
                                                      max_denominator=4))
    chal = [c - draw(offset) for c in cand]
    standard = draw(hst.one_of(hst.none(), hst.lists(hst.booleans(), min_size=n, max_size=n)))
    epsilon = draw(hst.one_of(hst.just(F(0)), hst.fractions(min_value=0, max_value=1,
                                                            max_denominator=4)))
    return cand, chal, epsilon, standard


@settings(max_examples=300, deadline=None)
@given(risk_pairs())
def test_dominates_is_the_textbook_definition(case):
    cand, chal, epsilon, standard = case
    expected = textbook_domination(cand, chal, epsilon, standard)
    assert dominates(cand, chal, epsilon, standard) == expected
    lifted_cand = [LCNumber(v) for v in cand]
    lifted_chal = [LCNumber(v) for v in chal]
    assert dominates(lifted_cand, lifted_chal, epsilon, standard) == expected
    assert dominates(lifted_cand, lifted_chal, LCNumber(epsilon), standard) == expected
