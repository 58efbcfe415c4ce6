"""Classifying procedures in a finite decision problem, exactly.

Two tiny problems with one uninformative observation:

* In the first, choosing between two 0/1 loss columns, every mixture
  lies on the lower face of the risk set: everything is admissible and
  exactly Bayes for some prior.
* In the second, one action costs exactly 1 more than the other at both
  states: the bad rule is 1-dominated, and the game value comes back as
  exactly -1 with a Bayes slack of 1.

Every number is an exact rational produced by a verified LP certificate.
One LP, the prior game, returns one verdict record: epsilon* (the game
value is -epsilon*, and the Bayes slack is epsilon*), the witness prior,
the improving rule and the candidate's risks; the admissibility flags
and the dominating rule are read from it.

Run:  python demos/02_finite_problem_classification.py
"""

from fractions import Fraction as F

from lcbayes import (FiniteProblem, Procedure, classify, risk_vector,
                     synthesize_prior)
from lcbayes.priors import minimal_posterior_scores


def report(problem, procedure, label):
    line = classify(problem, procedure)
    print(f"  {label}")
    print(f"    risks             {risk_vector(problem, procedure)}")
    print(f"    admissible        {line.admissible}")
    print(f"    extended adm.     {line.extended_admissible}")
    print(f"    epsilon*          {line.epsilon_star}")
    print(f"    game value        {-line.epsilon_star}")
    print(f"    witness prior     {line.witness_prior.weights}")
    print(f"    Bayes slack       {line.epsilon_star}")
    if line.witness is not None:
        print(f"    dominating rule   {line.witness.matrix_rows}")
    print()


matching = FiniteProblem.build(
    ["state-1", "state-2"], ["x"], ["act-1", "act-2"],
    model=[[1], [1]], loss=[[0, 1], [1, 0]])

print("Problem A: 0/1 loss, both mixtures on the lower face")
report(matching, Procedure.randomized([[F(1, 2), F(1, 2)]]), "the even mixture")
report(matching, Procedure.nonrandomized([0]), "always the first action")

wasteful = FiniteProblem.build(
    ["state-1", "state-2"], ["x"], ["cheap", "dear"],
    model=[[1], [1]], loss=[[0, 1], [1, 2]])

print("Problem B: the second action costs exactly 1 more everywhere")
report(wasteful, Procedure.nonrandomized([1]), "always the dear action")

print("The witness prior certifies near-Bayes status: for the dear rule,")
game = synthesize_prior(wasteful, Procedure.nonrandomized([1]))
_, best_responses = minimal_posterior_scores(wasteful, game.witness_prior)
print(f"  under prior {game.witness_prior.weights} the best responses per "
      f"observation are {tuple(best_responses)}")
print(f"  and the rule is {game.epsilon_star}-Bayes (slack = -game value exactly).")
