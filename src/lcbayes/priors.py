"""The prior game and the admissibility verdicts read from it.

The synthesis LP is the zero-sum game dual of the uniform-improvement
problem: over priors pi it maximizes

    [ minimal Bayes risk over all randomized rules under pi ]
      - [ Bayes risk of the candidate under pi ]

using the separability of the inner minimum over observations.  Every
prior weight is floored at eta, a positive infinitesimal: pi_theta =
eta + pi'_theta with pi' >= 0.  This is the paper's nonstandard Bayes
prior made into the LP; the solver keeps eta exact as a second
coefficient of the right-hand side (:mod:`lcbayes.ratlp`).

The game value is -(epsilon* + eta S*): epsilon* is the largest uniform
improvement over the candidate, and S* the largest total slack
sum_theta (r(theta, cand) - epsilon* - risk(theta, D)) of a rule D that
improves by epsilon*.  The duals of the (x, a) rows sum to 1 per
observation (m_x's dual constraint is tight), so they form a rule D,
and D attains both epsilon* and S*.  The standard part st(pi) is a prior
under which the candidate is epsilon*-Bayes: a separating-hyperplane
normal over the finite risk set, produced without any convex-hull
construction.

So this one LP gives every verdict, and this module reads and checks
it.  :func:`synthesize_prior` returns one :class:`AdmissibilityVerdict`
holding epsilon*, S*, st(pi), D and the candidate's risks; the
candidate is extended admissible exactly when epsilon* = 0, admissible
exactly when also S* = 0, and otherwise D dominates it.
:func:`check_admissible` reads that record and :func:`classify`
re-checks it against the problem data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ._record import Record
from .decision import (FiniteProblem, Prior, Procedure, ShapeMismatch, over_one_denominator,
                       risk_vector)
from .ratlp import EQ, LEQ, CertificateError, LPProblem, solve_lp


class AdmissibilityVerdict(Record):
    """What the floored prior game returns for one candidate procedure.

    The game value -(epsilon* + eta S*) settles every verdict: the
    candidate is extended admissible exactly when epsilon* = 0, and
    admissible exactly when also S* = 0; otherwise the improver
    dominates it and is the witness.
    """

    epsilon_star: Fraction                 # the largest uniform improvement, >= 0
    total_slack: Fraction                  # S* = -(eta coefficient of the game value)
    witness_prior: Prior                   # st(pi): the candidate is epsilon*-Bayes under it
    improver: Procedure                    # risk <= candidate risk - epsilon* at every state
    candidate_risks: Tuple[Fraction, ...]  # the game's payoff data: r(theta, candidate)

    @property
    def extended_admissible(self) -> bool:
        return self.epsilon_star == 0

    @property
    def admissible(self) -> bool:
        return self.epsilon_star == 0 and self.total_slack == 0

    @property
    def witness(self) -> Optional[Procedure]:
        """The dominating rule, or None for an admissible candidate."""
        return None if self.admissible else self.improver


# ----------------------------------------------------------------------
# prior synthesis
# ----------------------------------------------------------------------


def minimal_posterior_scores(problem: FiniteProblem, prior: Prior):
    """For each observation x, min_a sum_theta pi(theta) scores[x][a][theta].

    Returns (scores per observation, optimal-action tuples per observation).
    Works for rational and Levi-Civita prior weights alike: the weights
    multiply the integer numerators of :attr:`FiniteProblem.integer_scores`,
    rational ones lifted to integers over one denominator first, and one
    positive scale turns each observation's minimum into its score, so the
    optimal actions are those of the unscaled sums.
    """
    weights = {}
    for idx, w in prior.items(problem.n_states):
        weights[idx] = weights.get(idx, 0) + w
    states, values = list(weights), list(weights.values())
    weight_den = 1
    if all(isinstance(w, (int, Fraction)) for w in values):
        values, weight_den = over_one_denominator(values)
    numerators, den = problem.integer_scores
    scale = Fraction(1, den * weight_den)
    scores, argmins = [], []
    for score_row in numerators:
        per_action = [sum(w * column[s] for s, w in zip(states, values))
                      for column in score_row]
        best = min(per_action)
        scores.append(best * scale)
        argmins.append(tuple(a for a, v in enumerate(per_action) if v == best))
    return scores, argmins


def minimal_bayes_risk(problem: FiniteProblem, prior: Prior):
    """Exact minimum Bayes risk over all randomized procedures."""
    scores, _ = minimal_posterior_scores(problem, prior)
    return sum(scores)


def _undominated_rows(problem: FiniteProblem) -> list[Tuple[int, int]]:
    """The (x, a) pairs, in order, whose integer score column at x no other
    action's column dominates.  Action b dominates a at x when its column is
    entrywise <= a's and either differs from it or b < a, so of equal
    columns the lowest index stays.  Every left-out pair has a dominator
    that stays, because the relation is transitive."""
    numerators, _ = problem.integer_scores
    return [(x, a) for x, score_row in enumerate(numerators)
            for a, column in enumerate(score_row)
            if not any((b < a or other != column) and all(o <= v for o, v in zip(other, column))
                       for b, other in enumerate(score_row))]


def synthesize_prior(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """Witness prior, epsilon*, S* and improver for one candidate.

    LP variables: pi'_theta >= 0 and m_x >= 0 per observation, with
    pi_theta = eta + pi'_theta summing to 1; maximize sum_x m_x -
    sum_theta pi_theta r(theta, cand) subject to m_x <= sum_theta
    pi_theta scores[x][a][theta] for every (x, a).  In pi' the rows read
    sum pi' = 1 - n eta and m_x - sum_theta pi'_theta scores[x][a][theta]
    <= eta times the row's sum, so eta sits on the right-hand side only,
    and the LP objective omits the constant -eta sum_theta r(theta, cand).
    Each (x, a) row is taken times den, the denominator of
    :attr:`FiniteProblem.integer_scores`, so it holds that table's integers.
    At the optimum m_x equals the posterior-score minimum, so the value is
    min_{D} r(pi, D) - r(pi, cand), maximized over the floored priors.
    den times the duals of the (x, a) rows is the improver D, which
    :func:`lcbayes.ratlp.check_certificate` has verified with the solve.

    As the loss is nonnegative, m_x >= 0 loses nothing and keeps the
    pivots of the game with a free m_x = m+ - m-.  Raising a negative m_x
    to 0 keeps every (x, a) row, whose pi' part is <= 0 <= eta times its
    sum, and raises the objective.  Phase 1 is one pivot: pi'_0 enters the
    sum row, where the m columns have no entry and no cost.  In phase 2
    m-'s reduced cost is minus m+'s.  While m+ is nonbasic, m_x = 0, so a
    kept row with a nonzero column has a basic slack >= eta times its sum
    > 0, dual 0, and m+ prices at -1; a zero column at x dominates the
    others, so its row alone is kept at x, and m+ enters it at ratio 0 and
    stays basic.  So m- never enters; as its entries are m+'s negated,
    leaving it out keeps the column order and every row's gcd, hence every
    pivot, x, x_eta, value and dual.  At the free game's optimum m+ and m-
    both price at 0, so D's rows sum to 1, which :func:`classify` checks.

    Only the rows of :func:`_undominated_rows` are built: an (x, a) whose
    score column some b's column dominates gets no row, and 0 in D.  The
    LP is the full game's with those rows and their slack columns left
    out, and it takes the same pivots.  If b's integer column at x is
    entrywise <= a's and differs from it, the (x, a) row's slack is the
    (x, b) row's plus sum_theta pi_theta (numerators[x][a][theta] -
    numerators[x][b][theta]): nonnegative integers, one of them positive,
    times weights pi_theta >= eta, so at least eta.  That slack is
    positive at every feasible point, so it never leaves the basis nor
    ties a ratio test; as a basic column it has reduced cost 0, so it
    never enters, and its dual is 0.  A pivot updates each row from the
    pivot row alone, and leaving the column out keeps the relative order
    of the others, on which Bland's entering rule and the basis-index
    tie-break act, so every other row, the reduced-cost row and every
    pivot are the full game's.  Of two equal columns the rows are equal,
    their ratios tie, and the lower index's slack, the lower basis index,
    wins every such tie, so the higher twin's slack stays basic, equal to
    the lower's, and plays no part.  Hence x, x_eta, the game value and
    the kept duals are the full game's, and the left-out duals are the
    full game's zeros.
    """
    target = risk_vector(problem, procedure)
    n_states, n_obs, n_act = problem.n_states, problem.n_observations, problem.n_actions
    # variables: pi'_theta, then m_x
    objective = [-target[s] for s in range(n_states)] + [1] * n_obs
    rows = [[1] * n_states + [0] * n_obs]
    relations, rhs, rhs_eta = [EQ], [1], [-n_states]
    numerators, den = problem.integer_scores
    kept = _undominated_rows(problem)
    for x, a in kept:
        column = numerators[x][a]
        row = [-v for v in column] + [0] * n_obs
        row[n_states + x] = den
        rows.append(row)
        relations.append(LEQ)
        rhs.append(0)
        rhs_eta.append(sum(column))

    sol = solve_lp(LPProblem.build(objective, rows, relations, rhs, rhs_eta=rhs_eta))
    # D's delta(x, a) is den times the dual of the (x, a) row, after the sum-to-1 row
    matrix = [[Fraction(0)] * n_act for _ in range(n_obs)]
    for (x, a), y in zip(kept, sol.row_duals[1:]):
        matrix[x][a] = den * y
    improver = Procedure("randomized", matrix_rows=tuple(map(tuple, matrix)))
    return AdmissibilityVerdict(epsilon_star=-sol.objective_value,
                                total_slack=sum(target) - sol.objective_value_eta,
                                witness_prior=Prior(tuple(sol.x[:n_states])),
                                improver=improver, candidate_risks=target)


def verify_epsilon_bayes(problem: FiniteProblem, risks: Sequence[Fraction],
                         prior: Prior, epsilon) -> bool:
    """Is a procedure with risk vector ``risks`` (see
    :func:`lcbayes.decision.risk_vector`) within epsilon of the minimal
    Bayes risk under the prior?

    Exact in the prior's scalar field; the inner minimum over all
    randomized procedures separates over observations.
    """
    if len(risks) != problem.n_states:
        raise ShapeMismatch("need one risk per state")
    bayes = sum(w * risks[idx] for idx, w in prior.items(problem.n_states))
    return bayes <= minimal_bayes_risk(problem, prior) + epsilon


def max_uniform_improvement(problem: FiniteProblem,
                            procedure: Procedure) -> Tuple[Fraction, Procedure]:
    """The largest uniform risk improvement available over the candidate.

    epsilon* is the largest e such that some randomized D has
    risk(theta, D) <= risk(theta, candidate) - e for every theta.  It is
    0 or more (take D = candidate), and the candidate is extended
    admissible exactly when it is 0.  By LP duality it is minus the
    prior-game value, and the game's improver is such a D.
    """
    verdict = synthesize_prior(problem, procedure)
    return verdict.epsilon_star, verdict.improver


def check_admissible(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """Exact admissibility and extended admissibility in one verdict.

    The floored prior game gives epsilon* and S*.  If epsilon* > 0 the
    candidate is neither admissible nor extended admissible; if
    epsilon* = 0 it is extended admissible, and admissible iff S* = 0.
    When it is not admissible, the game's improver, better by epsilon* at
    every state and with total slack S* > 0, dominates it and is the
    witness.
    """
    return synthesize_prior(problem, procedure)


def classify(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """:func:`check_admissible`'s verdict, checked against the problem data.

    The verdict comes from one LP, so it is checked here: its payoff data
    r(theta, candidate) are the candidate's recomputed risks, the
    improver is a randomized rule whose recomputed risk is at most
    r(theta, candidate) - epsilon* at every state (so epsilon* is
    attained), its slacks sum to S*, the eta part of the game value, and
    the candidate is epsilon*-Bayes under the witness prior by the
    separable minimum (so no rule improves by more).
    These checks cover the witness too: an inadmissible verdict's witness
    is the improver, which is better everywhere when epsilon* > 0, and
    has slacks summing to S* > 0 when epsilon* = 0.
    """
    verdict = check_admissible(problem, procedure)
    if verdict.candidate_risks != risk_vector(problem, procedure):
        raise CertificateError("the verdict's candidate risks are not the candidate's")
    if any(min(r) < 0 or sum(r) != 1 for r in verdict.improver.matrix(problem.n_actions)):
        raise CertificateError("the improver is not a randomized rule")
    epsilon_star = verdict.epsilon_star
    slacks = [r - epsilon_star - d for d, r in
              zip(risk_vector(problem, verdict.improver), verdict.candidate_risks)]
    if any(s < 0 for s in slacks):
        raise CertificateError(f"improver does not improve uniformly by eps*={epsilon_star}")
    total_slack = sum(slacks)
    if total_slack != verdict.total_slack:
        raise CertificateError(f"improver's total slack {total_slack} is not "
                               f"S*={verdict.total_slack}")
    if not verify_epsilon_bayes(problem, verdict.candidate_risks, verdict.witness_prior,
                                epsilon_star):
        raise CertificateError("witness prior fails epsilon-Bayes verification")
    return verdict
