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
observation, because m_x is free, so they form a randomized rule D, and
D attains both epsilon* and S*.  The standard part st(pi) is a prior
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
from .decision import FiniteProblem, Prior, Procedure, ShapeMismatch, risk_vector
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
    Works for rational and Levi-Civita prior weights alike.
    """
    weights = {}
    for idx, w in prior.items(problem.n_states):
        weights[idx] = weights.get(idx, 0) + w
    scores, argmins = [], []
    for score_row in problem.scores:
        per_action = [sum(w * column[s] for s, w in weights.items())
                      for column in score_row]
        best = min(per_action)
        scores.append(best)
        argmins.append(tuple(a for a, v in enumerate(per_action) if v == best))
    return scores, argmins


def minimal_bayes_risk(problem: FiniteProblem, prior: Prior):
    """Exact minimum Bayes risk over all randomized procedures."""
    scores, _ = minimal_posterior_scores(problem, prior)
    return sum(scores)


def synthesize_prior(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """Witness prior, epsilon*, S* and improver for one candidate.

    LP variables: pi'_theta >= 0 and a free m_x per observation, with
    pi_theta = eta + pi'_theta summing to 1; maximize sum_x m_x -
    sum_theta pi_theta r(theta, cand) subject to m_x <= sum_theta
    pi_theta scores[x][a][theta] for every (x, a), the rows of
    :attr:`FiniteProblem.scores`.  In pi' the rows read sum pi' = 1 - n
    eta and m_x - sum_theta pi'_theta scores[x][a][theta] <= eta times
    the row's sum, so eta sits on the right-hand side only, and the LP
    objective omits the constant -eta sum_theta r(theta, cand).  At the
    optimum m_x equals the posterior-score minimum, so the value is
    min_{D} r(pi, D) - r(pi, cand), maximized over the floored priors.
    The duals of the (x, a) rows are the improver D, which
    :func:`lcbayes.ratlp.check_certificate` has verified with the solve.
    """
    target = risk_vector(problem, procedure)
    n_states, n_obs, n_act = problem.n_states, problem.n_observations, problem.n_actions
    # variables: pi'_theta, then m_x
    objective = [-target[s] for s in range(n_states)] + [Fraction(1)] * n_obs
    rows = [[Fraction(1)] * n_states + [Fraction(0)] * n_obs]
    relations, rhs, rhs_eta = [EQ], [Fraction(1)], [Fraction(-n_states)]
    for x, score_row in enumerate(problem.scores):
        for column in score_row:
            row = [-v for v in column] + [Fraction(0)] * n_obs
            row[n_states + x] = Fraction(1)
            rows.append(row)
            relations.append(LEQ)
            rhs.append(Fraction(0))
            rhs_eta.append(sum(column))

    lower: list[Optional[Fraction]] = [Fraction(0)] * n_states + [None] * n_obs
    lp = LPProblem.build(objective, rows, relations, rhs, lower=lower, rhs_eta=rhs_eta)
    sol = solve_lp(lp)
    # the duals of the (x, a) rows, after the sum-to-1 row, are D's delta(x, a)
    improver = Procedure("randomized", matrix_rows=tuple(
        tuple(sol.row_duals[1 + x * n_act:1 + (x + 1) * n_act]) for x in range(n_obs)))
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
    improver's recomputed risk is at most r(theta, candidate) - epsilon*
    at every state (so epsilon* is attained), its slacks sum to S*, the
    eta part of the game value, and the candidate is epsilon*-Bayes under
    the witness prior by the separable minimum (so no rule improves by
    more).
    These checks cover the witness too: an inadmissible verdict's witness
    is the improver, which is better everywhere when epsilon* > 0, and
    has slacks summing to S* > 0 when epsilon* = 0.
    """
    verdict = check_admissible(problem, procedure)
    if verdict.candidate_risks != risk_vector(problem, procedure):
        raise CertificateError("the verdict's candidate risks are not the candidate's")
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
