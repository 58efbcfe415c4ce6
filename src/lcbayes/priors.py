"""The prior game, the admissibility verdicts read from it, and prior pushdowns.

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
it.  :func:`check_admissible` reads epsilon* and S*: the candidate is
extended admissible exactly when epsilon* = 0, admissible exactly when
also S* = 0, and otherwise D dominates it.  :func:`classify` re-checks
that verdict against the problem data.

Priors with Levi-Civita weights (possibly supported on infinitesimal or
otherwise nonstandard points) push down to standard priors by taking
standard parts of their support, with group-summed weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .decision import FiniteProblem, Prior, Procedure, bayes_risk, risk_vector
from .lcnum import LCNumber, NotNearStandard
from .ratlp import EQ, LEQ, CertificateError, LPProblem, LPStatus, solve_lp


@dataclass(frozen=True)
class GameAnalysis:
    """Outcome of the prior-synthesis game for one candidate procedure."""

    value: Fraction                       # v* = -epsilon*, always <= 0
    witness_prior: Prior                  # st(pi), the standard part of the floored prior
    slack: Fraction                       # max(0, -v*): the epsilon in epsilon-Bayes
    prior_possibly_nonunique: bool        # optimal prior is not unique when v* < 0
    improver: Procedure                   # risk <= candidate risk - epsilon* at every state
    candidate_risks: Tuple[Fraction, ...]  # the game's payoff data: r(theta, candidate)
    total_slack: Fraction                 # S* = -(eta coefficient of the game value)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    extended_admissible: bool
    epsilon_star: Fraction
    game: GameAnalysis                    # the prior-game solve that gave epsilon*
    witness: Optional[Procedure] = None


@dataclass(frozen=True)
class LCPrior:
    """Probability weights with Levi-Civita values on explicit points.

    Support points are tuples of Levi-Civita coordinates (dimension d of
    the parameter space); weights are nonnegative and sum exactly to 1
    in the Levi-Civita order.
    """

    support: Tuple[Tuple[LCNumber, ...], ...]
    weights: Tuple[LCNumber, ...]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not self.support:
            raise ValueError("prior needs at least one support point")
        if any(w < 0 for w in self.weights):
            raise ValueError("prior weights must be nonnegative")
        if sum(self.weights) != 1:
            raise ValueError("prior weights must sum exactly to 1")

    @staticmethod
    def point(point: Sequence[LCNumber]) -> "LCPrior":
        pt = tuple(point)
        one = LCNumber(1, min(c.order for c in pt))
        return LCPrior((pt,), (one,))


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


def synthesize_prior(problem: FiniteProblem, procedure: Procedure) -> GameAnalysis:
    """Witness prior, game value and improver for one candidate.

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
    assert sol.status is LPStatus.OPTIMAL
    value = sol.objective_value
    prior = Prior(tuple(sol.x[:n_states]))
    slack = max(Fraction(0), -value)
    # the duals of the (x, a) rows, after the sum-to-1 row, are D's delta(x, a)
    improver = Procedure("randomized", matrix_rows=tuple(
        tuple(sol.row_duals[1 + x * n_act:1 + (x + 1) * n_act]) for x in range(n_obs)))
    return GameAnalysis(value=value, witness_prior=prior, slack=slack,
                        prior_possibly_nonunique=value < 0, improver=improver,
                        candidate_risks=target,
                        total_slack=sum(target) - sol.objective_value_eta)


def verify_epsilon_bayes(problem: FiniteProblem, procedure: Procedure,
                         prior: Prior, epsilon) -> bool:
    """Is the procedure within epsilon of the minimal Bayes risk under the prior?

    Exact in the prior's scalar field; the inner minimum over all
    randomized procedures separates over observations.
    """
    return bayes_risk(problem, procedure, prior) <= minimal_bayes_risk(problem, prior) + epsilon


def max_uniform_improvement(problem: FiniteProblem,
                            procedure: Procedure) -> Tuple[Fraction, Procedure]:
    """The largest uniform risk improvement available over the candidate.

    epsilon* is the largest e such that some randomized D has
    risk(theta, D) <= risk(theta, candidate) - e for every theta.  It is
    0 or more (take D = candidate), and the candidate is extended
    admissible exactly when it is 0.  By LP duality it is minus the
    prior-game value, and the game's improver is such a D.
    """
    game = synthesize_prior(problem, procedure)
    return -game.value, game.improver


def check_admissible(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """Exact admissibility and extended admissibility in one verdict.

    The floored prior game gives epsilon* and S*.  If epsilon* > 0 the
    candidate is neither admissible nor extended admissible; if
    epsilon* = 0 it is extended admissible, and admissible iff S* = 0.
    When it is not admissible, the game's improver, better by epsilon* at
    every state and with total slack S* > 0, dominates it and is the
    witness.
    """
    game = synthesize_prior(problem, procedure)
    epsilon_star = -game.value
    admissible = epsilon_star == 0 and game.total_slack == 0
    return AdmissibilityVerdict(admissible=admissible, extended_admissible=epsilon_star == 0,
                                epsilon_star=epsilon_star, game=game,
                                witness=None if admissible else game.improver)


def classify(problem: FiniteProblem, procedure: Procedure) -> AdmissibilityVerdict:
    """:func:`check_admissible`'s verdict, checked against the problem data.

    The verdict comes from one LP, so it is checked here: the improver's
    recomputed risk is at most r(theta, candidate) - epsilon* at every
    state (so epsilon* is attained), its slacks sum to S*, the eta part
    of the game value, and the candidate is epsilon*-Bayes under the
    witness prior by the separable minimum (so no rule improves by more).
    The verdict must be admissible exactly when epsilon* = 0 and S* = 0,
    and an inadmissible verdict's witness must improve by epsilon*
    everywhere and be strictly better somewhere.
    """
    verdict = check_admissible(problem, procedure)
    game = verdict.game
    epsilon_star = verdict.epsilon_star
    risks = game.candidate_risks
    improved = risk_vector(problem, game.improver)
    slacks = [r - epsilon_star - d for d, r in zip(improved, risks)]
    if any(s < 0 for s in slacks):
        raise CertificateError(f"improver does not improve uniformly by eps*={epsilon_star}")
    total_slack = sum(slacks)
    if total_slack != game.total_slack:
        raise CertificateError(f"improver's total slack {total_slack} is not "
                               f"S*={game.total_slack}")
    if not verify_epsilon_bayes(problem, procedure, game.witness_prior, game.slack):
        raise CertificateError("witness prior fails epsilon-Bayes verification")
    if (verdict.admissible != (epsilon_star == 0 and game.total_slack == 0)
            or verdict.extended_admissible != (epsilon_star == 0)):
        raise CertificateError(f"verdict contradicts eps*={epsilon_star}, "
                               f"S*={game.total_slack}")
    if not verdict.admissible:
        beaten = (improved if verdict.witness is game.improver
                  else risk_vector(problem, verdict.witness))
        if (any(w > r - epsilon_star for w, r in zip(beaten, risks))
                or not any(w < r for w, r in zip(beaten, risks))):
            raise CertificateError("witness does not dominate the candidate")
    return verdict


# ----------------------------------------------------------------------
# pushdown of Levi-Civita priors
# ----------------------------------------------------------------------


def pushdown(prior: LCPrior) -> Prior:
    """The standard prior obtained by mapping support points to standard parts.

    Support points collapsing to the same standard point pool their
    weights; each pooled Levi-Civita weight is then mapped by the
    standard part.  Any support point with an infinite coordinate has no
    standard part (mass would escape every compact set) and raises
    :class:`NotNearStandard`.
    """
    groups: dict[Tuple[Fraction, ...], LCNumber] = {}
    point_order: list[Tuple[Fraction, ...]] = []
    for point, weight in zip(prior.support, prior.weights):
        for coord in point:
            if not coord.is_near_standard():
                raise NotNearStandard(
                    f"support coordinate {coord} has no standard part")
        key = tuple(coord.standard_part() for coord in point)
        if key not in groups:
            groups[key] = weight
            point_order.append(key)
        else:
            groups[key] = groups[key] + weight
    support = tuple(point_order)
    weights = tuple(groups[key].standard_part() for key in point_order)
    return Prior(weights=weights, support=support)


def pushdown_risk_consistency(family, procedure_params, prior: LCPrior):
    """Compare Levi-Civita Bayes risk with its pushdown's standard Bayes risk.

    Returns (lc_bayes_risk, standard_bayes_risk, agree) where ``agree``
    is ``st(lc value) == standard value``.  Agreement is guaranteed when
    the family's risk is continuous (e.g. polynomial) in the parameter at
    the support's standard parts; a False flag detects a discontinuity.
    """
    lc_total = sum(weight * family.risk(procedure_params, point)
                   for point, weight in zip(prior.support, prior.weights))
    pushed = pushdown(prior)
    std_total = sum(weight * family.risk(procedure_params, point)
                    for point, weight in zip(pushed.support, pushed.weights))

    agree = lc_total.standard_part() == std_total
    return lc_total, std_total, agree
