"""Witness-prior synthesis, Bayes verification, and prior pushdowns.

The synthesis LP is the zero-sum game dual of the uniform-improvement
problem: over priors pi it maximizes

    [ minimal Bayes risk over all randomized rules under pi ]
      - [ Bayes risk of the candidate under pi ]

using the separability of the inner minimum over observations.  Its
value v* satisfies v* = -epsilon* exactly (strong duality), and the
optimizing pi* is a prior under which the candidate is max(0, -v*)-Bayes.
A separating-hyperplane normal over the finite risk set, normalized to
total mass one, is exactly such a prior; the LP dual produces it without
any convex-hull construction.

The same solve also hands over the other side of the duality.  The
duals of the (x, a) rows sum to 1 per observation, because m_x is free,
so they form a randomized rule D, and dual feasibility on pi_theta reads
risk(theta, D) <= risk(theta, candidate) - epsilon*.  So this one LP
gives epsilon*, its improving rule and the witness prior;
:mod:`lcbayes.admissibility` solves a second LP only when epsilon* = 0.

Priors with Levi-Civita weights (possibly supported on infinitesimal or
otherwise nonstandard points) push down to standard priors by taking
standard parts of their support, with group-summed weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .decision import (FiniteProblem, Prior, Procedure, prior_expectation,
                       procedure_from_values, risk_vector)
from .lcnum import LCNumber, NotNearStandard
from .ratlp import LEQ, EQ, LPProblem, LPStatus, solve_lp
from .ratlp import CertificateError


@dataclass(frozen=True)
class GameAnalysis:
    """Outcome of the prior-synthesis game for one candidate procedure."""

    value: Fraction                       # v* = -epsilon*, always <= 0
    witness_prior: Prior
    inner_best_responses: Tuple[Tuple[int, ...], ...]  # optimal actions per observation
    slack: Fraction                       # max(0, -v*): the epsilon in epsilon-Bayes
    prior_possibly_nonunique: bool        # optimal prior is not unique when v* < 0
    improver: Procedure                   # risk <= candidate risk - epsilon* at every state
    candidate_risks: Tuple[Fraction, ...]  # the game's payoff data: r(theta, candidate)


@dataclass(frozen=True)
class ClassificationReport:
    procedure: Procedure
    admissible: bool
    extended_admissible: bool
    epsilon_star: Fraction
    game_value: Fraction
    witness_prior: Prior
    bayes_slack: Fraction
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
    """For each observation x, min_a sum_theta pi(theta) P_theta(x) loss(theta, a).

    Returns (scores per observation, optimal-action tuples per observation).
    Works for rational and Levi-Civita prior weights alike.
    """
    weights = {}
    for idx, w in prior.items(problem.n_states):
        weights[idx] = weights.get(idx, 0) + w
    scores, argmins = [], []
    for x in range(problem.n_observations):
        per_action = [sum(w * (problem.model[s][x] * problem.loss[s][a])
                          for s, w in weights.items())
                      for a in range(problem.n_actions)]
        best = min(per_action)
        scores.append(best)
        argmins.append(tuple(a for a, v in enumerate(per_action) if v == best))
    return scores, argmins


def minimal_bayes_risk(problem: FiniteProblem, prior: Prior):
    """Exact minimum Bayes risk over all randomized procedures."""
    scores, _ = minimal_posterior_scores(problem, prior)
    return sum(scores)


def synthesize_prior(problem: FiniteProblem, procedure: Procedure) -> GameAnalysis:
    """Witness prior and game value for one candidate.

    LP variables: pi_theta >= 0 (summing to 1) and a free m_x per
    observation; maximize sum_x m_x - sum_theta pi_theta r(theta, cand)
    subject to m_x <= sum_theta pi_theta P_theta(x) loss(theta, a) for
    every (x, a).  At the optimum m_x equals the posterior-score minimum,
    so the value is min_{D} r(pi, D) - r(pi, cand), maximized over pi.
    The duals of the (x, a) rows are the improver D, which
    :func:`lcbayes.ratlp.check_certificate` has verified with the solve.
    """
    target = risk_vector(problem, procedure)
    n_states, n_obs, n_act = problem.n_states, problem.n_observations, problem.n_actions
    n_vars = n_states + n_obs  # pi_theta, then m_x

    objective = [-target[s] for s in range(n_states)] + [Fraction(1)] * n_obs
    rows, relations, rhs = [], [], []
    row = [Fraction(1)] * n_states + [Fraction(0)] * n_obs
    rows.append(row)
    relations.append(EQ)
    rhs.append(Fraction(1))
    for x in range(n_obs):
        for a in range(n_act):
            row = [Fraction(0)] * n_vars
            for s in range(n_states):
                row[s] = -(problem.model[s][x] * problem.loss[s][a])
            row[n_states + x] = Fraction(1)
            rows.append(row)
            relations.append(LEQ)
            rhs.append(Fraction(0))

    lower: list[Optional[Fraction]] = [Fraction(0)] * n_states + [None] * n_obs
    lp = LPProblem.build(objective, rows, relations, rhs, lower=lower)
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    value = sol.objective_value
    prior = Prior(tuple(sol.x[:n_states]))
    _, argmins = minimal_posterior_scores(problem, prior)
    slack = max(Fraction(0), -value)
    return GameAnalysis(value=value, witness_prior=prior,
                        inner_best_responses=tuple(argmins), slack=slack,
                        prior_possibly_nonunique=value < 0,
                        improver=procedure_from_values(problem, sol.row_duals, offset=1),
                        candidate_risks=target)


def verify_epsilon_bayes(problem: FiniteProblem, procedure: Procedure,
                         prior: Prior, epsilon) -> bool:
    """Is the procedure within epsilon of the minimal Bayes risk under the prior?

    Exact in the prior's scalar field; the inner minimum over all
    randomized procedures separates over observations.
    """
    return _within_epsilon_of_bayes(problem, risk_vector(problem, procedure),
                                    prior, epsilon)


def _within_epsilon_of_bayes(problem: FiniteProblem, risks: Sequence[Fraction],
                             prior: Prior, epsilon) -> bool:
    candidate = prior_expectation(problem, risks, prior)
    return candidate <= minimal_bayes_risk(problem, prior) + epsilon


def classify(problem: FiniteProblem, procedure: Procedure) -> ClassificationReport:
    """Full per-procedure verdict with internal consistency checks.

    The verdict's epsilon* comes from one LP, so it is proved here from
    the problem data alone: the improver's recomputed risk is at most
    r(theta, candidate) - epsilon* at every state (so epsilon* is
    attained), and the candidate is epsilon*-Bayes under the witness
    prior by the separable minimum (so no rule improves by more).
    """
    from .admissibility import check_admissible

    verdict = check_admissible(problem, procedure)
    game = verdict.game
    epsilon_star = verdict.epsilon_star
    improved = risk_vector(problem, game.improver)
    if any(d > r - epsilon_star for d, r in zip(improved, game.candidate_risks)):
        raise CertificateError(f"improver does not improve uniformly by eps*={epsilon_star}")
    if not _within_epsilon_of_bayes(problem, game.candidate_risks,
                                    game.witness_prior, game.slack):
        raise CertificateError("witness prior fails epsilon-Bayes verification")
    if epsilon_star > 0 and verdict.admissible:
        raise CertificateError(f"rule with eps*={epsilon_star} classified as admissible")
    return ClassificationReport(
        procedure=procedure,
        admissible=verdict.admissible,
        extended_admissible=verdict.extended_admissible,
        epsilon_star=epsilon_star,
        game_value=game.value,
        witness_prior=game.witness_prior,
        bayes_slack=game.slack,
        witness=verdict.witness,
    )


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
