"""Domination checks for finite decision problems.

The checks here solve no LP of their own.  Explicit challenger lists,
and Levi-Civita risk vectors over a tagged grid, are compared directly.
Against all randomized procedures, :func:`is_epsilon_dominated` reads
epsilon* and the admissibility verdict from the prior game of
:mod:`lcbayes.priors`, the one module that solves, reads and checks that
LP.  The game ranges over the product of per-observation action
simplices, whose extreme points are the nonrandomized rules.  So
verdicts against "all randomized procedures" and against "all mixtures
of nonrandomized rules" coincide, and the |A|^|X| nonrandomized rules
are never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .decision import FiniteProblem, Procedure, ShapeMismatch, risk_vector
from .lcnum import LCNumber, approx_eq
# both readers are re-exported here, where tests and the benchmark's
# tracer find them; only check_admissible is called
from .priors import check_admissible, max_uniform_improvement

ALL_RANDOMIZED = "all-randomized"


@dataclass(frozen=True)
class DominationQuery:
    problem: FiniteProblem
    candidate: Procedure
    epsilon: Fraction = Fraction(0)
    challenger_class: Union[str, Tuple[Procedure, ...]] = ALL_RANDOMIZED

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def check_domination(query: DominationQuery, challenger: Procedure) -> bool:
    """Does the challenger epsilon-dominate the query's candidate?

    Clause 1: challenger risk <= candidate risk - epsilon at every state.
    Clause 2: risks differ at some state; implied by clause 1 when
    epsilon > 0, so it is only evaluated at epsilon = 0.
    """
    cand = risk_vector(query.problem, query.candidate)
    chal = risk_vector(query.problem, challenger)
    eps = query.epsilon
    if any(c > r - eps for c, r in zip(chal, cand)):
        return False
    if eps > 0:
        return True
    return any(c != r for c, r in zip(chal, cand))


def is_epsilon_dominated(query: DominationQuery) -> Tuple[bool, Optional[Procedure]]:
    """Decide epsilon-domination within the query's challenger class.

    For an explicit challenger list, each challenger is tested directly.
    Against all randomized procedures the decision reduces to epsilon*:
    for epsilon > 0 a dominator exists iff epsilon <= epsilon*, and for
    epsilon = 0 iff the candidate is inadmissible (the LP witnesses are
    returned).
    """
    if isinstance(query.challenger_class, tuple):
        for challenger in query.challenger_class:
            if check_domination(query, challenger):
                return True, challenger
        return False, None
    if query.challenger_class != ALL_RANDOMIZED:
        raise ValueError(f"unknown challenger class {query.challenger_class!r}")
    verdict = check_admissible(query.problem, query.candidate)
    if (query.epsilon <= verdict.epsilon_star) if query.epsilon > 0 else not verdict.admissible:
        return True, verdict.improver
    return False, None


def check_lc_domination(candidate_risks: Sequence[LCNumber],
                        challenger_risks: Sequence[LCNumber],
                        epsilon,
                        standard_points: Optional[Sequence[bool]] = None,
                        clause_two_mode: str = "standard") -> bool:
    """Domination with infinitesimal comparisons over a tagged grid.

    Clause 1 (challenger <= candidate - epsilon) is checked at every grid
    point.  Clause 2 (risks not infinitesimally close) is checked on the
    standard-tagged points when ``clause_two_mode == "standard"``, or on
    all points with ``"all"``.  With an infinitesimal gap everywhere,
    clause 2 fails and the challenger does not dominate.
    """
    if len(candidate_risks) != len(challenger_risks):
        raise ShapeMismatch("risk vectors must have equal length")
    if standard_points is None:
        standard_points = [True] * len(candidate_risks)
    if len(standard_points) != len(candidate_risks):
        raise ShapeMismatch("one standard tag per grid point")
    if clause_two_mode not in ("standard", "all"):
        raise ValueError("clause_two_mode must be 'standard' or 'all'")

    for cand, chal in zip(candidate_risks, challenger_risks):
        if not (chal <= cand - epsilon):
            return False
    for cand, chal, tagged in zip(candidate_risks, challenger_risks, standard_points):
        if clause_two_mode == "all" or tagged:
            if not approx_eq(chal, cand):
                return True
    return False
