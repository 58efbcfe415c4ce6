"""Closed-form risk evaluators generic over the scalar field.

Two built-in families; both evaluate risk on exact rationals and on
Levi-Civita numbers with the same code path:

* :class:`NormalLocationLinear` - estimating a d-dimensional location
  under squared error with linear shrinkage rules x -> c * x; the risk
  at parameter theta is  d*c^2 + (1-c)^2*||theta||^2  and the Bayes risk
  under a centered Gaussian prior with scale k is  d*(c^2 + (1-c)^2*k^2).

* :class:`BernoulliBoundary` - a coin with success probability g(t)
  where g(t) = t for t > 0 and g(0) = 1 (a jump at the boundary), loss
  (g(t) - a)^2.  The jump makes the risk discontinuous at 0, which the
  pushdown-consistency check is designed to detect.

A finite prior on a family is a :class:`lcbayes.decision.Prior` whose
support is parameter points.  Its weights and coordinates may be
rational or Levi-Civita, and :func:`pushdown` maps it to the standard
prior on the standard parts of its points.

Gaussian ball masses involve pi and exp; they are handled by enclosing
rational intervals and the bound exp(-u) >= 1 - u, so only valuations
and signs (which the enclosures pin down exactly) feed the
infinitely-larger test used for prior regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Tuple, Union

from .decision import Prior, SupportMismatch
from .lcnum import LCNumber, eps, much_greater, st

Scalar = Union[Fraction, LCNumber]

REGULAR = "Regular"
NOT_REGULAR = "NotRegular"
INDETERMINATE = "Indeterminate"


class NotInfinite(ValueError):
    """An infinite scale parameter was required but a finite one given."""


class BadProbe(ValueError):
    """Probe radius is nonpositive (or not a positive rational)."""


# ----------------------------------------------------------------------
# rational interval enclosures for the transcendental constants
# ----------------------------------------------------------------------

PI_LO = Fraction(3141592653589793, 10 ** 15)
PI_HI = Fraction(3141592653589794, 10 ** 15)

Interval = Tuple[Fraction, Fraction]


def _imul(a: Interval, b: Interval) -> Interval:
    # all intervals here are positive
    return (a[0] * b[0], a[1] * b[1])


def _iinv(a: Interval) -> Interval:
    return (1 / a[1], 1 / a[0])


def _isqrt_bounds(q: Fraction) -> Interval:
    """Rational l <= sqrt(q) <= u with l*l <= q <= u*u, q >= 0."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    scale = 10 ** 12
    n = q.numerator * q.denominator * scale * scale
    root = isqrt(n)
    lo = Fraction(root, q.denominator * scale)
    hi = Fraction(root if root * root == n else root + 1, q.denominator * scale)
    return (lo, hi)


def _isqrt_interval(a: Interval) -> Interval:
    return (_isqrt_bounds(a[0])[0], _isqrt_bounds(a[1])[1])


def ball_volume_interval(dim: int, radius: Fraction) -> Interval:
    """Enclosure of the volume of the d-ball of the given radius."""
    two_pi_r2 = _imul((2 * PI_LO, 2 * PI_HI), (radius * radius, radius * radius))
    if dim % 2 == 0:
        vol: Interval = (Fraction(1), Fraction(1))
        start = 2
    else:
        vol = (2 * radius, 2 * radius)
        start = 3
    for d in range(start, dim + 1, 2):
        vol = _imul(vol, (two_pi_r2[0] / d, two_pi_r2[1] / d))
    return vol


def gaussian_normalizer_interval(dim: int) -> Interval:
    """Enclosure of (2*pi)^(-dim/2)."""
    inv_two_pi = _iinv((2 * PI_LO, 2 * PI_HI))
    result: Interval = (Fraction(1), Fraction(1))
    for _ in range(dim // 2):
        result = _imul(result, inv_two_pi)
    if dim % 2 == 1:
        result = _imul(result, _isqrt_interval(inv_two_pi))
    return result


def _norm_upper_bound(center: Sequence[Fraction]) -> Fraction:
    sq = sum((c * c for c in center), Fraction(0))
    return _isqrt_bounds(sq)[1]


# ----------------------------------------------------------------------
# regularity of priors
# ----------------------------------------------------------------------

Probe = Tuple[Tuple[Fraction, ...], Fraction]  # (center coords, radius)


@dataclass(frozen=True)
class RegularityVerdict:
    verdict: str
    witness: Optional[Probe] = None
    interval: Optional[Tuple[LCNumber, LCNumber]] = None


def default_probes(dim: int) -> Tuple[Probe, ...]:
    origin = tuple(Fraction(0) for _ in range(dim))
    unit = tuple(Fraction(1 if i == 0 else 0) for i in range(dim))
    radii = (Fraction(1, 2), Fraction(1), Fraction(2))
    return tuple((center, r) for center in (origin, unit) for r in radii)


def _validate_probe(probe: Probe):
    center, radius = probe
    if not isinstance(radius, Fraction) or radius <= 0:
        raise BadProbe(f"probe radius must be a positive rational, got {radius!r}")


def _regularity_from_bounds(bounds, epsilon: LCNumber) -> RegularityVerdict:
    indeterminate = None
    for probe, (lower, upper) in bounds:
        if much_greater(lower, epsilon):
            continue
        if not much_greater(upper, epsilon):
            return RegularityVerdict(NOT_REGULAR, witness=probe,
                                     interval=(lower, upper))
        if indeterminate is None:
            indeterminate = RegularityVerdict(INDETERMINATE, witness=probe,
                                              interval=(lower, upper))
    return indeterminate if indeterminate is not None else RegularityVerdict(REGULAR)


# ----------------------------------------------------------------------
# finite priors on parameter points
# ----------------------------------------------------------------------


def _point_masses(prior: Prior):
    """The prior's (point, weight) pairs; its support must be parameter points."""
    if prior.support is None or not all(isinstance(p, tuple) for p in prior.support):
        raise SupportMismatch("a family prior is supported on coordinate tuples")
    return zip(prior.support, prior.weights)


def ball_mass(prior: Prior, center: Sequence[Fraction], radius: Fraction) -> Scalar:
    """Exact mass a finite prior places on the open ball B(center, radius)."""
    masses = list(_point_masses(prior))
    if any(len(point) != len(center) for point, _ in masses):
        raise SupportMismatch(f"a support point is not in the {len(center)}-d space of the ball")
    return sum(w for point, w in masses
               if sum((t - c) * (t - c) for t, c in zip(point, center)) < radius * radius)


# ----------------------------------------------------------------------
# normal location family
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPrior:
    """Centered isotropic Gaussian prior with (possibly infinite) scale."""

    scale: LCNumber


class NormalLocationLinear:
    """d-dimensional location estimation with linear rules x -> c*x."""

    name = "normal-location"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim

    def risk(self, shrinkage: Scalar, point) -> Scalar:
        """Risk of the rule x -> c*x at the location ``point``."""
        coords = point if isinstance(point, (tuple, list)) else (point,)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        c = shrinkage
        norm2 = sum(t * t for t in coords)
        return self.dim * (c * c) + (1 - c) * (1 - c) * norm2

    def bayes_risk_gaussian(self, shrinkage: Scalar, scale: Scalar) -> Scalar:
        """Bayes risk of x -> c*x under the centered Gaussian with this scale."""
        c = shrinkage
        return self.dim * (c * c + (1 - c) * (1 - c) * (scale * scale))

    @staticmethod
    def optimal_shrinkage(scale: Scalar) -> Scalar:
        s2 = scale * scale
        return s2 / (s2 + 1)

    def ball_mass_bounds(self, center: Sequence[Fraction], radius: Fraction,
                         prior: GaussianPrior) -> Tuple[LCNumber, LCNumber]:
        """Exact-enclosure bounds on the prior mass of the ball B(center, radius).

        density <= (2 pi k^2)^(-d/2) everywhere, and on the ball
        density >= (2 pi k^2)^(-d/2) * (1 - R^2/(2 k^2)) with
        R = ||center|| + radius, via exp(-u) >= 1 - u.
        """
        _validate_probe((tuple(center), radius))
        scale = prior.scale
        vol = ball_volume_interval(self.dim, radius)
        norm = gaussian_normalizer_interval(self.dim)
        scale_term = scale.inverse() ** self.dim  # k^(-d), exact LC
        r_hi = _norm_upper_bound(center) + radius
        inv_scale_sq = scale.inverse() ** 2
        correction = 1 - Fraction(r_hi * r_hi, 2) * inv_scale_sq
        lower = (vol[0] * norm[0]) * scale_term * correction
        upper = (vol[1] * norm[1]) * scale_term
        return lower, upper


def check_epsilon_regular_normal(dim: int, scale: LCNumber, epsilon: LCNumber,
                                 probes: Optional[Sequence[Probe]] = None
                                 ) -> RegularityVerdict:
    """Does the centered Gaussian prior give every probe ball mass >> epsilon?

    ``Regular`` requires the lower mass bound infinitely larger than
    epsilon at every probe; ``NotRegular`` exhibits a probe whose upper
    bound already fails.  Because the interval endpoints differ only by
    positive rational constants, they share valuation and the verdict is
    never Indeterminate for monomial infinite scales.
    """
    family = NormalLocationLinear(dim)
    prior = GaussianPrior(scale)
    if probes is None:
        probes = default_probes(dim)
    for probe in probes:
        _validate_probe(probe)
    bounds = [(probe, family.ball_mass_bounds(probe[0], probe[1], prior))
              for probe in probes]
    return _regularity_from_bounds(bounds, epsilon)


DIM2_DISCREPANCY_NOTE = (
    "At dim = 2 the probe ball mass and the Bayes slack 1/(scale^2+1) share "
    "valuation, so the infinitely-larger test fails and this tool reports "
    "NotRegular; the classical expectation is that the flat Gaussian prior "
    "certifies admissibility of the sample mean in dimension 2.  Recorded "
    "as a known formalization discrepancy rather than forced to agree."
)


@dataclass(frozen=True)
class NormalLocationReport:
    dim: int
    order: int
    scale: LCNumber
    shrinkage: LCNumber
    shrinkage_st: Fraction
    shrinkage_bayes_risk: LCNumber
    sample_mean_bayes_risk: LCNumber
    gap: LCNumber
    gap_closed_form: str
    gap_is_infinitesimal: bool
    risk_constant_coefficient: LCNumber    # d * c^2 in  r(c, t) = d c^2 + (1-c)^2 |t|^2
    risk_norm_coefficient: LCNumber        # (1 - c)^2
    regularity_epsilon: LCNumber
    regularity: RegularityVerdict
    discrepancy_note: Optional[str] = None


def normal_location_report(dim: int, scale: Optional[LCNumber] = None,
                           order: int = 8) -> NormalLocationReport:
    """Exact report for the location family under an infinite prior scale."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if scale is None:
        scale = eps(order).inverse()
    if not scale.is_infinite():
        raise NotInfinite(f"prior scale {scale} must be infinite (valuation < 0)")
    family = NormalLocationLinear(dim)
    s2 = scale * scale
    denom_inv = (s2 + 1).inverse()
    # all quantities below go through exact monomials and one inversion,
    # so every retained coefficient is exact; composing subtractions
    # instead (e.g. squaring 1 - shrinkage) would corrupt the last term
    denom_sq_inv = ((s2 + 1) ** 2).inverse()
    shrinkage = s2 * denom_inv
    shrink_bayes = dim * shrinkage
    mean_bayes = family.bayes_risk_gaussian(LCNumber(1, scale.order), scale)
    gap = dim * denom_inv
    epsilon = denom_inv
    regularity = check_epsilon_regular_normal(dim, scale, epsilon)
    if scale == eps(scale.order).inverse():
        prefix = "" if dim == 1 else f"{dim}*"
        closed = f"{prefix}eps^2/(1+eps^2)"
    else:
        closed = f"{dim}/(scale^2+1) with scale = {scale}"
    return NormalLocationReport(
        dim=dim,
        order=scale.order,
        scale=scale,
        shrinkage=shrinkage,
        shrinkage_st=shrinkage.standard_part(),
        shrinkage_bayes_risk=shrink_bayes,
        sample_mean_bayes_risk=mean_bayes,
        gap=gap,
        gap_closed_form=closed,
        gap_is_infinitesimal=gap.is_infinitesimal(),
        risk_constant_coefficient=dim * ((s2 * s2) * denom_sq_inv),
        risk_norm_coefficient=denom_sq_inv,
        regularity_epsilon=epsilon,
        regularity=regularity,
        discrepancy_note=DIM2_DISCREPANCY_NOTE if dim == 2 else None,
    )


# ----------------------------------------------------------------------
# Bernoulli boundary family
# ----------------------------------------------------------------------


class BernoulliBoundary:
    """Bernoulli(g(t)) with g(t) = t for t > 0 and g(0) = 1, squared loss.

    g is evaluated exactly: any t with t > 0 in the field order takes the
    identity branch - including positive infinitesimals, which is what
    makes the infinitesimal-point-prior Bayes risk an exact square.
    """

    name = "bernoulli-boundary"
    dim = 1

    @staticmethod
    def success_probability(t: Scalar) -> Scalar:
        if t > 1:
            raise ValueError("parameter must lie in [0, 1]")
        if t > 0:
            return t
        if t == 0:
            return 1 - 0 * t  # exact one in t's field
        raise ValueError("parameter must lie in [0, 1]")

    def risk(self, params: Tuple[Scalar, Scalar], point) -> Scalar:
        """Risk of the rule (a on tails, b on heads) at parameter t."""
        t = point[0] if isinstance(point, (tuple, list)) else point
        a, b = params
        g = self.success_probability(t)
        return (1 - g) * (g - a) * (g - a) + g * (g - b) * (g - b)

    def bayes_risk(self, params, prior: Prior) -> Scalar:
        return _prior_bayes_risk(self, params, prior)

    def optimal_rule(self, prior: Prior) -> Tuple[Scalar, Scalar]:
        """Posterior means of g per observation; exact in the scalar field.

        An observation with posterior weight exactly zero is unreachable;
        its component is set to the prior mean of g (any action is
        optimal there).
        """
        weighted = [(w, self.success_probability(point[0]))
                    for point, w in _point_masses(prior)]
        prior_mean = heads_den = sum(w * g for w, g in weighted)  # heads weight w*g
        heads_num = sum(w * g * g for w, g in weighted)
        tails_den = sum(w * (1 - g) for w, g in weighted)        # tails weight w*(1-g)
        tails_num = sum(w * (1 - g) * g for w, g in weighted)
        tails = prior_mean if tails_den == 0 else tails_num / tails_den
        heads = prior_mean if heads_den == 0 else heads_num / heads_den
        return (tails, heads)

    def optimal_bayes_risk(self, prior: Prior) -> Scalar:
        return self.bayes_risk(self.optimal_rule(prior), prior)


# ----------------------------------------------------------------------
# pushdown of Levi-Civita priors
# ----------------------------------------------------------------------


def pushdown(prior: Prior) -> Prior:
    """The standard prior obtained by mapping support points to standard parts.

    Support points collapsing to the same standard point pool their
    weights; each pooled weight is then mapped by the standard part, so
    a standard prior is its own pushdown.  Any support point with an
    infinite coordinate has no standard part (mass would escape every
    compact set) and raises :class:`lcbayes.lcnum.NotNearStandard`.
    """
    pooled: dict = {}
    for point, weight in _point_masses(prior):
        key = tuple(st(coord) for coord in point)
        pooled[key] = pooled.get(key, 0) + weight
    return Prior(weights=tuple(st(w) for w in pooled.values()), support=tuple(pooled))


def pushdown_risk_consistency(family, procedure_params, prior: Prior):
    """Compare a prior's Bayes risk with its pushdown's standard Bayes risk.

    Returns (bayes_risk, standard_bayes_risk, agree) where ``agree`` is
    ``st(bayes_risk) == standard_bayes_risk``.  Agreement is guaranteed
    when the family's risk is continuous (e.g. polynomial) in the
    parameter at the support's standard parts; a False flag detects a
    discontinuity.
    """
    total = _prior_bayes_risk(family, procedure_params, prior)
    std_total = _prior_bayes_risk(family, procedure_params, pushdown(prior))
    return total, std_total, st(total) == std_total


# ----------------------------------------------------------------------
# nonstandard Blyth certificate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlythCertificate:
    """Admissibility certificate scoped to explicit challengers and probes.

    ``certified`` means: the candidate's Bayes risk under the supplied
    prior is within epsilon of every listed challenger's, and the prior
    gives every probe ball mass infinitely larger than epsilon.  The
    claim extends exactly as far as the challenger set and probe list.
    """

    certified: bool
    reason: Optional[str]
    candidate_bayes_risk: Scalar
    epsilon: LCNumber
    challenger_count: int
    probes: Tuple[Probe, ...]
    regularity: RegularityVerdict


def _prior_bayes_risk(family, params, prior_spec) -> Scalar:
    """The family rule's Bayes risk under a Gaussian or a finite prior."""
    if isinstance(prior_spec, GaussianPrior):
        if not isinstance(family, NormalLocationLinear):
            raise TypeError("Gaussian conjugate prior applies to the location family")
        return family.bayes_risk_gaussian(params, prior_spec.scale)
    if isinstance(prior_spec, Prior):
        return sum(w * family.risk(params, point) for point, w in _point_masses(prior_spec))
    raise TypeError(f"unsupported prior specification {type(prior_spec).__name__}")


def _prior_regularity(family, prior_spec, epsilon: LCNumber,
                      probes: Sequence[Probe]) -> RegularityVerdict:
    if isinstance(prior_spec, GaussianPrior):
        return check_epsilon_regular_normal(family.dim, prior_spec.scale,
                                            epsilon, probes)
    # finite support: ball masses are exact, lower = upper; much_greater
    # reads the sign of a Levi-Civita mass, so a rational one is lifted
    bounds = []
    for probe in probes:
        _validate_probe(probe)
        mass = ball_mass(prior_spec, *probe)
        if not isinstance(mass, LCNumber):
            mass = LCNumber(mass, epsilon.order)
        bounds.append((probe, (mass, mass)))
    return _regularity_from_bounds(bounds, epsilon)


def blyth_certificate(family, params, prior_spec, epsilon: LCNumber,
                      challengers: Sequence, probes: Optional[Sequence[Probe]] = None
                      ) -> BlythCertificate:
    """Certify admissibility on a grid via near-Bayes plus prior regularity."""
    if probes is None:
        probes = default_probes(family.dim)
    challengers = list(challengers)
    candidate_risk = _prior_bayes_risk(family, params, prior_spec)
    regularity = _prior_regularity(family, prior_spec, epsilon, probes)
    reason = None
    for i, challenger in enumerate(challengers):
        if not candidate_risk <= _prior_bayes_risk(family, challenger, prior_spec) + epsilon:
            reason = f"candidate is not epsilon-Bayes against challenger {i}"
            break
    if reason is None and regularity.verdict != REGULAR:
        reason = f"prior regularity verdict is {regularity.verdict}"
    return BlythCertificate(
        certified=reason is None, reason=reason,
        candidate_bayes_risk=candidate_risk, epsilon=epsilon,
        challenger_count=len(challengers), probes=tuple(probes),
        regularity=regularity)


# ----------------------------------------------------------------------
# boundary example report
# ----------------------------------------------------------------------


# exhibit (ii) of the boundary report: point priors at t = 1/10, ..., 1
PRIOR_GRID_SIZE = 10


@dataclass(frozen=True)
class NonBayesEntry:
    prior_label: str
    optimal_rule: Tuple[Fraction, Fraction]
    optimal_bayes_risk: Fraction
    candidate_bayes_risk: Fraction
    excess: Fraction


@dataclass(frozen=True)
class BernoulliBoundaryReport:
    order: int
    lc_point: LCNumber
    lc_bayes_risk: LCNumber          # candidate (0,0) under the point prior at eps
    lc_bayes_risk_st: Fraction
    non_bayes: Tuple[NonBayesEntry, ...]
    dominators_found: Tuple[Tuple[Fraction, Fraction], ...]
    challenger_count: int
    state_count: int
    risk_at_half: Fraction
    risk_at_zero: Fraction


def bernoulli_boundary_report(order: int = 8,
                              challenger_step: int = 20,
                              state_count: int = 40) -> BernoulliBoundaryReport:
    """The admissible-but-not-Bayes boundary example, exactly.

    Three exhibits: (i) the candidate rule (0,0) has Bayes risk eps^2
    (an exact square, standard part 0) under the point prior at the
    infinitesimal eps; (ii) under every point prior on the interior grid
    (and at the boundary state 0, and under the uniform prior over the
    grid) the exact optimal rule has strictly positive components and
    beats (0,0) by a strictly positive rational; (iii) the rules on the
    challenger grid (step 1/challenger_step) that 0-dominate (0,0) across
    the state grid {1/n : n <= state_count} union {0}.

    At t > 0, risk((a,b), t) - risk((0,0), t) = (1-t)*a*(a-2t) + t*b*(b-2t),
    so a challenger is strictly worse than (0,0) wherever 0 < t < m/2, m its
    smallest positive component.  Exhibit (iii) is therefore empty exactly
    when state_count >= 2 * challenger_step + 1.  At the defaults (40, 20)
    it is one state short: the marginal challengers (0, 1/20), (1/20, 0)
    and (1/20, 1/20) tie (0,0) at t = 1/40 and win elsewhere on the grid,
    and the report returns these three.
    """
    family = BernoulliBoundary()
    zero_rule = (Fraction(0), Fraction(0))

    point = eps(order)
    lc_risk = family.bayes_risk(zero_rule, Prior.at((point,)))

    grid = [Fraction(j, PRIOR_GRID_SIZE) for j in range(1, PRIOR_GRID_SIZE + 1)]
    priors = [(f"point t={t}", Prior.at((t,))) for t in grid]
    priors.append(("point t=0", Prior.at((Fraction(0),))))
    full = grid + [Fraction(0)]
    priors.append(("uniform on grid+0",
                   Prior(tuple(Fraction(1, len(full)) for _ in full),
                         support=tuple((t,) for t in full))))
    non_bayes = []
    for label, prior in priors:
        rule = family.optimal_rule(prior)
        best = family.bayes_risk(rule, prior)
        cand = family.bayes_risk(zero_rule, prior)
        non_bayes.append(NonBayesEntry(
            prior_label=label, optimal_rule=rule, optimal_bayes_risk=best,
            candidate_bayes_risk=cand, excess=cand - best))

    states = [Fraction(1, n) for n in range(1, state_count + 1)] + [Fraction(0)]
    candidate_risks = [family.risk(zero_rule, t) for t in states]
    steps = [Fraction(j, challenger_step) for j in range(challenger_step + 1)]
    dominators = []
    for a in steps:
        for b in steps:
            if (a, b) == zero_rule:
                continue
            strictly_better_somewhere = False
            weakly_better_everywhere = True
            for t, cand in zip(states, candidate_risks):
                r = family.risk((a, b), t)
                if r > cand:
                    weakly_better_everywhere = False
                    break
                if r < cand:
                    strictly_better_somewhere = True
            if weakly_better_everywhere and strictly_better_somewhere:
                dominators.append((a, b))

    return BernoulliBoundaryReport(
        order=order,
        lc_point=point,
        lc_bayes_risk=lc_risk,
        lc_bayes_risk_st=lc_risk.standard_part(),
        non_bayes=tuple(non_bayes),
        dominators_found=tuple(dominators),
        challenger_count=(challenger_step + 1) ** 2 - 1,
        state_count=len(states),
        risk_at_half=family.risk(zero_rule, Fraction(1, 2)),
        risk_at_zero=family.risk(zero_rule, Fraction(0)),
    )
