"""Parametric family reports, regularity verdicts, and Blyth certificates."""

import random
from fractions import Fraction as F

import pytest

from lcbayes.decision import Prior, SupportMismatch
from lcbayes.families import (INDETERMINATE, NOT_REGULAR, REGULAR, BadProbe,
                              BernoulliBoundary, GaussianPrior,
                              NormalLocationLinear, NotInfinite,
                              RegularityVerdict, ball_mass,
                              ball_volume_interval, bernoulli_boundary_report,
                              blyth_certificate, check_epsilon_regular_normal,
                              default_probes, gaussian_normalizer_interval,
                              normal_location_report)
from lcbayes.lcnum import LCNumber, eps, much_greater, st

ORDER = 8


def alternating_series(scale_num: int, start: int, order: int) -> LCNumber:
    """Independent oracle for n/(1+eps^2) * eps^start by long division:

    n * eps^start * (1 - eps^2 + eps^4 - ...), truncated at start + order.
    """
    terms = []
    k = 0
    while 2 * k <= order:
        terms.append((start + 2 * k, scale_num * (-1) ** k))
        k += 1
    return LCNumber.from_terms(terms, order)


# ----------------------------------------------------------------------
# normal location closed forms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_report_matches_long_division_oracle(dim):
    report = normal_location_report(dim, order=ORDER)
    assert report.shrinkage_bayes_risk == alternating_series(dim, 0, ORDER)
    assert report.sample_mean_bayes_risk == LCNumber(dim, ORDER)
    assert report.gap == alternating_series(dim, 2, ORDER)
    assert report.gap_is_infinitesimal
    assert st(report.gap) == 0


def test_shrinkage_approaches_one():
    report = normal_location_report(1)
    assert report.shrinkage_st == 1
    assert report.shrinkage == alternating_series(1, 0, ORDER)


def test_finite_scale_closed_forms():
    family = NormalLocationLinear(3)
    c = NormalLocationLinear.optimal_shrinkage(F(2))
    assert c == F(4, 5)
    assert family.bayes_risk_gaussian(c, F(2)) == F(12, 5)
    assert family.bayes_risk_gaussian(F(1), F(2)) == 3
    assert family.bayes_risk_gaussian(F(1), F(2)) - family.bayes_risk_gaussian(c, F(2)) == F(3, 5)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_bayes_risk_identity_symbolic_scale(dim):
    # d*(c^2 + (1-c)^2 k^2) with c = k^2/(k^2+1) equals d*k^2/(k^2+1),
    # as exact truncated series in the field
    family = NormalLocationLinear(dim)
    scale = eps().inverse()
    c = NormalLocationLinear.optimal_shrinkage(scale)
    via_definition = family.bayes_risk_gaussian(c, scale)
    s2 = scale * scale
    closed_form = dim * (s2 / (s2 + 1))
    assert via_definition == closed_form


def test_rational_scale_identity():
    family = NormalLocationLinear(2)
    for k in (F(1, 2), F(2), F(7, 3)):
        c = NormalLocationLinear.optimal_shrinkage(k)
        assert family.bayes_risk_gaussian(c, k) == 2 * k * k / (k * k + 1)


def test_report_requires_infinite_scale():
    with pytest.raises(NotInfinite):
        normal_location_report(1, scale=LCNumber(2))


def test_report_closed_form_strings():
    assert normal_location_report(1).gap_closed_form == "eps^2/(1+eps^2)"
    assert normal_location_report(3).gap_closed_form == "3*eps^2/(1+eps^2)"


def test_risk_constant_coefficient_exact():
    # d*c^2 = d*k^4/(k^2+1)^2 = d*(1 - 2e^2 + 3e^4 - 4e^6 + 5e^8 - ...)
    report = normal_location_report(1, order=ORDER)
    expected = LCNumber.from_terms(
        [(2 * k, (-1) ** k * (k + 1)) for k in range(ORDER // 2 + 1)], ORDER)
    assert report.risk_constant_coefficient == expected
    # (1-c)^2 = 1/(k^2+1)^2 = e^4*(1 - 2e^2 + 3e^4 - ...)
    expected_norm = LCNumber.from_terms(
        [(4 + 2 * k, (-1) ** k * (k + 1)) for k in range(ORDER // 2 + 1)], ORDER)
    assert report.risk_norm_coefficient == expected_norm


# ----------------------------------------------------------------------
# regularity of the Gaussian prior
# ----------------------------------------------------------------------


def regularity_epsilon(order=ORDER):
    scale = eps(order).inverse()
    return (scale * scale + 1).inverse()


@pytest.mark.parametrize("dim,expected", [(1, REGULAR), (3, NOT_REGULAR)])
def test_dimension_threshold(dim, expected):
    scale = eps().inverse()
    verdict = check_epsilon_regular_normal(dim, scale, regularity_epsilon())
    assert verdict.verdict == expected


def test_dim_two_documented_discrepancy():
    # ball mass and slack share valuation at dim 2: the strict test fails
    # and the report carries the documented note
    report = normal_location_report(2)
    assert report.regularity.verdict == NOT_REGULAR
    assert report.discrepancy_note is not None
    assert normal_location_report(1).discrepancy_note is None


def test_small_epsilon_is_regular():
    scale = eps().inverse()
    verdict = check_epsilon_regular_normal(1, scale, eps() ** 3)
    assert verdict.verdict == REGULAR


def test_monotone_regularity():
    # shrinking epsilon can only help
    scale = eps().inverse()
    assert check_epsilon_regular_normal(1, scale, regularity_epsilon()).verdict == REGULAR
    assert check_epsilon_regular_normal(1, scale, eps() ** 4).verdict == REGULAR
    assert check_epsilon_regular_normal(1, scale, eps() ** 6).verdict == REGULAR


def test_bad_probe_rejected():
    scale = eps().inverse()
    with pytest.raises(BadProbe):
        check_epsilon_regular_normal(1, scale, regularity_epsilon(),
                                     probes=[((F(0),), F(0))])


def test_probe_of_another_dimension_is_refused():
    # a Gaussian prior refuses a probe center outside the family's space,
    # as a finite prior's ball_mass does, rather than measure it in its own
    scale = eps().inverse()
    for center in ((F(0), F(0), F(0)), (), (F(1), F(0))):
        with pytest.raises(SupportMismatch):
            check_epsilon_regular_normal(1, scale, regularity_epsilon(), probes=[(center, F(1))])
    with pytest.raises(SupportMismatch):
        check_epsilon_regular_normal(2, scale, regularity_epsilon(), probes=[((F(0),), F(1))])
    with pytest.raises(SupportMismatch):
        blyth_certificate(NormalLocationLinear(1), LCNumber(1), GaussianPrior(scale),
                          regularity_epsilon(), [F(1)], probes=[((F(0), F(5)), F(1))])


def test_every_probe_is_checked_before_a_verdict():
    # the first probe is already NotRegular; the bad one after it still raises
    scale = eps().inverse()
    not_regular = default_probes(3)[0]
    assert check_epsilon_regular_normal(3, scale, regularity_epsilon(),
                                        probes=[not_regular]).verdict == NOT_REGULAR
    for bad in (((F(0),) * 3, F(0)), ((F(0),) * 3, F(-1)), ((F(0),) * 3, 1)):
        with pytest.raises(BadProbe):
            check_epsilon_regular_normal(3, scale, regularity_epsilon(),
                                         probes=[not_regular, bad])
    with pytest.raises(SupportMismatch):
        check_epsilon_regular_normal(3, scale, regularity_epsilon(),
                                     probes=[not_regular, ((F(0),), F(1))])
    far = Prior.at((F(5),))
    with pytest.raises(BadProbe):
        blyth_certificate(NormalLocationLinear(1), F(1), far, eps(), [F(1)],
                          probes=[((F(0),), F(1)), ((F(0),), F(0))])


def test_indeterminate_verdict_names_the_first_indeterminate_probe():
    # at a standard scale the enclosure's lower bound 1 - R^2/2 is negative
    # once R = ||center|| + radius passes sqrt 2, while the upper bound stays
    # a positive standard number: both probes below are Indeterminate
    first, second = ((F(0),), F(2)), ((F(1),), F(2))
    for probes in ([first, second], [second, first]):
        verdict = check_epsilon_regular_normal(1, LCNumber(1), eps(), probes=probes)
        assert verdict.verdict == INDETERMINATE
        assert verdict.witness == probes[0]


def test_gaussian_and_finite_priors_share_the_verdicts():
    # through blyth_certificate, both prior kinds give the same verdict types:
    # Regular, or NotRegular at the first default probe with its mass bounds
    scale = eps().inverse()
    epsilon = regularity_epsilon()
    spread = Prior(support=((F(0),), (F(1),)), weights=(F(1, 2), F(1, 2)))
    far = Prior.at((F(5),))
    cases = [(NormalLocationLinear(1), GaussianPrior(scale), REGULAR),
             (NormalLocationLinear(1), spread, REGULAR),
             (NormalLocationLinear(3), GaussianPrior(scale), NOT_REGULAR),
             (NormalLocationLinear(1), far, NOT_REGULAR)]
    for family, prior, expected in cases:
        verdict = blyth_certificate(family, F(1), prior, epsilon, [F(1)]).regularity
        assert isinstance(verdict, RegularityVerdict)
        assert verdict.verdict == expected
        if expected == REGULAR:
            assert verdict.witness is None and verdict.interval is None
        else:
            assert verdict.witness == default_probes(family.dim)[0]
            lower, upper = verdict.interval
            assert 0 <= lower <= upper and not much_greater(upper, epsilon)
    assert blyth_certificate(NormalLocationLinear(1), F(1), far, epsilon,
                             [F(1)]).regularity.interval == (0, 0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_mass_bounds_ordered_and_share_valuation(dim):
    prior = GaussianPrior(eps().inverse())
    for center, radius in default_probes(dim):
        lower, upper = prior.ball_mass_bounds(center, radius)
        assert lower <= upper
        assert lower > 0
        assert lower.valuation() == upper.valuation() == dim


def test_volume_and_normalizer_intervals():
    lo, hi = ball_volume_interval(2, F(1))
    assert lo <= hi
    assert F(314, 100) < lo and hi < F(315, 100)        # pi r^2
    lo1, hi1 = ball_volume_interval(1, F(3))
    assert lo1 == hi1 == 6                              # 2r is exact
    glo, ghi = gaussian_normalizer_interval(1)
    assert glo <= ghi
    assert F(39, 100) < glo and ghi < F(40, 100)        # (2 pi)^(-1/2) ~ 0.3989


# ----------------------------------------------------------------------
# Bernoulli boundary family
# ----------------------------------------------------------------------


def test_success_probability_branches():
    family = BernoulliBoundary()
    assert family.success_probability(F(1, 3)) == F(1, 3)
    assert family.success_probability(F(0)) == 1
    assert family.success_probability(eps()) == eps()   # infinitesimal takes t-branch
    for outside in (F(-1), F(2), 1 + eps()):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            family.success_probability(outside)
    assert family.success_probability(F(1)) == 1
    with pytest.raises(ValueError):
        family.risk((F(0), F(0)), F(2))


def test_risk_values():
    family = BernoulliBoundary()
    zero_rule = (F(0), F(0))
    assert family.risk(zero_rule, F(1, 2)) == F(1, 4)
    assert family.risk(zero_rule, F(0)) == 1
    assert family.risk(zero_rule, eps()) == eps() ** 2


def test_infinitesimal_point_prior_bayes_risk():
    family = BernoulliBoundary()
    prior = Prior.at((eps(),))
    value = family.bayes_risk((F(0), F(0)), prior)
    assert value == eps() ** 2
    assert st(value) == 0
    # the posterior-mean rule achieves Bayes risk exactly 0 at a point prior
    assert family.optimal_rule(prior) == (eps(), eps())
    assert family.optimal_bayes_risk(prior) == LCNumber(0)
    # so the candidate is epsilon-Bayes at infinitesimal slack eps
    assert value <= family.optimal_bayes_risk(prior) + eps()


def test_finite_support_ball_mass():
    e = eps()
    prior = Prior(support=((e,), (LCNumber(F(1, 2)),)),
                  weights=(LCNumber(F(1, 3)), LCNumber(F(2, 3))))
    assert ball_mass(prior, (F(0),), F(1, 4)) == F(1, 3)
    assert ball_mass(prior, (F(1, 2),), F(1, 10)) == F(2, 3)
    assert ball_mass(prior, (F(0),), F(1)) == 1
    assert ball_mass(prior, (F(2),), F(1, 4)) == 0
    # the ball is open, in the Euclidean norm, and a standard prior's mass is rational
    plane = Prior(support=((F(0), F(0)), (F(3), F(4))), weights=(F(1, 4), F(3, 4)))
    assert ball_mass(plane, (F(0), F(0)), F(5)) == F(1, 4)
    assert ball_mass(plane, (F(0), F(0)), F(5) + e) == 1
    assert ball_mass(plane, (F(3), F(3)), F(3, 2)) == F(3, 4)
    # a center of another dimension is refused, not read off a coordinate prefix
    with pytest.raises(SupportMismatch):
        ball_mass(plane, (F(3),), F(1, 2))
    with pytest.raises(SupportMismatch):
        blyth_certificate(NormalLocationLinear(1), F(1), Prior.at((F(0),)), eps(), [F(1)],
                          probes=[((F(0), F(5)), F(1))])


def test_optimal_rule_posterior_means():
    family = BernoulliBoundary()
    prior = Prior(support=((F(1, 4),), (F(3, 4),)), weights=(F(1, 2), F(1, 2)))
    tails, heads = family.optimal_rule(prior)
    # posterior mean of g given tails: weights (1-g): 3/8 vs 1/8
    assert tails == (F(3, 8) * F(1, 4) + F(1, 8) * F(3, 4)) / F(1, 2)
    assert heads == (F(1, 8) * F(1, 4) + F(3, 8) * F(3, 4)) / F(1, 2)
    best = family.optimal_bayes_risk(prior)
    for rule in [(F(0), F(0)), (F(1, 2), F(1, 2)), (tails, heads),
                 (F(1, 4), F(3, 4))]:
        assert best <= family.bayes_risk(rule, prior)


def test_boundary_report_non_bayes_grid():
    report = bernoulli_boundary_report()
    assert report.lc_bayes_risk == eps() ** 2
    assert report.lc_bayes_risk_st == 0
    assert report.risk_at_half == F(1, 4)
    assert report.risk_at_zero == 1
    point_entries = [e for e in report.non_bayes if e.prior_label.startswith("point t=")
                     and e.prior_label != "point t=0"]
    assert len(point_entries) == 10
    for entry in report.non_bayes:
        assert entry.optimal_rule[0] > 0 and entry.optimal_rule[1] > 0
        assert entry.excess > 0


def test_boundary_report_domination_grids():
    # as specified, the state grid stops at 1/40 and the marginal
    # challengers tie there: three grid dominators exist.  41 states
    # suffice because the grid {1/n : n <= N} refutes every 1/k-step
    # challenger exactly when N >= 2k + 1 (a challenger with smallest
    # positive component m loses to (0, 0) at every t in (0, m/2))
    stated = bernoulli_boundary_report(state_count=40)
    assert set(stated.dominators_found) == {
        (F(0), F(1, 20)), (F(1, 20), F(0)), (F(1, 20), F(1, 20))}
    extended = bernoulli_boundary_report(state_count=41)
    assert extended.dominators_found == ()


# ----------------------------------------------------------------------
# Blyth certificates
# ----------------------------------------------------------------------


def test_blyth_certifies_sample_mean_dim_one():
    scale = eps().inverse()
    epsilon = (scale * scale + 1).inverse()
    cert = blyth_certificate(NormalLocationLinear(1), LCNumber(1),
                             GaussianPrior(scale), epsilon,
                             [F(j, 10) for j in range(11)])
    assert cert.certified
    assert cert.regularity.verdict == REGULAR
    assert cert.challenger_count == 11


def test_blyth_fails_regularity_dim_three():
    scale = eps().inverse()
    epsilon = (scale * scale + 1).inverse()
    cert = blyth_certificate(NormalLocationLinear(3), LCNumber(1),
                             GaussianPrior(scale), epsilon,
                             [F(j, 10) for j in range(11)])
    assert not cert.certified
    assert "regularity" in cert.reason


def test_blyth_point_prior_fails_regularity():
    # the candidate is epsilon-Bayes on the grid, but a point prior gives
    # faraway balls zero mass, so the regularity half fails
    family = BernoulliBoundary()
    prior = Prior.at((eps(),))
    challengers = [(F(a, 4), F(b, 4)) for a in range(5) for b in range(5)]
    cert = blyth_certificate(family, (F(0), F(0)), prior, eps(), challengers)
    assert not cert.certified
    assert "regularity" in cert.reason
    # the near-Bayes half held: every challenger allowed the candidate
    candidate = family.bayes_risk((F(0), F(0)), prior)
    for challenger in challengers:
        assert candidate <= family.bayes_risk(challenger, prior) + eps()


def test_blyth_standard_priors():
    # rational weights on rational points, through both halves of the certificate
    family = BernoulliBoundary()
    cert = blyth_certificate(family, (F(1, 2), F(1, 2)), Prior.at((F(1, 2),)), eps(),
                             [(F(a, 4), F(b, 4)) for a in range(5) for b in range(5)])
    assert cert.candidate_bayes_risk == F(0)
    assert "regularity" in cert.reason
    assert cert.regularity.witness == ((F(0),), F(1, 2))
    # mass 1/2 in every default probe ball is infinitely larger than eps
    location = NormalLocationLinear(1)
    spread = Prior(support=((F(0),), (F(1),)), weights=(F(1, 2), F(1, 2)))
    cert = blyth_certificate(location, F(1, 3), spread, eps(), [F(j, 6) for j in range(7)])
    assert cert.certified, cert.reason
    assert cert.candidate_bayes_risk == F(1, 3) ** 2 + F(2, 3) ** 2 * F(1, 2)
    cert = blyth_certificate(location, F(1), spread, eps(), [F(1, 3)])
    assert cert.reason == "candidate is not epsilon-Bayes against challenger 0"


def test_blyth_not_bayes_reason():
    scale = eps().inverse()
    epsilon = (scale * scale + 1).inverse()
    # candidate c = 0 is beaten by c = 1 by a non-infinitesimal margin
    cert = blyth_certificate(NormalLocationLinear(1), LCNumber(0),
                             GaussianPrior(scale), epsilon, [F(1)])
    assert not cert.certified
    assert "not epsilon-Bayes" in cert.reason


# ----------------------------------------------------------------------
# scalar-field genericity
# ----------------------------------------------------------------------


def test_risk_at_lifted_rational_points_matches():
    rng = random.Random(11)
    location = NormalLocationLinear(2)
    boundary = BernoulliBoundary()
    for _ in range(25):
        c = F(rng.randint(0, 8), 8)
        theta = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
        lifted = location.risk(LCNumber(c), tuple(LCNumber(t) for t in theta))
        assert st(lifted) == location.risk(c, theta)
        t = F(rng.randint(1, 9), 9)
        a, b = F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4)
        lifted_b = boundary.risk((LCNumber(a), LCNumber(b)), LCNumber(t))
        assert st(lifted_b) == boundary.risk((a, b), t)
