"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are zero (exact arithmetic); runtime limits are the
stated budgets.

Criterion 3 rests on an exact identity of the Bernoulli boundary family:
at t > 0 the risk of a challenger (a, b) minus the risk of (0, 0) is

    (1 - t) * a * (a - 2t) + t * b * (b - 2t).

A challenger whose smallest positive component is m is therefore strictly
worse than (0, 0) at every t in (0, m/2), and the state grid
{1/n : n <= N} plus 0 refutes every 1/k-step challenger exactly when
N >= 2k + 1.  The pinned grid (k = 20, N = 40) is one state short of that:
the marginal challengers (0, 1/20), (1/20, 0) and (1/20, 1/20) tie (0, 0)
at 1/40 = (1/20)/2 and win elsewhere on it, so it has exactly three grid
dominators.  The criterion asserts that outcome exactly, and asserts the
no-domination claim on the grid with N = 2k + 1.
"""

import json
import random
import time
from fractions import Fraction as F

from lcbayes.cli import main
from lcbayes.decision import (FiniteProblem, Prior, Procedure, derandomize,
                              loss_convex_along_embedding, risk, risk_vector)
from lcbayes.families import (NOT_REGULAR, REGULAR, BernoulliBoundary,
                              NormalLocationLinear, bernoulli_boundary_report,
                              normal_location_report, pushdown_risk_consistency)
from lcbayes.lcnum import (LCNumber, eps, much_greater, parse,
                           refute_much_greater, st)
from lcbayes.priors import (max_uniform_improvement, minimal_bayes_risk, synthesize_prior,
                            verify_epsilon_bayes)

ORDER = 8


def announce(number: int, ok: bool, description: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {description} ({elapsed:.2f}s)")


def alternating(scale_num: int, start: int, order: int = ORDER) -> LCNumber:
    """Long-division oracle for scale_num * eps^start / (1 + eps^2)."""
    terms = []
    k = 0
    while 2 * k <= order:
        terms.append((start + 2 * k, scale_num * (-1) ** k))
        k += 1
    return LCNumber.from_terms(terms, order)


def run_example(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


# ----------------------------------------------------------------------
# 1. normal-location exactness
# ----------------------------------------------------------------------


def test_criterion_1_normal_location_exactness(capsys):
    start = time.monotonic()
    ok = True
    try:
        for dim in (1, 2, 3):
            payload = run_example(capsys, ["example", "normal-location",
                                           "--dim", str(dim)])
            assert parse(payload["shrinkage_bayes_risk"]) == alternating(dim, 0)
            assert parse(payload["sample_mean_bayes_risk"]) == LCNumber(dim)
            assert parse(payload["gap"]) == alternating(dim, 2)
            assert payload["gap_is_infinitesimal"] is True
            assert payload["prior_scale"] == "eps^-1"
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(1, ok and elapsed < 1.0,
                 "normal-location Bayes risks and gap exact for dim 1..3", elapsed)
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 2. regularity dimension threshold
# ----------------------------------------------------------------------


def test_criterion_2_regularity_threshold(capsys):
    start = time.monotonic()
    ok = True
    try:
        one = run_example(capsys, ["example", "normal-location", "--dim", "1"])
        assert one["regularity"]["verdict"] == REGULAR
        three = run_example(capsys, ["example", "normal-location", "--dim", "3"])
        assert three["regularity"]["verdict"] == NOT_REGULAR
        # dim 2: recorded and flagged as a documented discrepancy
        two = run_example(capsys, ["example", "normal-location", "--dim", "2"])
        assert two["regularity"]["verdict"] == NOT_REGULAR
        assert "regularity_discrepancy_note" in two
        report = normal_location_report(2)
        assert report.discrepancy_note is not None
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(2, ok and elapsed < 1.0,
                 "regularity Regular at dim 1, NotRegular at dim 3, "
                 "dim 2 recorded as documented discrepancy", elapsed)
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 3. Bernoulli boundary
# ----------------------------------------------------------------------


CHALLENGER_STEP = 20
PINNED_STATE_COUNT = 40


def test_criterion_3_bernoulli_boundary():
    start = time.monotonic()
    ok = True
    try:
        report = bernoulli_boundary_report(order=ORDER,
                                           challenger_step=CHALLENGER_STEP,
                                           state_count=PINNED_STATE_COUNT)

        # (i) Bayes risk of (0,0) under the point prior at eps is exactly eps^2
        assert report.lc_bayes_risk == eps() ** 2
        assert report.lc_bayes_risk_st == 0

        # (ii) grid non-Bayes demonstration on the 10-point grid
        point_entries = [e for e in report.non_bayes
                         if e.prior_label.startswith("point t=")
                         and e.prior_label != "point t=0"]
        assert len(point_entries) == 10
        for entry in report.non_bayes:
            assert entry.optimal_rule[0] > 0 and entry.optimal_rule[1] > 0
            assert entry.excess > 0

        # (iii) no-domination over the 21x21 challenger grid.  The pinned
        # state grid {1/n : n <= 40} + {0} is one state short of
        # 2 * step + 1: its three marginal challengers are exact grid
        # dominators, each tying (0, 0) at the smallest state 1/40.
        family = BernoulliBoundary()
        zero_rule = (F(0), F(0))
        unit = F(1, CHALLENGER_STEP)
        assert report.challenger_count == 440
        assert report.state_count == PINNED_STATE_COUNT + 1
        assert report.dominators_found == ((F(0), unit), (unit, F(0)),
                                           (unit, unit))
        smallest = F(1, PINNED_STATE_COUNT)
        for rule in report.dominators_found:
            assert family.risk(rule, smallest) == family.risk(zero_rule,
                                                              smallest)

        # the state grid {1/n : n <= 2 * step + 1} + {0} leaves no dominator
        refuting_count = 2 * CHALLENGER_STEP + 1
        refuting = bernoulli_boundary_report(order=ORDER,
                                             challenger_step=CHALLENGER_STEP,
                                             state_count=refuting_count)
        assert refuting.dominators_found == ()

        # independently of the report's scan: at t = 1/(2 * step + 1) every
        # challenger is strictly worse than (0, 0), by the closed-form gap
        t = F(1, refuting_count)
        challengers = [(F(i, CHALLENGER_STEP), F(j, CHALLENGER_STEP))
                       for i in range(CHALLENGER_STEP + 1)
                       for j in range(CHALLENGER_STEP + 1) if (i, j) != (0, 0)]
        assert len(challengers) == 440
        candidate = family.risk(zero_rule, t)
        for a, b in challengers:
            gap = (1 - t) * a * (a - 2 * t) + t * b * (b - 2 * t)
            assert gap > 0
            assert family.risk((a, b), t) - candidate == gap
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(3, ok and elapsed < 30.0,
                 "Bernoulli boundary: eps^2 Bayes risk and non-Bayes grid "
                 "hold; the pinned grid has exactly its 3 tie dominators and "
                 "the 2k+1 grid refutes all 440 challengers", elapsed)
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# 4. duality identity on random problems
# ----------------------------------------------------------------------


def _random_problem(rng):
    n_states, n_obs, n_actions = (rng.randint(1, 4) for _ in range(3))
    model = []
    for _ in range(n_states):
        raw = [rng.randint(0, 9) for _ in range(n_obs)]
        if sum(raw) == 0:
            raw[rng.randrange(n_obs)] = 1
        total = sum(raw)
        model.append([F(v, total) for v in raw])
    loss = [[F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n_actions)]
            for _ in range(n_states)]
    problem = FiniteProblem.build(
        [f"s{i}" for i in range(n_states)],
        [f"x{i}" for i in range(n_obs)],
        [f"a{i}" for i in range(n_actions)],
        model=model, loss=loss)
    if rng.random() < 0.5:
        procedure = Procedure.nonrandomized(
            [rng.randrange(n_actions) for _ in range(n_obs)])
    else:
        rows = []
        for _ in range(n_obs):
            raw = [rng.randint(0, 5) for _ in range(n_actions)]
            if sum(raw) == 0:
                raw[rng.randrange(n_actions)] = 1
            total = sum(raw)
            rows.append([F(v, total) for v in raw])
        procedure = Procedure.randomized(rows)
    return problem, procedure


def test_criterion_4_duality_identity():
    start = time.monotonic()
    rng = random.Random(20250809)
    ok = True
    try:
        for _ in range(100):
            problem, procedure = _random_problem(rng)
            epsilon_star, _ = max_uniform_improvement(problem, procedure)
            game = synthesize_prior(problem, procedure)
            assert game.epsilon_star == epsilon_star >= 0
            assert verify_epsilon_bayes(problem, risk_vector(problem, procedure),
                                        game.witness_prior, game.epsilon_star)
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(4, ok and elapsed < 60.0,
                 "v* + eps* = 0 exactly and witness priors verified on "
                 "100 random problems", elapsed)
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 5. brute-force prior-grid oracle
# ----------------------------------------------------------------------


def _grid_priors(n_states, steps):
    if n_states == 1:
        yield (F(1),)
    elif n_states == 2:
        for i in range(steps + 1):
            yield (F(i, steps), F(steps - i, steps))
    else:
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                yield (F(i, steps), F(j, steps), F(steps - i - j, steps))


def test_criterion_5_brute_force_oracle():
    start = time.monotonic()
    rng = random.Random(77)
    steps = 100
    ok = True
    try:
        for _ in range(20):
            while True:
                problem, procedure = _random_problem(rng)
                if problem.n_states <= 3 and problem.n_observations <= 3 \
                        and problem.n_actions <= 3:
                    break
            game = synthesize_prior(problem, procedure)
            grid_best = None
            for weights in _grid_priors(problem.n_states, steps):
                prior = Prior(weights)
                gap = minimal_bayes_risk(problem, prior) \
                    - sum(w * r for w, r in zip(
                        weights,
                        [risk(problem, procedure, s)
                         for s in range(problem.n_states)]))
                if grid_best is None or gap > grid_best:
                    grid_best = gap
            max_loss = max(max(row) for row in problem.loss)
            bound = F(1, steps) * 2 * max_loss
            # the grid is a restriction of the prior simplex, so it can
            # never exceed the exact optimum
            assert grid_best <= -game.epsilon_star
            assert -game.epsilon_star - grid_best <= bound
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(5, ok and elapsed < 60.0,
                 "game value within the Lipschitz bound of the 0.01-step "
                 "prior-grid maximum on 20 problems", elapsed)
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 6. Levi-Civita field suite
# ----------------------------------------------------------------------


def _random_lc(rng, max_terms=3):
    # support spread stays within half the truncation order, so every
    # intermediate of the three-operand laws below is exact on its window
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        expo = F(rng.randint(-4, 4), 2)
        coeff = F(rng.randint(-9, 9), rng.randint(1, 9))
        pairs.append((expo, coeff))
    return LCNumber.from_terms(pairs, ORDER)


def test_criterion_6_field_suite():
    start = time.monotonic()
    rng = random.Random(60609)
    checks = 0
    ok = True
    try:
        for _ in range(150):
            a, b, c = (_random_lc(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            checks += 5
            if a < b:
                assert a + c < b + c
                checks += 1
                if c > 0:
                    assert a * c < b * c
                    checks += 1
            if not a.is_zero():
                assert a * a.inverse() == LCNumber(1, ORDER)
                checks += 1
            if a.is_near_standard() and b.is_near_standard():
                assert st(a + b) == st(a) + st(b)
                assert st(a * b) == st(a) * st(b)
                checks += 2
            x, y = abs(a) + eps() ** 6, abs(b) + eps() ** 7
            if much_greater(x, y):
                for gamma in (F(1), F(1, 2), F(1, 10 ** 6)):
                    assert gamma * x > y
                checks += 3
            else:
                gamma = refute_much_greater(x, y)
                assert gamma > 0 and gamma * x <= y
                checks += 1
        assert checks >= 1000
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(6, ok and elapsed < 30.0,
                 f"field/order/inverse/st/witness suite, {checks} exact checks",
                 elapsed)
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# 7. Jensen / derandomization
# ----------------------------------------------------------------------


def _random_convex_problem(rng):
    n_states = rng.randint(1, 3)
    n_obs = rng.randint(1, 3)
    values = sorted(rng.sample([F(n, 4) for n in range(-4, 9)], rng.randint(3, 5)))
    targets = [F(rng.randint(-8, 8), 4) for _ in range(n_states)]
    loss = [[(g - v) ** 2 for v in values] for g in targets]
    model = []
    for _ in range(n_states):
        raw = [rng.randint(0, 9) for _ in range(n_obs)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        model.append([F(v, total) for v in raw])
    problem = FiniteProblem.build(
        [f"s{i}" for i in range(n_states)],
        [f"x{i}" for i in range(n_obs)],
        [(f"a{i}", v) for i, v in enumerate(values)],
        model=model, loss=loss)
    # each row is a mean-preserving spread around an embedded action
    rows = []
    n = len(values)
    for _ in range(n_obs):
        t = rng.randrange(n)
        row = [F(0)] * n
        if 0 < t < n - 1 and rng.random() < 0.8:
            i, j = t - 1, t + 1
            spread = F(rng.randint(1, 3), 4)
            w_j = spread * (values[t] - values[i]) / (values[j] - values[i])
            w_i = spread - w_j
            row[i], row[j], row[t] = w_i, w_j, 1 - spread
        else:
            row[t] = F(1)
        rows.append(row)
    return problem, Procedure.randomized(rows)


def test_criterion_7_jensen_derandomization():
    start = time.monotonic()
    rng = random.Random(50507)
    ok = True
    try:
        for _ in range(50):
            problem, mixed = _random_convex_problem(rng)
            assert loss_convex_along_embedding(problem)
            snapped = derandomize(problem, mixed)
            for s in range(problem.n_states):
                assert risk(problem, snapped, s) <= risk(problem, mixed, s)
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(7, ok and elapsed < 30.0,
                 "derandomized exact-mean mixtures never riskier, "
                 "50 random convex problems", elapsed)
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# 8. pushdown consistency
# ----------------------------------------------------------------------


def test_criterion_8_pushdown_consistency():
    start = time.monotonic()
    rng = random.Random(88)
    ok = True
    try:
        boundary = BernoulliBoundary()
        cases = 0
        for dim in (1, 2, 3):
            family = NormalLocationLinear(dim)
            for _ in range(4):
                point = tuple(LCNumber(F(rng.randint(-4, 4), 2))
                              + rng.randint(-2, 2) * eps() for _ in range(dim))
                c = F(rng.randint(0, 8), 8)
                _, _, agree = pushdown_risk_consistency(
                    family, c, Prior.at(point))
                assert agree
                cases += 1
        for _ in range(8):
            base = F(rng.randint(1, 9), 10)
            point = (LCNumber(base) + rng.randint(-1, 1) * eps() ** 2,)
            params = (F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4))
            _, _, agree = pushdown_risk_consistency(
                boundary, params, Prior.at(point))
            assert agree
            cases += 1
        assert cases >= 20
        # the boundary discontinuity is detected
        lc_value, std_value, agree = pushdown_risk_consistency(
            boundary, (F(0), F(0)), Prior.at((eps(),)))
        assert lc_value == eps() ** 2
        assert std_value == 1
        assert not agree
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.monotonic() - start
        announce(8, ok and elapsed < 30.0,
                 "pushdown Bayes risks agree on 20 polynomial cases and the "
                 "boundary discontinuity is flagged", elapsed)
    assert elapsed < 30.0
