"""Exact LP solver and certificate checker tests."""

import random
from fractions import Fraction as F

import pytest

import lcbayes.ratlp
from lcbayes.ratlp import (CertificateError, LPProblem, LPStatus,
                           MalformedProblem, check_certificate, solve_lp)


def test_single_variable_bound():
    sol = solve_lp(LPProblem.build([1], [[1]], ["<="], [3]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == (F(3),)
    assert sol.objective_value == 3


def test_simplex_face():
    sol = solve_lp(LPProblem.build([1, 1], [[1, 1]], ["<="], [1]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == 1


def test_contradictory_bounds_infeasible():
    sol = solve_lp(LPProblem.build([1], [[1], [1]], [">=", "<="], [1, 0]))
    assert sol.status is LPStatus.INFEASIBLE
    assert sol.farkas_rows is not None
    # the checker has already validated the Farkas certificate; spot-check
    # the aggregated inequality by hand
    total = sum(lam * b for lam, b in zip(sol.farkas_rows, (F(1), F(0))))
    assert total < 0


def test_unbounded_with_ray():
    sol = solve_lp(LPProblem.build([1, -1], [[0, 1]], ["<="], [5]))
    assert sol.status is LPStatus.UNBOUNDED
    gain = sum(c * r for c, r in zip((F(1), F(-1)), sol.ray))
    assert gain > 0


def test_equality_and_upper_bound():
    sol = solve_lp(LPProblem.build([2, 3], [[1, 1]], ["="], [1],
                                   upper=[F(1, 4), None]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == (F(0), F(1))
    assert sol.objective_value == 3


def test_free_variable():
    sol = solve_lp(LPProblem.build([-1], [[-1]], ["<="], [5], lower=[None]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == (F(-5),)


def test_negative_rhs_flip():
    sol = solve_lp(LPProblem.build([1], [[-1], [1]], ["<=", "<="], [-2, 5]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == (F(5),)


def test_degenerate_three_variable_instance():
    # multiple bases describe the same optimum; Bland's rule terminates
    sol = solve_lp(LPProblem.build(
        [0, 0, 1],
        [[1, 1, 1], [1, -1, 0], [-1, 1, 0]],
        ["<=", "<=", "<="],
        [1, 0, 0]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == 1


def test_beale_cycling_instance():
    # the classic example that cycles under Dantzig pricing
    sol = solve_lp(LPProblem.build(
        [F(3, 4), -150, F(1, 50), -6],
        [[F(1, 4), -60, -F(1, 25), 9],
         [F(1, 2), -90, -F(1, 50), 3],
         [0, 0, 1, 0]],
        ["<=", "<=", "<="],
        [0, 0, 1]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == F(1, 20)


def test_redundant_rows_dropped():
    sol = solve_lp(LPProblem.build([1, 1], [[1, 1], [2, 2]], ["=", "="], [1, 2]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == 1


def test_strong_duality_exact():
    p = LPProblem.build([3, 5], [[1, 0], [0, 2], [3, 2]],
                        ["<=", "<=", "<="], [4, 12, 18])
    sol = solve_lp(p)
    assert sol.status is LPStatus.OPTIMAL
    dual_value = sum(y * b for y, b in zip(sol.row_duals, p.rhs))
    assert dual_value == sol.objective_value == 36


def test_dimension_mismatch():
    with pytest.raises(MalformedProblem):
        LPProblem.build([1, 2], [[1]], ["<="], [1])
    with pytest.raises(MalformedProblem):
        LPProblem.build([1], [[1]], ["<>"], [1])
    with pytest.raises(MalformedProblem):
        LPProblem.build([1], [[1]], ["<="], [1], lower=[F(1)])


def test_checker_rejects_tampered_solution():
    p = LPProblem.build([1], [[1]], ["<="], [3])
    good = solve_lp(p)
    bad = good.replace(x=(F(4),), objective_value=F(4))
    with pytest.raises(CertificateError, match="row 0 violated"):
        check_certificate(p, bad)
    bad_gap = good.replace(row_duals=(F(2),))
    with pytest.raises(CertificateError, match="duality gap nonzero"):
        check_certificate(p, bad_gap)


def test_json_roundtrip():
    p = LPProblem.build([1, -2], [[1, 1]], ["<="], [F(7, 3)],
                        lower=[0, None], upper=[F(5, 2), None])
    assert LPProblem.from_json(p.to_json()) == p
    # no eta part: the text is the one written before eta parts existed
    assert p.to_json() == (
        '{"lower": ["0", "-inf"], "objective": ["1", "-2"], "relations": ["<="], '
        '"rhs": ["7/3"], "rows": [["1", "1"]], "upper": ["5/2", "inf"]}')


def test_json_roundtrip_with_eta_part():
    p = LPProblem.build([1, -2], [[1, 1], [1, 0]], ["<=", ">="], [F(7, 3), 0],
                        lower=[0, None], rhs_eta=[0, F(-1, 2)])
    text = p.to_json()
    assert '"rhs_eta": ["0", "-1/2"]' in text
    assert LPProblem.from_json(text) == p


# ----------------------------------------------------------------------
# right-hand sides with an eta part: b + eta * b_eta, eta > 0 infinitesimal
# ----------------------------------------------------------------------


def test_eta_part_solved_lexicographically():
    # maximize x + y subject to x <= 1 + 2 eta, y <= -eta + 3, x + y <= 4 - eta
    p = LPProblem.build([1, 1], [[1, 0], [0, 1], [1, 1]], ["<=", "<=", "<="], [1, 3, 4],
                        rhs_eta=[2, -1, -1])
    sol = solve_lp(p)
    assert sol.status is LPStatus.OPTIMAL
    assert (sol.objective_value, sol.objective_value_eta) == (4, -1)
    assert sol.x == (F(1), F(3)) and sol.x_eta == (F(2), F(-3))
    # at eta = 0 the duals (1, 1, 0) would be optimal too; the eta part
    # leaves only the third row's, whose dual value is 4 - eta, not 4 + eta
    assert sol.row_duals == (F(0), F(0), F(1))


def test_infeasible_only_in_the_eta_part():
    # x >= 0 and x <= -eta: feasible at eta = 0, infeasible for every eta > 0
    p = LPProblem.build([1], [[1]], ["<="], [0], rhs_eta=[-1])
    sol = solve_lp(p)
    assert sol.status is LPStatus.INFEASIBLE
    assert sol.farkas_rows == (F(1),)
    # the same multipliers say nothing when b_eta is 0 or positive
    for b_eta in (0, 1):
        with pytest.raises(CertificateError, match="does not prove infeasibility"):
            check_certificate(LPProblem.build([1], [[1]], ["<="], [0], rhs_eta=[b_eta]), sol)


def test_checker_rejects_wrong_eta_parts():
    p = LPProblem.build([1], [[1]], ["<="], [1], rhs_eta=[2])
    good = solve_lp(p)
    assert (good.x_eta, good.objective_value_eta) == ((F(2),), F(2))
    cases = {
        # x = 1 + 3 eta breaks the row
        "row 0 violated": {"x_eta": (F(3),)},
        # the value's eta coefficient disagrees with c . x_eta
        "objective value mismatch": {"objective_value_eta": F(3)},
        # x = 1 + eta is feasible and matches its value, but is not optimal:
        # the dual value's eta coefficient is y . b_eta = 2
        "duality gap nonzero": {"x_eta": (F(1),), "objective_value_eta": F(1)},
        "optimal solution missing fields": {"x_eta": None},
    }
    for message, fields in cases.items():
        with pytest.raises(CertificateError, match=message):
            check_certificate(p, good.replace(**fields))


def test_checker_rejects_wrong_eta_part_of_ray_origin():
    # maximize x subject to x >= eta: unbounded from the origin x = eta
    p = LPProblem.build([1], [[1]], [">="], [0], rhs_eta=[1])
    good = solve_lp(p)
    assert good.status is LPStatus.UNBOUNDED
    assert (good.ray_origin, good.ray_origin_eta) == ((F(0),), (F(1),))
    with pytest.raises(CertificateError, match="row 0 violated"):
        check_certificate(p, good.replace(ray_origin_eta=(F(0),)))
    with pytest.raises(CertificateError, match="below lower bound"):
        check_certificate(p, good.replace(ray_origin_eta=(F(-1),)))


def test_randomized_instances_all_certified():
    # the checker never rejects a solver output, across statuses
    rng = random.Random(20240814)
    statuses = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 0, LPStatus.UNBOUNDED: 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        objective = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        relations = [rng.choice(["<=", "=", ">="]) for _ in range(m)]
        rhs = [F(rng.randint(-4, 6), rng.randint(1, 2)) for _ in range(m)]
        lower = [None if rng.random() < 0.25 else 0 for _ in range(n)]
        upper = [F(rng.randint(1, 6)) if rng.random() < 0.3 else None
                 for _ in range(n)]
        sol = solve_lp(LPProblem.build(objective, rows, relations, rhs,
                                       lower=lower, upper=upper))
        statuses[sol.status] += 1
    assert sum(statuses.values()) == 60
    assert statuses[LPStatus.OPTIMAL] > 0
    assert statuses[LPStatus.INFEASIBLE] > 0
    assert statuses[LPStatus.UNBOUNDED] > 0


def test_every_solve_is_verified(monkeypatch):
    # solve_lp has no way to skip the checker: its verdict reaches the caller
    def rejecting_check(problem, solution):
        raise CertificateError(f"rejected {solution.status.value}")

    monkeypatch.setattr(lcbayes.ratlp, "check_certificate", rejecting_check)
    for lp, status in [
            (LPProblem.build([1], [[1]], ["<="], [3]), "optimal"),
            (LPProblem.build([1], [[1], [1]], [">=", "<="], [1, 0]), "infeasible"),
            (LPProblem.build([1, -1], [[0, 1]], ["<="], [5]), "unbounded")]:
        with pytest.raises(CertificateError, match=f"rejected {status}"):
            solve_lp(lp)
