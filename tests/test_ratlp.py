"""Exact LP solver and certificate checker tests."""

import random
from fractions import Fraction as F

import pytest

import lcbayes.ratlp
from lcbayes.ratlp import (CertificateError, LPProblem, MalformedProblem, check_certificate,
                           solve_lp)


def test_single_variable_bound():
    sol = solve_lp(LPProblem.build([1], [[1]], ["<="], [3]))
    assert sol.x == (F(3),)
    assert sol.objective_value == 3


def test_simplex_face():
    sol = solve_lp(LPProblem.build([1, 1], [[1, 1]], ["<="], [1]))
    assert sol.objective_value == 1


def test_contradictory_bounds_infeasible():
    # x = 1 and x = 2: no optimum, so no solution
    with pytest.raises(CertificateError, match="infeasible"):
        solve_lp(LPProblem.build([1], [[1], [1]], ["=", "="], [1, 2]))


def test_unbounded_lp_raises():
    with pytest.raises(CertificateError, match="unbounded"):
        solve_lp(LPProblem.build([1, -1], [[0, 1]], ["<="], [5]))


def test_equality_and_upper_bound():
    # the upper bound x <= 1/4 as a row
    sol = solve_lp(LPProblem.build([2, 3], [[1, 1], [1, 0]], ["=", "<="], [1, F(1, 4)]))
    assert sol.x == (F(0), F(1))
    assert sol.objective_value == 3
    # an absent upper bound is no upper bound
    assert LPProblem.build([1], [[1]], ["<="], [1], upper=[None]) == \
        LPProblem.build([1], [[1]], ["<="], [1])


def test_free_variable():
    sol = solve_lp(LPProblem.build([-1], [[-1]], ["<="], [5], lower=[None]))
    assert sol.x == (F(-5),)


def test_degenerate_three_variable_instance():
    # multiple bases describe the same optimum; Bland's rule terminates
    sol = solve_lp(LPProblem.build(
        [0, 0, 1],
        [[1, 1, 1], [1, -1, 0], [-1, 1, 0]],
        ["<=", "<=", "<="],
        [1, 0, 0]))
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
    assert sol.objective_value == F(1, 20)


def test_redundant_rows_dropped():
    sol = solve_lp(LPProblem.build([1, 1], [[1, 1], [2, 2]], ["=", "="], [1, 2]))
    assert sol.objective_value == 1
    assert sol.row_duals == (F(1), F(0))


def test_strong_duality_exact():
    p = LPProblem.build([3, 5], [[1, 0], [0, 2], [3, 2]],
                        ["<=", "<=", "<="], [4, 12, 18])
    sol = solve_lp(p)
    dual_value = sum(y * b for y, b in zip(sol.row_duals, p.rhs))
    assert dual_value == sol.objective_value == 36


def test_dimension_mismatch():
    with pytest.raises(MalformedProblem):
        LPProblem.build([1, 2], [[1]], ["<="], [1])
    with pytest.raises(MalformedProblem):
        LPProblem.build([1], [[1]], ["<>"], [1])
    with pytest.raises(MalformedProblem):
        LPProblem.build([1], [[1]], ["<="], [1], lower=[F(1)])


@pytest.mark.parametrize("kwargs, message", [
    ({"relations": [">="]}, "unsupported relation '>='"),
    ({"rhs": [-2]}, "row 0 has a negative right-hand side"),
    # b = 0 and b_eta = -1: negative for every eta > 0
    ({"rhs": [0], "rhs_eta": [-1]}, "row 0 has a negative right-hand side"),
    ({"upper": [F(1, 4)]}, "upper bounds are not supported"),
], ids=["geq", "negative-rhs", "negative-eta-part", "upper-bound"])
def test_build_refuses_other_shapes(kwargs, message):
    args = {"objective": [1], "rows": [[1]], "relations": ["<="], "rhs": [1], **kwargs}
    with pytest.raises(MalformedProblem, match=message):
        LPProblem.build(**args)


def test_checker_rejects_tampered_solution():
    p = LPProblem.build([1], [[1]], ["<="], [3])
    good = solve_lp(p)
    bad = good.replace(x=(F(4),), objective_value=F(4))
    with pytest.raises(CertificateError, match="row 0 violated"):
        check_certificate(p, bad)
    bad_gap = good.replace(row_duals=(F(2),))
    with pytest.raises(CertificateError, match="duality gap nonzero"):
        check_certificate(p, bad_gap)


def test_checker_rejects_tampered_row_duals():
    # maximize x + 2y subject to x + y = 1, y <= 1/2: duals (1, 1)
    p = LPProblem.build([1, 2], [[1, 1], [0, 1]], ["=", "<="], [1, F(1, 2)])
    good = solve_lp(p)
    assert good.row_duals == (F(1), F(1)) and good.objective_value == F(3, 2)
    cases = {
        # a negative price on the <= row, with the gap still closed
        "dual sign wrong on <= row 1": (F(2), F(-1)),
        # the column of x is priced below its objective coefficient
        "dual constraint 0 violated": (F(0), F(3)),
        "dual multipliers have wrong length": (F(1),),
    }
    for message, duals in cases.items():
        with pytest.raises(CertificateError, match=message):
            check_certificate(p, good.replace(row_duals=duals))


# ----------------------------------------------------------------------
# right-hand sides with an eta part: b + eta * b_eta, eta > 0 infinitesimal
# ----------------------------------------------------------------------


def test_eta_part_solved_lexicographically():
    # maximize x + y subject to x <= 1 + 2 eta, y <= -eta + 3, x + y <= 4 - eta
    p = LPProblem.build([1, 1], [[1, 0], [0, 1], [1, 1]], ["<=", "<=", "<="], [1, 3, 4],
                        rhs_eta=[2, -1, -1])
    sol = solve_lp(p)
    assert (sol.objective_value, sol.objective_value_eta) == (4, -1)
    assert sol.x == (F(1), F(3)) and sol.x_eta == (F(2), F(-3))
    # at eta = 0 the duals (1, 1, 0) would be optimal too; the eta part
    # leaves only the third row's, whose dual value is 4 - eta, not 4 + eta
    assert sol.row_duals == (F(0), F(0), F(1))


def test_infeasible_only_in_the_eta_part():
    # x = 0 and x = eta: feasible at eta = 0, infeasible for every eta > 0,
    # so phase 1 ends at a value with a zero standard part
    p = LPProblem.build([1], [[1], [1]], ["=", "="], [0, 0], rhs_eta=[0, 1])
    with pytest.raises(CertificateError, match="infeasible"):
        solve_lp(p)
    assert solve_lp(p.replace(rhs_eta=(F(0), F(0)))).x == (F(0),)


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


def test_randomized_instances_all_certified():
    # the checker never rejects a solver output; an LP without an optimum raises
    rng = random.Random(20240814)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        objective = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        relations = [rng.choice(["<=", "="]) for _ in range(m)]
        rhs = [F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
        lower = [None if rng.random() < 0.25 else 0 for _ in range(n)]
        try:
            solve_lp(LPProblem.build(objective, rows, relations, rhs, lower=lower))
            outcomes["optimal"] += 1
        except CertificateError as err:
            outcomes[str(err).split()[-1]] += 1
    assert sum(outcomes.values()) == 60
    assert all(count > 0 for count in outcomes.values()), outcomes


def test_every_solve_is_verified(monkeypatch):
    # solve_lp has no way to skip the checker: its verdict reaches the caller
    def rejecting_check(problem, solution):
        raise CertificateError(f"rejected value {solution.objective_value}")

    monkeypatch.setattr(lcbayes.ratlp, "check_certificate", rejecting_check)
    with pytest.raises(CertificateError, match="rejected value 3"):
        solve_lp(LPProblem.build([1], [[1]], ["<="], [3]))
