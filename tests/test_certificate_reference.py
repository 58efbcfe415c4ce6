"""Differential test of the certificate checker against a frozen reference.

The reference below is ``lcbayes.ratlp.check_certificate`` as it was
while it summed one ``Fraction`` per multiply-add, over nonnegative
variables; the checker now sums integer numerators over one denominator
per vector and per row.  Both must accept exactly the same solutions and
refuse the others with the same first message, because they make the
same checks in the same order on the same exact values.

The solutions come from the random LPs of
``test_ratlp.test_randomized_instances_all_certified`` and from the prior
games that ``classify`` solves.  Each optimum is checked as it is and
after moving one entry of x, x_eta or the row duals y, or one of the two
parts of the value, so that every check of the checker gets to refuse
some of them.
"""

import importlib
import random
import re
import sys
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Sequence

import lcbayes.priors
from lcbayes.decision import FiniteProblem, Procedure
from lcbayes.priors import classify
from lcbayes.ratlp import CertificateError, LPProblem, LPSolution, check_certificate, solve_lp

LEQ = "<="


# ----------------------------------------------------------------------
# the reference: the Fraction checker
# ----------------------------------------------------------------------


def _require(condition: bool, message: str):
    if not condition:
        raise CertificateError(message)


def _dot(coeffs: Sequence[Fraction], values: Sequence[Fraction]) -> Fraction:
    return sum((a * v for a, v in zip(coeffs, values) if a and v), Fraction(0))


def reference_check_certificate(p: LPProblem, sol: LPSolution):
    """Re-validate an optimum from the original data; raises CertificateError.

    Checks primal feasibility, dual feasibility and a duality gap of
    exactly 0, all in (standard part, eta coefficient) pairs.
    """
    _require(None not in (sol.x, sol.x_eta, sol.objective_value, sol.objective_value_eta,
                          sol.row_duals),
             "optimal solution missing fields")
    x, x_eta, y = sol.x, sol.x_eta, sol.row_duals
    _require(len(x) == len(x_eta) == p.n_vars(), "primal vector has wrong length")
    _require(len(y) == len(p.rows), "dual multipliers have wrong length")

    # primal feasibility and value
    for j, v in enumerate(zip(x, x_eta)):
        _require(v >= (0, 0), f"variable {j} below lower bound")
    for i, row in enumerate(p.rows):
        lhs, b = (_dot(row, x), _dot(row, x_eta)), (p.rhs[i], p.rhs_eta[i])
        _require(lhs <= b if p.relations[i] == LEQ else lhs == b, f"row {i} violated")
    value = (sol.objective_value, sol.objective_value_eta)
    _require((_dot(p.objective, x), _dot(p.objective, x_eta)) == value,
             "objective value mismatch")

    # dual feasibility: y >= 0 on <= rows, y . A_j >= c_j
    for i, rel in enumerate(p.relations):
        if rel == LEQ:
            _require(y[i] >= 0, f"dual sign wrong on <= row {i}")
    for j, c in enumerate(p.objective):
        _require(_dot([row[j] for row in p.rows], y) >= c, f"dual constraint {j} violated")

    _require((_dot(y, p.rhs), _dot(y, p.rhs_eta)) == value, "duality gap nonzero")


# ----------------------------------------------------------------------
# the differential test
# ----------------------------------------------------------------------


def first_refusal(check, problem: LPProblem, solution: LPSolution):
    """The checker's message, or None when it accepts."""
    try:
        check(problem, solution)
    except CertificateError as err:
        return str(err)
    return None


SHIFTS = (F(1), F(-1, 2), F(1, 3))


def tampered(solution: LPSolution):
    """The solution with one entry of x, x_eta or y, or one part of the
    value, moved by each of SHIFTS; and with one entry of x, x_eta or y
    halved, which keeps its sign (a small dual of a scaled row moved by
    -1/2 turns negative, and never reaches the dual constraints)."""
    for name in ("x", "x_eta", "row_duals"):
        vector = getattr(solution, name)
        for i in range(len(vector)):
            for shift in SHIFTS:
                moved = list(vector)
                moved[i] += shift
                yield solution.replace(**{name: tuple(moved)})
            moved = list(vector)
            moved[i] /= 2
            yield solution.replace(**{name: tuple(moved)})
    for name in ("objective_value", "objective_value_eta"):
        for shift in SHIFTS:
            yield solution.replace(**{name: getattr(solution, name) + shift})


def assert_checkers_agree(problem: LPProblem, solution: LPSolution, seen: set):
    """Both checkers accept the optimum and agree on every tampered copy;
    adds the kind of each outcome to ``seen``."""
    assert first_refusal(check_certificate, problem, solution) is None
    assert first_refusal(reference_check_certificate, problem, solution) is None
    for copy in tampered(solution):
        want = first_refusal(reference_check_certificate, problem, copy)
        assert first_refusal(check_certificate, problem, copy) == want
        seen.add("accepted" if want is None else re.sub(r"\d+", "{}", want))


# every refusal of a tampered solution of the right length
REFUSALS = {"variable {} below lower bound", "row {} violated", "objective value mismatch",
            "dual sign wrong on <= row {}", "dual constraint {} violated",
            "duality gap nonzero"}


def test_random_lps_checked_as_the_reference_checks():
    # the LPs and seed of test_ratlp.test_randomized_instances_all_certified
    rng = random.Random(20240814)
    seen: set = set()
    optima = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        objective = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        relations = [rng.choice(["<=", "="]) for _ in range(m)]
        rhs = [F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
        problem = LPProblem.build(objective, rows, relations, rhs)
        try:
            solution = solve_lp(problem)
        except CertificateError:
            continue
        optima += 1
        assert_checkers_agree(problem, solution, seen)
    assert optima > 10
    assert seen == REFUSALS | {"accepted"}


def game_lps(monkeypatch, problem: FiniteProblem, procedures) -> list:
    """The (LP, optimum) pairs of the prior games that classify solves."""
    seen = []

    def recording_solve(lp):
        solution = solve_lp(lp)
        seen.append((lp, solution))
        return solution

    with monkeypatch.context() as patch:
        patch.setattr(lcbayes.priors, "solve_lp", recording_solve)
        for procedure in procedures:
            classify(problem, procedure)
    return seen


def test_game_lps_checked_as_the_reference_checks(monkeypatch):
    # the benchmark's problem generator, read-only: rows over two denominators
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    rng = random.Random("certificate-reference")
    seen: set = set()
    for sizes in ((2, 2, 1), (3, 3, 2), (4, 3, 2)):
        prob = workloads.make_problem(rng, *sizes)
        n_states, n_obs, _ = sizes
        n_act = len(prob["loss"][0])
        problem = FiniteProblem.build([f"s{s}" for s in range(n_states)],
                                      [f"x{x}" for x in range(n_obs)],
                                      [f"a{a}" for a in range(n_act)],
                                      prob["model"], prob["loss"])
        rules = [Procedure.nonrandomized([rng.randrange(n_act) for _ in range(n_obs)])
                 for _ in range(2)]
        rules.append(Procedure.randomized([[F(1, n_act)] * n_act] * n_obs))
        for lp, solution in game_lps(monkeypatch, problem, rules):
            assert any(lp.rhs_eta)
            assert_checkers_agree(lp, solution, seen)
    assert REFUSALS <= seen
