"""Differential test of the exact simplex against a frozen reference.

The reference below is the dense two-phase Bland simplex over
``Fraction`` that ``lcbayes.ratlp`` used before its tableau became
fraction-free.  It shares no code with the solver under test: besides
``solve_lp`` itself, the module takes only the ``LPProblem`` data type
and ``CertificateError`` from ``lcbayes.ratlp``.  Both pivot with
Bland's entering rule and the same leaving tie-break on exact values, so
they visit the same bases and every field of the solution must agree
exactly, not just the optimal value.  The LPs are of the solver's one
shape, the prior game's: ``=`` and ``<=`` rows with a nonnegative
right-hand side, nonnegative and free variables.  Where the reference
finds no feasible point or an unbounded objective, the solver must raise
``CertificateError`` saying so.

A right-hand side with an eta part, b + eta * b_eta for a positive
infinitesimal eta, is checked against the reference solving the same LP
with a tiny rational eta in its place.  Below a threshold that depends
on the data, every ratio comparison of the reference then goes the way
the lexicographic one does, so it takes the same pivots and its primal
point is exactly x + eta * x_eta.  The rational eta lives in this test
only: in the solver it would be wrong above that threshold.
"""

import random
from fractions import Fraction
from fractions import Fraction as F
from typing import Optional, Sequence, Tuple

import pytest

import lcbayes.priors
from lcbayes.decision import FiniteProblem, Procedure
from lcbayes.priors import classify
from lcbayes.ratlp import CertificateError, LPProblem, solve_lp

LEQ, EQ = "<=", "="
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


# ----------------------------------------------------------------------
# frozen reference: dense Fraction tableau
# ----------------------------------------------------------------------


class _Normalized:
    """Equality-form tableau data: free variables split."""

    def __init__(self, p: LPProblem):
        self.problem = p
        n = p.n_vars()
        self.var_cols: list[Tuple[int, Optional[int]]] = []
        col = 0
        for j in range(n):
            if p.lower[j] is None:
                self.var_cols.append((col, col + 1))
                col += 2
            else:
                self.var_cols.append((col, None))
                col += 1
        self.n_struct = col

        self.rows = [self._expand(row) for row in p.rows]
        self.relations = list(p.relations)
        self.rhs = list(p.rhs)
        assert all(b >= 0 for b in self.rhs)
        self.n_rows = len(self.rows)

    def _expand(self, row: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.n_struct
        for j, a in enumerate(row):
            pos, neg = self.var_cols[j]
            out[pos] = a
            if neg is not None:
                out[neg] = -a
        return out

    def expanded_objective(self) -> list[Fraction]:
        out = [Fraction(0)] * self.n_struct
        for j, c in enumerate(self.problem.objective):
            pos, neg = self.var_cols[j]
            out[pos] = c
            if neg is not None:
                out[neg] = -c
        return out

    def collapse(self, struct_values: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        out = []
        for pos, neg in self.var_cols:
            v = struct_values[pos]
            if neg is not None:
                v -= struct_values[neg]
            out.append(v)
        return tuple(out)


class _Tableau:
    def __init__(self, norm: _Normalized):
        self.norm = norm
        m = norm.n_rows
        self.matrix: list[list[Fraction]] = [list(row) for row in norm.rows]
        self.b = list(norm.rhs)
        self.basis: list[int] = []
        self.row_ids = list(range(m))
        n_struct = norm.n_struct

        self.art_cols: set[int] = set()
        self.init_col_of_row: list[int] = [0] * m
        col = n_struct
        for i in range(m):
            rel = norm.relations[i]
            if rel == LEQ:
                self._append_unit(i, col, Fraction(1))
                self.init_col_of_row[i] = col
                self.basis.append(col)
                col += 1
            else:
                self._append_unit(i, col, Fraction(1))
                self.art_cols.add(col)
                self.init_col_of_row[i] = col
                self.basis.append(col)
                col += 1
        self.n_cols = col

    def _append_unit(self, row: int, col: int, value: Fraction):
        for i in range(len(self.matrix)):
            current = len(self.matrix[i])
            while current <= col:
                self.matrix[i].append(Fraction(0))
                current += 1
        self.matrix[row][col] = value

    def reduced_costs(self, cost: Sequence[Fraction]) -> list[Fraction]:
        m = len(self.matrix)
        out = []
        for j in range(self.n_cols):
            z = Fraction(0)
            for i in range(m):
                cb = cost[self.basis[i]]
                if cb:
                    z += cb * self.matrix[i][j]
            out.append(z - cost[j])
        return out

    def objective_value(self, cost: Sequence[Fraction]) -> Fraction:
        return sum((cost[self.basis[i]] * self.b[i] for i in range(len(self.b))),
                   Fraction(0))

    def pivot(self, row: int, col: int):
        piv = self.matrix[row][col]
        inv = Fraction(1) / piv
        self.matrix[row] = [a * inv for a in self.matrix[row]]
        self.b[row] *= inv
        for i in range(len(self.matrix)):
            if i == row:
                continue
            factor = self.matrix[i][col]
            if factor:
                prow = self.matrix[row]
                self.matrix[i] = [a - factor * pa for a, pa in zip(self.matrix[i], prow)]
                self.b[i] -= factor * self.b[row]
        self.basis[row] = col

    def run(self, cost: Sequence[Fraction], allowed) -> Optional[int]:
        while True:
            reduced = self.reduced_costs(cost)
            entering = None
            for j in range(self.n_cols):
                if allowed(j) and reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return None
            leaving = None
            best = None
            for i in range(len(self.matrix)):
                a = self.matrix[i][entering]
                if a > 0:
                    ratio = self.b[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return entering
            self.pivot(leaving, entering)

    def drop_row(self, row: int):
        del self.matrix[row]
        del self.b[row]
        del self.basis[row]
        del self.row_ids[row]

    def duals(self, cost: Sequence[Fraction]) -> list[Fraction]:
        reduced = self.reduced_costs(cost)
        out = [Fraction(0)] * self.norm.n_rows
        for internal in set(self.row_ids):
            col = self.init_col_of_row[internal]
            out[internal] = reduced[col] + cost[col]
        return out


def reference_solve(problem: LPProblem, events: Optional[set] = None) -> Tuple[str, dict]:
    """The outcome, and for an optimum the solution's standard fields,
    keyed by their ``LPSolution`` names.

    ``events`` collects the purge cases met: "negative purge pivot" and
    "dropped row".
    """
    events = set() if events is None else events
    norm = _Normalized(problem)
    tab = _Tableau(norm)

    cost1 = [Fraction(0)] * tab.n_cols
    for j in tab.art_cols:
        cost1[j] = Fraction(-1)
    assert tab.run(cost1, lambda j: True) is None

    if tab.objective_value(cost1) != 0:
        return INFEASIBLE, {}

    _purge_artificials(tab, events)
    cost2 = norm.expanded_objective() + [Fraction(0)] * (tab.n_cols - norm.n_struct)
    if tab.run(cost2, lambda j: j not in tab.art_cols) is not None:
        return UNBOUNDED, {}
    return OPTIMAL, {"x": norm.collapse(_struct_values(tab)),
                     "objective_value": tab.objective_value(cost2),
                     "row_duals": tuple(tab.duals(cost2))}


def _purge_artificials(tab: _Tableau, events: set):
    i = 0
    while i < len(tab.matrix):
        if tab.basis[i] in tab.art_cols:
            target = None
            for j in range(tab.n_cols):
                if j not in tab.art_cols and tab.matrix[i][j] != 0:
                    target = j
                    break
            if target is None:
                tab.drop_row(i)
                events.add("dropped row")
                continue
            if tab.matrix[i][target] < 0:
                events.add("negative purge pivot")
            tab.pivot(i, target)
        i += 1


def _struct_values(tab: _Tableau) -> list[Fraction]:
    values = [Fraction(0)] * tab.n_cols
    for i, col in enumerate(tab.basis):
        values[col] = tab.b[i]
    return values[:tab.norm.n_struct]


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------


_ETA_FIELDS = {"x_eta": "x", "objective_value_eta": "objective_value"}


def assert_same_solution(problem: LPProblem, events: Optional[set] = None) -> str:
    """Solve an eta-free LP with both simplexes; at an optimum every field
    must be exactly equal, and every eta part of the solution 0.  Returns
    the outcome."""
    assert not any(problem.rhs_eta)
    outcome, want = reference_solve(problem, events)
    if outcome != OPTIMAL:
        with pytest.raises(CertificateError, match=f"the LP is {outcome}"):
            solve_lp(problem)
        return outcome
    got = solve_lp(problem)
    want["x_eta"] = tuple(F(0) for _ in want["x"])
    want["objective_value_eta"] = F(0)
    fields = {name: getattr(got, name) for name in got._fields}
    assert fields == want
    assert repr(fields) == repr({name: want[name] for name in got._fields})  # same types too
    return outcome


REFERENCE_ETA = F(1, 10 ** 40)


def assert_eta_solution_matches(problem: LPProblem, events: Optional[set] = None) -> str:
    """Solve an LP with an eta part; the reference solves it at eta = REFERENCE_ETA.

    The duals are rational and must be equal; the reference's point and
    value must equal standard part + eta * eta part.  Returns the outcome.
    """
    rhs = [b + REFERENCE_ETA * e for b, e in zip(problem.rhs, problem.rhs_eta)]
    outcome, want = reference_solve(
        problem.replace(rhs=tuple(rhs), rhs_eta=(F(0),) * len(rhs)), events)
    if outcome != OPTIMAL:
        with pytest.raises(CertificateError, match=f"the LP is {outcome}"):
            solve_lp(problem)
        return outcome
    got = solve_lp(problem)
    assert got.row_duals == want["row_duals"]
    for name, base in _ETA_FIELDS.items():
        value, value_eta = getattr(got, base), getattr(got, name)
        if isinstance(value, tuple):
            assert want[base] == tuple(v + REFERENCE_ETA * e
                                       for v, e in zip(value, value_eta)), name
        else:
            assert want[base] == value + REFERENCE_ETA * value_eta, name
    return outcome


def random_lp(rng: random.Random, eta: bool = False) -> LPProblem:
    """A small LP of the prior game's shape: ``=`` and ``<=`` rows with a
    nonnegative right-hand side, nonnegative and free variables and,
    sometimes, a redundant equality row.

    With ``eta`` the right-hand side gets an eta part.  Some rows get
    b = 0, so that b_eta alone is the right-hand side; others get b > 0
    and b_eta of either sign.
    """
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)

    def coef():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.75 else F(0)

    objective = [coef() for _ in range(n)]
    rows = [[coef() for _ in range(n)] for _ in range(m)]
    relations = [rng.choice([LEQ, EQ]) for _ in range(m)]
    rhs = [F(rng.randint(0, 6), rng.randint(1, 2)) if rng.random() < 0.8 else F(0)
           for _ in range(m)]
    rhs_eta = [F(0)] * m
    if eta:
        rhs = [F(0) if rng.random() < 0.3 else b for b in rhs]
        rhs_eta = [F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7 else F(0)
                   for _ in range(m)]
        rhs_eta = [abs(e) if b == 0 else e for b, e in zip(rhs, rhs_eta)]
    if rng.random() < 0.3:
        i = rng.randrange(m)
        # a negative multiple keeps the right-hand side nonnegative only when it is 0
        signs = [-1, 1] if rhs[i] == rhs_eta[i] == 0 else [1]
        k = F(rng.choice(signs) * rng.randint(1, 3), rng.randint(1, 2))
        relations[i] = EQ
        rows.append([k * a for a in rows[i]])
        relations.append(EQ)
        rhs.append(k * rhs[i])
        rhs_eta.append(k * rhs_eta[i])
    lower = [None if rng.random() < 0.25 else 0 for _ in range(n)]
    return LPProblem.build(objective, rows, relations, rhs, lower=lower, rhs_eta=rhs_eta)


def test_random_lps_match_reference():
    rng = random.Random(19680101)
    outcomes = dict.fromkeys((OPTIMAL, INFEASIBLE, UNBOUNDED), 0)
    features = {"free variable": 0, "zero rhs": 0}
    events: set = set()
    for _ in range(400):
        problem = random_lp(rng)
        outcomes[assert_same_solution(problem, events)] += 1
        features["free variable"] += any(b is None for b in problem.lower)
        features["zero rhs"] += any(b == 0 for b in problem.rhs)
    assert all(count > 0 for count in outcomes.values()), outcomes
    assert all(count > 0 for count in features.values()), features
    assert events == {"negative purge pivot", "dropped row"}


def test_random_eta_lps_match_reference():
    rng = random.Random(161230)
    outcomes = dict.fromkeys((OPTIMAL, INFEASIBLE, UNBOUNDED), 0)
    signs = {"b = 0 < b_eta": 0, "b > 0 > b_eta": 0, "b > 0 < b_eta": 0}
    events: set = set()
    for _ in range(500):
        problem = random_lp(rng, eta=True)
        outcomes[assert_eta_solution_matches(problem, events)] += 1
        for b, e in zip(problem.rhs, problem.rhs_eta):
            signs["b = 0 < b_eta"] += b == 0 < e
            signs["b > 0 > b_eta"] += b > 0 > e
            signs["b > 0 < b_eta"] += b > 0 < e
    assert all(count > 0 for count in outcomes.values()), outcomes
    assert all(count > 0 for count in signs.values()), signs
    assert events == {"negative purge pivot", "dropped row"}


def test_beale_instance_matches_reference():
    # cycles under Dantzig pricing; Bland's rule must take the same path in both
    assert_same_solution(LPProblem.build(
        [F(3, 4), -150, F(1, 50), -6],
        [[F(1, 4), -60, -F(1, 25), 9],
         [F(1, 2), -90, -F(1, 50), 3],
         [0, 0, 1, 0]],
        [LEQ, LEQ, LEQ],
        [0, 0, 1]))


def random_problem(rng: random.Random, n_states: int, n_obs: int,
                   n_actions: int) -> FiniteProblem:
    model = []
    for _ in range(n_states):
        weights = [rng.randint(1, 9) for _ in range(n_obs)]
        model.append([F(w, sum(weights)) for w in weights])
    loss = [[rng.randint(0, 9) for _ in range(n_actions)] for _ in range(n_states)]
    return FiniteProblem.build([f"s{s}" for s in range(n_states)],
                               [f"x{x}" for x in range(n_obs)],
                               [f"a{a}" for a in range(n_actions)], model, loss)


def classify_lps(monkeypatch, problem: FiniteProblem, procedures) -> tuple:
    """The LPs that classify solves, and its reports.

    Each verdict solves one LP: the prior game with floored weights.
    """
    seen = []

    def recording_solve(lp):
        seen.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lcbayes.priors, "solve_lp", recording_solve)
    reports = [classify(problem, procedure) for procedure in procedures]
    monkeypatch.undo()
    return seen, reports


def test_classify_lps_match_reference(monkeypatch):
    rng = random.Random(1612)
    small = random_problem(rng, 3, 3, 3)
    small_rules = [Procedure.nonrandomized([rng.randrange(3) for _ in range(3)])
                   for _ in range(6)]
    large = random_problem(rng, 10, 10, 5)
    large_rules = [Procedure.nonrandomized([rng.randrange(5) for _ in range(10)])]
    small_lps, small_reports = classify_lps(monkeypatch, small, small_rules)
    large_lps, large_reports = classify_lps(monkeypatch, large, large_rules)
    lps = small_lps + large_lps
    assert len(lps) == len(small_reports + large_reports)
    for lp in lps:
        assert any(lp.rhs_eta)
        assert_eta_solution_matches(lp)
