"""Differential test of the exact simplex against a frozen reference.

The reference below is the dense two-phase Bland simplex over
``Fraction`` that ``lcbayes.ratlp`` used before its tableau became
fraction-free.  It shares no code with the solver under test: besides
``solve_lp`` itself, the module takes only the ``LPProblem`` and
``LPStatus`` data types from ``lcbayes.ratlp``.  Both pivot with
Bland's entering rule and the same leaving tie-break on exact values, so
they visit the same bases and every field of the solution must agree
exactly, not just the optimal value.

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

import lcbayes.priors
from lcbayes.decision import FiniteProblem, Procedure
from lcbayes.priors import classify
from lcbayes.ratlp import LPProblem, LPStatus, solve_lp

LEQ, EQ, GEQ = "<=", "=", ">="


# ----------------------------------------------------------------------
# frozen reference: dense Fraction tableau
# ----------------------------------------------------------------------


class _Normalized:
    """Equality-form tableau data: free variables split, upper bounds as
    rows, rows sign-flipped so that b >= 0."""

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

        rows: list[list[Fraction]] = []
        relations: list[str] = []
        rhs: list[Fraction] = []
        for i, row in enumerate(p.rows):
            rows.append(self._expand(row))
            relations.append(p.relations[i])
            rhs.append(p.rhs[i])
        self.bound_row_of_var: dict[int, int] = {}
        for j in range(n):
            if p.upper[j] is not None:
                unit = [Fraction(0)] * n
                unit[j] = Fraction(1)
                self.bound_row_of_var[j] = len(rows)
                rows.append(self._expand(unit))
                relations.append(LEQ)
                rhs.append(p.upper[j])

        self.flip: list[int] = []
        for i in range(len(rows)):
            if rhs[i] < 0:
                rows[i] = [-a for a in rows[i]]
                rhs[i] = -rhs[i]
                relations[i] = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[relations[i]]
                self.flip.append(-1)
            else:
                self.flip.append(1)

        self.rows = rows
        self.relations = relations
        self.rhs = rhs
        self.n_rows = len(rows)

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
            elif rel == GEQ:
                self._append_unit(i, col, Fraction(-1))
                col += 1
                self._append_unit(i, col, Fraction(1))
                self.art_cols.add(col)
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


_FIELDS = ("status", "x", "objective_value", "row_duals", "bound_duals",
           "farkas_rows", "farkas_bounds", "ray", "ray_origin")


def reference_solve(problem: LPProblem, events: Optional[set] = None) -> dict:
    """Every solution field, keyed by its ``LPSolution`` name.

    ``events`` collects the purge cases met: "negative purge pivot" and
    "dropped row".
    """
    events = set() if events is None else events
    norm = _Normalized(problem)
    tab = _Tableau(norm)
    out = dict.fromkeys(_FIELDS)

    cost1 = [Fraction(0)] * tab.n_cols
    for j in tab.art_cols:
        cost1[j] = Fraction(-1)
    assert tab.run(cost1, lambda j: True) is None

    if tab.objective_value(cost1) != 0:
        y = tab.duals(cost1)
        out["status"] = LPStatus.INFEASIBLE
        out["farkas_rows"], out["farkas_bounds"] = _multipliers(norm, y)
        return out

    _purge_artificials(tab, events)
    cost2 = norm.expanded_objective() + [Fraction(0)] * (tab.n_cols - norm.n_struct)
    entering = tab.run(cost2, lambda j: j not in tab.art_cols)
    if entering is None:
        out["status"] = LPStatus.OPTIMAL
        out["x"] = norm.collapse(_struct_values(tab))
        out["objective_value"] = tab.objective_value(cost2)
        out["row_duals"], out["bound_duals"] = _multipliers(norm, tab.duals(cost2))
    else:
        out["status"] = LPStatus.UNBOUNDED
        out["ray_origin"] = norm.collapse(_struct_values(tab))
        direction = [Fraction(0)] * tab.n_cols
        direction[entering] = Fraction(1)
        for i, col in enumerate(tab.basis):
            direction[col] = -tab.matrix[i][entering]
        out["ray"] = norm.collapse(direction[:norm.n_struct])
    return out


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


def _multipliers(norm: _Normalized, y) -> Tuple[tuple, tuple]:
    p = norm.problem
    rows = tuple(norm.flip[i] * y[i] for i in range(len(p.rows)))
    bounds = [Fraction(0)] * p.n_vars()
    for j, internal in norm.bound_row_of_var.items():
        bounds[j] = norm.flip[internal] * y[internal]
    return rows, tuple(bounds)


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------


_ETA_FIELDS = {"x_eta": "x", "objective_value_eta": "objective_value",
               "ray_origin_eta": "ray_origin"}


def _zero_like(value):
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(F(0) for _ in value)
    return F(0)


def assert_same_solution(problem: LPProblem, events: Optional[set] = None):
    """Solve an eta-free LP with both simplexes; every field must be exactly
    equal, and every eta part of the solution 0."""
    assert not any(problem.rhs_eta)
    got = solve_lp(problem)
    want = reference_solve(problem, events)
    for name, base in _ETA_FIELDS.items():
        want[name] = _zero_like(want[base])
    fields = {name: getattr(got, name) for name in got._fields}
    assert fields == want
    assert repr(fields) == repr(want)  # same types too, not just equal values
    return got


REFERENCE_ETA = F(1, 10 ** 40)


def assert_eta_solution_matches(problem: LPProblem, events: Optional[set] = None):
    """Solve an LP with an eta part; the reference solves it at eta = REFERENCE_ETA.

    Duals, multipliers and rays are rational and must be equal; the
    reference's point and value must equal standard part + eta * eta part.
    """
    got = solve_lp(problem)
    rhs = [b + REFERENCE_ETA * e for b, e in zip(problem.rhs, problem.rhs_eta)]
    want = reference_solve(problem.replace(rhs=tuple(rhs), rhs_eta=(F(0),) * len(rhs)),
                           events)
    for name in ("status", "row_duals", "bound_duals", "farkas_rows", "farkas_bounds",
                 "ray"):
        assert getattr(got, name) == want[name], name
    for name, base in _ETA_FIELDS.items():
        value, value_eta = getattr(got, base), getattr(got, name)
        if want[base] is None:
            assert value is None and value_eta is None, name
        elif isinstance(value, tuple):
            assert want[base] == tuple(v + REFERENCE_ETA * e
                                       for v, e in zip(value, value_eta)), name
        else:
            assert want[base] == value + REFERENCE_ETA * value_eta, name
    return got


def random_lp(rng: random.Random, eta: bool = False) -> LPProblem:
    """A small LP mixing every relation, free and bounded variables,
    negative right-hand sides and, sometimes, a redundant equality row.

    With ``eta`` the right-hand side gets an eta part.  Some rows get
    b = 0, so that the sign of b_eta alone decides whether the row is
    negated; others get b and b_eta of opposite signs.
    """
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)

    def coef():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.75 else F(0)

    objective = [coef() for _ in range(n)]
    rows = [[coef() for _ in range(n)] for _ in range(m)]
    relations = [rng.choice([LEQ, EQ, GEQ]) for _ in range(m)]
    rhs = [F(rng.randint(-5, 6), rng.randint(1, 2)) if rng.random() < 0.8 else F(0)
           for _ in range(m)]
    rhs_eta = [F(0)] * m
    if eta:
        rhs = [F(0) if rng.random() < 0.3 else b for b in rhs]
        rhs_eta = [F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7 else F(0)
                   for _ in range(m)]
    if rng.random() < 0.3:
        i = rng.randrange(m)
        k = F(rng.choice([-3, -2, -1, 2]), rng.randint(1, 2))
        relations[i] = EQ
        rows.append([k * a for a in rows[i]])
        relations.append(EQ)
        rhs.append(k * rhs[i])
        rhs_eta.append(k * rhs_eta[i])
    lower = [None if rng.random() < 0.25 else 0 for _ in range(n)]
    upper = [F(rng.randint(0, 6), rng.randint(1, 2)) if rng.random() < 0.3 else None
             for _ in range(n)]
    return LPProblem.build(objective, rows, relations, rhs, lower=lower, upper=upper,
                           rhs_eta=rhs_eta)


def test_random_lps_match_reference():
    rng = random.Random(19680101)
    statuses = {status: 0 for status in LPStatus}
    features = {"free variable": 0, "upper bound": 0, "negative rhs": 0}
    events: set = set()
    for _ in range(400):
        problem = random_lp(rng)
        sol = assert_same_solution(problem, events)
        statuses[sol.status] += 1
        features["free variable"] += any(b is None for b in problem.lower)
        features["upper bound"] += any(b is not None for b in problem.upper)
        features["negative rhs"] += any(b < 0 for b in problem.rhs)
    assert all(count > 0 for count in statuses.values()), statuses
    assert all(count > 0 for count in features.values()), features
    assert events == {"negative purge pivot", "dropped row"}


def test_random_eta_lps_match_reference():
    rng = random.Random(161230)
    statuses = {status: 0 for status in LPStatus}
    signs = {"b = 0 < b_eta": 0, "b = 0 > b_eta": 0, "b > 0 > b_eta": 0,
             "b < 0 < b_eta": 0}
    events: set = set()
    for _ in range(500):
        problem = random_lp(rng, eta=True)
        sol = assert_eta_solution_matches(problem, events)
        statuses[sol.status] += 1
        for b, e in zip(problem.rhs, problem.rhs_eta):
            signs["b = 0 < b_eta"] += b == 0 < e
            signs["b = 0 > b_eta"] += b == 0 > e
            signs["b > 0 > b_eta"] += b > 0 > e
            signs["b < 0 < b_eta"] += b < 0 < e
    assert all(count > 0 for count in statuses.values()), statuses
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
