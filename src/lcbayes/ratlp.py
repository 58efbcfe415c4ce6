"""Exact-rational linear programming with verifiable certificates.

Two-phase primal simplex with Bland's anti-cycling rule, pivoting
fraction-free: each tableau row is a list of Python ints over one
positive row denominator, so a pivot costs integer multiplications and
one gcd per updated row instead of a Fraction per entry.  The tableau is
built from :class:`LPProblem` in one pass, straight to those integer
rows.  The reduced-cost row of each phase is priced once and then
updated by every pivot like any other row.  Every solve returns an exact
certificate:

* ``OPTIMAL``  - primal and dual solutions with duality gap exactly 0,
* ``INFEASIBLE`` - Farkas multipliers aggregating the constraints into
  an impossible inequality,
* ``UNBOUNDED`` - a feasible point plus an improving ray.

The right-hand side may carry a second part: row i reads
``rhs[i] + eta * rhs_eta[i]`` for a positive infinitesimal eta.  The
tableau keeps the eta coefficient as one more integer column and
compares (standard, eta) pairs lexicographically wherever it compares
right-hand sides, which is exact simplex over the ordered field Q(eta).
Since eta sits only on the right-hand side, the reduced costs and so the
duals and Farkas multipliers stay rational; the primal point and the
objective value come as a standard part and an eta coefficient.

An independent checker, :func:`check_certificate`, re-validates each
certificate in exact :class:`fractions.Fraction` arithmetic from the
original problem data, sharing nothing with the integer tableau;
:func:`solve_lp` runs it on every solve before returning, so a returned
solution is always verified.

The intended instances are small (up to a few hundred columns), so a
dense exact tableau is the right trade: no tolerances, no conditioning
questions.
"""

from __future__ import annotations

import enum
import json
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from ._record import Record

Rational = Union[int, Fraction]

LEQ = "<="
EQ = "="
GEQ = ">="
_RELATIONS = (LEQ, EQ, GEQ)


class MalformedProblem(ValueError):
    """Dimension mismatch or invalid relation/bound specification."""


class CertificateError(RuntimeError):
    """A solver certificate failed exact re-verification (solver bug)."""


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise MalformedProblem(f"expected exact rational, got {type(value).__name__}")


class LPProblem(Record):
    """maximize objective @ x subject to rows, relations, rhs and bounds.

    ``lower[j]`` is 0 or None (unbounded below); ``upper[j]`` is a finite
    rational or None (unbounded above).  Row i's right-hand side is
    ``rhs[i] + eta * rhs_eta[i]``, eta a positive infinitesimal.
    """

    objective: Tuple[Fraction, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]
    relations: Tuple[str, ...]
    rhs: Tuple[Fraction, ...]
    lower: Tuple[Optional[Fraction], ...]
    upper: Tuple[Optional[Fraction], ...]
    rhs_eta: Tuple[Fraction, ...]

    @staticmethod
    def build(objective: Sequence[Rational],
              rows: Sequence[Sequence[Rational]],
              relations: Sequence[str],
              rhs: Sequence[Rational],
              lower: Optional[Sequence[Optional[Rational]]] = None,
              upper: Optional[Sequence[Optional[Rational]]] = None,
              rhs_eta: Optional[Sequence[Rational]] = None) -> "LPProblem":
        n = len(objective)
        if lower is None:
            lower = [0] * n
        if upper is None:
            upper = [None] * n
        if rhs_eta is None:
            rhs_eta = [0] * len(rhs)
        if not (len(lower) == len(upper) == n):
            raise MalformedProblem("bounds length must match objective length")
        if not (len(rows) == len(relations) == len(rhs) == len(rhs_eta)):
            raise MalformedProblem("rows, relations, rhs and rhs_eta must have equal length")
        obj = tuple(_frac(c) for c in objective)
        mat = []
        for row in rows:
            if len(row) != n:
                raise MalformedProblem("constraint row length must match objective length")
            mat.append(tuple(_frac(a) for a in row))
        for rel in relations:
            if rel not in _RELATIONS:
                raise MalformedProblem(f"unknown relation {rel!r}")
        lo = []
        for b in lower:
            if b is None:
                lo.append(None)
            elif _frac(b) == 0:
                lo.append(Fraction(0))
            else:
                raise MalformedProblem("lower bounds must be 0 or None")
        up = tuple(None if b is None else _frac(b) for b in upper)
        return LPProblem(obj, tuple(mat), tuple(relations), tuple(_frac(b) for b in rhs),
                         tuple(lo), up, tuple(_frac(b) for b in rhs_eta))

    def n_vars(self) -> int:
        return len(self.objective)

    def to_json(self) -> str:
        def fmt(v):
            return str(v)

        payload = {
            "objective": [fmt(c) for c in self.objective],
            "rows": [[fmt(a) for a in row] for row in self.rows],
            "relations": list(self.relations),
            "rhs": [fmt(b) for b in self.rhs],
            "lower": ["-inf" if b is None else fmt(b) for b in self.lower],
            "upper": ["inf" if b is None else fmt(b) for b in self.upper],
        }
        if any(self.rhs_eta):
            payload["rhs_eta"] = [fmt(b) for b in self.rhs_eta]
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "LPProblem":
        payload = json.loads(text)
        return LPProblem.build(
            [Fraction(c) for c in payload["objective"]],
            [[Fraction(a) for a in row] for row in payload["rows"]],
            payload["relations"],
            [Fraction(b) for b in payload["rhs"]],
            [None if b == "-inf" else Fraction(b) for b in payload["lower"]],
            [None if b == "inf" else Fraction(b) for b in payload["upper"]],
            [Fraction(b) for b in payload["rhs_eta"]] if "rhs_eta" in payload else None,
        )


class LPSolution(Record):
    """A solve's certificate.  A point or value v with a ``*_eta`` field
    stands for v + eta * v_eta; duals, multipliers and rays are rational."""

    status: LPStatus
    x: Optional[Tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    row_duals: Optional[Tuple[Fraction, ...]] = None
    bound_duals: Optional[Tuple[Fraction, ...]] = None
    farkas_rows: Optional[Tuple[Fraction, ...]] = None
    farkas_bounds: Optional[Tuple[Fraction, ...]] = None
    ray: Optional[Tuple[Fraction, ...]] = None
    ray_origin: Optional[Tuple[Fraction, ...]] = None
    x_eta: Optional[Tuple[Fraction, ...]] = None
    objective_value_eta: Optional[Fraction] = None
    ray_origin_eta: Optional[Tuple[Fraction, ...]] = None


# ----------------------------------------------------------------------
# fraction-free simplex
# ----------------------------------------------------------------------

_FLIPPED = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}
_RHS, _RHS_ETA = -2, -1  # the last two entries of a tableau row


def _lowest_terms(nums: list[int], den: int) -> Tuple[list[int], int]:
    """Divide a row's numerators and its positive denominator by their gcd."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _eliminate(row: list[int], den: int, f: int,
               pivot_row: list[int], pc: int) -> Tuple[list[int], int]:
    """row/den minus (f/den) times the pivot row pivot_row/pc, in lowest terms."""
    return _lowest_terms([a * pc - f * p for a, p in zip(row, pivot_row)], den * pc)


class _Tableau:
    """Fraction-free simplex tableau, built from an :class:`LPProblem` in one pass.

    Each free variable becomes two nonnegative columns, x = x+ - x-; each
    finite upper bound becomes a <= row after the problem's rows; each
    row whose right-hand side (b, b_eta) is lexicographically negative is
    negated, so b + eta * b_eta >= 0 throughout.  Every row then gets its
    slack, surplus or artificial columns.

    Row i is a list of Python ints: the numerators of its coefficients,
    then those of its right-hand side b and of its eta coefficient b_eta,
    all over the one positive row denominator ``den[i]``.  A pivot
    rescales only the rows with a nonzero entry in the entering column
    and leaves each in lowest terms, so no per-entry Fraction is built.
    The reduced-cost row z_j - c_j of the running phase, with the
    objective value's standard part and eta coefficient last, is stored
    the same way over ``obj_den``: it is priced once when a phase starts
    and then updated by each pivot like any other row.
    """

    def __init__(self, problem: LPProblem):
        self.problem = problem
        self.free = [b is None for b in problem.lower]
        self.bounded = [j for j, b in enumerate(problem.upper) if b is not None]
        self.n_struct = problem.n_vars() + sum(self.free)

        # the problem's rows, then one unit row x_j <= upper_j per bounded variable
        bound_rows = []
        for j in self.bounded:
            unit = [0] * problem.n_vars()
            unit[j] = 1
            bound_rows.append((unit, LEQ, problem.upper[j], 0))
        built = []  # (structural and rhs numerators, row denominator, relation)
        self.flip: list[int] = []
        for coeffs, rel, b, b_eta in [*zip(problem.rows, problem.relations, problem.rhs,
                                           problem.rhs_eta), *bound_rows]:
            den = math.lcm(b.denominator, b_eta.denominator,
                           *(a.denominator for a in coeffs))
            nums = self.split([a.numerator * (den // a.denominator) for a in coeffs])
            rhs = [v.numerator * (den // v.denominator) for v in (b, b_eta)]
            sign = -1 if rhs < [0, 0] else 1
            if sign < 0:
                nums, rhs, rel = [-a for a in nums], [-v for v in rhs], _FLIPPED[rel]
            self.flip.append(sign)
            built.append((nums, rhs, den, rel))

        # slack/surplus/artificial columns: plain ints, each row's own unit column
        width = self.n_struct + len(built) + sum(rel == GEQ for *_, rel in built)
        padding = [0] * (width - self.n_struct)
        self.rows: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.art_cols: set[int] = set()
        col = self.n_struct
        for nums, rhs, den, rel in built:
            row = nums + padding + rhs
            if rel == GEQ:
                row[col] = -den
                col += 1
            if rel != LEQ:
                self.art_cols.add(col)
            row[col] = den
            self.basis.append(col)
            col += 1
            self.rows.append(row)
            self.den.append(den)
        self.n_cols = width
        self.init_cols = list(self.basis)  # internal row -> its initial basic column
        self.row_ids = list(range(len(built)))  # live tableau row -> internal row

    def split(self, values: Sequence) -> list:
        """Values per variable -> per structural column (the x- of a free x negated)."""
        out = []
        for v, free in zip(values, self.free):
            out.append(v)
            if free:
                out.append(-v)
        return out

    def _collapse(self, values: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        """Values per column -> per variable (x = x+ - x- for a free x)."""
        cols = iter(values)
        return tuple(next(cols) - next(cols) if free else next(cols) for free in self.free)

    # -- simplex machinery ------------------------------------------------

    def price(self, cost: Sequence[Fraction]):
        """Set the reduced-cost row z_j - c_j of ``cost`` under the current basis."""
        self.cost = cost
        den = math.lcm(*(c.denominator for c in cost))
        obj = [-c.numerator * (den // c.denominator) for c in cost] + [0, 0]
        for row, d, col in zip(self.rows, self.den, self.basis):
            cb = cost[col]
            if cb:
                scale = cb.denominator * d
                total = math.lcm(den, scale)
                grow, weight = total // den, cb.numerator * (total // scale)
                obj, den = _lowest_terms([z * grow + weight * a for z, a in zip(obj, row)],
                                         total)
        self.obj, self.obj_den = obj, den

    def objective_value(self) -> Tuple[Fraction, Fraction]:
        """The running phase's objective value: standard part, eta coefficient."""
        return (Fraction(self.obj[_RHS], self.obj_den),
                Fraction(self.obj[_RHS_ETA], self.obj_den))

    def pivot(self, row: int, col: int):
        p = self.rows[row]
        pc = p[col]
        if pc < 0:
            p, pc = [-a for a in p], -pc
        p, pc = _lowest_terms(p, pc)  # the pivot row divided by its pivot entry
        self.rows[row], self.den[row] = p, pc
        for i, r in enumerate(self.rows):
            f = r[col]
            if f and i != row:
                self.rows[i], self.den[i] = _eliminate(r, self.den[i], f, p, pc)
        f = self.obj[col]
        if f:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, f, p, pc)
        self.basis[row] = col

    def run(self, cost: Sequence[Fraction], allowed) -> Optional[int]:
        """Bland-rule simplex; returns an unbounded entering column or None."""
        self.price(cost)
        guard = 0
        limit = 20000 + 200 * (self.n_cols + len(self.rows))
        while True:
            guard += 1
            if guard > limit:  # pragma: no cover - Bland's rule prevents this
                raise CertificateError("simplex iteration limit exceeded")
            obj = self.obj
            entering = next((j for j in range(self.n_cols) if obj[j] < 0 and allowed(j)),
                            None)
            if entering is None:
                return None
            # minimum ratio (b_i + eta b_eta_i) / a_ie over a_ie > 0, compared
            # lexicographically; the row denominator cancels
            leaving = None
            for i, r in enumerate(self.rows):
                a = r[entering]
                if a > 0:
                    if leaving is None:
                        leaving, best, best_a = i, r, a
                        continue
                    d = r[_RHS] * best_a - best[_RHS] * a
                    if d == 0:
                        d = r[_RHS_ETA] * best_a - best[_RHS_ETA] * a
                    if d < 0 or (d == 0 and self.basis[i] < self.basis[leaving]):
                        leaving, best, best_a = i, r, a
            if leaving is None:
                return entering
            self.pivot(leaving, entering)

    def purge_artificials(self):
        """Pivot zero-level artificials out of the basis; drop redundant rows."""
        i = 0
        while i < len(self.rows):
            if self.basis[i] in self.art_cols:
                target = next((j for j in range(self.n_cols)
                               if j not in self.art_cols and self.rows[i][j] != 0), None)
                if target is None:
                    del self.rows[i], self.den[i], self.basis[i], self.row_ids[i]
                    continue
                self.pivot(i, target)
            i += 1

    # -- reading the certificate off the tableau ---------------------------

    def point(self, column: int) -> Tuple[Fraction, ...]:
        """Per variable: the basic solution's standard part (``column`` _RHS)
        or eta coefficient (_RHS_ETA), or the ray along nonbasic ``column``.

        Along the ray x_column grows by 1 and each basic variable by -a_ic.
        """
        values = [Fraction(0)] * self.n_cols
        sign = 1
        if column >= 0:
            values[column], sign = Fraction(1), -1
        for row, den, col in zip(self.rows, self.den, self.basis):
            values[col] = Fraction(sign * row[column], den)
        return self._collapse(values)

    def multipliers(self) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
        """Multipliers of the problem's rows and of its upper bounds.

        They are the dual prices of the internal rows, read off the reduced
        cost of each row's initial basic column: the optimal duals after
        phase 2, the Farkas multipliers after an infeasible phase 1.  A
        row dropped as redundant gets 0; a negated row's sign is restored.
        """
        y = [Fraction(0)] * len(self.flip)
        for i in self.row_ids:
            col = self.init_cols[i]
            y[i] = self.flip[i] * (Fraction(self.obj[col], self.obj_den) + self.cost[col])
        m = len(self.problem.rows)
        bounds = [Fraction(0)] * self.problem.n_vars()
        for j, dual in zip(self.bounded, y[m:]):
            bounds[j] = dual
        return tuple(y[:m]), tuple(bounds)


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve ``problem`` and re-verify the returned certificate."""
    tab = _Tableau(problem)

    # phase 1: maximize -(sum of artificials)
    cost1 = [Fraction(0)] * tab.n_cols
    for j in tab.art_cols:
        cost1[j] = Fraction(-1)
    unbounded = tab.run(cost1, lambda j: True)
    if unbounded is not None:  # pragma: no cover - phase 1 is always bounded
        raise CertificateError("phase 1 reported unbounded")

    if tab.objective_value() != (0, 0):
        farkas_rows, farkas_bounds = tab.multipliers()
        solution = LPSolution(LPStatus.INFEASIBLE, farkas_rows=farkas_rows,
                              farkas_bounds=farkas_bounds)
    else:
        tab.purge_artificials()
        cost2 = tab.split(problem.objective) + [Fraction(0)] * (tab.n_cols - tab.n_struct)
        entering = tab.run(cost2, lambda j: j not in tab.art_cols)
        if entering is None:
            row_duals, bound_duals = tab.multipliers()
            value, value_eta = tab.objective_value()
            solution = LPSolution(LPStatus.OPTIMAL, x=tab.point(_RHS),
                                  objective_value=value, row_duals=row_duals,
                                  bound_duals=bound_duals, x_eta=tab.point(_RHS_ETA),
                                  objective_value_eta=value_eta)
        else:
            solution = LPSolution(LPStatus.UNBOUNDED, ray=tab.point(entering),
                                  ray_origin=tab.point(_RHS),
                                  ray_origin_eta=tab.point(_RHS_ETA))

    check_certificate(problem, solution)
    return solution


# ----------------------------------------------------------------------
# independent certificate checker
# ----------------------------------------------------------------------
#
# A value with an eta part is the pair (standard part, eta coefficient);
# Python compares tuples lexicographically, which is the order of Q(eta).


def _require(condition: bool, message: str):
    if not condition:
        raise CertificateError(message)


def _dot(coeffs: Sequence[Fraction], values: Sequence[Fraction]) -> Fraction:
    return sum((a * v for a, v in zip(coeffs, values) if a and v), Fraction(0))


def _check_primal_feasible(p: LPProblem, x: Sequence[Fraction], x_eta: Sequence[Fraction]):
    _require(len(x) == len(x_eta) == p.n_vars(), "primal vector has wrong length")
    for j, v in enumerate(zip(x, x_eta)):
        if p.lower[j] is not None:
            _require(v >= (0, 0), f"variable {j} below lower bound")
        if p.upper[j] is not None:
            _require(v <= (p.upper[j], 0), f"variable {j} above upper bound")
    for i, row in enumerate(p.rows):
        lhs, b = (_dot(row, x), _dot(row, x_eta)), (p.rhs[i], p.rhs_eta[i])
        rel = p.relations[i]
        if rel == LEQ:
            _require(lhs <= b, f"row {i} violated")
        elif rel == GEQ:
            _require(lhs >= b, f"row {i} violated")
        else:
            _require(lhs == b, f"row {i} violated")


def _check_multiplier_signs(p: LPProblem, mults: Sequence[Fraction], label: str):
    for i, rel in enumerate(p.relations):
        if rel == LEQ:
            _require(mults[i] >= 0, f"{label} sign wrong on <= row {i}")
        elif rel == GEQ:
            _require(mults[i] <= 0, f"{label} sign wrong on >= row {i}")


def _aggregate(p: LPProblem, mults: Sequence[Fraction], bound_mults: Sequence[Fraction],
               label: str):
    """Combine the rows and upper bounds with multipliers ``mults`` and ``bound_mults``.

    Checks the multiplier signs and returns the combined right-hand side
    (standard part, eta coefficient) and the combined coefficient of each
    variable.
    """
    _require(len(mults) == len(p.rows) and len(bound_mults) == p.n_vars(),
             f"{label} multipliers have wrong length")
    _check_multiplier_signs(p, mults, label)
    total = _dot(mults, p.rhs)
    columns = []
    for j, mu in enumerate(bound_mults):
        _require(mu >= 0, f"{label} upper-bound multiplier {j} negative")
        if p.upper[j] is None:
            _require(mu == 0, f"{label} multiplier on absent upper bound {j}")
        else:
            total += mu * p.upper[j]
        columns.append(_dot([row[j] for row in p.rows], mults) + mu)
    return (total, _dot(mults, p.rhs_eta)), columns


def check_certificate(p: LPProblem, sol: LPSolution):
    """Re-validate a solution from the original data; raises CertificateError."""
    if sol.status is LPStatus.OPTIMAL:
        _require(sol.x is not None and sol.x_eta is not None and sol.row_duals is not None
                 and sol.bound_duals is not None and sol.objective_value is not None
                 and sol.objective_value_eta is not None,
                 "optimal solution missing fields")
        _check_primal_feasible(p, sol.x, sol.x_eta)
        value = (sol.objective_value, sol.objective_value_eta)
        _require((_dot(p.objective, sol.x), _dot(p.objective, sol.x_eta)) == value,
                 "objective value mismatch")
        dual_value, columns = _aggregate(p, sol.row_duals, sol.bound_duals, "dual")
        for j, (column, c) in enumerate(zip(columns, p.objective)):
            if p.lower[j] is None:
                _require(column == c, f"dual constraint {j} not tight for free variable")
            else:
                _require(column >= c, f"dual constraint {j} violated")
        _require(dual_value == value, "duality gap nonzero")
    elif sol.status is LPStatus.INFEASIBLE:
        _require(sol.farkas_rows is not None and sol.farkas_bounds is not None,
                 "infeasibility certificate missing")
        total, columns = _aggregate(p, sol.farkas_rows, sol.farkas_bounds, "Farkas")
        for j, column in enumerate(columns):
            if p.lower[j] is None:
                _require(column == 0, f"Farkas aggregation nonzero on free variable {j}")
            else:
                _require(column >= 0, f"Farkas aggregation negative on variable {j}")
        _require(total < (0, 0), "Farkas certificate does not prove infeasibility")
    elif sol.status is LPStatus.UNBOUNDED:
        _require(sol.ray is not None and sol.ray_origin is not None
                 and sol.ray_origin_eta is not None,
                 "unboundedness certificate missing")
        _check_primal_feasible(p, sol.ray_origin, sol.ray_origin_eta)
        _require(len(sol.ray) == p.n_vars(), "ray has wrong length")
        for j in range(p.n_vars()):
            if p.lower[j] is not None:
                _require(sol.ray[j] >= 0, f"ray leaves lower bound of variable {j}")
            if p.upper[j] is not None:
                _require(sol.ray[j] <= 0, f"ray leaves upper bound of variable {j}")
        for i, row in enumerate(p.rows):
            move = _dot(row, sol.ray)
            rel = p.relations[i]
            if rel == LEQ:
                _require(move <= 0, f"ray violates <= row {i}")
            elif rel == GEQ:
                _require(move >= 0, f"ray violates >= row {i}")
            else:
                _require(move == 0, f"ray violates = row {i}")
        _require(_dot(p.objective, sol.ray) > 0, "ray does not improve the objective")
    else:  # pragma: no cover
        raise CertificateError(f"unknown status {sol.status!r}")
