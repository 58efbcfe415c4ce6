"""Exact-rational linear programming for the prior game, with a verified optimum.

The solver takes LPs of the shape of the prior game in
:func:`lcbayes.priors.synthesize_prior`: ``=`` and ``<=`` rows with a
nonnegative right-hand side, and variables that are nonnegative or free.
:meth:`LPProblem.build` refuses any other shape, and a solve that finds
no feasible point or an unbounded objective raises
:class:`CertificateError`, so every returned :class:`LPSolution` is an
optimum.

Two-phase primal simplex with Bland's anti-cycling rule, pivoting
fraction-free: each tableau row is a list of Python ints over one
positive row denominator, so a pivot costs integer multiplications and
one gcd per updated row instead of a Fraction per entry.  The tableau is
built from :class:`LPProblem` in one pass, straight to those integer
rows.  The reduced-cost row of each phase is priced once and then
updated by every pivot like any other row.

The right-hand side may carry a second part: row i reads
``rhs[i] + eta * rhs_eta[i]`` for a positive infinitesimal eta.  The
tableau keeps the eta coefficient as one more integer column and
compares (standard, eta) pairs lexicographically wherever it compares
right-hand sides, which is exact simplex over the ordered field Q(eta).
Since eta sits only on the right-hand side, the reduced costs and so the
duals stay rational; the primal point and the objective value come as a
standard part and an eta coefficient.

An independent checker, :func:`check_certificate`, re-validates the
optimum (primal and dual feasibility, a duality gap of exactly 0) in
exact :class:`fractions.Fraction` arithmetic from the original problem
data, sharing nothing with the integer tableau; :func:`solve_lp` runs it
on every solve before returning.

The intended instances are small (up to a few hundred columns), so a
dense exact tableau is the right trade: no tolerances, no conditioning
questions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from ._record import Record

Rational = Union[int, Fraction]

LEQ = "<="
EQ = "="
_RELATIONS = (LEQ, EQ)


class MalformedProblem(ValueError):
    """Dimension mismatch, or a problem outside the solver's shape."""


class CertificateError(RuntimeError):
    """No verified optimum: the LP is infeasible or unbounded, or a
    certificate failed exact re-verification (solver bug)."""


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise MalformedProblem(f"expected exact rational, got {type(value).__name__}")


class LPProblem(Record):
    """maximize objective @ x subject to rows, relations and rhs.

    Relations are ``=`` or ``<=``; ``lower[j]`` is 0 or None (x_j free).
    Row i's right-hand side is ``rhs[i] + eta * rhs_eta[i]``, eta a
    positive infinitesimal, and is nonnegative.
    """

    objective: Tuple[Fraction, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]
    relations: Tuple[str, ...]
    rhs: Tuple[Fraction, ...]
    lower: Tuple[Optional[Fraction], ...]
    rhs_eta: Tuple[Fraction, ...]

    @staticmethod
    def build(objective: Sequence[Rational],
              rows: Sequence[Sequence[Rational]],
              relations: Sequence[str],
              rhs: Sequence[Rational],
              lower: Optional[Sequence[Optional[Rational]]] = None,
              upper: Optional[Sequence[Optional[Rational]]] = None,
              rhs_eta: Optional[Sequence[Rational]] = None) -> "LPProblem":
        """The checked problem; ``upper`` exists only to refuse upper bounds."""
        n = len(objective)
        if lower is None:
            lower = [0] * n
        if rhs_eta is None:
            rhs_eta = [0] * len(rhs)
        if len(lower) != n:
            raise MalformedProblem("bounds length must match objective length")
        if upper is not None and any(b is not None for b in upper):
            raise MalformedProblem("upper bounds are not supported; write x_j <= u as a row")
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
                raise MalformedProblem(f"unsupported relation {rel!r}; use '=' or '<='")
        lo = []
        for b in lower:
            if b is None:
                lo.append(None)
            elif _frac(b) == 0:
                lo.append(Fraction(0))
            else:
                raise MalformedProblem("lower bounds must be 0 or None")
        b, b_eta = tuple(_frac(v) for v in rhs), tuple(_frac(v) for v in rhs_eta)
        for i, pair in enumerate(zip(b, b_eta)):
            if pair < (0, 0):
                raise MalformedProblem(f"row {i} has a negative right-hand side")
        return LPProblem(obj, tuple(mat), tuple(relations), b, tuple(lo), b_eta)

    def n_vars(self) -> int:
        return len(self.objective)


class LPSolution(Record):
    """A verified optimum.  A point or value v with a ``*_eta`` field
    stands for v + eta * v_eta; the row duals are rational."""

    x: Tuple[Fraction, ...]
    x_eta: Tuple[Fraction, ...]
    objective_value: Fraction
    objective_value_eta: Fraction
    row_duals: Tuple[Fraction, ...]

    bound_duals = None  # not a field: the benchmark's tracer still reads it


# ----------------------------------------------------------------------
# fraction-free simplex
# ----------------------------------------------------------------------

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

    Each free variable becomes two nonnegative columns, x = x+ - x-.  Row
    i then gets column ``n_struct + i``: a slack for a ``<=`` row, an
    artificial for an ``=`` row, basic at the start since b + eta * b_eta
    >= 0.

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
        self.free = [b is None for b in problem.lower]
        self.n_struct = problem.n_vars() + sum(self.free)
        m = len(problem.rows)
        self.n_cols = self.n_struct + m
        self.rows: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.art_cols: set[int] = set()
        for i, (coeffs, rel, b, b_eta) in enumerate(zip(problem.rows, problem.relations,
                                                        problem.rhs, problem.rhs_eta)):
            den = math.lcm(b.denominator, b_eta.denominator,
                           *(a.denominator for a in coeffs))
            row = self.split([a.numerator * (den // a.denominator) for a in coeffs])
            row += [0] * m + [v.numerator * (den // v.denominator) for v in (b, b_eta)]
            col = self.n_struct + i
            row[col] = den
            if rel == EQ:
                self.art_cols.add(col)
            self.rows.append(row)
            self.den.append(den)
            self.basis.append(col)
        self.row_ids = list(range(m))  # live tableau row -> problem row

    def split(self, values: Sequence) -> list:
        """Values per variable -> per structural column (the x- of a free x negated)."""
        out = []
        for v, free in zip(values, self.free):
            out.append(v)
            if free:
                out.append(-v)
        return out

    # -- simplex machinery ------------------------------------------------

    def price(self, cost: Sequence[Fraction]):
        """Set the reduced-cost row z_j - c_j of ``cost`` under the current basis."""
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

    def run(self, cost: Sequence[Fraction], allowed) -> bool:
        """Bland-rule simplex; False when the objective is unbounded."""
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
                return True
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
                return False
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

    # -- reading the optimum off the tableau -------------------------------

    def point(self, part: int) -> Tuple[Fraction, ...]:
        """Per variable: the basic solution's standard part (``part`` _RHS)
        or eta coefficient (_RHS_ETA)."""
        values = [Fraction(0)] * self.n_struct
        for row, den, col in zip(self.rows, self.den, self.basis):
            if col < self.n_struct:
                values[col] = Fraction(row[part], den)
        cols = iter(values)  # x = x+ - x- for a free x
        return tuple(next(cols) - next(cols) if free else next(cols) for free in self.free)

    def duals(self, n_rows: int) -> Tuple[Fraction, ...]:
        """The problem rows' optimal duals, read off the phase-2 reduced cost
        of each row's own column, whose cost is 0.  A row dropped as
        redundant gets 0."""
        y = [Fraction(0)] * n_rows
        for i in self.row_ids:
            y[i] = Fraction(self.obj[self.n_struct + i], self.obj_den)
        return tuple(y)


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve ``problem`` and re-verify the optimum.

    Raises :class:`CertificateError` if the LP has no feasible point or an
    unbounded objective, or if the optimum fails verification.
    """
    tab = _Tableau(problem)

    # phase 1: maximize -(sum of artificials), bounded above by 0
    cost1 = [Fraction(0)] * tab.n_cols
    for j in tab.art_cols:
        cost1[j] = Fraction(-1)
    if not tab.run(cost1, lambda j: True):  # pragma: no cover - phase 1 is bounded
        raise CertificateError("phase 1 reported unbounded")
    if tab.objective_value() != (0, 0):
        raise CertificateError("the LP is infeasible")

    tab.purge_artificials()
    cost2 = tab.split(problem.objective) + [Fraction(0)] * (tab.n_cols - tab.n_struct)
    if not tab.run(cost2, lambda j: j not in tab.art_cols):
        raise CertificateError("the LP is unbounded")
    value, value_eta = tab.objective_value()
    solution = LPSolution(x=tab.point(_RHS), x_eta=tab.point(_RHS_ETA),
                          objective_value=value, objective_value_eta=value_eta,
                          row_duals=tab.duals(len(problem.rows)))
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


def check_certificate(p: LPProblem, sol: LPSolution):
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
        if p.lower[j] is not None:
            _require(v >= (0, 0), f"variable {j} below lower bound")
    for i, row in enumerate(p.rows):
        lhs, b = (_dot(row, x), _dot(row, x_eta)), (p.rhs[i], p.rhs_eta[i])
        _require(lhs <= b if p.relations[i] == LEQ else lhs == b, f"row {i} violated")
    value = (sol.objective_value, sol.objective_value_eta)
    _require((_dot(p.objective, x), _dot(p.objective, x_eta)) == value,
             "objective value mismatch")

    # dual feasibility: y >= 0 on <= rows, y . A_j >= c_j, with equality if x_j is free
    for i, rel in enumerate(p.relations):
        if rel == LEQ:
            _require(y[i] >= 0, f"dual sign wrong on <= row {i}")
    for j, c in enumerate(p.objective):
        column = _dot([row[j] for row in p.rows], y)
        if p.lower[j] is None:
            _require(column == c, f"dual constraint {j} not tight for free variable")
        else:
            _require(column >= c, f"dual constraint {j} violated")

    _require((_dot(y, p.rhs), _dot(y, p.rhs_eta)) == value, "duality gap nonzero")
