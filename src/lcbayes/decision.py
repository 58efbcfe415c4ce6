"""Finite statistical decision problems: model, loss, procedures, risk.

A problem tabulates states, observations and actions together with a
row-stochastic observation model P[state][obs] and a nonnegative loss
L[state][action], all exact rationals.  Procedures are nonrandomized
(one action per observation) or randomized (row-stochastic matrix).

Risk sum_x P(x|theta) sum_a delta(x,a) L(theta,a) is exact.  Risk, Bayes
scores and the prior game all read the products P(x|theta) L(theta,a)
from one per-problem table, :attr:`FiniteProblem.scores`.  Bayes risk is
generic in the prior's scalar field: rational weights give a rational,
Levi-Civita weights give a Levi-Civita number, because
:class:`lcbayes.lcnum.LCNumber` mixes with Fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]


class InvalidProblem(ValueError):
    """Model/loss tables violate the problem invariants."""


class IndexOutOfRange(IndexError):
    pass


class SupportMismatch(ValueError):
    """Prior support does not live inside the problem's states."""


class WeightError(ValueError):
    """Mixture weights are negative or do not sum to one."""


class ShapeMismatch(ValueError):
    """Two procedures (or risk vectors) have incompatible shapes."""


class NoEmbedding(ValueError):
    """Actions carry no numeric values, so means are undefined."""


class SchemaError(ValueError):
    """JSON input does not conform to the problem/procedure schema."""


# digits allowed in the numerator or the denominator of an input rational:
# far past any test, demo or benchmark input (18 digits at most); the cap
# bounds parse time and the size of the inputs, not the size of the results
MAX_LITERAL_DIGITS = 1000
_LITERAL_LIMIT = 10 ** MAX_LITERAL_DIGITS


def _literal_digits(text: str) -> int:
    """A bound on the digits of the numerator and of the denominator that
    ``Fraction(text)`` builds, read off the text without building them:
    the longer side of "p/q", or a decimal's length plus its exponent."""
    if "/" in text:  # Fraction takes no exponent in "p/q"
        return max(len(side) for side in text.split("/"))
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-")
    if not exponent.isdecimal():  # no exponent, or one that Fraction refuses
        return len(text)
    if len(exponent) > len(str(MAX_LITERAL_DIGITS)):
        return MAX_LITERAL_DIGITS + 1
    return len(mantissa) + int(exponent)


def _frac(value, context: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    # bool is an int subclass, but JSON true/false are not numbers
    if type(value) is int:
        if abs(value) >= _LITERAL_LIMIT:
            raise SchemaError(f"rational in {context} has more than "
                              f"{MAX_LITERAL_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, str):
        # Fraction() takes digit underscores from Python 3.11 on only
        if "_" in value:
            raise SchemaError(f"bad rational {value!r} in {context}")
        if _literal_digits(value) > MAX_LITERAL_DIGITS:
            raise SchemaError(f"rational in {context} has more than "
                              f"{MAX_LITERAL_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {value!r} in {context}") from exc
    raise SchemaError(f"expected exact rational in {context}, got {type(value).__name__}")


def _require_list(value, what: str):
    # a string or a dict is iterable too, but its items are not table entries
    if not isinstance(value, (list, tuple)):
        raise InvalidProblem(f"{what} must be a list, got {value!r}")


def _label(value, what: str) -> str:
    # str() would turn JSON null into the label "None" and 7 into "7"
    if not isinstance(value, str):
        raise InvalidProblem(f"{what} label must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class FiniteProblem:
    state_labels: Tuple[str, ...]
    observation_labels: Tuple[str, ...]
    action_labels: Tuple[str, ...]
    model: Tuple[Tuple[Fraction, ...], ...]
    loss: Tuple[Tuple[Fraction, ...], ...]
    state_coords: Tuple[Optional[Tuple[Fraction, ...]], ...] = ()
    action_values: Tuple[Optional[Fraction], ...] = ()

    @staticmethod
    def build(states: Sequence, observations: Sequence[str], actions: Sequence,
              model: Sequence[Sequence], loss: Sequence[Sequence]) -> "FiniteProblem":
        """Construct and validate.

        ``states`` entries are labels or (label, coords) pairs; ``actions``
        entries are labels or (label, value) pairs.
        """
        for name, value in (("states", states), ("observations", observations),
                            ("actions", actions), ("model", model), ("loss", loss)):
            _require_list(value, name)
        state_labels, state_coords = [], []
        for s in states:
            if isinstance(s, tuple):
                label, coords = s
                _require_list(coords, "state coords")
                state_labels.append(_label(label, "state"))
                state_coords.append(tuple(_frac(c, "state coords") for c in coords))
            else:
                state_labels.append(_label(s, "state"))
                state_coords.append(None)
        action_labels, action_values = [], []
        for a in actions:
            if isinstance(a, tuple):
                label, value = a
                action_labels.append(_label(label, "action"))
                action_values.append(None if value is None else _frac(a[1], "action value"))
            else:
                action_labels.append(_label(a, "action"))
                action_values.append(None)
        obs_labels = tuple(_label(o, "observation") for o in observations)

        n_states, n_obs, n_actions = len(state_labels), len(obs_labels), len(action_labels)
        if n_states == 0 or n_obs == 0 or n_actions == 0:
            raise InvalidProblem("states, observations and actions must be nonempty")
        model_rows = []
        for i, row in enumerate(model):
            _require_list(row, f"model row {i}")
            if len(row) != n_obs:
                raise InvalidProblem(f"model row {i} has wrong length")
            vals = tuple(_frac(v, "model") for v in row)
            for v in vals:
                if v < 0 or v > 1:
                    raise InvalidProblem(f"model entry {v} outside [0,1]")
            if sum(vals) != 1:
                raise InvalidProblem(f"model row {i} does not sum to 1")
            model_rows.append(vals)
        if len(model_rows) != n_states:
            raise InvalidProblem("model must have one row per state")
        loss_rows = []
        for i, row in enumerate(loss):
            _require_list(row, f"loss row {i}")
            if len(row) != n_actions:
                raise InvalidProblem(f"loss row {i} has wrong length")
            vals = tuple(_frac(v, "loss") for v in row)
            for v in vals:
                if v < 0:
                    raise InvalidProblem("loss entries must be nonnegative")
            loss_rows.append(vals)
        if len(loss_rows) != n_states:
            raise InvalidProblem("loss must have one row per state")
        return FiniteProblem(tuple(state_labels), obs_labels, tuple(action_labels),
                             tuple(model_rows), tuple(loss_rows),
                             tuple(state_coords), tuple(action_values))

    @cached_property
    def scores(self) -> Tuple[Tuple[Tuple[Fraction, ...], ...], ...]:
        """scores[x][a][s] = P_s(x) * L(s, a), the products that risk, Bayes
        scores and the prior game read.  Built once from the frozen fields."""
        return tuple(tuple(tuple(self.model[s][x] * self.loss[s][a] for s in range(self.n_states))
                           for a in range(self.n_actions))
                     for x in range(self.n_observations))

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    @property
    def n_observations(self) -> int:
        return len(self.observation_labels)

    @property
    def n_actions(self) -> int:
        return len(self.action_labels)


@dataclass(frozen=True)
class Procedure:
    """A decision rule; randomized rows are exactly row-stochastic."""

    kind: str  # "randomized" | "nonrandomized"
    matrix_rows: Optional[Tuple[Tuple[Fraction, ...], ...]] = None
    action_map: Optional[Tuple[int, ...]] = None

    @staticmethod
    def nonrandomized(action_map: Sequence[int]) -> "Procedure":
        _require_list(action_map, "action map")
        # bool is an int subclass, but True/False are not action indices
        if any(type(a) is not int for a in action_map):
            raise InvalidProblem(f"action map entries must be integers, got {action_map!r}")
        return Procedure("nonrandomized", action_map=tuple(action_map))

    @staticmethod
    def randomized(rows: Sequence[Sequence[Rational]]) -> "Procedure":
        _require_list(rows, "procedure matrix")
        mat = []
        for i, row in enumerate(rows):
            _require_list(row, f"procedure row {i}")
            vals = tuple(_frac(v, "procedure") for v in row)
            for v in vals:
                if v < 0 or v > 1:
                    raise InvalidProblem(f"procedure entry {v} outside [0,1]")
            if sum(vals) != 1:
                raise InvalidProblem("procedure row does not sum to 1")
            mat.append(vals)
        return Procedure("randomized", matrix_rows=tuple(mat))

    def matrix(self, n_actions: int) -> Tuple[Tuple[Fraction, ...], ...]:
        """Row-stochastic view; nonrandomized rules become 0/1 rows."""
        if self.kind == "randomized":
            return self.matrix_rows
        rows = []
        for a in self.action_map:
            if a < 0 or a >= n_actions:
                raise IndexOutOfRange(f"action index {a} out of range")
            row = [Fraction(0)] * n_actions
            row[a] = Fraction(1)
            rows.append(tuple(row))
        return tuple(rows)

    def n_rows(self) -> int:
        if self.kind == "randomized":
            return len(self.matrix_rows)
        return len(self.action_map)


@dataclass(frozen=True)
class Prior:
    """Probability weights over a finite support.

    ``support`` defaults to the state indices 0..k-1 of a finite problem.
    It may instead list parameter points of a family, each a tuple of
    rational or Levi-Civita coordinates (:meth:`at`).  Weights must be
    ints, Fractions or Levi-Civita numbers, so one type holds standard
    priors and the nonstandard ones of the paper, whose weights or
    support points may be infinitesimal.
    """

    weights: tuple
    support: Optional[tuple] = None

    def __post_init__(self):
        for w in self.weights:
            # a float weight makes every Bayes risk inexact; a bool is no weight
            if type(w) is not int and not isinstance(w, Fraction):
                from .lcnum import LCNumber  # already loaded if w is one
                if not isinstance(w, LCNumber):
                    raise WeightError(f"prior weight {w!r} is not an int, a Fraction "
                                      "or a Levi-Civita number")
        if any(w < 0 for w in self.weights):
            raise WeightError("prior weights must be nonnegative")
        if sum(self.weights) != 1:
            raise WeightError("prior weights must sum exactly to 1")
        if self.support is not None and len(self.support) != len(self.weights):
            raise WeightError("support and weights must have equal length")

    def items(self, n_states: int):
        if self.support is None:
            if len(self.weights) != n_states:
                raise SupportMismatch("prior without explicit support must weight every state")
            support = tuple(range(n_states))
        else:
            support = self.support
        for idx, w in zip(support, self.weights):
            # bool is an int subclass, but True/False are not state indices
            if type(idx) is not int or idx < 0 or idx >= n_states:
                raise SupportMismatch(f"support point {idx!r} is not a state index")
            yield idx, w

    @staticmethod
    def uniform(n: int) -> "Prior":
        return Prior(tuple(Fraction(1, n) for _ in range(n)))

    @staticmethod
    def point(index: int, n: int) -> "Prior":
        weights = [Fraction(0)] * n
        weights[index] = Fraction(1)
        return Prior(tuple(weights))

    @staticmethod
    def at(coords: Sequence) -> "Prior":
        """The point mass at one parameter point."""
        return Prior((Fraction(1),), support=(tuple(coords),))


# ----------------------------------------------------------------------
# risk machinery
# ----------------------------------------------------------------------


def check_procedure(problem: FiniteProblem,
                    procedure: Procedure) -> Tuple[Tuple[Fraction, ...], ...]:
    """The procedure's matrix; ShapeMismatch or IndexOutOfRange unless it fits the problem."""
    if procedure.n_rows() != problem.n_observations:
        raise ShapeMismatch("procedure has one row per observation")
    if procedure.kind == "randomized":
        for row in procedure.matrix_rows:
            if len(row) != problem.n_actions:
                raise ShapeMismatch("procedure row length must match actions")
    return procedure.matrix(problem.n_actions)


def risk(problem: FiniteProblem, procedure: Procedure, state_index: int) -> Fraction:
    """Expected loss at one state, exact."""
    if state_index < 0 or state_index >= problem.n_states:
        raise IndexOutOfRange(f"state index {state_index} out of range")
    return risk_vector(problem, procedure)[state_index]


def risk_vector(problem: FiniteProblem, procedure: Procedure) -> Tuple[Fraction, ...]:
    """Expected loss at every state: sum over (x, a) of delta(x, a) * scores[x][a]."""
    totals = [Fraction(0)] * problem.n_states
    for rule_row, score_row in zip(check_procedure(problem, procedure), problem.scores):
        for w, column in zip(rule_row, score_row):
            if w:
                totals = [t + w * v for t, v in zip(totals, column)]
    return tuple(totals)


def bayes_risk(problem: FiniteProblem, procedure: Procedure, prior: Prior):
    """sum_theta pi(theta) r(theta, procedure); exact in the prior's scalar field."""
    risks = risk_vector(problem, procedure)
    return sum(w * risks[idx] for idx, w in prior.items(problem.n_states))


def convex_combine(procedures: Sequence[Procedure], weights: Sequence[Rational],
                   n_actions: Optional[int] = None) -> Procedure:
    """Rowwise mixture; risk is linear in the mixture, exactly."""
    if not procedures:
        raise WeightError("need at least one procedure")
    ws = [_frac(w, "weights") for w in weights]
    if len(ws) != len(procedures):
        raise WeightError("one weight per procedure")
    for w in ws:
        if w < 0:
            raise WeightError("mixture weights must be nonnegative")
    if sum(ws) != 1:
        raise WeightError("mixture weights must sum exactly to 1")
    n_rows = procedures[0].n_rows()
    if n_rows == 0 or any(p.n_rows() != n_rows for p in procedures):
        raise ShapeMismatch("all procedures must share one nonempty observation set")
    widths = {len(row) for p in procedures if p.kind == "randomized" for row in p.matrix_rows}
    if n_actions is None:
        n_actions = max(widths | {max(p.action_map) + 1 for p in procedures
                                  if p.kind == "nonrandomized"})
    if widths - {n_actions}:
        raise ShapeMismatch("randomized rows must have one entry per action")
    mats = [p.matrix(n_actions) for p in procedures]
    mixed = []
    for x in range(n_rows):
        row = [Fraction(0)] * n_actions
        for w, mat in zip(ws, mats):
            for a in range(n_actions):
                row[a] += w * mat[x][a]
        mixed.append(tuple(row))
    return Procedure("randomized", matrix_rows=tuple(mixed))


def loss_convex_along_embedding(problem: FiniteProblem) -> bool:
    """Discrete convexity of each loss row along the embedded action values.

    Checked by nondecreasing difference quotients between consecutive
    embedded actions (exact second-difference test for uneven spacing).
    """
    values = problem.action_values
    if any(v is None for v in values):
        raise NoEmbedding("actions carry no numeric embedding")
    idx = sorted(range(problem.n_actions), key=lambda a: values[a])
    for a0, a1 in zip(idx, idx[1:]):
        if values[a0] == values[a1]:
            raise NoEmbedding(f"two actions share the embedded value {values[a0]}")
    for loss_row in problem.loss:
        for k in range(len(idx) - 2):
            a0, a1, a2 = idx[k], idx[k + 1], idx[k + 2]
            left = (loss_row[a1] - loss_row[a0]) / (values[a1] - values[a0])
            right = (loss_row[a2] - loss_row[a1]) / (values[a2] - values[a1])
            if right < left:
                return False
    return True


def derandomize(problem: FiniteProblem, procedure: Procedure) -> Procedure:
    """Replace each randomized row by its mean action.

    The mean of the embedded action values is snapped to the nearest
    embedded action (ties to the lower index).  When the mean lies
    exactly on an embedded action and the loss is convex along the
    embedding, the result's risk is pointwise no worse.
    """
    if procedure.kind == "nonrandomized":
        return procedure
    values = problem.action_values
    if any(v is None for v in values):
        raise NoEmbedding("actions carry no numeric embedding")
    check_procedure(problem, procedure)
    chosen = []
    for row in procedure.matrix_rows:
        mean = sum((w * values[a] for a, w in enumerate(row)), Fraction(0))
        chosen.append(min(range(problem.n_actions), key=lambda a: abs(values[a] - mean)))
    return Procedure.nonrandomized(chosen)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------


def problem_to_json(problem: FiniteProblem) -> str:
    states = []
    for label, coords in zip(problem.state_labels, problem.state_coords):
        entry = {"label": label}
        if coords is not None:
            entry["coords"] = [str(c) for c in coords]
        states.append(entry)
    actions = []
    for label, value in zip(problem.action_labels, problem.action_values):
        entry = {"label": label}
        if value is not None:
            entry["value"] = str(value)
        actions.append(entry)
    payload = {
        "states": states,
        "observations": list(problem.observation_labels),
        "actions": actions,
        "model": [[str(v) for v in row] for row in problem.model],
        "loss": [[str(v) for v in row] for row in problem.loss],
    }
    return json.dumps(payload, sort_keys=True)


def _require_object(entry, what: str):
    if not isinstance(entry, dict):
        raise SchemaError(f"{what} entry {json.dumps(entry)} must be a JSON object")


def _load_json(text: str):
    try:
        return json.loads(text)
    # a JSONDecodeError, an integer past Python's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def problem_from_json(text: str) -> FiniteProblem:
    payload = _load_json(text)
    try:
        states = []
        for entry in payload["states"]:
            _require_object(entry, "state")
            if "coords" in entry:
                states.append((entry["label"], entry["coords"]))
            else:
                states.append(entry["label"])
        actions = []
        for entry in payload["actions"]:
            _require_object(entry, "action")
            if "value" in entry and entry["value"] is not None:
                actions.append((entry["label"], entry["value"]))
            else:
                actions.append(entry["label"])
        return FiniteProblem.build(states, payload["observations"], actions,
                                   payload["model"], payload["loss"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"problem JSON missing field: {exc}") from exc
    except InvalidProblem as exc:
        raise SchemaError(str(exc)) from exc


def procedure_to_json_dict(procedure: Procedure) -> dict:
    if procedure.kind == "nonrandomized":
        return {"kind": "nonrandomized", "map": list(procedure.action_map)}
    return {"kind": "randomized",
            "matrix": [[str(v) for v in row] for row in procedure.matrix_rows]}


def procedure_from_json_dict(payload: dict) -> Procedure:
    _require_object(payload, "procedure")
    try:
        kind = payload["kind"]
        if kind == "nonrandomized":
            return Procedure.nonrandomized(payload["map"])
        if kind == "randomized":
            return Procedure.randomized(payload["matrix"])
    except (KeyError, TypeError, InvalidProblem) as exc:
        raise SchemaError(f"bad procedure JSON: {exc}") from exc
    raise SchemaError(f"unknown procedure kind {payload.get('kind')!r}")


def procedures_from_json(text: str) -> Tuple[Procedure, ...]:
    payload = _load_json(text)
    if not isinstance(payload, list):
        raise SchemaError("procedures file must contain a JSON array")
    return tuple(procedure_from_json_dict(entry) for entry in payload)
