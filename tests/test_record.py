"""The contract of the package's immutable records (``lcbayes._record``).

The field list is read from class annotations, so this file is also
worth running under each supported Python version.
"""

import json
from fractions import Fraction as F

import pytest

from lcbayes._record import Record
from lcbayes.decision import FiniteProblem, Prior, Procedure, WeightError
from lcbayes.families import GaussianPrior, NonBayesEntry
from lcbayes.lcnum import eps
from lcbayes.ratlp import LPProblem, LPSolution, solve_lp


def problem():
    return FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 1], [1, 0]])


class Pair(Record):
    left: int
    right: int = 0


class OtherPair(Record):
    left: int
    right: int = 0


def test_fields_keep_annotation_order_and_defaults():
    assert Procedure._fields == ("kind", "matrix_rows", "action_map")
    assert FiniteProblem._fields[-2:] == ("state_coords", "action_values")
    assert problem().state_coords == (None, None)
    # a class attribute without an annotation is no field
    assert LPSolution._fields == ("x", "x_eta", "objective_value", "objective_value_eta",
                                  "row_duals")
    assert LPSolution.bound_duals is None
    assert Pair(1) == Pair(1, 0) == Pair(left=1, right=0) == Pair(right=0, left=1)
    assert (Pair(1).left, Pair(1).right) == (1, 0)


def test_fields_cannot_be_assigned_or_deleted():
    prior = Prior.uniform(2)
    with pytest.raises(AttributeError):
        prior.weights = (F(1), F(0))
    with pytest.raises(AttributeError):
        del prior.support
    with pytest.raises(AttributeError):
        prior.extra = 1
    assert prior == Prior.uniform(2)


def test_cached_scores_stay_immutable():
    p = problem()
    assert "integer_scores" not in vars(p)
    table = p.integer_scores
    assert vars(p)["integer_scores"] is table and p.integer_scores is table  # filled once
    with pytest.raises(AttributeError):
        p.integer_scores = ()
    with pytest.raises(AttributeError):
        del p.integer_scores
    with pytest.raises(AttributeError):
        p.loss = ()
    with pytest.raises(AttributeError):
        del p.model
    assert p.integer_scores is table and p.loss == ((F(0), F(1)), (F(1), F(0)))


def test_equality_and_hash_go_by_type_and_fields():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2) and (1, 2) != Pair(1, 2)
    assert Prior((F(1),)) != ((F(1),), None)
    assert GaussianPrior(eps()) != (eps(),)
    assert Prior((F(1, 2), F(1, 2))) == Prior.uniform(2)
    assert hash(Prior((F(1, 2), F(1, 2)))) == hash(Prior.uniform(2))
    assert Prior.uniform(2) != Prior.uniform(2).replace(support=(0, 1))
    # a cached score table is no field
    cached, fresh = problem(), problem()
    cached.integer_scores
    assert cached == fresh and hash(cached) == hash(fresh)
    assert len({Procedure.nonrandomized([0]), Procedure.nonrandomized([0]),
                Procedure.nonrandomized([1])}) == 2


def test_a_record_is_no_sequence():
    entry = NonBayesEntry("p", (F(0), F(1)), F(0), F(1), F(1))
    with pytest.raises(TypeError):
        iter(entry)
    with pytest.raises(TypeError):
        json.dumps(Pair(1, 2))


def test_repr_is_the_field_listing():
    assert repr(Prior((F(1, 3), F(2, 3)))) == (
        "Prior(weights=(Fraction(1, 3), Fraction(2, 3)), support=None)")
    assert repr(Prior((1 - eps(), eps()), support=((F(0),), (eps(),)))) == (
        "Prior(weights=(LCNumber('1 - eps', order=8), LCNumber('eps', order=8)), "
        "support=((Fraction(0, 1),), (LCNumber('eps', order=8),)))")
    assert repr(Procedure.nonrandomized([0, 1])) == (
        "Procedure(kind='nonrandomized', matrix_rows=None, action_map=(0, 1))")
    assert repr(Procedure.randomized([[F(1, 2), F(1, 2)]])) == (
        "Procedure(kind='randomized', matrix_rows=((Fraction(1, 2), Fraction(1, 2)),), "
        "action_map=None)")
    assert repr(solve_lp(LPProblem.build([1], [[1]], ["<="], [3]))) == (
        "LPSolution(x=(Fraction(3, 1),), x_eta=(Fraction(0, 1),), "
        "objective_value=Fraction(3, 1), objective_value_eta=Fraction(0, 1), "
        "row_duals=(Fraction(1, 1),))")


def test_replace_validates_afresh():
    prior = Prior.uniform(2)
    with pytest.raises(WeightError, match="nonnegative"):
        prior.replace(weights=(F(3, 2), F(-1, 2)))
    with pytest.raises(WeightError, match="equal length"):
        prior.replace(support=(0,))
    assert prior.replace(weights=(F(1), F(0))) == Prior.point(0, 2)
    assert prior.replace() == prior and prior.replace() is not prior
    with pytest.raises(TypeError, match="no field 'weight'"):
        prior.replace(weight=(F(1),))


def test_replace_carries_no_cached_scores():
    p = problem()
    p.integer_scores
    copy = p.replace()
    assert "integer_scores" not in vars(copy) and copy == p
    derived = p.replace(loss=((F(2), F(1)), (F(1), F(0))))
    # integer_scores[0][x][a] lists the numerators of P_s(x) L(s, a) over the states s
    assert derived.integer_scores[0][0][0] == (2, 1)
    assert p.integer_scores[0][0][0] == (0, 1)


def test_constructor_refuses_missing_unknown_and_repeated_fields():
    with pytest.raises(TypeError, match="missing field.* left"):
        Pair()
    with pytest.raises(TypeError, match="missing field.* weights"):
        Prior(support=(0,))
    with pytest.raises(TypeError, match="no field 'middle'"):
        Pair(1, middle=2)
    with pytest.raises(TypeError, match="field 'left' twice"):
        Pair(1, left=2)
    with pytest.raises(TypeError, match="2 fields, got 3"):
        Pair(1, 2, 3)
    with pytest.raises(TypeError):
        Procedure()
