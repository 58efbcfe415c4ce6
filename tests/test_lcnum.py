"""Field, order, and parsing tests for the truncated Levi-Civita numbers."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from lcbayes.lcnum import (DEFAULT_ORDER, MAX_COEFF_BITS, MAX_TERMS, CoefficientTooWide,
                           LCNumber, LCParseError, NotNearStandard, TooManyTerms,
                           approx_eq, compare, eps, evaluate,
                           leq_approx, much_greater, parse,
                           refute_much_greater, st)

E = eps()
ONE = LCNumber(1)


def series(*pairs, order=DEFAULT_ORDER):
    return LCNumber.from_terms(pairs, order)


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

coefficients = hst.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = hst.fractions(min_value=-3, max_value=3, max_denominator=2)


@hst.composite
def lc_numbers(draw, min_terms=0, max_terms=4, exponents=exponents):
    n = draw(hst.integers(min_value=min_terms, max_value=max_terms))
    pairs = [(draw(exponents), draw(coefficients)) for _ in range(n)]
    return series(*pairs)


nonzero_lc = lc_numbers(min_terms=1).filter(lambda x: not x.is_zero())
# drawn near-standard rather than filtered: with no negative exponent
# every draw has valuation >= 0 (or is zero), so none is rejected
near_standard_lc = lc_numbers(
    exponents=hst.fractions(min_value=0, max_value=3, max_denominator=2))

# For three-operand ring laws, keep each operand's support spread within
# half the truncation order: every intermediate is then exact on its
# window and the laws hold exactly (wider spreads can corrupt the last
# retained term after cancellation raises a valuation).
law_exponents = hst.fractions(min_value=-2, max_value=2, max_denominator=2)


@hst.composite
def law_numbers(draw, max_terms=3):
    n = draw(hst.integers(min_value=0, max_value=max_terms))
    pairs = [(draw(law_exponents), draw(coefficients)) for _ in range(n)]
    return series(*pairs)


# ----------------------------------------------------------------------
# arithmetic basics
# ----------------------------------------------------------------------


def test_addition_cancels():
    assert (ONE + E) + (ONE - E) == LCNumber(2)


def test_addition_disjoint_supports():
    assert E + E * E == series((1, 1), (2, 1))


@given(lc_numbers())
def test_additive_identity(x):
    assert x + LCNumber(0) == x


def test_difference_of_squares():
    assert (ONE + E) * (ONE - E) == series((0, 1), (2, -1))


def test_infinite_times_infinitesimal():
    assert E * E.inverse() == ONE


@given(law_numbers(), law_numbers(), law_numbers())
def test_mul_associative_both_groupings(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(lc_numbers(), lc_numbers())
def test_add_and_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(law_numbers(), law_numbers(), law_numbers())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(law_numbers(), law_numbers(), law_numbers())
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_geometric_series_inverse():
    expected = series(*[(k, (-1) ** k) for k in range(DEFAULT_ORDER + 1)])
    assert (ONE + E).inverse() == expected


def test_inverse_of_monomial():
    assert E.inverse() == series((-1, 1))


def test_shrinkage_ratio_order_four():
    # long-division oracle: x^2/(x^2+1) at x = eps^-1 is 1/(1+eps^2)
    # = 1 - eps^2 + eps^4 - ...; truncated at relative order 4.
    value = evaluate("(eps^-2)/(eps^-2 + 1)", order=4)
    assert value == LCNumber.from_terms([(0, 1), (2, -1), (4, 1)], 4)


@given(nonzero_lc)
def test_inverse_is_exact_on_retained_terms(x):
    assert x * x.inverse() == LCNumber(1, x.order)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        LCNumber(0).inverse()


# ----------------------------------------------------------------------
# order axioms
# ----------------------------------------------------------------------


def test_positive_infinitesimal():
    assert compare(E, LCNumber(0)) > 0


def test_smaller_than_any_standard_positive_real():
    assert compare(E, LCNumber(F(1, 10 ** 9))) < 0


def test_tie_broken_by_next_term():
    assert compare(ONE + E, ONE) > 0


@given(lc_numbers(), lc_numbers())
def test_total_order(a, b):
    signs = [a < b, a == b, a > b]
    assert sum(signs) == 1


@given(lc_numbers(), lc_numbers(), lc_numbers())
def test_order_translation_invariant(a, b, c):
    if a < b:
        assert a + c < b + c


@given(lc_numbers(), lc_numbers(), nonzero_lc)
def test_order_respects_positive_scaling(a, b, c):
    if a < b and c > 0:
        assert a * c < b * c


# ----------------------------------------------------------------------
# valuation, standard part, monadic relations
# ----------------------------------------------------------------------


def test_valuation_examples():
    assert (3 * E * E).valuation() == 2
    assert (LCNumber(5) + E).valuation() == 0
    assert series((-2, 1)).valuation() == -2
    assert LCNumber(0).valuation() is None


def test_magnitude_trichotomy_examples():
    assert (E * E).is_infinitesimal()
    assert (ONE + E).is_near_standard() and not (ONE + E).is_infinitesimal()
    assert E.inverse().is_infinite()


@given(lc_numbers())
def test_magnitude_trichotomy(x):
    classes = [x.is_infinitesimal(),
               x.is_near_standard() and not x.is_infinitesimal(),
               x.is_infinite()]
    assert sum(classes) == 1


def test_standard_part_examples():
    assert st(LCNumber(2) + 3 * E - E * E) == 2
    assert st(E * E) == 0
    with pytest.raises(NotNearStandard):
        st(E.inverse())


@given(near_standard_lc, near_standard_lc)
def test_standard_part_homomorphism(a, b):
    assert st(a + b) == st(a) + st(b)
    assert st(a * b) == st(a) * st(b)


def test_approx_eq_examples():
    assert approx_eq(ONE + E, ONE)
    assert not approx_eq(ONE + E, LCNumber(F(1001, 1000)))


@given(near_standard_lc, near_standard_lc)
def test_approx_eq_iff_equal_standard_parts(a, b):
    # both sides evaluated independently
    assert approx_eq(a, b) == (st(a) == st(b))


def test_leq_approx():
    assert leq_approx(ONE + E, ONE)
    assert leq_approx(ONE, ONE + E)
    assert not leq_approx(LCNumber(2), ONE)


def test_approx_relations_accept_a_rational_first_argument():
    assert approx_eq(F(1), ONE + E) and approx_eq(1, F(1))
    assert not approx_eq(F(1, 2), ONE + E) and not approx_eq(F(1), F(1, 2))
    assert leq_approx(F(1), ONE - E) and leq_approx(2, ONE * 2 + E)
    assert not leq_approx(F(2), ONE)


# ----------------------------------------------------------------------
# the infinitely-larger relation and its witnesses
# ----------------------------------------------------------------------


def test_much_greater_examples():
    assert much_greater(E, E * E)
    assert not much_greater(E * E, E)
    # equal valuation: gamma = 1/4 already defeats the claim
    assert not much_greater(2 * E, E)
    assert refute_much_greater(2 * E, E) == F(1, 4)
    gamma = refute_much_greater(2 * E, E)
    assert gamma * (2 * E) <= E


def test_much_greater_vacuous_for_nonpositive_y():
    assert much_greater(E, LCNumber(0))
    assert much_greater(E * E, -ONE)
    assert not much_greater(LCNumber(0), -ONE)


def test_much_greater_takes_a_rational_x():
    # an int or Fraction x reads as its lift, as a rational y already does
    for x in (1, F(1, 3), 0, -2, F(-1, 2)):
        for y in (E, E.inverse(), LCNumber(F(1, 2)), -E, 0, F(1, 4), -1):
            assert much_greater(x, y) == much_greater(LCNumber(x), y)
    assert much_greater(F(1), E) and much_greater(1, E)
    assert not much_greater(F(1), E.inverse()) and not much_greater(3, 2)
    for x, y in ((F(1), E.inverse()), (2, LCNumber(3)), (F(1, 2), E.inverse() * 5)):
        assert refute_much_greater(x, y) == refute_much_greater(LCNumber(x), y)
    assert refute_much_greater(2, LCNumber(3)) == F(3, 4)
    assert refute_much_greater(F(1), E.inverse()) == 1


@given(nonzero_lc, nonzero_lc)
def test_much_greater_quantifier_agreement(x, y):
    if much_greater(x, y):
        for gamma in (F(1), F(1, 2), F(1, 10 ** 6)):
            assert gamma * x > y
    elif x > 0 and y > 0:
        gamma = refute_much_greater(x, y)
        assert gamma > 0
        assert gamma * x <= y


# ----------------------------------------------------------------------
# truncation semantics
# ----------------------------------------------------------------------


def test_mixed_order_takes_minimum():
    a = LCNumber(1, order=4)
    b = eps(8)
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_relative_truncation_window():
    x = series(*[(k, 1) for k in range(12)])
    assert x.terms[-1][0] == DEFAULT_ORDER  # exponents capped at val + order


def test_inverting_infinitesimal_keeps_relative_precision():
    x = E + E * E
    inv = x.inverse()
    assert inv.valuation() == -1
    assert inv.terms[-1][0] <= -1 + DEFAULT_ORDER
    assert x * inv == LCNumber(1, x.order)


# ----------------------------------------------------------------------
# parsing and printing
# ----------------------------------------------------------------------


def test_parse_canonical_syntax():
    x = parse("3/2 + 5*eps^2 - eps^-1")
    assert x == series((0, F(3, 2)), (2, 5), (-1, -1))


@pytest.mark.parametrize("text,expected", [
    ("eps * eps^-1", ONE),
    ("(1+eps)*(1-eps)", series((0, 1), (2, -1))),
    ("eps^1/2 * eps^1/2", E),
    ("2^3", LCNumber(8)),
    ("-eps^2", series((2, -1))),
    ("1/4 + 1/4 + 1/2", ONE),
])
def test_evaluate(text, expected):
    assert evaluate(text) == expected


@given(lc_numbers())
def test_print_parse_roundtrip(x):
    assert parse(str(x), order=x.order) == x


def test_parse_error_carries_position():
    with pytest.raises(LCParseError) as err:
        evaluate("eps + * 2")
    assert err.value.position == 6


def test_parse_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        evaluate("1/0")


def test_immutability():
    with pytest.raises(AttributeError):
        E.order_ = 3
    with pytest.raises(AttributeError):
        E._terms = ()


@pytest.mark.parametrize("order", [4, 8, 16])
def test_standard_numbers_hash_like_their_rationals(order):
    # equal objects must hash equal, so a set or dict sees one key
    for value in (0, 1, -3, 7, F(1, 2), F(-5, 3), F(22, 7)):
        lc = LCNumber(value, order)
        assert lc == value and lc == F(value)
        assert hash(lc) == hash(value) == hash(F(value))
        assert len({lc, value, F(value)}) == 1
        assert {lc: "lc"}[value] == "lc"
    # distinct orders stay one key: equality ignores the order metadata
    assert len({LCNumber(F(1, 2), order), LCNumber(F(1, 2), 2 * order)}) == 1


# ----------------------------------------------------------------------
# the retained-term and coefficient caps
# ----------------------------------------------------------------------


def test_term_cap_at_construction():
    terms = [(F(k, MAX_TERMS), 1) for k in range(MAX_TERMS + 1)]
    assert len(LCNumber.from_terms(terms[:-1], order=1).terms) == MAX_TERMS
    with pytest.raises(TooManyTerms):
        LCNumber.from_terms(terms, order=1)


def test_inverse_stops_at_the_cap():
    # 1/(1 + eps^(1/64)) has a term at every k/64 up to the order
    fits = evaluate("1+eps^1/64", order=8).inverse()
    assert len(fits.terms) == 8 * 64 + 1 <= MAX_TERMS
    with pytest.raises(TooManyTerms):
        evaluate("1+eps^1/64", order=9).inverse()


def test_power_stops_at_the_coefficient_cap():
    # lead^n has over n * (b - 1) bits: 3 and 1/2 have b = 2
    for base in (LCNumber(3), LCNumber(F(1, 2)) + E, LCNumber(3).inverse()):
        with pytest.raises(CoefficientTooWide):
            base ** (MAX_COEFF_BITS + 1)
    with pytest.raises(CoefficientTooWide):
        LCNumber(3) ** -(MAX_COEFF_BITS + 1)
    # at the cap, and for a leading coefficient of 1 or -1, powers stay exact
    assert LCNumber(2) ** MAX_COEFF_BITS == LCNumber(2 ** MAX_COEFF_BITS)
    assert (-E) ** (10 ** 9 + 1) == series((10 ** 9 + 1, -1))
    n = 10 ** 6
    assert (ONE + E) ** n == series(*[(k, math.comb(n, k)) for k in range(DEFAULT_ORDER + 1)])


def test_power_of_distinct_denominators_is_refused_before_its_product(monkeypatch):
    # each coefficient has about 7,640 bits, but their sums over one
    # denominator have 33 times that: the square must be refused unbuilt
    x = series(*[(F(k, 8), F(1, 10 ** 2299 + 2 * k + 1)) for k in range(33)])

    def no_product(a, b):
        raise AssertionError("the product was taken")

    monkeypatch.setattr(LCNumber, "__mul__", no_product)
    with pytest.raises(CoefficientTooWide):
        x ** 2


@pytest.mark.parametrize("x", [
    # 64 x 64 terms of 2,048 bits: the work is 2^24, exactly the bound
    series(*[(F(k, 8), 2 ** 2048 + k) for k in range(64)]),
    # a 16,384-bit square: exactly the coefficient cap
    LCNumber(2 ** 8192 + 1)])
def test_power_at_the_product_bounds(x):
    assert x ** 2 == x * x


def test_power_matches_repeated_product():
    for base in (series((0, F(3, 2)), (1, 1)), series((-1, 1), (0, -2), (F(1, 2), 7)),
                 series((0, F(-5, 3)), (F(2, 3), F(1, 4))), LCNumber(0)):
        product = ONE
        for n in range(13):
            assert base ** n == product
            if not base.is_zero():
                assert base ** -n == product.inverse()
            product = product * base


def test_compare_reads_the_first_difference():
    a = series((0, 1), (1, 2), (3, 5))
    assert a.compare(series((0, 1), (1, 2), (3, 4))) == 1
    assert a.compare(series((0, 1), (1, 2), (2, -1))) == 1
    assert a.compare(series((0, 1), (1, 2), (2, 1))) == -1
    assert a.compare(series((0, 1), (1, 2))) == 1
    assert series((0, 1), (1, 2)).compare(a) == -1
    assert a.compare(a) == 0
