"""Differential test of the Levi-Civita kernels against frozen references.

The references below are the kernels ``lcbayes.lcnum`` used before
``inverse`` became long division: the inverse summed the geometric
series of ``-u`` with one full truncated product per power, the product
skipped (``continue``) every pair past the window instead of stopping,
and ``compare`` built the whole truncated difference to read its
leading term.  They work on plain term tuples ``((exponent, coefficient),
...)`` and share no code with the package.  The geometric series already
gives the exact truncation that long division computes, so every result
must agree term for term, not just up to some tolerance.
"""

import math
import random
from fractions import Fraction as F

import pytest

from lcbayes.lcnum import MAX_TERMS, LCNumber, TooManyTerms

ORDERS = (4, 8, 16)
# the geometric series costs about (window exponents)^2 * terms, so it
# runs only where the window of 1/(1 + w) holds at most this many
REFERENCE_EXPONENTS = 64


# ----------------------------------------------------------------------
# frozen reference: geometric-series inverse on term tuples
# ----------------------------------------------------------------------


def ref_make(acc: dict, order: int) -> tuple:
    nonzero = sorted((e, c) for e, c in acc.items() if c != 0)
    if nonzero:
        cutoff = nonzero[0][0] + order
        nonzero = [(e, c) for e, c in nonzero if e <= cutoff]
    return tuple(nonzero)


def ref_add(a: tuple, b: tuple, order: int) -> tuple:
    acc: dict = {}
    for e, c in a + b:
        acc[e] = acc.get(e, F(0)) + c
    return ref_make(acc, order)


def ref_neg(a: tuple) -> tuple:
    return tuple((e, -c) for e, c in a)


def ref_mul(a: tuple, b: tuple, order: int) -> tuple:
    if not a or not b:
        return ()
    cutoff = a[0][0] + b[0][0] + order
    acc: dict = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if e > cutoff:
                continue
            acc[e] = acc.get(e, F(0)) + c1 * c2
    return ref_make(acc, order)


def ref_inverse(a: tuple, order: int) -> tuple:
    lead_expo, lead_coeff = a[0]
    u = ref_make({e - lead_expo: c / lead_coeff for e, c in a[1:]}, order)
    series = ((F(0), F(1)),)
    if u:
        step = u[0][0]
        power = ((F(0), F(1)),)
        neg_u = ref_neg(u)
        k = F(0)
        while k + step <= order:
            power = ref_mul(power, neg_u, order)
            series = ref_add(series, power, order)
            k += step
    return ref_make({e - lead_expo: c / lead_coeff for e, c in series}, order)


def ref_compare(a: tuple, b: tuple, order: int) -> int:
    diff = ref_add(a, ref_neg(b), order)
    if not diff:
        return 0
    return 1 if diff[0][1] > 0 else -1


# ----------------------------------------------------------------------
# random operands
# ----------------------------------------------------------------------


def window_exponents(terms: tuple, order: int, limit: int) -> int:
    """How many sums of the offsets d_j = e_j - e_0 lie in [0, order],
    counted up to ``limit + 1``."""
    offsets = [e - terms[0][0] for e, _ in terms[1:]]
    den = math.lcm(*(d.denominator for d in offsets))
    offsets = [int(d * den) for d in offsets]
    seen, frontier = {0}, [0]
    while frontier and len(seen) <= limit:
        g = frontier.pop()
        for d in offsets:
            if g + d <= order * den and g + d not in seen:
                seen.add(g + d)
                frontier.append(g + d)
    return len(seen)


def random_series(rng: random.Random, order: int) -> LCNumber:
    """1-6 terms, exponent denominators up to 64, a negative, zero or
    positive valuation, rational coefficients, and some terms past the
    window so that construction truncates."""
    q = rng.randint(1, 64)
    lead = F(rng.choice((-1, 0, 1)) * rng.randint(1, 3 * q), q)
    exponents = {lead}
    if rng.random() < 0.25:  # the finest step the denominator allows
        exponents.add(lead + F(1, q))
    for _ in range(rng.randint(0, 5)):
        step = rng.choice([d for d in range(1, q + 1) if q % d == 0])
        exponents.add(lead + F(rng.randint(1, order * step + 2), step))
    terms = [(e, F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
             for e in exponents]
    return LCNumber.from_terms(terms, order)


def dense_operand(rng: random.Random, order: int) -> LCNumber:
    """The tracer's microbench operand: 2 * order + 1 terms, step 1/2."""
    lead = F(rng.randint(-4, 4), 2)
    terms = [(lead + F(k, 2), F(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 5)))
             for k in range(2 * order + 1)]
    return LCNumber.from_terms(terms, order)


def near(rng: random.Random, a: LCNumber, order: int) -> LCNumber:
    """A second operand equal to ``a``, or differing from it late or early."""
    terms = list(a.terms)
    kind = rng.randrange(4)
    if kind == 1 and terms:
        e, c = terms[-1]
        terms[-1] = (e, c + rng.choice((-1, 1)))
    elif kind == 2:
        last = terms[-1][0] if terms else F(0)
        terms.append((last + F(1, rng.randint(1, 64)), F(rng.choice((-3, 3)))))
    elif kind == 3 and terms:
        e, c = terms[0]
        terms[0] = (e, -c)
    return LCNumber.from_terms(terms, order)


def ones(order: int) -> tuple:
    return LCNumber(1, order).terms


# ----------------------------------------------------------------------
# the differential tests
# ----------------------------------------------------------------------


def test_random_inverses_match_reference():
    rng = random.Random(20161230)
    seen = {"negative": 0, "zero": 0, "positive": 0, "fractional steps": 0,
            "over the cap": 0}
    compared = 0
    for i in range(700):
        order = ORDERS[i % 3]
        a = random_series(rng, order)
        v = a.valuation()
        seen["negative" if v < 0 else "zero" if v == 0 else "positive"] += 1
        seen["fractional steps"] += any(e.denominator > 1 for e, _ in a.terms)
        count = window_exponents(a.terms, order, MAX_TERMS)
        if count > MAX_TERMS:
            with pytest.raises(TooManyTerms):
                a.inverse()
            seen["over the cap"] += 1
            continue
        inv = a.inverse()
        assert (a * inv).terms == ones(order)
        if count <= REFERENCE_EXPONENTS:
            assert inv.terms == ref_inverse(a.terms, order), a
            compared += 1
    assert compared >= 500, (compared, seen)
    assert all(n > 0 for n in seen.values()), seen


def test_random_products_and_comparisons_match_reference():
    rng = random.Random(1612)
    signs = {-1: 0, 0: 0, 1: 0}
    for i in range(600):
        order = ORDERS[i % 3]
        a = random_series(rng, order)
        b = near(rng, a, ORDERS[rng.randrange(3)]) if i % 2 else random_series(rng, order)
        low = min(a.order, b.order)
        assert (a * b).terms == ref_mul(a.terms, b.terms, low)
        assert (b * a).terms == ref_mul(b.terms, a.terms, low)
        sign = ref_compare(a.terms, b.terms, low)
        assert a.compare(b) == sign
        assert b.compare(a) == -sign
        assert a.compare(0) == ref_compare(a.terms, (), a.order)
        signs[sign] += 1
    assert all(n > 0 for n in signs.values()), signs


@pytest.mark.parametrize("order", ORDERS)
def test_microbench_operands_match_reference(order):
    rng = random.Random(f"dense/{order}")
    a, b = dense_operand(rng, order), dense_operand(rng, order)
    assert len(a.terms) == 2 * order + 1
    inv = a.inverse()
    assert inv.terms == ref_inverse(a.terms, order)
    assert (a * inv).terms == ones(order)
    assert (a * b).terms == ref_mul(a.terms, b.terms, order)
    assert a.compare(b) == ref_compare(a.terms, b.terms, order)
