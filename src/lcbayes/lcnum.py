"""Exact arithmetic in a truncated Levi-Civita field.

Numbers are finite formal series ``sum_i c_i * eps^(e_i)`` in a positive
infinitesimal ``eps``, with rational coefficients ``c_i`` and rational,
strictly increasing exponents ``e_i``.  Negative exponents give infinite
elements, so the single generator also covers infinite scale parameters
(written ``eps^-1``).  Series are truncated *relative* to the valuation:
a number of order ``n`` retains exponents up to ``valuation + n``, so
inverting an infinitesimal loses no precision.

All coefficients and exponents are :class:`fractions.Fraction`; there is
no floating point anywhere in this module.  Verdicts that depend on exact
zero tests of leading terms (ordering, infinitesimal checks, standard
parts) are therefore exact.

Each kernel does only the work its result needs.  A product stops each
row of term products at the truncation window.  The inverse is long
division (Berz; Shamseddine & Berz): every retained coefficient costs
one multiply-add per term of the operand, so an inverse costs at most
``MAX_TERMS`` times the operand's length.  A comparison reads the first
place where two term lists differ.  No result keeps more than
:data:`MAX_TERMS` terms; past the cap an operation raises
:class:`TooManyTerms` instead of running on.  A power raises
:class:`CoefficientTooWide` before any multiplication of its
square-and-multiply loop whose product, or whose final leading
coefficient, could pass :data:`MAX_COEFF_BITS` bits, or whose work
could pass :data:`MAX_PRODUCT_WORK`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

DEFAULT_ORDER = 8
# The most terms a result may keep: twice the 257 of the widest window
# that the example reports and the benchmark quotients fill (order 16 at
# exponent step 1/16).  A product of two operands this long takes under
# a second.
MAX_TERMS = 2 * 257
# The widest coefficient, in bits, that a power may build: over 7x the
# widest (2,218 bits) of tier-1, the demos, the example reports and the
# lc-reports benchmark, and past the 14,284 bits str() prints by default.
MAX_COEFF_BITS = 2 ** 14
# The most work one product of a power may take, as terms(a) * terms(b) *
# the bits of a's coefficients over their common denominator plus those of
# b's: over 700x the most (21,951) that tier-1, the demos, the example
# reports and the lc-reports benchmark need, outside the tests of the
# bounds.  A squaring of 513 terms of 31-bit integers sits at the bound and
# takes about 0.6 s (Python 3.11, 2-core Xeon VM); (3 + eps^(1/64))^4096
# at order 8 stops before its 257-term squaring.
MAX_PRODUCT_WORK = 2 ** 24

Rational = Union[int, Fraction]
Term = Tuple[Fraction, Fraction]  # (exponent, coefficient)


class NotNearStandard(ArithmeticError):
    """Standard part requested for an element with an infinite part."""


class TooManyTerms(ArithmeticError):
    """A result would keep more than :data:`MAX_TERMS` terms."""

    def __init__(self):
        super().__init__(f"result would keep more than {MAX_TERMS} terms")


class CoefficientTooWide(ArithmeticError):
    """A power's coefficient would pass :data:`MAX_COEFF_BITS` bits, or one
    of its products would pass :data:`MAX_PRODUCT_WORK`."""


class LCParseError(ValueError):
    """Malformed textual input; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _int_exponents(*term_lists):
    """One denominator for every exponent in ``term_lists``, and each list
    with its exponents as ints over it."""
    den = math.lcm(*(e.denominator for terms in term_lists for e, _ in terms))
    return den, [[(e.numerator * (den // e.denominator), c) for e, c in terms]
                 for terms in term_lists]


def _log2_floor(coeff: Fraction) -> int:
    """floor(log2) of the wider of a coefficient's numerator and denominator."""
    return max(abs(coeff.numerator), coeff.denominator).bit_length() - 1


def _width(x: "LCNumber") -> int:
    """floor(log2) of the wider of the widest coefficient numerator of ``x``,
    its coefficients over their least common denominator, and that
    denominator."""
    den = math.lcm(*(c.denominator for _, c in x.terms))
    top = max((abs(c.numerator) * (den // c.denominator) for _, c in x.terms), default=0)
    return max(top, den).bit_length() - 1


def _capped_product(a: "LCNumber", b: "LCNumber") -> "LCNumber":
    """``a * b``, refused when it could hold a coefficient past the cap or
    take more than :data:`MAX_PRODUCT_WORK`.

    Over each operand's common denominator, a coefficient of the product
    sums products of one integer numerator of ``a`` and one of ``b``, over
    the product of the two denominators: the widest numerator product, or
    that denominator, has over ``wa + wb`` bits.
    """
    wa, wb = _width(a), _width(b)
    if wa + wb > MAX_COEFF_BITS:
        raise CoefficientTooWide(f"a coefficient would pass {MAX_COEFF_BITS} bits")
    if len(a.terms) * len(b.terms) * (wa + wb) > MAX_PRODUCT_WORK:
        raise CoefficientTooWide(f"a product of {len(a.terms)} by {len(b.terms)} terms "
                                 f"of up to {wa + wb} bits would pass the work bound")
    return a * b


class LCNumber:
    """Immutable truncated Levi-Civita series.

    ``order`` is precision metadata: binary operations truncate to the
    smaller operand order, so results never claim unearned precision.
    Equality and hashing look only at the canonical term list; a
    standard number hashes like the equal ``Fraction``.
    """

    __slots__ = ("_terms", "_order")

    def __init__(self, value: Rational = 0, order: int = DEFAULT_ORDER):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        coeff = _as_fraction(value)
        terms: Tuple[Term, ...]
        if coeff == 0:
            terms = ()
        else:
            terms = ((Fraction(0), coeff),)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_order", int(order))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LCNumber instances are immutable")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[Tuple[Rational, Rational]],
                   order: int = DEFAULT_ORDER) -> "LCNumber":
        """Build a number from (exponent, coefficient) pairs.

        Pairs may be unsorted and may repeat exponents; the result is
        canonicalized and truncated to ``valuation + order``.
        """
        acc: dict[Fraction, Fraction] = {}
        for expo, coeff in terms:
            e = _as_fraction(expo)
            c = _as_fraction(coeff)
            acc[e] = acc.get(e, Fraction(0)) + c
        return LCNumber._make(acc, order)

    @staticmethod
    def _make(acc: dict, order: int) -> "LCNumber":
        nonzero = sorted((e, c) for e, c in acc.items() if c != 0)
        if nonzero:
            cutoff = nonzero[0][0] + order
            nonzero = [(e, c) for e, c in nonzero if e <= cutoff]
            if len(nonzero) > MAX_TERMS:
                raise TooManyTerms()
        num = LCNumber.__new__(LCNumber)
        object.__setattr__(num, "_terms", tuple(nonzero))
        object.__setattr__(num, "_order", int(order))
        return num

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    @property
    def order(self) -> int:
        return self._order

    def is_zero(self) -> bool:
        return not self._terms

    def valuation(self) -> Optional[Fraction]:
        """Least exponent with nonzero coefficient; None means +infinity (zero)."""
        if not self._terms:
            return None
        return self._terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return self._terms[0][1]

    def is_infinitesimal(self) -> bool:
        v = self.valuation()
        return v is None or v > 0

    def is_near_standard(self) -> bool:
        v = self.valuation()
        return v is None or v >= 0

    def is_infinite(self) -> bool:
        v = self.valuation()
        return v is not None and v < 0

    def standard_part(self) -> Fraction:
        """The real shadow: the coefficient at exponent 0 (0 if absent)."""
        if not self.is_near_standard():
            raise NotNearStandard(f"{self} has an infinite part")
        for expo, coeff in self._terms:
            if expo == 0:
                return coeff
            if expo > 0:
                break
        return Fraction(0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other) -> Optional["LCNumber"]:
        if isinstance(other, LCNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return LCNumber(other, self._order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        order = min(self._order, rhs._order)
        acc: dict[Fraction, Fraction] = {}
        for expo, coeff in self._terms:
            acc[expo] = acc.get(expo, Fraction(0)) + coeff
        for expo, coeff in rhs._terms:
            acc[expo] = acc.get(expo, Fraction(0)) + coeff
        return LCNumber._make(acc, order)

    __radd__ = __add__

    def __neg__(self):
        num = LCNumber.__new__(LCNumber)
        object.__setattr__(num, "_terms", tuple((e, -c) for e, c in self._terms))
        object.__setattr__(num, "_order", self._order)
        return num

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        order = min(self._order, rhs._order)
        if not self._terms or not rhs._terms:
            return LCNumber(0, order)
        den, (mine, theirs) = _int_exponents(self._terms, rhs._terms)
        cutoff = mine[0][0] + theirs[0][0] + order * den
        acc: dict[int, Fraction] = {}
        for e1, c1 in mine:
            for e2, c2 in theirs:
                e = e1 + e2
                if e > cutoff:
                    break
                acc[e] = acc.get(e, 0) + c1 * c2
        return LCNumber._make({Fraction(e, den): c for e, c in acc.items()}, order)

    __rmul__ = __mul__

    def inverse(self) -> "LCNumber":
        """Multiplicative inverse up to truncation, by long division.

        Write ``a = c * eps^v * (1 + w)`` with ``w = sum_j w_j eps^(d_j)``
        and every ``d_j > 0``.  Then ``s = 1/(1 + w)`` has ``s_0 = 1`` and
        ``s_g = -sum_j w_j * s_(g - d_j)``, and ``a^-1 = c^-1 eps^-v s``.
        The exponents g are the sums of the d_j, taken in increasing
        order up to ``order``; over one common denominator they are
        ints.  Each retained term costs one multiply-add per term of
        ``w``.  The division stops with :class:`TooManyTerms` once more
        than :data:`MAX_TERMS` exponents fall inside the window, counting
        any whose coefficient cancels to 0.  ``a * a.inverse()`` equals 1
        exactly on all retained terms.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        order = self._order
        den, (scaled,) = _int_exponents(self._terms)
        (v, lead), top = scaled[0], order * den
        w = [(e - v, c / lead) for e, c in scaled[1:] if e - v <= top]
        # the sums of the d_j in increasing order, as in Dijkstra's merge of
        # the Hamming numbers: after[j] indexes the least exponent so far
        # whose sum with d_j has not been reached yet
        s, exps, after = {0: Fraction(1)}, [0], [0] * len(w)
        while True:
            reach = [exps[i] + d for i, (d, _) in zip(after, w)]
            g = min(reach, default=top + 1)
            if g > top:
                break
            if len(s) == MAX_TERMS:
                raise TooManyTerms()
            after = [i + (r == g) for i, r in zip(after, reach)]
            s[g] = -sum(c * s[g - d] for d, c in w if g - d in s)
            exps.append(g)
        return LCNumber._make({Fraction(g - v, den): c / lead for g, c in s.items()}, order)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = LCNumber(1, self._order)
        base = self
        n = exponent
        while n:
            # lead(base)^n ends up whole in the result, with over n times
            # lead's floor(log2) bits
            if n * _log2_floor(base.leading_coefficient()) > MAX_COEFF_BITS:
                raise CoefficientTooWide(f"a coefficient would pass {MAX_COEFF_BITS} bits")
            if n & 1:
                result = _capped_product(result, base)
            n >>= 1
            if n:
                base = _capped_product(base, base)
        return result

    def __abs__(self):
        return -self if self < 0 else self

    # ------------------------------------------------------------------
    # order
    # ------------------------------------------------------------------

    def compare(self, other) -> int:
        """Total field order: the sign of the leading term of self - other.

        That term sits at the first place where the two term lists
        differ, so no difference is built.
        """
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot compare LCNumber with {type(other).__name__}")
        mine, theirs = self._terms, rhs._terms
        for (e1, c1), (e2, c2) in zip(mine, theirs):
            if e1 < e2:
                return 1 if c1 > 0 else -1
            if e2 < e1:
                return 1 if c2 < 0 else -1
            if c1 != c2:
                return 1 if c1 > c2 else -1
        if len(mine) > len(theirs):
            return 1 if mine[len(theirs)][1] > 0 else -1
        if len(theirs) > len(mine):
            return 1 if theirs[len(mine)][1] < 0 else -1
        return 0

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self):
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return hash(self._terms[0][1])
        return hash(self._terms)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __bool__(self):
        return bool(self._terms)

    # ------------------------------------------------------------------
    # printing
    # ------------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for i, (expo, coeff) in enumerate(self._terms):
            mag = abs(coeff)
            if expo == 0:
                body = str(mag)
            else:
                if expo == 1:
                    eps_part = "eps"
                else:
                    eps_part = f"eps^{expo}"
                body = eps_part if mag == 1 else f"{mag}*{eps_part}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LCNumber('{self}', order={self._order})"


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------


def eps(order: int = DEFAULT_ORDER) -> LCNumber:
    """The generating positive infinitesimal."""
    return LCNumber.from_terms([(1, 1)], order)


def compare(a: LCNumber, b) -> int:
    return a.compare(b)


def st(a: Union[LCNumber, Rational]) -> Fraction:
    """The standard part of a Levi-Civita number; a rational is its own."""
    return a.standard_part() if isinstance(a, LCNumber) else Fraction(a)


def approx_eq(a: Union[LCNumber, Rational], b) -> bool:
    """True iff a - b is infinitesimal or zero (the monadic relation);
    either side may be rational."""
    diff = a - b
    return (diff if isinstance(diff, LCNumber) else LCNumber(diff)).is_infinitesimal()


def leq_approx(a: Union[LCNumber, Rational], b) -> bool:
    """True iff a <= b or a is within an infinitesimal of b."""
    return a <= b or approx_eq(a, b)


def much_greater(x: Union[LCNumber, Rational], y) -> bool:
    """True iff gamma * x > y for every standard rational gamma > 0.

    Decided on the truncated representation: x must be positive and y
    either nonpositive or of strictly larger valuation (smaller magnitude
    scale).  For y <= 0 the quantified condition holds vacuously for any
    positive x; that reading is adopted here.  Either side may be rational.
    """
    x, y = (v if isinstance(v, LCNumber) else LCNumber(v) for v in (x, y))
    if x <= 0:
        return False
    if y <= 0:
        return True
    return y.valuation() > x.valuation()


def refute_much_greater(x: Union[LCNumber, Rational], y) -> Fraction:
    """A standard rational gamma with gamma * x <= y.

    Only defined when ``much_greater(x, y)`` is false with x, y > 0; this
    is the explicit counterexample to the universally quantified claim.
    Either side may be rational.
    """
    x, y = (v if isinstance(v, LCNumber) else LCNumber(v) for v in (x, y))
    if x <= 0 or y <= 0:
        raise ValueError("witness production requires x > 0 and y > 0")
    if much_greater(x, y):
        raise ValueError("no witness exists: x is infinitely larger than y")
    if y.valuation() < x.valuation():
        return Fraction(1)
    return y.leading_coefficient() / (2 * x.leading_coefficient())


# ----------------------------------------------------------------------
# parsing and evaluation
# ----------------------------------------------------------------------


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit also accepts characters like '²' that int() rejects
    return len(ch) == 1 and "0" <= ch <= "9"


class _Scanner:
    """Character scanner for LC expressions.

    Grammar (standard precedence, ``^`` tightest, right of unary minus):

        expr    := term (('+' | '-') term)*
        term    := factor (('*' | '/') factor)*
        factor  := '-' factor | primary
        primary := atom ['^' exponent]
        atom    := integer | 'eps' | '(' expr ')'

    An exponent is a signed integer, optionally followed *without spaces*
    by '/digits' to form a rational exponent, or the same wrapped in
    parentheses.  ``eps^1/2`` therefore means ``eps^(1/2)``; write
    ``(eps^1)/2`` for the quotient.  This makes printing canonical forms
    and re-parsing them the identity.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def error(self, message: str):
        raise LCParseError(message, self.pos)

    def read_digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])

    def read_exponent(self) -> Fraction:
        self.skip_ws()
        parenthesized = self.take("(")
        self.skip_ws()
        sign = 1
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            sign = -1
            self.pos += 1
        elif self.pos < len(self.text) and self.text[self.pos] == "+":
            self.pos += 1
        num = self.read_digits()
        den = 1
        # a '/' immediately followed by digits continues the exponent
        if (self.pos < len(self.text) and self.text[self.pos] == "/"
                and self.pos + 1 < len(self.text)
                and _is_digit(self.text[self.pos + 1])):
            self.pos += 1
            den = self.read_digits()
            if den == 0:
                self.error("zero denominator in exponent")
        if parenthesized and not self.take(")"):
            self.error("expected ')' after exponent")
        return Fraction(sign * num, den)


def evaluate(text: str, order: int = DEFAULT_ORDER) -> LCNumber:
    """Evaluate an LC expression over literals, eps, + - * / ^ and parens.

    Raises :class:`LCParseError` with the offending position on malformed
    input and :class:`ZeroDivisionError` on division by exact zero.
    """
    scanner = _Scanner(text)
    value = _parse_expr(scanner, order)
    scanner.skip_ws()
    if scanner.pos != len(scanner.text):
        scanner.error("unexpected trailing input")
    return value


def parse(text: str, order: int = DEFAULT_ORDER) -> LCNumber:
    """Parse the canonical series syntax, e.g. ``3/2 + 5*eps^2 - eps^-1``.

    The canonical syntax is a sublanguage of the expression grammar, so
    this is evaluation; round-tripping ``parse(str(x))`` is the identity
    on canonical forms.
    """
    return evaluate(text, order)


def _parse_expr(sc: _Scanner, order: int) -> LCNumber:
    value = _parse_term(sc, order)
    while True:
        if sc.take("+"):
            value = value + _parse_term(sc, order)
        elif sc.take("-"):
            value = value - _parse_term(sc, order)
        else:
            return value


def _parse_term(sc: _Scanner, order: int) -> LCNumber:
    value = _parse_factor(sc, order)
    while True:
        if sc.take("*"):
            value = value * _parse_factor(sc, order)
        elif sc.take("/"):
            value = value / _parse_factor(sc, order)
        else:
            return value


def _parse_factor(sc: _Scanner, order: int) -> LCNumber:
    if sc.take("-"):
        return -_parse_factor(sc, order)
    return _parse_primary(sc, order)


def _parse_primary(sc: _Scanner, order: int) -> LCNumber:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        value = _parse_expr(sc, order)
        if not sc.take(")"):
            sc.error("expected ')'")
    elif _is_digit(ch):
        value = LCNumber(sc.read_digits(), order)
    elif sc.text.startswith("eps", sc.pos):
        sc.pos += 3
        value = eps(order)
    else:
        sc.error("expected a number, 'eps', or '('")
    if sc.peek() == "^":
        sc.take("^")
        expo = sc.read_exponent()
        value = _lc_power(value, expo, sc)
    return value


def _lc_power(value: LCNumber, expo: Fraction, sc: _Scanner) -> LCNumber:
    if expo.denominator == 1:
        return value ** expo.numerator
    # fractional exponents are only defined for monomials c * eps^e with
    # c a perfect power; in practice this is eps^(p/q)
    if len(value.terms) != 1:
        sc.error("fractional exponent requires a monomial base")
    base_expo, base_coeff = value.terms[0]
    if base_coeff != 1:
        sc.error("fractional exponent requires coefficient 1")
    return LCNumber.from_terms([(base_expo * expo, 1)], value.order)
