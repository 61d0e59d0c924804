"""Exact arithmetic with numbers of the form  c * q**e,  c, e rational.

The good-map inequality compares Haar measures (rationals) against
(eps/sup)**alpha where alpha is a rational multiple of ln q, so both
sides are of this shape.  Comparisons clear denominators and compare
integers; no floats ever appear.

Also provides the exact value-group dilation rule: scaling a ball by a
real c > 1 multiplies its radius by the largest power of e not
exceeding c (distances only take values e**k, so this is a set
equality), and floor_ln computes that exponent exactly from rational
bounds on e.
"""

from __future__ import annotations

from fractions import Fraction


class QPow:
    """Value c * q**e with c >= 0 rational and e rational; immutable."""

    __slots__ = ("q", "c", "e")

    def __init__(self, q, c, e=0):
        self.q = int(q)
        self.c = Fraction(c)
        self.e = Fraction(e)
        if self.c < 0:
            raise ValueError("QPow coefficient must be nonnegative")
        if self.c == 0:
            self.e = Fraction(0)
        else:
            # canonical form: exponent in [0, 1), integer part folded
            # into the coefficient
            k = self.e.numerator // self.e.denominator
            if k:
                self.c *= Fraction(self.q) ** k
                self.e -= k

    def __mul__(self, other):
        if isinstance(other, QPow):
            if other.q != self.q:
                raise ValueError("mixed bases")
            return QPow(self.q, self.c * other.c, self.e + other.e)
        return QPow(self.q, self.c * Fraction(other), self.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QPow):
            if other.q != self.q:
                raise ValueError("mixed bases")
            if other.c == 0:
                raise ZeroDivisionError
            return QPow(self.q, self.c / other.c, self.e - other.e)
        return QPow(self.q, self.c / Fraction(other), self.e)

    def _cmp(self, other):
        """-1, 0, or 1 comparing against another QPow or a rational."""
        if not isinstance(other, QPow):
            other = QPow(self.q, Fraction(other))
        if other.q != self.q:
            raise ValueError("mixed bases")
        if self.c == 0 or other.c == 0:
            a, b = self.c, other.c
            return (a > b) - (a < b)
        de = other.e - self.e
        # self <= other  <=>  c1/c2 <= q**de; raise both sides to de's
        # denominator to land in the rationals
        lhs = self.c / other.c
        b = de.denominator
        lhs_pow = lhs**b
        rhs_pow = Fraction(self.q) ** de.numerator
        return (lhs_pow > rhs_pow) - (lhs_pow < rhs_pow)

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        # normalize integer exponents into the coefficient
        if self.e.denominator == 1:
            return hash(self.c * Fraction(self.q) ** self.e.numerator)
        return hash((self.q, self.c, self.e))

    def as_json_dict(self):
        return {
            "coeff": f"{self.c.numerator}/{self.c.denominator}",
            "q_exp": f"{self.e.numerator}/{self.e.denominator}",
        }

    def __repr__(self):
        if self.e == 0:
            return f"{self.c}"
        return f"{self.c}*{self.q}^({self.e})"


def _e_bounds(terms):
    """Rational lo < e < hi from the exponential series with tail bound."""
    s = Fraction(0)
    fact = 1
    for k in range(terms):
        if k:
            fact *= k
        s += Fraction(1, fact)
    # tail = sum_{k >= terms} 1/k! < 2/terms!
    tail = Fraction(2, fact * terms)
    return s, s + tail


def _e_pow_gt(j, c):
    """Decide e**j > c exactly for integer j >= 0 and rational c."""
    c = Fraction(c)
    if j == 0:
        return 1 > c
    terms = 10
    while True:
        lo, hi = _e_bounds(terms)
        if lo**j > c:
            return True
        if hi**j <= c:
            return False
        terms += 5  # e**j is irrational, so the bounds eventually decide


def floor_ln(c):
    """Largest integer j with e**j <= c, for rational c >= 1.

    This is the exact dilation exponent: the ball of radius c*e**k
    equals the ball of radius e**(k + floor_ln(c)) as a set of points,
    because distances only take values in e**Z.
    """
    c = Fraction(c)
    if c < 1:
        raise ValueError("dilation factor must be >= 1")
    j = 0
    while not _e_pow_gt(j + 1, c):
        j += 1
    return j
