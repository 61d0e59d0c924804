"""Precision-tracked Laurent series in 1/T over F_q.

A Laurent value is the raw polynomial of its listed digits (the
``ops_for(field)`` form that Poly and the lattice code use: an int
bitmask at q = 2, a little-endian tuple otherwise) times T**floor, so
digit i of ``raw`` is the coefficient of T**(floor + i).  Addition,
multiplication, shifts and inversion are the raw polynomial kernels
plus bookkeeping of the floor.

``exact=True`` means every coefficient below the floor is zero, so the
value is a finite sum known completely; its floor is then the degree of
its lowest nonzero digit (0 for the zero value).  ``exact=False`` means
digits below ``floor`` are unknown (a big-oh tail), and any query whose
answer depends on them raises rather than guesses.  In particular an
inexact value with no nonzero digit is an *ambiguous zero*: the value
could be 0 or anything of degree below the floor.

Degrees are the only magnitudes this module ever compares; |a| = e**deg
is never materialized.
"""

from __future__ import annotations

from ..errors import AmbiguousZero, DivisionByZero, PrecisionExhausted
from .degree import NEG_INF
from .poly import Poly, RatFn, ops_for, raw_coeffs


class Laurent:
    """Element of F_q((1/T)) known down to a valuation floor.

    Attributes:
        field: owning FieldSpec.
        raw: the listed digits as a raw polynomial; digit i is the
            coefficient of T**(floor + i).
        floor: lowest degree whose coefficient is listed.
        exact: True when all coefficients below the floor are zero.
        tail_period: (first degree, length) of a proven periodic tail,
            recorded by laurent_from_rational; None otherwise.
    """

    __slots__ = ("field", "ops", "raw", "floor", "exact", "tail_period")

    def __init__(self, field, digits, lead, exact=True, floor=None,
                 tail_period=None):
        """Build from a digit window.

        ``digits`` lists raw coefficients for degrees lead, lead-1, ...,
        under Poly's rule (see raw_coeffs).  ``floor`` defaults to the
        end of the window.
        """
        vals = raw_coeffs(field, digits)
        low = lead - len(vals) + 1  # degree of the last listed digit
        if floor is None:
            floor = low if vals else 0
        elif low < floor:
            raise ValueError("digit window extends below floor")
        ops = ops_for(field)
        vals.reverse()
        raw = ops.zero
        if vals:
            raw = ops.shift(ops.from_coeffs(vals), low - floor)
        _fill(self, field, ops, raw, floor, exact, tail_period)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _wrap(cls, field, ops, raw, floor, exact, tail_period=None):
        return _fill(object.__new__(cls), field, ops, raw, floor, exact,
                     tail_period)

    @classmethod
    def zero(cls, field):
        ops = ops_for(field)
        return cls._wrap(field, ops, ops.zero, 0, True)

    @classmethod
    def unknown_below(cls, field, floor):
        """The ambiguous zero: all digits >= floor are 0, tail unknown."""
        ops = ops_for(field)
        return cls._wrap(field, ops, ops.zero, floor, False)

    @classmethod
    def from_poly(cls, poly):
        return cls._wrap(poly.field, poly.ops, poly.raw, 0, True)

    @classmethod
    def monomial(cls, field, coeff, power):
        return cls(field, (coeff,), power)

    # -- knowledge bookkeeping --------------------------------------------

    @property
    def lead(self):
        """Degree of the leading listed digit; floor - 1 if none is listed."""
        if self.raw:
            return self.floor + self.ops.deg(self.raw)
        return self.floor - 1

    @property
    def coeffs(self):
        """Read-only view: raw field ints for degrees lead, ..., floor."""
        return tuple(reversed(self.ops.to_coeffs(self.raw)))

    @property
    def known_floor(self):
        """Lowest degree with a known coefficient; NEG_INF when exact."""
        return NEG_INF if self.exact else self.floor

    def is_known_zero(self):
        return self.exact and not self.raw

    def is_ambiguous(self):
        return not self.exact and not self.raw

    def deg_upper(self):
        """An upper bound for the degree that is always available."""
        if self.raw:
            return self.lead
        return NEG_INF if self.exact else self.floor - 1

    def degree(self):
        """Exact degree; NEG_INF for known zero; raises on ambiguity."""
        if self.raw:
            return self.lead
        if self.exact:
            return NEG_INF
        raise AmbiguousZero(
            f"all digits zero down to floor {self.floor}; "
            "degree unresolved"
        )

    def deg_le(self, bound):
        """Decide deg(self) <= bound, or raise AmbiguousZero if unknowable."""
        if self.raw:
            return self.lead <= bound
        if self.exact:
            return True
        if self.floor - 1 <= bound:
            return True
        raise AmbiguousZero(
            f"degree known only to be < {self.floor}; "
            f"cannot compare with {bound}"
        )

    def coeff_at(self, d):
        """Raw coefficient of T**d; raises below the knowledge floor."""
        if d >= self.floor:
            return self.ops.coeff(self.raw, d - self.floor)
        if self.exact:
            return 0
        raise PrecisionExhausted(f"digit at degree {d} below floor")

    def _window(self, floor):
        """Listed digits at degrees >= floor, as a raw value over T**floor."""
        k = floor - self.floor
        if k >= 0:
            return self.ops.drop(self.raw, k)
        return self.ops.shift(self.raw, -k)

    # -- value surgery -----------------------------------------------------

    def known_part(self, floor):
        """Exact value made of the listed digits at degrees >= floor."""
        if self.exact and self.floor >= floor:
            return self
        floor = max(floor, self.floor)
        return Laurent._wrap(self.field, self.ops, self._window(floor), floor,
                             True)

    def forget_below(self, floor):
        """Same digits, weakened to unknown-below-floor."""
        if not self.exact and self.floor >= floor:
            return self
        return Laurent._wrap(self.field, self.ops, self._window(floor), floor,
                             False)

    def shift(self, k):
        """Multiply by T**k."""
        if self.is_known_zero():
            return self
        period = None
        if self.tail_period is not None:
            period = (self.tail_period[0] + k, self.tail_period[1])
        return Laurent._wrap(self.field, self.ops, self.raw, self.floor + k,
                             self.exact, period)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        if self.exact and other.exact:
            floor = min(self.floor, other.floor)
        elif self.exact:
            floor = other.floor
        elif other.exact:
            floor = self.floor
        else:
            floor = max(self.floor, other.floor)
        raw = self.ops.add(self._window(floor), other._window(floor))
        return Laurent._wrap(self.field, self.ops, raw, floor,
                             self.exact and other.exact)

    def __neg__(self):
        return Laurent._wrap(self.field, self.ops, self.ops.neg(self.raw),
                             self.floor, self.exact, self.tail_period)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = Laurent.from_poly(other)
        self._compat(other)
        if self.is_known_zero() or other.is_known_zero():
            return Laurent.zero(self.field)
        da, db = self.deg_upper(), other.deg_upper()
        # the product is unknown below the highest degree an unknown tail
        # can reach
        floor = None
        if not self.exact:
            floor = self.floor + db
        if not other.exact and (floor is None or other.floor + da > floor):
            floor = other.floor + da
        if not self.raw or not other.raw:
            # an ambiguous factor: only a degree bound survives
            return Laurent.unknown_below(self.field, floor)
        ops = self.ops
        raw = ops.mul(self.raw, other.raw)
        base = self.floor + other.floor
        if floor is None:
            return Laurent._wrap(self.field, ops, raw, base, True)
        return Laurent._wrap(self.field, ops, ops.drop(raw, floor - base),
                             floor, False)

    __rmul__ = __mul__

    def inverse(self, floor=None):
        """Multiplicative inverse, known down to an explicit floor.

        Inexact inputs determine their own output floor
        (floor - 2*lead); a requested floor below that is unattainable.
        Exact non-monomial inputs have an infinite expansion, so a target
        floor is required (default: the same relative precision rule).
        """
        if self.is_ambiguous():
            raise AmbiguousZero("cannot invert an unresolved value")
        if self.is_known_zero():
            raise DivisionByZero("inverse of zero series")
        ops, lead = self.ops, self.lead
        if self.exact and lead == self.floor:
            c = self.field.inv(ops.lc(self.raw))
            return Laurent._wrap(self.field, ops, ops.scalar_mul(ops.one, c),
                                 -lead, True)
        attainable = self.floor - 2 * lead
        if floor is None or (not self.exact and floor < attainable):
            floor = attainable
        if floor > -lead:
            return Laurent.unknown_below(self.field, floor)
        # 1/(A*T**f) = T**floor * T**N / A with N = -(floor + f): the
        # polynomial quotient of T**N by A holds the digits >= floor.
        # Finite Laurent sums are units only when they are monomials, so
        # a non-monomial inverse never closes up exactly.
        top = ops.shift(ops.one, -(floor + self.floor))
        quot, _ = ops.divmod(top, self.raw)
        return Laurent._wrap(self.field, ops, quot, floor, False)

    def poly_part(self):
        """Digits at degrees >= 0, as a Poly; needs the floor to reach 0."""
        if not self.exact and self.floor > 0:
            raise PrecisionExhausted(
                f"polynomial part needs digits down to 0, floor is {self.floor}"
            )
        if self.deg_upper() < 0:
            return Poly.zero(self.field)
        return Poly._wrap(self.field, self._window(0))

    def frac_part(self):
        """self minus its polynomial part (degrees <= -1 only)."""
        if self.deg_upper() < 0:
            return self
        if not self.exact and self.floor > 0:
            raise PrecisionExhausted("fractional part unresolved")
        ops, k = self.ops, max(-self.floor, 0)
        low = ops.sub(self.raw, ops.shift(ops.drop(self.raw, k), k))
        return Laurent._wrap(self.field, ops, low, self.floor, self.exact)

    # -- plumbing -----------------------------------------------------------

    def _compat(self, other):
        if not isinstance(other, Laurent) or other.field != self.field:
            raise TypeError("Laurent values over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Laurent)
            and self.field == other.field
            and self.exact == other.exact
            and self.raw == other.raw
            and self.floor == other.floor
        )

    def __hash__(self):
        return hash((self.field.q, self.exact, self.raw, self.floor))

    def __repr__(self):
        from .literals import format_laurent

        return format_laurent(self)

    def agrees_with(self, other, down_to):
        """Digit-for-digit agreement at degrees >= down_to."""
        known = max([down_to] + [x.floor for x in (self, other)
                                 if not x.exact])
        if self._window(known) != other._window(known):
            return False
        if known > down_to:
            raise PrecisionExhausted(
                f"digit at degree {known - 1} below floor")
        return True


def _fill(obj, field, ops, raw, floor, exact, tail_period):
    """Set a Laurent's slots, moving an exact value's floor to its lowest
    nonzero digit (0 for zero) so that equal values have equal slots."""
    if exact:
        if not raw:
            floor = 0
        else:
            v = ops.val(raw)
            if v:
                raw = ops.drop(raw, v)
                floor += v
    obj.field = field
    obj.ops = ops
    obj.raw = raw
    obj.floor = floor
    obj.exact = exact
    obj.tail_period = tail_period
    return obj


def laurent_from_rational(f, floor):
    """Expand num/den down to ``floor``; detects exact and periodic tails.

    The digits above degree 0 come from one polynomial division; below 0
    the expansion runs the classical remainder recurrence whose state
    space is finite, so a repeated state proves the tail periodic and is
    recorded as ``tail_period = (first_degree_of_cycle, period_length)``.
    """
    if isinstance(f, Poly):
        f = RatFn(f)
    if f.den.is_zero():
        raise DivisionByZero("expansion of P/0")
    field = f.field
    if f.num.is_zero():
        return Laurent.zero(field)
    lead = f.num.deg - f.den.deg
    if floor > lead:
        raise ValueError("floor above the leading degree")
    ops = ops_for(field)
    num, den = f.num.raw, f.den.raw
    dd = f.den.deg
    quot, rem = ops.divmod(num, den)
    qlist = ops.to_coeffs(quot)
    digits = {}
    for j, c in enumerate(qlist):
        if c:
            digits[j] = c
    state = rem
    tail_period = None
    seen = {}
    d = -1
    flc_inv = field.inv(f.den.lc())
    while d >= floor and state:
        if tail_period is None:
            if state in seen:
                tail_period = (seen[state], seen[state] - d)
            else:
                seen[state] = d
        c = 0
        if ops.deg(state) == dd - 1:
            c = field.mul(ops.lc(state), flc_inv)
        if c:
            digits[d] = c
        state = ops.addmul(ops.shift(state, 1), den, field.neg(c), 0)
        d -= 1
    exact = not state
    vals = [digits.get(k, 0) for k in range(lead, floor - 1, -1)]
    return Laurent(field, vals, lead, exact=exact, floor=floor,
                   tail_period=tail_period)


class LaurentVec:
    """Fixed-length vector of Laurent values with the sup-norm degree."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("empty vector")
        f = self.entries[0].field
        if any(e.field != f for e in self.entries):
            raise ValueError("mixed fields in vector")

    @property
    def field(self):
        return self.entries[0].field

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, LaurentVec) and self.entries == other.entries

    def __repr__(self):
        return f"({', '.join(map(repr, self.entries))})"


class LaurentMat:
    """Rectangular matrix of Laurent values (rows of LaurentVec)."""

    __slots__ = ("rows", "m", "n")

    def __init__(self, rows):
        self.rows = tuple(LaurentVec(r) if not isinstance(r, LaurentVec)
                          else r for r in rows)
        self.m = len(self.rows)
        if self.m == 0:
            raise ValueError("empty matrix")
        self.n = len(self.rows[0])
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged matrix")

    @property
    def field(self):
        return self.rows[0].field

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return LaurentMat(
            [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)]
        )

    def __eq__(self, other):
        return isinstance(other, LaurentMat) and self.rows == other.rows

    def __repr__(self):
        return "[" + "; ".join(repr(r) for r in self.rows) + "]"


def sup_norm(v):
    """Sup-norm degree of a vector: max entry degree; raises on ambiguity."""
    entries = v.entries if isinstance(v, LaurentVec) else tuple(v)
    best = NEG_INF
    for e in entries:
        d = e.degree()
        if best is NEG_INF or (d is not NEG_INF and d > best):
            best = d
    return best
