"""Polynomials over F_q (the ring of integers of F_q((1/T))) and F_q(T).

Every digit sequence in the package -- a Poly, the listed digits of a
Laurent value, a lattice entry -- is one *raw* value, on which all
inner loops run:

* q = 2:  an int bitmask, bit i = coefficient of T**i.  Row operations
  in lattice reduction become single shift-xor ops.
* otherwise: a little-endian tuple of raw field elements whose last
  entry is nonzero, with tuple ops dispatched through the FieldSpec lookup
  tables.

The adapter object (`ops_for(field)`) exposes the same method set for
both representations so that Poly, Laurent and the lattice code never
branch on q.
"""

from __future__ import annotations

from ..errors import DivisionByZero
from .degree import NEG_INF
from .field import FqElem


class BitPolyOps:
    """Raw polynomial arithmetic over F_2; values are int bitmasks."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    zero = 0
    one = 1

    def from_coeffs(self, coeffs):
        v = 0
        for i, c in enumerate(coeffs):
            if c & 1:
                v |= 1 << i
        return v

    def to_coeffs(self, a):
        if a == 0:
            return ()
        return tuple((a >> i) & 1 for i in range(a.bit_length()))

    @staticmethod
    def deg(a):
        return a.bit_length() - 1 if a else NEG_INF

    @staticmethod
    def lc(a):
        return 1 if a else 0

    @staticmethod
    def coeff(a, i):
        return (a >> i) & 1 if 0 <= i else 0

    @staticmethod
    def add(a, b):
        return a ^ b

    sub = add

    @staticmethod
    def neg(a):
        return a

    @staticmethod
    def scalar_mul(a, c):
        return a if c & 1 else 0

    @staticmethod
    def shift(a, k):
        return a << k

    @staticmethod
    def drop(a, k):
        """a // T**k: the k lowest digits dropped."""
        return a >> k

    @staticmethod
    def val(a):
        """Index of the lowest nonzero digit of a nonzero a."""
        return (a & -a).bit_length() - 1

    @staticmethod
    def addmul(a, b, c, k):
        """a + c * T**k * b."""
        return a ^ (b << k) if c & 1 else a

    @staticmethod
    def mul(a, b):
        if not a or not b:
            return 0
        if a.bit_count() > b.bit_count():
            a, b = b, a
        acc = 0
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return acc

    def divmod(self, a, b):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        db = b.bit_length() - 1
        q = 0
        while a.bit_length() - 1 >= db and a:
            k = a.bit_length() - 1 - db
            q |= 1 << k
            a ^= b << k
        return q, a


class TuplePolyOps:
    """Raw polynomial arithmetic over any F_q; values are coeff tuples.

    Tuples are little-endian over raw field ints with a nonzero last
    entry (the empty tuple is zero).  Prime fields with moderate degree
    use a packed-integer convolution so that multiplication rides on
    Python's bigint multiply.
    """

    __slots__ = ("field", "_packed_mul_ok")

    zero = ()
    one = (1,)

    def __init__(self, field):
        self.field = field
        self._packed_mul_ok = field.r == 1

    def from_coeffs(self, coeffs):
        out = list(coeffs)
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    @staticmethod
    def to_coeffs(a):
        return a

    @staticmethod
    def deg(a):
        return len(a) - 1 if a else NEG_INF

    @staticmethod
    def lc(a):
        return a[-1] if a else 0

    @staticmethod
    def coeff(a, i):
        return a[i] if 0 <= i < len(a) else 0

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add = self.field._add
        out = [add[x][y] for x, y in zip(a, b)]
        if len(a) > len(b):
            return tuple(out) + a[len(b):]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        neg = self.field._neg
        return tuple(neg[c] for c in a)

    def scalar_mul(self, a, c):
        if not c:
            return ()
        if c == 1:
            return a
        row = self.field._mul[c]
        return tuple(row[x] for x in a)

    @staticmethod
    def shift(a, k):
        if not a:
            return ()
        return (0,) * k + a

    @staticmethod
    def drop(a, k):
        """a // T**k: the k lowest digits dropped."""
        return a[k:]

    @staticmethod
    def val(a):
        """Index of the lowest nonzero digit of a nonzero a."""
        i = 0
        while not a[i]:
            i += 1
        return i

    def addmul(self, a, b, c, k):
        """a + c * T**k * b."""
        if not c or not b:
            return a
        add = self.field._add
        n = len(b) + k
        out = list(a)
        if len(out) < n:
            out.extend([0] * (n - len(out)))
        if c == 1:
            out[k:n] = [add[x][y] for x, y in zip(out[k:n], b)]
        else:
            row = self.field._mul[c]
            out[k:n] = [add[x][row[y]] for x, y in zip(out[k:n], b)]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def mul(self, a, b):
        if not a or not b:
            return ()
        if self._packed_mul_ok:
            return self._mul_packed(a, b)
        # one table row per digit of a, one comprehension per row
        add, mul = self.field._add, self.field._mul
        lb = len(b)
        out = [0] * (len(a) + lb - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                out[i:i + lb] = [add[o][row[y]]
                                 for o, y in zip(out[i:i + lb], b)]
        return tuple(out)

    def _mul_packed(self, a, b):
        # pack coefficients into wide limbs; one bigint multiply does the
        # whole convolution without wraparound
        p = self.field.p
        width = (min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length()
        ia = 0
        for c in reversed(a):
            ia = (ia << width) | c
        ib = 0
        for c in reversed(b):
            ib = (ib << width) | c
        prod = ia * ib
        mask = (1 << width) - 1
        out = []
        for _ in range(len(a) + len(b) - 1):
            out.append((prod & mask) % p)
            prod >>= width
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def divmod(self, a, b):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        # rows of the field tables stand in for calls to field.add/mul
        add, mul, neg = self.field._add, self.field._mul, self.field._neg
        inv_lead = self.field.inv(b[-1])
        rem = list(a)
        db = len(b) - 1
        low = b[:-1]
        quot = [0] * max(len(a) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = mul[rem[k]][inv_lead]
            if c:
                quot[k - db] = c
                row = mul[neg[c]]
                rem[k - db:k] = [add[r][row[x]]
                                 for r, x in zip(rem[k - db:k], low)]
        rem = rem[:db]  # every digit from db up has been cancelled
        while rem and not rem[-1]:
            rem.pop()
        return tuple(quot), tuple(rem)


_OPS_CACHE = {}


def ops_for(field):
    """Shared raw-ops adapter for a field (bitmask path for F_2)."""
    key = (field.q, field.modulus)
    if key not in _OPS_CACHE:
        if field.q == 2:
            _OPS_CACHE[key] = BitPolyOps(field)
        else:
            _OPS_CACHE[key] = TuplePolyOps(field)
    return _OPS_CACHE[key]


class Poly:
    """Element of F_q[T]; immutable, with deg(0) = NEG_INF."""

    __slots__ = ("field", "raw", "ops")

    def __init__(self, field, coeffs=()):
        """Build from an iterable of coefficients, lowest degree first.

        Coefficients may be raw ints, FqElem, or (for prime fields)
        arbitrary ints reduced mod p.
        """
        self.field = field
        self.ops = ops_for(field)
        vals = []
        for c in coeffs:
            if isinstance(c, FqElem):
                if c.owner != field:
                    raise ValueError("coefficient from a different field")
                vals.append(c.value)
            elif field.r == 1:
                vals.append(c % field.p)
            else:
                if not 0 <= c < field.q:
                    raise ValueError("raw coefficient out of range")
                vals.append(c)
        self.raw = self.ops.from_coeffs(vals)

    @classmethod
    def _wrap(cls, field, raw):
        obj = object.__new__(cls)
        obj.field = field
        obj.ops = ops_for(field)
        obj.raw = raw
        return obj

    @classmethod
    def zero(cls, field):
        return cls._wrap(field, ops_for(field).zero)

    @classmethod
    def one(cls, field):
        return cls._wrap(field, ops_for(field).one)

    @classmethod
    def T(cls, field, power=1):
        """The monomial T**power."""
        return cls._wrap(field, ops_for(field).from_coeffs(
            [0] * power + [1]))

    @classmethod
    def monomial(cls, field, coeff, power):
        return cls._wrap(field, ops_for(field).from_coeffs(
            [0] * power + [coeff]))

    @property
    def deg(self):
        return self.ops.deg(self.raw)

    @property
    def coeffs(self):
        """Coefficients as FqElem, lowest degree first; () for zero."""
        return tuple(FqElem(self.field, c)
                     for c in self.ops.to_coeffs(self.raw))

    def coeff(self, i):
        return self.ops.coeff(self.raw, i)

    def lc(self):
        """Leading coefficient as a raw field int (0 for the zero poly)."""
        return self.ops.lc(self.raw)

    def is_zero(self):
        return not self.raw

    def monic(self):
        lead = self.ops.lc(self.raw)
        if lead in (0, 1):
            return self
        return Poly._wrap(
            self.field,
            self.ops.scalar_mul(self.raw, self.field.inv(lead)),
        )

    def __add__(self, other):
        self._compat(other)
        return Poly._wrap(self.field, self.ops.add(self.raw, other.raw))

    def __sub__(self, other):
        self._compat(other)
        return Poly._wrap(self.field, self.ops.sub(self.raw, other.raw))

    def __neg__(self):
        return Poly._wrap(self.field, self.ops.neg(self.raw))

    def __mul__(self, other):
        self._compat(other)
        return Poly._wrap(self.field, self.ops.mul(self.raw, other.raw))

    def scaled(self, c):
        """Multiply by a raw field scalar."""
        return Poly._wrap(self.field, self.ops.scalar_mul(self.raw, c))

    def shifted(self, k):
        """Multiply by T**k, k >= 0."""
        return Poly._wrap(self.field, self.ops.shift(self.raw, k))

    def __divmod__(self, other):
        self._compat(other)
        q, r = self.ops.divmod(self.raw, other.raw)
        return Poly._wrap(self.field, q), Poly._wrap(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def _compat(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise TypeError("polynomials over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field.q, self.field.modulus, self.raw))

    def __bool__(self):
        return bool(self.raw)

    def __repr__(self):
        from .literals import format_poly

        return format_poly(self)


def poly_divmod(a, b):
    """Division with remainder: a = b*quot + rem, deg rem < deg b."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    return divmod(a, b)


def poly_gcd(a, b):
    """Monic gcd in F_q[T]."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFn:
    """Element of F_q(T) in canonical form: monic denominator, reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.deg > 0:
            num, den = num // g, den // g
        lead = den.lc()
        if lead != 1:
            inv = den.field.inv(lead)
            num, den = num.scaled(inv), den.scaled(inv)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @property
    def deg(self):
        """deg num - deg den; log of the absolute value."""
        if self.num.is_zero():
            return NEG_INF
        return self.num.deg - self.den.deg

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return RatFn(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other):
        return RatFn(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

    def __mul__(self, other):
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RatFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Poly.one(self.field):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
