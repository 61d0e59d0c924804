"""Finite fields F_q, q = p**r, with constant-time element arithmetic.

An element is one int everywhere in the package: the raw value
c0 + c1*p + ... + c_{r-1}*p**(r-1), where (c0, ..., c_{r-1}) are its
coordinates in the basis 1, u, ..., u**(r-1) and u is a root of the
modulus.  For prime fields this is just the residue.  Polynomial and
series code works on these ints through the FieldSpec methods and
tables, which are lookups (q is at most 512).

FieldSpec checks primality of p and irreducibility of the modulus at
construction (trial division by every monic polynomial of degree at most
r/2 over F_p).  Built-in moduli cover q in {2, 3, 4, 5, 8, 9}.
"""

from __future__ import annotations

from ..errors import DivisionByZero

# x**2+x+1 over F_2, x**3+x+1 over F_2, x**2+1 over F_3, as low-to-high coeffs
_BUILTIN_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

_TABLE_LIMIT = 512  # largest q; arithmetic runs on full q-by-q tables


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _fp_poly_mulmod(a, b, modulus, p):
    """(a*b) mod modulus over F_p; polys are low-to-high coeff tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    deg_m = len(modulus) - 1
    for k in range(len(out) - 1, deg_m - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(deg_m):
                out[k - deg_m + j] = (out[k - deg_m + j] - c * modulus[j]) % p
    return tuple(out[:deg_m])


def _fp_poly_divmod(a, b, p):
    """Long division over F_p on low-to-high coeff lists."""
    a = list(a)
    deg_b = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        deg_b -= 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(len(a) - deg_b, 0)
    for k in range(len(a) - 1, deg_b - 1, -1):
        c = (a[k] * inv_lead) % p
        if c:
            quot[k - deg_b] = c
            for j in range(deg_b + 1):
                a[k - deg_b + j] = (a[k - deg_b + j] - c * b[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return quot, a


def _modulus_is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree <= r/2."""
    r = len(modulus) - 1
    for d in range(1, r // 2 + 1):
        # enumerate monic degree-d polynomials: p**d candidates
        for idx in range(p**d):
            cand = []
            v = idx
            for _ in range(d):
                cand.append(v % p)
                v //= p
            cand.append(1)
            _, rem = _fp_poly_divmod(modulus, cand, p)
            if not rem:
                return False
    return True


class FieldSpec:
    """Description of F_q together with raw-int arithmetic on its elements.

    Attributes:
        p: characteristic (prime).
        r: extension degree over F_p.
        q: p**r.
        modulus: monic irreducible of degree r over F_p as a low-to-high
            coefficient tuple; () for prime fields.
    """

    __slots__ = (
        "p", "r", "q", "modulus",
        "_add", "_sub", "_mul", "_neg", "_inv",
    )

    _cache = {}

    def __init__(self, p, r=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**r
        _check_size(q)
        if r == 1:
            modulus = ()
        else:
            if modulus is None:
                if q not in _BUILTIN_MODULI:
                    raise ValueError(
                        f"no built-in modulus for q = {q}; supply one"
                    )
                modulus = _BUILTIN_MODULI[q]
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            if not _modulus_is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over F_p")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus
        self._build_tables()

    @classmethod
    def get(cls, q, modulus=None):
        """Shared FieldSpec for q = p**r (factored automatically)."""
        key = (q, modulus)
        if key not in cls._cache:
            _check_size(q)  # before factoring, which is slow for a huge q
            p, r = _factor_prime_power(q)
            cls._cache[key] = cls(p, r, modulus)
        return cls._cache[key]

    # -- raw arithmetic ------------------------------------------------

    def _coords(self, a):
        v, out = a, []
        for _ in range(self.r):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _pack(self, coords):
        v = 0
        for c in reversed(coords):
            v = v * self.p + (c % self.p)
        return v

    def _build_tables(self):
        p, q = self.p, self.q
        if self.r == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._sub = [[(a - b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg = [(-a) % p for a in range(p)]
            self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]
            return
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self._coords(a)
            for b in range(q):
                cb = self._coords(b)
                add[a][b] = self._pack(
                    tuple((x + y) % p for x, y in zip(ca, cb))
                )
                mul[a][b] = self._pack(
                    _fp_poly_mulmod(ca, cb, self.modulus, p)
                )
        self._add = add
        self._mul = mul
        self._neg = [self._pack(tuple((-c) % p for c in self._coords(a)))
                     for a in range(q)]
        self._sub = [[add[a][self._neg[b]] for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            # Fermat: a**(q-2) inverts a
            acc, base, e = 1, a, q - 2
            while e:
                if e & 1:
                    acc = mul[acc][base]
                base = mul[base][base]
                e >>= 1
            inv[a] = acc
        self._inv = inv

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_q")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"FieldSpec(F_{self.q})"
        return f"FieldSpec(F_{self.q}, modulus={self.modulus})"


def _check_size(q):
    if q > _TABLE_LIMIT:
        raise ValueError(
            f"q = {q} is above the supported limit {_TABLE_LIMIT}")


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            r = 0
            v = q
            while v > 1:
                if v % p:
                    raise ValueError(f"q = {q} is not a prime power")
                v //= p
                r += 1
            return p, r
    raise ValueError(f"q = {q} is not a prime power")
