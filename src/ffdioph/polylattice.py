"""Exact lattice algorithms for F_q[T]-submodules of F_q((1/T))**k.

A module is given by the rows of a square polynomial matrix, possibly
with per-column powers of T factored out so that Laurent data can be
cleared into polynomials.  Reduction to shifted weak Popov form (rows
with pairwise distinct leading positions under per-column integer
shifts) makes the basis orthogonal in the sup-degree norm: the shifted
degree of any combination equals the max of coefficient degree plus row
degree.  Successive minima and shortest vectors then read off exactly,
and a closest vector is one division of the target by the reduced
basis: the target's leading term is cancelled against the row owning
its pivot column until no row's degree fits under it
(``_reduce_target``).

The inner elimination loop runs on raw coefficient representations (int
bitmasks over F_2, tuples elsewhere); see algebra.poly.  Module bases
are read from and written to matrix files by formats.parse_matrix_text
and formats.write_matrix_file.
"""

from __future__ import annotations

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentVec
from .algebra.poly import Poly, ops_for
from .errors import PrecisionExhausted, RankDeficient


class Shift:
    """Per-column integer weights entering every degree comparison."""

    __slots__ = ("s",)

    def __init__(self, s):
        self.s = tuple(int(x) for x in s)

    def __len__(self):
        return len(self.s)

    def __getitem__(self, i):
        return self.s[i]

    def __iter__(self):
        return iter(self.s)

    def __eq__(self, other):
        return isinstance(other, Shift) and self.s == other.s

    def __repr__(self):
        return f"Shift{self.s}"

    @classmethod
    def zero(cls, k):
        return cls((0,) * k)


class PolyMat:
    """Square matrix over F_q[T] whose rows span the module.

    ``col_scale[j]`` records the power of T factored out of column j, so
    the entry's true degree is deg(poly) + col_scale[j].  This admits
    Laurent inputs: clear each column by its lowest known degree.
    """

    __slots__ = ("field", "rows", "k", "col_scale")

    def __init__(self, rows, col_scale=None):
        self.rows = tuple(tuple(r) for r in rows)
        self.k = len(self.rows)
        if self.k == 0 or any(len(r) != self.k for r in self.rows):
            raise ValueError("matrix must be square and nonempty")
        self.field = self.rows[0][0].field
        self.col_scale = (tuple(col_scale) if col_scale is not None
                          else (0,) * self.k)
        if len(self.col_scale) != self.k:
            raise ValueError("col_scale length mismatch")

    def raw_rows(self):
        return [[e.raw for e in row] for row in self.rows]

    @classmethod
    def from_raw(cls, field, raw_rows, col_scale=None):
        rows = [[Poly._wrap(field, e) for e in row] for row in raw_rows]
        return cls(rows, col_scale)

    @classmethod
    def identity(cls, field, k):
        one, zero = Poly.one(field), Poly.zero(field)
        return cls([[one if i == j else zero for j in range(k)]
                    for i in range(k)])

    def entry_laurent(self, i, j):
        """True (unscaled) value of entry (i, j) as an exact Laurent."""
        return Laurent.from_poly(self.rows[i][j]).shift(self.col_scale[j])

    def __eq__(self, other):
        return (isinstance(other, PolyMat) and self.rows == other.rows
                and self.col_scale == other.col_scale)

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.rows
        )
        return f"PolyMat[{body}]"


class ReducedBasis:
    """Weak Popov output: R = U * M with distinct pivots.

    pivots[i] = (column index, shifted row degree) for row i, degrees
    taken with the effective shift (user shift + column scaling).
    """

    __slots__ = ("matrix", "transform", "pivots", "shift")

    def __init__(self, matrix, transform, pivots, shift):
        self.matrix = matrix
        self.transform = transform
        self.pivots = tuple(pivots)
        self.shift = shift

    @property
    def field(self):
        return self.matrix.field


def _row_pivot(ops, row, seff):
    """Rightmost column attaining the shifted row degree."""
    deg = ops.deg
    best = None
    bestj = -1
    for j, e in enumerate(row):
        if e:
            d = deg(e) + seff[j]
            if best is None or d >= best:
                best = d
                bestj = j
    return bestj, best


def _reduce_raw(ops, field, rows, seff, u_rows=None, stop_degree=None):
    """Mulders-Storjohann elimination in place; returns pivot table.

    When ``stop_degree`` is given, returns early with the index of the
    first row whose shifted degree drops to that level or below (the
    basis is then not fully reduced); returns (pivots, hit_index).
    """
    k = len(rows)
    addmul = ops.addmul
    lc = ops.lc
    deg = ops.deg
    neg = field.neg
    div = field.div
    pivots = [None] * k
    for i in range(k):
        j, d = _row_pivot(ops, rows[i], seff)
        if j < 0:
            raise RankDeficient(f"zero row {i}")
        pivots[i] = (j, d)
        if stop_degree is not None and d <= stop_degree:
            return pivots, i
    by_col = {}
    pending = list(range(k - 1, -1, -1))
    while pending:
        i = pending.pop()
        col, d = pivots[i]
        other = by_col.get(col)
        if other is None:
            by_col[col] = i
            continue
        oc, od = pivots[other]
        # reduce the row of larger degree; on ties keep the lower index
        if od > d or (od == d and other > i):
            keep, red = i, other
            by_col[col] = i
        else:
            keep, red = other, i
        kd, rd = pivots[keep][1], pivots[red][1]
        delta = rd - kd
        c = div(lc(rows[red][col]), lc(rows[keep][col]))
        c = neg(c)
        krow, rrow = rows[keep], rows[red]
        for j in range(k):
            if krow[j]:
                rrow[j] = addmul(rrow[j], krow[j], c, delta)
        if u_rows is not None:
            ku, ru = u_rows[keep], u_rows[red]
            for j in range(k):
                if ku[j]:
                    ru[j] = addmul(ru[j], ku[j], c, delta)
        j2, d2 = _row_pivot(ops, rows[red], seff)
        if j2 < 0:
            raise RankDeficient("matrix is rank deficient")
        pivots[red] = (j2, d2)
        if stop_degree is not None and d2 <= stop_degree:
            return pivots, red
        pending.append(red)
    return pivots, None


def _reduce_target(ops, field, rows, pivots, seff, r, stop_degree=None,
                   coeffs=None):
    """Divide the raw target r by an s-reduced basis in place.

    Each step takes r's pivot column j at shifted degree D and, when D
    is at least the degree d of the row owning column j, cancels r's
    leading term there with c*T**(D-d) times that row.  Returns the
    shifted degree of the remainder (NEG_INF when it is zero), stopping
    early once it is at most ``stop_degree``.  The quotient terms are
    added into ``coeffs`` when given.

    A remainder that cannot be divided further (D < d) is a closest-
    vector residual: any module vector of shifted degree D has its pivot
    p != j (the owner of j would need degree >= d > D), so r - v keeps
    degree D in column max(p, j).
    """
    owner = [None] * len(rows)
    for i, (j, d) in enumerate(pivots):
        owner[j] = (i, d)
    addmul = ops.addmul
    lc = ops.lc
    neg = field.neg
    div = field.div
    while True:
        j, D = _row_pivot(ops, r, seff)
        if j < 0:
            return NEG_INF
        if stop_degree is not None and D <= stop_degree:
            return D
        i, d = owner[j]
        if D < d:
            return D
        row = rows[i]
        c = div(lc(r[j]), lc(row[j]))
        delta = D - d
        nc = neg(c)
        for col, e in enumerate(row):
            if e:
                r[col] = addmul(r[col], e, nc, delta)
        if coeffs is not None:
            coeffs[i] = addmul(coeffs[i], ops.one, c, delta)


def weak_popov(M, s=None):
    """Reduce M to s-shifted weak Popov form; returns the ReducedBasis."""
    if s is None:
        s = Shift.zero(M.k)
    if not isinstance(s, Shift):
        s = Shift(s)
    if len(s) != M.k:
        raise ValueError("shift length mismatch")
    ops = ops_for(M.field)
    seff = tuple(s[j] + M.col_scale[j] for j in range(M.k))
    rows = M.raw_rows()
    u_rows = [[ops.one if i == j else ops.zero for j in range(M.k)]
              for i in range(M.k)]
    pivots, _ = _reduce_raw(ops, M.field, rows, seff, u_rows)
    R = PolyMat.from_raw(M.field, rows, M.col_scale)
    U = PolyMat.from_raw(M.field, u_rows)
    return ReducedBasis(R, U, pivots, s)


def successive_minima(rb):
    """Sorted shifted row degrees = successive minima of the module."""
    return sorted(d for _, d in rb.pivots)


def shortest_vector(rb):
    """Row of minimal shifted degree (ties broken by lowest row index)."""
    best_i = 0
    for i in range(1, len(rb.pivots)):
        if rb.pivots[i][1] < rb.pivots[best_i][1]:
            best_i = i
    return rb.matrix.rows[best_i], rb.pivots[best_i][1], best_i


def _absorbs_top(ops, field, rows, pivots, seff, rem, cleared, level):
    """Could unknown digits at shifted degree ``level`` cancel the top of rem?

    The top digits of rem - m, for m in the module with shifted degree
    <= level, are top(rem) minus a combination of the rows' top digits
    (rows of degree <= level only).  A completion of the unknown digits
    brings the distance below ``level`` exactly when such a difference
    is supported on unknown positions, i.e. when top(rem) lies in the
    span of the row tops once those positions are dropped.
    """
    keep = [j for j, (x, s) in enumerate(zip(cleared, seff))
            if x.exact or x.floor - 1 + s != level]

    def top(vec, d):
        return [ops.coeff(vec[j], d - seff[j]) for j in keep]

    basis = []  # (pivot, vector scaled to 1 at its pivot)

    def reduce(v):
        for p, b in basis:
            c = v[p]
            if c:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
        return v

    for i, (_, d) in enumerate(pivots):
        if d <= level:
            v = reduce(top(rows[i], d))
            p = next((j for j, x in enumerate(v) if x), None)
            if p is not None:
                inv = field.inv(v[p])
                basis.append((p, [field.mul(inv, x) for x in v]))
    return not any(reduce(top(rem, level)))


def closest_vector(rb, w):
    """A nearest module vector to w in the shifted sup-degree norm.

    Returns (v, shifted distance, coefficients of v in the reduced
    basis).  In cleared coordinates the known digits of w at degrees
    >= 0 (unknown digits read as 0) form a polynomial target P, which is
    divided to completion by the reduced basis: v = P minus the
    remainder, a closest vector to P.  The module is polynomial, so the
    fractional digits of w only add a fixed term: the distance is the
    max of the remainder's degree and the fractional digits' degree.

    Raises PrecisionExhausted when unknown digits could change it:
    unknown fractional digits must stay at or below the distance, and
    unknown digits at degrees >= 0, which another module vector might
    absorb, must stay at or below the known fractional degree (which
    then settles the distance), or else below the remainder's degree,
    or level with it but unable to cancel its top digits
    (``_absorbs_top``).
    """
    R = rb.matrix
    k = R.k
    entries = w.entries if isinstance(w, LaurentVec) else tuple(w)
    if len(entries) != k:
        raise ValueError("target length mismatch")
    field = R.field
    ops = ops_for(field)
    cs = R.col_scale
    seff = tuple(rb.shift[j] + cs[j] for j in range(k))
    cleared = [entries[j].shift(-cs[j]) for j in range(k)]
    target = [x.known_part(0).poly_part().raw for x in cleared]
    rows = R.raw_rows()
    rem = list(target)
    coeffs = [ops.zero] * k
    poly_dist = _reduce_target(ops, field, rows, rb.pivots, seff, rem,
                               coeffs=coeffs)
    # frac: degree of the known fractional digits; hidden_poly and
    # hidden_frac: bounds on the unknown digits at degrees >= 0 and < 0
    frac = hidden_poly = hidden_frac = NEG_INF
    for x, s in zip(cleared, seff):
        if x.floor < 0:
            f = x.frac_part()
            if f.raw:
                frac = max(frac, f.lead + s)
        if not x.exact:
            if x.floor > 0:
                hidden_poly = max(hidden_poly, x.floor - 1 + s)
                hidden_frac = max(hidden_frac, s - 1)
            else:
                hidden_frac = max(hidden_frac, x.floor - 1 + s)
    dist = max(poly_dist, frac)
    if dist < hidden_frac or (
            frac < hidden_poly
            and (poly_dist < hidden_poly
                 or (poly_dist == hidden_poly
                     and _absorbs_top(ops, field, rows, rb.pivots, seff,
                                      rem, cleared, poly_dist)))):
        raise PrecisionExhausted(
            "unknown digits of the target hide the closest-vector distance"
        )
    v = tuple(
        Laurent.from_poly(Poly._wrap(field, ops.sub(target[j], rem[j])))
        .shift(cs[j])
        for j in range(k)
    )
    return v, dist, tuple(Poly._wrap(field, c) for c in coeffs)
