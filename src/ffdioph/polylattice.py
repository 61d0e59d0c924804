"""Exact lattice algorithms for F_q[T]-submodules of F_q((1/T))**k.

A module is given by the rows of a square polynomial matrix, possibly
with per-column powers of T factored out so that Laurent data can be
cleared into polynomials.  Reduction to shifted weak Popov form (rows
with pairwise distinct leading positions under per-column integer
shifts) makes the basis orthogonal in the sup-degree norm: the shifted
degree of any combination equals the max of coefficient degree plus row
degree.  Successive minima, shortest vectors, and closest vectors
(non-archimedean Babai rounding) then read off exactly.

The inner elimination loop runs on raw coefficient representations (int
bitmasks over F_2, tuples elsewhere); see algebra.poly.
"""

from __future__ import annotations

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentVec
from .algebra.literals import format_laurent, parse_laurent
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

    __slots__ = ("matrix", "transform", "pivots", "shift", "source")

    def __init__(self, matrix, transform, pivots, shift, source):
        self.matrix = matrix
        self.transform = transform
        self.pivots = tuple(pivots)
        self.shift = shift
        self.source = source

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
    return ReducedBasis(R, U, pivots, s, M)


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


def _adjugate_apply(ops, field, raw, w_entries):
    """(w * adj(raw), det raw) with Laplace expansion and memoised minors."""
    k = len(raw)
    full_mask = (1 << k) - 1

    def det_excluding(skip_row):
        rows_idx = [r for r in range(k) if r != skip_row]
        memo = {}

        def D(ri, mask):
            if ri == len(rows_idx):
                return ops.one
            key = (ri, mask)
            if key in memo:
                return memo[key]
            row = raw[rows_idx[ri]]
            acc = ops.zero
            parity = 0
            m = mask
            while m:
                low = m & -m
                j = low.bit_length() - 1
                e = row[j]
                if e:
                    sub = D(ri + 1, mask ^ low)
                    if sub:
                        term = ops.mul(e, sub)
                        if parity & 1:
                            term = ops.neg(term)
                        acc = ops.add(acc, term)
                parity += 1
                m ^= low
            memo[key] = acc
            return acc

        return D

    # x_i = sum_j w_j * cofactor(i, j), cofactor from the row-i-deleted minor
    out = []
    for i in range(k):
        D = det_excluding(i)
        acc = None
        for j in range(k):
            if w_entries[j].is_known_zero():
                continue
            minor = D(0, full_mask ^ (1 << j))
            if not minor:
                continue
            term = w_entries[j] * Poly._wrap(field, minor)
            if (i + j) & 1:
                term = -term
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None
                   else Laurent.zero(w_entries[0].field))
    # determinant: expand the full matrix
    Dfull = det_excluding(-1)
    det = Dfull(0, full_mask)
    return out, det


def shifted_sup_degree(entries, shifts):
    """Sup of deg(entry)+shift; raises when ambiguity hides the answer."""
    known = NEG_INF
    bounds = []
    for e, s in zip(entries, shifts):
        if e.raw:
            d = e.lead + s
            if known is NEG_INF or d > known:
                known = d
        elif not e.exact:
            bounds.append(e.floor - 1 + s)
    for b in bounds:
        if known is NEG_INF or b > known:
            raise PrecisionExhausted(
                "sup degree hidden below a precision floor"
            )
    return known


def closest_vector(rb, w):
    """Nearest module vector to w in the shifted sup-degree norm.

    Babai rounding against the reduced basis: solve x = w * R**(-1)
    over the Laurent field, round each coordinate to its polynomial
    part, and return (lattice vector, residual shifted degree).  With a
    weak Popov basis the rounding is exactly optimal: any change of a
    coefficient raises its fractional degree from below 0 to at least 0,
    and the orthogonality of the basis turns that into a no-smaller
    residual.
    """
    R = rb.matrix
    k = R.k
    entries = w.entries if isinstance(w, LaurentVec) else tuple(w)
    if len(entries) != k:
        raise ValueError("target length mismatch")
    ops = ops_for(R.field)
    # into cleared coordinates
    wc = [entries[j].shift(-R.col_scale[j]) for j in range(k)]
    raw = [[e.raw for e in row] for row in R.rows]
    nums, det = _adjugate_apply(ops, R.field, raw, wc)
    if not det:
        raise RankDeficient("reduced basis with zero determinant")
    det_poly = Poly._wrap(R.field, det)
    coeffs = []
    for x in nums:
        if x.is_known_zero():
            coeffs.append(Poly.zero(R.field))
            continue
        if x.exact:
            # clear the monomial denominator; quotient = polynomial part
            sh = -x.floor if x.floor < 0 else 0
            a = x.shift(sh).poly_part()
            q, _ = divmod(a, det_poly.shifted(sh))
            coeffs.append(q)
            continue
        quot = x.divide(Laurent.from_poly(det_poly),
                        floor=-(max(0, x.lead) + 2))
        try:
            coeffs.append(quot.poly_part())
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(
                "target floors too shallow for Babai rounding"
            ) from exc
    # v = c * R in true coordinates
    v = []
    for j in range(k):
        acc = ops.zero
        for i in range(k):
            if coeffs[i].raw and raw[i][j]:
                acc = ops.add(acc, ops.mul(coeffs[i].raw, raw[i][j]))
        v.append(Laurent.from_poly(Poly._wrap(R.field, acc))
                 .shift(R.col_scale[j]))
    residual = [entries[j] - v[j] for j in range(k)]
    dist = shifted_sup_degree(residual, rb.shift)
    return tuple(v), dist, tuple(coeffs)


# -- matrix file format -----------------------------------------------------


def write_matrix_file(path, M, s):
    """Line format: header `q= rows= cols= shift=`; entries ' | ' separated."""
    lines = [
        f"q={M.field.q} rows={M.k} cols={M.k} "
        f"shift={','.join(str(x) for x in s)}"
    ]
    for i in range(M.k):
        cells = [format_laurent(M.entry_laurent(i, j)) for j in range(M.k)]
        lines.append(" | ".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_matrix_text(text, field=None):
    """Parse the matrix file format; returns (PolyMat, Shift).

    Laurent entries are admitted by factoring the lowest listed degree
    out of each column.
    """
    from .algebra.field import FieldSpec

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = dict(
        item.split("=", 1) for item in lines[0].split() if "=" in item
    )
    q = int(header["q"])
    rows = int(header["rows"])
    cols = int(header["cols"])
    if rows != cols:
        raise ValueError("module bases must be square")
    s = Shift(header["shift"].split(",")) if header.get("shift") else \
        Shift.zero(cols)
    if field is None:
        field = FieldSpec.get(q)
    vals = []
    for ln in lines[1:rows + 1]:
        cells = [parse_laurent(c.strip(), field) for c in ln.split("|")]
        if len(cells) != cols:
            raise ValueError("wrong number of entries in a row")
        vals.append(cells)
    col_scale = []
    for j in range(cols):
        floors = [vals[i][j].floor for i in range(rows)
                  if not vals[i][j].is_known_zero()]
        col_scale.append(min(0, *floors) if floors else 0)
    prows = []
    for i in range(rows):
        prow = []
        for j in range(cols):
            shifted = vals[i][j].shift(-col_scale[j])
            prow.append(shifted.poly_part())
        prows.append(prow)
    return PolyMat(prows, col_scale), s


def load_matrix_file(path, field=None):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read(), field)
