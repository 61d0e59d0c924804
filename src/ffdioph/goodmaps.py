"""Exact Haar measure on cylinder sets and sublevel-measure certification.

The ambient space is the closed unit ball of F**d with Haar measure 1.
At resolution N a cell fixes the coefficients of degrees 0, -1, ...,
-(N-1) in every coordinate, so its measure is exactly q**(-N*d) and any
finite union has a rational measure counted cell by cell.

Polynomial maps are evaluated at cell centers with a non-archimedean
Lipschitz guard: two points of one cell differ by at most e**(-N), so
the value's degree is constant on the cell whenever it exceeds
max(deg coefficients) - N; cells below that bound are marked ambiguous
and are excluded from both sides of every inequality rather than
guessed.

Sublevel inequalities compare a rational measure against
C * (eps/sup)**alpha with alpha a rational multiple r * ln q, so both
sides live in the exact QPow arithmetic: the comparison is integral,
never floating point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent
from .algebra.poly import Poly
from .errors import BudgetExceeded, PrecisionExhausted
from .qpow import QPow, floor_ln

CELL_BUDGET = 10**7


# ---------------------------------------------------------------------------
# cells and cylinder sets
# ---------------------------------------------------------------------------


def cell_count(field, N, d):
    return field.q ** (N * d)


def cell_center(field, code, N, d):
    """Center point of a cell: the exact value with the fixed digits."""
    q = field.q
    point = []
    for _ in range(d):
        word = code % q**N
        code //= q**N
        digits = []
        for _ in range(N):
            digits.append(word % q)
            word //= q
        # digits[i] is the coefficient of T**(-i)
        point.append(Laurent(field, digits, 0, exact=True))
    return tuple(point)


@dataclass(frozen=True)
class CylinderSet:
    """Finite union of resolution-N cells; measure is exactly rational."""

    field: object
    N: int
    d: int
    cells: frozenset

    def measure(self):
        return Fraction(len(self.cells), cell_count(self.field, self.N,
                                                    self.d))

    def union(self, other):
        self._compat(other)
        return CylinderSet(self.field, self.N, self.d,
                           self.cells | other.cells)

    def intersect(self, other):
        self._compat(other)
        return CylinderSet(self.field, self.N, self.d,
                           self.cells & other.cells)

    def minus(self, other):
        self._compat(other)
        return CylinderSet(self.field, self.N, self.d,
                           self.cells - other.cells)

    def issubset(self, other):
        self._compat(other)
        return self.cells <= other.cells

    def _compat(self, other):
        if (self.field, self.N, self.d) != (other.field, other.N, other.d):
            raise ValueError("cylinder sets at different resolutions")

    def hex_words(self):
        """Sorted hex-coded cells, for golden-file comparisons."""
        width = (cell_count(self.field, self.N, self.d) - 1).bit_length()
        width = (width + 3) // 4 or 1
        return [format(c, f"0{width}x") for c in sorted(self.cells)]

    @classmethod
    def unit_ball(cls, field, N, d):
        total = cell_count(field, N, d)
        if total > CELL_BUDGET:
            raise BudgetExceeded(f"{total} cells exceed the budget")
        return cls(field, N, d, frozenset(range(total)))


def cylinder_measure(S):
    """Haar measure of a cylinder set: |cells| * q**(-N*d), exact."""
    return S.measure()


@dataclass(frozen=True)
class BallSpec:
    """Ball of radius e**radius_exp centered in the open unit ball.

    The center's degree-0 coefficients are implicitly zero; radii live
    in the value group, so radius_exp is an integer <= 0.  A scaling cB
    for real c > 1 bumps radius_exp by floor_ln(c) -- the exact set
    equality in the discrete value group (2B = B, 5B grows one step).
    """

    center: tuple
    radius_exp: int

    def __post_init__(self):
        if self.radius_exp > 0:
            raise ValueError("radius must not exceed the unit ball")
        for c in self.center:
            if c.raw and c.lead > -1:
                raise ValueError("center must lie in the open unit ball")

    @property
    def d(self):
        return len(self.center)

    @property
    def field(self):
        return self.center[0].field

    def measure(self):
        """Haar measure q**(radius_exp * d) inside the unit ball."""
        q = self.field.q
        return Fraction(1, q ** (-self.radius_exp * self.d))

    def dilate(self, factor):
        """The exact value-group dilation: radius_exp += floor_ln(c)."""
        r = min(0, self.radius_exp + floor_ln(factor))
        return BallSpec(self.center, r)

    def grow(self, steps=1):
        return BallSpec(self.center, min(0, self.radius_exp + steps))

    def cells(self, N):
        """All resolution-N cells of the ball (needs N >= -radius_exp)."""
        field = self.field
        q = field.q
        if -self.radius_exp > N:
            raise ValueError("resolution too coarse for this radius")
        # digit of degree -i sits at position i of a coordinate word;
        # degrees above radius_exp are fixed by the center (whose
        # degree-0 digit is implicitly zero)
        free_positions = [i for i in range(N) if -i <= self.radius_exp]
        if q ** (len(free_positions) * self.d) > CELL_BUDGET:
            raise BudgetExceeded("ball enumeration exceeds the budget")
        fixed = []
        for c in self.center:
            w = 0
            for i in range(N):
                if -i > self.radius_exp:
                    w += c.coeff_at(-i) * q**i
            fixed.append(w)
        nfree = len(free_positions)
        cells = set()
        for combo in itertools.product(range(q), repeat=nfree * self.d):
            code = 0
            for coord in range(self.d - 1, -1, -1):
                w = fixed[coord]
                for t, pos in enumerate(free_positions):
                    w += combo[coord * nfree + t] * q**pos
                code = code * q**N + w
            cells.add(code)
        return CylinderSet(field, N, self.d, frozenset(cells))

    def contains_point(self, point):
        """Membership of an exact point of the closed unit ball."""
        for c, x in zip(self.center, point):
            diff = x - c
            if not diff.deg_le(self.radius_exp):
                return False
        return True


def origin_ball(field, d, radius_exp):
    return BallSpec(tuple(Laurent.zero(field) for _ in range(d)), radius_exp)


# ---------------------------------------------------------------------------
# polynomial maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyMap:
    """Map F**d -> F**n with polynomial components over F_q[T].

    Each component is a tuple of (exponents, coefficient) monomials.
    """

    d: int
    components: tuple

    @property
    def n(self):
        return len(self.components)

    @property
    def field(self):
        for comp in self.components:
            for _, coeff in comp:
                return coeff.field
        raise ValueError("empty map")

    @classmethod
    def veronese(cls, field, n):
        """x -> (x, x**2, ..., x**n)."""
        one = Poly.one(field)
        comps = tuple((((i,), one),) for i in range(1, n + 1))
        return cls(1, comps)

    def eval_at(self, point):
        """Exact evaluation at a point given as a tuple of Laurent values."""
        field = self.field
        # cache powers per coordinate
        powers = [{0: None} for _ in range(self.d)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                acc = point[i]
                for _ in range(e - 1):
                    acc = acc * point[i]
                cache[e] = acc
            return cache[e]

        out = []
        for comp in self.components:
            acc = Laurent.zero(field)
            for exps, coeff in comp:
                term = Laurent.from_poly(coeff)
                for i, e in enumerate(exps):
                    if e:
                        term = term * power(i, e)
                acc = acc + term
            out.append(acc)
        return tuple(out)

    def perturbation_bounds(self, N):
        """Per-component degree bound for |f(x') - f(x)| on one cell.

        Ultrametric Lipschitz bound: points of a cell differ by e**(-N) and
        all coordinates sit in the unit ball, so each non-constant
        monomial moves by at most |coeff| * e**(-N).
        """
        out = []
        for comp in self.components:
            best = NEG_INF
            for exps, coeff in comp:
                if any(exps) and not coeff.is_zero():
                    if best is NEG_INF or coeff.deg > best:
                        best = coeff.deg
            out.append(best - N if best is not NEG_INF else NEG_INF)
        return tuple(out)


def eval_map_on_cells(f, N, ball=None):
    """Degree table of every component on every cell.

    Returns {cell_code: ((degree, certain), ...)} where certain means
    the degree provably holds across the whole cell (it exceeds the
    perturbation bound); ambiguous cells carry their center degree with
    certain=False.
    """
    field = f.field
    if ball is None:
        cs = CylinderSet.unit_ball(field, N, f.d)
    else:
        cs = ball.cells(N)
    perts = f.perturbation_bounds(N)
    table = {}
    for code in cs.cells:
        point = cell_center(field, code, N, f.d)
        vals = f.eval_at(point)
        row = []
        for v, pert in zip(vals, perts):
            if v.raw:
                dgr = v.lead
            elif v.exact:
                dgr = NEG_INF
            else:
                raise PrecisionExhausted("inexact map evaluation")
            certain = pert is NEG_INF or (dgr is not NEG_INF and dgr > pert)
            row.append((dgr, certain))
        table[code] = tuple(row)
    return table


# ---------------------------------------------------------------------------
# (C, alpha)-good certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodReport:
    """Measured sublevel ratios for one combination on one ball.

    alpha_r encodes alpha = alpha_r * ln q.  C_min is the smallest
    constant making the sublevel inequality hold over the tested grid
    of thresholds; every ratio is exact QPow arithmetic.
    """

    alpha_r: Fraction
    sup_deg: int
    ball_cells: int
    C_min: QPow
    rows: tuple  # (j, cells_in, ambiguous_j, ratio: QPow)
    ambiguous_cells: int
    total_cells: int
    inconclusive: bool
    violations: tuple = ()

    def as_json_dict(self):
        return {
            "alpha_r": f"{self.alpha_r.numerator}/{self.alpha_r.denominator}",
            "sup_deg": self.sup_deg,
            "C_min": self.C_min.as_json_dict(),
            "rows": [
                {"j": j, "cells": nin, "ambiguous": amb,
                 "ratio": ratio.as_json_dict()}
                for j, nin, amb, ratio in self.rows
            ],
            "ambiguous_cells": self.ambiguous_cells,
            "total_cells": self.total_cells,
            "inconclusive": self.inconclusive,
            "violations": list(self.violations),
        }


def combo_degree_table(f, combo, N, ball):
    """Degree table of c_0 + sum c_i f_i with the combo's own guard."""
    field = f.field
    cs = ball.cells(N) if ball is not None else CylinderSet.unit_ball(
        field, N, f.d)
    perts = f.perturbation_bounds(N)
    c0 = combo[0]
    cf = combo[1:]
    if len(cf) != f.n:
        raise ValueError("combination length must be 1 + n")
    pert = NEG_INF
    for c, pf in zip(cf, perts):
        if not c.is_known_zero() and pf is not NEG_INF:
            cand = c.degree() + pf
            if pert is NEG_INF or cand > pert:
                pert = cand
    table = {}
    for code in cs.cells:
        point = cell_center(field, code, N, f.d)
        vals = f.eval_at(point)
        acc = c0
        for c, v in zip(cf, vals):
            if not c.is_known_zero():
                acc = acc + c * v
        if acc.raw:
            dgr = acc.lead
        elif acc.exact:
            dgr = NEG_INF
        else:
            raise PrecisionExhausted("inexact combination value")
        certain = pert is NEG_INF or (dgr is not NEG_INF and dgr > pert)
        table[code] = (dgr, certain, pert)
    return cs, table, pert


def good_constants(f, combo, ball, N, alpha_r, slack=2, claimed_C=None):
    """Smallest C for which the sublevel inequality holds on the grid.

    Tests nu({x in B: |g| <= e**(-j)}) <= C * (e**(-j)/sup|g|)**alpha
    for j = 1 .. N - slack, with alpha = alpha_r * ln q.  In the
    discrete value group the strict sublevel {|g| < e**(-j)} equals the
    closed one at the next radius, so running the closed thresholds over
    the whole grid tests the same family of inequalities.  Both sides
    are exact: the left is a cell count, the right a QPow.
    """
    field = f.field
    alpha_r = Fraction(alpha_r)
    if alpha_r <= 0:
        raise ValueError("alpha must be positive")
    cs, table, pert = combo_degree_table(f, combo, N, ball)
    n_ball = len(cs.cells)
    sup = NEG_INF
    ambiguous = 0
    for dgr, certain, _ in table.values():
        if certain:
            if sup is NEG_INF or (dgr is not NEG_INF and dgr > sup):
                sup = dgr
        else:
            ambiguous += 1
    if sup is NEG_INF:
        raise ValueError("combination vanishes identically on the ball")
    inconclusive = ambiguous * 100 > n_ball or (
        pert is not NEG_INF and pert > sup)
    rows = []
    c_min = QPow(field.q, 0)
    violations = []
    for j in range(1, max(2, N - slack + 1)):
        thresh = -j
        n_in = 0
        amb_j = 0
        for dgr, certain, _ in table.values():
            if certain:
                if dgr is NEG_INF or dgr <= thresh:
                    n_in += 1
            elif pert is not NEG_INF and pert <= thresh:
                n_in += 1  # whole cell provably below the threshold
            else:
                amb_j += 1
        # ratio = (n_in/n_ball) * q**(alpha_r * (j + sup))
        ratio = QPow(field.q, Fraction(n_in, n_ball), alpha_r * (j + sup))
        rows.append((j, n_in, amb_j, ratio))
        if ratio > c_min:
            c_min = ratio
        if claimed_C is not None and ratio > claimed_C:
            violations.append(j)
    return GoodReport(
        alpha_r=alpha_r,
        sup_deg=sup,
        ball_cells=n_ball,
        C_min=c_min,
        rows=tuple(rows),
        ambiguous_cells=ambiguous,
        total_cells=n_ball,
        inconclusive=inconclusive,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the sublevel-inequality closure properties."""

    items: tuple  # (name, passed, note)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.items)

    def as_json_dict(self):
        return {"items": [{"name": n, "passed": ok, "note": note}
                          for n, ok, note in self.items],
                "passed": self.passed}


def lemma_closure_check(f, ball, N, alpha_r):
    """Re-verify the closure properties from measured data.

    (1) the map and its absolute value measure identically (degrees are
        the absolute value); (2) scaling a combination shifts every
        degree, leaving C unchanged; (3) the sup of two components has
        sublevel sets equal to the intersection; (5) relaxing to a
        larger C and smaller alpha preserves the inequality.
    """
    field = f.field
    one = Laurent.from_poly(Poly.one(field))
    zero = Laurent.zero(field)
    alpha_r = Fraction(alpha_r)
    items = []

    base_combo = (zero, one) + (zero,) * (f.n - 1)
    base = good_constants(f, base_combo, ball, N, alpha_r)
    # (1): |f| is represented by the same degree table as f
    items.append(("abs_equivalence", True,
                  "degrees encode |f|; tables coincide by construction"))
    # (2): scaling by T shifts all degrees by one
    scaled_combo = (zero, Laurent.monomial(field, 1, 1)) + (zero,) * (f.n - 1)
    scaled = good_constants(f, scaled_combo, ball, N, alpha_r)
    ok2 = scaled.C_min == base.C_min
    items.append(("scaling_invariance", ok2,
                  f"C_min {base.C_min!r} vs scaled {scaled.C_min!r}"))
    # (3): sup of two components; sublevels are intersections
    ok3 = True
    note3 = "needs n >= 2"
    if f.n >= 2:
        combo2 = (zero, zero, one) + (zero,) * (f.n - 2)
        second = good_constants(f, combo2, ball, N, alpha_r)
        cs, table1, pert1 = combo_degree_table(f, base_combo, N, ball)
        _, table2, pert2 = combo_degree_table(f, combo2, N, ball)
        sup_deg = max(base.sup_deg, second.sup_deg)
        c_bound = base.C_min if base.C_min >= second.C_min else second.C_min
        n_ball = len(cs.cells)
        for j in range(1, N - 1):
            thresh = -j
            n_in = 0
            decidable = True
            for code in cs.cells:
                d1, c1, _ = table1[code]
                d2, c2, _ = table2[code]
                if not (c1 and c2):
                    decidable = False
                    continue
                dd = max(
                    d1 if d1 is not NEG_INF else thresh - 1,
                    d2 if d2 is not NEG_INF else thresh - 1,
                )
                if dd <= thresh:
                    n_in += 1
            if not decidable:
                continue
            ratio = QPow(field.q, Fraction(n_in, n_ball),
                         alpha_r * (j + sup_deg))
            if ratio > c_bound:
                ok3 = False
        note3 = "sup sublevels are intersections; bound with max(C) holds"
    items.append(("sup_closure", ok3, note3))
    # (5): relax (C, alpha) to (2C-or-more, alpha/2)
    relaxed_alpha = alpha_r / 2
    relaxed_C = base.C_min * QPow(field.q, 2)
    if relaxed_C < QPow(field.q, 2):
        relaxed_C = QPow(field.q, 2)
    ok5 = True
    for j, n_in, _, _ in base.rows:
        ratio = QPow(field.q, Fraction(n_in, base.ball_cells),
                     relaxed_alpha * (j + base.sup_deg))
        if ratio > relaxed_C:
            ok5 = False
    items.append(("relaxation", ok5,
                  "larger C with halved alpha still bounds every row"))
    return ClosureReport(tuple(items))


# ---------------------------------------------------------------------------
# nonplanarity and doubling
# ---------------------------------------------------------------------------


def _laurent_det(rows):
    """Exact determinant of a small matrix of Laurent values."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    field = rows[0][0].field
    acc = Laurent.zero(field)
    for j in range(k):
        e = rows[0][j]
        if e.is_known_zero():
            continue
        minor = [[rows[i][jj] for jj in range(k) if jj != j]
                 for i in range(1, k)]
        term = e * _laurent_det(minor)
        if j & 1:
            term = -term
        acc = acc + term
    return acc


def nonplanarity_check(f, ball, N, trials=64, seed=0):
    """Search for n+1 points of B making (1, f_1, ..., f_n) independent.

    A found witness is re-verified by an exact nonzero determinant; not
    finding one in `trials` samples refutes nothing and is reported as
    such.
    """
    field = f.field
    cs = ball.cells(N)
    codes = sorted(cs.cells)
    need = f.n + 1
    if need > len(codes):
        raise ValueError("not enough cells to witness independence")
    rng = random.Random(seed)
    one = Laurent.from_poly(Poly.one(field))
    for _ in range(trials):
        picks = rng.sample(codes, need)
        points = [cell_center(field, c, N, f.d) for c in picks]
        rows = []
        for pt in points:
            vals = f.eval_at(pt)
            rows.append((one,) + tuple(vals))
        det = _laurent_det(rows)
        if det.raw:  # exact nonzero
            return True, {"cells": picks, "points": points}
    return False, None


def doubling_check(balls):
    """Exact dilation ratios: nu(2B)/nu(B) and nu(5B)/nu(B) per ball.

    In the value group e**Z the set 2B equals B (2 < e), so the
    doubling constant is exactly 1; 5B is one radius step up (e < 5 <
    e**2) with ratio q**d inside the unit ball.
    """
    rows = []
    worst = Fraction(1)
    for b in balls:
        m = b.measure()
        two = b.dilate(2).measure()
        five = b.dilate(5).measure()
        rows.append({
            "radius_exp": b.radius_exp,
            "measure": m,
            "ratio_2B": two / m,
            "ratio_5B": five / m,
        })
        if two / m > worst:
            worst = two / m
    return worst, rows
