"""Exact Haar measure on cylinder sets and sublevel-measure certification.

The ambient space is the closed unit ball of F**d with Haar measure 1.
At resolution N a cell fixes the coefficients of degrees 0, -1, ...,
-(N-1) in every coordinate, so its measure is exactly q**(-N*d) and any
finite union has a rational measure counted cell by cell.

A CellGrid holds a polynomial map's values at the cell centers of one
ball at resolution N, computed once; the good-map certificates here and
the transference set families (SetFamilyConfig.grid) read every
combination g = c_0 + sum c_i f_i off such a grid.  The grid works on
raw digits (the ops_for(field) polynomials that Laurent and Poly
share): a cell center is one raw per coordinate over T**(1-N),
PolyMap.eval_raw gives each f_k as an exact raw over a fixed floor, and
combo_degree_table forms g per cell with raw mul/add, carrying each row
as (raw, floor, exact) with the known floor Laurent arithmetic would
give.  One guard rule classifies the rows (degree_class): two points of
one cell differ by at most e**(-N), so g varies across a cell by degree
at most guard = max(deg c_i + pert_i), pert_i being f_i's largest
non-constant coefficient degree minus N, and the center's degree holds
on the whole cell when it exceeds the guard.  sublevel_partition counts
an uncertain cell inside {deg g <= j} only when the guard is too; the
rest are ambiguous and are excluded from both sides of every inequality
rather than guessed.  A combination value that is an inexact zero
raises PrecisionExhausted here.

Sublevel inequalities compare a rational measure against
C * (eps/sup)**alpha with alpha a rational multiple r * ln q, so both
sides live in the exact QPow arithmetic: the comparison is integral,
never floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent
from .algebra.poly import Poly, ops_for
from .errors import BudgetExceeded, PrecisionExhausted
from .qpow import QPow, floor_ln

CELL_BUDGET = 10**7


# ---------------------------------------------------------------------------
# cells and cylinder sets
# ---------------------------------------------------------------------------


def cell_count(field, N, d):
    return field.q ** (N * d)


def cell_digits(field, code, N, d):
    """A cell's center as raw digits over T**(1-N), one per coordinate.

    Word k of the code (base q**N, coordinate 0 lowest) holds the digits
    of degrees 0, -1, ..., -(N-1), lowest position first: the reverse
    of the raw order.
    """
    q = field.q
    ops = ops_for(field)
    point = []
    for _ in range(d):
        code, word = divmod(code, q**N)
        digits = [0] * N
        for j in range(N - 1, -1, -1):
            word, digits[j] = divmod(word, q)
        point.append(ops.from_coeffs(digits))
    return tuple(point)


def cell_center(field, code, N, d):
    """Center point of a cell: the exact value with the fixed digits."""
    ops = ops_for(field)
    return tuple(Laurent._wrap(field, ops, raw, 1 - N, True)
                 for raw in cell_digits(field, code, N, d))


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

    def cells(self, N):
        """All resolution-N cells of the ball (needs N >= -radius_exp)."""
        field = self.field
        q = field.q
        if -self.radius_exp > N:
            raise ValueError("resolution too coarse for this radius")
        if q ** ((N + self.radius_exp) * self.d) > CELL_BUDGET:
            raise BudgetExceeded("ball enumeration exceeds the budget")
        # digit of degree -i sits at position i of a coordinate word; the
        # positions below -radius_exp are fixed by the center (whose
        # degree-0 digit is implicitly zero) and the rest are free, so a
        # coordinate's words step by q**(-radius_exp) from the fixed part
        step = q ** -self.radius_exp
        codes = [0]
        for k, c in enumerate(self.center):
            fixed = sum(c.coeff_at(-i) * q**i
                        for i in range(-self.radius_exp))
            scale = q ** (N * k)
            codes = [code + w * scale for w in range(fixed, q**N, step)
                     for code in codes]
        return CylinderSet(field, N, self.d, frozenset(codes))

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

    def __post_init__(self):
        if self.d < 1 or not self.components:
            raise ValueError("a map needs d >= 1 and a component")
        if any(len(exps) != self.d or min(exps) < 0
               for comp in self.components for exps, _ in comp):
            raise ValueError(f"every exponent vector must hold {self.d} "
                             "nonnegative entries")

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

    @cached_property
    def ops(self):
        return ops_for(self.field)

    @cached_property
    def degrees(self):
        """Largest total degree of each component's monomials (0 if none)."""
        return tuple(max((sum(exps) for exps, _ in comp), default=0)
                     for comp in self.components)

    @cached_property
    def _terms(self):
        # per component: (coefficient raw, (coordinate, exponent) pairs,
        # component degree minus the monomial's total degree)
        return tuple(
            tuple((coeff.raw, tuple((i, e) for i, e in enumerate(exps) if e),
                   D - sum(exps))
                  for exps, coeff in comp)
            for comp, D in zip(self.components, self.degrees))

    def eval_raw(self, point, floor):
        """f at an exact point given as raw digits over T**floor, floor <= 0.

        Returns f_k as a raw polynomial over T**(floor * degrees[k]) for
        each component k: a monomial of total degree e lives over
        T**(floor * e), so shifting it up by the missing degree puts every
        monomial of f_k over that one floor.
        """
        ops = self.ops
        mul = ops.mul
        powers = [[ops.one, x] for x in point]
        out = []
        for comp in self._terms:
            acc = ops.zero
            for term, exps, missing in comp:
                for i, e in exps:
                    pw = powers[i]
                    while len(pw) <= e:
                        pw.append(mul(pw[-1], pw[1]))
                    term = mul(term, pw[e])
                acc = ops.add(acc, ops.shift(term, -floor * missing))
            out.append(acc)
        return tuple(out)

    def eval_at(self, point):
        """Exact evaluation at an exact point given as Laurent values."""
        if not all(x.exact for x in point):
            raise ValueError("eval_at needs an exact point")
        field, ops = self.field, self.ops
        floor = min([0] + [x.floor for x in point])
        raws = self.eval_raw(
            tuple(ops.shift(x.raw, x.floor - floor) for x in point), floor)
        return tuple(Laurent._wrap(field, ops, raw, floor * D, True)
                     for raw, D in zip(raws, self.degrees))

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


# ---------------------------------------------------------------------------
# the cell grid and its one degree classifier
# ---------------------------------------------------------------------------


class CellGrid:
    """A map's values on every resolution-N cell of a ball.

    codes are the sorted cell codes and values[i] is f at the center of
    cell codes[i], one exact raw polynomial per component: f_k's digits
    over T**floors[k], floors[k] = floor * f.degrees[k] with floor =
    min(0, 1 - N), the floor of the centers' digits.  Both are
    computed on first use and then kept, so every combination, threshold
    and report read off one grid evaluates the map once per cell.
    perts[k] bounds the degree of f_k's variation across one cell.
    ball=None means the closed unit ball.
    """

    def __init__(self, f, ball, N):
        self.f = f
        self.ball = ball
        self.N = N
        self.perts = f.perturbation_bounds(N)
        # cell centers have their digits over T**(1-N); at N = 0 the one
        # center is 0, which eval_raw takes over T**0
        self.floor = min(0, 1 - N)
        self.floors = tuple(self.floor * D for D in f.degrees)

    @cached_property
    def codes(self):
        if self.ball is None:
            cells = CylinderSet.unit_ball(self.f.field, self.N, self.f.d)
        else:
            cells = self.ball.cells(self.N)
        return sorted(cells.cells)

    @cached_property
    def values(self):
        f, N = self.f, self.N
        field, d = f.field, f.d
        return [f.eval_raw(cell_digits(field, code, N, d), self.floor)
                for code in self.codes]

    def good_report(self, combo, alpha_r, slack=2, claimed_C=None):
        """good_constants of a combination c_0 + sum c_i f_i on this grid."""
        alpha_r = _positive(alpha_r)
        rows, guard = self._exact_table(combo)
        return self._report(rows, guard, alpha_r, slack, claimed_C)

    def closure_report(self, alpha_r):
        """lemma_closure_check on this grid."""
        field = self.f.field
        n = self.f.n
        one = Laurent.from_poly(Poly.one(field))
        zero = Laurent.zero(field)
        alpha_r = _positive(alpha_r)
        items = []

        def measured(combo):
            rows, guard = self._exact_table(combo)
            return rows, guard, self._report(rows, guard, alpha_r)

        rows1, guard1, base = measured((zero, one) + (zero,) * (n - 1))
        # (1): |f| is represented by the same degree table as f
        items.append(("abs_equivalence", True,
                      "degrees encode |f|; tables coincide by construction"))
        # (2): scaling by T shifts every degree and the guard by one
        _, _, scaled = measured(
            (zero, Laurent.monomial(field, 1, 1)) + (zero,) * (n - 1))
        ok2 = scaled.sup_deg == base.sup_deg + 1 and all(
            s[1:] == b[1:] for s, b in zip(scaled.rows, base.rows[1:]))
        items.append(("scaling_invariance", ok2,
                      f"C_min {base.C_min!r} vs scaled {scaled.C_min!r}"))
        # (3): sup of two components; sublevels are intersections
        ok3 = True
        note3 = "needs n >= 2"
        if n >= 2:
            rows2, guard2, second = measured(
                (zero, zero, one) + (zero,) * (n - 2))
            sup_deg = max(base.sup_deg, second.sup_deg)
            c_bound = (base.C_min if base.C_min >= second.C_min
                       else second.C_min)
            # an uncertain cell in either table makes no threshold decidable
            if all(c for _, _, c in rows1) and all(c for _, _, c in rows2):
                for j in range(1, self.N - 1):
                    in1, _ = sublevel_partition(self.codes, rows1, guard1, -j)
                    in2, _ = sublevel_partition(self.codes, rows2, guard2, -j)
                    ratio = QPow(field.q,
                                 Fraction(len(in1 & in2), base.ball_cells),
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

    def _exact_table(self, combo):
        """combo_degree_table of c_0 + sum c_i f_i; an inexact zero raises."""
        rows, guard = combo_degree_table(self, combo[0], combo[1:])
        if any(dgr is None for _, dgr, _ in rows):
            raise PrecisionExhausted("inexact combination value")
        return rows, guard

    def _report(self, rows, guard, alpha_r, slack=2, claimed_C=None):
        q = self.f.field.q
        n_ball = len(self.codes)
        sup = NEG_INF
        ambiguous = 0
        for _, dgr, certain in rows:
            if not certain:
                ambiguous += 1
            elif sup is NEG_INF or (dgr is not NEG_INF and dgr > sup):
                sup = dgr
        if sup is NEG_INF:
            raise ValueError("combination vanishes identically on the ball")
        inconclusive = ambiguous * 100 > n_ball or (
            guard is not NEG_INF and guard > sup)
        report_rows = []
        c_min = QPow(q, 0)
        violations = []
        for j in range(1, max(2, self.N - slack + 1)):
            inside, amb_j = sublevel_partition(self.codes, rows, guard, -j)
            # ratio = (n_in/n_ball) * q**(alpha_r * (j + sup))
            ratio = QPow(q, Fraction(len(inside), n_ball),
                         alpha_r * (j + sup))
            report_rows.append((j, len(inside), len(amb_j), ratio))
            if ratio > c_min:
                c_min = ratio
            if claimed_C is not None and ratio > claimed_C:
                violations.append(j)
        return GoodReport(
            alpha_r=alpha_r,
            sup_deg=sup,
            ball_cells=n_ball,
            C_min=c_min,
            rows=tuple(report_rows),
            ambiguous_cells=ambiguous,
            total_cells=n_ball,
            inconclusive=inconclusive,
            violations=tuple(violations),
        )


def _positive(alpha_r):
    alpha_r = Fraction(alpha_r)
    if alpha_r <= 0:
        raise ValueError("alpha must be positive")
    return alpha_r


def degree_class(dgr, guard):
    """Whether a cell-center degree holds on the whole cell.

    dgr is NEG_INF for an exact zero and None for an inexact zero (no
    digit known), and guard bounds the degree of the value's variation
    across the cell.  The degree is certain when it exceeds the guard,
    or when nothing varies (guard NEG_INF).
    """
    if dgr is None:
        return False
    return guard is NEG_INF or (dgr is not NEG_INF and dgr > guard)


def combo_degree_table(grid, base, coeffs):
    """Values and degree classes of base + sum c_i f_i on a cell grid.

    Returns (rows, guard): rows[i] = ((raw, floor, exact), degree,
    certain) on the cell grid.codes[i], the value being raw * T**floor
    with its digits below floor unknown unless exact; guard = max(deg
    c_i + pert_i) over the nonzero c_i, the degree bound of the sum's
    variation across one cell.

    The known floor follows Laurent arithmetic: an inexact base gives
    its floor, an inexact c_i gives c_i.floor + deg f_i(center) where
    f_i(center) is nonzero (an exact-zero product is exact), the highest
    of these wins, and the digits below it are dropped.
    """
    if len(coeffs) != grid.f.n:
        raise ValueError("combination length must be 1 + n")
    terms = [(i, c) for i, c in enumerate(coeffs) if not c.is_known_zero()]
    guard = NEG_INF
    for i, c in terms:
        if grid.perts[i] is not NEG_INF:
            cand = c.degree() + grid.perts[i]
            if guard is NEG_INF or cand > guard:
                guard = cand
    ops = grid.f.ops
    add, mul, deg = ops.add, ops.mul, ops.deg
    floors = grid.floors
    # every summand over one common floor: c_i aligned so that c_i * f_i
    # lands there
    low = min([base.floor] + [c.floor + floors[i] for i, c in terms])
    start = ops.shift(base.raw, base.floor - low)
    start_known = None if base.exact else base.floor
    scaled = [(i, ops.shift(c.raw, c.floor + floors[i] - low),
               None if c.exact else c.floor + floors[i])
              for i, c in terms]
    rows = []
    for vals in grid.values:
        acc, known = start, start_known
        for i, c, cfloor in scaled:
            v = vals[i]
            if v:
                acc = add(acc, mul(c, v))
                if cfloor is not None:
                    k = cfloor + deg(v)
                    if known is None or k > known:
                        known = k
        if known is None:
            value = (acc, low, True)
            dgr = low + deg(acc) if acc else NEG_INF
        else:
            acc = ops.drop(acc, known - low)
            value = (acc, known, False)
            dgr = known + deg(acc) if acc else None
        rows.append((value, dgr, degree_class(dgr, guard)))
    return rows, guard


def sublevel_partition(codes, rows, guard, thresh):
    """(inside, ambiguous) cell-code sets of {deg <= thresh}.

    rows[i] = (value, degree, certain) on the cell codes[i], classified
    under guard as in combo_degree_table.  A certain cell is inside when
    its degree is at most thresh.  An uncertain cell is inside when the
    guard is, unless its center value is an inexact zero; every other
    uncertain cell is ambiguous.
    """
    inside = set()
    ambiguous = set()
    for code, (_, dgr, certain) in zip(codes, rows):
        if certain:
            if dgr is NEG_INF or dgr <= thresh:
                inside.add(code)
        elif dgr is not None and guard is not NEG_INF and guard <= thresh:
            inside.add(code)  # the whole cell provably lies below
        else:
            ambiguous.add(code)
    return frozenset(inside), frozenset(ambiguous)


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


def good_constants(f, combo, ball, N, alpha_r, slack=2, claimed_C=None):
    """Smallest C for which the sublevel inequality holds on the grid.

    Tests nu({x in B: |g| <= e**(-j)}) <= C * (e**(-j)/sup|g|)**alpha
    for j = 1 .. N - slack, with alpha = alpha_r * ln q.  In the
    discrete value group the strict sublevel {|g| < e**(-j)} equals the
    closed one at the next radius, so running the closed thresholds over
    the whole grid tests the same family of inequalities.  Both sides
    are exact: the left is a cell count, the right a QPow.
    """
    return CellGrid(f, ball, N).good_report(combo, alpha_r, slack, claimed_C)


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
        the absolute value); (2) scaling a combination by T shifts every
        degree and the guard by one, so the scaled rows are the base rows
        one threshold down and C is unchanged; (3) the sup of two
        components has sublevel sets equal to the intersection; (5)
        relaxing to a larger C and smaller alpha preserves the
        inequality.  All combinations are read off one cell grid.
    """
    return CellGrid(f, ball, N).closure_report(alpha_r)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
