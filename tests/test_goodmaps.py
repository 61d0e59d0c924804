"""Cylinder measures, map tables, good constants, nonplanarity, doubling."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdioph import FieldSpec, Laurent, Poly, parse_laurent
from ffdioph.algebra.degree import NEG_INF
from ffdioph.algebra.poly import ops_for
from ffdioph.errors import AmbiguousZero, PrecisionExhausted
from ffdioph.goodmaps import (
    BallSpec,
    CellGrid,
    CylinderSet,
    PolyMap,
    cell_center,
    combo_degree_table,
    doubling_check,
    good_constants,
    lemma_closure_check,
    nonplanarity_check,
    origin_ball,
)
from ffdioph.qpow import QPow, floor_ln
from ffdioph.transference import SetFamilyConfig, _iter_q_vectors, enum_alphas


def one_zero(field):
    return Laurent.from_poly(Poly.one(field)), Laurent.zero(field)


class TestQPow:
    def test_compare_rational(self):
        a = QPow(2, Fraction(3, 4), Fraction(1, 2))  # (3/4) sqrt(2)
        assert a > 1 and a < 2
        assert QPow(2, 1, 1) == 2

    def test_mul_div(self):
        a = QPow(2, Fraction(1, 2), Fraction(3, 2))
        b = QPow(2, 2, Fraction(-1, 2))
        assert (a * b) == 2
        assert (a / a) == 1

    def test_floor_ln_values(self):
        assert floor_ln(2) == 0
        assert floor_ln(5) == 1
        assert floor_ln(3) == 1
        assert floor_ln(9) == 2
        assert floor_ln(27) == 3
        assert floor_ln(Fraction(271, 100)) == 0  # just below e
        assert floor_ln(Fraction(272, 100)) == 1  # just above e


class TestCylinders:
    def test_unit_ball_measure(self, F2):
        assert CylinderSet.unit_ball(F2, 4, 1).measure() == 1

    def test_ball_measures(self, F2, F3):
        assert origin_ball(F2, 1, -3).measure() == Fraction(1, 8)
        assert origin_ball(F2, 2, -1).measure() == Fraction(1, 4)
        assert origin_ball(F2, 1, -3).cells(6).measure() == Fraction(1, 8)
        assert origin_ball(F3, 2, -1).cells(3).measure() == Fraction(1, 9)

    def test_cell_center_roundtrip(self, F3):
        # center of each cell of a ball lies inside the ball
        b = BallSpec((parse_laurent("2*T^-1", F3),), -2)
        for code in b.cells(3).cells:
            pt = cell_center(F3, code, 3, 1)
            assert b.contains_point(pt)

    def test_enumeration_budget(self, F2):
        from ffdioph.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            CylinderSet.unit_ball(F2, 24, 1)


def first_component_table(f, N):
    """{cell code: (degree, certain)} of f_1 on the unit ball's cells."""
    one, zero = one_zero(f.field)
    grid = CellGrid(f, None, N)
    rows, _ = combo_degree_table(grid, zero, (one,) + (zero,) * (f.n - 1))
    return {code: (d, certain)
            for code, (_, d, certain) in zip(grid.codes, rows)}


class TestEvalMap:
    def test_identity_partition(self, F2):
        tab = first_component_table(PolyMap.veronese(F2, 1), 3)
        cnt = Counter()
        for d, certain in tab.values():
            cnt[(d if d is not NEG_INF else "zero", certain)] += 1
        # closed unit ball, digits at degrees 0, -1, -2: four cells of
        # degree 0, two of -1, one of -2, one ambiguous-at-floor
        assert cnt[(0, True)] == 4
        assert cnt[(-1, True)] == 2
        assert cnt[(-2, True)] == 1
        assert cnt[("zero", False)] == 1

    def test_squaring_doubles_degrees(self, F2):
        sq = PolyMap(1, ((((2,), Poly.one(F2)),),))
        tab = first_component_table(sq, 3)
        for code, (d, _) in tab.items():
            x = cell_center(F2, code, 3, 1)[0]
            if x.coeffs:
                assert d == 2 * x.degree()

    def test_constant_map(self, F2):
        const = PolyMap(1, ((((0,), Poly.one(F2)),),))
        tab = first_component_table(const, 3)
        assert all(row == (0, True) for row in tab.values())


class TestGoodConstants:
    def test_identity_c_min_one(self, F2):
        one, zero = one_zero(F2)
        rep = good_constants(PolyMap.veronese(F2, 1), (zero, one),
                             origin_ball(F2, 1, 0), 8, Fraction(1))
        assert rep.C_min == 1
        assert rep.sup_deg == 0
        assert not rep.inconclusive

    def test_square_half_alpha(self, F2):
        one, zero = one_zero(F2)
        sq = PolyMap(1, ((((2,), Poly.one(F2)),),))
        rep = good_constants(sq, (zero, one), origin_ball(F2, 1, 0), 8,
                             Fraction(1, 2))
        assert rep.C_min == 1

    def test_constant_map_zero_measure(self, F2):
        one, zero = one_zero(F2)
        const = PolyMap(1, ((((0,), Poly.one(F2)),),))
        rep = good_constants(const, (zero, one), origin_ball(F2, 1, 0),
                             6, Fraction(1))
        assert rep.C_min == 0  # sublevel sets below the sup are empty

    def test_scaling_invariance(self, F2):
        # scaling a combination by nonzero c shifts every degree, so
        # the reported constant is identical (property over several c)
        one, zero = one_zero(F2)
        f = PolyMap.veronese(F2, 1)
        base = good_constants(f, (zero, one), origin_ball(F2, 1, 0), 8,
                              Fraction(1))
        for power in (1, 2, 5):
            scaled = good_constants(
                f, (zero, Laurent.monomial(F2, 1, power)),
                origin_ball(F2, 1, 0), 8, Fraction(1))
            assert scaled.C_min == base.C_min

    def test_sublevels_nested(self, F2):
        one, zero = one_zero(F2)
        rep = good_constants(PolyMap.veronese(F2, 1), (zero, one),
                             origin_ball(F2, 1, 0), 8, Fraction(1))
        counts = [nin for _, nin, _, _ in rep.rows]
        assert counts == sorted(counts, reverse=True)

    def test_claimed_c_violations(self, F2):
        one, zero = one_zero(F2)
        rep = good_constants(PolyMap.veronese(F2, 1), (zero, one),
                             origin_ball(F2, 1, 0), 8, Fraction(1),
                             claimed_C=QPow(2, Fraction(1, 4)))
        assert rep.violations  # quarter is too small a constant

    def test_q3(self, F3):
        one = Laurent.from_poly(Poly.one(F3))
        zero = Laurent.zero(F3)
        rep = good_constants(PolyMap.veronese(F3, 1), (zero, one),
                             origin_ball(F3, 1, 0), 6, Fraction(1))
        assert rep.C_min == 1


class TestClosure:
    def test_items_pass(self, F2):
        rep = lemma_closure_check(PolyMap.veronese(F2, 2),
                                  origin_ball(F2, 1, 0), 7, Fraction(1))
        assert rep.passed
        names = [n for n, _, _ in rep.items]
        assert names == ["abs_equivalence", "scaling_invariance",
                         "sup_closure", "relaxation"]


class TestNonplanarity:
    def test_veronese_witness(self, F2):
        ok, wit = nonplanarity_check(PolyMap.veronese(F2, 2),
                                     origin_ball(F2, 1, -1), 6,
                                     trials=32, seed=3)
        assert ok
        # re-verify by an exact Vandermonde determinant: distinct points
        pts = [p[0] for p in wit["points"]]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert not (pts[i] - pts[j]).is_known_zero()

    def test_duplicate_components_never_witness(self, F2):
        dup = PolyMap(1, ((((1,), Poly.one(F2)),),
                          (((1,), Poly.one(F2)),)))
        ok, _ = nonplanarity_check(dup, origin_ball(F2, 1, -1), 6,
                                   trials=40, seed=3)
        assert not ok

    def test_constant_never_witness(self, F2):
        const = PolyMap(1, ((((0,), Poly.one(F2)),),))
        ok, _ = nonplanarity_check(const, origin_ball(F2, 1, -1), 5,
                                   trials=40, seed=3)
        assert not ok


class TestDoubling:
    def test_two_b_equals_b(self, F2):
        b = origin_ball(F2, 1, -2)
        assert b.dilate(2).radius_exp == b.radius_exp
        D, rows = doubling_check([b])
        assert D == 1
        assert rows[0]["ratio_2B"] == 1

    def test_five_b_ratios(self, F2, F3):
        _, rows = doubling_check([origin_ball(F2, 1, -2),
                                  origin_ball(F3, 2, -3)])
        assert rows[0]["ratio_5B"] == 2    # q**d = 2
        assert rows[1]["ratio_5B"] == 9    # q**d = 9

    def test_dilation_clipped_at_unit_ball(self, F2):
        b = origin_ball(F2, 1, -1)
        assert b.dilate(5).radius_exp == 0
        assert b.dilate(25).radius_exp == 0


# ---------------------------------------------------------------------------
# the raw-digit cell kernel against Laurent arithmetic
# ---------------------------------------------------------------------------

FIELDS = {q: FieldSpec.get(q) for q in (2, 3, 9)}


def reference_center(field, code, N, d):
    """A cell center built digit by digit as Laurent values."""
    q = field.q
    point = []
    for _ in range(d):
        code, word = divmod(code, q**N)
        digits = [word // q**i % q for i in range(N)]  # degrees 0, -1, ...
        point.append(Laurent(field, digits, 0, exact=True))
    return tuple(point)


def reference_eval(f, point):
    """f(point) by Laurent products and sums, monomial by monomial."""
    out = []
    for comp in f.components:
        acc = Laurent.zero(f.field)
        for exps, coeff in comp:
            term = Laurent.from_poly(coeff)
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = term * x
            acc = acc + term
        out.append(acc)
    return out


def reference_class(value, guard):
    """The value-based rule: (degree, certain), degree None if unknown."""
    if value.raw:
        dgr = value.lead
    elif value.exact:
        dgr = NEG_INF
    else:
        return None, False
    return dgr, guard is NEG_INF or (dgr is not NEG_INF and dgr > guard)


def reference_table(grid, base, coeffs):
    """(Laurent value, degree, certain) per cell, and the guard."""
    f = grid.f
    terms = [(i, c) for i, c in enumerate(coeffs) if not c.is_known_zero()]
    guard = NEG_INF
    for i, c in terms:
        if grid.perts[i] is not NEG_INF:
            cand = c.degree() + grid.perts[i]
            if guard is NEG_INF or cand > guard:
                guard = cand
    rows = []
    for code in grid.codes:
        vals = reference_eval(
            f, reference_center(f.field, code, grid.N, f.d))
        acc = base
        for i, c in terms:
            acc = acc + c * vals[i]
        rows.append((acc,) + reference_class(acc, guard))
    return rows, guard


def reference_alphas(cfg):
    """enum_alphas read off Laurent values with poly_part."""
    thresh = cfg.threshold()
    out, seen = [], set()
    for q in _iter_q_vectors(cfg):
        rows, guard = reference_table(
            cfg.grid, cfg.theta, [Laurent.from_poly(c) for c in q])
        for acc, _, _ in rows:
            p = -acc.poly_part()
            d, certain = reference_class(acc + Laurent.from_poly(p), guard)
            if certain and d is not NEG_INF and d > thresh:
                continue
            key = (p.raw, tuple(c.raw for c in q))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


@st.composite
def laurents(draw, field):
    """Exact zero, exact, inexact or ambiguous-zero values near degree 0."""
    kind = draw(st.sampled_from(
        ("zero", "exact", "inexact", "inexact", "ambiguous")))
    if kind == "zero":
        return Laurent.zero(field)
    lead = draw(st.integers(-3, 2))
    if kind == "ambiguous":
        return Laurent.unknown_below(field, lead)
    digits = draw(st.lists(st.integers(0, field.q - 1), min_size=1,
                           max_size=3))
    return Laurent(field, digits, lead, exact=kind == "exact")


@st.composite
def poly_maps(draw, field, d, n):
    comps = []
    for _ in range(n):
        monos = []
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.lists(st.integers(0, 2), min_size=d,
                                       max_size=d)))
            coeff = draw(st.lists(st.integers(0, field.q - 1), max_size=3))
            monos.append((exps, Poly(field, coeff)))
        comps.append(tuple(monos))
    # PolyMap.field reads the first coefficient
    comps[0] += (((0,) * d, Poly.zero(field)),)
    return PolyMap(d, tuple(comps))


@st.composite
def balls(draw, field, d, N, max_radius):
    """An origin ball, or a ball about a random center of the open ball."""
    radius = draw(st.integers(-N, max_radius))
    center = tuple(
        Laurent(field, draw(st.lists(st.integers(0, field.q - 1),
                                     min_size=N, max_size=N)), -1)
        for _ in range(d))
    return BallSpec(center, radius)


def max_resolution(q, d, cells=81):
    """Largest N with at most `cells` cells in the unit ball of F**d."""
    N = 1
    while q ** ((N + 1) * d) <= cells:
        N += 1
    return N


@pytest.mark.parametrize("q", sorted(FIELDS))
class TestRawKernel:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_combo_table_matches_laurent(self, q, data):
        field = FIELDS[q]
        d = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(1, 2))
        N = data.draw(st.integers(0, max_resolution(q, d)))
        f = data.draw(poly_maps(field, d, n))
        ball = data.draw(st.none() | balls(field, d, N, 0))
        base = data.draw(laurents(field))
        coeffs = [data.draw(laurents(field)) for _ in range(n)]
        grid = CellGrid(f, ball, N)
        if ball is not None:
            # the ball's cells are exactly the unit-ball cells it contains
            assert grid.codes == [
                code for code in range(q ** (N * d))
                if ball.contains_point(reference_center(field, code, N, d))]
        try:
            expect, expect_guard = reference_table(grid, base, coeffs)
        except AmbiguousZero:
            with pytest.raises(AmbiguousZero):
                combo_degree_table(grid, base, coeffs)
            return
        rows, guard = combo_degree_table(grid, base, coeffs)
        assert guard == expect_guard
        ops = ops_for(field)
        for ((raw, floor, exact), dgr, certain), (acc, edgr, ecert) in zip(
                rows, expect, strict=True):
            assert Laurent._wrap(field, ops, raw, floor, exact) == acc
            assert (dgr, certain) == (edgr, ecert)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_enum_alphas_matches_poly_part(self, q, data):
        field = FIELDS[q]
        d = data.draw(st.integers(1, 2))
        n = 1 if q == 9 else data.draw(st.integers(1, 2))
        t = data.draw(st.integers(0, 1))
        N = data.draw(st.integers(2, max_resolution(q, d) + 1))
        f = data.draw(poly_maps(field, d, n))
        V = data.draw(balls(field, d, N, -1))
        theta = data.draw(laurents(field))
        omega = data.draw(st.sampled_from(
            (Fraction(2), Fraction(5, 2), Fraction(3))))
        if t < 1:
            with pytest.raises(ValueError, match="horizon"):
                SetFamilyConfig(f, V, theta, omega, t, N)
            return
        cfg = SetFamilyConfig(f, V, theta, omega, t, N)
        try:
            expect = reference_alphas(cfg)
        except (AmbiguousZero, PrecisionExhausted) as exc:
            with pytest.raises(type(exc)) as err:
                enum_alphas(cfg)
            assert str(err.value) == str(exc)
            return
        got = [(a.p.raw, tuple(c.raw for c in a.q)) for a in enum_alphas(cfg)]
        assert got == expect

    def test_eval_at_refuses_inexact_point(self, q):
        field = FIELDS[q]
        f = PolyMap.veronese(field, 2)
        with pytest.raises(ValueError):
            f.eval_at((parse_laurent("T^-1 + O(T^-4)", field),))

