"""Cylinder measures, map tables, good constants, nonplanarity, doubling."""

from collections import Counter
from fractions import Fraction

import pytest

from ffdioph import Laurent, Poly, parse_laurent
from ffdioph.algebra.degree import NEG_INF
from ffdioph.goodmaps import (
    BallSpec,
    CellGrid,
    CylinderSet,
    PolyMap,
    cell_center,
    combo_degree_table,
    cylinder_measure,
    doubling_check,
    good_constants,
    lemma_closure_check,
    nonplanarity_check,
    origin_ball,
)
from ffdioph.qpow import QPow, floor_ln


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
        assert cylinder_measure(CylinderSet.unit_ball(F2, 4, 1)) == 1

    def test_ball_measures(self, F2, F3):
        assert origin_ball(F2, 1, -3).measure() == Fraction(1, 8)
        assert origin_ball(F2, 2, -1).measure() == Fraction(1, 4)
        assert origin_ball(F2, 1, -3).cells(6).measure() == Fraction(1, 8)
        assert origin_ball(F3, 2, -1).cells(3).measure() == Fraction(1, 9)

    def test_inclusion_exclusion(self, F2):
        a = origin_ball(F2, 1, -1).cells(4)
        center = (parse_laurent("T^-1", F2),)
        b = BallSpec(center, -2).cells(4)
        union = a.union(b)
        inter = a.intersect(b)
        assert union.measure() + inter.measure() == \
            a.measure() + b.measure()

    def test_hex_export_sorted(self, F2):
        cs = origin_ball(F2, 1, -2).cells(4)
        words = cs.hex_words()
        assert words == sorted(words)
        assert len(words) == len(cs.cells)

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
