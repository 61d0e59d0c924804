"""Intersection and contraction hypotheses, transference inequalities."""

from fractions import Fraction

import pytest

from conftest import quadratic_point, random_laurent, seeded
from ffdioph import (
    Laurent,
    LaurentMat,
    LaurentVec,
    Poly,
    parse_laurent,
    parse_poly,
)
from ffdioph.goodmaps import PolyMap, origin_ball
from ffdioph.qpow import QPow
from ffdioph.transference import (
    AlphaIndex,
    SetFamilyConfig,
    build_H_set,
    build_I_set,
    check_bz,
    check_dyson,
    enum_alphas,
    strict_degree_threshold,
    verify_contraction,
    verify_intersection,
)


def small_cfg(field, n=1, t=1, N=8, omega=Fraction(2), theta="T^-1",
              C=None, alpha0=None):
    return SetFamilyConfig(
        PolyMap.veronese(field, n),
        origin_ball(field, 1, -1),
        parse_laurent(theta, field),
        omega, t, N,
        good_C=C, alpha0_r=alpha0,
    )


class TestThresholds:
    def test_integer(self):
        assert strict_degree_threshold(Fraction(2)) == -3
        assert strict_degree_threshold(Fraction(6)) == -7

    def test_fractional(self):
        # deg < -4.5 means deg <= -5
        assert strict_degree_threshold(Fraction(9, 2)) == -5


class TestEnum:
    def test_q_vector_count_before_dedup(self, F2):
        cfg = small_cfg(F2, n=2, t=1, N=6)
        from ffdioph.transference import _iter_q_vectors

        qs = list(_iter_q_vectors(cfg))
        assert len(qs) == 15  # 2**((t+1)*n) - 1

    def test_t0_refused(self, F2):
        # a horizon below 1 has no alphas to check, so a pass is vacuous
        for t in (0, -1):
            with pytest.raises(ValueError, match="horizon"):
                small_cfg(F2, n=1, t=t, N=6)

    def test_ultrametric_exclusion(self, F2):
        # every enumerated p is a polynomial part of f*q + theta, so its
        # degree is bounded by the sup of f*q + theta over the ball
        cfg = small_cfg(F2, n=1, t=2, N=8)
        for a in enum_alphas(cfg):
            assert a.p.is_zero() or a.p.deg <= cfg.t

    def test_canonical_dedup(self, F3):
        a = AlphaIndex(parse_poly("2*T", F3), (parse_poly("2", F3),))
        c = a.canonical()
        assert c.q[0] == Poly.one(F3)

    def test_enum_budget(self, F2):
        from ffdioph.errors import BudgetExceeded

        cfg = small_cfg(F2, n=2, t=6, N=6)
        with pytest.raises(BudgetExceeded):
            enum_alphas(cfg)


class TestSetBuilders:
    def test_constructed_membership(self, F2):
        # pick a grid point x0 and choose theta = -(f(x0).q + p): the
        # cell of x0 must then belong to the I-set
        from ffdioph.goodmaps import cell_center

        f = PolyMap.veronese(F2, 1)
        N = 8
        code = 4  # x0 = T^-2, inside the open unit ball V
        x0 = cell_center(F2, code, N, 1)
        q = (parse_poly("T", F2),)
        p = Poly.zero(F2)
        val = f.eval_at(x0)[0] * q[0]
        theta = -(val + Laurent.from_poly(p))
        cfg = SetFamilyConfig(f, origin_ball(F2, 1, -1), theta,
                              Fraction(2), 1, N)
        iset, fuzzy = build_I_set(cfg, AlphaIndex(p, q))
        assert code in iset.cells or code in fuzzy

    def test_large_epsilon_never_small(self, F2):
        # a constant-1 component with q = 1 keeps |F| = 1 > eps: empty
        f = PolyMap(1, ((((0,), Poly.one(F2)),),))
        cfg = SetFamilyConfig(f, origin_ball(F2, 1, -1),
                              Laurent.zero(F2), Fraction(2), 1, 6)
        iset, fuzzy = build_I_set(cfg, AlphaIndex(Poly.zero(F2),
                                                  (Poly.one(F2),)))
        assert not iset.cells and not fuzzy

    def test_h_set_ignores_theta(self, F2):
        cfg = small_cfg(F2, n=1, t=1, N=8, theta="T^-2")
        alpha = AlphaIndex(Poly.zero(F2), (Poly.one(F2),))
        hset, _ = build_H_set(cfg, alpha)
        cfg0 = small_cfg(F2, n=1, t=1, N=8, theta="0")
        iset0, _ = build_I_set(cfg0, alpha)
        assert hset.cells == iset0.cells


class TestIntersection:
    @pytest.mark.parametrize("t", [1, 2])
    def test_linear_map(self, F2, t):
        cfg = small_cfg(F2, n=1, t=t, N=8)
        rep = verify_intersection(cfg)
        assert rep.passed
        assert rep.tested > 0

    def test_veronese_two(self, F2):
        cfg = small_cfg(F2, n=2, t=1, N=6)
        rep = verify_intersection(cfg)
        assert rep.passed

    def test_degenerate_branch(self, F2):
        # same q, different p: the intersection is provably empty
        cfg = small_cfg(F2, n=1, t=1, N=8)
        q = (parse_poly("T", F2),)
        in1, _ = build_I_set(cfg, AlphaIndex(Poly.zero(F2), q))
        in2, _ = build_I_set(cfg, AlphaIndex(Poly.one(F2), q))
        assert in1.cells and in2.cells
        assert not in1.intersect(in2).cells

    def test_interleaved_configs(self, F2):
        # each config reads its own cell grid, whatever ran in between
        def reports(cfg):
            return (verify_intersection(cfg).as_json_dict(),
                    verify_contraction(cfg).as_json_dict())

        def make(**kw):
            return small_cfg(F2, C=QPow(2, 1), alpha0=Fraction(1), **kw)

        args = (dict(n=1, t=2, N=8, theta="T^-1"),
                dict(n=2, t=1, N=6, theta="T^-2 + T^-3"))
        a, b = make(**args[0]), make(**args[1])
        first = [reports(a), reports(b), reports(a), reports(b)]
        assert first[0] == first[2] and first[1] == first[3]
        assert first[0] != first[1]
        assert first[:2] == [reports(make(**kw)) for kw in args]

    def test_theta_zero_matches_homogeneous(self, F2):
        cfg = small_cfg(F2, n=1, t=1, N=8, theta="0")
        rep = verify_intersection(cfg)
        assert rep.passed


class TestCellBall:
    @pytest.mark.parametrize("q, d, N, center, radius", [
        (2, 1, 6, "0", -1),
        (2, 1, 6, "T^-1 + T^-2", -3),
        (3, 2, 3, "2*T^-1", -1),
    ])
    def test_matches_brute_force(self, q, d, N, center, radius):
        # clipped enumeration against a membership scan of V's cells
        from ffdioph import FieldSpec
        from ffdioph.goodmaps import BallSpec, cell_center
        from ffdioph.transference import _cell_ball

        F = FieldSpec.get(q)
        V = BallSpec((parse_laurent(center, F),) * d, radius)
        f = PolyMap(d, tuple((((1,) + (0,) * (d - 1), Poly.one(F)),)
                             for _ in range(d)))
        cfg = SetFamilyConfig(f, V, Laurent.zero(F), Fraction(2), 1, N)
        vcodes = sorted(V.cells(N).cells)
        centers = {c: cell_center(F, c, N, d) for c in vcodes}
        for code in vcodes[::5]:
            for r in range(-N, 1):
                ball = BallSpec(centers[code], r)
                brute = {c for c in vcodes if ball.contains_point(centers[c])}
                assert _cell_ball(cfg, code, r) == brute


class TestContraction:
    def test_linear_map_margins(self, F2):
        for t in (2, 3):
            cfg = small_cfg(F2, n=1, t=t, N=10, C=QPow(2, 1),
                            alpha0=Fraction(1))
            rep = verify_contraction(cfg)
            assert rep.passed
            assert rep.details["summable"]
            assert not rep.details["subset_failures"]
            for row in rep.details["rows"]:
                if "holds" in row:
                    assert row["holds"]

    def test_summability_ratio(self, F2):
        cfg = small_cfg(F2, n=1, t=3, N=10, C=QPow(2, 1),
                        alpha0=Fraction(1))
        rep = verify_contraction(cfg)
        ratio = rep.details["summability_ratio"]
        assert ratio < 1  # e**(-n alpha0 (omega-1)/2) as a q-power

    def test_veronese_two_grid(self, F2):
        # n = 2 with the measured half-exponent for the squared
        # component: exact margins across a small horizon grid
        for t in (1, 2):
            cfg = small_cfg(F2, n=2, t=t, N=8, C=QPow(2, 1),
                            alpha0=Fraction(1, 2))
            rep = verify_contraction(cfg)
            assert rep.details["summable"]
            for row in rep.details["rows"]:
                if "holds" in row:
                    assert row["holds"], row
            assert rep.passed

    def test_empty_index_trivial(self, F2):
        # a constant component keeps |F| = 1 for every alpha: no cell
        # ever qualifies and every collection is empty
        f = PolyMap(1, ((((0,), Poly.one(F2)),),))
        cfg = SetFamilyConfig(f, origin_ball(F2, 1, -1),
                              Laurent.zero(F2), Fraction(2), 2, 8,
                              good_C=QPow(2, 1), alpha0_r=Fraction(1))
        rep = verify_contraction(cfg)
        assert rep.passed

    def test_needs_constants(self, F2):
        cfg = small_cfg(F2, n=1, t=2, N=8)
        with pytest.raises(ValueError):
            verify_contraction(cfg)

    def test_subset_condition_failure_reported(self, F2):
        # a constant component with theta cancelling it exactly makes
        # F identically zero for one alpha, so the high-threshold set
        # fills all of V: reported as a subset failure, not an error
        f = PolyMap(1, ((((0,), Poly.one(F2)),),))
        cfg = SetFamilyConfig(f, origin_ball(F2, 1, -1),
                              parse_laurent("1", F2), Fraction(2), 1, 6,
                              good_C=QPow(2, 1), alpha0_r=Fraction(1))
        rep = verify_contraction(cfg)
        assert rep.details["subset_failures"]


class TestExponentChecks:
    def test_bz_quadratic(self, F2):
        y = quadratic_point(F2, -64)
        checks = check_bz(LaurentMat([[y]]),
                          (parse_laurent("T^-1", F2),), 20)
        assert all(c.status == "holds" for c in checks)

    def test_bz_rational_infinite(self, F2):
        y = parse_laurent("T^-1 + T^-3 + T^-6", F2)
        checks = check_bz(LaurentMat([[y]]), None, 16)
        assert all(c.status in ("holds", "inconclusive") for c in checks)
        assert checks[0].status == "holds"  # inf >= anything

    def test_dyson_quadratic(self, F2):
        y = quadratic_point(F2, -64)
        checks = check_dyson(LaurentVec([y]), 20)
        assert checks[0].status == "holds"

    def test_dyson_pair_with_square(self, F2):
        # (y, y^2) for the quadratic-type y is rationally degenerate:
        # y^2 = T*y + 1, so q = (T, 1), p = 1 hits exactly and the
        # linear-form side blows up while the simultaneous side sits at
        # 2; the equivalence check must come out consistent (neither
        # side equals one) or flagged, never as a violation
        z = quadratic_point(F2, -110)
        pair = LaurentVec([z, (z * z).forget_below(-100)])
        checks = check_dyson(pair, 30)
        assert checks[0].status in ("holds", "inconclusive")
        assert "col:gt_one" in checks[0].rhs
        # with exact truncated representatives the degeneracy resolves:
        # the row side flags infinite-or-huge, the biconditional still
        # reports no violation
        exact_pair = LaurentVec([z.known_part(-110),
                                 (z * z).known_part(-100)])
        checks2 = check_dyson(exact_pair, 20)
        assert checks2[0].status in ("holds", "inconclusive")

    def test_dyson_rational_vector(self, F2):
        y = LaurentVec([parse_laurent("T^-1 + T^-3", F2),
                        parse_laurent("T^-2", F2)])
        checks = check_dyson(y, 12)
        # exact rational hits flag infinite on both sides
        assert "infinite" in checks[0].lhs and "infinite" in checks[0].rhs
        assert checks[0].status == "holds"

    def test_trivial_inequality_random(self, F2):
        # omega >= omega-hat on every instance (definition-level)
        rng = seeded(50)
        floor = -(2 + 1) * 12 - 8
        for _ in range(15):
            y = tuple(random_laurent(F2, -1, floor, rng)
                      for _ in range(2))
            checks = check_bz(LaurentMat([y]), None, 12)
            trivial = [c for c in checks
                       if c.name == "omega_ge_omega_hat"][0]
            assert trivial.status in ("holds", "inconclusive")
