"""Intersection and contraction hypotheses, transference inequalities."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import quadratic_point, random_laurent, seeded
from ffdioph import (
    FieldSpec,
    Laurent,
    LaurentMat,
    LaurentVec,
    Poly,
    parse_laurent,
    parse_poly,
)
from ffdioph import transference
from ffdioph.errors import BudgetExceeded
from ffdioph.goodmaps import PolyMap, cell_center, origin_ball
from ffdioph.qpow import QPow
from ffdioph.transference import (
    AlphaIndex,
    PropertyReport,
    SetFamilyConfig,
    _alpha_sets,
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
        assert not in1.cells & in2.cells

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


def per_cell_alphas(cfg):
    """Reference for enum_alphas: scan each q's cells in code order and
    list the p cancelling a cell's polynomial part when that cell is in
    the I-set of (p, q), certainly or ambiguously."""
    values = [cfg.f.eval_at(cell_center(cfg.field, code, cfg.N, cfg.f.d))
              for code in cfg.grid.codes]
    out = []
    for q in transference._iter_q_vectors(cfg):
        for code, fx in zip(cfg.grid.codes, values):
            value = cfg.theta
            for fk, qk in zip(fx, q):
                value = value + fk * qk
            alpha = AlphaIndex(-value.poly_part(), q)
            if alpha not in out:
                iset, fuzzy = build_I_set(cfg, alpha)
                if code in iset.cells or code in fuzzy:
                    out.append(alpha)
    return out


def all_pairs_intersection(cfg):
    """Reference for verify_intersection: every pair, sets per alpha."""
    alphas = enum_alphas(cfg)
    isets = []
    ambiguous = 0
    for a in alphas:
        inside, fuzzy = build_I_set(cfg, a)
        isets.append((a, inside.cells, fuzzy))
        ambiguous += len(fuzzy)
    violations = []
    tested = 0
    for i, (a, ina, fza) in enumerate(isets):
        for j in range(i + 1, len(isets)):
            b, inb, fzb = isets[j]
            tested += 1
            common = ina & inb
            qdiff = tuple(x - y for x, y in zip(a.q, b.q))
            if all(c.is_zero() for c in qdiff):
                if common:
                    violations.append({"pair": (i, j),
                                       "kind": "degenerate_nonempty",
                                       "cells": sorted(common)})
                continue
            if not common:
                continue
            hset, hfz = build_H_set(cfg, AlphaIndex(a.p - b.p, qdiff))
            bad = common - hset.cells - hfz - fza - fzb
            if bad:
                violations.append({"pair": (i, j),
                                   "kind": "inclusion_failure",
                                   "cells": sorted(bad)})
    return PropertyReport(
        kind="intersection", tested=tested, violations=tuple(violations),
        ambiguous_cells=ambiguous,
        details={"alphas": len(alphas), "t": cfg.t, "N": cfg.N,
                 "omega": cfg.omega})


@st.composite
def set_family_configs(draw):
    """Small configs: q in {2, 3}, d, n in {1, 2}, any kind of theta.

    Coefficient degrees up to 3 against N <= 5 put the guard on both
    sides of 0.  At most 256 (q-vector, cell) pairs keep the reference's
    pair loop short.
    """
    q = draw(st.sampled_from((2, 3)))
    field = FieldSpec.get(q)
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    t = draw(st.integers(1, 2)) if q ** (3 * n) <= 27 else 1
    N = 1
    while N < 5 and q ** (N * d + (t + 1) * n) <= 256:
        N += 1
    N = draw(st.integers(1, N))
    coeff = st.lists(st.integers(0, q - 1), min_size=1, max_size=4)
    monomial = st.tuples(st.tuples(*[st.integers(0, 3)] * d), coeff)
    comps = tuple(
        tuple((exps, Poly(field, c)) for exps, c in
              draw(st.lists(monomial, min_size=1, max_size=3)))
        for _ in range(n))
    degs = draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
    terms = [f"T^-{k}" for k in sorted(degs)]
    big_oh = draw(st.sampled_from((None, 3, 5, 7)))
    if big_oh is not None:
        terms = [x for x in terms if int(x[3:]) < big_oh]
        terms.append(f"O(T^-{big_oh})")
    theta = parse_laurent(" + ".join(terms) or "0", field)
    omega = draw(st.sampled_from((Fraction(3, 2), Fraction(2),
                                  Fraction(5, 2))))
    return SetFamilyConfig(PolyMap(d, comps), origin_ball(field, d, -1),
                           theta, omega, t, N)


class TestOnePass:
    """The one-pass I-sets and bucketed pairs against per-alpha rebuilds."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=set_family_configs())
    def test_against_per_alpha_sets(self, cfg):
        omega_plus = (cfg.omega + 1) / 2
        found = _alpha_sets(cfg, (cfg.threshold(),
                                  cfg.threshold(omega_plus)))
        assert [a for a, _ in found] == enum_alphas(cfg) \
            == per_cell_alphas(cfg)
        for alpha, (low, high) in found:
            assert low[0] or low[1]
            for omega, (inside, fuzzy) in ((None, low), (omega_plus, high)):
                iset, ifz = build_I_set(cfg, alpha, omega)
                assert (iset.cells, ifz) == (inside, fuzzy)
        assert (verify_intersection(cfg).as_json_dict()
                == all_pairs_intersection(cfg).as_json_dict())

    def test_guard_reaches_other_cells(self, F2):
        # deg(p - p') <= guard: a cell of another group is ambiguous for
        # p, so two alphas sharing q share ambiguous cells
        f = PolyMap(1, ((((2,), parse_poly("T^2 + T + 1", F2)),
                         ((3,), parse_poly("T^3 + T", F2))),))
        cfg = SetFamilyConfig(f, origin_ball(F2, 1, -1),
                              parse_laurent("T^-1", F2), Fraction(2), 1, 3)
        found = _alpha_sets(cfg, (cfg.threshold(),))
        seen = {}
        shared = False
        for alpha, ((inside, fuzzy),) in found:
            iset, ifz = build_I_set(cfg, alpha)
            assert (iset.cells, ifz) == (inside, fuzzy)
            shared |= bool(seen.get(alpha.q, frozenset()) & fuzzy)
            seen[alpha.q] = seen.get(alpha.q, frozenset()) | fuzzy
        assert shared

    def test_pair_budget_checked_before_pairing(self, F2, monkeypatch):
        visits = []
        member_sets = transference._member_sets

        def spy(*args):
            visits.append(args)
            return member_sets(*args)

        monkeypatch.setattr(transference, "_member_sets", spy)
        cfg = small_cfg(F2, n=1, t=1, N=8)
        verify_intersection(cfg)
        assert visits  # some pair reaches the H-set check
        visits.clear()
        # 16 q-vectors fit, but the shared cells need 128 > 100 units
        monkeypatch.setattr(transference, "ENUM_BUDGET", 100)
        with pytest.raises(BudgetExceeded, match="pairing"):
            verify_intersection(small_cfg(F2, n=1, t=1, N=8))
        assert not visits


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
