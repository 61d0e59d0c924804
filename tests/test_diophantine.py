"""Dirichlet systems, continued fractions, profiles, and estimates."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    liouville_point,
    quadratic_point,
    random_laurent,
    seeded,
)
from ffdioph import (
    FieldSpec,
    Laurent,
    LaurentMat,
    Poly,
    RatFn,
    laurent_from_rational,
    parse_laurent,
    parse_poly,
    parse_ratfn,
)
from ffdioph.algebra.degree import NEG_INF
from ffdioph.diophantine import (
    BestProfile,
    DirichletInstance,
    brute_force_profile,
    best_profile,
    cf_expand,
    cf_expand_rational,
    dirichlet_solve,
    omega_estimate,
)
from ffdioph.errors import AllFlagged, InvalidWeights, PrecisionExhausted


def balanced_weights(m, n, rng, tmax=5):
    tq = [rng.randrange(tmax + 1) for _ in range(n)]
    total = sum(tq)
    tm = [total // m + (1 if i < total % m else 0) for i in range(m)]
    return tuple(tm) + tuple(tq)


class TestDirichlet:
    def test_balance_enforced(self, F2):
        Y = LaurentMat([[Laurent.unknown_below(F2, -20)]])
        with pytest.raises(InvalidWeights):
            DirichletInstance(Y, (2, 3))

    def test_floor_precondition(self, F2):
        Y = LaurentMat([[random_laurent(F2, -1, -4, seeded(30))]])
        with pytest.raises(PrecisionExhausted):
            DirichletInstance(Y, (3, 3))

    def test_zero_matrix(self, F2):
        Y = LaurentMat([[Laurent.zero(F2), Laurent.zero(F2)]])
        sol = dirichlet_solve(DirichletInstance(Y, (4, 2, 2)))
        assert all(p.is_zero() for p in sol.p)
        assert sol.q_deg <= 2

    def test_spec_1x1_example(self, F2):
        Y = LaurentMat([[parse_laurent("T^-1 + O(T^-30)", F2)]])
        sol = dirichlet_solve(DirichletInstance(Y, (2, 2)))
        assert sol.p == (Poly.one(F2),)
        assert sol.q == (parse_poly("T", F2),)

    def test_randomized_validation(self, F2, F3):
        # every output revalidated against the original data (the
        # validator raises on any miss)
        rng = seeded(31)
        for F in (F2, F3):
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    for _ in range(12):
                        t = balanced_weights(m, n, rng)
                        floor = -(max(t) + sum(t[m:]) + 2)
                        Y = LaurentMat([
                            [random_laurent(F, rng.randrange(-1, 2),
                                            floor, rng)
                             for _ in range(n)]
                            for _ in range(m)
                        ])
                        sol = dirichlet_solve(DirichletInstance(Y, t))
                        assert any(not x.is_zero() for x in sol.q)

    def test_determinism(self, F2):
        Y = LaurentMat([[parse_laurent("T^-1 + T^-4 + O(T^-30)", F2)]])
        s1 = dirichlet_solve(DirichletInstance(Y, (3, 3)))
        s2 = dirichlet_solve(DirichletInstance(Y, (3, 3)))
        assert s1.p == s2.p and s1.q == s2.q


class TestContinuedFractions:
    def test_rational_example(self, F2):
        cf = cf_expand_rational(parse_ratfn("(T^2+1)/T", F2))
        assert [repr(a) for a in cf.quotients] == ["T", "T"]
        assert cf.terminated
        # reconstruction: a_0 + 1/a_1
        assert cf.value() == parse_ratfn("(T^2+1)/T", F2)

    def test_exact_laurent_delegates(self, F2):
        y = laurent_from_rational(parse_ratfn("(T^2+1)/T", F2), -8)
        cf = cf_expand(y)
        assert cf.terminated and len(cf.quotients) == 2

    def test_quadratic_point(self, F2):
        y = quadratic_point(F2, -40)
        cf = cf_expand(y, max_terms=25)
        T = parse_poly("T", F2)
        assert cf.quotients[0].is_zero()
        assert all(a == T for a in cf.quotients[1:])
        # deg q_k = k - 1 for the convergents after a_0
        degs = [q.deg for _, q in cf.convergents]
        assert degs == list(range(len(degs)))

    def test_classical_identity(self, F2, F3):
        rng = seeded(32)
        for F in (F2, F3):
            for _ in range(40):
                y = random_laurent(F, -1, -60, rng)
                cf = cf_expand(y, max_terms=40)
                for k in range(len(cf.convergents) - 1):
                    qnext = cf.convergents[k + 1][1]
                    assert cf.err_degs[k] == -qnext.deg

    def test_partial_quotient_degrees(self, F2):
        rng = seeded(33)
        for _ in range(30):
            y = random_laurent(F2, -1, -40, rng)
            cf = cf_expand(y, max_terms=30)
            for a in cf.quotients[1:]:
                assert a.deg >= 1

    def test_convergents_coprime(self, F3):
        from ffdioph.algebra.poly import poly_gcd

        rng = seeded(34)
        for _ in range(20):
            y = random_laurent(F3, -1, -40, rng)
            cf = cf_expand(y, max_terms=30)
            for p, q in cf.convergents:
                g = poly_gcd(p, q)
                assert g.is_zero() or g.deg == 0

    def test_liouville_shallow_floor(self, F2):
        # floor -30 resolves convergent denominators up to degree 6;
        # the final error degree -18 = 6 - 24 pins the degree of the
        # next (not yet computable) denominator
        y = liouville_point(F2, -30)
        cf = cf_expand(y, max_terms=10)
        degs = [q.deg for _, q in cf.convergents]
        assert {1, 2, 6} <= set(degs)
        assert max(degs) == 6
        assert cf.reason == "precision"
        assert cf.err_degs[-1] == -18
        assert cf.next_q_deg == 18

    def test_liouville_deep_floor(self, F2):
        # the partial sums P_k / T**(k!) are convergents, so degrees
        # 1, 2, 6, 24 all appear once the floor is deep enough
        y = liouville_point(F2, -130)
        cf = cf_expand(y, max_terms=16)
        degs = [q.deg for _, q in cf.convergents]
        assert {1, 2, 6, 24} <= set(degs)

    def test_reconstruction_to_floor(self, F2):
        rng = seeded(35)
        for _ in range(25):
            y = random_laurent(F2, -1, -60, rng)
            cf = cf_expand(y, max_terms=40)
            if not cf.convergents:
                continue
            p, q = cf.convergents[-1]
            approx = laurent_from_rational(RatFn(p, q), -60)
            agree_to = cf.err_degs[-1]
            if agree_to is NEG_INF:
                agree_to = -60
            else:
                agree_to = agree_to - q.deg + 1
            assert y.agrees_with(approx, max(agree_to, -60 + q.deg))


class TestProfiles:
    def test_quadratic_profile(self, F2):
        y = quadratic_point(F2, -60)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=12)
        for e in prof.entries:
            assert e.L == -e.tau and e.exact

    def test_rational_hits_neg_inf(self, F2):
        y = parse_laurent("T^-1 + T^-3 + T^-6", F2)  # P/T^6 exactly
        prof = best_profile(LaurentMat([[y]]), None, tau_max=10)
        for e in prof.entries:
            if e.tau >= 7:
                assert e.L is NEG_INF
            else:
                assert e.L is not NEG_INF

    def test_monotone_and_dirichlet_bound(self, F2):
        rng = seeded(36)
        for _ in range(20):
            Y = LaurentMat([[random_laurent(F2, -1, -40, rng)
                             for _ in range(2)]])
            prof = best_profile(Y, None, tau_max=6)
            prev = None
            for e in prof.entries:
                assert e.L is NEG_INF or e.L <= -1
                if prev is not None and prev is not NEG_INF \
                        and e.L is not NEG_INF:
                    assert e.L <= prev
                prev = e.L

    def test_lattice_equals_brute_homogeneous(self, F2):
        rng = seeded(37)
        for n in (1, 2):
            for _ in range(15):
                Y = LaurentMat([[random_laurent(F2, -1, -40, rng,
                                                exact=True)
                                 for _ in range(n)]])
                p1 = best_profile(Y, None, tau_max=5)
                p2 = brute_force_profile(Y, None, tau_max=5)
                assert [e.L for e in p1.entries] == \
                    [e.L for e in p2.entries]

    def test_lattice_equals_brute_inhomogeneous(self, F2):
        rng = seeded(38)
        for n in (1, 2):
            for _ in range(15):
                Y = LaurentMat([[random_laurent(F2, -1, -40, rng,
                                                exact=True)
                                 for _ in range(n)]])
                th = (random_laurent(F2, -1, -40, rng, exact=True),)
                p1 = best_profile(Y, th, tau_max=5)
                p2 = brute_force_profile(Y, th, tau_max=5)
                assert [e.L for e in p1.entries] == \
                    [e.L for e in p2.entries]

    def test_lattice_equals_brute_two_forms(self, F3):
        # m = 2 exercises the multi-row error block
        rng = seeded(39)
        for _ in range(6):
            Y = LaurentMat([
                [random_laurent(F3, -1, -40, rng, exact=True)],
                [random_laurent(F3, -1, -40, rng, exact=True)],
            ])
            p1 = best_profile(Y, None, tau_max=4)
            p2 = brute_force_profile(Y, None, tau_max=4)
            assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_lattice_equals_brute_two_forms_inhomogeneous(self, F2):
        # simultaneous approximation with a two-coordinate shift: the
        # closest-vector probes must agree with enumeration coordinate
        # by coordinate
        rng = seeded(42)
        for _ in range(10):
            Y = LaurentMat([
                [random_laurent(F2, -1, -40, rng, exact=True)],
                [random_laurent(F2, -1, -40, rng, exact=True)],
            ])
            th = (random_laurent(F2, -1, -40, rng, exact=True),
                  random_laurent(F2, -1, -40, rng, exact=True))
            p1 = best_profile(Y, th, tau_max=5)
            p2 = brute_force_profile(Y, th, tau_max=5)
            assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_theta_with_polynomial_part(self, F2):
        # the polynomial part of theta is absorbed by p; the profile
        # must match the fractional-part instance
        rng = seeded(43)
        for _ in range(8):
            Y = LaurentMat([[random_laurent(F2, -1, -40, rng,
                                            exact=True)]])
            frac = random_laurent(F2, -1, -40, rng, exact=True)
            shifted = frac + Laurent.from_poly(
                parse_poly("T^2 + 1", F2))
            p1 = best_profile(Y, (shifted,), tau_max=5)
            p2 = best_profile(Y, (frac,), tau_max=5)
            assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_cvp_matches_closest_vector_targets(self, F2):
        # shifted targets at tau = 2 equal the closest_vector result
        rng = seeded(40)
        Y = LaurentMat([[parse_laurent("T^-1 + O(T^-40)", F2)]])
        for _ in range(10):
            th = (random_laurent(F2, -1, -40, rng, exact=True),)
            p1 = best_profile(Y, th, tau_max=2)
            p2 = brute_force_profile(
                LaurentMat([[parse_laurent("T^-1", F2)]]), th, tau_max=2)
            assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_zero_matrix_profile(self, F2):
        # q = e_1 with p = 0 annihilates a zero matrix at every horizon
        Y = LaurentMat([[Laurent.zero(F2), Laurent.zero(F2)]])
        prof = best_profile(Y, None, tau_max=4)
        assert all(e.L is NEG_INF for e in prof.entries)

    def test_quadratic_point_vs_brute(self, F2):
        # the CF identity gives L(tau) = -tau; brute force confirms it
        # independently for tau <= 5
        y = quadratic_point(F2, -60)
        Y = LaurentMat([[y.known_part(-40).forget_below(-40)]])
        p1 = best_profile(Y, None, tau_max=5)
        p2 = brute_force_profile(Y, None, tau_max=5)
        assert [e.L for e in p1.entries] == [e.L for e in p2.entries]
        assert [e.L for e in p1.entries] == [-1, -2, -3, -4, -5]

    def test_profile_taus_subset(self, F2):
        y = quadratic_point(F2, -60)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=12,
                            taus=(4, 8, 12))
        assert [(e.tau, e.L) for e in prof.entries] == \
            [(4, -4), (8, -8), (12, -12)]

    def test_profile_csv(self, F2):
        y = parse_laurent("T^-1 + T^-3 + T^-6", F2)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=8)
        csv = prof.to_csv()
        assert csv.splitlines()[0] == "tau,L,exact_flag"
        assert "-inf" in csv

    def test_precondition(self, F2):
        Y = LaurentMat([[random_laurent(F2, -1, -10, seeded(41))]])
        with pytest.raises(PrecisionExhausted):
            best_profile(Y, None, tau_max=10)

    def test_brute_force_budget(self, F2):
        from ffdioph.errors import BudgetExceeded

        Y = LaurentMat([[Laurent.zero(F2), Laurent.zero(F2)]])
        with pytest.raises(BudgetExceeded):
            brute_force_profile(Y, None, tau_max=13)

    def test_probe_level_equivalence(self, F2):
        # every probe answer (not just the minima) must match an
        # exhaustive membership check, across the homogeneous /
        # inhomogeneous switchover at d0 = deg frac(theta)
        from ffdioph.diophantine import _ProfileEngine

        rng = seeded(44)
        for _ in range(6):
            Y = LaurentMat([[random_laurent(F2, -1, -30, rng,
                                            exact=True)]])
            theta = (random_laurent(F2, -2, -30, rng, exact=True),)
            engine = _ProfileEngine(Y, theta)
            for tau in (1, 2, 3):
                for L in range(-8, 0):
                    got = engine.exists(L, tau)
                    want = False
                    for code in range(1, 2**tau):
                        q = Poly(F2, [(code >> i) & 1
                                      for i in range(tau)])
                        if q.is_zero():
                            continue
                        acc = Y.entry(0, 0) * q - theta[0]
                        f = acc.frac_part()
                        d = f.lead if f.coeffs else NEG_INF
                        if d is NEG_INF or d <= L:
                            want = True
                            break
                    assert got == want, (L, tau)

    def test_inhomogeneous_profile_q3(self, F3):
        rng = seeded(45)
        for _ in range(8):
            Y = LaurentMat([[random_laurent(F3, -1, -30, rng,
                                            exact=True)]])
            th = (random_laurent(F3, -1, -30, rng, exact=True),)
            p1 = best_profile(Y, th, tau_max=4)
            p2 = brute_force_profile(Y, th, tau_max=4)
            assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_profile_over_extension_field(self, F9):
        # the tuple-and-table arithmetic path end to end
        rng = seeded(46)
        Y = LaurentMat([[random_laurent(F9, -1, -25, rng, exact=True)]])
        p1 = best_profile(Y, None, tau_max=3)
        p2 = brute_force_profile(Y, None, tau_max=3)
        assert [e.L for e in p1.entries] == [e.L for e in p2.entries]

    def test_validator_rejects_bad_solution(self, F2):
        from ffdioph.diophantine import validate_solution

        Y = LaurentMat([[parse_laurent("T^-1 + T^-5 + O(T^-30)", F2)]])
        inst = DirichletInstance(Y, (3, 3))
        with pytest.raises(AssertionError):
            validate_solution(inst, (Poly.one(F2),),
                              (parse_poly("T^2", F2),))


class TestOmegaEstimate:
    def test_quadratic_omega_one(self, F2):
        y = quadratic_point(F2, -60)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=12)
        est = omega_estimate(prof, 1, 1, tau_min=4)
        assert est.omega_lower == 1
        assert est.omega_hat_window == 1
        assert not est.precision_limited

    def test_rational_infinite(self, F2):
        y = parse_laurent("T^-1 + T^-3 + T^-6", F2)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=10)
        est = omega_estimate(prof, 1, 1, tau_min=4)
        assert est.omega_lower_infinite

    def test_liouville_ratio(self, F2):
        y = liouville_point(F2, -80)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=7)
        L7 = prof.entry(7).L
        assert L7 == -18  # q = T^6, error degree 6 - 24
        est = omega_estimate(prof, 1, 1, tau_min=7)
        assert est.omega_lower >= Fraction(18, 7) > Fraction(5, 2)

    def test_all_flagged(self, F2):
        prof = BestProfile("homogeneous", 1, 1, tuple())
        with pytest.raises(AllFlagged):
            omega_estimate(prof, 1, 1)

    def test_json_shape(self, F2):
        y = quadratic_point(F2, -60)
        prof = best_profile(LaurentMat([[y]]), None, tau_max=8)
        d = omega_estimate(prof, 1, 1, tau_min=3).as_json_dict()
        assert d["omega_lower"] == "1/1"
        assert d["tau_range"] == [1, 8]


# -- warm-started profile engine -------------------------------------------

PROFILE_FIELDS = {q: FieldSpec.get(q) for q in (2, 3)}


@st.composite
def profile_inputs(draw, q, shapes, tau_max, homogeneous=None):
    """(Y, theta) with digits from T^-1 down; theta None when homogeneous.

    Inexact entries are listed down to a floor a few digits below the
    one best_profile requires at tau_max, so probes near the
    certification limit are exercised too.
    """
    field = PROFILE_FIELDS[q]
    m, n = draw(st.sampled_from(shapes))
    exact = draw(st.booleans())
    floor = -(n + 1) * tau_max - 8 - draw(st.integers(0, 3))

    def entry():
        if exact:
            size = draw(st.integers(0, -floor))
        else:
            size = -floor
        digits = draw(st.lists(st.integers(0, q - 1),
                               min_size=size, max_size=size))
        return Laurent(field, digits, -1, exact=exact,
                       floor=None if exact else floor)

    Y = LaurentMat([[entry() for _ in range(n)] for _ in range(m)])
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    theta = None if homogeneous else tuple(entry() for _ in range(m))
    return Y, theta


def _probe(engine, L, tau):
    try:
        return engine.exists(L, tau)
    except PrecisionExhausted:
        return "precision"


@pytest.mark.parametrize("q", sorted(PROFILE_FIELDS))
class TestWarmProfileEngine:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_profile_matches_brute_force(self, q, data):
        tau_max = data.draw(st.integers(1, 4 if q == 2 else 3))
        Y, theta = data.draw(profile_inputs(
            q, ((1, 1), (1, 2), (2, 1)), tau_max))
        got = best_profile(Y, theta, tau_max=tau_max)
        try:
            want = brute_force_profile(Y, theta, tau_max=tau_max)
        except PrecisionExhausted:
            assert not Y.entry(0, 0).exact
            return  # every candidate is hidden below the floor
        for g, w in zip(got.entries, want.entries):
            if g.exact and w.exact:
                assert g.L == w.L, (g, w)
        if Y.entry(0, 0).exact:
            assert all(e.exact for e in got.entries)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_probes_match_fresh_engine(self, q, data):
        # the carried basis and target never change a probe's answer,
        # whatever order the probes come in
        from ffdioph.diophantine import _ProfileEngine

        Y, theta = data.draw(profile_inputs(
            q, ((1, 1), (1, 2), (2, 1), (2, 2)), 6))
        engine = _ProfileEngine(Y, theta)
        probes = data.draw(st.lists(
            st.tuples(st.integers(-14, -1), st.integers(1, 6)),
            min_size=1, max_size=16))
        for L, tau in probes:
            assert _probe(engine, L, tau) == \
                _probe(_ProfileEngine(Y, theta), L, tau), (L, tau)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_continued_fraction_oracle(self, q, data):
        # 1x1: L(tau) = -deg q_{k+1} = deg(q_k y - p_k) for
        # deg q_k < tau <= deg q_{k+1}; no lattice involved
        tau_max = data.draw(st.integers(1, 10))
        Y, _ = data.draw(profile_inputs(q, ((1, 1),), tau_max,
                                        homogeneous=True))
        y = Y.entry(0, 0)
        assume(not y.is_ambiguous())
        cf = cf_expand(y)
        prof = best_profile(Y, None, tau_max=tau_max)
        degs = [qk.deg for _, qk in cf.convergents]
        checked = 0
        for e in prof.entries:
            if not e.exact:
                continue
            k = max(i for i, d in enumerate(degs) if d < e.tau)
            err = cf.err_degs[k]
            if err is not NEG_INF and -err < e.tau:
                continue  # q_{k+1} lies beyond the expansion's precision
            assert e.L == err, (e, degs, cf.err_degs)
            checked += 1
        if y.exact:
            assert checked == tau_max
