"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS line on success (run with -s to see
them; pytest -v shows one PASSED line per criterion either way).  The
runtime-bounded criteria assert their own wall-clock budgets.
"""

import time
from fractions import Fraction

from conftest import (
    liouville_point,
    quadratic_point,
    random_laurent,
    random_poly,
    seeded,
)
from ffdioph import (
    FieldSpec,
    Laurent,
    LaurentMat,
    LaurentVec,
    Poly,
    RatFn,
    laurent_from_rational,
    parse_laurent,
)
from ffdioph.algebra.degree import NEG_INF
from ffdioph.diophantine import (
    DirichletInstance,
    best_profile,
    brute_force_profile,
    cf_expand,
    dirichlet_solve,
    omega_estimate,
)
from ffdioph.errors import RankDeficient
from ffdioph.experiments import ExperimentConfig, run_extremal
from ffdioph.goodmaps import PolyMap, good_constants, origin_ball
from ffdioph.polylattice import PolyMat, Shift, weak_popov
from ffdioph.transference import (
    SetFamilyConfig,
    check_bz,
    check_dyson,
    verify_contraction,
    verify_intersection,
)


def report(num, name, detail=""):
    line = f"ACCEPTANCE {num} ({name}): PASS"
    if detail:
        line += f" [{detail}]"
    print(line)


def capped_balanced_weights(m, n, rng, cap=5):
    while True:
        tq = [rng.randrange(cap + 1) for _ in range(n)]
        total = sum(tq)
        if total <= cap * m:
            break
    tm = []
    rest = total
    for i in range(m):
        share = min(cap, -(-rest // (m - i)))  # ceil split, capped
        tm.append(share)
        rest -= share
    assert rest == 0 and all(0 <= x <= cap for x in tm)
    return tuple(tm) + tuple(tq)


def test_criterion_1_dirichlet_solvability():
    """1000 instances per (q, m, n) in {2,3} x {1..3} x {1..3}."""
    rng = seeded(101)
    t0 = time.time()
    count = 0
    for q in (2, 3):
        F = FieldSpec.get(q)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(1000):
                    t = capped_balanced_weights(m, n, rng)
                    floor = -(max(t) + sum(t[m:]) + 2)
                    Y = LaurentMat([
                        [random_laurent(F, rng.randrange(-1, 2), floor,
                                        rng) for _ in range(n)]
                        for _ in range(m)
                    ])
                    # dirichlet_solve revalidates every output from the
                    # original data and raises on any miss
                    sol = dirichlet_solve(DirichletInstance(Y, t))
                    assert any(not x.is_zero() for x in sol.q)
                    count += 1
    elapsed = time.time() - t0
    assert count == 18000
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds the 60s target"
    report(1, "dirichlet solvability",
           f"{count} instances, {elapsed:.1f}s")


def test_criterion_2_lattice_brute_equivalence():
    """best_profile == brute_force_profile, q=2, n<=2, tau<=5."""
    F = FieldSpec.get(2)
    rng = seeded(102)
    mismatches = 0
    for mode in ("homogeneous", "inhomogeneous"):
        done = 0
        while done < 100:
            n = 1 + done % 2
            Y = LaurentMat([[random_laurent(F, -1, -40, rng, exact=True)
                             for _ in range(n)]])
            theta = None
            if mode == "inhomogeneous":
                theta = (random_laurent(F, -1, -40, rng, exact=True),)
            p1 = best_profile(Y, theta, tau_max=5)
            p2 = brute_force_profile(Y, theta, tau_max=5)
            if [e.L for e in p1.entries] != [e.L for e in p2.entries]:
                mismatches += 1
            done += 1
    assert mismatches == 0
    report(2, "lattice/brute-force equivalence", "200 instances")


def test_criterion_3_continued_fractions():
    """CF identity and reconstruction for 100 random y at floor -80."""
    F = FieldSpec.get(2)
    rng = seeded(103)
    checked = 0
    for _ in range(100):
        y = random_laurent(F, -1, -80, rng)
        cf = cf_expand(y, max_terms=60)
        assert cf.convergents, "no convergents emitted"
        # the classical identity for every emitted k
        for k in range(len(cf.convergents) - 1):
            assert cf.err_degs[k] == -cf.convergents[k + 1][1].deg
        # reconstruction from the partial quotients matches y on every
        # digit above the final error level
        p, q = cf.convergents[-1]
        approx = laurent_from_rational(RatFn(p, q), -80)
        err = cf.err_degs[-1]
        depth = -80 if err is NEG_INF else err - q.deg + 1
        assert y.agrees_with(approx, max(depth, -80))
        checked += 1
    assert checked == 100
    report(3, "continued fraction identities", "100 expansions")


def test_criterion_4_exponent_sanity():
    F = FieldSpec.get(2)
    # (a) quadratic-type point: L(tau) = -tau at every tau <= 40
    y = quadratic_point(F, -90)
    prof = best_profile(LaurentMat([[y]]), None, tau_max=40)
    for e in prof.entries:
        assert e.exact and e.L == -e.tau
    est = omega_estimate(prof, 1, 1, tau_min=10)
    assert est.omega_lower == 1 and est.omega_hat_window == 1
    # (b) rational input: infinite flag
    yr = parse_laurent("T^-1 + T^-4 + T^-7", F)
    prof_r = best_profile(LaurentMat([[yr]]), None, tau_max=12)
    est_r = omega_estimate(prof_r, 1, 1, tau_min=4)
    assert est_r.omega_lower_infinite
    # (c) Liouville point: omega lower bound >= 3 by tau = 25
    yl = liouville_point(F, -130)
    prof_l = best_profile(LaurentMat([[yl]]), None, tau_max=25)
    est_l = omega_estimate(prof_l, 1, 1, tau_min=20)
    assert est_l.omega_lower >= 3
    report(4, "exponent sanity",
           f"liouville omega_lower = {est_l.omega_lower}")


def test_criterion_5_extremality_monte_carlo():
    """Veronese n in {2,3}, 200 samples, N=60, tau_max=20, both thetas."""
    t0 = time.time()
    for n in (2, 3):
        for theta in ("0", "T^-1 + T^-5"):
            cfg = ExperimentConfig(
                q=2, modulus=None, map_spec=f"veronese:{n}",
                theta=theta, tau_max=20, precision=0, depth=60,
                samples=200, seed=4242, format="json",
            )
            rep = run_extremal(cfg)
            excluded = rep.excluded_precision + rep.excluded_infinite
            assert excluded < 10, (
                f"n={n} theta={theta}: {excluded}/200 samples excluded"
            )
            medians = {qd["tau"]: qd["median"] for qd in rep.quantiles}
            assert set(medians) == {10, 15, 20}
            m20 = medians[20]
            assert Fraction(1) <= m20 <= Fraction(23, 20), (
                f"n={n} theta={theta}: median at tau=20 is {m20}"
            )
            assert medians[10] >= medians[15] >= medians[20], (
                f"n={n} theta={theta}: medians not non-increasing: "
                f"{medians}"
            )
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.0f}s exceeds the target"
    report(5, "extremality Monte Carlo", f"{elapsed:.0f}s for 4 runs")


def test_criterion_6_transference_inequalities():
    """Zero unflagged violations over 50 random instances each."""
    F = FieldSpec.get(2)
    rng = seeded(106)
    floor = -(2 + 1) * 20 - 8
    violations = []
    for i in range(50):
        y = tuple(random_laurent(F, -1, floor, rng) for _ in range(2))
        theta = (random_laurent(F, -1, floor, rng),)
        for c in check_bz(LaurentMat([y]), theta, 20):
            if c.status == "violated":
                violations.append(("bz", i, c.name))
    for i in range(50):
        y = tuple(random_laurent(F, -1, floor, rng) for _ in range(2))
        for c in check_dyson(LaurentVec(y), 20):
            if c.status == "violated":
                violations.append(("dyson", i, c.name))
    assert not violations, violations
    report(6, "transference inequalities", "100 instances")


def test_criterion_7_intersection_property():
    F = FieldSpec.get(2)
    V = origin_ball(F, 1, -1)
    theta = parse_laurent("T^-1", F)
    for n, t, N in ((1, 1, 8), (1, 2, 8), (2, 1, 6)):
        cfg = SetFamilyConfig(PolyMap.veronese(F, n), V, theta,
                              Fraction(2), t, N)
        rep = verify_intersection(cfg)
        assert rep.passed, rep.violations
    report(7, "intersection property", "3 exhaustive configurations")


def test_criterion_8_contraction_property():
    F = FieldSpec.get(2)
    # measured constants for f(x) = x: C = 1 at alpha_0 = ln 2
    one = Laurent.from_poly(Poly.one(F))
    zero = Laurent.zero(F)
    measured = good_constants(PolyMap.veronese(F, 1), (zero, one),
                              origin_ball(F, 1, 0), 10, Fraction(1))
    assert measured.C_min == 1
    V = origin_ball(F, 1, -1)
    theta = parse_laurent("T^-1", F)
    for t in (2, 3, 4):
        cfg = SetFamilyConfig(
            PolyMap.veronese(F, 1), V, theta, Fraction(2), t, 10,
            good_C=measured.C_min, alpha0_r=Fraction(1),
        )
        rep = verify_contraction(cfg)
        assert rep.passed, rep.violations
        assert rep.details["summable"]
        assert rep.details["summability_ratio"] < 1
    report(8, "contraction property", "t in {2,3,4}, measured C=1")


def test_criterion_9_property_suites():
    """>= 10^4 randomized cases per property family."""
    F2 = FieldSpec.get(2)
    F3 = FieldSpec.get(3)
    rng = seeded(109)
    # ultrametric inequality
    for _ in range(10000):
        F = F2 if rng.random() < 0.5 else F3
        a = random_laurent(F, rng.randrange(-2, 3), -8, rng, exact=True)
        b = random_laurent(F, rng.randrange(-2, 3), -8, rng, exact=True)
        if not a.coeffs or not b.coeffs:
            continue
        s = a + b
        da, db = a.degree(), b.degree()
        if s.coeffs:
            assert s.degree() <= max(da, db)
        if da != db:
            assert s.coeffs and s.degree() == max(da, db)
    # multiplicativity
    for _ in range(10000):
        F = F2 if rng.random() < 0.5 else F3
        a = random_laurent(F, rng.randrange(-2, 3), -6, rng, exact=True)
        b = random_laurent(F, rng.randrange(-2, 3), -6, rng, exact=True)
        if a.coeffs and b.coeffs:
            assert (a * b).degree() == a.degree() + b.degree()
    # field axioms over every built-in field
    fields = [FieldSpec.get(q) for q in (2, 3, 4, 5, 8, 9)]
    for _ in range(10000):
        F = fields[rng.randrange(len(fields))]
        x, y, z = (rng.randrange(F.q) for _ in range(3))
        assert F.add(x, F.add(y, z)) == F.add(F.add(x, y), z)
        assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # weak Popov invariants: the degree-sum identity on every reduction
    reductions = 0
    while reductions < 10000:
        F = F2 if rng.random() < 0.7 else F3
        k = 2 if rng.random() < 0.8 else 3
        M = PolyMat([[random_poly(F, rng.randrange(4), rng)
                      for _ in range(k)] for _ in range(k)])
        s = Shift([rng.randrange(-2, 3) for _ in range(k)])
        try:
            rb = weak_popov(M, s)
        except RankDeficient:
            continue
        # determinant degree via the pivot rows of an unshifted pass
        det = _poly_det(M)
        assert not det.is_zero()
        seff = [s[j] + M.col_scale[j] for j in range(k)]
        assert sum(d for _, d in rb.pivots) == det.deg + sum(seff)
        cols = {c for c, _ in rb.pivots}
        assert len(cols) == k
        reductions += 1
    report(9, "algebra/popov property suites", "4 x 10^4 cases")


def _poly_det(M):
    k = M.k
    rows = M.rows

    def det(rs, cols):
        if not rs:
            return Poly.one(M.field)
        acc = Poly.zero(M.field)
        for t, j in enumerate(cols):
            e = rows[rs[0]][j]
            if e.is_zero():
                continue
            sub = det(rs[1:], cols[:t] + cols[t + 1:])
            term = e * sub
            if t % 2:
                term = -term
            acc = acc + term
        return acc

    return det(tuple(range(k)), tuple(range(k)))
