"""Finite-horizon certification of the inhomogeneous transference setup.

Two families of near-solution sets live on a ball V of the unit ball:

    I(alpha, eps) = {x in V : |f(x).q + p + theta| < eps, |q| <= e**t}
    H(alpha, eps) = same with theta absent,  alpha = (p, q), q nonzero.

With the shrinking radii eps = e**(-n*omega*t) these are the building
blocks of the transference argument; this module checks, cell by cell
with exact measures, the two hypotheses that argument needs:

* intersection: I(a) meet I(a') lands in H(a - a') -- an ultrametric
  theorem, so a violation is an implementation bug, making the check a
  self-test of the set builder;
* contraction: around each point of I(alpha, psi_omega) a maximal ball
  inside I(alpha, psi_{(omega+1)/2}) is grown; the measure of the
  5-dilated balls against the sublevel set must contract at the exact
  rate q**d * C * e**(-(omega-1)/2 * n * t * alpha0), summable in t.

Thresholds realize |.| < e**(-x) as deg <= -floor(x)-1, exact in the
discrete value group.  Cell values come from the config's
goodmaps.CellGrid as raw digits with a known floor, and membership from
goodmaps' one guard rule and sublevel partition.  One pass over q
yields the alphas and their I-sets together: each q's values are split
at degree 0 into the polynomial part that p cancels and the fractional
part that the partition classifies, so the checks reuse those sets and
build only the H-sets afresh.  The intersection check visits only the
pairs that share a certainly-in cell.  Ambiguous cells (below the
Lipschitz guard, or whose value is an inexact zero, as an inexact theta
can leave) are excluded from both sides of every inclusion and counted,
never guessed.

The module also hosts the exponent-inequality checks (the two
transference inequalities relating omega(X, theta) to the transposed
uniform exponent, the degree-one equivalence between a row and its
transpose, and the trivial inequality omega >= omega-hat), evaluated
with one-sided semantics: certified lower bounds on the left, window
estimates on the right, a 1/tau tolerance, and an inconclusive verdict
whenever precision flags block the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Optional

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentMat, LaurentVec
from .algebra.poly import Poly
from .diophantine import best_profile, omega_estimate
from .errors import BudgetExceeded, PrecisionExhausted
from .goodmaps import (
    BallSpec,
    CellGrid,
    CylinderSet,
    cell_center,
    combo_degree_table,
    degree_class,
    sublevel_partition,
)
from .qpow import QPow

ENUM_BUDGET = 10**6


def strict_degree_threshold(x):
    """Largest integer degree with e**deg < e**(-x): -floor(x) - 1."""
    x = Fraction(x)
    return -(x.numerator // x.denominator) - 1


@dataclass(frozen=True)
class AlphaIndex:
    """Index alpha = (p, q) with q a nonzero polynomial vector."""

    p: Poly
    q: tuple

    def __post_init__(self):
        if all(c.is_zero() for c in self.q):
            raise ValueError("q must be nonzero")

    def canonical(self):
        """Scale so the first nonzero q_j is monic (unit dedup for H-sets)."""
        for c in self.q:
            if not c.is_zero():
                lead = c.lc()
                if lead == 1:
                    return self
                inv = self.p.field.inv(lead)
                return AlphaIndex(self.p.scaled(inv),
                                  tuple(x.scaled(inv) for x in self.q))
        raise AssertionError


@dataclass(frozen=True)
class SetFamilyConfig:
    """Everything a section-6 style run needs, horizon t included.

    alpha0_r encodes alpha_0 = alpha0_r * ln q; good_C is the measured
    constant.  The shrinking radius psi_omega(t) = e**(-n*omega*t) is
    realized as the integer threshold deg <= -floor(n*omega*t) - 1.
    """

    f: object  # PolyMap
    V: BallSpec
    theta: Laurent
    omega: Fraction
    t: int
    N: int
    good_C: Optional[QPow] = None
    alpha0_r: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "omega", Fraction(self.omega))
        if self.omega <= 1:
            raise ValueError("omega must exceed 1")
        if self.t < 1:
            raise ValueError("the horizon t must be >= 1")
        if self.V.radius_exp + 1 > 0:
            raise ValueError("5V must stay inside the unit ball")
        if self.alpha0_r is not None:
            object.__setattr__(self, "alpha0_r", Fraction(self.alpha0_r))

    @property
    def n(self):
        return self.f.n

    @property
    def field(self):
        return self.f.field

    def threshold(self, omega=None):
        w = self.omega if omega is None else Fraction(omega)
        return strict_degree_threshold(self.n * w * self.t)

    @cached_property
    def grid(self):
        """The map's values on every cell of V, computed on first use."""
        return CellGrid(self.f, self.V, self.N)


def _member_sets(cfg, p, q, thresh, inhomogeneous):
    """(certainly-in, ambiguous) cell sets of an I- or H-set.

    A cell whose value is an inexact zero is ambiguous.
    """
    base = Laurent.from_poly(p)
    if inhomogeneous and cfg.theta is not None:
        base = base + cfg.theta
    rows, guard = combo_degree_table(
        cfg.grid, base, [Laurent.from_poly(c) for c in q])
    return sublevel_partition(cfg.grid.codes, rows, guard, thresh)


def build_I_set(cfg, alpha, omega=None):
    """I_t(alpha, psi_omega(t)) as cells of V, plus its ambiguous cells."""
    inside, fuzzy = _member_sets(cfg, alpha.p, alpha.q,
                                 cfg.threshold(omega), True)
    return CylinderSet(cfg.field, cfg.N, cfg.f.d, inside), fuzzy


def build_H_set(cfg, alpha, omega=None):
    """H_t(alpha, psi_omega(t)): the homogeneous twin (theta absent)."""
    inside, fuzzy = _member_sets(cfg, alpha.p, alpha.q,
                                 cfg.threshold(omega), False)
    return CylinderSet(cfg.field, cfg.N, cfg.f.d, inside), fuzzy


def _iter_q_vectors(cfg):
    """Nonzero q-vectors of degree <= t, by code: coefficient j of q_k
    is base-q digit k*(t+1) + j."""
    width = cfg.t + 1
    digits = product(range(cfg.field.q), repeat=cfg.n * width)
    next(digits)  # the zero vector
    for code in digits:
        low = code[::-1]
        yield tuple(Poly(cfg.field, low[k:k + width])
                    for k in range(0, len(low), width))


def _alpha_sets(cfg, thresholds):
    """Candidate alphas with their I-sets, from one pass over q.

    Returns (alpha, parts) pairs, parts[k] being the (certainly-in,
    ambiguous) cells of I_t(alpha) at thresholds[k].  p must cancel a
    cell's polynomial part for it to meet a sublevel set (anything else
    leaves |F| >= 1), so each q's cells are grouped by that p and each
    group's fractional degrees go through sublevel_partition.  A group
    is a candidate when its partition at thresholds[0] is nonempty;
    candidates come by q, then by their first kept cell.

    A cell of another group p' holds p - p' plus a fraction: certainly
    outside unless guard >= deg(p - p'), and then ambiguous.  So where
    guard >= 0 an alpha whose p is at no cell centre can still have
    ambiguous cells, and is not listed: the list is complete only where
    guard < 0.
    """
    field = cfg.field
    if field.q ** ((cfg.n + 1) * (cfg.t + 1)) > ENUM_BUDGET:
        raise BudgetExceeded("alpha enumeration exceeds the budget")
    ops = cfg.f.ops
    codes = cfg.grid.codes
    theta = cfg.theta if cfg.theta is not None else Laurent.zero(field)
    out = []
    for q in _iter_q_vectors(cfg):
        rows, guard = combo_degree_table(
            cfg.grid, theta, [Laurent.from_poly(c) for c in q])
        groups = {}
        for code, ((raw, floor, exact), _, _) in zip(codes, rows):
            # split raw * T**floor at degree 0: p cancels the digits at
            # degrees >= 0, and the rest is the fractional part
            if not exact and floor > 0:
                raise PrecisionExhausted(
                    "polynomial part needs digits down to 0, "
                    f"floor is {floor}")
            if floor < 0:
                poly = ops.drop(raw, -floor)
                frac = ops.sub(raw, ops.shift(poly, -floor))
            else:
                poly, frac = ops.shift(raw, floor), ops.zero
            if frac:
                d = floor + ops.deg(frac)
            else:
                d = NEG_INF if exact else None
            gcodes, grows = groups.setdefault(ops.neg(poly), ([], []))
            gcodes.append(code)
            grows.append(((frac, floor, exact), d, degree_class(d, guard)))
        near = {}
        if guard is not NEG_INF and guard >= 0:
            # p and p' agree above the guard exactly when deg(p - p')
            # <= guard
            for p, (gcodes, _) in groups.items():
                near.setdefault(ops.drop(p, guard + 1), set()).update(gcodes)
        found = []
        for p, (gcodes, grows) in groups.items():
            parts = [sublevel_partition(gcodes, grows, guard, thresh)
                     for thresh in thresholds]
            inside, fuzzy = parts[0]
            if not (inside or fuzzy):
                continue
            if near:
                others = near[ops.drop(p, guard + 1)].difference(gcodes)
                parts = [(ins, fz | others) for ins, fz in parts]
            found.append((min(inside | fuzzy),
                          AlphaIndex(Poly._wrap(field, p), q), tuple(parts)))
        found.sort(key=lambda item: item[0])
        out.extend((alpha, parts) for _, alpha, parts in found)
    return out


def enum_alphas(cfg):
    """All alpha with possibly nonempty I_t(alpha, psi_omega(t)).

    The alphas of one _alpha_sets pass, which yields their I-sets too;
    complete only where the guard is negative.
    """
    return [alpha for alpha, _ in _alpha_sets(cfg, (cfg.threshold(),))]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of an exhaustive set-family check."""

    kind: str
    tested: int
    violations: tuple
    ambiguous_cells: int
    details: dict

    @property
    def passed(self):
        return not self.violations

    def as_json_dict(self):
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            if isinstance(v, QPow):
                return v.as_json_dict()
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            return v

        return {
            "kind": self.kind,
            "tested": self.tested,
            "violations": enc(list(self.violations)),
            "ambiguous_cells": self.ambiguous_cells,
            "passed": self.passed,
            "details": enc(self.details),
        }


def verify_intersection(cfg):
    """Cellwise check of I(a) meet I(a') inside H(a - a'), all pairs.

    Only pairs whose I-sets share a certainly-in cell can fail, so the
    alphas are bucketed by those cells and only pairs sharing a bucket
    are visited, in (i, j) order; every one of the A(A-1)/2 pairs counts
    as tested.  Pairs sharing q have provably empty intersections (the
    ultrametric would force p = p'), asserted as the degenerate branch.
    """
    thresh = cfg.threshold()
    isets = _alpha_sets(cfg, (thresh,))
    ambiguous = 0
    buckets = {}
    for i, (_, ((inside, fuzzy),)) in enumerate(isets):
        ambiguous += len(fuzzy)
        for code in inside:
            buckets.setdefault(code, []).append(i)
    if sum(len(b) ** 2 for b in buckets.values()) > ENUM_BUDGET:
        raise BudgetExceeded("intersection pairing exceeds the budget")
    partners = [set() for _ in isets]
    for bucket in buckets.values():
        for k, i in enumerate(bucket):
            partners[i].update(bucket[k + 1:])
    violations = []
    hcache = {}
    for i, (a, ((ina, fza),)) in enumerate(isets):
        for j in sorted(partners[i]):
            b, ((inb, fzb),) = isets[j]
            common = ina & inb
            qdiff = tuple(x - y for x, y in zip(a.q, b.q))
            if all(c.is_zero() for c in qdiff):
                violations.append({"pair": (i, j), "cells": sorted(common),
                                   "kind": "degenerate_nonempty"})
                continue
            key = ((a.p - b.p).raw, tuple(c.raw for c in qdiff))
            if key not in hcache:
                hcache[key] = _member_sets(cfg, a.p - b.p, qdiff, thresh,
                                           False)
            hin, hfz = hcache[key]
            bad = common - hin - hfz - fza - fzb
            if bad:
                violations.append({"pair": (i, j), "cells": sorted(bad),
                                   "kind": "inclusion_failure"})
    A = len(isets)
    return PropertyReport(
        kind="intersection",
        tested=A * (A - 1) // 2,
        violations=tuple(violations),
        ambiguous_cells=ambiguous,
        details={"alphas": A, "t": cfg.t, "N": cfg.N,
                 "omega": cfg.omega},
    )


def _cell_ball(cfg, code, radius_exp):
    """Cells of V within e**radius_exp of a cell's center.

    The radius is clipped to V's: around a point of V the larger balls
    meet V in V itself, which also keeps the enumeration within V's size.
    """
    center = cell_center(cfg.field, code, cfg.N, cfg.f.d)
    ball = BallSpec(center, min(radius_exp, cfg.V.radius_exp))
    return ball.cells(cfg.N).cells


def verify_contraction(cfg):
    """Build the maximal-ball collections and check the measure bound.

    For each alpha and each cell of I(alpha, psi_omega), grow the ball
    while it stays inside I(alpha, psi_{(omega+1)/2}); the growth stops
    by the proper-subset condition.  Coverage and containment hold by
    construction and are asserted; the contraction bound

        mu(5B meet I_low) <= k_t * mu(5B),
        k_t = q**d * C * q**(-alpha0_r * n * t * (omega-1)/2)

    is checked with exact cell counts (mu = Haar restricted to V) and
    ambiguous cells counted on the large side.
    """
    if cfg.good_C is None or cfg.alpha0_r is None:
        raise ValueError("contraction needs the measured (C, alpha_0)")
    field = cfg.field
    thr_low = cfg.threshold()
    thr_high = cfg.threshold((cfg.omega + 1) / 2)
    alphas = _alpha_sets(cfg, (thr_low, thr_high))
    total_cells = Fraction(1, field.q ** (cfg.N * cfg.f.d))
    kt = (QPow(field.q, 1, cfg.f.d) * cfg.good_C
          * QPow(field.q, 1, -cfg.alpha0_r * cfg.n * cfg.t
                 * (cfg.omega - 1) / 2))
    rows = []
    violations = []
    ambiguous = 0
    subset_failures = []
    for idx, (_, parts) in enumerate(alphas):
        (in_low, fz_low), (in_high, fz_high) = parts
        ambiguous += len(fz_low) + len(fz_high)
        if len(in_high | fz_high) == len(cfg.grid.codes):
            subset_failures.append(idx)
            continue
        if not in_low:
            rows.append({"alpha": idx, "balls": 0, "empty": True})
            continue
        # maximal balls, keyed by their cells; a cell inside an earlier
        # ball grows to that same ball, so it is skipped
        balls = {}
        covered = set()
        for code in sorted(in_low):
            if code in covered:
                continue
            r = -cfg.N
            members = frozenset([code])
            while r + 1 <= cfg.V.radius_exp:
                grown = _cell_ball(cfg, code, r + 1)
                if not grown <= in_high:
                    break
                members = grown
                r += 1
            balls[members] = (r, code)
            covered |= members
        if not (in_low <= covered):
            violations.append({"alpha": idx, "kind": "coverage"})
        for members, (r, code) in balls.items():
            if not members <= in_high:
                violations.append({"alpha": idx, "kind": "containment"})
            five = _cell_ball(cfg, code, r + 1)
            lhs_cells = five & (in_low | fz_low)
            mu_5b = Fraction(len(five)) * total_cells
            mu_lhs = Fraction(len(lhs_cells)) * total_cells
            rhs = kt * mu_5b
            holds = QPow(field.q, mu_lhs) <= rhs
            rows.append({
                "alpha": idx,
                "ball_radius": r,
                "mu_5B": mu_5b,
                "mu_5B_cap_Ilow": mu_lhs,
                "k_t_rhs": rhs,
                "holds": holds,
            })
            if not holds:
                violations.append({
                    "alpha": idx, "kind": "contraction_bound",
                    "ball_radius": r,
                    "lhs": mu_lhs, "rhs": rhs,
                })
    decay = QPow(field.q, 1,
                 -cfg.alpha0_r * cfg.n * (cfg.omega - 1) / 2)
    summable = decay < 1
    details = {
        "alphas": len(alphas),
        "k_t": kt,
        "summability_ratio": decay,
        "summable": summable,
        "subset_failures": subset_failures,
        "rows": rows,
    }
    if not summable:
        violations.append({"kind": "summability"})
    return PropertyReport(
        kind="contraction",
        tested=len(alphas),
        violations=tuple(violations),
        ambiguous_cells=ambiguous,
        details=details,
    )


# ---------------------------------------------------------------------------
# exponent transference checks
# ---------------------------------------------------------------------------


def _estimates(Y, theta, tau_max):
    prof = best_profile(Y, theta, tau_max)
    est = omega_estimate(prof, Y.m, Y.n, tau_min=max(2, tau_max // 2))
    return prof, est


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    status: str  # "holds" | "violated" | "inconclusive"
    lhs: str
    rhs: str

    def as_json_dict(self):
        return {"name": self.name, "status": self.status,
                "lhs": self.lhs, "rhs": self.rhs}


def _fmt(value, infinite):
    if infinite:
        return "inf"
    if value is None:
        return "none"
    return f"{value.numerator}/{value.denominator}"


def _tolerance(tau_max):
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    return Fraction(1, tau_max)


def _trivial_check(name, est, tol):
    """The trivial inequality omega >= omega-hat on one profile."""
    if est.omega_lower_infinite:
        status = "holds"
    elif est.omega_hat_infinite:
        status = "violated"  # finite omega below an infinite omega-hat
    elif est.omega_hat_window is None or est.omega_lower is None:
        status = "inconclusive"
    else:
        status = ("holds" if est.omega_lower >= est.omega_hat_window - tol
                  else "violated")
    return InequalityCheck(name, status,
                           _fmt(est.omega_lower, est.omega_lower_infinite),
                           _fmt(est.omega_hat_window, est.omega_hat_infinite))


def check_bz(X, theta, tau_max=20):
    """One-sided check of the two uniform/ordinary transference bounds.

    Certified lower bounds sit on the left, window estimates on the
    right, compared at tolerance 1/tau_max; precision flags make the
    verdict inconclusive rather than wrong.
    """
    tol = _tolerance(tau_max)
    _, est = _estimates(X, theta, tau_max)
    Xt = X.transpose()
    _, est_t = _estimates(Xt, None, tau_max)
    checks = []

    # omega(X, theta) >= 1 / omega_hat(X^t)
    if est.omega_lower_infinite or est_t.omega_hat_infinite:
        status = "holds"
    elif est.precision_limited or est_t.precision_limited:
        status = "inconclusive"
    elif est_t.omega_hat_window is None or est_t.omega_hat_window == 0:
        status = "inconclusive"
    else:
        lhs = est.omega_lower
        rhs = 1 / est_t.omega_hat_window
        status = "holds" if lhs >= rhs - tol else "violated"
    checks.append(InequalityCheck(
        "omega_inhom_vs_uniform_transpose", status,
        _fmt(est.omega_lower, est.omega_lower_infinite),
        _fmt(est_t.omega_hat_window, est_t.omega_hat_infinite)))

    # omega_hat(X, theta) >= 1 / omega(X^t)
    if est.omega_hat_infinite or est_t.omega_lower_infinite:
        # 1/inf = 0 on the right, or an infinite left side: both hold
        status = "holds"
    elif est.precision_limited or est_t.precision_limited:
        status = "inconclusive"
    elif (est.omega_hat_window is None or est_t.omega_lower is None
          or est_t.omega_lower == 0):
        status = "inconclusive"
    else:
        lhs = est.omega_hat_window
        rhs = 1 / est_t.omega_lower
        status = "holds" if lhs >= rhs - tol else "violated"
    checks.append(InequalityCheck(
        "uniform_inhom_vs_omega_transpose", status,
        _fmt(est.omega_hat_window, est.omega_hat_infinite),
        _fmt(est_t.omega_lower, est_t.omega_lower_infinite)))

    checks.append(_trivial_check("omega_ge_omega_hat", est, tol))
    return checks


def check_dyson(y, tau_max=20):
    """Degree-one equivalence between a row vector and its transpose.

    Each side is classified at tolerance 1/tau_max as "one" or
    "gt_one" (or flagged); the biconditional fails only on a firm
    disagreement.
    """
    tol = _tolerance(tau_max)
    entries = tuple(y) if not isinstance(y, LaurentVec) else tuple(y.entries)
    row = LaurentMat([entries])
    col = LaurentMat([[e] for e in entries])
    _, est_row = _estimates(row, None, tau_max)
    _, est_col = _estimates(col, None, tau_max)

    def classify(est):
        if est.precision_limited:
            return "inconclusive"
        if est.omega_lower_infinite:
            return "infinite"
        if est.omega_lower > 1 + tol:
            return "gt_one"
        return "one"

    srow, scol = classify(est_row), classify(est_col)
    if "inconclusive" in (srow, scol):
        status = "inconclusive"
    elif (srow == "one") == (scol == "one"):
        status = "holds"
    else:
        status = "violated"
    checks = [InequalityCheck(
        "dyson_biconditional", status,
        f"row:{srow}:{_fmt(est_row.omega_lower, est_row.omega_lower_infinite)}",
        f"col:{scol}:{_fmt(est_col.omega_lower, est_col.omega_lower_infinite)}",
    )]
    for name, est in (("row", est_row), ("col", est_col)):
        checks.append(_trivial_check(f"omega_ge_omega_hat_{name}", est, tol))
    return checks
