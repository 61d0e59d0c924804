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
discrete value group.  Ambiguous cells (below the Lipschitz guard) are
excluded from both sides of every inclusion and counted, never guessed.

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
from typing import Optional

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentMat, LaurentVec
from .algebra.poly import Poly
from .diophantine import best_profile, omega_estimate
from .errors import BudgetExceeded
from .goodmaps import BallSpec, CylinderSet, cell_center
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


class _CellData:
    """Centers and map values for every cell of V, computed once."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.cells = cfg.V.cells(cfg.N)
        self.codes = sorted(self.cells.cells)
        field = cfg.field
        self.values = {}
        for code in self.codes:
            pt = cell_center(field, code, cfg.N, cfg.f.d)
            self.values[code] = cfg.f.eval_at(pt)
        perts = cfg.f.perturbation_bounds(cfg.N)
        self.pert_coeff = perts  # per component


def _f_alpha_pert(cfg, data, q):
    """Degree bound for the cell variation of x -> f(x).q + p + theta."""
    best = NEG_INF
    for qi, pf in zip(q, data.pert_coeff):
        if not qi.is_zero() and pf is not NEG_INF:
            cand = qi.deg + pf
            if best is NEG_INF or cand > best:
                best = cand
    return best


def _member_sets(cfg, data, p, q, thresh, inhomogeneous):
    """(certainly-in, ambiguous) cell sets of an I- or H-set."""
    field = cfg.field
    pert = _f_alpha_pert(cfg, data, q)
    base = Laurent.from_poly(p)
    if inhomogeneous and cfg.theta is not None:
        base = base + cfg.theta
    inside = set()
    fuzzy = set()
    for code in data.codes:
        vals = data.values[code]
        acc = base
        for qi, v in zip(q, vals):
            if not qi.is_zero():
                acc = acc + v * qi
        if acc.raw:
            d = acc.lead
        elif acc.exact:
            d = NEG_INF
        else:
            fuzzy.add(code)
            continue
        certain = pert is NEG_INF or (d is not NEG_INF and d > pert)
        if certain:
            if d is NEG_INF or d <= thresh:
                inside.add(code)
        elif pert is not NEG_INF and pert <= thresh:
            inside.add(code)  # the whole cell provably lies below
        else:
            fuzzy.add(code)
    return frozenset(inside), frozenset(fuzzy)


def build_I_set(cfg, alpha, omega=None):
    """I_t(alpha, psi_omega(t)) as cells of V, plus its ambiguous cells."""
    thresh = cfg.threshold(omega)
    inside, fuzzy = _member_sets(cfg, _cell_data(cfg), alpha.p, alpha.q,
                                 thresh, True)
    cs = CylinderSet(cfg.field, cfg.N, cfg.f.d, inside)
    return cs, fuzzy


def build_H_set(cfg, alpha, omega=None):
    """H_t(alpha, psi_omega(t)): the homogeneous twin (theta absent)."""
    thresh = cfg.threshold(omega)
    inside, fuzzy = _member_sets(cfg, _cell_data(cfg), alpha.p, alpha.q,
                                 thresh, False)
    cs = CylinderSet(cfg.field, cfg.N, cfg.f.d, inside)
    return cs, fuzzy


_DATA_CACHE = {}


def _cell_data(cfg):
    key = id(cfg)
    data = _DATA_CACHE.get(key)
    if data is None or data.cfg is not cfg:
        data = _CellData(cfg)
        _DATA_CACHE.clear()
        _DATA_CACHE[key] = data
    return data


def _iter_q_vectors(cfg):
    field = cfg.field
    n = cfg.n
    per = field.q ** (cfg.t + 1)
    total = per**n
    for code in range(1, total):
        qs = []
        c = code
        for _ in range(n):
            w = c % per
            c //= per
            coeffs = []
            for _ in range(cfg.t + 1):
                coeffs.append(w % field.q)
                w //= field.q
            qs.append(Poly(field, coeffs))
        yield tuple(qs)


def enum_alphas(cfg):
    """All alpha with possibly nonempty I_t(alpha, psi_omega(t)).

    For a cell to meet the sublevel set, p must cancel the polynomial
    part of f(x).q + theta there (anything else leaves |F| >= 1), so
    scanning cells yields the complete candidate list; candidates whose
    fractional part certainly misses the threshold everywhere are
    dropped.
    """
    field = cfg.field
    if field.q ** ((cfg.n + 1) * (cfg.t + 1)) > ENUM_BUDGET:
        raise BudgetExceeded("alpha enumeration exceeds the budget")
    data = _cell_data(cfg)
    thresh = cfg.threshold()
    out = []
    seen = set()
    theta = cfg.theta if cfg.theta is not None else Laurent.zero(field)
    for q in _iter_q_vectors(cfg):
        pert = _f_alpha_pert(cfg, data, q)
        for code in data.codes:
            vals = data.values[code]
            acc = theta
            for qi, v in zip(q, vals):
                if not qi.is_zero():
                    acc = acc + v * qi
            p = -acc.poly_part()
            frac = acc + Laurent.from_poly(p)
            if frac.raw:
                d = frac.lead
            elif frac.exact:
                d = NEG_INF
            else:
                d = None
            possible = (
                d is None
                or d is NEG_INF
                or d <= thresh
                or not (pert is NEG_INF or d > pert)
            )
            if not possible:
                continue
            key = (p.raw, tuple(c.raw for c in q))
            if key not in seen:
                seen.add(key)
                out.append(AlphaIndex(p, q))
    return out


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

    Pairs sharing q have provably empty intersections (the ultrametric
    would force p = p'), asserted as the degenerate branch.
    """
    alphas = enum_alphas(cfg)
    data = _cell_data(cfg)
    thresh = cfg.threshold()
    isets = []
    ambiguous = 0
    for a in alphas:
        inside, fuzzy = _member_sets(cfg, data, a.p, a.q, thresh, True)
        isets.append((a, inside, fuzzy))
        ambiguous += len(fuzzy)
    violations = []
    tested = 0
    hcache = {}
    for i in range(len(isets)):
        a, ina, fza = isets[i]
        for j in range(i + 1, len(isets)):
            b, inb, fzb = isets[j]
            tested += 1
            common = ina & inb
            qdiff = tuple(x - y for x, y in zip(a.q, b.q))
            if all(c.is_zero() for c in qdiff):
                if common:
                    violations.append({
                        "pair": (i, j),
                        "kind": "degenerate_nonempty",
                        "cells": sorted(common),
                    })
                continue
            if not common:
                continue
            key = ((a.p - b.p).raw, tuple(c.raw for c in qdiff))
            if key not in hcache:
                hcache[key] = _member_sets(cfg, data, a.p - b.p, qdiff,
                                           thresh, False)
            hin, hfz = hcache[key]
            bad = common - hin - hfz - fza - fzb
            if bad:
                violations.append({
                    "pair": (i, j),
                    "kind": "inclusion_failure",
                    "cells": sorted(bad),
                })
    return PropertyReport(
        kind="intersection",
        tested=tested,
        violations=tuple(violations),
        ambiguous_cells=ambiguous,
        details={"alphas": len(alphas), "t": cfg.t, "N": cfg.N,
                 "omega": cfg.omega},
    )


def _ball_of_cell(cfg, data, code, radius_exp):
    """Cells of the ball around a cell center with the given radius."""
    q = cfg.field.q
    N = cfg.N
    d = cfg.f.d
    fixed_positions = [i for i in range(N) if -i > radius_exp]
    mod = q ** len(fixed_positions) if fixed_positions else 1
    # positions 0..len(fixed)-1 are exactly the low digits of each word
    members = set()
    words = []
    c = code
    for _ in range(d):
        words.append(c % q**N)
        c //= q**N
    prefixes = [w % mod for w in words]
    for cand in data.codes:
        cc = cand
        ok = True
        for coord in range(d):
            w = cc % q**N
            cc //= q**N
            if w % mod != prefixes[coord]:
                ok = False
                break
        if ok:
            members.add(cand)
    return frozenset(members)


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
    data = _cell_data(cfg)
    alphas = enum_alphas(cfg)
    omega_plus = (cfg.omega + 1) / 2
    thr_low = cfg.threshold()
    thr_high = cfg.threshold(omega_plus)
    vcells = data.cells.cells
    total_cells = Fraction(1, field.q ** (cfg.N * cfg.f.d))
    kt = (QPow(field.q, 1, cfg.f.d) * cfg.good_C
          * QPow(field.q, 1, -cfg.alpha0_r * cfg.n * cfg.t
                 * (cfg.omega - 1) / 2))
    rows = []
    violations = []
    ambiguous = 0
    subset_failures = []
    for idx, a in enumerate(alphas):
        in_low, fz_low = _member_sets(cfg, data, a.p, a.q, thr_low, True)
        in_high, fz_high = _member_sets(cfg, data, a.p, a.q, thr_high, True)
        ambiguous += len(fz_low) + len(fz_high)
        possible_high = in_high | fz_high
        if possible_high >= vcells:
            subset_failures.append(idx)
            continue
        if not in_low:
            rows.append({"alpha": idx, "balls": 0, "empty": True})
            continue
        balls = {}
        for code in sorted(in_low):
            r = -cfg.N
            members = frozenset([code])
            while True:
                grown = _ball_of_cell(cfg, data, code, r + 1)
                if grown <= in_high and r + 1 <= cfg.V.radius_exp:
                    members = grown
                    r += 1
                else:
                    break
            words = []
            c = code
            mod = field.q ** len([i for i in range(cfg.N) if -i > r])
            for _ in range(cfg.f.d):
                words.append((c % field.q**cfg.N) % mod)
                c //= field.q**cfg.N
            balls[(tuple(words), r)] = (members, code)
        covered = set()
        for members, _ in balls.values():
            covered |= members
        if not (in_low <= covered):
            violations.append({"alpha": idx, "kind": "coverage"})
        for (key, r), (members, code) in balls.items():
            if not members <= in_high:
                violations.append({"alpha": idx, "kind": "containment"})
            five = _ball_of_cell(cfg, data, code, r + 1) & vcells
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


def check_bz(X, theta, tau_max=20):
    """One-sided check of the two uniform/ordinary transference bounds.

    Certified lower bounds sit on the left, window estimates on the
    right, compared at tolerance 1/tau_max; precision flags make the
    verdict inconclusive rather than wrong.
    """
    tol = Fraction(1, tau_max)
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

    # trivial inequality on the same profile: omega >= omega_hat
    if est.omega_lower_infinite:
        status = "holds"
    elif est.omega_hat_infinite:
        status = "violated"  # finite omega below an infinite omega-hat
    elif est.omega_hat_window is None or est.omega_lower is None:
        status = "inconclusive"
    else:
        status = ("holds"
                  if est.omega_lower >= est.omega_hat_window - tol
                  else "violated")
    checks.append(InequalityCheck(
        "omega_ge_omega_hat", status,
        _fmt(est.omega_lower, est.omega_lower_infinite),
        _fmt(est.omega_hat_window, est.omega_hat_infinite)))
    return checks


def check_dyson(y, tau_max=20):
    """Degree-one equivalence between a row vector and its transpose.

    Each side is classified at tolerance 1/tau_max as "one" or
    "gt_one" (or flagged); the biconditional fails only on a firm
    disagreement.
    """
    tol = Fraction(1, tau_max)
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
        if est.omega_lower_infinite:
            st = "holds"
        elif est.omega_hat_infinite:
            st = "violated"
        elif est.omega_hat_window is None or est.omega_lower is None:
            st = "inconclusive"
        else:
            st = ("holds" if est.omega_lower >= est.omega_hat_window - tol
                  else "violated")
        checks.append(InequalityCheck(
            f"omega_ge_omega_hat_{name}", st,
            _fmt(est.omega_lower, est.omega_lower_infinite),
            _fmt(est.omega_hat_window, est.omega_hat_infinite)))
    return checks
