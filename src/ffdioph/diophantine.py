"""Dirichlet systems, continued fractions, and approximation exponents.

Degrees drive everything: the strict inequality |Y q - p| < e**(-t) of
the Dirichlet system is the integer condition deg <= -t-1, and the
best-approximation profile

    L(tau) = min { sup_i deg(Y_i q - p_i - theta_i) :
                   p in Lambda^m, q in Lambda^n nonzero, deg q_j < tau }

is computed exactly by probing a fixed module with varying shifts.  A
probe asks "is there a module element of shifted degree <= 0?" (or,
inhomogeneously, "is the closest-vector distance to theta <= 0?"); the
homogeneous side answers by an early-stopped weak Popov reduction, the
inhomogeneous side by a full reduction and then one division of the
target by the reduced basis.  All probes share one working basis and
one target, carried from probe to probe, so a probe only redoes the
elimination its new shift needs.  For thresholds at or above
d0 = max_i deg frac(theta_i) the two sides agree outright: adding a
polynomial vector that best-approximates theta converts witnesses both
ways under the ultrametric, so only thresholds below d0 ever need the
closest-vector machinery (where the q = 0 branch provably cannot win).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentMat, LaurentVec
from .algebra.poly import Poly, RatFn, ops_for
from .errors import (
    AllFlagged,
    AmbiguousZero,
    BudgetExceeded,
    InvalidWeights,
    PrecisionExhausted,
)
from .polylattice import (
    PolyMat,
    Shift,
    _reduce_raw,
    _reduce_target,
    shortest_vector,
    weak_popov,
)

BRUTE_FORCE_BUDGET = 10**7


# ---------------------------------------------------------------------------
# Dirichlet systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletInstance:
    """m linear forms in n variables plus a balanced weight vector."""

    Y: LaurentMat
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(int(x) for x in self.t))
        m, n = self.Y.m, self.Y.n
        if len(self.t) != m + n:
            raise InvalidWeights("weight vector must have length m+n")
        if any(x < 0 for x in self.t):
            raise InvalidWeights("weights must be nonnegative")
        if sum(self.t[:m]) != sum(self.t[m:]):
            raise InvalidWeights(
                "unbalanced weights: sum over forms must equal sum over q"
            )
        bound = -(max(self.t) + sum(self.t[m:]) + 2)
        for row in self.Y.rows:
            for e in row:
                kf = e.known_floor
                if kf is not NEG_INF and kf > bound:
                    raise PrecisionExhausted(
                        f"entry floor {kf} too shallow; need <= {bound}"
                    )

    @property
    def m(self):
        return self.Y.m

    @property
    def n(self):
        return self.Y.n


@dataclass(frozen=True)
class ApproxSolution:
    """Solution of the Dirichlet system, revalidated from scratch.

    err_degs[i] is the recomputed degree of Y_i q - p_i (NEG_INF for an
    exact hit, None when it sits below the precision floor -- still
    certified below the target since validation re-checks the bound).
    """

    p: tuple
    q: tuple
    err_degs: tuple
    q_deg: object  # int (q is nonzero so the sup degree is an int)

    def __post_init__(self):
        if all(x.is_zero() for x in self.q):
            raise ValueError("q must be nonzero")


def _cleared_system(Y, extra_floor=None):
    """Clear the m error columns of the (m+n) x (m+n) module basis.

    Returns (PolyMat, col_scale) for the basis with p-rows e_i and
    q-rows (Y_1j, ..., Y_mj, e_j).  Column i <= m is scaled by
    T**(-c_i) with c_i the lowest known degree in the column.
    """
    field = Y.field
    m, n = Y.m, Y.n
    k = m + n
    scales = []
    for i in range(m):
        floors = [extra_floor] if extra_floor is not None else []
        for j in range(n):
            e = Y.entry(i, j)
            if not e.is_known_zero():
                floors.append(e.floor)
        scales.append(min(0, *floors) if floors else 0)
    zero, one = Poly.zero(field), Poly.one(field)
    rows = []
    for i in range(m):
        row = [zero] * k
        row[i] = Poly.T(field, -scales[i]) if scales[i] else one
        rows.append(row)
    for j in range(n):
        row = []
        for i in range(m):
            e = Y.entry(i, j)
            row.append(e.known_part(scales[i]).shift(-scales[i]).poly_part())
        tail = [zero] * n
        tail[j] = one
        row.extend(tail)
        rows.append(row)
    col_scale = tuple(scales) + (0,) * n
    return PolyMat(rows, col_scale), col_scale


def dirichlet_solve(inst):
    """Solve |Y_i q - p_i| < e**(-t_i), |q_j| <= e**(t_{m+j}) exactly.

    The module basis is reduced under the shift (t_1+1, ..., t_m+1,
    -t_{m+1}, ..., -t_{m+n}); balance forces the shifted degree sum to
    m, so among the m+n rows one has shifted degree <= 0, which is
    precisely a solution of the system.
    """
    m, n = inst.m, inst.n
    M, _ = _cleared_system(inst.Y)
    s = Shift(tuple(ti + 1 for ti in inst.t[:m])
              + tuple(-tj for tj in inst.t[m:]))
    rb = weak_popov(M, s)
    row, sdeg, idx = shortest_vector(rb)
    if sdeg > 0:
        raise AssertionError(
            "no admissible vector found; balance condition violated?"
        )
    q = tuple(row[m + j] for j in range(n))
    p = tuple(-rb.transform.rows[idx][i] for i in range(m))
    return validate_solution(inst, p, q)


def validate_solution(inst, p, q):
    """Re-evaluate the system from the original data; raises on failure."""
    m, n = inst.m, inst.n
    if all(x.is_zero() for x in q):
        raise ValueError("solver returned q = 0")
    q_deg = NEG_INF
    for j, qj in enumerate(q):
        if not qj.is_zero() and not qj.deg <= inst.t[m + j]:
            raise AssertionError(f"deg q_{j} exceeds the weight")
        if not qj.is_zero() and (q_deg is NEG_INF or qj.deg > q_deg):
            q_deg = qj.deg
    errs = []
    for i in range(m):
        acc = Laurent.from_poly(-p[i])
        for j in range(n):
            if not q[j].is_zero():
                acc = acc + inst.Y.entry(i, j) * q[j]
        if not acc.deg_le(-inst.t[i] - 1):
            raise AssertionError(f"row {i} misses the error target")
        errs.append(acc.lead if acc.raw else
                    (NEG_INF if acc.exact else None))
    return ApproxSolution(tuple(p), tuple(q), tuple(errs), q_deg)


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFExpansion:
    """Artin continued fraction with convergents and certification data.

    err_degs[k] = deg(q_k y - p_k), an int, NEG_INF at exact
    termination.  For k before the last, this equals -deg q_{k+1}
    (the classical identity).  next_q_deg is the degree of the
    not-yet-computable next denominator when the final error resolved
    but the next quotient did not.
    """

    quotients: tuple
    convergents: tuple
    terminated: bool
    reason: str  # "terminated" | "max_terms" | "precision"
    err_degs: tuple
    next_q_deg: Optional[int]

    def value(self):
        """Reconstruct the last convergent as an exact rational."""
        p, q = self.convergents[-1]
        return RatFn(p, q)


def _convergents(field, quotients):
    """The convergents (p_k, q_k) of a quotient sequence, in order."""
    # start from (p_{-2}, q_{-2}) = (0, 1) and (p_{-1}, q_{-1}) = (1, 0)
    p_prev, p = Poly.zero(field), Poly.one(field)
    q_prev, q = Poly.one(field), Poly.zero(field)
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q


def _cf_rational(num, den, max_terms):
    """Exact Euclidean expansion of num/den."""
    field = num.field
    quotients = []
    a_, b_ = num, den
    reason = "terminated"
    while len(quotients) < max_terms:
        quot, rem = divmod(a_, b_)
        quotients.append(quot)
        if rem.is_zero():
            break
        a_, b_ = b_, rem
    else:
        reason = "max_terms"
    convs = list(_convergents(field, quotients))
    y, one = RatFn(num, den), Poly.one(field)
    errs = [(RatFn(qc, one) * y - RatFn(pc, one)).deg for pc, qc in convs]
    return CFExpansion(tuple(quotients), tuple(convs), reason == "terminated",
                       reason, tuple(errs), None)


def cf_expand_rational(f, max_terms=64):
    """Exact continued fraction of a rational function via Euclid."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    return _cf_rational(f.num, f.den, max_terms)


def cf_expand(y, max_terms=64):
    """Expand a Laurent value; exact inputs route through exact Euclid.

    Emitted convergents always carry a resolved error degree; when the
    precision floor blocks resolving the next one, expansion stops with
    reason "precision" (an ambiguous fractional part is never guessed).
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    field = y.field
    if y.is_known_zero():
        return CFExpansion((Poly.zero(field),),
                           ((Poly.zero(field), Poly.one(field)),),
                           True, "terminated", (NEG_INF,), None)
    if y.is_ambiguous():
        raise AmbiguousZero("cannot expand an unresolved value")
    if y.exact:
        shift = -y.floor if y.floor < 0 else 0
        num = y.shift(shift).poly_part()
        den = Poly.T(field, shift)
        return _cf_rational(num, den, max_terms)

    quotients = []
    z = y
    reason = "max_terms"
    while len(quotients) < max_terms:
        try:
            a = z.poly_part()
        except PrecisionExhausted:
            reason = "precision"
            break
        f = z - Laurent.from_poly(a)
        quotients.append(a)
        if f.is_known_zero():
            reason = "terminated"
            break
        if f.is_ambiguous():
            reason = "precision"
            break
        z = f.inverse()
    # convergents and error degrees against the original y, trimmed to
    # what the floor certifies
    convs = []
    errs = []
    next_q_deg = None
    for pc, qc in _convergents(field, quotients):
        err = y * qc - Laurent.from_poly(pc)
        if err.raw:
            d = err.lead
        elif err.exact:
            d = NEG_INF
        else:
            # unresolved error: this convergent is not certifiable
            reason = "precision"
            break
        convs.append((pc, qc))
        errs.append(d)
    if errs and errs[-1] is not NEG_INF and reason != "terminated":
        next_q_deg = -errs[-1]
    terminated = reason == "terminated" and len(convs) == len(quotients)
    return CFExpansion(tuple(quotients[:len(convs)]), tuple(convs),
                       terminated, reason, tuple(errs), next_q_deg)


# ---------------------------------------------------------------------------
# Best-approximation profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    tau: int
    L: object  # int | NEG_INF
    exact: bool


@dataclass(frozen=True)
class BestProfile:
    """tau -> minimal error degree, with per-entry certification flags."""

    mode: str  # "homogeneous" | "inhomogeneous"
    m: int
    n: int
    entries: tuple

    def entry(self, tau):
        for e in self.entries:
            if e.tau == tau:
                return e
        raise KeyError(tau)

    def to_csv(self):
        lines = ["tau,L,exact_flag"]
        for e in self.entries:
            lval = "-inf" if e.L is NEG_INF else str(e.L)
            lines.append(f"{e.tau},{lval},{int(e.exact)}")
        return "\n".join(lines) + "\n"


class _ProfileEngine:
    """Shared state for all probes against one (Y, theta) pair.

    ``cur`` is the one working basis and ``target`` the one cleared
    inhomogeneous target; every probe reduces them in place under its
    own shift, with no copy of the raw basis.  This is exact because
    every row operation is unimodular, so ``cur`` always spans the
    module (a basis left half-reduced by an early-stopped probe too),
    and ``target`` always differs from theta's cleared digits by a
    module vector; each probe's answer -- "is there a module vector of
    shifted degree <= 0" or "is the distance to the target <= 0" -- is
    an invariant of the module and the target's coset.
    """

    def __init__(self, Y, theta):
        self.field = Y.field
        self.m, self.n = Y.m, Y.n
        self.ops = ops_for(self.field)
        theta_floor = None
        if theta is not None:
            floors = [t.floor for t in theta if not t.is_known_zero()]
            theta_floor = min(floors) if floors else None
        M, self.col_scale = _cleared_system(Y, extra_floor=theta_floor)
        self.cur = M.raw_rows()
        # knowledge floor across inputs (NEG_INF when everything exact)
        kf = NEG_INF
        storage = 0
        for row in Y.rows:
            for e in row:
                f = e.known_floor
                if f is not NEG_INF and (kf is NEG_INF or f > kf):
                    kf = f
                if not e.is_known_zero():
                    storage = min(storage, e.floor)
        self.theta = None
        # d0 = max_i deg frac(theta_i): at or above it, inhomogeneous and
        # homogeneous witnesses convert into each other (ultrametric), so
        # d0_lo/d0_hi bracket the switchover when theta is inexact
        d0_lo = NEG_INF
        d0_hi = NEG_INF
        if theta is not None and any(not t.is_known_zero() for t in theta):
            self.theta = tuple(theta)
            for t in theta:
                f = t.known_floor
                if f is not NEG_INF and (kf is NEG_INF or f > kf):
                    kf = f
                if not t.is_known_zero():
                    storage = min(storage, t.floor)
                fr = t.frac_part()
                if fr.raw:
                    if d0_lo is NEG_INF or fr.lead > d0_lo:
                        d0_lo = fr.lead
                    if d0_hi is NEG_INF or fr.lead > d0_hi:
                        d0_hi = fr.lead
                elif not fr.exact:
                    if d0_hi is NEG_INF or fr.floor - 1 > d0_hi:
                        d0_hi = fr.floor - 1
            # cleared theta digits: exact polynomials, since each column
            # scale lies at or below theta's floor
            self.target = [
                theta[i].known_part(self.col_scale[i])
                .shift(-self.col_scale[i]).poly_part().raw
                for i in range(self.m)
            ] + [self.ops.zero] * self.n
        self.d0_lo = d0_lo
        self.d0_hi = d0_hi
        self.known_floor = kf
        self.storage_floor = storage

    def _seff(self, L, tau):
        s = [-L + self.col_scale[i] for i in range(self.m)]
        s += [-(tau - 1)] * self.n
        return tuple(s)

    def exists_hom(self, L, tau):
        """Nonzero (p, q), deg q_j <= tau-1, with all error degs <= L.

        Valid for L <= -1: a module element of shifted degree <= 0 with
        q = 0 would need deg p_i <= L < 0, impossible for p nonzero.
        """
        _, hit = _reduce_raw(self.ops, self.field, self.cur,
                             self._seff(L, tau), stop_degree=0)
        return hit is not None

    def exists_inhom(self, L, tau):
        if L >= self.d0_hi:
            # adding a best polynomial approximation of theta turns a
            # homogeneous witness into an inhomogeneous one and back
            return self.exists_hom(L, tau)
        if L >= self.d0_lo:
            raise PrecisionExhausted(
                "theta's fractional degree is unresolved at this level"
            )
        seff = self._seff(L, tau)
        pivots, _ = _reduce_raw(self.ops, self.field, self.cur, seff)
        # the remainder stays as the target: it differs from theta's by a
        # module vector, so every later distance is unchanged
        dist = _reduce_target(self.ops, self.field, self.cur, pivots, seff,
                              self.target, stop_degree=0)
        return dist <= 0

    def exists(self, L, tau):
        if self.theta is None:
            return self.exists_hom(L, tau)
        return self.exists_inhom(L, tau)

    def minimum(self, tau, upper):
        """Smallest certified-true threshold at this horizon.

        Returns (L, exact).  L = NEG_INF with exact=True is a genuine
        rational hit (exact inputs only); exact=False means the search
        hit the certification limit and L is only an upper bound.
        Probes below the limit are never trusted: truncation noise could
        fake them.
        """
        if self.known_floor is NEG_INF:
            limit = self.storage_floor - 1  # below any nonzero combination
        else:
            limit = self.known_floor + tau - 1
        hi = min(upper, -1)
        if hi <= limit and self.known_floor is not NEG_INF:
            return hi, False
        step = 1
        while True:
            cand = hi - step
            if cand <= limit:
                if self.exists(limit, tau):
                    if self.known_floor is NEG_INF:
                        return NEG_INF, True
                    return limit, False
                lo = limit
                break
            if self.exists(cand, tau):
                hi = cand
                step *= 2
                continue
            lo = cand
            break
        # invariant: exists(hi) true (probed or inherited), exists(lo) false
        while hi - lo > 1:
            mid = (hi + lo) // 2
            if self.exists(mid, tau):
                hi = mid
            else:
                lo = mid
        if self.known_floor is not NEG_INF and hi - 1 < limit:
            return hi, False
        return hi, True


def best_profile(Y, theta=None, tau_max=10, guard=8, taus=None):
    """Exact L(tau) via shifted lattice probes.

    ``taus`` restricts the computed horizons to a sorted subset of
    1..tau_max (monotonicity still chains the search brackets); by
    default every horizon up to tau_max is computed.
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if theta is not None and isinstance(theta, LaurentVec):
        theta = tuple(theta)
    if theta is not None and len(theta) != Y.m:
        raise ValueError("theta length must match the number of forms")
    bound = -(Y.n + 1) * tau_max - guard
    for row in Y.rows:
        for e in row:
            kf = e.known_floor
            if kf is not NEG_INF and kf > bound:
                raise PrecisionExhausted(
                    f"profile to tau={tau_max} needs floors <= {bound}"
                )
    if theta is not None:
        for t in theta:
            kf = t.known_floor
            if kf is not NEG_INF and kf > bound:
                raise PrecisionExhausted("theta floor too shallow")
    if taus is None:
        taus = range(1, tau_max + 1)
    else:
        taus = sorted(set(int(t) for t in taus))
        if taus[0] < 1 or taus[-1] > tau_max:
            raise ValueError("taus must lie in 1..tau_max")
    engine = _ProfileEngine(Y, theta)
    entries = []
    upper = -1
    hit_rational = False
    for tau in taus:
        if hit_rational:
            entries.append(ProfileEntry(tau, NEG_INF, True))
            continue
        L, exact = engine.minimum(tau, upper)
        entries.append(ProfileEntry(tau, L, exact))
        if L is NEG_INF:
            hit_rational = True
            continue
        upper = min(-1, L)
    mode = "homogeneous" if engine.theta is None else "inhomogeneous"
    return BestProfile(mode, Y.m, Y.n, tuple(entries))


def brute_force_profile(Y, theta=None, tau_max=5, deg_p_max=None):
    """Independent oracle: enumerate every q, best p per coordinate.

    For fixed q the optimal p_i is the polynomial part of
    Y_i q - theta_i (any other polynomial pushes the degree to >= 0),
    so enumerating q alone is an exhaustive search over (p, q).
    """
    field = Y.field
    m, n = Y.m, Y.n
    if field.q ** (n * tau_max) > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded("brute-force enumeration too large")
    if theta is not None and all(t.is_known_zero() for t in theta):
        theta = None
    entries = []
    ops = ops_for(field)
    for tau in range(1, tau_max + 1):
        best = None
        exact = True
        ncoef = tau  # deg q_j < tau
        total = field.q ** (n * ncoef)
        for code in range(1, total):
            qs = []
            c = code
            for _ in range(n):
                coeffs = []
                for _ in range(ncoef):
                    coeffs.append(c % field.q)
                    c //= field.q
                qs.append(Poly(field, coeffs))
            worst = NEG_INF
            ambiguous = False
            for i in range(m):
                acc = Laurent.zero(field)
                for j in range(n):
                    if not qs[j].is_zero():
                        acc = acc + Y.entry(i, j) * qs[j]
                if theta is not None:
                    acc = acc - theta[i]
                try:
                    f = acc.frac_part()
                except PrecisionExhausted:
                    ambiguous = True
                    break
                if f.raw:
                    d = f.lead
                elif f.exact:
                    d = NEG_INF
                else:
                    ambiguous = True
                    break
                if d is not NEG_INF and (worst is NEG_INF or d > worst):
                    worst = d
            if ambiguous:
                exact = False
                continue
            if best is None or worst < best:
                best = worst
        if best is None:
            raise PrecisionExhausted("all candidates ambiguous at the floor")
        entries.append(ProfileEntry(tau, best, exact))
    mode = "homogeneous" if theta is None else "inhomogeneous"
    return BestProfile(mode, m, n, tuple(entries))


# ---------------------------------------------------------------------------
# Exponent estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentEstimate:
    """Witnessed lower bound and window estimate for (omega, omega-hat).

    Ratios are m(-L)/(n tau) under the normalization with critical
    value 1.  Infinite values (rational hits) are flagged, never
    materialized as numbers.
    """

    omega_lower: Optional[Fraction]
    omega_lower_infinite: bool
    omega_hat_window: Optional[Fraction]
    omega_hat_infinite: bool
    tau_range: tuple
    precision_limited: bool

    def as_json_dict(self):
        def fmt(val, inf):
            if inf:
                return "inf"
            if val is None:
                return None
            return f"{val.numerator}/{val.denominator}"

        return {
            "omega_lower": fmt(self.omega_lower, self.omega_lower_infinite),
            "omega_hat_window": fmt(self.omega_hat_window,
                                    self.omega_hat_infinite),
            "tau_range": list(self.tau_range),
            "precision_limited": self.precision_limited,
        }


def omega_estimate(profile, m, n, tau_min=1):
    """Estimates from a profile: max ratio (lower bound for omega) and
    min ratio over tau >= tau_min (window estimate for omega-hat)."""
    usable = [e for e in profile.entries if e.exact]
    if not usable:
        raise AllFlagged("every profile entry is precision-limited")
    flagged = len(profile.entries) - len(usable)
    lower = None
    lower_inf = False
    for e in usable:
        if e.L is NEG_INF:
            lower_inf = True
            continue
        r = Fraction(m * (-e.L), n * e.tau)
        if lower is None or r > lower:
            lower = r
    window = [e for e in usable if e.tau >= tau_min]
    hat = None
    hat_inf = False
    if window and all(e.L is NEG_INF for e in window):
        hat_inf = True
    else:
        for e in window:
            if e.L is NEG_INF:
                continue
            r = Fraction(m * (-e.L), n * e.tau)
            if hat is None or r < hat:
                hat = r
    taus = [e.tau for e in profile.entries]
    return ExponentEstimate(
        omega_lower=lower,
        omega_lower_infinite=lower_inf,
        omega_hat_window=hat,
        omega_hat_infinite=hat_inf,
        tau_range=(min(taus), max(taus)),
        precision_limited=flagged > 0,
    )
