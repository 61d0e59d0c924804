"""Lattice reduction: weak Popov form, minima, SVP/CVP vs brute force."""

import itertools

import pytest

from conftest import random_laurent, random_poly, seeded
from ffdioph import (
    Laurent,
    LaurentVec,
    Poly,
    parse_laurent,
    parse_poly,
    sup_norm,
)
from ffdioph.algebra.degree import NEG_INF
from ffdioph.errors import RankDeficient
from ffdioph.formats import parse_matrix_text, write_matrix_file
from ffdioph.polylattice import (
    PolyMat,
    Shift,
    closest_vector,
    shortest_vector,
    successive_minima,
    weak_popov,
)


def poly_det(M):
    """Independent determinant by Laplace expansion over Poly."""
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


def check_reduced(rb, M, s):
    """All ReducedBasis invariants, from scratch."""
    k = M.k
    # U * M == R exactly
    for i in range(k):
        for j in range(k):
            acc = Poly.zero(M.field)
            for l in range(k):
                acc = acc + rb.transform.rows[i][l] * M.rows[l][j]
            assert acc == rb.matrix.rows[i][j]
    # det U is a nonzero constant
    dU = poly_det(rb.transform)
    assert dU.deg == 0
    # pivots distinct, shifted degree attained at the pivot column
    seff = [s[j] + M.col_scale[j] for j in range(k)]
    cols = set()
    for i, (col, d) in enumerate(rb.pivots):
        cols.add(col)
        row = rb.matrix.rows[i]
        degs = [(row[j].deg + seff[j]) if not row[j].is_zero() else NEG_INF
                for j in range(k)]
        assert max(degs) == d
        assert degs[col] == d
    assert len(cols) == k
    # degree-sum identity
    dM = poly_det(M)
    assert not dM.is_zero()
    assert sum(d for _, d in rb.pivots) == dM.deg + sum(seff)


def brute_module_vectors(M, coeff_deg):
    """Every nonzero Lambda-combination with coefficient degree bounds."""
    field = M.field
    k = M.k
    coeff_space = list(
        itertools.product(*(range(field.q) for _ in range(coeff_deg + 1)))
    )
    for combo in itertools.product(coeff_space, repeat=k):
        cs = [Poly(field, c) for c in combo]
        if all(c.is_zero() for c in cs):
            continue
        vec = []
        for j in range(k):
            acc = Poly.zero(field)
            for i in range(k):
                if not cs[i].is_zero():
                    acc = acc + cs[i] * M.rows[i][j]
            vec.append(acc)
        yield cs, vec


class TestWeakPopov:
    def test_already_reduced(self, F2):
        M = PolyMat([[parse_poly("T", F2), Poly.zero(F2)],
                     [Poly.zero(F2), Poly.one(F2)]])
        rb = weak_popov(M)
        assert sorted(d for _, d in rb.pivots) == [0, 1]
        check_reduced(rb, M, Shift.zero(2))

    def test_spec_2x2(self, F2):
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        rb = weak_popov(M)
        assert sum(d for _, d in rb.pivots) == 0  # det degree 0
        check_reduced(rb, M, Shift.zero(2))

    def test_rank_deficient(self, F2):
        M = PolyMat([[parse_poly("T", F2), Poly.one(F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        with pytest.raises(RankDeficient):
            weak_popov(M)

    def test_random_invariants(self, F2, F3, F9):
        rng = seeded(20)
        for F in (F2, F3, F9):
            for _ in range(60):
                k = rng.randrange(2, 4)
                M = PolyMat([[random_poly(F, rng.randrange(4), rng)
                              for _ in range(k)] for _ in range(k)])
                s = Shift([rng.randrange(-3, 4) for _ in range(k)])
                try:
                    rb = weak_popov(M, s)
                except RankDeficient:
                    continue
                check_reduced(rb, M, s)

    def test_orthogonality_property(self, F2):
        # deg_s of a combination equals max coefficient-plus-row degree
        rng = seeded(21)
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        rb = weak_popov(M)
        R = rb.matrix
        for _ in range(300):
            cs = [random_poly(F2, 3, rng) for _ in range(2)]
            if all(c.is_zero() for c in cs):
                continue
            expect = NEG_INF
            for i, c in enumerate(cs):
                if not c.is_zero():
                    cand = c.deg + rb.pivots[i][1]
                    if expect is NEG_INF or cand > expect:
                        expect = cand
            vec = []
            for j in range(2):
                acc = Poly.zero(F2)
                for i in range(2):
                    if not cs[i].is_zero():
                        acc = acc + cs[i] * R.rows[i][j]
                vec.append(acc)
            got = max((v.deg for v in vec if not v.is_zero()),
                      default=NEG_INF)
            assert got == expect


class TestMinima:
    def test_identity(self, F2):
        rb = weak_popov(PolyMat.identity(F2, 3))
        assert successive_minima(rb) == [0, 0, 0]

    def test_diag(self, F2):
        M = PolyMat([[parse_poly("T^3", F2), Poly.zero(F2)],
                     [Poly.zero(F2), Poly.one(F2)]])
        rb = weak_popov(M)
        assert successive_minima(rb) == [0, 3]

    def test_second_minimum_vs_brute(self, F2):
        # the second minimum is the smallest degree of a module vector
        # independent of the shortest one; the reduced pivot degrees
        # must realize it
        rng = seeded(25)
        checked = 0
        while checked < 10:
            M = PolyMat([[random_poly(F2, 2, rng) for _ in range(2)]
                         for _ in range(2)])
            try:
                rb = weak_popov(M)
            except RankDeficient:
                continue
            lam1, lam2 = successive_minima(rb)
            short, _, _ = shortest_vector(rb)
            best2 = None
            for _, vec in brute_module_vectors(rb.matrix, lam2 + 1):
                # independence over F_q(T): cross determinant nonzero
                det = short[0] * vec[1] - short[1] * vec[0]
                if det.is_zero():
                    continue
                degs = [v.deg for v in vec if not v.is_zero()]
                cand = max(degs)
                if best2 is None or cand < best2:
                    best2 = cand
            assert best2 == lam2
            checked += 1

    def test_balanced_dirichlet_minima_sum(self, F2):
        # 1x1 instance with shifts (t, -t): minima sum to det degree = 0
        rng = seeded(22)
        for _ in range(50):
            y = random_laurent(F2, -1, -12, rng, exact=True)
            if y.is_known_zero():
                continue
            scale = y.floor
            M = PolyMat(
                [[Poly.T(F2, -scale), Poly.zero(F2)],
                 [y.shift(-scale).poly_part(), Poly.one(F2)]],
                col_scale=(scale, 0),
            )
            t = rng.randrange(1, 5)
            rb = weak_popov(M, Shift((t, -t)))
            assert sum(successive_minima(rb)) == 0

    def test_shortest_identity(self, F2):
        rb = weak_popov(PolyMat.identity(F2, 3))
        row, d, _ = shortest_vector(rb)
        assert d == 0 and sum(1 for e in row if not e.is_zero()) == 1

    def test_shortest_vs_brute(self, F2):
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        rb = weak_popov(M)
        _, d, _ = shortest_vector(rb)
        best = None
        for _, vec in brute_module_vectors(M, 2):
            degs = [v.deg for v in vec if not v.is_zero()]
            if not degs:
                continue
            cand = max(degs)
            if best is None or cand < best:
                best = cand
        assert d == best == 0

    def test_shortest_vs_brute_random(self, F2, F3):
        rng = seeded(23)
        for F in (F2, F3):
            for _ in range(12):
                M = PolyMat([[random_poly(F, 2, rng) for _ in range(2)]
                             for _ in range(2)])
                try:
                    rb = weak_popov(M)
                except RankDeficient:
                    continue
                _, d, _ = shortest_vector(rb)
                best = None
                for _, vec in brute_module_vectors(M, 3):
                    degs = [v.deg for v in vec if not v.is_zero()]
                    if not degs:
                        continue
                    cand = max(degs)
                    if best is None or cand < best:
                        best = cand
                assert d == best

    def test_shortest_vs_brute_3x3(self, F2):
        # dimension 3: enumerate combinations of the verified reduced
        # basis; no cancellation may beat the smallest pivot degree
        rng = seeded(28)
        done = 0
        while done < 3:
            M = PolyMat([[random_poly(F2, 2, rng) for _ in range(3)]
                         for _ in range(3)])
            try:
                rb = weak_popov(M)
            except RankDeficient:
                continue
            check_reduced(rb, M, Shift.zero(3))
            _, d, _ = shortest_vector(rb)
            best = None
            for _, vec in brute_module_vectors(rb.matrix, 2):
                degs = [v.deg for v in vec if not v.is_zero()]
                if not degs:
                    continue
                cand = max(degs)
                if best is None or cand < best:
                    best = cand
            assert d == best
            done += 1


class TestClosestVector:
    def test_target_in_module(self, F2):
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        rb = weak_popov(M)
        w = LaurentVec([Laurent.from_poly(M.rows[0][0]),
                        Laurent.from_poly(M.rows[0][1])])
        _, dist, _ = closest_vector(rb, w)
        assert dist is NEG_INF

    def test_full_module_small_target(self, F2):
        rb = weak_popov(PolyMat.identity(F2, 2))
        w = LaurentVec([parse_laurent("T^-1", F2), Laurent.zero(F2)])
        v, dist, _ = closest_vector(rb, w)
        assert dist == -1
        assert all(x.is_known_zero() for x in v)

    def test_random_vs_brute(self, F2, F3):
        # check_reduced proves R spans the module (U*M = R with unit
        # det) and is weak Popov, so deg(c*R) = max(deg c_i + d_i) with
        # all d_i >= 0: once coefficient degrees exceed the target's
        # lead the vector cannot come closer than the zero vector, and
        # enumerating R-combinations up to that bound is exhaustive
        rng = seeded(24)
        for F in (F2, F3):
            for _ in range(8):
                M = PolyMat([[random_poly(F, 2, rng) for _ in range(2)]
                             for _ in range(2)])
                try:
                    rb = weak_popov(M)
                except RankDeficient:
                    continue
                check_reduced(rb, M, Shift.zero(2))
                w = LaurentVec([
                    random_laurent(F, 2, -6, rng, exact=True)
                    for _ in range(2)
                ])
                _, dist, _ = closest_vector(rb, w)
                best = sup_norm(w)  # the zero lattice vector
                bound = max(2, max(e.lead for e in w if e.coeffs)) + 1
                for _, vec in brute_module_vectors(rb.matrix, bound):
                    res = [w[j] - Laurent.from_poly(vec[j])
                           for j in range(2)]
                    cand = sup_norm(LaurentVec(res))
                    if cand < best:
                        best = cand
                assert dist == best


class TestClosestVectorInexact:
    def test_inexact_target_matches_brute(self, F2):
        # targets known only to a floor route through Laurent division;
        # answers must still match enumeration whenever they resolve
        rng = seeded(26)
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        rb = weak_popov(M)
        for _ in range(10):
            w = LaurentVec([
                random_laurent(F2, 1, -12, rng) for _ in range(2)
            ])
            _, dist, _ = closest_vector(rb, w)
            best = sup_norm(w)
            for _, vec in brute_module_vectors(rb.matrix, 3):
                res = [w[j] - Laurent.from_poly(vec[j])
                       for j in range(2)]
                try:
                    cand = sup_norm(LaurentVec(res))
                except Exception:
                    continue  # residual hidden below the floor
                if cand < best:
                    best = cand
            assert dist == best

    @staticmethod
    def brute_dist(rb, w, coeff_deg):
        best = sup_norm(w)  # the zero lattice vector
        for _, vec in brute_module_vectors(rb.matrix, coeff_deg):
            cand = sup_norm(LaurentVec([w[j] - Laurent.from_poly(vec[j])
                                        for j in range(len(vec))]))
            if cand < best:
                best = cand
        return best

    def test_tie_with_unknown_digits_resolves(self, F2):
        # the remainder's degree 3 equals the top unknown digit of w_1,
        # but no module vector of degree <= 3 reaches column 0, so every
        # completion of w_1 is at distance 3.  Rounding w * R**(-1) could
        # not tell: its second coordinate has an unknown polynomial part.
        M = PolyMat([[parse_poly("T^10", F2), Poly.zero(F2)],
                     [Poly.zero(F2), Poly.one(F2)]])
        rb = weak_popov(M)
        w = LaurentVec([parse_laurent("T^3", F2),
                        parse_laurent("O(T^3)", F2)])
        _, dist, _ = closest_vector(rb, w)
        assert dist == 3
        # coefficients of degree > 3 overshoot the target, so the
        # enumeration is exhaustive; the T^-1 digit stands in for the
        # unknown fractional tail
        for code in range(2**4):
            for tail in ("0", "T^-1"):
                u = Laurent.from_poly(Poly(F2, [(code >> i) & 1
                                                for i in range(4)]))
                done = LaurentVec([w[0], u + parse_laurent(tail, F2)])
                assert self.brute_dist(rb, done, 3) == 3

    def test_tie_absorbed_by_unknown_digits_raises(self, F2):
        # here the module vector (T^3, T^3) matches w_0 and the unknown
        # digit of w_1 at T^3: completions disagree on the distance
        from ffdioph.errors import PrecisionExhausted

        M = PolyMat([[Poly.one(F2), Poly.one(F2)],
                     [Poly.zero(F2), parse_poly("T^10", F2)]])
        rb = weak_popov(M)
        w = LaurentVec([parse_laurent("T^3", F2),
                        parse_laurent("O(T^3)", F2)])
        with pytest.raises(PrecisionExhausted):
            closest_vector(rb, w)
        low = LaurentVec([w[0], Laurent.zero(F2)])
        high = LaurentVec([w[0], parse_laurent("T^3", F2)])
        assert self.brute_dist(rb, low, 3) == 3
        assert self.brute_dist(rb, high, 3) is NEG_INF
        assert closest_vector(rb, low)[1] == 3
        assert closest_vector(rb, high)[1] is NEG_INF

    def test_shallow_target_raises(self, F2):
        from ffdioph.errors import PrecisionExhausted

        rb = weak_popov(PolyMat.identity(F2, 2))
        w = LaurentVec([Laurent.unknown_below(F2, 2),
                        Laurent.zero(F2)])
        with pytest.raises(PrecisionExhausted):
            closest_vector(rb, w)


class TestEarlyStop:
    def test_early_stop_matches_full_reduction(self, F2, F3):
        # the probe "is there a row of shifted degree <= 0" must agree
        # with the minimum of the fully reduced basis
        from ffdioph.algebra.poly import ops_for
        from ffdioph.polylattice import _reduce_raw

        rng = seeded(27)
        for F in (F2, F3):
            ops = ops_for(F)
            for _ in range(80):
                k = rng.randrange(2, 4)
                M = PolyMat([[random_poly(F, rng.randrange(4), rng)
                              for _ in range(k)] for _ in range(k)])
                s = Shift([rng.randrange(-3, 4) for _ in range(k)])
                try:
                    rb = weak_popov(M, s)
                except RankDeficient:
                    continue
                full_min = min(d for _, d in rb.pivots)
                rows = M.raw_rows()
                seff = tuple(s[j] + M.col_scale[j] for j in range(k))
                _, hit = _reduce_raw(ops, F, rows, seff, stop_degree=0)
                assert (hit is not None) == (full_min <= 0)


class TestMatrixIO:
    def test_roundtrip(self, F2, tmp_path):
        M = PolyMat([[parse_poly("T^2 + 1", F2), parse_poly("T", F2)],
                     [parse_poly("T", F2), Poly.one(F2)]])
        s = Shift((1, -1))
        path = tmp_path / "m.txt"
        write_matrix_file(path, M, s)
        M2, s2 = parse_matrix_text(path.read_text())
        assert s2 == s
        assert M2.rows == M.rows

    def test_laurent_entries_cleared(self, F2):
        text = "q=2 rows=2 cols=2 shift=0,0\nT^-1 | 1\n0 | T\n"
        M, s = parse_matrix_text(text)
        assert M.col_scale[0] == -1
        assert M.entry_laurent(0, 0) == parse_laurent("T^-1", F2)
        assert M.entry_laurent(1, 1) == parse_laurent("T", F2)
