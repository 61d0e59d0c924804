"""Field, polynomial, Laurent, and literal layer."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import naive_poly_mul, random_laurent, random_poly, seeded
from ffdioph import (
    FieldSpec,
    Laurent,
    LaurentVec,
    Poly,
    RatFn,
    format_laurent,
    laurent_from_rational,
    parse_laurent,
    parse_poly,
    parse_ratfn,
    sup_norm,
)
from ffdioph.algebra.degree import NEG_INF
from ffdioph.algebra.poly import poly_divmod, poly_gcd
from ffdioph.errors import (
    AmbiguousZero,
    CoefficientOutOfRange,
    DivisionByZero,
    LiteralSyntaxError,
    PrecisionExhausted,
)


class TestFieldSpec:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FieldSpec(4)

    def test_rejects_reducible_modulus(self):
        # x^2 + 1 = (x+1)^2 over F_2
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 0, 1))

    def test_builtin_moduli(self):
        for q in (2, 3, 4, 5, 8, 9):
            F = FieldSpec.get(q)
            assert F.q == q

    def test_field_axioms_random(self, F9):
        rng = seeded(1)
        for _ in range(300):
            a, b, c = (rng.randrange(9) for _ in range(3))
            assert F9.add(a, F9.add(b, c)) == F9.add(F9.add(a, b), c)
            assert F9.mul(a, F9.mul(b, c)) == F9.mul(F9.mul(a, b), c)
            assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b),
                                                     F9.mul(a, c))
            if a:
                assert F9.mul(a, F9.inv(a)) == 1

    def test_element_wrapper(self, F9):
        u = F9.elem((0, 1))
        assert (u * u).coeffs == (2, 0)  # u^2 = -1 = 2 in F_9 with x^2+1

    def test_rejects_q_above_table_limit(self):
        with pytest.raises(ValueError):
            FieldSpec.get(521)
        with pytest.raises(ValueError):
            FieldSpec(2, 10)

    def test_elem_out_of_range(self, F9):
        assert FieldSpec.get(5).elem(7) == FieldSpec.get(5).elem(2)
        for raw in (9, 10, -1):
            with pytest.raises(ValueError):
                F9.elem(raw)


class TestPoly:
    def test_divmod_example(self, F2):
        a = parse_poly("T^2 + 1", F2)
        b = parse_poly("T", F2)
        q, r = poly_divmod(a, b)
        assert b * q + r == a
        assert q == parse_poly("T", F2) and r == parse_poly("1", F2)

    def test_divmod_identity_divisor(self, F3):
        rng = seeded(2)
        for _ in range(50):
            a = random_poly(F3, 6, rng)
            q, r = poly_divmod(a, Poly.one(F3))
            assert q == a and r.is_zero()

    def test_divmod_small_dividend(self, F2):
        q, r = poly_divmod(parse_poly("T", F2), parse_poly("T^3", F2))
        assert q.is_zero() and r == parse_poly("T", F2)

    def test_divmod_zero_divisor(self, F2):
        with pytest.raises(DivisionByZero):
            poly_divmod(Poly.one(F2), Poly.zero(F2))

    def test_divmod_multiply_back_random(self, F2, F3, F9):
        rng = seeded(3)
        for F in (F2, F3, F9):
            for _ in range(200):
                a = random_poly(F, 9, rng)
                b = random_poly(F, 4, rng, nonzero=True)
                q, r = poly_divmod(a, b)
                assert b * q + r == a
                assert r.deg < b.deg

    def test_mul_against_naive(self, F2, F3, F9):
        rng = seeded(4)
        for F in (F2, F3, F9):
            for _ in range(200):
                a = random_poly(F, 8, rng)
                b = random_poly(F, 8, rng)
                assert a * b == naive_poly_mul(F, a, b)

    def test_gcd(self, F2):
        a = parse_poly("T^2 + 1", F2)  # (T+1)^2
        b = parse_poly("T^2 + T", F2)  # T(T+1)
        assert poly_gcd(a, b) == parse_poly("T + 1", F2)

    def test_ratfn_canonical(self, F3):
        num = parse_poly("2*T^2 + 2", F3)
        den = parse_poly("2*T", F3)
        f = RatFn(num, den)
        assert f.den.lc() == 1
        assert f == RatFn(parse_poly("T^2 + 1", F3), parse_poly("T", F3))


class TestLaurent:
    def test_degree_of_zero(self, F2):
        assert Laurent.zero(F2).degree() is NEG_INF

    def test_degree_simple(self, F2):
        assert parse_laurent("T^3 + 1", F2).degree() == 3

    def test_ambiguous_zero_degree(self, F2):
        a = Laurent.unknown_below(F2, -10)
        with pytest.raises(AmbiguousZero):
            a.degree()

    def test_from_rational_monomial_den(self, F2):
        s = laurent_from_rational(parse_ratfn("1/T", F2), -4)
        assert s.exact and s == parse_laurent("T^-1", F2)

    def test_from_rational_multiply_back(self, F2, F3):
        rng = seeded(5)
        for F in (F2, F3):
            for _ in range(100):
                num = random_poly(F, 6, rng)
                den = random_poly(F, 4, rng, nonzero=True)
                floor = -12
                s = laurent_from_rational(RatFn(num, den), floor)
                f = RatFn(num, den)
                # den*s - num vanishes in every known digit
                prod = s * f.den - Laurent.from_poly(f.num)
                if prod.coeffs:
                    assert prod.lead < floor + f.den.deg + 1
                check_floor = floor + max(f.den.deg, 0)
                back = laurent_from_rational(f, check_floor)
                assert s.agrees_with(back, check_floor)

    def test_from_rational_periodic_tail(self, F2):
        s = laurent_from_rational(parse_ratfn("1/(T+1)", F2), -4)
        assert not s.exact
        assert s.tail_period is not None
        assert [s.coeff_at(d) for d in (-1, -2, -3, -4)] == [1, 1, 1, 1]

    def test_from_rational_terminating(self, F2):
        s = laurent_from_rational(parse_ratfn("(T^2+1)/T", F2), -6)
        assert s.exact
        assert s == parse_laurent("T + T^-1", F2)

    def test_char2_cancellation(self, F2):
        a = parse_laurent("T + 1", F2)
        b = parse_laurent("T", F2)
        assert a + b == parse_laurent("1", F2)

    def test_inverse_monomial(self, F2):
        assert parse_laurent("T", F2).inverse() == parse_laurent("T^-1", F2)

    def test_mul_example(self, F2):
        a = parse_laurent("T^-1 + T^-2", F2)
        b = parse_laurent("T", F2)
        assert a * b == parse_laurent("1 + T^-1", F2)

    def test_inverse_roundtrip(self, F2, F3):
        rng = seeded(6)
        for F in (F2, F3):
            for _ in range(100):
                a = random_laurent(F, rng.randrange(-2, 3), -12, rng)
                if not a.coeffs:
                    continue
                inv = a.inverse()
                prod = a * inv
                assert prod.coeff_at(0) == 1
                for d in range(-1, prod.known_floor, -1):
                    assert prod.coeff_at(d) == 0

    def test_inverse_of_ambiguous(self, F2):
        with pytest.raises(AmbiguousZero):
            Laurent.unknown_below(F2, -5).inverse()

    def test_ultrametric_inequality(self, F2, F3):
        rng = seeded(7)
        for F in (F2, F3):
            for _ in range(400):
                a = random_laurent(F, rng.randrange(-3, 4), -10, rng)
                b = random_laurent(F, rng.randrange(-3, 4), -10, rng)
                if not a.coeffs or not b.coeffs:
                    continue
                s = a + b
                da, db = a.degree(), b.degree()
                bound = max(da, db)
                if s.coeffs:
                    assert s.degree() <= bound
                if da != db:
                    assert s.coeffs and s.degree() == bound

    def test_multiplicativity(self, F2, F3):
        rng = seeded(8)
        for F in (F2, F3):
            for _ in range(400):
                a = random_laurent(F, rng.randrange(-3, 4), -10, rng,
                                   exact=True)
                b = random_laurent(F, rng.randrange(-3, 4), -10, rng,
                                   exact=True)
                if not a.coeffs or not b.coeffs:
                    continue
                assert (a * b).degree() == a.degree() + b.degree()

    def test_field_axioms_at_matching_floors(self, F2):
        rng = seeded(9)
        for _ in range(200):
            a = random_laurent(F2, 2, -8, rng)
            b = random_laurent(F2, 2, -8, rng)
            c = random_laurent(F2, 2, -8, rng)
            lhs = (a + b) + c
            rhs = a + (b + c)
            assert lhs == rhs
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert lhs.agrees_with(rhs, max(lhs.known_floor,
                                            rhs.known_floor))

    def test_precision_floors_compose(self, F2):
        a = random_laurent(F2, 1, -9, seeded(10))
        b = random_laurent(F2, 2, -7, seeded(11))
        assert (a + b).floor == -7
        prod = a * b
        assert prod.floor == max(-9 + b.degree(), -7 + a.degree())
        inv = a.inverse()
        assert inv.floor == -9 - 2 * a.degree()

    def test_degrees_are_integers(self, F2):
        # every absolute value in the API surfaces as an integer degree
        rng = seeded(12)
        for _ in range(100):
            a = random_laurent(F2, 2, -8, rng, exact=True)
            if a.coeffs:
                assert isinstance(a.degree(), int)


class TestSupNorm:
    def test_examples(self, F2):
        v = LaurentVec([parse_laurent("T^2", F2), parse_laurent("T^-1", F2)])
        assert sup_norm(v) == 2
        z = LaurentVec([Laurent.zero(F2), Laurent.zero(F2)])
        assert sup_norm(z) is NEG_INF
        w = LaurentVec([parse_laurent("T^-3", F2),
                        parse_laurent("T^-1", F2)])
        assert sup_norm(w) == -1

    def test_ambiguous_propagates(self, F2):
        v = LaurentVec([Laurent.unknown_below(F2, -4),
                        parse_laurent("T", F2)])
        with pytest.raises(AmbiguousZero):
            sup_norm(v)


class TestLiterals:
    def test_parse_example(self, F2):
        a = parse_laurent("T^2 + 1 + T^-3", F2)
        assert a.lead == 2
        assert a.coeff_at(2) == 1 and a.coeff_at(0) == 1 \
            and a.coeff_at(-3) == 1
        assert a.coeff_at(1) == 0

    def test_parse_zero(self, F2, F9):
        assert parse_laurent("0", F2).is_known_zero()
        assert parse_laurent("0", F9).is_known_zero()

    def test_coefficient_out_of_range(self, F2):
        with pytest.raises(CoefficientOutOfRange):
            parse_laurent("2*T", F2)

    def test_syntax_error_position(self, F2):
        with pytest.raises(LiteralSyntaxError) as err:
            parse_laurent("T^2 + @", F2)
        assert err.value.position == 6

    @pytest.mark.parametrize("text, position", [
        ("T^-11 + O(T^-3)", 0),
        ("T + T^-11 + O(T^-3)", 4),
        ("T^-2 + 1*T^-5 + O(T^-4)", 7),
    ])
    def test_term_below_big_oh(self, F2, text, position):
        with pytest.raises(LiteralSyntaxError) as err:
            parse_laurent(text, F2)
        assert err.value.position == position

    def test_term_at_big_oh_absorbed(self, F2):
        assert parse_laurent("T^-1 + T^-3 + O(T^-3)", F2) == \
            parse_laurent("T^-1 + O(T^-3)", F2)

    def test_roundtrip_canonical(self, F2, F9):
        rng = seeded(13)
        for F in (F2, F9):
            for _ in range(100):
                a = random_laurent(F, rng.randrange(-2, 4), -6, rng,
                                   exact=rng.random() < 0.5)
                text = format_laurent(a)
                assert parse_laurent(text, F) == a

    def test_format_descending_exponents(self, F3):
        a = parse_laurent("2*T^3 + 1 + 2*T^-2", F3)
        text = format_laurent(a)
        assert text == "2*T^3 + 1 + 2*T^-2"

    def test_extension_tuple_coeffs(self, F9):
        a = parse_laurent("[1,2]*T^2 + [0,1]", F9)
        assert a.coeff_at(2) == 1 + 2 * 3
        assert a.coeff_at(0) == 3

    def test_ratfn_parens(self, F2):
        f = parse_ratfn("(T^2+1)/T", F2)
        assert f.num == parse_poly("T^2 + 1", F2)
        assert f.den == parse_poly("T", F2)


# -- property tests for the raw digit representation ------------------------

FIELDS = {q: FieldSpec.get(q) for q in (2, 3, 9)}


@st.composite
def laurent_cases(draw, q):
    """(value, little-endian digits, degree of digit 0, floor or None).

    The digits are kept beside the value so that the checks below can
    rebuild it as a Poly without going through Laurent code.
    """
    field = FIELDS[q]
    n = draw(st.integers(0, 12))
    digits = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    low = draw(st.integers(-10, 6))
    exact = draw(st.booleans())
    floor = None
    if not exact:
        floor = low - draw(st.integers(0, 3)) if n else low
    big = list(reversed(digits))
    value = Laurent(field, big, low + n - 1, exact=exact, floor=floor)
    if floor is not None:
        digits = [0] * (low - floor) + digits
        low = floor
    return value, digits, low, floor


def _cleared(field, digits, low, base):
    """The digits as a Poly in T, over T**base (base <= low)."""
    return Poly(field, [0] * (low - base) + digits)


def _poly_degree(field, digits, low):
    """Degree of the listed digits as a value; None when all are zero."""
    p = Poly(field, digits)
    return None if p.is_zero() else low + p.deg


def _assert_digits(value, expect, base, floor, exact):
    """value has the digits of the Poly expect (over T**base) down to
    floor, and no digit above expect's top."""
    assert value.exact == exact
    if not exact:
        assert value.floor == floor
    top = base + max(expect.deg, 0) if not expect.is_zero() else base
    for d in range(floor, top + 2):
        assert value.coeff_at(d) == expect.coeff(d - base)
    assert not value.raw or value.degree() <= top


@pytest.mark.parametrize("q", sorted(FIELDS))
class TestRawRepresentation:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_add_matches_poly(self, q, data):
        field = FIELDS[q]
        a, da, la, fa = data.draw(laurent_cases(q))
        b, db, lb, fb = data.draw(laurent_cases(q))
        base = min(la, lb)
        expect = (_cleared(field, da, la, base)
                  + _cleared(field, db, lb, base))
        floors = [f for f in (fa, fb) if f is not None]
        floor = max(floors) if floors else base
        _assert_digits(a + b, expect, base, floor, not floors)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mul_matches_poly(self, q, data):
        field = FIELDS[q]
        a, da, la, fa = data.draw(laurent_cases(q))
        b, db, lb, fb = data.draw(laurent_cases(q))
        prod = a * b
        if a.is_known_zero() or b.is_known_zero():
            assert prod == Laurent.zero(field)
            return
        expect = (_cleared(field, da, la, la)
                  * _cleared(field, db, lb, lb))
        deg_a = _poly_degree(field, da, la)
        deg_b = _poly_degree(field, db, lb)
        # an operand's degree bound: its degree, or just below its floor
        up_a = deg_a if deg_a is not None else fa - 1
        up_b = deg_b if deg_b is not None else fb - 1
        floors = []
        if fa is not None:
            floors.append(fa + up_b)
        if fb is not None:
            floors.append(fb + up_a)
        floor = max(floors) if floors else la + lb
        _assert_digits(prod, expect, la + lb, floor, not floors)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_inverse_matches_rational_expansion(self, q, data):
        field = FIELDS[q]
        a, digits, low, _ = data.draw(laurent_cases(q))
        assume(a.raw)
        lead = a.degree()
        want = data.draw(st.one_of(st.none(),
                                   st.integers(-lead - 12, -lead + 2)))
        inv = a.inverse(want)
        if inv.is_ambiguous():
            assert inv.floor > -lead
            return
        # 1/a = T**(-low) / A with A the listed digits as a polynomial
        A = Poly(field, digits)
        if low <= 0:
            f = RatFn(Poly.T(field, -low), A)
        else:
            f = RatFn(Poly.one(field), A * Poly.T(field, low))
        ref = laurent_from_rational(f, inv.floor)
        if inv.exact:
            assert inv == ref
        else:
            for d in range(inv.floor, -lead + 2):
                assert inv.coeff_at(d) == ref.coeff_at(d)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equal_values_hash_equal(self, q, data):
        field = FIELDS[q]
        a, _, _, _ = data.draw(laurent_cases(q))
        pad = data.draw(st.integers(0, 3))
        coeffs = (0,) * pad + a.coeffs
        if a.exact:
            coeffs += (0,) * data.draw(st.integers(0, 3))
        twins = [
            a.shift(5).shift(-5),
            a + Laurent.zero(field),
            parse_laurent(format_laurent(a), field),
            # tail_period is a note on how a value was made, not part of it
            Laurent(field, coeffs, a.lead + pad, exact=a.exact,
                    floor=None if a.exact else a.floor, tail_period=(0, 1)),
        ]
        for b in twins:
            assert b == a
            assert hash(b) == hash(a)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_coeff_below_floor(self, q, data):
        a, _, _, _ = data.draw(laurent_cases(q))
        d = a.floor - data.draw(st.integers(1, 5))
        if a.exact:
            assert a.coeff_at(d) == 0
        else:
            with pytest.raises(PrecisionExhausted):
                a.coeff_at(d)
