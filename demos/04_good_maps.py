"""Exact Haar measure and sublevel-measure (good map) certification.

Every measure below is a rational computed by counting cells; the
sublevel inequality's right-hand side is a rational multiple of a
q-power, compared exactly in integers.
"""

from fractions import Fraction

from ffdioph import FieldSpec, Laurent, Poly
from ffdioph.goodmaps import (
    PolyMap,
    doubling_check,
    good_constants,
    lemma_closure_check,
    nonplanarity_check,
    origin_ball,
)

F2 = FieldSpec.get(2)

print("== ball measures are exact rationals ==")
for r in (0, -1, -3):
    b = origin_ball(F2, 1, r)
    print(f"ball of radius e^{r}: measure {b.measure()}")

print("\n== the map x and its sublevel constants ==")
f = PolyMap.veronese(F2, 1)
one = Laurent.from_poly(Poly.one(F2))
zero = Laurent.zero(F2)
rep = good_constants(f, (zero, one), origin_ball(F2, 1, 0), 8,
                     Fraction(1))  # alpha = 1 * ln q
print(f"sup degree {rep.sup_deg}, C_min = {rep.C_min!r}")
for j, nin, amb, ratio in rep.rows[:4]:
    print(f"  threshold e^-{j}: {nin} cells inside, ratio {ratio!r}")

print("\n== the squaring map needs half the exponent ==")
sq = PolyMap(1, ((((2,), Poly.one(F2)),),))
rep2 = good_constants(sq, (zero, one), origin_ball(F2, 1, 0), 8,
                      Fraction(1, 2))
print(f"x^2 with alpha = (ln q)/2: C_min = {rep2.C_min!r}")

print("\n== closure properties re-verified from measured data ==")
cl = lemma_closure_check(PolyMap.veronese(F2, 2),
                         origin_ball(F2, 1, 0), 7, Fraction(1))
for name, ok, note in cl.items:
    print(f"  {name}: {'ok' if ok else 'FAIL'} ({note})")

print("\n== nonplanarity witnesses ==")
ok, wit = nonplanarity_check(PolyMap.veronese(F2, 2),
                             origin_ball(F2, 1, -1), 6, trials=32,
                             seed=5)
print(f"veronese n=2: witness found = {ok} "
      f"(three points, Vandermonde determinant nonzero)")
dup = PolyMap(1, ((((1,), Poly.one(F2)),), (((1,), Poly.one(F2)),)))
ok2, _ = nonplanarity_check(dup, origin_ball(F2, 1, -1), 6, trials=32,
                            seed=5)
print(f"(x, x):       witness found = {ok2} "
      "(rows are always dependent)")

print("\n== dilation in the discrete value group ==")
D, rows = doubling_check([origin_ball(F2, 1, -2),
                          origin_ball(FieldSpec.get(3), 2, -3)])
print(f"doubling constant D = {D} exactly (2B = B since 2 < e)")
for row in rows:
    print(f"  radius e^{row['radius_exp']}: nu(5B)/nu(B) = "
          f"{row['ratio_5B']} (one value-group step, q^d)")
