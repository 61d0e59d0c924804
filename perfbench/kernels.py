"""Per-layer kernel micro-timings: public calls on fixed inputs.

Each row times one library call on inputs built from a fixed seed and
reports the median over repeats, in microseconds per call.  The rows
cover the kernel baselines the roadmap lists (Laurent add, mul and
inverse at 200 digits; best_profile 1x2 at tau=20; good_constants for
veronese:2 at N=12) plus Poly mul and divmod at degree 200, so that
work on one kernel can be credited to its layer.
"""

from __future__ import annotations

import random
import statistics
import time

from ffdioph.algebra.field import FieldSpec
from ffdioph.algebra.laurent import Laurent, LaurentMat
from ffdioph.algebra.poly import Poly
from ffdioph.diophantine import best_profile
from ffdioph.goodmaps import PolyMap, good_constants, origin_ball


def _laurent(field, rng, digits):
    vals = [rng.randrange(field.q) for _ in range(digits)]
    vals[0] = 1
    return Laurent(field, vals, -1, exact=False, floor=-digits)


def _poly(field, rng, deg):
    coeffs = [rng.randrange(field.q) for _ in range(deg)] + [1]
    return Poly(field, coeffs)


def _cases():
    """(metric name, zero-argument call, calls per timed batch)."""
    rng = random.Random(20190318)
    F2, F3 = FieldSpec.get(2), FieldSpec.get(3)
    a, b = _laurent(F2, rng, 200), _laurent(F2, rng, 200)
    cases = [
        ("kernel.laurent.add.q2_d200_us", lambda: a + b, 20),
        ("kernel.laurent.mul.q2_d200_us", lambda: a * b, 20),
        ("kernel.laurent.inverse.q2_d200_us", lambda: a.inverse(), 2),
    ]
    for field in (F2, F3):
        floor = -3 * 20 - 8
        Y = LaurentMat([[_laurent(field, rng, -floor),
                         _laurent(field, rng, -floor)]])
        cases.append((f"kernel.best_profile.1x2_q{field.q}_tau20_us",
                      lambda Y=Y: best_profile(Y, None, tau_max=20), 1))
    V2 = PolyMap.veronese(F2, 2)
    one, zero = Laurent.monomial(F2, 1, 0), Laurent.zero(F2)
    ball = origin_ball(F2, 1, 0)
    cases.append(("kernel.good_constants.veronese2_N12_us",
                  lambda: good_constants(V2, (zero, one, zero), ball, 12, 1),
                  1))
    for q in (2, 3, 9):
        field = FieldSpec.get(q)
        x, y = _poly(field, rng, 200), _poly(field, rng, 200)
        big = x * y + _poly(field, rng, 150)
        cases.append((f"kernel.poly.mul.q{q}_d200_us", lambda x=x, y=y: x * y,
                      5))
        cases.append((f"kernel.poly.divmod.q{q}_d400_by_200_us",
                      lambda big=big, x=x: divmod(big, x), 5))
    return cases


def run_kernels(repeats):
    """Median microseconds per call for every kernel row."""
    out = {}
    clock = time.perf_counter
    for name, call, batch in _cases():
        call()  # warm caches and lazy tables outside the timing
        samples = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(batch):
                call()
            samples.append((clock() - t0) / batch)
        out[name] = statistics.median(samples) * 1e6
    return out
