"""Seeded item streams for the four benchmark workloads.

An item is one ``ffdioph`` CLI invocation: an argv list plus the small
text files (configs, instances, map files) it names.  Item ``i`` of a
workload depends only on ``(workload, seed, i)``, so the same seed gives
byte-identical inputs on every run and every machine.

Each workload walks a fixed schedule of item classes (the input sizes
that set an item's cost: map size, horizon, resolution, matrix shape,
field) and the seed draws the content within a class (maps, sample
seeds, theta, omega, combinations, Laurent digits).  Every run therefore
sees the same cost mix whatever its seed, which keeps the end-to-end
figures comparable between seeds, while no two items repeat their
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MAP_FILE = "map.json"

# golden.json holds digests for these two seeds: the default one and one
# held out while the benchmark was tuned
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Item:
    """One CLI call: argv plus the files it reads, by relative name."""

    argv: tuple
    files: tuple  # ((name, text), ...)
    kind: str     # the CLI subcommand family, for the output checks

    def input_bytes(self):
        """Canonical bytes of everything the program receives."""
        return json.dumps([list(self.argv), [list(f) for f in self.files]],
                          sort_keys=True).encode()


def _rng(workload, seed, index):
    # str seeds hash through sha512: stable across runs and platforms
    return random.Random(f"ffdioph-bench/{workload}/{seed}/{index}")


# -- extremal ----------------------------------------------------------------


def _extremal(name, q, veronese, samples):
    def make(seed, index):
        rng = _rng(name, seed, index)
        text = (
            f"q={q}\nmap=veronese:{veronese}\ntheta=T^-1 + T^-5\n"
            f"tau_max=20\ndepth=60\nsamples={samples}\n"
            f"seed={rng.randrange(2**31)}\n"
        )
        return Item(("extremal", "--config", "item.cfg"),
                    (("item.cfg", text),), "extremal")
    return make


# -- certify-q2 --------------------------------------------------------------

# (command, map components n, t, N); goodcheck rows put --closure in the
# t slot.  Every item draws its own map (see _random_map), so items
# seldom share the cell values behind their cost, and a cache kept across
# calls in the one process cannot pass for a faster program.  At the
# commit that defined the benchmark the classes cost about 40-125 ms each
# (medians over maps, scaled as run.py scales item times), without large
# gaps between neighbouring costs, so that p50 and p90 each fall among
# items of several classes.
_CERTIFY_CLASSES = (
    ("intersection", 1, 1, 9),
    ("goodcheck", 2, "closure", 6),
    ("contraction", 1, 2, 7),
    ("goodcheck", 1, None, 9),
    ("intersection", 2, 1, 6),
    ("contraction", 1, 1, 8),
    ("goodcheck", 2, None, 8),
    ("intersection", 1, 3, 6),
    ("intersection", 1, 2, 8),
    ("contraction", 2, 1, 5),
    ("intersection", 1, 2, 7),
    ("contraction", 2, 1, 6),
    ("goodcheck", 2, None, 8),
    ("intersection", 1, 1, 8),
    ("contraction", 1, 2, 6),
    ("goodcheck", 1, None, 8),
)

_OMEGAS = ("2", "13/6", "9/4", "7/3", "12/5", "5/2", "13/5", "8/3", "11/4",
           "14/5", "3")
_ALPHAS = ("1", "1/2", "1/3", "2/3", "3/4", "3/2", "2")


def _poly_bits(rng, deg, nonzero=False):
    """A random F_2[T] polynomial of degree at most deg, as a bitmask."""
    while True:
        bits = rng.getrandbits(deg + 1)
        if bits or not nonzero:
            return bits


def _poly_text(bits):
    terms = [("1", "T")[min(k, 1)] + (f"^{k}" if k > 1 else "")
             for k in range(bits.bit_length() - 1, -1, -1) if bits >> k & 1]
    return " + ".join(terms) or "0"


def _poly_mul(a, b):
    """Product in F_2[T] of two bitmasks (carry-less)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _random_map(rng, n):
    """A map x -> (f_1, ..., f_n) with f_i = x^i + random terms.

    Returns one {exponent: F_2[T] bitmask} per component.  Each f_i gets
    a constant term of degree up to 4, terms of degree up to 1 on
    x^1 .. x^(i-1), and terms of degree up to 2 on x^(n+1) and x^(n+2);
    the veronese map is the all-zero draw.
    """
    comps = []
    for i in range(1, n + 1):
        comp = {i: 1, 0: _poly_bits(rng, 4)}
        for e in range(1, i):
            comp[e] = _poly_bits(rng, 1)
        for e in (n + 1, n + 2):
            comp[e] = _poly_bits(rng, 2)
        comps.append(comp)
    return comps


def _map_text(comps):
    doc = {"d": 1, "components": [
        [{"exps": [e], "coeff": _poly_text(c)}
         for e, c in sorted(comp.items()) if c]
        for comp in comps]}
    return json.dumps(doc, sort_keys=True) + "\n"


def _theta(rng):
    """A short exact theta with a leading T^-1 term."""
    terms = ["T^-1"] + [f"T^-{k}" for k in range(2, 7) if rng.random() < 0.4]
    return " + ".join(terms)


def _certify(seed, index):
    rng = _rng("certify-q2", seed, index)
    cmd, n, t, N = _CERTIFY_CLASSES[index % len(_CERTIFY_CLASSES)]
    comps = _random_map(rng, n)
    if cmd == "goodcheck":
        if t == "closure":
            # the closure check measures f_1 and f_2 alone, which a
            # constant term would keep at |f_i| >= 1 on the whole ball
            for comp in comps:
                comp[0] = 0
        # c_1 is never zero, so the combination is never constant
        coeffs = [_poly_bits(rng, 1, True)]
        coeffs += [_poly_bits(rng, 1) for _ in range(n - 1)]
        # c_0 cancels the map's constant terms, for the same reason
        c0 = _poly_bits(rng, 1)
        for c, comp in zip(coeffs, comps):
            c0 ^= _poly_mul(c, comp[0])
        combo = [_poly_text(c) for c in [c0] + coeffs]
        alpha = rng.choice(_ALPHAS)
        extra = ()
        if t == "closure":
            # the closure's scaling check reports a violation for every
            # alpha other than 1 at these resolutions, exiting 1
            alpha, extra = "1", ("--closure",)
        argv = ("goodcheck", "--map", MAP_FILE, "--alpha", alpha,
                "-N", str(N), "--combo", ";".join(combo)) + extra
        return Item(argv, ((MAP_FILE, _map_text(comps)),), "goodcheck")
    argv = ["transfer", cmd, "--map", MAP_FILE, "--t", str(t),
            "--omega", rng.choice(_OMEGAS), "-N", str(N),
            "--theta", _theta(rng)]
    if cmd == "contraction":
        # C >= 1 and 0 < alpha_0 <= 1 only loosen the bounds it tests
        argv += ["--C", rng.choice(("1", "2")),
                 "--alpha0", rng.choice(("1", "3/4", "1/2"))]
    return Item(tuple(argv), ((MAP_FILE, _map_text(comps)),), cmd)


# -- solve-mixed -------------------------------------------------------------

_SOLVE_FIELDS = (2, 3, 9)
_SHAPES = tuple((m, n) for m in range(1, 5) for n in range(1, 5))


def _coeff(q, rng, nonzero):
    if q == 9:
        while True:
            a, b = rng.randrange(3), rng.randrange(3)
            if a or b or not nonzero:
                return f"[{a},{b}]", bool(a or b)
    c = rng.randrange(1 if nonzero else 0, q)
    return str(c), bool(c)


def _entry(q, floor, rng):
    """An inexact Laurent literal: digits -1 .. floor, lead digit nonzero."""
    terms = []
    for d in range(-1, floor - 1, -1):
        c, nz = _coeff(q, rng, d == -1)
        if nz:
            terms.append(f"{c}*T^{d}")
    terms.append(f"O(T^{floor - 1})")
    return " + ".join(terms)


def _split(total, parts, rng):
    """Nonnegative integer weights summing to total."""
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    edges = [0] + cuts + [total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def _instance(rng, index):
    q = _SOLVE_FIELDS[index % len(_SOLVE_FIELDS)]
    m, n = _SHAPES[(index // len(_SOLVE_FIELDS)) % len(_SHAPES)]
    total = rng.randrange(4 * max(m, n), 6 * max(m, n) + 1)
    t = _split(total, m, rng) + _split(total, n, rng)
    floor = -(max(t) + sum(t[m:]) + 2) - rng.randrange(4)
    rows = [[_entry(q, floor, rng) for _ in range(n)] for _ in range(m)]
    text = (f"q={q} m={m} n={n} t={','.join(map(str, t))}\n"
            + "".join(" | ".join(r) + "\n" for r in rows))
    return q, rows, text


def _solve(seed, index):
    # items 2k and 2k+1 share instance k: solve it, then expand one entry
    rng = _rng("solve-mixed", seed, index // 2)
    q, rows, text = _instance(rng, index // 2)
    if index % 2 == 0:
        return Item(("dirichlet", "--instance", "inst.txt"),
                    (("inst.txt", text),), "dirichlet")
    entry = rng.choice(rng.choice(rows))
    return Item(("cfrac", "--q", str(q), "--y", entry), (), "cfrac")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    fields: tuple   # field sizes whose tables set-up builds
    make: object    # (seed, index) -> Item


WORKLOADS = {
    w.name: w for w in (
        Workload("extremal-q2", (2,), _extremal("extremal-q2", 2, 3, 2)),
        Workload("extremal-q3", (3,), _extremal("extremal-q3", 3, 2, 1)),
        Workload("certify-q2", (2,), _certify),
        Workload("solve-mixed", _SOLVE_FIELDS, _solve),
    )
}


def make_item(workload, seed, index):
    """Item ``index`` of ``workload`` under ``seed`` (deterministic)."""
    return WORKLOADS[workload].make(seed, index)


# -- output checks and counts ------------------------------------------------


def check_output(item, doc):
    """What is wrong with an item's parsed JSON output, or None.

    These checks hold on every seed; golden digests pin the exact bytes
    on the recorded seeds.  Every item is built to exit 0, so a failed
    certification is a wrong answer here.
    """
    kind = item.kind
    if kind == "extremal":
        if len(doc["rows"]) != doc["samples"] or not doc["quantiles"]:
            return "extremal report lacks rows or quantiles"
    elif kind == "goodcheck":
        if doc["good"]["total_cells"] < 1:
            return "goodcheck counted no cells"
        if "--closure" in item.argv and not doc["closure"]["passed"]:
            return "closure check failed"
    elif kind in ("intersection", "contraction"):
        if doc["kind"] != kind or not doc["reports"]:
            return "transfer report of the wrong kind"
        if not all(r["report"]["passed"] for r in doc["reports"]):
            return "transfer check reported violations"
    elif kind == "dirichlet":
        # the instance header reads "q=<q> m=<m> n=<n> t=<t1,...>"
        n = int(item.files[0][1].split()[2].split("=")[1])
        if doc["valid"] is not True or len(doc["q"]) != n:
            return "dirichlet solution not validated"
    elif kind == "cfrac":
        if not doc["quotients"] or len(doc["convergents"]) != len(
                doc["err_degs"]):
            return "cfrac expansion is empty or inconsistent"
    return None


def output_counts(item, doc):
    """Counts read off an item's output, behind the per-layer ratios."""
    kind = item.kind
    if kind == "extremal":
        entries = [e for r in doc["rows"] for e in r["entries"]]
        return {
            "profile_entries": len(entries),
            "flagged_entries": sum(1 for e in entries if not e["exact"]),
            "samples": doc["samples"],
            "excluded": doc["excluded_precision"] + doc["excluded_infinite"],
        }
    if kind == "goodcheck":
        return {"cells": doc["good"]["total_cells"],
                "ambiguous_cells": doc["good"]["ambiguous_cells"]}
    if kind in ("intersection", "contraction"):
        reports = [r["report"] for r in doc["reports"]]
        out = {"alphas": sum(r["details"]["alphas"] for r in reports)}
        if kind == "intersection":
            out["pairs_tested"] = sum(r["tested"] for r in reports)
        return out
    return {}


def ratio_metrics(counts, items):
    """Per-layer ratios with their bases, as name -> (value, unit)."""
    def frac(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    return {
        "diophantine.flagged_frac": (
            frac("flagged_entries", "profile_entries"), "ratio"),
        "diophantine.profile_entries": (
            counts.get("profile_entries", 0) / items, "count/item"),
        "experiments.excluded_frac": (frac("excluded", "samples"), "ratio"),
        "experiments.samples": (counts.get("samples", 0) / items,
                                "count/item"),
        "goodmaps.ambiguous_frac": (frac("ambiguous_cells", "cells"),
                                    "ratio"),
        "goodmaps.cells": (counts.get("cells", 0) / items, "count/item"),
        "transference.alphas": (counts.get("alphas", 0) / items,
                                "count/item"),
        "transference.pairs_tested": (counts.get("pairs_tested", 0) / items,
                                      "count/item"),
    }
