"""Seeded Monte Carlo runs: extremality of pushforward measures.

A sample is a point of the unit ball drawn by taking i.i.d. uniform
coefficients for the degrees -1 .. -depth (exactly the Haar measure by
the product structure).  The sampled point is carried exactly; the map
values feeding the lattice are truncated at the working precision floor
and marked unknown below it, so every reported profile entry is either
certified at that floor or flagged and excluded.

The per-horizon statistic is the ratio m(-L(tau))/(n tau), whose
almost-everywhere limit is the critical value 1; the report emits exact
rational quantile trajectories (median and p90) across the tau grid.
Identical (config, seed) pairs reproduce byte-identical reports.

Configs and maps are read by formats; a config loads its map once, and
the map fixes both dimensions: points have its d coordinates, and n is
its number of components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .algebra.degree import NEG_INF
from .algebra.field import FieldSpec
from .algebra.laurent import Laurent, LaurentMat
from .algebra.literals import parse_laurent
from .diophantine import best_profile
from .formats import load_map, parse_config, parse_ints, read_text


# config-file keys, each setting the same-named field (map: map_spec)
CONFIG_KEYS = ("q", "modulus", "map", "theta", "tau_max", "precision",
               "depth", "samples", "seed", "format")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one extremality run (see CONFIG_KEYS)."""

    q: int
    modulus: Optional[tuple]
    map_spec: str  # "veronese:<n>" or a JSON map file path
    theta: str
    tau_max: int
    precision: int  # working floor (negative)
    depth: int      # sampled coefficient count per coordinate
    samples: int
    seed: int
    format: str = "json"

    def __post_init__(self):
        if self.tau_max < 2:
            raise ValueError("tau_max must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    @property
    def field(self):
        return FieldSpec.get(self.q, self.modulus)

    @cached_property
    def polymap(self):
        """The configured map, loaded once per config."""
        return load_map(self.map_spec, self.field)

    def tau_grid(self):
        """Measurement horizons: half, three-quarter, and full tau_max."""
        grid = sorted({self.tau_max // 2, (3 * self.tau_max) // 4,
                       self.tau_max})
        return [t for t in grid if t >= 1]

    def working_floor(self):
        """Truncation floor; defaults deep enough for the tau range."""
        n = self.polymap.n
        needed = -(n + 1) * self.tau_max - 8
        return min(self.precision, needed) if self.precision else needed

    @classmethod
    def from_file(cls, path):
        return cls.from_keys(parse_config(read_text(path)))

    @classmethod
    def from_keys(cls, keys):
        """Config from string values by key; an unknown key is refused."""
        unknown = sorted(set(keys) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; the keys "
                             f"are {', '.join(CONFIG_KEYS)}")
        if "seed" not in keys:
            raise ValueError("config needs seed=<int>")
        get = keys.get
        return cls(
            q=int(get("q", 2)),
            modulus=parse_ints(keys["modulus"]) if get("modulus") else None,
            map_spec=get("map", "veronese:2"),
            theta=get("theta", "0"),
            tau_max=int(get("tau_max", 20)),
            precision=int(get("precision", 0)),
            depth=int(get("depth", 60)),
            samples=int(get("samples", 50)),
            seed=int(keys["seed"]),
            format=get("format", "json"),
        )


def sample_unit_ball(field, d, depth, rng):
    """One Haar sample: uniform digits for degrees -1 .. -depth."""
    pt = []
    for _ in range(d):
        digits = [rng.randrange(field.q) for _ in range(depth)]
        pt.append(Laurent(field, digits, -1, exact=True))
    return tuple(pt)


def _median(sorted_vals):
    k = len(sorted_vals)
    if k % 2:
        return sorted_vals[k // 2]
    return (sorted_vals[k // 2 - 1] + sorted_vals[k // 2]) / 2


def _p90(sorted_vals):
    k = len(sorted_vals)
    idx = max(0, -(-9 * k // 10) - 1)  # ceil(0.9 k) - 1
    return sorted_vals[idx]


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple       # per sample: dict with index, per-tau data, flags
    quantiles: tuple  # per tau: dict(tau, count, median, p90)
    excluded_precision: int
    excluded_infinite: int

    def as_json_dict(self):
        def fr(x):
            if x is None:
                return None
            return f"{x.numerator}/{x.denominator}"

        return {
            "map": self.config.map_spec,
            "q": self.config.q,
            "theta": self.config.theta,
            "depth": self.config.depth,
            "working_floor": self.config.working_floor(),
            "tau_grid": self.config.tau_grid(),
            "samples": self.config.samples,
            "seed": self.config.seed,
            "excluded_precision": self.excluded_precision,
            "excluded_infinite": self.excluded_infinite,
            "quantiles": [
                {"tau": qd["tau"], "count": qd["count"],
                 "median": fr(qd["median"]), "p90": fr(qd["p90"])}
                for qd in self.quantiles
            ],
            "rows": [
                {
                    "sample": r["sample"],
                    "included": r["included"],
                    "entries": [
                        {"tau": t, "L": ("-inf" if L is NEG_INF else L),
                         "ratio": fr(ratio), "exact": ex}
                        for t, L, ratio, ex in r["entries"]
                    ],
                }
                for r in self.rows
            ],
        }

    def to_csv(self):
        lines = ["sample,tau,L,ratio,exact,included"]
        for r in self.rows:
            for t, L, ratio, ex in r["entries"]:
                lval = "-inf" if L is NEG_INF else str(L)
                rv = "" if ratio is None else \
                    f"{ratio.numerator}/{ratio.denominator}"
                lines.append(
                    f"{r['sample']},{t},{lval},{rv},{int(ex)},"
                    f"{int(r['included'])}"
                )
        return "\n".join(lines) + "\n"


def run_extremal(cfg):
    """Inhomogeneous extremality experiment for the configured map.

    Samples whose grid entries are precision-flagged or land on an
    exact rational hit are excluded from the quantiles and counted.
    """
    field = cfg.field
    f = cfg.polymap
    rng = random.Random(cfg.seed)
    theta_lit = cfg.theta.strip() or "0"
    theta_val = parse_laurent(theta_lit, field)
    theta = None if theta_val.is_known_zero() else (theta_val,)
    floor = cfg.working_floor()
    grid = cfg.tau_grid()
    n = f.n
    rows = []
    per_tau = {t: [] for t in grid}
    excluded_precision = 0
    excluded_infinite = 0
    for idx in range(cfg.samples):
        x = sample_unit_ball(field, f.d, cfg.depth, rng)
        vals = f.eval_at(x)
        Y = LaurentMat([[v.known_part(floor).forget_below(floor)
                         for v in vals]])
        prof = best_profile(Y, theta, tau_max=cfg.tau_max, taus=grid)
        entries = []
        flagged = False
        infinite = False
        for e in prof.entries:
            if not e.exact:
                flagged = True
            if e.L is NEG_INF:
                infinite = True
                entries.append((e.tau, e.L, None, e.exact))
            else:
                ratio = Fraction(-e.L, n * e.tau)
                entries.append((e.tau, e.L, ratio, e.exact))
        included = not flagged and not infinite
        if flagged:
            excluded_precision += 1
        elif infinite:
            excluded_infinite += 1
        if included:
            for t, _, ratio, _ in entries:
                per_tau[t].append(ratio)
        rows.append({"sample": idx, "included": included,
                     "entries": entries})
    quantiles = []
    for t in grid:
        vals = sorted(per_tau[t])
        quantiles.append({
            "tau": t,
            "count": len(vals),
            "median": _median(vals) if vals else None,
            "p90": _p90(vals) if vals else None,
        })
    return ExperimentReport(cfg, tuple(rows), tuple(quantiles),
                            excluded_precision, excluded_infinite)
