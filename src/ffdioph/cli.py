"""Command-line front end.

Subcommands mirror the library surface: cfrac, exponent, dirichlet,
goodcheck, transfer {bz,dyson,intersection,contraction}, extremal.
Everything emits JSON (or CSV with --format csv) on stdout; exit code 0
on success, 1 when a check reports violations, 2 on usage errors
(malformed literals and zero denominators included).
Randomized commands require a seed, and identical (arguments, seed)
runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from .algebra.degree import NEG_INF
from .algebra.laurent import Laurent, LaurentMat, LaurentVec
from .algebra.literals import format_poly, parse_laurent, parse_ratfn
from .algebra.poly import Poly
from .diophantine import (
    best_profile,
    cf_expand,
    cf_expand_rational,
    dirichlet_solve,
    omega_estimate,
)
from .errors import CoefficientOutOfRange, FFDiophError, LiteralSyntaxError
from .experiments import ExperimentConfig, run_extremal, sample_unit_ball
from .formats import (
    load_map,
    parse_field,
    parse_fraction,
    parse_ints,
    parse_row,
    read_forms,
    read_instance,
)
from .goodmaps import CellGrid, nonplanarity_check, origin_ball
from .qpow import QPow
from .transference import (
    SetFamilyConfig,
    check_bz,
    check_dyson,
    verify_contraction,
    verify_intersection,
)


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _deg_json(d):
    return "-inf" if d is NEG_INF else d


# -- cfrac -------------------------------------------------------------------


def _cmd_cfrac(args):
    field = parse_field(args.q, args.modulus)
    text = args.y
    if "/" in text:
        cf = cf_expand_rational(parse_ratfn(text, field), args.max_terms)
    else:
        cf = cf_expand(parse_laurent(text, field), args.max_terms)
    payload = {
        "quotients": [format_poly(a) for a in cf.quotients],
        "convergents": [[format_poly(p), format_poly(q)]
                        for p, q in cf.convergents],
        "terminated": cf.terminated,
        "reason": cf.reason,
        "err_degs": [_deg_json(d) for d in cf.err_degs],
        "next_q_deg": cf.next_q_deg,
    }
    _emit(payload)
    return 0


# -- exponent ----------------------------------------------------------------


def _cmd_exponent(args):
    field = parse_field(args.q, args.modulus)
    Y = read_forms(args.Y, field)
    theta = None
    if args.theta and args.theta != "0":
        theta = (parse_laurent(args.theta, field),) * Y.m
    prof = best_profile(Y, theta, tau_max=args.tau_max)
    est = omega_estimate(prof, Y.m, Y.n,
                         tau_min=max(2, args.tau_max // 2))
    if args.format == "csv":
        sys.stdout.write(prof.to_csv())
        return 0
    payload = {
        "mode": prof.mode,
        "m": Y.m,
        "n": Y.n,
        "profile": [
            {"tau": e.tau, "L": _deg_json(e.L), "exact": e.exact}
            for e in prof.entries
        ],
        "estimate": est.as_json_dict(),
    }
    _emit(payload)
    return 0


# -- dirichlet ---------------------------------------------------------------


def _cmd_dirichlet(args):
    inst = read_instance(args.instance)
    sol = dirichlet_solve(inst)
    payload = {
        "p": [format_poly(x) for x in sol.p],
        "q": [format_poly(x) for x in sol.q],
        "err_degs": [(_deg_json(d) if d is not None else "below-floor")
                     for d in sol.err_degs],
        "q_deg": sol.q_deg,
        "weights": list(inst.t),
        "valid": True,
    }
    _emit(payload)
    return 0


# -- goodcheck ---------------------------------------------------------------


def _cmd_goodcheck(args):
    field = parse_field(args.q, args.modulus)
    f = load_map(args.map, field)
    ball = origin_ball(field, f.d, args.ball_radius)
    if args.combo:
        combo = parse_row(args.combo, field)
    else:
        combo = (Laurent.zero(field), Laurent.from_poly(Poly.one(field)))
        combo += (Laurent.zero(field),) * (f.n - 1)
    claimed = (QPow(field.q, parse_fraction(args.claimed_C))
               if args.claimed_C else None)
    # the report and the closure check share one evaluation of the map
    grid = CellGrid(f, ball, args.resolution)
    alpha = parse_fraction(args.alpha)
    rep = grid.good_report(combo, alpha, claimed_C=claimed)
    payload = {"good": rep.as_json_dict()}
    if args.closure:
        payload["closure"] = grid.closure_report(alpha).as_json_dict()
    if args.nonplanarity_trials:
        if args.seed is None:
            raise ValueError("a seed is required for randomized runs")
        ok, wit = nonplanarity_check(
            f, origin_ball(field, f.d, -1), args.resolution,
            trials=args.nonplanarity_trials, seed=args.seed)
        payload["nonplanarity"] = {
            "witness_found": ok,
            "cells": wit["cells"] if ok else None,
        }
    _emit(payload)
    bad = rep.violations or (args.closure
                             and not payload["closure"]["passed"])
    return 1 if bad else 0


# -- transfer ----------------------------------------------------------------


def _random_vectors(field, n, count, depth, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_unit_ball(field, n, depth, rng)


def _cmd_transfer(args):
    field = parse_field(args.q, args.modulus)
    kind = args.kind
    if kind in ("bz", "dyson"):
        instances = []
        if args.random < 0:
            raise ValueError("--random must be >= 0")
        if args.random:
            if args.seed is None:
                raise ValueError("a seed is required for randomized runs")
            floor = -(args.n + 1) * args.tau_max - 8
            for pt in _random_vectors(field, args.n, args.random,
                                      -floor, args.seed):
                instances.append(tuple(x.forget_below(floor) for x in pt))
        elif args.y:
            instances.append(parse_row(args.y, field))
        else:
            raise ValueError("give --y or --random")
        theta = None
        if args.theta and args.theta != "0":
            theta = parse_laurent(args.theta, field)
        results = []
        worst = 0
        for i, pt in enumerate(instances):
            if kind == "bz":
                checks = check_bz(
                    LaurentMat([pt]),
                    (theta,) if theta is not None else None,
                    args.tau_max,
                )
            else:
                checks = check_dyson(LaurentVec(pt), args.tau_max)
            stats = [c.as_json_dict() for c in checks]
            if any(c.status == "violated" for c in checks):
                worst = 1
            results.append({"instance": i, "checks": stats})
        _emit({"kind": kind, "tau_max": args.tau_max, "results": results})
        return worst
    # set-family checks
    f = load_map(args.map, field)
    theta = parse_laurent(args.theta, field)
    V = origin_ball(field, f.d, -1)
    t_values = parse_ints(args.t)
    reports = []
    worst = 0
    for t in t_values:
        cfg = SetFamilyConfig(
            f, V, theta, parse_fraction(args.omega), t, args.resolution,
            good_C=(QPow(field.q, parse_fraction(args.C))
                    if args.C else None),
            alpha0_r=parse_fraction(args.alpha0) if args.alpha0 else None,
        )
        if kind == "intersection":
            rep = verify_intersection(cfg)
        else:
            rep = verify_contraction(cfg)
        if not rep.passed:
            worst = 1
        reports.append({"t": t, "report": rep.as_json_dict()})
    _emit({"kind": kind, "reports": reports})
    return worst


# -- extremal ----------------------------------------------------------------


def _cmd_extremal(args):
    cfg = ExperimentConfig.from_file(args.config)
    if args.format:
        cfg = dataclasses.replace(cfg, format=args.format)
    report = run_extremal(cfg)
    if cfg.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit(report.as_json_dict())
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach main's usage-error handler
    instead of exiting with a usage block."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    ap = _Parser(
        prog="ffdioph",
        description="Exact Diophantine approximation over F_q((1/T))",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfrac", help="continued fraction expansion")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--modulus", default=None)
    p.add_argument("--y", required=True,
                   help="Laurent literal or rational P/Q")
    p.add_argument("--max-terms", type=int, default=64)
    p.set_defaults(func=_cmd_cfrac)

    p = sub.add_parser("exponent", help="profile and exponent estimates")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--modulus", default=None)
    p.add_argument("--Y", required=True,
                   help="matrix file, or ';'-separated Laurent row")
    p.add_argument("--theta", default="0")
    p.add_argument("--tau-max", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("dirichlet", help="solve a Dirichlet system")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("goodcheck", help="sublevel-measure constants")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--modulus", default=None)
    p.add_argument("--map", required=True,
                   help="veronese:<n> or a JSON map file")
    p.add_argument("--alpha", required=True,
                   help="alpha as a rational multiple of ln q, e.g. 1 or 1/2")
    p.add_argument("-N", "--resolution", type=int, required=True)
    p.add_argument("--ball-radius", type=int, default=0)
    p.add_argument("--combo", default=None,
                   help="';'-separated Laurent coefficients c0;c1;...;cn")
    p.add_argument("--claimed-C", default=None)
    p.add_argument("--closure", action="store_true")
    p.add_argument("--nonplanarity-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_goodcheck)

    p = sub.add_parser("transfer", help="transference checks")
    p.add_argument("kind",
                   choices=("bz", "dyson", "intersection", "contraction"))
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--modulus", default=None)
    p.add_argument("--y", default=None,
                   help="';'-separated Laurent entries of the vector")
    p.add_argument("--theta", default="0")
    p.add_argument("--tau-max", type=int, default=20)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--random", type=int, default=0,
                   help="number of random instances")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--map", default="veronese:1")
    p.add_argument("--t", default="1",
                   help="comma-separated horizon values")
    p.add_argument("--omega", default="2")
    p.add_argument("-N", "--resolution", type=int, default=8)
    p.add_argument("--C", default=None)
    p.add_argument("--alpha0", default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("extremal", help="seeded extremality Monte Carlo")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.set_defaults(func=_cmd_extremal)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except FFDiophError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # malformed input text is a usage error, not a failed check
        return 2 if isinstance(exc, (LiteralSyntaxError,
                                     CoefficientOutOfRange)) else 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
