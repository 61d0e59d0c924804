"""Outside-in span tracer: wraps named ffdioph callables from out here.

Each span names one function or method of the library.  ``install``
replaces it with a timing wrapper in every ``ffdioph`` module namespace
that binds it (``from x import f`` copies included) or, for a method, on
its class; ``uninstall`` puts the originals back.  A span whose target
no longer resolves to a plain function is reported as missing instead of
failing the run, so later refactors cannot break the traced mode, only
thin it out.

Self time is a span's wall time minus the time spent in child spans;
total time is its wall time, counted once through recursive calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# span name -> (module, attribute path); the module is where the name is
# looked up, which need not be where it is defined
SPANS = {
    "algebra.laurent.add": ("ffdioph.algebra.laurent", "Laurent.__add__"),
    "algebra.laurent.mul": ("ffdioph.algebra.laurent", "Laurent.__mul__"),
    "algebra.laurent.inverse": ("ffdioph.algebra.laurent", "Laurent.inverse"),
    "algebra.poly.mul": ("ffdioph.algebra.poly", "Poly.__mul__"),
    "algebra.poly.divmod": ("ffdioph.algebra.poly", "Poly.__divmod__"),
    "algebra.literals.parse_laurent": ("ffdioph.algebra.literals",
                                       "parse_laurent"),
    "algebra.literals.format_poly": ("ffdioph.algebra.literals",
                                     "format_poly"),
    "polylattice.weak_popov": ("ffdioph.polylattice", "weak_popov"),
    # the two kernels the profile engine calls, by the names it binds
    "polylattice.reduce_raw": ("ffdioph.diophantine", "_reduce_raw"),
    "polylattice.adjugate_apply": ("ffdioph.diophantine", "_adjugate_apply"),
    "diophantine.best_profile": ("ffdioph.diophantine", "best_profile"),
    "diophantine.dirichlet_solve": ("ffdioph.diophantine", "dirichlet_solve"),
    "diophantine.validate_solution": ("ffdioph.diophantine",
                                      "validate_solution"),
    "diophantine.cf_expand": ("ffdioph.diophantine", "cf_expand"),
    "goodmaps.eval_at": ("ffdioph.goodmaps", "PolyMap.eval_at"),
    "goodmaps.cell_center": ("ffdioph.goodmaps", "cell_center"),
    "goodmaps.cells": ("ffdioph.goodmaps", "BallSpec.cells"),
    "goodmaps.combo_degree_table": ("ffdioph.goodmaps", "combo_degree_table"),
    "goodmaps.good_constants": ("ffdioph.goodmaps", "good_constants"),
    "goodmaps.lemma_closure_check": ("ffdioph.goodmaps",
                                     "lemma_closure_check"),
    "transference.enum_alphas": ("ffdioph.transference", "enum_alphas"),
    "transference.verify_intersection": ("ffdioph.transference",
                                         "verify_intersection"),
    "transference.verify_contraction": ("ffdioph.transference",
                                        "verify_contraction"),
    "experiments.run_extremal": ("ffdioph.experiments", "run_extremal"),
    "experiments.sample_unit_ball": ("ffdioph.experiments",
                                     "sample_unit_ball"),
    "cli.main": ("ffdioph.cli", "main"),
}

PROFILE_SPAN = "diophantine.best_profile"
REDUCE_SPAN = "polylattice.reduce_raw"


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0  # open calls of this span, to skip nested totals


class Tracer:
    """Span totals plus the two counts behind reductions per horizon."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.missing = []
        self.horizons = 0            # profile entries best_profile returned
        self.profile_reductions = 0  # reduce_raw calls inside best_profile
        self._stack = []             # child time accumulated per open span
        self._in_profile = 0
        self._patches = []           # (owner, attribute, original)
        self._targets = self._resolve()

    def _resolve(self):
        targets = {}
        for name, (module, path) in SPANS.items():
            try:
                owner = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if not inspect.isfunction(original):
                self.missing.append(name)
                continue
            targets[name] = (owner, attr, original, bool(owners))
        return targets

    def _wrap(self, name, fn):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counts_horizons = name == PROFILE_SPAN
        counts_reductions = name == REDUCE_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_reductions and self._in_profile:
                self.profile_reductions += 1
            if counts_horizons:
                self._in_profile += 1
            stack.append(0.0)
            rec.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec.depth -= 1
                rec.calls += 1
                rec.self_s += dt - child
                if not rec.depth:
                    rec.total_s += dt
                if stack:
                    stack[-1] += dt
                if counts_horizons:
                    self._in_profile -= 1
            if counts_horizons:
                self.horizons += len(getattr(result, "entries", ()))
            return result

        return wrapper

    def install(self):
        """Wrap every resolved span target wherever it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ffdioph"
                                         or n.startswith("ffdioph."))]
        for name, (owner, attr, original, is_method) in self._targets.items():
            wrapper = self._wrap(name, original)
            if is_method:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
