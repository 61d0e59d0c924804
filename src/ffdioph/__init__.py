"""ffdioph: exact Diophantine approximation over F_q((1/T)).

Continued fractions, shifted weak Popov lattice reduction, Dirichlet
system solving, best-approximation profiles and exponent estimates,
exact Haar measure on cylinder sets, and finite-horizon certification of
inhomogeneous transference constructions.  Everything is exact: degrees
are integers, measures are rationals, and precision is an explicit
valuation floor that fails loudly instead of guessing.
"""

from .algebra import (
    NEG_INF,
    FieldSpec,
    Laurent,
    LaurentMat,
    LaurentVec,
    Poly,
    RatFn,
    format_laurent,
    format_poly,
    laurent_from_rational,
    parse_laurent,
    parse_poly,
    parse_ratfn,
    sup_norm,
)
from .diophantine import (
    DirichletInstance,
    best_profile,
    brute_force_profile,
    cf_expand,
    cf_expand_rational,
    dirichlet_solve,
    omega_estimate,
)
from .polylattice import (
    PolyMat,
    Shift,
    closest_vector,
    shortest_vector,
    successive_minima,
    weak_popov,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "FieldSpec",
    "Laurent",
    "LaurentMat",
    "LaurentVec",
    "Poly",
    "RatFn",
    "format_laurent",
    "format_poly",
    "laurent_from_rational",
    "parse_laurent",
    "parse_poly",
    "parse_ratfn",
    "sup_norm",
    "DirichletInstance",
    "best_profile",
    "brute_force_profile",
    "cf_expand",
    "cf_expand_rational",
    "dirichlet_solve",
    "omega_estimate",
    "PolyMat",
    "Shift",
    "closest_vector",
    "shortest_vector",
    "successive_minima",
    "weak_popov",
]
