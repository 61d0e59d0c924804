"""Exact arithmetic in F_q, F_q[T], F_q(T) and F_q((1/T))."""

from .degree import NEG_INF
from .field import FieldSpec, FqElem
from .laurent import (
    Laurent,
    LaurentMat,
    LaurentVec,
    laurent_from_rational,
    sup_norm,
)
from .literals import (
    format_laurent,
    format_poly,
    parse_laurent,
    parse_poly,
    parse_ratfn,
)
from .poly import Poly, RatFn, ops_for, poly_divmod, poly_gcd

__all__ = [
    "NEG_INF",
    "FieldSpec",
    "FqElem",
    "Laurent",
    "LaurentMat",
    "LaurentVec",
    "laurent_from_rational",
    "sup_norm",
    "format_laurent",
    "format_poly",
    "parse_laurent",
    "parse_poly",
    "parse_ratfn",
    "Poly",
    "RatFn",
    "ops_for",
    "poly_divmod",
    "poly_gcd",
]
