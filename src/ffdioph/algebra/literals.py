"""Text form of Laurent/polynomial values.

Grammar (whitespace insignificant)::

    value  := term ("+" term)* ["+" bigoh]
    term   := coeff | coeff "*" "T" ["^" int] | "T" ["^" int]
    coeff  := integer in [0, p)               (prime fields)
            | "[" c0 "," c1 "," ... "]"       (extension fields, basis tuple)
            | "0"                             (zero, in any field)
    bigoh  := "O(T^" int ")"
    int    := optionally signed decimal

Canonical output lists exponents strictly decreasing; inexact values end
with the big-oh marker recording the first unknown degree.  parse/format
are mutually inverse on canonical strings and on values.
"""

from __future__ import annotations

import re

from ..errors import CoefficientOutOfRange, LiteralSyntaxError
from .laurent import Laurent
from .poly import Poly, RatFn

_TOKEN = re.compile(
    r"\s*(?:(?P<plus>\+)|(?P<bigoh>O\(\s*T\s*\^\s*(?P<odeg>-?\d+)\s*\))"
    r"|(?P<tuple>\[[0-9,\s]*\])|(?P<int>\d+)|(?P<star>\*)|(?P<T>T)"
    r"|(?P<caret>\^)|(?P<minus>-)|(?P<other>\S))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        kind = m.lastgroup
        if kind == "other":
            raise LiteralSyntaxError(
                f"unexpected character {m.group('other')!r}", m.start("other")
            )
        # a token's position is its first character, past the whitespace
        if kind == "bigoh":
            tokens.append(("bigoh", int(m.group("odeg")), m.start(kind)))
        elif kind == "odeg":
            pass
        else:
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_coeff_token(tok, field):
    kind, val, pos = tok
    if kind == "int":
        v = int(val)
        if field.r != 1 and v:  # "0", as printed for zero, needs no tuple
            raise LiteralSyntaxError(
                "extension-field coefficients need a basis tuple [c0,...]",
                pos,
            )
        if not 0 <= v < field.p:
            raise CoefficientOutOfRange(
                f"coefficient {v} outside [0, {field.p})"
            )
        return v
    if kind == "tuple":
        if field.r == 1:
            raise LiteralSyntaxError("basis tuple in a prime field", pos)
        body = val[1:-1].strip()
        parts = [s.strip() for s in body.split(",")] if body else []
        if len(parts) != field.r:
            raise CoefficientOutOfRange(
                f"basis tuple needs {field.r} entries, got {len(parts)}"
            )
        coords = []
        for s in parts:
            if not s.isdigit():
                raise LiteralSyntaxError(f"bad tuple entry {s!r}", pos)
            c = int(s)
            if not 0 <= c < field.p:
                raise CoefficientOutOfRange(
                    f"tuple entry {c} outside [0, {field.p})"
                )
            coords.append(c)
        return field._pack(coords)
    raise LiteralSyntaxError("expected a coefficient", pos)


def _parse_exponent(tokens, i):
    sign = 1
    if tokens[i][0] == "minus":
        sign = -1
        i += 1
    if tokens[i][0] != "int":
        raise LiteralSyntaxError("expected an exponent", tokens[i][2])
    return sign * int(tokens[i][1]), i + 1


def parse_laurent(text, field):
    """Parse a Laurent literal; finite sums come back exact."""
    tokens = _tokenize(text)
    i = 0
    digits = {}
    placed = []  # (exponent, position) of each term with a nonzero coeff
    floor = None
    while True:
        kind, val, pos = tokens[i]
        if kind == "bigoh":
            floor = val + 1
            i += 1
            break
        if kind in ("int", "tuple"):
            coeff = _parse_coeff_token(tokens[i], field)
            i += 1
            expo = 0
            if tokens[i][0] == "star":
                i += 1
                if tokens[i][0] != "T":
                    raise LiteralSyntaxError("expected T after '*'",
                                             tokens[i][2])
                i += 1
                expo = 1
                if tokens[i][0] == "caret":
                    expo, i = _parse_exponent(tokens, i + 1)
        elif kind == "T":
            coeff = 1
            i += 1
            expo = 1
            if tokens[i][0] == "caret":
                expo, i = _parse_exponent(tokens, i + 1)
        else:
            raise LiteralSyntaxError("expected a term", pos)
        if coeff:
            digits[expo] = field.add(digits.get(expo, 0), coeff)
            placed.append((expo, pos))
        if tokens[i][0] == "plus":
            i += 1
            continue
        break
    if tokens[i][0] != "end":
        raise LiteralSyntaxError("trailing input", tokens[i][2])
    for expo, pos in placed:
        if floor is not None and expo < floor - 1:
            raise LiteralSyntaxError("term lies below the big-oh", pos)
    digits = {d: c for d, c in digits.items() if c}
    if not digits:
        if floor is not None:
            return Laurent.unknown_below(field, floor)
        return Laurent.zero(field)
    lead = max(digits)
    low = min(digits) if floor is None else floor
    vals = [digits.get(d, 0) for d in range(lead, low - 1, -1)]
    return Laurent(field, vals, lead, exact=floor is None, floor=low)


def _format_coeff(field, raw):
    if field.r == 1:
        return str(raw)
    return "[" + ",".join(str(c) for c in field._coords(raw)) + "]"


def _format_term(field, raw, d):
    cs = _format_coeff(field, raw)
    if d == 0:
        return cs
    if raw == 1:
        return "T" if d == 1 else f"T^{d}"
    return f"{cs}*T^{d}"


def format_laurent(a):
    """Canonical text: exponents strictly decreasing; big-oh if inexact."""
    terms = []
    for idx, c in enumerate(a.coeffs):
        if c:
            terms.append(_format_term(a.field, c, a.lead - idx))
    if not a.exact:
        terms.append(f"O(T^{a.floor - 1})")
    if not terms:
        return "0"
    return " + ".join(terms)


def format_poly(p):
    if p.is_zero():
        return "0"
    little = p.ops.to_coeffs(p.raw)
    terms = []
    for d in range(len(little) - 1, -1, -1):
        if little[d]:
            terms.append(_format_term(p.field, little[d], d))
    return " + ".join(terms)


def parse_poly(text, field):
    """Parse a polynomial literal (a Laurent literal without negatives)."""
    a = parse_laurent(text, field)
    if not a.exact:
        raise LiteralSyntaxError("polynomial literal cannot carry O()", 0)
    if a.is_known_zero():
        return Poly.zero(field)
    if a.floor < 0:
        raise LiteralSyntaxError("negative exponent in polynomial literal", 0)
    return a.poly_part()


def parse_ratfn(text, field):
    """Parse "P" or "P/Q", each side optionally in parentheses."""
    sides = text.split("/")
    if len(sides) > 2:
        raise LiteralSyntaxError("more than one '/'", text.rindex("/"))
    polys = []
    for side in sides:
        side = side.strip()
        while side.startswith("(") and side.endswith(")"):
            side = side[1:-1].strip()
        polys.append(parse_poly(side, field))
    if len(polys) == 2 and polys[1].is_zero():
        raise LiteralSyntaxError("zero denominator", text.index("/"))
    return RatFn(*polys)
