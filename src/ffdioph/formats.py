"""Readers of outside text: every input file and option value enters here.

This module checks the layout of the text around Laurent literals
(algebra.literals); what the text describes is checked where its type is
built (PolyMap, DirichletInstance, ExperimentConfig, SetFamilyConfig),
so library and file callers share those checks.  Malformed input raises
ValueError with one line, which the CLI reports with exit 2.  Formats:
the README's "File formats" section.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra.field import FieldSpec
from .algebra.laurent import LaurentMat
from .algebra.literals import format_laurent, parse_laurent, parse_poly
from .diophantine import DirichletInstance
from .goodmaps import PolyMap
from .polylattice import PolyMat, Shift


def read_text(path):
    """Contents of an input file; the one place such files are opened."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_fraction(text):
    """A rational "a" or "a/b"; a zero denominator is refused."""
    if "/" in text:
        a, b = (int(x) for x in text.split("/", 1))
        if b == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(a, b)
    return Fraction(int(text))


def parse_ints(text):
    """Comma-separated integers: a modulus, weights or horizons."""
    return tuple(int(x) for x in text.split(","))


def parse_row(text, field):
    """';'-separated Laurent literals."""
    return tuple(parse_laurent(t.strip(), field) for t in text.split(";"))


def parse_field(q, modulus=None):
    """F_q, with an optional comma-separated modulus (low to high)."""
    return FieldSpec.get(q, parse_ints(modulus) if modulus else None)


def parse_table(text, what, keys, field=None):
    """Header, field and entry rows of a matrix or instance file.

    The first nonblank line is the header; it gives every name in keys
    as key=<int>, the first two being the row and entry counts (each
    >= 1), and q=<int>, which must name `field` when one is given.
    Exactly that many lines of that many '|'-separated Laurent literals
    follow.  Returns (header, integers of keys, field, rows of values).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{what} is empty")
    header = dict(item.split("=", 1) for item in lines[0].split()
                  if "=" in item)
    if field is None or "q" in header:
        keys += ("q",)
    try:
        ints = {k: int(header[k]) for k in keys}
    except (KeyError, ValueError):
        raise ValueError(f"{what} header needs "
                         + " and ".join(f"{k}=<int>" for k in keys)) from None
    rows_key, cols_key = keys[:2]
    m, n = ints[rows_key], ints[cols_key]
    if m < 1 or n < 1:
        raise ValueError(f"{what} needs {rows_key} >= 1 and {cols_key} >= 1")
    if len(lines) - 1 != m:
        raise ValueError(f"{what} header says {rows_key}={m} but "
                         f"{len(lines) - 1} data lines follow")
    rows = [ln.split("|") for ln in lines[1:]]
    for i, cells in enumerate(rows, 1):
        if len(cells) != n:
            raise ValueError(f"{what} row {i} has {len(cells)} entries, "
                             f"header says {cols_key}={n}")
    if field is None:
        field = FieldSpec.get(ints["q"])
    elif "q" in ints and ints["q"] != field.q:
        raise ValueError(f"{what} header says q={ints['q']} but the "
                         f"command works over F_{field.q}")
    return header, ints, field, [[parse_laurent(c.strip(), field)
                                  for c in cells] for cells in rows]


def read_forms(spec, field):
    """Linear forms: a matrix file's rows, or one ';'-separated row."""
    try:
        text = read_text(spec)
    except OSError:
        return LaurentMat([parse_row(spec, field)])
    return LaurentMat(
        parse_table(text, "matrix file", ("rows", "cols"), field)[3])


def read_instance(path):
    """A Dirichlet instance file: header q= m= n= t=, then m rows of n."""
    header, ints, _, rows = parse_table(read_text(path), "instance file",
                                        ("m", "n"))
    try:
        t = parse_ints(header["t"])
    except (KeyError, ValueError):
        raise ValueError("instance file header needs t=<int>,<int>,...") \
            from None
    if len(t) != ints["m"] + ints["n"]:
        raise ValueError(f"instance file header gives {len(t)} weights "
                         f"in t, needs m+n = {ints['m'] + ints['n']}")
    return DirichletInstance(LaurentMat(rows), t)


def parse_matrix_text(text, field=None):
    """A module basis (PolyMat, Shift) from matrix-file text.

    Laurent entries are admitted by factoring the lowest listed degree
    out of each column.
    """
    header, ints, _, vals = parse_table(text, "matrix file",
                                        ("rows", "cols"), field)
    k = ints["rows"]
    if ints["cols"] != k:
        raise ValueError("module bases must be square")
    s = (Shift(parse_ints(header["shift"])) if header.get("shift")
         else Shift.zero(k))
    col_scale = []
    for col in zip(*vals):
        floors = [e.floor for e in col if not e.is_known_zero()]
        col_scale.append(min(0, *floors) if floors else 0)
    return PolyMat([[e.shift(-c).poly_part() for e, c in zip(row, col_scale)]
                    for row in vals], col_scale), s


def write_matrix_file(path, M, s):
    """Header `q= rows= cols= shift=`, then rows of ' | '-separated entries."""
    lines = [f"q={M.field.q} rows={M.k} cols={M.k} "
             f"shift={','.join(str(x) for x in s)}"]
    lines += [" | ".join(format_laurent(M.entry_laurent(i, j))
                         for j in range(M.k)) for i in range(M.k)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_monomial(m):  # type(e) is int: JSON true is no exponent
    return (isinstance(m, dict) and isinstance(m.get("exps"), list)
            and all(type(e) is int for e in m["exps"])
            and isinstance(m.get("coeff"), str))


def load_map(spec, field):
    """Polynomial map from "veronese:<n>" or a JSON map file path.

    The JSON shape is checked here; PolyMap checks d, the exponents and
    that there is a component.
    """
    if spec.startswith("veronese:"):
        return PolyMap.veronese(field, int(spec.split(":", 1)[1]))
    doc = json.loads(read_text(spec))
    if not (isinstance(doc, dict) and type(doc.get("d")) is int
            and isinstance(doc.get("components"), list)
            and all(isinstance(c, list) and all(map(_is_monomial, c))
                    for c in doc["components"])):
        raise ValueError('map file needs {"d": <int>, "components": '
                         '[[{"exps": [<int>, ...], "coeff": "<poly>"}, '
                         '...], ...]}')
    return PolyMap(doc["d"], tuple(
        tuple((tuple(m["exps"]), parse_poly(m["coeff"], field))
              for m in comp)
        for comp in doc["components"]))


def parse_config(text):
    """An experiment config's key=value lines as a dict of strings.

    Blank lines and '#' comments are skipped; a line without '=' and a
    key given twice are refused.
    """
    keys = {}
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"config line {i} is not key=value")
        if key in keys:
            raise ValueError(f"config key {key!r} is given twice")
        keys[key] = value
    return keys
