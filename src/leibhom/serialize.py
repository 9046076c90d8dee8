"""Algebra file format (UTF-8 JSON).

Algebra files: {"name", "dim", "basis": [names], "unit": ["p/q", ...],
"table": [[i, j, [[k, "p/q"], ...]], ...]} where omitted (i, j) products are
zero and none is named twice. Rationals are always emitted reduced as "p/q";
bare integers are accepted on input.
A value read back is an int whenever it is integral ("-1/1", "4/2", 3) and a
Fraction otherwise, so a file algebra runs the same int arithmetic as the
builtin it was saved from.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Algebra


class FormatError(ValueError):
    """Malformed input file (structure, types, or index ranges)."""


def frac_to_str(v) -> str:
    f = Fraction(v)
    return "%d/%d" % (f.numerator, f.denominator)


def _int_if_integral(v):
    return v.numerator if v.denominator == 1 else v


def frac_from_json(v):
    """An int when the value is integral, else a reduced Fraction."""
    if isinstance(v, str):
        try:
            return _int_if_integral(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError("bad rational %r: %s" % (v, exc))
    if type(v) is int:
        return v
    # bool is an int subclass: JSON true/false is refused, not read as 1/0
    raise FormatError("rational must be an int or 'p/q' string, got %r" % (v,))


def algebra_to_dict(A: Algebra) -> dict:
    table = []
    for i in range(A.dim):
        for j in range(A.dim):
            terms = A.products[i][j]
            if terms:
                table.append([i, j, [[k, frac_to_str(c)] for k, c in sorted(terms)]])
    return {
        "name": A.name,
        "dim": A.dim,
        "basis": list(A.basis_names),
        "unit": [frac_to_str(u) for u in A.unit],
        "table": table,
    }


def algebra_from_dict(d) -> Algebra:
    if not isinstance(d, dict):
        raise FormatError("algebra object must be a JSON object")
    for key in ("name", "dim", "basis", "unit", "table"):
        if key not in d:
            raise FormatError("algebra object missing key %r" % key)
    # type() and not isinstance: JSON true/false are bools, an int subclass
    dim = d["dim"]
    if type(dim) is not int or dim < 1:
        raise FormatError("dim must be a positive integer")
    basis = d["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise FormatError("basis must list exactly dim names")
    unit = d["unit"]
    if not isinstance(unit, list) or len(unit) != dim:
        raise FormatError("unit must be a length-dim vector")
    unit = [frac_from_json(u) for u in unit]
    prods = {}
    if not isinstance(d["table"], list):
        raise FormatError("table must be a list of [i, j, terms] entries")
    for entry in d["table"]:
        try:
            i, j, terms = entry
        except (TypeError, ValueError):
            raise FormatError("table entry %r is not [i, j, terms]" % (entry,))
        if not (type(i) is int and type(j) is int
                and 0 <= i < dim and 0 <= j < dim):
            raise FormatError("table indices (%r, %r) out of range" % (i, j))
        if not isinstance(terms, list):
            raise FormatError("product cell %r is not a list of [k, coeff] "
                              "terms" % (terms,))
        cell = {}
        for term in terms:
            try:
                k, c = term
            except (TypeError, ValueError):
                raise FormatError("product term %r is not [k, coeff]" % (term,))
            if not (type(k) is int and 0 <= k < dim):
                raise FormatError("product index %r out of range" % (k,))
            val = frac_from_json(c)
            if val:
                cell[k] = cell.get(k, 0) + val
        if (i, j) in prods:
            raise FormatError("table names the product (%d, %d) twice"
                              % (i, j))
        prods[i, j] = tuple(sorted((k, _int_if_integral(v))
                                   for k, v in cell.items() if v))
    table = tuple(tuple(prods.get((i, j), ()) for j in range(dim))
                  for i in range(dim))
    return Algebra(str(d["name"]), [str(b) for b in basis], unit, table)


def load_algebra(path: str) -> Algebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc)
    return algebra_from_dict(data)


def save_algebra(A: Algebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(A), fh, indent=2)
        fh.write("\n")

