"""Disk cache for boundary matrices.

One file per (algebra fingerprint, complex kind, degree), holding the sorted
nonzero entries as "row col value" lines with exact rationals. The format
carries no shape header; loaders pass the expected dimensions, which are
recomputable from the algebra. Hit counters let determinism checks compare
cold and warm runs.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .linalg import SparseMatrix

COUNTERS = {"hits": 0, "misses": 0, "writes": 0}


def reset_counters() -> None:
    for k in COUNTERS:
        COUNTERS[k] = 0


def boundary_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.bnd" % (fingerprint[:16], kind, degree))


def _format_value(v) -> str:
    f = Fraction(v)
    return str(f)  # "p" or "p/q", always reduced


def _parse_value(s: str):
    """An int, or a Fraction for "p/q"; anything else raises ValueError."""
    if "/" not in s:
        return int(s)
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in cache value %r" % s) from None
    return int(f) if f.denominator == 1 else f


def save_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  mat: SparseMatrix) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for r, c, v in mat.entries_sorted():
            fh.write("%d %d %s\n" % (r, c, _format_value(v)))
    os.replace(tmp, path)
    COUNTERS["writes"] += 1


def load_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  rows: int, cols: int):
    """The cached matrix, or None on a miss. Malformed files raise ValueError."""
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    if not os.path.exists(path):
        COUNTERS["misses"] += 1
        return None
    mat = SparseMatrix(rows, cols)
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError("bad cache line in %s: %r" % (path, line))
            r, c = int(parts[0]), int(parts[1])
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("cache entry out of range in %s" % path)
            mat.columns[c][r] = _parse_value(parts[2])
    COUNTERS["hits"] += 1
    return mat
