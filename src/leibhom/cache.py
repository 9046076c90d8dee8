"""Disk cache for boundary matrices.

One file per (algebra fingerprint, complex kind, degree). The first line is
a header naming the format version, the full fingerprint, the kind, the
degree, the shape, the number of entries and the sha256 of the body; the
body holds the sorted nonzero entries as "row col value" lines with exact
rationals. A file whose header does not name the boundary asked for, or
whose body fails its line count, digest or parse, is rejected: the loader
returns None and the caller recomputes and overwrites it. Both functions
count their hits, misses, writes and rejects in the counts dict passed last
(a Session's cache_counts), so determinism checks can compare cold and warm
runs.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction

from .linalg import SparseMatrix

FORMAT = "leibhom-boundary 1"

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


def _header_prefix(fingerprint: str, kind: str, degree: int, rows: int,
                   cols: int) -> str:
    return "%s %s %s %d %d %d " % (FORMAT, fingerprint, kind, degree, rows, cols)


def save_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  mat: SparseMatrix, counts: dict) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    entries = mat.entries_sorted()
    body = "".join("%d %d %s\n" % (r, c, _format_value(v))
                   for r, c, v in entries)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("%s%d %s\n" % (
            _header_prefix(fingerprint, kind, degree, mat.rows, mat.cols),
            len(entries), hashlib.sha256(body.encode("ascii")).hexdigest()))
        fh.write(body)
    os.replace(tmp, path)
    counts["writes"] += 1


def load_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  rows: int, cols: int, counts: dict):
    """The cached matrix, or None on a miss or a rejected file.

    The body is read, hashed and parsed in batches of lines, so no file is
    held in memory whole.
    """
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    if not os.path.exists(path):
        counts["misses"] += 1
        return None
    prefix = _header_prefix(fingerprint, kind, degree, rows, cols)
    mat = SparseMatrix(rows, cols)
    digest = hashlib.sha256()
    count = 0
    try:
        with open(path, encoding="ascii") as fh:
            head = fh.readline()
            if not head.startswith(prefix):
                raise ValueError("header does not match")
            nnz, want = head[len(prefix):].split()
            for batch in iter(lambda: fh.readlines(1 << 16), []):
                digest.update("".join(batch).encode("ascii"))
                for line in batch:
                    r, c, v = line.split()
                    r, c = int(r), int(c)
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise ValueError("entry out of range")
                    mat.columns[c][r] = _parse_value(v)
                count += len(batch)
        if count != int(nnz) or digest.hexdigest() != want:
            raise ValueError("body does not match its header")
    except ValueError:
        counts["rejects"] += 1
        return None
    counts["hits"] += 1
    return mat
