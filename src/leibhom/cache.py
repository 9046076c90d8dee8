"""Disk cache for boundary matrices and their ranks.

One file per (algebra fingerprint, complex kind, degree). The first line is
a header naming the format version, the full fingerprint, the kind, the
degree, the shape, the number of entries and the sha256 of the body; the
body holds the sorted nonzero entries as "row col value" lines with exact
rationals. A file whose header does not name the boundary asked for, or
whose body fails its line count, digest or parse, holds a line of other
than three fields, an entry out of range or a stored zero, is rejected: the
loader returns None and the caller recomputes and overwrites it.

Next to a boundary file, a one-line rank record stores the rank of that
boundary. It binds the rank to the full fingerprint, kind, degree and shape
and to the sha256 of the boundary file's body it was computed from, and
ends with the sha256 of the record itself. A record is trusted only when
all of these match the boundary just loaded and 0 <= rank <= min(rows,
cols); any other record is refused, which costs no more than ranking the
boundary again and rewriting the record.

The functions count their hits, misses, writes and rejects in the counts
dict passed last (a Session's cache_counts for boundaries, its rank_counts
for rank records), so determinism checks can compare cold and warm runs.
"""

from __future__ import annotations

import hashlib
import os
import re
from fractions import Fraction

from .linalg import SparseMatrix

FORMAT = "leibhom-boundary 1"
RANK_FORMAT = "leibhom-rank 1"

# a batch of body lines, each exactly three fields separated by one space
_BODY_LINES = re.compile(r"(?:\S+ \S+ \S+\n)*")


def boundary_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.bnd" % (fingerprint[:16], kind, degree))


def rank_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.rank" % (fingerprint[:16], kind, degree))


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


def _write(path: str, *parts: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.writelines(parts)
    os.replace(tmp, path)


def save_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  mat: SparseMatrix, counts: dict) -> str:
    """Write d_n; returns the sha256 of the body written."""
    os.makedirs(cache_dir, exist_ok=True)
    entries = mat.entries_sorted()
    body = "".join("%d %d %s\n" % (r, c, _format_value(v))
                   for r, c, v in entries)
    body_digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    _write(boundary_path(cache_dir, fingerprint, kind, degree), "%s%d %s\n" % (
        _header_prefix(fingerprint, kind, degree, mat.rows, mat.cols),
        len(entries), body_digest), body)
    counts["writes"] += 1
    return body_digest


def load_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  rows: int, cols: int, counts: dict):
    """(the cached matrix, the sha256 of its body), or None on a miss or a
    rejected file.

    The body is read, hashed and parsed in batches of lines, so no file is
    held in memory whole; each batch is split once and its rows, columns
    and values are parsed and range-checked as three lists.
    """
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    if not os.path.exists(path):
        counts["misses"] += 1
        return None
    prefix = _header_prefix(fingerprint, kind, degree, rows, cols)
    mat = SparseMatrix(rows, cols)
    columns = mat.columns
    digest = hashlib.sha256()
    count = 0
    try:
        with open(path, encoding="ascii") as fh:
            head = fh.readline()
            if not head.startswith(prefix):
                raise ValueError("header does not match")
            nnz, want = head[len(prefix):].split()
            # 16 KiB batches: a batch's tokens and parsed lists are live at
            # once, and 64 KiB raised a warm battery's peak RSS by 1 MB
            for batch in iter(lambda: fh.readlines(1 << 14), []):
                text = "".join(batch)
                digest.update(text.encode("ascii"))
                if not _BODY_LINES.fullmatch(text):
                    raise ValueError("a line without three fields")
                fields = text.split()
                rs = list(map(int, fields[0::3]))
                cs = list(map(int, fields[1::3]))
                vs = list(map(_parse_value if "/" in text else int,
                              fields[2::3]))
                if (min(rs) < 0 or max(rs) >= rows or min(cs) < 0
                        or max(cs) >= cols):
                    raise ValueError("entry out of range")
                if 0 in vs:
                    raise ValueError("stored zero")
                for r, c, v in zip(rs, cs, vs):
                    columns[c][r] = v
                count += len(batch)
        if count != int(nnz) or digest.hexdigest() != want:
            raise ValueError("body does not match its header")
    except ValueError:
        counts["rejects"] += 1
        return None
    counts["hits"] += 1
    return mat, digest.hexdigest()


def _rank_prefix(fingerprint: str, kind: str, degree: int, rows: int,
                 cols: int, body_digest: str) -> str:
    return "%s %s %s %d %d %d %s " % (RANK_FORMAT, fingerprint, kind, degree,
                                      rows, cols, body_digest)


def save_rank(cache_dir: str, fingerprint: str, kind: str, degree: int,
              rows: int, cols: int, body_digest: str, rank: int,
              counts: dict) -> None:
    """Write the rank record of d_n, whose boundary file body has sha256
    body_digest."""
    record = "%s%d" % (_rank_prefix(fingerprint, kind, degree, rows, cols,
                                    body_digest), rank)
    _write(rank_path(cache_dir, fingerprint, kind, degree), "%s %s\n" % (
        record, hashlib.sha256(record.encode("ascii")).hexdigest()))
    counts["writes"] += 1


def load_rank(cache_dir: str, fingerprint: str, kind: str, degree: int,
              rows: int, cols: int, body_digest: str, counts: dict):
    """The rank the record of d_n stores, or None.

    A missing record is not counted. A record that does not name this
    boundary and body digest, fails its own digest or holds a rank outside
    [0, min(rows, cols)] is counted as a reject.
    """
    try:
        with open(rank_path(cache_dir, fingerprint, kind, degree),
                  encoding="ascii") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    except ValueError:  # not ASCII
        text = ""
    record, _, own = text.rpartition(" ")
    prefix = _rank_prefix(fingerprint, kind, degree, rows, cols, body_digest)
    value = record[len(prefix):]
    if (record.startswith(prefix) and value.isdigit()
            and own == hashlib.sha256(record.encode("ascii")).hexdigest() + "\n"
            and int(value) <= min(rows, cols)):
        counts["hits"] += 1
        return int(value)
    counts["rejects"] += 1
    return None
