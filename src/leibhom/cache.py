"""Disk cache for boundary matrices and their ranks.

One file per (algebra fingerprint, complex kind, degree), format
"leibhom-boundary 3". Its first line is an ASCII header naming the format,
the generator digest, the full fingerprint, the kind, the degree, the shape,
the number of entries and the sha256 of the body. The generator digest
hashes the sources that decide a boundary's entries, complexes.py, perms.py
and this module, comments included, once per process, so a file that loads
is the boundary this process generates. The body is binary: one ASCII
palette line holding the distinct values as reduced rationals, in order of
first appearance, then three little-endian uint32 arrays, the entry count of
each column, the row of each entry and each entry's palette index, with the
entries column by column and rows ascending. The loader reads a file whole
and rejects it (returns None; the caller recomputes and overwrites it) if
its header does not name the boundary asked for, or its body fails its
digest or its exact length, holds a bad palette token, a zero in the
palette, a row or palette index out of range, or column sizes that do not
sum to the entry count or repeat a row within a column.

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
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter

from .linalg import SparseMatrix

FORMAT = "leibhom-boundary 3"
RANK_FORMAT = "leibhom-rank 1"


@lru_cache(maxsize=None)
def _generator_digest() -> str:
    """The sha256 over the sha256 of each source named above."""
    here, h = os.path.dirname(__file__), hashlib.sha256()
    try:
        for name in ("complexes.py", "perms.py", "cache.py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    except OSError:  # a token no file holds: no file is trusted
        return os.urandom(32).hex()
    return h.hexdigest()


_U32 = "I"
assert array(_U32).itemsize == 4


def boundary_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.bnd" % (fingerprint[:16], kind, degree))


def rank_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.rank" % (fingerprint[:16], kind, degree))


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
    return "%s %s %s %s %d %d %d " % (FORMAT, _generator_digest(), fingerprint,
                                      kind, degree, rows, cols)


def _little_endian(words: array) -> array:
    """words byteswapped in place on a big-endian host: file order to native
    order and back."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  mat: SparseMatrix, counts: dict) -> str:
    """Write d_n; returns the sha256 of the body written."""
    os.makedirs(cache_dir, exist_ok=True)
    entries = list(chain.from_iterable(sorted(col.items())
                                       for col in mat.columns))
    values = list(map(itemgetter(1), entries))
    palette = {v: i for i, v in enumerate(dict.fromkeys(values))}
    words = array(_U32, map(len, mat.columns))
    words.extend(map(itemgetter(0), entries))
    words.extend(map(palette.__getitem__, values))
    palette_line = "%s\n" % " ".join(map(str, map(Fraction, palette)))
    body = palette_line.encode("ascii") + _little_endian(words).tobytes()
    body_digest = hashlib.sha256(body).hexdigest()
    _write(boundary_path(cache_dir, fingerprint, kind, degree), ("%s%d %s\n" % (
        _header_prefix(fingerprint, kind, degree, mat.rows, mat.cols),
        len(entries), body_digest)).encode("ascii") + body)
    counts["writes"] += 1
    return body_digest


def load_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  rows: int, cols: int, counts: dict):
    """(the cached matrix, the sha256 of its body), or None on a miss or a
    rejected file.

    The file is read whole, and each check runs once over a whole array:
    the palette is parsed once per distinct value, and each column is one
    slice of the (row, value) pairs.
    """
    try:
        with open(boundary_path(cache_dir, fingerprint, kind, degree),
                  "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        counts["misses"] += 1
        return None
    prefix = _header_prefix(fingerprint, kind, degree, rows, cols)
    try:
        start = data.index(b"\n") + 1
        head = data[:start].decode("ascii")
        if not head.startswith(prefix):
            raise ValueError("header does not match")
        nnz, want = head[len(prefix):].split()
        nnz = int(nnz)
        digest = hashlib.sha256(memoryview(data)[start:]).hexdigest()
        split = data.index(b"\n", start) + 1
        if digest != want or len(data) - split != 4 * (cols + 2 * nnz):
            raise ValueError("body does not match its header")
        palette = list(map(_parse_value,
                           data[start:split].decode("ascii").split()))
        # memoryview slices copy nothing: copying a large body's arrays
        # raised a warm battery's peak RSS by 0.2 MB
        words = array(_U32)
        words.frombytes(memoryview(data)[split:])
        words = memoryview(_little_endian(words))
        sizes, rs, picks = (words[:cols], words[cols:cols + nnz],
                             words[cols + nnz:])
        if (0 in palette or sum(sizes) != nnz
                or nnz and (max(rs) >= rows or max(picks) >= len(palette))):
            raise ValueError("entry out of range or a stored zero")
        pairs = zip(rs.tolist(), map(palette.__getitem__, picks))
        mat = SparseMatrix(rows, cols, [dict(islice(pairs, k)) for k in sizes])
        if sum(map(len, mat.columns)) != nnz:
            raise ValueError("a row repeated within a column")
    except ValueError:
        counts["rejects"] += 1
        return None
    counts["hits"] += 1
    return mat, digest


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
    _write(rank_path(cache_dir, fingerprint, kind, degree), ("%s %s\n" % (
        record, hashlib.sha256(record.encode("ascii")).hexdigest()))
        .encode("ascii"))
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
