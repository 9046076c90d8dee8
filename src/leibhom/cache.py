"""Disk cache for boundary matrices and their ranks.

One file per (algebra fingerprint, complex kind, degree), format
"leibhom-boundary 4". Its first line is an ASCII header naming the format,
the generator digest, the full fingerprint, the kind, the degree, the shape,
the number of entries and the sha256 of the body. The generator digest
hashes the sources that decide a boundary's entries, complexes.py, perms.py
and this module, comments included, once per process, so a file that loads
is the boundary this process generates. The body opens with an ASCII line
holding the rank of the boundary, or "-" when the run that wrote it never
ranked it. Then comes one ASCII palette line holding the distinct values as
reduced rationals, in order of first appearance, and three little-endian
uint32 arrays, the entry count of each column, the row of each entry and
each entry's palette index, with the entries column by column and rows
ascending. The loader reads a file whole and rejects it (returns None; the
caller recomputes the boundary, and its Session overwrites the file when it
saves) if its header does not name the boundary asked for, or its body
fails its digest or its exact length, holds a rank outside [0, min(rows,
cols)], a bad palette token, a zero in the palette, a row or palette index
out of range, column sizes that do not sum to the entry count, or rows
that do not ascend within a column (save_boundary writes them ascending,
so a row repeated within a column is a reject). A loaded boundary keeps
the validated arrays. The d.d = 0 checks read it in place through
column_items, one transient tuple of (row, value) pairs per column, and
build no column dict. Every other reader of its columns (an equality, a
rank, a chain-map check, a save) decodes the column dicts from the arrays
on the first read, then the arrays are dropped: a boundary whose rank
comes from its file, or that only d.d reads, costs only its arrays. The
decoded columns keep the file's order and the palette's values, and hold
one int object per row index, shared by every entry in that row.

The functions count their hits, misses, writes and rejects in the counts
dict passed last (a Session's cache_counts), so determinism checks can
compare cold and warm runs.
"""

from __future__ import annotations

import hashlib
import os
import sys
from array import array
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, le

from .linalg import SparseMatrix

FORMAT = "leibhom-boundary 4"


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


_COLUMNS = SparseMatrix.columns  # the slot that _Loaded.columns hides


class _Loaded(SparseMatrix):
    """A loaded boundary whose columns slot holds its validated arrays until
    the first read of .columns builds the column dicts from them. The read
    stores the dicts in the slot, dropping the arrays, and makes the matrix
    a plain SparseMatrix, whose attribute reads take the slot's fast path (a
    __getattr__ hook made every read of a decoded matrix's attributes
    several times slower). column_items, the d.d checks' read, takes the
    pairs straight from the arrays and stores nothing, so a boundary that
    only d.d reads, or that nobody reads, holds only its arrays."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, arrays):
        self.rows = rows
        self.cols = cols
        _COLUMNS.__set__(self, arrays)

    @property
    def columns(self):
        keys, palette, sizes, rs, picks = _COLUMNS.__get__(self)
        # every entry of a row shares one int key: a new int per entry took
        # 4 MB of a warm battery's peak RSS
        pairs = zip(map(list(range(keys)).__getitem__, rs),
                    map(palette.__getitem__, picks))
        columns = list(map(dict, map(islice, repeat(pairs), sizes)))
        _COLUMNS.__set__(self, columns)
        self.__class__ = SparseMatrix
        return columns

    def column_items(self):
        _, palette, sizes, rs, picks = _COLUMNS.__get__(self)
        pairs = zip(rs, map(palette.__getitem__, picks))
        return map(tuple, map(islice, repeat(pairs), sizes))


def boundary_path(cache_dir: str, fingerprint: str, kind: str, degree: int) -> str:
    return os.path.join(cache_dir, "%s.%s.%d.bnd" % (fingerprint[:16], kind, degree))


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
                  mat: SparseMatrix, rank: int | None,
                  counts: dict) -> None:
    """Write d_n with its rank, or with "-" for a rank of None."""
    os.makedirs(cache_dir, exist_ok=True)
    entries = list(chain.from_iterable(sorted(col.items())
                                       for col in mat.columns))
    values = list(map(itemgetter(1), entries))
    palette = {v: i for i, v in enumerate(dict.fromkeys(values))}
    words = array(_U32, map(len, mat.columns))
    words.extend(map(itemgetter(0), entries))
    words.extend(map(palette.__getitem__, values))
    text = "%s\n%s\n" % ("-" if rank is None else rank,
                          " ".join(map(str, map(Fraction, palette))))
    body = text.encode("ascii") + _little_endian(words).tobytes()
    path = boundary_path(cache_dir, fingerprint, kind, degree)
    _write(path, ("%s%d %s\n" % (
        _header_prefix(fingerprint, kind, degree, mat.rows, mat.cols),
        len(entries), hashlib.sha256(body).hexdigest())).encode("ascii") + body)
    counts["writes"] += 1


def load_boundary(cache_dir: str, fingerprint: str, kind: str, degree: int,
                  rows: int, cols: int, counts: dict):
    """(the cached matrix, its rank or None), or None on a miss or a
    rejected file.

    The file is read whole, and every check runs before this returns, each
    once over a whole array: the palette is parsed once per distinct value,
    and one pass over the row array checks that rows ascend within each
    column. The matrix decodes its columns on their first read, each column
    one slice of the (row, value) pairs.
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
        mark = data.index(b"\n", start)
        split = data.index(b"\n", mark + 1) + 1
        if digest != want or len(data) - split != 4 * (cols + 2 * nnz):
            raise ValueError("body does not match its header")
        rank = data[start:mark]
        if rank == b"-":
            rank = None
        elif rank.isdigit() and int(rank) <= min(rows, cols):
            rank = int(rank)
        else:
            raise ValueError("rank out of range")
        palette = list(map(_parse_value,
                           data[mark + 1:split].decode("ascii").split()))
        # memoryview slices copy nothing: copying a large body's arrays
        # raised a warm battery's peak RSS by 0.2 MB
        words = array(_U32)
        words.frombytes(memoryview(data)[split:])
        words = memoryview(_little_endian(words))
        sizes, rs, picks = (words[:cols], words[cols:cols + nnz],
                             words[cols + nnz:])
        top = max(rs, default=-1)
        if (0 in palette or sum(sizes) != nnz or top >= rows
                or max(picks, default=-1) >= len(palette)):
            raise ValueError("entry out of range or a stored zero")
        # one pass over the whole row array: only an entry that opens a
        # column may fail to rise above the entry before it. inner marks
        # the entries that open none (a per-column set check cost a warm
        # battery wall time, and a set of the column starts its peak RSS)
        inner = bytearray(b"\1") * (nnz + 1)
        deque(map(inner.__setitem__, accumulate(sizes), repeat(0)), 0)
        if any(compress(map(le, islice(rs, 1, None), rs),
                        islice(inner, 1, None))):
            raise ValueError("rows do not ascend within a column")
        mat = _Loaded(rows, cols, (top + 1, palette, sizes, rs, picks))
    except ValueError:
        counts["rejects"] += 1
        return None
    counts["hits"] += 1
    return mat, rank

