"""Exact sparse rational linear algebra.

Vectors are dicts {index: value} with no stored zeros; values are ints or
Fractions (mixed arithmetic stays exact). Matrices are column-major. One
elimination engine, Echelon, serves every caller: a fraction-free integer
column echelon (Bareiss-style cross-multiplication) that counts rank for the
large streamed computations and, with tracking on, also yields kernel
relations, span membership and exact coordinates over the inserted vectors.
Built modulo a family S, it works in the quotient by span(S): the homology
solver eliminates a chain modulo the boundaries in one echelon this way.
The chain-map checks test their products for zero with SparseMatrix.apply,
the dict product. The d.d = 0 checks use SparseMatrix.first_nonzero_image,
which reads the lower boundary through column_items, so a cached boundary
is read in place without building its column dicts.

Echelon reduces in one loop. Each step cross-multiplies by the two leads
over their gcd; tracked, the inserted combination is scaled and combined
the same way. Untracked (rank, span membership, block pivot counts), only
the leads of the pivots are read, so a step that would only flip vec's sign
flips the pivot's multiplier instead. The content is divided out only after
a step that grows it and, tracked, at the end; the divisions skipped are by
positive scalars, so the relations, and the representatives and report
signs built from them, are those of a division after every step.

Echelon always leads with the smallest index. The rank paths, which only
need a count, pick an order that keeps the pivots sparse: fill, not
coefficient size, decides the cost of sparse exact elimination. rank_by_rows
ranks a matrix that nothing keeps, handed over as row dicts, by its rows: it
labels the columns by fewest nonzeros first (ties by highest index first),
so that each pivot leads with its sparsest column, and feeds the rows in
shortest first. rank_only ranks a stored matrix the same way, by one private
engine: it transposes the columns straight into those labels, with their
stored lengths as the counts. A boundary d_n has far fewer rows than columns
(d_5 of CL over gl_2 of the dual numbers is 4096 x 32768), so this takes
fewer, shorter reduction steps, and row dicts hold the entries more
compactly than column dicts. rank_by_columns eliminates a stored matrix by
its columns instead, shortest first with the rows in reverse, so that each
pivot leads with its largest original row. It serves P's boundaries, which
rank several times slower by rows (s3's P_4, 7776 x 186624: 26.8 s by rows,
8.2 s by columns), and the small induced maps exactness_check ranks. Every
other path keeps the natural order, which its results depend on:
kernel_basis relations (and the representatives and report signs built from
them) follow the pivot order, and blocked_rank needs the leading block
eliminated ahead of the trailing one.

The three rank paths also return the independent columns they found, and
take a set of rows to leave out; together these clear a chain complex
(Chen-Kerber's twist). If d_{n-1} d_n = 0 and J is a set of rank d_{n-1}
independent columns of d_{n-1}, the rows of d_n indexed by J lie in the
span of its other rows: the rows of d_{n-1} combine to vectors that are the
unit vector e_j on J, and each is a relation among the rows of d_n. So d_n
ranks the same with those rows left out, and its independent columns are
the same too, which clears d_{n+1} in turn. Without d_{n-1} d_n = 0 the
cleared rank can come out too small, so the caller must know the product
vanishes: complexes.boundary_rank proves it from the terms of CL, CHH, L
and P. The derived kinds and a degree whose rank below was read from the
cache are ranked without clearing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vec_scaled_add(acc: dict, vec: dict, coeff) -> None:
    """acc += coeff * vec, in place, pruning zeros."""
    if not coeff:
        return
    for k, v in vec.items():
        val = acc.get(k, 0) + coeff * v
        if val:
            acc[k] = val
        else:
            acc.pop(k, None)


def integerize(vec: dict):
    """Clear denominators: (w, mult) with w = mult * vec an integer vector."""
    mult = 1
    ints = True
    for v in vec.values():
        if type(v) is not int:
            ints = False
            d = v.denominator
            if d != 1:
                mult = mult // gcd(mult, d) * d
    if ints:
        return dict(vec), 1
    if mult == 1:
        return {k: int(v) for k, v in vec.items()}, 1
    return {k: int(v * mult) for k, v in vec.items()}, mult


class SparseMatrix:
    """Column-major exact sparse matrix over the rationals."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns=None):
        self.rows = rows
        self.cols = cols
        self.columns = columns if columns is not None else [dict() for _ in range(cols)]

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "SparseMatrix":
        m = cls(rows, cols)
        for r, c, v in entries:
            if not 0 <= r < rows or not 0 <= c < cols:
                raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
            col = m.columns[c]
            val = col.get(r, 0) + v
            if val:
                col[r] = val
            else:
                col.pop(r, None)
        return m

    @classmethod
    def from_columns(cls, rows: int, cols: int, col) -> "SparseMatrix":
        """The matrix whose column j is the dict col(j), taken as it is."""
        return cls(rows, cols, [col(j) for j in range(cols)])

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.from_columns(n, n, lambda j: {j: 1})

    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)

    def is_zero(self) -> bool:
        return all(not c for c in self.columns)

    def column_items(self):
        """Each column's (row, value) pairs, column by column."""
        return map(dict.items, self.columns)

    def first_nonzero_image(self, columns):
        """The index of the first of columns (each an iterable of (index,
        value) pairs) that this matrix does not send to zero, or None.

        This matrix is read once, through column_items, into a list that
        lives for the call. Each product is summed into one fresh dict,
        without pruning, and is zero when all its values are: exact over
        ints and Fractions.
        """
        lower = list(self.column_items())
        for j, items in enumerate(columns):
            acc = {}
            get = acc.get
            for i, c in items:
                for r, v in lower[i]:
                    acc[r] = get(r, 0) + c * v
            if any(acc.values()):
                return j
        return None

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product; vec indexes columns."""
        out: dict = {}
        for j, coeff in vec.items():
            vec_scaled_add(out, self.columns[j], coeff)
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return SparseMatrix.from_columns(self.rows, other.cols,
                                         lambda j: self.apply(other.columns[j]))

    def scaled(self, coeff) -> "SparseMatrix":
        out = SparseMatrix(self.rows, self.cols)
        if coeff:
            for j, col in enumerate(self.columns):
                out.columns[j] = {i: coeff * v for i, v in col.items()}
        return out

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        out = SparseMatrix(self.rows, self.cols)
        for j in range(self.cols):
            col = dict(self.columns[j])
            vec_scaled_add(col, other.columns[j], 1)
            out.columns[j] = col
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        for a, b in zip(self.columns, other.columns):
            if len(a) != len(b):
                return False
            for k, v in a.items():
                if b.get(k, 0) != v:
                    return False
        return True

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.rows, self.cols, self.nnz())


class Echelon:
    """Fraction-free integer column echelon with lead = smallest index.

    Inserted vectors (ints or Fractions) are cleared of denominators, then
    reduced against the pivots by _reduce, which cross-multiplies and
    divides out the content after each step that scales by more than a
    sign; a stored pivot has content 1. With track on, each pivot also
    keeps the integer combination of inserted vectors it equals, a rejected
    insert leaves its combination in .relations (a kernel vector of the
    inserted family), and express() writes a vector of the span over the
    inserted vectors. Every relation, and every stored pivot together with
    its combination, has content 1.

    The vectors of modulo are reduced first and kept as pivots with an empty
    combination, so rank counts them, and insert, relations and express()
    all hold modulo their span: a relation sums to an element of span(modulo),
    and express() leaves a remainder there. They are not inserts and take no
    insert index.
    """

    def __init__(self, track: bool = False, modulo=()):
        self.track = track
        self.pivots: dict = {}       # lead -> (integer vector, combo or None)
        self.relations: list = []    # integer combos of inserts summing to 0
        self.num_inserted = 0
        for vec in modulo:
            work = integerize(vec)[0]
            combo = {} if track else None
            lead = self._reduce(work, combo)
            if lead is not None:
                self.pivots[lead] = (dict(work), combo)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict, combo=None):
        """Reduce vec in place, and combo with it if given; vec's new lead
        or None.

        Each step against a pivot p with lead a takes b from vec's lead and
        forms mv * vec - mp * p, with mv = a / gcd(a, b) and mp = b / gcd(a,
        b), sign included. Tracked, combo is scaled and combined exactly
        like vec, so vec = sum combo[i] * inserted_i (modulo span(modulo))
        holds throughout. Untracked, only vec's lead is read, so a step with
        mv = -1 negates mp and leaves vec unscaled. The content is divided
        out after a step with |mv| != 1, where it grows, and on the way out,
        from a relation too once vec is zero. A division skipped in between
        is by a positive scalar, so every pivot, relation and expression
        comes out as it would with a division after every step.
        """
        pivots = self.pivots
        while vec:
            lead = min(vec)
            hit = pivots.get(lead)
            if hit is None:
                _divide_content(vec, combo)
                return lead
            p, pcombo = hit
            a = p[lead]
            b = vec.pop(lead)
            g = gcd(a, b)
            mv = a // g
            mp = b // g
            if mv == -1 and combo is None:
                mp = -mp
            elif mv != 1:
                for k in vec:
                    vec[k] *= mv
                if combo is not None:
                    for k in combo:
                        combo[k] *= mv
            for k, pv in p.items():
                if k == lead:
                    continue
                val = vec.get(k, 0) - mp * pv
                if val:
                    vec[k] = val
                else:
                    del vec[k]
            if combo is not None:
                vec_scaled_add(combo, pcombo, -mp)
            if mv != -1 and mv != 1:
                _divide_content(vec, combo)
        if combo is not None:
            _divide_content(vec, combo)
        return None

    def insert(self, vec: dict):
        """Insert a vector; returns its pivot lead, or None if in the span."""
        idx = self.num_inserted
        self.num_inserted += 1
        work, scale = integerize(vec)
        combo = {idx: scale} if self.track else None
        lead = self._reduce(work, combo)
        if lead is None:
            if combo is not None:
                self.relations.append(combo)
            return None
        # stored as a copy: reduction leaves work's hash table oversized
        self.pivots[lead] = (dict(work), combo)
        return lead

    def contains(self, vec: dict) -> bool:
        return self._reduce(integerize(vec)[0]) is None

    def express(self, vec: dict):
        """Exact coefficients over the inserted vectors, or None outside the span.

        Returns {insert index: coeff} with vec = sum coeff * inserted (modulo
        span(modulo)). The reduction tracks -vec as one more insert under the
        key -1, which no insert uses; once the work vector is zero, s * (-vec)
        + sum c_i * inserted_i = 0 with s the integer scale left under -1.
        """
        if not self.track:
            raise ValueError("echelon built without tracking")
        work, scale = integerize(vec)
        combo = {-1: -scale}
        if self._reduce(work, combo) is not None:
            return None
        s = combo.pop(-1)
        if s == 1:
            return combo
        return {i: Fraction(c, s) for i, c in combo.items()}


def _divide_content(vec: dict, combo) -> None:
    """Divide vec and combo in place by the gcd of all their entries."""
    g = gcd(*vec.values())
    if combo is not None and g != 1:
        g = gcd(g, *combo.values())
    if g > 1:
        for k in vec:
            vec[k] //= g
        if combo is not None:
            for k in combo:
                combo[k] //= g


def kernel_basis(M: SparseMatrix) -> list:
    """Integer kernel basis of M, read off the columns that add no rank.

    Column j that reduces to zero against the columns before it yields a
    relation with nonzero coefficient on j and support on columns <= j.
    """
    ech = Echelon(track=True)
    for col in M.columns:
        ech.insert(col)
    return ech.relations


def rank_by_columns(M: SparseMatrix, skip=frozenset()):
    """(rank of M, a set of rank-many independent column indices of M),
    with the rows in skip left out, eliminated by columns.

    The nonzero columns go in fewest nonzeros first (a stable sort, so ties
    keep their column order), and rows are relabelled i -> rows - 1 - i so
    that each pivot's lead is its largest original row index. The
    independent columns are those whose insert adds a pivot. Stored P
    boundaries, which rank several times slower by rows, go this way, and
    so do the small induced maps of exactness_check. The rows in skip must
    lie in the span of the others, as for rank_only.
    """
    last = M.rows - 1
    columns = M.columns
    ech = Echelon()
    independent = set()
    for j in sorted((j for j, col in enumerate(columns) if col),
                    key=lambda j: len(columns[j])):
        col = {last - i: v for i, v in columns[j].items() if i not in skip}
        if col and ech.insert(col) is not None:
            independent.add(j)
    return ech.rank, independent


def rank_only(M: SparseMatrix, skip=frozenset()):
    """(rank of M, a set of rank-many independent column indices of M),
    with the rows in skip left out, eliminated by rows.

    M is transposed straight into the column labels of rank_by_rows, its
    stored column lengths serving as the column counts, and eliminated by
    the same engine. The rows in skip must lie in the span of the other
    rows, or the rank comes out too small. The rows that the independent
    columns of an L with L M = 0 index do (the clearing lemma in the module
    docstring); complexes.boundary_rank clears only where it has proven
    L M = 0.
    """
    label = _column_labels([len(col) for col in M.columns])
    by_row = [{} for _ in range(M.rows)]
    for pos, col in zip(label, M.columns):
        for i, v in col.items():
            by_row[i][pos] = v
    for i in skip:
        by_row[i] = {}
    return _rank_labelled_rows(by_row, label)


def rank_by_rows(by_row: list, cols: int, skip=frozenset()):
    """(rank, a set of rank-many independent column indices) of the matrix
    with cols columns whose rows are the dicts {column: value} of by_row,
    the rows in skip left out, eliminated by rows (see the module
    docstring). The rows are consumed: each is relabelled in place and
    dropped from by_row as it goes in, and each row in skip is dropped
    unread. As for rank_only, the rows in skip must lie in the span of the
    others.
    """
    for i in skip:
        by_row[i] = {}
    counts = [0] * cols
    for row in by_row:
        for j in row:
            counts[j] += 1
    label = _column_labels(counts)
    for i, row in enumerate(by_row):
        by_row[i] = {label[j]: v for j, v in row.items()}
    return _rank_labelled_rows(by_row, label)


def _column_labels(counts: list) -> list:
    """label[j], the position of column j when the columns are ordered by
    fewest nonzeros first (counts[j]), ties by highest index first."""
    label = [0] * len(counts)
    # a stable sort of the indices from the highest down: ties keep that order
    for pos, j in enumerate(sorted(range(len(counts) - 1, -1, -1),
                                   key=counts.__getitem__)):
        label[j] = pos
    return label


def _rank_labelled_rows(by_row: list, label: list):
    """The engine of rank_only and rank_by_rows: (rank, independent columns)
    of the rows of by_row, each a dict keyed by column label, inserted
    shortest first (a stable sort of by_row in place) and consumed. The
    independent columns are the leads of the pivots, mapped back through
    label."""
    ech = Echelon()
    by_row.sort(key=len)
    for i, row in enumerate(by_row):
        by_row[i] = None
        if row:
            ech.insert(row)
    leads = ech.pivots
    return ech.rank, {j for j, pos in enumerate(label) if pos in leads}


def blocked_rank(vec_iter, split: int, stop_at_second: int):
    """Stream stacked vectors into a staircase echelon, counting block pivots.

    Vectors mix a leading block (indices < split) and a trailing block. Since
    pivots have distinct leads and a vector's entries below its lead are all
    zero, the projection onto the leading block of the echelon span is exactly
    the span of the leading-block pivots: first-block pivot count = rank of
    the projected family, and trailing pivots count the quotient rank.

    Returns (first_block_pivots, second_block_pivots). The stream stops once
    the second count reaches stop_at_second; the counts are then lower bounds
    on the full-stream values (pivot counts only grow as vectors arrive).
    """
    ech = Echelon()
    first = 0
    second = 0
    for vec in vec_iter:
        if not vec:
            continue
        lead = ech.insert(vec)
        if lead is None:
            continue
        if lead < split:
            first += 1
        else:
            second += 1
            if second >= stop_at_second:
                break
    return first, second
